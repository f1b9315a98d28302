import copy
import pickle
import random
import sys
from collections import Counter, defaultdict
from itertools import permutations, product as cartesian
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from naphopf.trees import (
    Forest,
    LEAF,
    LabeledTree,
    RootedTree,
    TreeSyntaxError,
    TreeTable,
    aut0_order,
    aut_order,
    canonical_representative,
    chain,
    corolla,
    enumerate_forests,
    enumerate_forests_with_components,
    enumerate_trees,
    forest_aut_order,
    graft_onto,
    parse_forest,
    parse_tree,
)
from naphopf import trees as trees_module
from naphopf.oracles import (
    _compose_labeled,
    comm_instance,
    compose_shapes,
    dfs_representative,
    labeled_forests,
    labeled_trees,
    nap_compose,
    nap_instance,
    singleton,
)


@st.composite
def random_trees(draw, max_size=8):
    n = draw(st.integers(min_value=1, max_value=max_size))
    children = defaultdict(list)
    for i in range(1, n):
        children[draw(st.integers(min_value=0, max_value=i - 1))].append(i)

    def build(v):
        return RootedTree(build(c) for c in children[v])

    return build(0)


# --- parsing and canonical form ---------------------------------------------


def test_parse_base_cases():
    assert parse_tree("()") == LEAF
    assert parse_tree("(())") == chain(2)
    assert parse_tree("(())").size == 2


def test_parse_canonicalizes_child_order():
    # the heavier branch is listed first in the input, last in canonical form
    assert parse_tree("((())())").string == "(()(()))"
    assert parse_tree("((())())") == parse_tree("(()(()))")


# (text, byte offset, message); the ids are "<text>-<offset>"
PARSE_ERRORS = [
    ("", 0, "unexpected end of input, expected '('"),
    (" ", 1, "unexpected end of input, expected '('"),
    ("x", 0, "expected '(' but found 'x'"),
    ("(()", 3, "unclosed '('"),
    ("((", 2, "unclosed '('"),
    ("(())x", 4, "trailing input after tree"),
    ("()  x", 4, "trailing input after tree"),
    (")", 0, "expected '(' but found ')'"),
    ("(() ())", 3, "expected '(' but found ' '"),
    ("()()", 2, "trailing input after tree"),
    (")(", 0, "expected '(' but found ')'"),
    ("( ())", 1, "expected '(' but found ' '"),
    ("(x)", 1, "expected '(' but found 'x'"),
    ("\u00a0()x", 4, "trailing input after tree"),
    ("\u3000(", 4, "unclosed '('"),
    ("()\u2003x", 5, "trailing input after tree"),
]


@pytest.mark.parametrize("text,offset,message", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in PARSE_ERRORS])
def test_parse_errors_report_byte_offsets(text, offset, message):
    with pytest.raises(TreeSyntaxError) as err:
        parse_tree(text)
    assert err.value.offset == offset
    assert str(err.value) == f"{message} (byte {offset})"


def _spelling(rng: random.Random, t: RootedTree) -> str:
    # t written with the children of every vertex in a seeded order
    kids = [_spelling(rng, c) for c in t.children]
    rng.shuffle(kids)
    return "(" + "".join(kids) + ")"


def _built(text: str) -> RootedTree:
    # recursive descent with the RootedTree constructor, no TreeTable
    def tree(i: int) -> tuple[RootedTree, int]:
        kids, i = [], i + 1
        while text[i] == "(":
            kid, i = tree(i)
            kids.append(kid)
        return RootedTree(kids), i + 1

    return tree(0)[0]


def test_parsing_oracle_every_spelling_is_one_shared_tree():
    rng = random.Random(2024)
    for n in range(1, 9):
        for t in enumerate_trees(n):
            parsed = parse_tree(t.string)
            assert parsed == t and parsed.string == t.string
            for _ in range(3):
                text = _spelling(rng, t)
                assert parse_tree(text) is parsed
                assert parse_tree(" %s\n" % text) is parsed
                assert _built(text) == parsed
    assert parse_tree("()") is LEAF


def test_reparsing_builds_nothing(monkeypatch, fresh_table):
    # a guard on work, not on time: once parsed, no spelling of a tree
    # builds a new tree instance or adds a table entry
    rng = random.Random(7)
    texts = [_spelling(rng, t) for n in range(1, 7) for t in enumerate_trees(n)]
    distinct = len(texts) - 1
    table = fresh_table()
    built, added = [], []
    new_tree, add = trees_module._new_tree, TreeTable._add
    monkeypatch.setattr(trees_module, "_new_tree",
                        lambda kids: built.append(kids) or new_tree(kids))
    monkeypatch.setattr(TreeTable, "_add",
                        lambda self, t, key: added.append(t) or add(self, t, key))
    first = [parse_tree(text) for text in texts]
    # enumerate_trees built every instance; the fresh table adds one entry
    # per tree with 2..6 vertices, once however many trees it is a subtree of
    assert built == [] and len(added) == len(set(added)) == distinct
    stats = table.stats()
    assert stats["trees"] == stats["child_keys"] == distinct + 1
    del added[:]
    for text in texts + [_spelling(rng, t) for t in first]:
        assert parse_tree(text) is parse_tree(text)
    assert built == added == []
    # only the spelling memo grows, by the new spellings
    after = table.stats()
    assert after.pop("spellings") > stats.pop("spellings") and after == stats


def test_deep_chain_parses_without_recursion(fresh_table):
    text = "(" * 1200 + ")" * 1200
    fresh = fresh_table()  # every vertex of the chain is new to it
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        t = parse_tree(text)
        with pytest.raises(TreeSyntaxError) as err:
            parse_tree(text[:-1])
    finally:
        sys.setrecursionlimit(limit)
    assert t.size == 1200 and t.string == text and len(fresh) == 1200
    assert err.value.offset == 2399


def test_spelling_memo_lives_and_dies_with_its_table(fresh_table):
    text = "((())(()()))"
    old = fresh_table()
    first = parse_tree(text)
    assert parse_tree(text) is first and text in old.by_text
    # whitespace-padded spellings are memoized apart, as the same tree
    for padded in (" " + text, text + "\n", "\t %s \r\n" % text):
        assert parse_tree(padded) is first
        assert parse_tree(padded) is first
    # a fresh table starts with empty memos and numbers trees in the order
    # it meets them; the tree it hands out is still the one instance
    fresh = fresh_table()
    assert len(fresh) == 1 and not (fresh.by_text or fresh.grafts
                                    or fresh.ideal_table or fresh.antipodes)
    fresh.id(chain(3))
    again = parse_tree(text)
    assert again is first and text in fresh.by_text
    assert old.ids[first] == 3 and fresh.ids[again] == 4
    assert again is fresh.trees[4] and len(fresh) == 5
    assert parse_tree(text) is again
    # malformed text is never stored and raises the same error every call
    for bad, offset in (("((())", 5), ("(()))", 4), (" (x)", 2)):
        for _ in range(3):
            with pytest.raises(TreeSyntaxError) as err:
                parse_tree(bad)
            assert err.value.offset == offset
        assert bad not in fresh.by_text
    assert len(fresh) == 5


# --- one instance per shape --------------------------------------------------


def _spellings(t: RootedTree) -> set[str]:
    # every way to write t: each vertex lists its children in any order
    out = set()
    for order in set(permutations(t.children)):
        for parts in cartesian(*(sorted(_spellings(c)) for c in order)):
            out.add("(" + "".join(parts) + ")")
    return out


def test_identity_oracle_every_construction_is_the_one_instance(fresh_table):
    fresh_table()  # the spellings parsed here fill a table of their own
    for n in range(1, 8):
        for t in enumerate_trees(n):
            for order in permutations(t.children):
                assert RootedTree(order) is t
            for text in _spellings(t):
                assert parse_tree(text) is t and _built(text) is t


def test_identity_oracle_same_object_exactly_when_same_string():
    rng = random.Random(11)
    once = [t for n in range(1, 7) for t in enumerate_trees(n)]
    # each tree twice: as enumerated and rebuilt from a shuffled spelling
    pool = once + [_built(_spelling(rng, t)) for t in once]
    for a in pool:
        for b in pool:
            same = a.string == b.string
            assert (a is b) == same and (a == b) == same
            assert not same or hash(a) == hash(b)


def test_forest_identity_agrees_with_sorted_strings():
    rng = random.Random(12)
    forests = [f for k in range(7) for f in enumerate_forests(k)]
    rebuilt = []
    for f in forests:
        comps = [_built(_spelling(rng, t)) for t in f.components]
        rng.shuffle(comps)
        rebuilt.append(Forest(comps))
    pool = forests + rebuilt
    for f in pool:
        for g in pool:
            same = sorted(t.string for t in f) == sorted(t.string for t in g)
            assert (f == g) == same and (f is g) == same
            assert not same or hash(f) == hash(g)
    assert len(set(pool)) == len(forests)


def _copy_samples() -> list:
    deep = chain(1500)  # deeper than the recursion limit
    trees = [LEAF, chain(2), corolla(4), parse_tree("((())(()()))"), deep]
    return trees + [Forest(), Forest((LEAF,)), Forest(trees), Forest((deep, deep))]


def _assert_unit_values_intact():
    # a copy made through the constructor with no arguments would get LEAF
    # (or the empty forest) back and overwrite its fields
    assert LEAF.children == () and LEAF.size == 1 and LEAF.string == "()"
    assert RootedTree() is LEAF and parse_tree("()") is LEAF
    assert Forest().components == () and Forest().size == 0 and len(Forest()) == 0


def test_copy_returns_the_one_instance():
    for x in _copy_samples():
        assert copy.copy(x) is x
    _assert_unit_values_intact()


def test_deepcopy_returns_the_one_instance():
    samples = _copy_samples()
    for x in samples:
        assert copy.deepcopy(x) is x
    nested = copy.deepcopy({"trees": samples, "keys": {t: 1 for t in samples}})
    assert all(a is b for a, b in zip(nested["trees"], samples))
    assert all(a is b for a, b in zip(nested["keys"], samples))
    _assert_unit_values_intact()


def test_pickle_round_trip_returns_the_one_instance():
    samples = _copy_samples()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for x in samples:
            assert pickle.loads(pickle.dumps(x, protocol)) is x
        assert pickle.loads(pickle.dumps(samples, protocol)) == samples
    _assert_unit_values_intact()


@given(random_trees())
@settings(max_examples=60, deadline=None)
def test_canonical_roundtrip(t):
    assert parse_tree(t.string) == t
    assert RootedTree(t.children) == t  # canonicalization is idempotent


def test_canonical_idempotence_exhaustive():
    for n in range(1, 9):
        for t in enumerate_trees(n):
            assert RootedTree(t.children) == t
            assert parse_tree(t.string) == t


def test_forest_rendering_and_parsing():
    f = Forest((chain(2), LEAF, chain(2)))
    assert f.render() == "() (()) (())"
    assert parse_forest(f.render()) == f
    assert parse_forest("") == Forest()
    assert f.drop_units() == Forest((chain(2), chain(2)))


# --- enumeration -------------------------------------------------------------


def test_tree_counts_small():
    assert len(enumerate_trees(1)) == 1
    assert len(enumerate_trees(4)) == 4
    assert len(enumerate_trees(7)) == 48


def test_enumeration_is_sorted_and_duplicate_free():
    for n in range(1, 8):
        ts = enumerate_trees(n)
        assert len(set(ts)) == len(ts)
        assert list(ts) == sorted(ts, key=lambda t: (t.size, t.string))
        assert all(t.size == n for t in ts)


def test_labeled_quotient_oracle():
    # shapes of all labeled trees must reproduce the canonical enumeration
    for n in range(1, 7):
        labeled = labeled_trees([str(i) for i in range(1, n + 1)])
        assert len(labeled) == n ** (n - 1)
        shapes = {t.shape() for t in labeled}
        assert shapes == set(enumerate_trees(n))


def test_forest_enumeration():
    # forests of total size m correspond to trees of size m+1 via grafting
    for m in range(0, 7):
        forests = enumerate_forests(m)
        assert len(set(forests)) == len(forests)
        assert len(forests) == len(enumerate_trees(m + 1))
    assert enumerate_forests_with_components(4, 2) == tuple(
        f for f in enumerate_forests(4) if len(f) == 2)


def test_labeled_forest_counts():
    for n in range(1, 5):
        forests = labeled_forests([str(i) for i in range(1, n + 1)])
        assert len(forests) == (n + 1) ** (n - 1)
        assert len(set(forests)) == len(forests)
        for f in forests:
            assert f.partition() == frozenset(c.labels for c in f)


# --- automorphisms -----------------------------------------------------------


def test_aut_order_examples():
    assert aut_order(LEAF) == 1
    assert aut_order(corolla(3)) == 6
    assert aut_order(parse_tree("(()(()))")) == 1  # leaf and 2-chain branches differ
    assert aut_order(parse_tree("((()()))")) == 2


def test_aut_order_against_labeled_count():
    # number of labelings of a shape times its aut order is n!
    for n in range(1, 7):
        by_shape = Counter(t.shape() for t in labeled_trees(list(range(1, n + 1))))
        for shape, count in by_shape.items():
            assert count * aut_order(shape) == factorial(n)


def test_aut_order_against_permutation_fixing_oracle():
    from naphopf.oracles import labeled_isomorphisms

    for n in range(1, 6):
        for t in enumerate_trees(n):
            rep = canonical_representative(t)
            assert aut_order(t) == len(labeled_isomorphisms(rep, rep))


def test_aut0_order():
    assert aut0_order(Forest((LEAF, LEAF, LEAF))) == 6
    assert aut0_order(Forest((LEAF, chain(2)))) == 1
    assert aut0_order(Forest((chain(2), chain(2)))) == 2
    f = Forest((chain(2), chain(2), LEAF))
    assert forest_aut_order(f) == aut0_order(f) * aut_order(chain(2)) ** 2


def test_forest_aut_against_label_permutation_oracle():
    from naphopf.oracles import labeled_isomorphisms

    # disjoint union of two 2-chains on {1..4}: count self-bijections
    a = LabeledTree(1, {2: 1})
    b = LabeledTree(3, {4: 3})
    count = 0
    from itertools import permutations

    for perm in permutations([1, 2, 3, 4]):
        mapping = dict(zip([1, 2, 3, 4], perm))
        images = {a.relabel(mapping), b.relabel(mapping)}
        if images == {a, b}:
            count += 1
    f = Forest((chain(2), chain(2)))
    assert count == forest_aut_order(f) == 2


# --- grafting ----------------------------------------------------------------


def test_graft_examples():
    assert RootedTree([]) == LEAF
    assert RootedTree([LEAF, LEAF, LEAF]) == corolla(3)
    assert graft_onto(chain(2), LEAF) == corolla(2)


@given(random_trees(max_size=6), random_trees(max_size=6), random_trees(max_size=6))
@settings(max_examples=40, deadline=None)
def test_graft_exchange_law(s, t, u):
    assert graft_onto(graft_onto(s, t), u) == graft_onto(graft_onto(s, u), t)


# --- labeled trees and NAP composition ---------------------------------------


def test_labeled_tree_validation():
    with pytest.raises(ValueError):
        LabeledTree(1, {1: 2})  # root with a parent
    with pytest.raises(ValueError):
        LabeledTree(1, {2: 3})  # 3 has no parent entry and is not the root


def test_labeled_render():
    assert singleton("a").render() == "a:()"
    t = LabeledTree("1", {"2": "1", "3": "1"})
    assert t.render() == "1:(2:() 3:())"


def test_nap_compose_examples():
    two_chain = LabeledTree(1, {2: 1})
    ab = LabeledTree("a", {"b": "a"})
    c = singleton("c")
    # plug a 2-chain at the root: the singleton hangs off the new root
    out = nap_compose(two_chain, {1: ab, 2: c})
    assert out.root == "a"
    assert out.shape() == corolla(2)
    # plug the 2-chain at the leaf: a 3-chain results
    out = nap_compose(two_chain, {1: c, 2: ab})
    assert out.root == "c"
    assert out.shape() == chain(3)
    assert out.parents == {"a": "c", "b": "a"}


def test_nap_compose_with_singletons_relabels():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 6)
        parents = {i: rng.randint(1, i - 1) for i in range(2, n + 1)}
        t = LabeledTree(1, parents)
        subs = {v: singleton(f"x{v}") for v in t.labels}
        out = nap_compose(t, subs)
        assert out.shape() == t.shape()
        assert out.root == f"x{t.root}"


def test_nap_compose_errors():
    two_chain = LabeledTree(1, {2: 1})
    with pytest.raises(ValueError, match="missing substitution"):
        nap_compose(two_chain, {1: singleton("a")})
    with pytest.raises(ValueError, match="label collision"):
        nap_compose(two_chain, {1: singleton("a"), 2: singleton("a")})


def test_relabeling_invariance_of_composition_class():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        parents = {i: rng.randint(1, i - 1) for i in range(2, n + 1)}
        t = LabeledTree(1, parents)
        subs = {}
        offset = 0
        for v in sorted(t.labels):
            m = rng.randint(1, 3)
            sub_parents = {offset + i: offset + rng.randint(1, i - 1)
                           for i in range(2, m + 1)}
            subs[v] = LabeledTree(offset + 1, sub_parents)
            offset += m
        reference = nap_compose(t, subs).shape()

        outer = list(t.labels)
        perm = outer[:]
        rng.shuffle(perm)
        sigma = dict(zip(outer, perm))
        t2 = t.relabel(sigma)
        subs2 = {}
        for v in outer:
            inner = sorted(subs[v].labels)
            im = [x + 1000 for x in inner]
            rng.shuffle(im)
            subs2[sigma[v]] = subs[v].relabel(dict(zip(inner, im)))
        assert nap_compose(t2, subs2).shape() == reference


def _blocks(sizes, start=1):
    out = []
    for s in sizes:
        out.append(list(range(start, start + s)))
        start += s
    return out


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def test_operad_associativity_exhaustive():
    # gamma(x; gamma(y; z)) == gamma(gamma(x; y); z) for final size <= 5
    pools = {}

    def pool(labels):
        key = tuple(labels)
        if key not in pools:
            pools[key] = labeled_trees(list(labels))
        return pools[key]

    for q in range(1, 6):
        for p in range(1, q + 1):
            for q_sizes in _compositions(q, p):
                z_blocks = _blocks(q_sizes)
                for m in range(1, p + 1):
                    for n_sizes in _compositions(p, m):
                        y_blocks = _blocks(n_sizes)
                        for x in pool(range(1, m + 1)):
                            for ys in cartesian(*(pool(b) for b in y_blocks)):
                                y_subs = {i + 1: ys[i] for i in range(m)}
                                u = nap_compose(x, y_subs)
                                for zs in cartesian(*(pool(b) for b in z_blocks)):
                                    z_subs = {j + 1: zs[j] for j in range(p)}
                                    rhs = nap_compose(u, z_subs)
                                    ws = {i + 1: nap_compose(
                                        ys[i], {j: z_subs[j] for j in ys[i].labels})
                                        for i in range(m)}
                                    lhs = nap_compose(x, ws)
                                    assert lhs == rhs


def test_basic_property_labeled_recovery():
    # the outer tree is recoverable from the composite and the inputs
    rng = random.Random(3)
    for _ in range(30):
        m = rng.randint(1, 4)
        parents = {i: rng.randint(1, i - 1) for i in range(2, m + 1)}
        x = LabeledTree(1, parents)
        subs = {}
        offset = 100
        for v in range(1, m + 1):
            k = rng.randint(1, 3)
            sub_parents = {offset + i: offset + rng.randint(1, i - 1)
                           for i in range(2, k + 1)}
            subs[v] = LabeledTree(offset + 1, sub_parents)
            offset += 10
        u = nap_compose(x, subs)
        roots = frozenset(subs[v].root for v in range(1, m + 1))
        recovered = u.restrict(roots).relabel(
            {subs[v].root: v for v in range(1, m + 1)})
        assert recovered == x


def test_basic_property_spot_check_injectivity():
    # with fixed inputs of pairwise-distinct shapes, distinct outer classes
    # compose to distinct classes (size <= 3)
    fixed = {
        1: [singleton("a")],
        2: [singleton("a"), LabeledTree("b", {"c": "b"})],
        3: [singleton("a"), LabeledTree("b", {"c": "b"}),
            LabeledTree("d", {"e": "d", "f": "e"})],
    }
    for m in range(1, 4):
        outputs = {}
        for x in enumerate_trees(m):
            rep = canonical_representative(x)
            composite = nap_compose(rep, dict(zip(range(1, m + 1), fixed[m])))
            cls = composite.shape()
            assert cls not in outputs, (x, outputs[cls])
            outputs[cls] = x


# --- compose_shapes against the labeled route -------------------------------


def test_compose_shapes_matches_labeled_route():
    rng = random.Random(11)
    trees = [t for n in range(1, 4) for t in enumerate_trees(n)]
    for _ in range(30):
        outer = rng.choice(trees)
        inner = tuple(rng.choice(trees) for _ in range(outer.size))
        engine = compose_shapes(outer, inner)
        labeled = _compose_labeled(outer, inner, canonical_representative)
        assert engine == labeled


def test_dfs_representative_is_a_representative():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            rep = dfs_representative(t)
            assert rep.shape() == t
            assert rep.labels == frozenset(range(1, n + 1))


# --- operad instances ---------------------------------------------------------


def test_comm_instance_basics():
    comm = comm_instance()
    assert comm.classes(5) == (5,)
    assert comm.labeled_structures(("a", "b")) == [frozenset({"a", "b"})]
    composed = comm.compose(frozenset({"a", "b"}),
                            {"a": frozenset({1, 2}), "b": frozenset({3})})
    assert composed == frozenset({1, 2, 3})


def test_nap_instance_basics():
    nap = nap_instance()
    assert nap.classes(3) == enumerate_trees(3)
    assert len(nap.classes(3)) == 2
    structures = nap.labeled_structures(("1", "2"))
    assert len(structures) == 2
    assert {nap.class_of(s) for s in structures} == {chain(2)}


def test_unit_axiom_via_instance():
    nap = nap_instance()
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 5)
        parents = {i: rng.randint(1, i - 1) for i in range(2, n + 1)}
        t = LabeledTree(1, parents)
        out = nap.compose(t, {v: singleton(v) for v in t.labels})
        assert out == t


def _isomorphisms_by_relabeling(a, b, targets=None):
    # the definition: every bijection onto b's labels (or targets) whose
    # relabeled copy of a equals b, in permutation order
    from itertools import permutations

    source = list(a.labels)
    image = list(b.labels) if targets is None else list(targets)
    if len(source) != len(image):
        return []
    out = []
    for perm in permutations(image):
        mapping = dict(zip(source, perm))
        if a.relabel(mapping) == b:
            out.append(mapping)
    return out


def test_labeled_isomorphisms_match_the_relabeling_definition():
    from naphopf.oracles import labeled_isomorphisms

    trees = labeled_trees([1, 2, 3, 4])
    for a in trees:
        for b in trees:
            for targets in (None, [3, 1, 4, 2]):
                assert (labeled_isomorphisms(a, b, targets)
                        == _isomorphisms_by_relabeling(a, b, targets))
    # a foreign label set, and trees of another size
    rng = random.Random(4)
    three = labeled_trees([1, 2, 3])
    for a, b in [(rng.choice(trees), rng.choice(trees)) for _ in range(100)]:
        assert (labeled_isomorphisms(a, b, "abcd")
                == _isomorphisms_by_relabeling(a, b, "abcd") == [])
        c = rng.choice(three)
        assert labeled_isomorphisms(a, c) == _isomorphisms_by_relabeling(a, c) == []
        assert (labeled_isomorphisms(c, a, [1, 2, 3])
                == _isomorphisms_by_relabeling(c, a, [1, 2, 3]) == [])
