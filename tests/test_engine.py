"""The graft engine on interned tree ids against the labeled nap_compose route.

The labeled route (``naphopf.oracles._compose_labeled`` and friends)
substitutes into a labeled representative and takes the shape; it shares
no code with the graft engine of ``naphopf.trees``.  Sizes stay at N <= 7, where it is cheap.
"""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from naphopf.hopf import g_structure_constants
from naphopf.series import (
    TreeSeries,
    lie_bracket,
    mobius_series,
    random_group_element,
    series_inverse,
    series_multiply,
    unit_series,
    zeta_series,
)
from naphopf.oracles import (
    _compose_labeled,
    _multiply_labeled,
    canonical_representative,
    compose_shapes,
    dfs_representative,
    find_shape_isomorphism,
    labeled_g_structure_constants,
    slot_compositions,
)
from naphopf.trees import (
    LEAF,
    TREES,
    chain,
    corolla,
    enumerate_trees,
    substitute,
)

REPRESENTATIVES = (canonical_representative, dfs_representative)


def trees_up_to(n):
    return [t for k in range(1, n + 1) for t in enumerate_trees(k)]


def run_fresh(code):
    # the JSON printed by code, run in a fresh interpreter so that no other
    # test has filled the tree table
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("representative", REPRESENTATIVES)
def test_zeta_products_match_labeled_route(representative):
    n = 7
    z, m = zeta_series(n), mobius_series(n)
    assert series_multiply(z, z) == _multiply_labeled(z, z, representative)
    assert series_multiply(m, z) == _multiply_labeled(m, z, representative)


@pytest.mark.parametrize("representative", REPRESENTATIVES)
@pytest.mark.parametrize("seed,n", [(1, 5), (2, 6), (3, 7)])
def test_random_products_match_labeled_route(representative, seed, n):
    rng = random.Random(seed)
    a = random_group_element(rng, n)
    b = random_group_element(rng, n)
    assert series_multiply(a, b) == _multiply_labeled(a, b, representative)


def slots_labeled(s, t, representative):
    # s ∘ t by the labeled route: t at each vertex of the representative
    return Counter(_compose_labeled(s, [t if i == v else LEAF for i in range(s.size)],
                                    representative)
                   for v in range(s.size))


@pytest.mark.parametrize("representative", REPRESENTATIVES)
def test_slot_compositions_match_labeled_route(representative):
    trees = trees_up_to(7)
    pairs = 0
    for s in trees:
        for t in trees:
            if s.size + t.size - 1 > 7:
                continue
            pairs += 1
            assert dict(slot_compositions(s, t)) == slots_labeled(s, t, representative)
    assert pairs == 312


def test_compose_shapes_matches_labeled_route_under_both_representatives():
    # compose_shapes reads inner[i] at BFS label i+1; under the DFS
    # representative the same tuple is carried over by a shape isomorphism
    rng = random.Random(12)
    trees = trees_up_to(4)
    for outer in trees_up_to(6):
        bfs, dfs = canonical_representative(outer), dfs_representative(outer)
        phi = find_shape_isomorphism(bfs, dfs)
        for _ in range(5):
            inner = [rng.choice(trees) for _ in range(outer.size)]
            moved = [None] * outer.size
            for label, t in enumerate(inner, start=1):
                moved[phi[label] - 1] = t
            got = compose_shapes(outer, inner)
            assert got == _compose_labeled(outer, inner, canonical_representative)
            assert got == _compose_labeled(outer, moved, dfs_representative)


def test_g_structure_constants_match_tuple_enumeration():
    # forward: every ordered tuple composed into the BFS representative of
    # every gamma by the labeled route, bucketed by the class it lands in
    for n in range(2, 9):
        expected = labeled_g_structure_constants(n)
        for alpha in enumerate_trees(n):
            assert dict(g_structure_constants(alpha)) == dict(expected[alpha])


def test_single_vertex_and_truncation_one_edge_cases():
    for t in trees_up_to(5):
        assert compose_shapes(LEAF, (t,)) == t
        assert compose_shapes(t, (LEAF,) * t.size) == t
        assert slot_compositions(LEAF, t) == ((t, 1),)
        assert slot_compositions(t, LEAF) == ((t, t.size),)
    eps = unit_series(1)
    assert series_multiply(eps, eps) == eps
    assert series_inverse(eps) == eps
    assert lie_bracket(eps, eps) == TreeSeries(1, {})
    rng = random.Random(4)
    a = random_group_element(rng, 1)
    assert series_multiply(a, eps) == _multiply_labeled(a, eps, dfs_representative) == eps
    two = TreeSeries(1, {LEAF: 1, chain(2): 5})
    assert series_multiply(two, two) == eps
    with pytest.raises(ValueError):
        compose_shapes(chain(2), (LEAF,))


def test_lie_bracket_interns_only_the_trees_it_reaches():
    # a fresh interpreter, so that no other test has filled the table
    code = (
        "import json\n"
        "from naphopf.series import TreeSeries, lie_bracket\n"
        "from naphopf.trees import LEAF, SIZES, chain, stats\n"
        "a = TreeSeries(12, {LEAF: 1, chain(2): 2})\n"
        "b = TreeSeries(12, {LEAF: 3, chain(2): -1})\n"
        "c = lie_bracket(a, b)\n"
        "print(json.dumps([stats()['trees'], max(SIZES),\n"
        "                  {t.string: str(v) for t, v in c.coeffs.items()}]))\n"
    )
    interned, largest, coeffs = run_fresh(code)
    # the trees of the two supports and of their slot compositions: at most
    # 3 vertices, against 7k trees up to 12 vertices
    assert largest <= 3
    assert interned <= 4
    # with r the two-chain, [1 + 2r, 3 - r] = (2*3 - 1*(-1)) (r∘1 - 1∘r)
    # = 7 (2r - r); the r∘r terms cancel
    assert coeffs == {"(())": "7"}


# The series engine runs on ints scaled by D**size; these inputs make every
# scale matter: coprime denominators, a large prime denominator on a 6-vertex
# tree, both signs, truncation 1, and the unit as a right factor.
DENOMINATORS = (7, 9, 11, 13, 32)


def fraction_heavy(seed, n, unit=Fraction(1)):
    rng = random.Random(seed)
    coeffs = {LEAF: unit}
    for t in trees_up_to(n)[1:]:
        coeffs[t] = Fraction(rng.choice((-5, -3, -1, 1, 2, 4)), rng.choice(DENOMINATORS))
    if n >= 6:
        coeffs[enumerate_trees(6)[seed]] = Fraction(-1, 1000003)
    return TreeSeries(n, coeffs)


@pytest.mark.parametrize("representative", REPRESENTATIVES)
@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_fraction_heavy_products_match_labeled_route(representative, n):
    a, b, eps = fraction_heavy(1, n), fraction_heavy(2, n), unit_series(n)
    for x, y in ((a, b), (b, a), (a, a), (a, eps), (eps, b), (zeta_series(n), a)):
        assert series_multiply(x, y) == _multiply_labeled(x, y, representative)


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_fraction_heavy_inverse_is_two_sided_by_labeled_route(n):
    a, eps = fraction_heavy(3, n), unit_series(n)
    h = series_inverse(a)
    assert _multiply_labeled(h, a, dfs_representative) == eps
    assert _multiply_labeled(a, h, canonical_representative) == eps


def bracket_by_slots(a, b):
    # the bilinear sum of a_s b_t (s∘t - t∘s) in Fractions
    n = min(a.truncation, b.truncation)
    out = Counter()
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for s, cs in x.coeffs.items():
            for t, ct in y.coeffs.items():
                if s.size + t.size - 1 <= n:
                    for u, m in slot_compositions(s, t):
                        out[u] += sign * cs * ct * m
    return TreeSeries(n, out)


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_fraction_heavy_bracket_matches_slot_sum(n):
    a, b = fraction_heavy(4, n), fraction_heavy(5, n, unit=Fraction(-3, 7))
    for x, y in ((a, b), (b, zeta_series(n)), (a, unit_series(n))):
        assert lie_bracket(x, y) == bracket_by_slots(x, y)


def test_bracket_splits_the_right_operand_by_size():
    # two chain(2) insertions into chain(3) land on 5 vertices, as one
    # chain(3) insertion does, so each size of y needs its own substitution
    x = TreeSeries(5, {chain(3): 1})
    y = TreeSeries(5, {chain(2): 1, chain(3): 1})
    assert lie_bracket(x, y) == bracket_by_slots(x, y)

    def substituted(*sizes):
        # chain(3) under one pool of the single vertex and chains, all of
        # coefficient 1, read at 5 vertices
        pool = [(k, chain(k).id, 1) for k in (1, *sizes)]
        acc = {}
        substitute(chain(3).id, pool, 5, {}, acc, 1, 5, 5)
        return {TREES[u]: c for u, c in acc.items() if c}

    slots = dict(slot_compositions(chain(3), chain(3)))
    assert substituted(3) == slots
    assert substituted(2, 3) != slots  # the merged pool counts two insertions


def test_bracket_builds_each_entry_once_at_its_one_insertion_budget():
    # every (memo, tree) entry is laid out once by trees._entry, at
    # |q| + m - 1 for its tree q and the size m of its pool's trees: the one
    # budget the bracket's reads ask of it, so none is rebuilt at a larger
    # one.  The series layer's substitute is wrapped to note the pool of
    # each entry
    code = (
        "import json\n"
        "from naphopf import series, trees\n"
        "from naphopf.series import corolla_series, lie_bracket, zeta_series\n"
        "built, pools = [], []\n"
        "entry, substitute = trees._entry, series.substitute\n"
        "def count_entry(acc, low, top):\n"
        "    out = entry(acc, low, top)\n"
        "    built.append((len(pools) - 1, out[0][0][0], top))\n"
        "    return out\n"
        "def note_pool(t, pool, *args):\n"
        "    if not pools or pools[-1] is not pool:\n"
        "        pools.append(pool)\n"
        "    return substitute(t, pool, *args)\n"
        "trees._entry, series.substitute = count_entry, note_pool\n"
        "lie_bracket(zeta_series(8), corolla_series(8))\n"
        "sizes = trees.SIZES\n"
        "print(json.dumps([len(built), len({(k, q) for k, q, _ in built}), len(pools),\n"
        "                  [top - sizes[q] - pools[k][-1][0] + 1 for k, q, top in built]]))\n"
    )
    entries, distinct, pools, excess = run_fresh(code)
    # one pool, and one memo, per direction and size m = 2..8
    assert pools == 14
    assert entries == distinct > pools
    assert set(excess) == {0}


def test_series_engine_does_no_fraction_arithmetic_per_term():
    # calls of Fraction._add and Fraction._mul, counted by a profile hook in
    # a fresh interpreter: a Fraction inner loop would make thousands
    code = (
        "import json, sys\n"
        "from fractions import Fraction\n"
        "from naphopf.series import (TreeSeries, lie_bracket, series_inverse,\n"
        "                            series_multiply, zeta_series)\n"
        "z = zeta_series(7)\n"
        "a = TreeSeries(7, {t: Fraction(i % 5 - 2, 7 + i) or Fraction(1, 3)\n"
        "                   for i, t in enumerate(z.coeffs)})\n"
        "watched = {Fraction._add.__code__, Fraction._mul.__code__}\n"
        "calls = 0\n"
        "def count(frame, event, arg):\n"
        "    global calls\n"
        "    if event == 'call' and frame.f_code in watched:\n"
        "        calls += 1\n"
        "rows = []\n"
        "for f, args in ((series_multiply, (z, z)), (series_inverse, (z,)),\n"
        "                (lie_bracket, (a, z))):\n"
        "    calls = 0\n"
        "    sys.setprofile(count)\n"
        "    out = f(*args)\n"
        "    sys.setprofile(None)\n"
        "    terms = sum(len(x.coeffs) for x in args) + len(out.coeffs)\n"
        "    rows.append([f.__name__, calls, terms, len(out.coeffs)])\n"
        "print(json.dumps(rows))\n"
    )
    rows = run_fresh(code)
    assert [r[0] for r in rows] == ["series_multiply", "series_inverse", "lie_bracket"]
    for name, calls, terms, produced in rows:
        assert produced > 1, name
        assert calls <= terms, (name, calls, terms)


def test_substitution_builds_one_entry_per_tree_and_pool():
    # every entry is laid out once by trees._entry, and its first term
    # is the tree itself (the only class of its size); the series layer's
    # substitute is wrapped to note which pool the entries belong to
    code = (
        "import json\n"
        "from naphopf import series, trees\n"
        "from naphopf.series import series_inverse, series_multiply, zeta_series\n"
        "built, pools = [], [None]\n"
        "entry, substitute = trees._entry, series.substitute\n"
        "def count_entry(acc, low, top):\n"
        "    out = entry(acc, low, top)\n"
        "    built.append((pools[0], out[0][0][0]))\n"
        "    return out\n"
        "def note_pool(t, pool, *args):\n"
        "    pools[0] = id(pool)\n"
        "    return substitute(t, pool, *args)\n"
        "trees._entry, series.substitute = count_entry, note_pool\n"
        "z = zeta_series(8)\n"
        "series_multiply(z, z)\n"
        "product = len(built), len(set(built))\n"
        "built.clear()\n"
        "series_inverse(z)\n"
        "print(json.dumps([product, [len(built), len(set(built)),\n"
        "                            len({p for p, _ in built})]]))\n"
    )
    product, inverse = run_fresh(code)
    # the 85 trees with 1..7 vertices, each built once: they are the
    # prefixes and branches of the trees with up to 8 vertices, whose own
    # classes go straight to the sum.  A memo keyed by (tree, budget) built
    # 354 entries here, one per tree and budget
    assert product == [85, 85]
    entries, distinct, pools = inverse
    assert pools == 2  # the left memo on a's pool, the right product on h's
    assert entries == distinct


def test_substitution_interns_only_the_trees_and_grafts_of_the_fold():
    # the prefix and branch budgets are those of the child-by-child fold, so
    # a seeded sparse product and inverse intern the same trees and grafts
    # as the fold did; entries all built at the full budget interned 68
    # trees and 50 grafts after the product, 128 and 129 after the inverse.
    # The supports are sampled here and parsed in the fresh interpreter, so
    # that no enumeration builds trees there
    rng = random.Random(4)
    pool = [t for k in range(2, 10) for t in enumerate_trees(k)]

    def sparse():
        return {t.string: [rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 3))]
                for t in rng.sample(pool, 12)}

    supports = [sparse(), sparse()]
    code = (
        "import json\n"
        "from fractions import Fraction\n"
        "from naphopf.series import TreeSeries, series_inverse, series_multiply\n"
        "from naphopf.trees import LEAF, parse_tree, stats\n"
        f"supports = json.loads({json.dumps(supports)!r})\n"
        "a, b = (TreeSeries(9, {LEAF: 1, **{parse_tree(s): Fraction(*c)\n"
        "                                   for s, c in terms.items()}})\n"
        "        for terms in supports)\n"
        "counts = []\n"
        "for run in (lambda: series_multiply(a, b), lambda: series_inverse(a)):\n"
        "    run()\n"
        "    built = stats()\n"
        "    counts.append([built['trees'], built['grafts']])\n"
        "print(json.dumps(counts))\n"
    )
    assert run_fresh(code) == [[54, 35], [61, 46]]


@pytest.mark.parametrize("shape", [chain, corolla])
def test_deep_and_wide_supports_need_no_recursion(shape):
    # chain(1500) is 1500 levels deep; corolla(1500) has 1500 branches, so a
    # recursive walk over prefix trees would be 1500 levels deep too
    t = shape(1500)
    a = TreeSeries(1501, {LEAF: 1, t: 1})
    assert series_multiply(a, unit_series(1501)) == a
    assert series_inverse(a) == TreeSeries(1501, {LEAF: 1, t: -1})
    # the bracket's slot sum: t ∘ 1 puts the unit at each vertex of t, and
    # 1 ∘ t gives t once
    assert lie_bracket(a, unit_series(1501)) == TreeSeries(1501, {t: t.size - 1})


def wide_sparse(seed, n):
    # the single vertex, corollas and trees whose root has two or three
    # branches, with coprime denominators: the prefix trees the engine
    # builds (a root with one or two branches) are mostly not in the support
    rng = random.Random(seed)
    coeffs = {LEAF: Fraction(1)}
    for k in range(2, n + 1):
        wide = [t for t in enumerate_trees(k)
                if t.is_corolla() or t.root_valence in (2, 3)]
        for t in rng.sample(wide, min(3, len(wide))):
            coeffs[t] = Fraction(rng.choice((-4, -1, 2, 3)), rng.choice((5, 7, 9, 11, 13)))
    return TreeSeries(n, coeffs)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_wide_sparse_products_and_inverses_match_labeled_route(n):
    a, b = wide_sparse(2 * n, n), wide_sparse(2 * n + 1, n)
    for x, y in ((a, b), (b, a), (a, a)):
        assert series_multiply(x, y) == _multiply_labeled(x, y, dfs_representative)
    eps = unit_series(n)
    for x in (a, b):
        h = series_inverse(x)
        assert _multiply_labeled(h, x, canonical_representative) == eps
        assert _multiply_labeled(x, h, dfs_representative) == eps
