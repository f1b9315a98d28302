import json
import os
import random
import subprocess
import sys

import pytest

from naphopf.hopf import HopfElement, antipode, hnap_coproduct
from naphopf.oracles import (
    FinitePoset,
    _structured_partitions,
    brute_force_pi,
    canonical_representative,
    check_distributive_lattice,
    check_interval_factorization,
    check_maximal_interval_model,
    check_total_semimodularity,
    check_upset_isomorphism,
    comm_instance,
    diamond_poset,
    f_structure_constants,
    forest_below,
    interval_mobius,
    interval_order,
    nap_compose,
    nap_instance,
    pentagon_poset,
    theta_of,
)
from naphopf.posets import (
    IntervalPoset,
    ideal_count,
    ideal_orbit_count,
    interval_dot,
    interval_of,
    mobius,
    mobius_closed_form,
)
from naphopf import trees as trees_module
from naphopf.trees import (
    Forest,
    LEAF,
    RootedTree,
    chain,
    corolla,
    enumerate_trees,
    parse_tree,
)

T1200 = parse_tree("((()()))")  # root -> inner vertex -> two leaves
T2100 = parse_tree("(()(()))")  # root -> {leaf, 2-chain}


# --- interval structure --------------------------------------------------------


def test_interval_sizes():
    assert len(interval_of(LEAF)) == 1
    for k in range(1, 5):
        assert len(interval_of(corolla(k))) == 2 ** k
    assert len(interval_of(T1200)) == 5


def test_interval_elements_for_valence_one_tree():
    ip = interval_of(T1200)
    assert set(ip.elements) == {frozenset({1}), frozenset({1, 2}),
                                frozenset({1, 2, 3}), frozenset({1, 2, 4}),
                                frozenset({1, 2, 3, 4})}
    assert ip.elements[ip.bottom_index] == frozenset({1, 2, 3, 4})
    assert ip.elements[ip.top_index] == frozenset({1})


def test_ideal_enumeration_against_subset_filter():
    # oracle: filter every vertex subset for the ideal property
    from itertools import combinations

    for n in range(1, 8):
        for t in enumerate_trees(n):
            rep = canonical_representative(t)
            labels = sorted(rep.labels)
            expected = set()
            for r in range(len(labels) + 1):
                for subset in combinations(labels, r):
                    s = frozenset(subset)
                    if rep.root not in s:
                        continue
                    if all(v == rep.root or rep.parents[v] in s for v in s):
                        expected.add(s)
            assert set(interval_of(t).elements) == expected


def test_cover_relations_remove_one_leaf():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            ip = interval_of(t)
            parents = canonical_representative(t).parents
            for a, b in ip.covers():
                small, large = ip.elements[a], ip.elements[b]
                assert large < small and len(small) - len(large) == 1
                (removed,) = tuple(small - large)
                assert all(parents.get(v) != removed for v in large)


# root -> {a 30-vertex path ending in three leaves, a small mixed branch, a leaf}
DEEP_MIXED = parse_tree("(" + "(" * 30 + "()()()" + ")" * 30 + "(()(()))" + "()" + ")")


def test_interval_rows_match_the_per_ideal_oracle():
    # forest_below and theta_of rebuild each ideal's shapes vertex by vertex
    trees = [t for n in range(1, 8) for t in enumerate_trees(n)] + [chain(60), DEEP_MIXED]
    for t in trees:
        ip = interval_of(t)
        assert len(ip) == ideal_count(t)
        for ideal, mask, forest, theta in zip(ip.elements, ip.masks, ip.forests, ip.thetas):
            assert type(ideal) is frozenset
            assert forest == forest_below(t, ideal), (t.string, sorted(ideal))
            assert theta == theta_of(t, ideal), (t.string, sorted(ideal))
            assert mask == sum(1 << (v - 1) for v in ideal)


def test_interval_covers_match_the_order_matrix():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            ip = interval_of(t)
            assert ip.covers() == interval_order(ip).covers(), t.string


def test_interval_construction_builds_no_tree_the_table_holds():
    # tree constructions (hits of the intern dict too) and new tree
    # instances with their ids, counted by a profile hook in a fresh
    # interpreter: once every tree with at most 8 vertices is built, every
    # restriction and branch of their intervals is an intern-dict lookup.
    # A branch forest is its B+ tree, so the trees built are exactly the
    # B+ trees of the branch forests not held before (286 of them), and
    # each is the id of some forest of an interval
    code = (
        "import json, sys\n"
        "from naphopf.posets import interval_of\n"
        "from naphopf.trees import TREES, RootedTree, _new_tree, enumerate_trees\n"
        "trees = [t for n in range(1, 9) for t in enumerate_trees(n)]\n"
        "held = len(TREES)\n"
        "calls = {RootedTree.__new__.__code__: 0, _new_tree.__code__: 0}\n"
        "def count(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code in calls:\n"
        "        calls[frame.f_code] += 1\n"
        "sys.setprofile(count)\n"
        "ips = [interval_of(t) for t in trees if t.size >= 2]\n"
        "sys.setprofile(None)\n"
        "forests = {f.id for ip in ips for f in ip.forests}\n"
        "built = range(held, len(TREES))\n"
        "print(json.dumps([len(ips), sum(map(len, ips)), list(calls.values()), len(built),\n"
        "                  all(i in forests for i in built)]))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert json.loads(out.stdout) == [199, 5181, [0, 286], 286, True]


def test_forest_below_and_theta_examples():
    full = frozenset({1, 2, 3, 4})
    assert forest_below(T1200, full) == Forest((LEAF,) * 4)
    assert theta_of(T1200, full) == T1200
    assert forest_below(T1200, {1}) == Forest((T1200,))
    assert theta_of(T1200, {1}) == LEAF
    # removing one deep leaf: branches are two singletons and a 2-chain
    assert forest_below(T1200, {1, 2, 3}) == Forest((LEAF, LEAF, chain(2)))
    assert theta_of(T1200, {1, 2, 3}) == chain(3)


def test_invalid_ideals_rejected():
    with pytest.raises(ValueError):
        forest_below(T1200, {2, 3})  # missing the root
    with pytest.raises(ValueError):
        theta_of(T1200, {1, 3})  # not parent-closed
    with pytest.raises(ValueError):
        forest_below(T1200, {1, 9})


def test_ideal_decomposition_recomposes():
    # composing the restriction with the labeled branches reproduces the tree
    for n in range(1, 7):
        for t in enumerate_trees(n):
            ip = interval_of(t)
            rep = canonical_representative(t)
            for ideal in ip.elements:
                subs = {}
                for v in ideal:
                    keep = {v}
                    stack = [c for c in rep.children(v) if c not in ideal]
                    while stack:
                        w = stack.pop()
                        keep.add(w)
                        stack.extend(rep.children(w))
                    subs[v] = rep.__class__(
                        v, {c: p for c, p in rep.parents.items()
                            if c in keep and p in keep})
                assert nap_compose(rep.restrict(ideal), subs) == rep


# --- Mobius ---------------------------------------------------------------------


def test_mobius_examples():
    assert mobius(LEAF) == 1
    assert mobius(chain(2)) == -1
    assert mobius(corolla(4)) == 1
    assert mobius(corolla(3)) == -1
    assert mobius(T2100) == 0
    assert mobius(T1200) == 0


def test_mobius_matches_closed_form():
    # one rule, one function; the interval's recursion is the other route
    assert mobius_closed_form is mobius
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert mobius(t) == mobius_closed_form(t) == interval_mobius(interval_of(t))[-1]


def test_mobius_matches_the_generic_recursion_and_the_antipode():
    # mobius is the antichain rule; interval_mobius runs the defining
    # recursion on the ideal masks, and Schmitt (Incidence Hopf algebras,
    # JPAA 96, 1994) gives mu = zeta o S: the coefficients of the antipode
    # of F_[t] sum to mu(0,1)
    trees = [t for n in range(1, 9) for t in enumerate_trees(n)]
    assert len(trees) == 200
    coproduct_sums_differ = False
    for t in trees:
        ip = interval_of(t)
        mu = mobius(t)
        assert mu == interval_mobius(ip)[ip.top_index], t.string
        assert mu == sum(antipode(HopfElement.hnap_basis(t)).terms.values()), t.string
        coproduct_sums_differ |= mu != sum(hnap_coproduct(t).terms.values())
    # negative control: zeta of the coproduct is no Mobius function
    assert coproduct_sums_differ


def test_mobius_is_the_antichain_rule_of_the_ideal_lattice():
    # the interval is a distributive lattice J(P) of ideals, so (Stanley,
    # EC1 §3.9) mu(bottom, y) is (-1)^|R| when the removed vertices
    # R = full - ideal(y) are an antichain in the tree order, and 0 otherwise
    def ancestors(parents, v):
        while v in parents:
            v = parents[v]
            yield v

    values = 0
    for t in [t for n in range(1, 9) for t in enumerate_trees(n)]:
        ip = interval_of(t)
        parents = canonical_representative(t).parents
        full = ip.elements[ip.bottom_index]
        rule = []
        for ideal in ip.elements:
            removed = full - ideal
            antichain = not any(u in removed for v in removed for u in ancestors(parents, v))
            rule.append((-1) ** len(removed) if antichain else 0)
        assert rule == interval_mobius(ip), t.string
        assert rule[ip.top_index] == mobius(t), t.string
        values += len(rule)
    assert values == 5182
    # negative control: the sign alone, antichain or not, is no Mobius function
    ip = interval_of(chain(3))
    assert [(-1) ** (3 - len(e)) for e in ip.elements] != interval_mobius(ip)


def test_mobius_sums_to_zero_over_intervals():
    for n in range(2, 7):
        for t in enumerate_trees(n):
            assert sum(interval_mobius(interval_of(t))) == 0
    # negative control: one value negated no longer sums to zero
    mu = interval_mobius(interval_of(corolla(3)))
    mu[1] = -mu[1]
    assert sum(mu) != 0


def test_mobius_multiplies_over_branch_products():
    from naphopf.trees import RootedTree

    for n in range(2, 7):
        for t in enumerate_trees(n):
            prod = 1
            for branch in t.children:
                prod *= mobius(RootedTree((branch,)))
            assert mobius(t) == prod
            assert interval_mobius(interval_of(t))[-1] == prod, t.string


# --- lattice checks -------------------------------------------------------------


def test_intervals_are_totally_semimodular_and_distributive():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            ip = interval_of(t)
            assert check_total_semimodularity(ip)
            assert check_distributive_lattice(ip)


def test_two_chain_interval_is_trivially_semimodular():
    assert check_total_semimodularity(interval_of(chain(2)))


def test_negative_controls():
    assert not check_total_semimodularity(pentagon_poset())
    assert check_total_semimodularity(diamond_poset())
    assert not check_distributive_lattice(diamond_poset())
    assert not check_distributive_lattice(pentagon_poset())


def test_a_mask_family_missing_a_union_is_not_distributive():
    # the interval of corolla(2): {1}, {1,2}, {1,3} and their union {1,2,3};
    # without the union the two atoms have no meet
    ip = interval_of(corolla(2))
    assert check_distributive_lattice(ip)
    a, b = (m for m in ip.masks if bin(m).count("1") == 2)
    # an interval is read-only, so the broken one is built slot by slot
    broken = object.__new__(IntervalPoset)
    for name in IntervalPoset.__slots__:
        object.__setattr__(broken, name, getattr(ip, name))
    object.__setattr__(broken, "masks", tuple(m for m in ip.masks if m != a | b))
    assert len(broken.masks) == len(ip.masks) - 1
    assert not check_distributive_lattice(broken)
    # the matrix route agrees: the three sets left have no bottom
    assert not interval_order(broken).is_lattice()


def test_finite_poset_validation():
    with pytest.raises(ValueError):
        FinitePoset([[True, True], [True, True]])  # not antisymmetric
    with pytest.raises(ValueError):
        FinitePoset([[False]])  # not reflexive


# --- brute-force poset of structured partitions ----------------------------------


def test_brute_force_nap_two():
    bp = brute_force_pi(nap_instance(), 2)
    assert len(bp) == 3
    bottom = bp.bottom_index()
    assert bottom is not None
    trees = [i for i in range(3) if len(bp.elements[i]) == 1]
    assert len(trees) == 2
    for i in trees:
        assert bp.poset.leq[bottom][i]
        for j in trees:
            assert bp.poset.leq[i][j] == (i == j)


def test_brute_force_counts():
    for n in range(1, 5):
        assert len(brute_force_pi(nap_instance(), n)) == (n + 1) ** (n - 1)


def test_brute_force_limit():
    with pytest.raises(ValueError):
        brute_force_pi(nap_instance(), 5)
    # the guard is on outside input only: the cached builder behind it
    # takes any ground set (comm stays tiny)
    labels = tuple(str(i) for i in range(1, 6))
    assert len(_structured_partitions(comm_instance(), labels)) == 52  # Bell(5)


def test_operad_instances_are_shared_by_the_caches():
    # a fresh interpreter, so that no other test has built a poset: the
    # instances compare their functions by identity, so each must be one
    # object for the caches keyed by it to hit
    code = (
        "from naphopf import oracles\n"
        "from naphopf.oracles import comm_instance, nap_instance\n"
        "from naphopf.verify import run_suite\n"
        "built = []\n"
        "init = oracles.BruteForcePoset.__init__\n"
        "oracles.BruteForcePoset.__init__ = lambda self, *a: built.append(1) or init(self, *a)\n"
        "assert run_suite('all').passed\n"
        "print(nap_instance() is nap_instance(), comm_instance() is comm_instance(), len(built))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.split() == ["True", "True", "67"]


def test_comm_is_the_partition_lattice():
    bp = brute_force_pi(comm_instance(), 3)
    assert len(bp) == 5
    for i in range(5):
        for j in range(5):
            refines = all(any(a <= b for b in bp.parts[j]) for a in bp.parts[i])
            assert bp.poset.leq[i][j] == refines


def test_upset_isomorphisms():
    for n in range(1, 5):
        bp = brute_force_pi(nap_instance(), n)
        for i in range(len(bp)):
            assert check_upset_isomorphism(bp, i)


def test_interval_factorization_at_three():
    bp = brute_force_pi(nap_instance(), 3)
    for i in range(len(bp)):
        for j in range(len(bp)):
            if bp.poset.leq[i][j]:
                assert check_interval_factorization(bp, i, j)


def test_maximal_interval_models():
    for n in range(1, 5):
        bp = brute_force_pi(nap_instance(), n)
        for i in bp.poset.maximal_elements():
            assert check_maximal_interval_model(bp, i)


# --- structure constants ----------------------------------------------------------


def test_f_structure_constants_single_vertex():
    assert f_structure_constants(LEAF) == {(Forest(), LEAF): 1}


def test_f_structure_constants_three_chain():
    got = f_structure_constants(chain(3))
    assert got == {
        (Forest((chain(3),)), LEAF): 1,
        (Forest((chain(2),)), chain(2)): 1,
        (Forest(), chain(3)): 1,
    }


def test_f_structure_constants_valence_one_example():
    got = f_structure_constants(T1200)
    assert got[(Forest((corolla(2),)), chain(2))] == 1
    assert got[(Forest((chain(2),)), chain(3))] == 2
    assert got[(Forest(), T1200)] == 1
    assert got[(Forest((T1200,)), LEAF)] == 1
    assert sum(got.values()) == len(interval_of(T1200))


def test_f_values_sum_to_interval_size():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert sum(f_structure_constants(t).values()) == len(interval_of(t))


# --- DOT export --------------------------------------------------------------------


def test_interval_dot_output():
    dot = interval_dot(interval_of(chain(3)))
    assert dot.startswith("digraph interval {")
    assert dot.count("->") == 2
    assert '"((()))"' in dot and '"()"' in dot


def _bounds_by_definition(poset):
    # meet and join as the unique greatest lower and least upper bound, and
    # the covers as the pairs with nothing strictly between them
    n, leq = poset.n, poset.leq
    meet = [[None] * n for _ in range(n)]
    join = [[None] * n for _ in range(n)]
    covers = []
    for i in range(n):
        for j in range(n):
            lower = [k for k in range(n) if leq[k][i] and leq[k][j]]
            glb = [k for k in lower if all(leq[m][k] for m in lower)]
            meet[i][j] = glb[0] if len(glb) == 1 else None
            upper = [k for k in range(n) if leq[i][k] and leq[j][k]]
            lub = [k for k in upper if all(leq[k][m] for m in upper)]
            join[i][j] = lub[0] if len(lub) == 1 else None
            if i != j and leq[i][j] and not any(
                    k not in (i, j) and leq[i][k] and leq[k][j] for k in range(n)):
                covers.append((i, j))
    return meet, join, tuple(covers)


def test_bitmask_bounds_and_covers_match_the_definition():
    rng = random.Random(8)
    posets = [pentagon_poset(), diamond_poset()]
    intervals = [interval_of(t) for n in range(1, 7) for t in enumerate_trees(n)]
    posets += [interval_order(ip) for ip in intervals]
    for _ in range(40):
        n = rng.randint(1, 9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        posets.append(FinitePoset.from_covers(n, pairs))
    lattices = 0
    for p in posets:
        meet, join, covers = _bounds_by_definition(p)
        assert (p._bound_tables(), p.covers()) == ((meet, join), covers)
        assert p.is_lattice() == all(None not in row for row in meet + join)
        lattices += p.is_lattice()
        distributive = p.is_lattice() and all(
            meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
            for x in range(p.n) for y in range(p.n) for z in range(p.n))
        assert check_distributive_lattice(p) == distributive
    assert 0 < lattices < len(posets)  # non-lattices are among them
    # the mask route of the intervals agrees with the definition on their matrices
    for ip, p in zip(intervals, posets[2:]):
        meet, join, _ = _bounds_by_definition(p)
        assert check_distributive_lattice(ip) == all(
            meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
            for x in range(p.n) for y in range(p.n) for z in range(p.n))


def test_ideal_orbit_count_bounds_the_stored_ideal_rows(fresh_table):
    # equal on chains; automorphic ideals of a wide tree can share a row,
    # and different ideal classes too, so there it is an upper bound
    def stored_rows(t):
        fresh_table()
        trees_module.ideals(t.id)
        return trees_module.stats()["ideal_rows"]

    assert ideal_orbit_count(chain(50)) == stored_rows(chain(50)) == 50 * 51 // 2
    for hi in range(2, 8):
        t = RootedTree([chain(k) for k in range(2, hi + 1)])
        assert ideal_orbit_count(t) >= stored_rows(t)
    assert ideal_orbit_count(chain(1200)) == 720_600
    assert ideal_orbit_count(corolla(40)) == 42  # corolla(40) and the leaf
