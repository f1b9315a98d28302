import copy
import json
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from naphopf import hopf
from naphopf.hopf import (
    ALGEBRAS,
    BasisMap,
    HopfElement,
    TensorElement,
    antipode,
    antipode_monomial,
    b_plus,
    b_plus_map,
    ck_coproduct,
    convolution_antipode_identity,
    exact,
    forest_as_tree_monomial,
    g_structure_constants,
    hnap_coproduct,
    iso_from_ck,
    iso_to_ck,
    l_nap,
    qgnap_coproduct,
    rho,
    tensor_map,
)
from naphopf.oracles import (
    _admissible_cuts,
    _edge_cuts,
    _hnap_coproduct_by_ideals,
    admissible_triples,
    brute_force_pi,
    ck_antipode_closed_form,
    ck_coproduct_cuts,
    count_Ef_Eg,
    f_coefficient,
    f_structure_constants,
    g_coefficient,
    nap_instance,
    pi_elements,
)
from naphopf.posets import interval_of
from naphopf.series import random_group_element, series_inverse, zeta_series
from naphopf.trees import (
    ANTIPODES,
    GRAFTS,
    IDEAL_ROWS,
    TREES,
    Forest,
    LEAF,
    aut0_order,
    aut_order,
    chain,
    corolla,
    enumerate_forests,
    enumerate_trees,
    forest_aut_order,
    ideals,
    parse_tree,
)
from naphopf.checks import _coassociative

T10 = chain(2)
T110 = chain(3)
T200 = corolla(2)
T1200 = parse_tree("((()()))")
T2100 = parse_tree("(()(()))")
T3000 = corolla(3)


def F(t):
    return HopfElement.hnap_basis(t)


def tensor(algebra, rows):
    out = {}
    for left, right, coeff in rows:
        out[(left, right)] = out.get((left, right), 0) + Fraction(coeff)
    return TensorElement(algebra, out)


# --- multiplication ------------------------------------------------------------


def test_hnap_multiply_merges_branches():
    assert F(T10) * F(T10) == F(T200)
    assert F(T10) * F(T10) * F(T10) == F(T3000)
    assert F(T110) * F(T10) == F(T2100)


def test_hnap_unit():
    x = F(T2100) + Fraction(1, 2) * F(T10)
    assert F(LEAF) * x == x
    assert x * F(LEAF) == x


def test_tag_mismatch_raises():
    with pytest.raises(ValueError, match="mismatch"):
        F(T10) * HopfElement.ck_tree(T10)
    with pytest.raises(ValueError, match="mismatch"):
        F(T10) * HopfElement.qg_generator(T10)
    # a key of the wrong algebra is refused on construction
    for algebra, key in (("hnap", Forest()), ("hnap", Forest((T10,))),
                         ("ck", T10), ("qgnap", T10),
                         ("qgnap", Forest((LEAF,))), ("qgnap", Forest((T10, LEAF)))):
        with pytest.raises(ValueError, match=algebra):
            HopfElement(algebra, {key: 1})
    with pytest.raises(ValueError, match="qgnap"):
        antipode_monomial("qgnap", Forest((LEAF,)))
    with pytest.raises(ValueError, match="unknown algebra"):
        HopfElement.unit("nap")
    # a foreign operand is a TypeError, not an AttributeError
    for x in (F(T10), hnap_coproduct(T10)):
        with pytest.raises(TypeError):
            x + 1
        with pytest.raises(TypeError):
            x - 1
        with pytest.raises(TypeError):
            x * 1


def test_forest_as_tree_monomial():
    assert forest_as_tree_monomial(Forest((LEAF, LEAF, T10))) == T10
    assert forest_as_tree_monomial(Forest((T10, T10))) == T200
    assert forest_as_tree_monomial(Forest()) == LEAF


# --- incidence coproduct ---------------------------------------------------------


def test_hnap_coproduct_four_vertex_examples():
    assert hnap_coproduct(T1200) == tensor("hnap", [
        (LEAF, T1200, 1), (T10, T110, 2), (T200, T10, 1), (T1200, LEAF, 1)])
    assert hnap_coproduct(T2100) == tensor("hnap", [
        (LEAF, T2100, 1), (T10, T200, 1), (T10, T110, 1),
        (T200, T10, 1), (T110, T10, 1), (T2100, LEAF, 1)])
    assert hnap_coproduct(T3000) == tensor("hnap", [
        (LEAF, T3000, 1), (T10, T200, 3), (T200, T10, 3), (T3000, LEAF, 1)])


def test_hnap_coproduct_three_chain():
    assert hnap_coproduct(T110) == tensor("hnap", [
        (LEAF, T110, 1), (T10, T10, 1), (T110, LEAF, 1)])


def test_hnap_coproduct_counts_match_f_constants():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            delta = hnap_coproduct(t)
            total = sum(delta.terms.values())
            assert total == sum(f_structure_constants(t).values())


def test_hnap_coproduct_matches_ideal_enumeration():
    # the Connes-Kreimer route against one term per ideal of the interval
    trees = [t for n in range(1, 9) for t in enumerate_trees(n)]
    assert len(trees) == 200
    for t in trees:
        assert hnap_coproduct(t) == _hnap_coproduct_by_ideals(t), t.string


def test_hnap_coproduct_and_antipode_build_no_interval():
    # a fresh interpreter, so that no other test has filled the interval cache
    code = (
        "from naphopf.hopf import HopfElement, antipode, hnap_coproduct\n"
        "from naphopf.posets import interval_of\n"
        "from naphopf.trees import enumerate_trees\n"
        "for n in range(1, 8):\n"
        "    for t in enumerate_trees(n):\n"
        "        hnap_coproduct(t)\n"
        "        antipode(HopfElement.hnap_basis(t))\n"
        "print(interval_of.cache_info().currsize, hnap_coproduct.cache_info().currsize)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert out.stdout.split() == ["0", "85"]


def test_qgnap_antipode_builds_no_coproduct_and_no_other_antipode():
    # a fresh interpreter, so that no other test has filled the caches: the
    # antipode reads the row source on tree ids, not the cached coproducts,
    # and leaves in the antipode cache only the monomials asked for
    code = (
        "from naphopf.hopf import antipode_monomial, qgnap_coproduct\n"
        "from naphopf.trees import Forest, enumerate_trees\n"
        "asked = {('qgnap', Forest((t,))) for n in range(2, 8) for t in enumerate_trees(n)}\n"
        "for _, key in asked:\n"
        "    antipode_monomial('qgnap', key)\n"
        "print(qgnap_coproduct.cache_info().currsize, len(asked),\n"
        "      antipode_monomial.cache_info().currsize == 84)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert out.stdout.split() == ["0", "84", "True"]


def test_tree_antipodes_live_and_die_with_their_table(fresh_table):
    # the per-tree antipode memo is keyed by tree ids, so it is a dict of
    # naphopf.trees: clear() empties it with every other memo, the ids stay,
    # and the antipodes computed again are the same values on the same
    # tree and forest instances
    keys = [(algebra, ALGEBRAS[algebra].tree_key(t)) for algebra in ALGEBRAS
            for n in range(2, 7) for t in enumerate_trees(n)]
    assert len(keys) == 108
    ids = [t.id for n in range(2, 7) for t in enumerate_trees(n)]
    fresh_table()
    before = [antipode_monomial(*k) for k in keys]
    assert ANTIPODES and IDEAL_ROWS
    fresh_table()  # clears the memos in place, and the antipode cache
    assert hopf.ANTIPODES is ANTIPODES
    assert not (ANTIPODES or IDEAL_ROWS or GRAFTS)
    assert parse_tree.cache_info().currsize == 0
    for t in (chain(12), corolla(9)):  # trees built in between move no id
        assert TREES[t.id] is t
    after = [antipode_monomial(*k) for k in keys]
    assert [t.id for n in range(2, 7) for t in enumerate_trees(n)] == ids
    assert after == before and all(x is not y for x, y in zip(after, before))
    for x, y in zip(after, before):
        assert all(a is b for a, b in zip(x.terms, y.terms))
    assert ANTIPODES


def test_ideal_table_counts_are_the_interval_constants():
    # f read off trees.ideals against the ideal enumeration of posets
    trees = 0
    for n in range(1, 9):
        for t in enumerate_trees(n):
            f = {(Forest(TREES[j] for j in b), TREES[g]): c
                 for (b, g), c in ideals(t.id).items()}
            assert f == f_structure_constants(t), t.string
            trees += 1
    assert trees == 200


def test_qgnap_coproduct_enumerates_no_trees():
    # a fresh interpreter, so that no other test has filled the enumeration
    # cache; the structure constants come from the ideals of alpha alone
    code = (
        "from naphopf.hopf import qgnap_coproduct\n"
        "from naphopf.trees import chain, enumerate_trees, parse_tree\n"
        "t = parse_tree('(()(())((()))(()())(()))')\n"
        "print(t.size, len(qgnap_coproduct(chain(15)).terms), len(qgnap_coproduct(t).terms))\n"
        "print(enumerate_trees.cache_info().currsize)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    t = parse_tree("(()(())((()))(()())(()))")
    assert out.stdout.split() == ["12", "15", str(len(qgnap_coproduct(t).terms)), "0"]


# --- function-algebra coproduct ---------------------------------------------------


def test_qgnap_coproduct_four_vertex_examples():
    one = Forest()
    assert qgnap_coproduct(T1200) == tensor("qgnap", [
        (one, Forest((T1200,)), 1), (Forest((T10,)), Forest((T110,)), 1),
        (Forest((T200,)), Forest((T10,)), 1), (Forest((T1200,)), one, 1)])
    assert qgnap_coproduct(T2100) == tensor("qgnap", [
        (one, Forest((T2100,)), 1),
        (Forest((T10,)), Forest((T200,)), 2),
        (Forest((T10,)), Forest((T110,)), 1),
        (Forest((T10, T10)), Forest((T10,)), 1),
        (Forest((T110,)), Forest((T10,)), 1),
        (Forest((T2100,)), one, 1)])
    assert qgnap_coproduct(T3000) == tensor("qgnap", [
        (one, Forest((T3000,)), 1), (Forest((T10,)), Forest((T200,)), 1),
        (Forest((T200,)), Forest((T10,)), 1), (Forest((T3000,)), one, 1)])


def test_qgnap_coproduct_is_g_with_the_units_dropped():
    # the definition: every (beta, gamma) of g with the single vertices of
    # both factors dropped, summed as fractions
    for n in range(2, 9):
        for t in enumerate_trees(n):
            want: dict = {}
            for (beta, gamma), g in g_structure_constants(t).items():
                key = (beta.drop_units(), Forest((gamma,)).drop_units())
                want[key] = want.get(key, Fraction(0)) + g
            got = qgnap_coproduct(t).terms
            assert list(got.items()) == list(want.items()), t.string
            assert all(type(c) is int for c in got.values())


def test_g_structure_constants_full_keys():
    g = g_structure_constants(T2100)
    assert g[(Forest((T10, LEAF, LEAF)), T200)] == 2
    assert g[(Forest((T10, LEAF, LEAF)), T110)] == 1
    assert g[(Forest((T10, T10)), T10)] == 1
    assert g[(Forest((LEAF,) * 4), T2100)] == 1
    assert g[(Forest((T2100,)), LEAF)] == 1


def test_g_requires_nonunit_generator():
    with pytest.raises(ValueError):
        g_structure_constants(LEAF)


# --- brute-force orbit counts ------------------------------------------------------


def test_count_ef_eg_two_vertices():
    ef, eg = count_Ef_Eg(T10, Forest((LEAF, LEAF)), T10)
    assert (ef, eg) == (2, 2)
    assert ef == forest_aut_order(Forest((LEAF, LEAF))) * aut_order(T10) \
        * f_coefficient(T10, Forest((LEAF, LEAF)), T10)


def test_count_ef_eg_known_coefficients():
    beta = Forest((T10, LEAF, LEAF))
    ef, eg = count_Ef_Eg(T2100, beta, T200)
    assert ef == eg == 4
    assert g_coefficient(T2100, beta, T200) == 2
    assert f_coefficient(T2100, beta, T200) == 1
    assert aut_order(T2100) * aut0_order(beta) * 2 == 4
    assert forest_aut_order(beta) * aut_order(T200) * 1 == 4


def test_count_ef_eg_meets_both_sides_at_five_vertices():
    # one vertex past the verify cap, where the inner pools are filtered
    # by alpha's edges before composing; a third of the trees, for time
    triples = 0
    for alpha in enumerate_trees(5)[::3]:
        for beta, gamma in admissible_triples(alpha):
            ef, eg = count_Ef_Eg(alpha, beta, gamma)
            assert ef == eg == (forest_aut_order(beta) * aut_order(gamma)
                                * f_coefficient(alpha, beta, gamma))
            assert eg == aut_order(alpha) * aut0_order(beta) * g_coefficient(alpha, beta, gamma)
            triples += 1
    assert triples > 100


def test_count_ef_eg_size_mismatch():
    with pytest.raises(ValueError):
        count_Ef_Eg(T2100, Forest((T10, LEAF)), T200)  # total size 3 != 4
    with pytest.raises(ValueError):
        count_Ef_Eg(T2100, Forest((T10, T10)), T200)  # 2 components, need 3


def test_main_theorem_identity_spot():
    for alpha in (T1200, T2100, T3000):
        g = g_structure_constants(alpha)
        for (beta, gamma), value in g.items():
            lhs = aut_order(alpha) * aut0_order(beta) * value
            rhs = (forest_aut_order(beta) * aut_order(gamma)
                   * f_coefficient(alpha, beta, gamma))
            assert lhs == rhs


# --- the surjection ----------------------------------------------------------------


def test_rho_on_generators():
    assert rho(HopfElement.qg_generator(T10)) == F(T10)
    assert rho(HopfElement.qg_generator(T3000)) == Fraction(1, 6) * F(T3000)
    # multiplicative on forest monomials: branches merge into the 3-corolla
    x = HopfElement.monomial("qgnap", Forest((T10, T200)))
    assert rho(x) == Fraction(1, 2) * F(T3000)
    y = HopfElement.monomial("qgnap", Forest((T10, T110)))
    assert rho(y) == F(T2100)
    # the 1/aut weights are Fractions, 1/1 included
    assert all(type(c) is Fraction for z in (x, y) for c in rho(z).terms.values())


def test_rho_is_hopf_morphism_at_a_four_vertex_tree():
    g = HopfElement.qg_generator(T1200)
    lhs = tensor_map(g.coproduct(), rho, rho)
    assert aut_order(T1200) == 2
    assert lhs == Fraction(1, 2) * hnap_coproduct(T1200)


def test_rho_is_surjective_on_the_tree_basis():
    # every basis element is the image of aut(t) G_t
    for n in range(2, 6):
        for t in enumerate_trees(n):
            assert rho(aut_order(t) * HopfElement.qg_generator(t)) == F(t)


# --- antipode ------------------------------------------------------------------------


def test_antipode_examples():
    assert antipode(F(T10)) == -1 * F(T10)
    assert antipode(F(T110)) == -1 * F(T110) + F(T200)
    conv = convolution_antipode_identity(F(T3000))
    assert conv == HopfElement.zero("hnap")


def test_antipode_fixes_unit():
    for algebra in ("hnap", "qgnap", "ck"):
        one = HopfElement.unit(algebra)
        assert antipode(one) == one
        assert convolution_antipode_identity(one) == one


def test_antipode_convolution_all_algebras():
    rng = random.Random(2)
    keys = {
        "hnap": [t for n in range(1, 5) for t in enumerate_trees(n)],
        "qgnap": [Forest((t,)) for n in range(2, 5) for t in enumerate_trees(n)]
        + [Forest((T10, T10))],
        "ck": [Forest((t,)) for n in range(1, 5) for t in enumerate_trees(n)]
        + [Forest((T10, LEAF))],
    }
    for algebra, pool in keys.items():
        for key in pool:
            x = HopfElement.monomial(algebra, key)
            want = HopfElement(algebra, {ALGEBRAS[algebra].unit: x.counit()})
            assert convolution_antipode_identity(x) == want
        a = HopfElement.monomial(algebra, rng.choice(pool), Fraction(2, 3))
        b = HopfElement.monomial(algebra, rng.choice(pool), Fraction(-1, 2))
        x = a + b + HopfElement.unit(algebra)
        want = HopfElement(algebra, {ALGEBRAS[algebra].unit: x.counit()})
        assert convolution_antipode_identity(x) == want


def _evaluate(x: HopfElement, a) -> Fraction:
    # a qgnap element as a function on the group: a forest monomial takes
    # the product of the coefficients of a at its components
    return sum((c * prod((a.coefficient(t) for t in f.components), start=Fraction(1))
                for f, c in x.terms.items()), start=Fraction(0))


def test_qgnap_antipode_is_the_group_inverse():
    # S(G_t)(a) = G_t(a^-1): the antipode against series_inverse, which
    # shares no code with the coproduct rows the antipode reads
    rng = random.Random(11)
    elements = [zeta_series(7), random_group_element(rng, 7), random_group_element(rng, 7)]
    trees = [t for n in range(2, 8) for t in enumerate_trees(n)]
    assert len(trees) == 84
    wrong_at_a = 0
    for a in elements:
        inverse = series_inverse(a)
        for t in trees:
            s = antipode_monomial("qgnap", Forest((t,)))
            assert _evaluate(s, a) == inverse.coefficient(t), t.string
            # negative control: a in place of a^-1 must fail on some tree
            wrong_at_a += _evaluate(s, a) != a.coefficient(t)
    assert wrong_at_a > 0


# --- Connes-Kreimer --------------------------------------------------------------------


def test_ck_coproduct_base_cases():
    one = Forest()
    assert ck_coproduct(LEAF) == tensor("ck", [
        (Forest((LEAF,)), one, 1), (one, Forest((LEAF,)), 1)])
    assert ck_coproduct(T10) == tensor("ck", [
        (Forest((T10,)), one, 1), (one, Forest((T10,)), 1),
        (Forest((LEAF,)), Forest((LEAF,)), 1)])


def test_ck_inductive_equals_cut_enumeration():
    trees = [t for n in range(1, 9) for t in enumerate_trees(n)]
    assert len(trees) == 200
    for t in trees:
        assert ck_coproduct(t) == ck_coproduct_cuts(t), t.string
    forests = [f for m in range(0, 9) for f in enumerate_forests(m)]
    assert len(forests) == 486
    for f in forests:
        assert ck_coproduct(f) == ck_coproduct_cuts(f), f.render()


def _cut_counts(cuts) -> Counter:
    return Counter((Forest(pieces), trunk) for pieces, trunk in cuts)


def test_antichain_cuts_equal_the_admissible_edge_subsets():
    # the oracle makes only the antichains of edges; they are the subsets
    # that the all-subsets walk of the closed-form antipode keeps, each once
    trees = [t for n in range(1, 10) for t in enumerate_trees(n)]
    assert len(trees) == 486
    for t in trees:
        cuts = _admissible_cuts(t)
        assert cuts[0] == ([], t), t.string
        kept = [(pieces, trunk) for _, ok, pieces, trunk in _edge_cuts(t) if ok]
        assert _cut_counts(cuts) == _cut_counts(kept), t.string
    # negative control: one non-admissible cut, both edges of chain(3),
    # added to the antichains breaks the comparison
    t = chain(3)
    kept = [(pieces, trunk) for _, ok, pieces, trunk in _edge_cuts(t) if ok]
    both = [(pieces, trunk) for cut, ok, pieces, trunk in _edge_cuts(t) if cut == 2]
    assert len(both) == 1 and both[0] == ([LEAF, LEAF], LEAF)
    assert _cut_counts(_admissible_cuts(t) + both) != _cut_counts(kept)


def test_b_plus():
    assert b_plus(Forest()) == LEAF
    assert b_plus(Forest((LEAF, LEAF))) == T200
    assert b_plus(Forest((T10,))) == T110


def test_cocycle_identity():
    unitf = Forest()
    for m in range(0, 5):
        for f in enumerate_forests(m):
            x = HopfElement.ck_forest(f)
            bx = b_plus_map(x)
            rhs = TensorElement("ck", {(k, unitf): c for k, c in bx.terms.items()})
            rhs = rhs + tensor_map(x.coproduct(), BasisMap.identity("ck"), b_plus_map)
            assert bx.coproduct() == rhs


def test_iso_examples():
    assert iso_to_ck(F(T10)) == HopfElement.ck_forest(Forest((LEAF,)))
    assert iso_to_ck(F(T1200)) == HopfElement.ck_forest(Forest((T200,)))
    assert iso_to_ck(F(T10) * F(T10)) == HopfElement.ck_forest(Forest((LEAF, LEAF)))


def test_iso_round_trip_and_algebra_morphism():
    rng = random.Random(4)
    trees = [t for n in range(1, 6) for t in enumerate_trees(n)]
    for _ in range(20):
        s, t = rng.choice(trees), rng.choice(trees)
        assert iso_from_ck(iso_to_ck(F(s))) == F(s)
        assert iso_to_ck(F(s) * F(t)) == iso_to_ck(F(s)) * iso_to_ck(F(t))


def test_iso_intertwines_coproduct_and_cocycle():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            x = F(t)
            mapped = tensor_map(x.coproduct(), iso_to_ck, iso_to_ck)
            assert mapped == iso_to_ck(x).coproduct()
            assert iso_to_ck(l_nap(x)) == b_plus_map(iso_to_ck(x))


# --- coalgebra axioms --------------------------------------------------------------------


def test_coassociativity():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            assert _coassociative("hnap", t)
            assert _coassociative("ck", Forest((t,)))
            if n >= 2:
                assert _coassociative("qgnap", Forest((t,)))
    assert _coassociative("qgnap", Forest((T10, T110)))
    assert _coassociative("ck", Forest((T10, LEAF)))


def test_coproduct_is_algebra_morphism():
    rng = random.Random(9)
    trees = [t for n in range(1, 5) for t in enumerate_trees(n)]
    for _ in range(15):
        s, t = rng.choice(trees), rng.choice(trees)
        x, y = F(s), F(t)
        assert (x * y).coproduct() == x.coproduct() * y.coproduct()
    # a ck forest's coproduct is read off its own B+ tree's ideal rows, so
    # the product of the parts' coproducts is an independent route to it
    forests = [f for m in range(2, 7) for f in enumerate_forests(m) if len(f) >= 2]
    for _ in range(15):
        a, b = rng.choice(forests), rng.choice(forests)
        x, y = HopfElement.ck_forest(a), HopfElement.ck_forest(b)
        assert (x * y).coproduct() == x.coproduct() * y.coproduct(), (a, b)


def test_counit_property():
    # (eps (x) id) Delta = id on basis elements
    for n in range(1, 5):
        for t in enumerate_trees(n):
            delta = hnap_coproduct(t)
            recovered = {}
            for (a, b), c in delta.terms.items():
                if a == LEAF:
                    recovered[b] = recovered.get(b, 0) + c
            assert recovered == {t: 1}


def test_freeness_on_valence_one_generators():
    from naphopf.trees import RootedTree

    seen = {}
    for m in range(0, 7):
        for branches in enumerate_forests(m):
            merged = RootedTree(branches.components)
            assert merged not in seen
            seen[merged] = branches
    assert len(seen) == sum(len(enumerate_trees(n)) for n in range(1, 8))
    for t, branches in seen.items():
        assert Forest(t.children) == branches


# --- serialization -------------------------------------------------------------------------


def test_tensor_json_export():
    rows = hnap_coproduct(T110).to_json()
    assert rows == [
        {"left": "()", "right": "((()))", "coeff": "1"},
        {"left": "(())", "right": "(())", "coeff": "1"},
        {"left": "((()))", "right": "()", "coeff": "1"},
    ]
    rows = qgnap_coproduct(T110).to_json()
    assert rows[0]["left"] == "1"


def test_antipode_monomial_cached_consistency():
    first = antipode_monomial("hnap", T2100)
    second = antipode_monomial("hnap", T2100)
    assert first == second
    # degree-graded involution-like sanity: S(S(x)) = x in a commutative Hopf algebra
    x = F(T2100)
    assert antipode(antipode(x)) == x


def test_cached_results_are_read_only():
    t = parse_tree("((()))")
    constants = g_structure_constants(t)
    with pytest.raises(AttributeError):
        constants.clear()
    with pytest.raises(TypeError):
        constants[(Forest((t,)), LEAF)] = 5
    for te in (hnap_coproduct(t), qgnap_coproduct(t), ck_coproduct(t),
               ck_coproduct(Forest((t, T10))), antipode_monomial("hnap", t),
               antipode_monomial("qgnap", Forest((t,)))):
        with pytest.raises(AttributeError):
            te.terms.clear()
        with pytest.raises(TypeError):
            te.terms[next(iter(te.terms))] = Fraction(7)
    bp = brute_force_pi(nap_instance(), 2)
    assert brute_force_pi(nap_instance(), 2) is bp
    assert isinstance(pi_elements(nap_instance(), ("1", "2")), tuple)
    assert pi_elements(nap_instance(), ("1", "2")) == bp.elements
    with pytest.raises(TypeError):
        bp.index[next(iter(bp.index))] = 0
    with pytest.raises(AttributeError):
        bp.theta.clear()
    # a cached coproduct or interval cannot be rebound or deleted either
    with pytest.raises(AttributeError):
        hnap_coproduct(t).terms = {}
    with pytest.raises(AttributeError):
        del ck_coproduct(t).terms
    # nor can a cached antipode, whose later callers would see the change
    cached = antipode_monomial("hnap", t)
    for name, value in (("terms", {}), ("algebra", "ck")):
        with pytest.raises(AttributeError):
            setattr(cached, name, value)
        with pytest.raises(AttributeError):
            delattr(cached, name)
    assert antipode(HopfElement.hnap_basis(t)) is cached
    assert cached.algebra == "hnap" and cached.terms
    with pytest.raises(AttributeError):
        interval_of(t).forests = ()
    with pytest.raises(AttributeError):
        del interval_of(t).masks
    assert repr(hnap_coproduct(t)) != "TensorElement('hnap', 0)"
    ip = interval_of(t)
    with pytest.raises(AttributeError):
        ip.elements[0].add(2)
    with pytest.raises(TypeError):
        ip.elements[0] = frozenset()
    with pytest.raises(TypeError):
        ip.child_masks[0] = 0
    with pytest.raises(TypeError):
        ip.masks[0] = 0
    assert len(g_structure_constants(t)) == 3
    assert len(hnap_coproduct(t).terms) == 3
    assert len(interval_of(t)) == 3
    assert len(brute_force_pi(nap_instance(), 2).index) == 3
    assert len(brute_force_pi(nap_instance(), 2).theta) == 5
    assert len(interval_of(t).forests) == 3 and len(ck_coproduct(t).terms) == 4
    assert ck_coproduct(Forest((t, T10))) is ck_coproduct(Forest((T10, t)))


def test_basis_monomials_are_interned():
    for t in (LEAF, T10, T2100):
        f = Forest((t,))
        assert F(t) is HopfElement.monomial("hnap", t) is HopfElement.monomial("hnap", t)
        assert HopfElement.ck_tree(t) is HopfElement.ck_forest(f) is HopfElement.monomial("ck", f)
        assert (HopfElement.qg_generator(t)
                is HopfElement.monomial("qgnap", f.drop_units()))
    assert HopfElement.unit("hnap") is F(LEAF)
    assert HopfElement.unit("ck") is HopfElement.ck_forest(Forest())
    assert HopfElement.unit("qgnap") is HopfElement.qg_generator(LEAF)
    x = F(T2100)
    assert x.algebra == "hnap" and x.terms == {T2100: 1} and type(x.terms[T2100]) is int


def test_interned_monomials_are_read_only():
    for x in (F(T110), HopfElement.ck_tree(T110), HopfElement.qg_generator(T110),
              HopfElement.unit("ck")):
        key, = x.terms
        with pytest.raises(AttributeError):
            x.terms = {}
        with pytest.raises(AttributeError):
            del x.terms
        with pytest.raises(AttributeError):
            x.terms.clear()
        with pytest.raises(TypeError):
            x.terms[key] = 2
        with pytest.raises(TypeError):
            del x.terms[key]
        assert x.terms == {key: 1}
    # arithmetic on an interned monomial builds a new element
    x = F(T10)
    assert (x + x).terms == {T10: 2} and x.terms == {T10: 1}


@pytest.mark.parametrize("coeff", [Fraction(1), 2, 0])
def test_other_coefficients_build_a_fresh_monomial(coeff):
    for algebra, key in (("hnap", T2100), ("ck", Forest((T10, T10))),
                         ("qgnap", Forest((T110,)))):
        x = HopfElement.monomial(algebra, key, coeff)
        assert x is not HopfElement.monomial(algebra, key, coeff)
        assert type(x.terms) is dict
        assert x == HopfElement(algebra, {key: coeff})
        assert x.terms == ({key: coeff} if coeff else {})
        assert all(type(c) is type(coeff) for c in x.terms.values())


def test_bad_monomial_keys_raise_and_are_not_cached():
    bad = (("hnap", Forest()), ("ck", T10), ("hnap", [T10]), ("ck", []),
           ("nap", T10), ("qgnap", Forest((T10, LEAF))))
    before = hopf._basis.cache_info().currsize
    for _ in range(2):
        for algebra, key in bad:
            with pytest.raises(ValueError):
                HopfElement.monomial(algebra, key)
        for key in (Forest(), [T10], {}):
            with pytest.raises(ValueError, match="hnap"):
                HopfElement.hnap_basis(key)
        for key in (T10, [], "()"):
            with pytest.raises(ValueError, match="ck"):
                HopfElement.ck_forest(key)
        # a forest has an id, but it is not a tree
        for make, algebra in ((HopfElement.ck_tree, "ck"), (HopfElement.qg_generator, "qgnap")):
            for key in ("x", Forest((T10,)), [T10]):
                with pytest.raises(ValueError, match=f"not a monomial of the {algebra} algebra"):
                    make(key)
        with pytest.raises(ValueError, match="unknown algebra"):
            HopfElement.unit("nap")
        for algebra, key in bad:
            if algebra != "nap" and not isinstance(key, list):
                with pytest.raises(ValueError):
                    antipode_monomial(algebra, key)
    assert hopf._basis.cache_info().currsize == before


def test_only_an_unhashable_key_is_reported_as_a_bad_key():
    # an unhashable algebra tag is not the key's fault: it is an unknown tag,
    # whichever constructor is given it
    tag = ["hnap"]
    for make in (lambda: HopfElement.monomial(tag, T10), lambda: HopfElement.monomial(tag, T10, 2),
                 lambda: HopfElement.unit(tag), lambda: HopfElement(tag, {}),
                 lambda: HopfElement.zero(tag), lambda: TensorElement(tag, {})):
        with pytest.raises(ValueError, match="unknown algebra tag") as raised:
            make()
        assert "not a monomial" not in str(raised.value)
    with pytest.raises(ValueError, match="is not a monomial of the hnap"):
        HopfElement.monomial("hnap", [T10], 2)


def test_antipodes_of_interned_monomials_to_7_vertices():
    trees = [t for n in range(1, 8) for t in enumerate_trees(n)]
    assert len(trees) == 85
    for algebra in ALGEBRAS:
        tree_key = ALGEBRAS[algebra].tree_key
        for t in trees:
            key = tree_key(t)
            x, y = HopfElement.monomial(algebra, key), HopfElement(algebra, {key: 1})
            assert x is not y and x == y
            assert antipode(x) is antipode_monomial(algebra, key)
            assert antipode(x) == antipode(y) == Fraction(1, 2) * antipode(2 * y), t.string


def test_read_only_results_copy_and_pickle():
    # a copy or an unpickled interval is the cached one; a tensor or an
    # antipode is rebuilt through its constructor, read-only again
    t = parse_tree("((()()))")
    ip, te, s = interval_of(t), hnap_coproduct(t), antipode_monomial("hnap", t)
    for clone in (copy.copy(ip), copy.deepcopy(ip), pickle.loads(pickle.dumps(ip))):
        assert clone is ip
    for x in (te, s):
        for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(clone) is type(x) and clone == x and clone.algebra == x.algebra
            with pytest.raises(AttributeError):
                clone.terms = {}
            with pytest.raises(AttributeError):
                clone.algebra = "ck"


def test_exact_is_the_one_coefficient_rule():
    three, third = 3, Fraction(1, 3)
    assert exact(three) is three and exact(third) is third
    for c, want in ((0.5, Fraction(1, 2)), ("2/6", third), (True, Fraction(1))):
        assert type(exact(c)) is Fraction and exact(c) == want


def test_single_tree_ck_and_antipode_return_the_cached_values():
    t = parse_tree("(()(()))")
    assert ck_coproduct(t) is ck_coproduct(Forest((t,))) is ck_coproduct(t)
    assert ck_coproduct(t) == ck_coproduct_cuts(t)
    x = F(t)
    assert antipode(x) is antipode_monomial("hnap", t)
    # a scaled monomial still goes through the linear extension
    assert antipode(2 * x) == 2 * antipode(x)


def test_antipodes_equal_the_closed_form_to_8_vertices():
    for n in range(1, 9):
        for t in enumerate_trees(n):
            f = Forest((t,))
            assert antipode(HopfElement.ck_forest(f)) == ck_antipode_closed_form(f), t.string
            # hnap through the basis isomorphism: the antipode of the branch forest
            assert (iso_to_ck(antipode(F(t)))
                    == ck_antipode_closed_form(Forest(t.children))), t.string


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_antipode_of_a_chain_needs_no_recursion():
    # a chain deeper than the recursion limit leaves room for
    t = chain(25)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 20)
    try:
        s_ck = antipode_monomial("ck", Forest((t,)))
        s_hnap = antipode_monomial("hnap", t)
        s_qgnap = antipode_monomial("qgnap", Forest((t,)))
    finally:
        sys.setrecursionlimit(limit)
    # one forest of chains per partition of 25 (of 24 under B+), all signs agreeing
    assert len(s_ck.terms) == 1958
    assert len(s_hnap.terms) == 1575
    assert len(s_qgnap.terms) == 1575


def test_unit_monomials_check_the_key_and_share_one_coefficient():
    t = parse_tree("(()(()))")
    for alg, key in (("hnap", t), ("ck", Forest((t, LEAF))), ("qgnap", Forest((t,)))):
        x = HopfElement.monomial(alg, key)
        assert x == HopfElement(alg, {key: 1}) and type(x.terms[key]) is int
        assert x.terms[key] is HopfElement.monomial(alg, key).terms[key]
    assert F(t) == HopfElement.monomial("hnap", t)
    assert HopfElement.monomial("hnap", t, 0) == HopfElement.zero("hnap")
    assert HopfElement.monomial("hnap", t, Fraction(3, 2)).terms == {t: Fraction(3, 2)}
    # an int stays an int and any other number becomes a Fraction, which is
    # not normalised back: Fraction(3) and 3 are one coefficient
    three = HopfElement.monomial("hnap", t, Fraction(3))
    assert type(three.terms[t]) is Fraction
    assert three == HopfElement("hnap", {t: 3}) == 3 * F(t)
    assert hash(three) == hash(HopfElement("hnap", {t: 3}))
    assert three.coproduct().to_json() == (3 * F(t)).coproduct().to_json()
    assert repr(three) == repr(3 * F(t))
    half = Fraction(1, 2) * F(t)
    assert half.terms == {t: Fraction(1, 2)} and type(half.terms[t]) is Fraction
    assert half + half == F(t) and (half + half).antipode() is antipode_monomial("hnap", t)
    assert HopfElement.unit("qgnap") == HopfElement("qgnap", {Forest(): 1})
    for alg, key in (("hnap", Forest((t,))), ("ck", t), ("qgnap", Forest((LEAF,))),
                     ("nope", t)):
        with pytest.raises(ValueError):
            HopfElement.monomial(alg, key)
    with pytest.raises(ValueError):
        HopfElement.hnap_basis(Forest((t,)))



def test_tensor_keys_are_checked():
    # a tensor key is a pair of monomials of its algebra; anything else was
    # stored, and to_json or a product then raised AttributeError
    t = parse_tree("(()(()))")
    for alg, left, right in (("hnap", t, LEAF), ("ck", Forest((t, LEAF)), Forest()),
                             ("qgnap", Forest((t,)), Forest())):
        x = TensorElement(alg, {(left, right): 2})
        assert x.terms == {(left, right): 2} and (x * x).to_json()
    for alg, key in (("hnap", ("x", "y")), ("hnap", (t, Forest((t,)))), ("hnap", (t,)),
                     ("hnap", (t, t, t)), ("ck", (t, Forest())),
                     ("qgnap", (Forest((LEAF,)), Forest())), ("hnap", t)):
        with pytest.raises(ValueError) as err:
            TensorElement(alg, {key: 1})
        assert f"is not a pair of monomials of the {alg} algebra" in str(err.value)
    # the coproduct and a map build checked tensors of their own algebra
    assert F(t).coproduct() == hnap_coproduct(t)
    assert tensor_map(ck_coproduct(t), iso_from_ck, iso_from_ck).algebra == "hnap"

def test_warm_queries_build_nothing():
    # a guard on work, not on time, in a fresh interpreter: once each of the
    # six kinds of query has been answered for every tree with 2..6
    # vertices, asking again from the same strings parses nothing (the
    # parse loop never runs), constructs no tree (not even one
    # already built), gives no new id and makes or compares no Fraction,
    # counted by a profile hook
    code = (
        "import json, sys\n"
        "from fractions import Fraction\n"
        "from naphopf import hopf, posets, trees\n"
        "kinds = [hopf.hnap_coproduct, hopf.qgnap_coproduct, hopf.ck_coproduct,\n"
        "         lambda t: hopf.antipode(hopf.HopfElement.hnap_basis(t)),\n"
        "         posets.mobius, posets.interval_of]\n"
        "texts = [t.string for n in range(2, 7) for t in trees.enumerate_trees(n)]\n"
        "def ask():\n"
        "    return [kind(trees.parse_tree(s)) for kind in kinds for s in texts]\n"
        "first = ask()\n"
        "watched = {f.__code__: f.__qualname__ for f in (\n"
        "    trees.RootedTree.__new__, trees._new_tree, trees.node,\n"
        "    trees._parse,\n"
        "    Fraction.__new__, Fraction.__eq__)}\n"
        "calls = dict.fromkeys(watched.values(), 0)\n"
        "def count(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code in watched:\n"
        "        calls[watched[frame.f_code]] += 1\n"
        "sys.setprofile(count)\n"
        "again = ask()\n"
        "sys.setprofile(None)\n"
        "same = sum(a is b for a, b in zip(first, again))\n"
        "print(json.dumps([len(texts), len(again), same, calls]))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    trees_asked, answers, same, calls = json.loads(out.stdout)
    assert trees_asked == 36 and answers == 6 * 36
    # each repeat hands out the very object of its first answer
    assert same == answers
    assert calls == {"RootedTree.__new__": 0, "_new_tree": 0, "node": 0,
                     "_parse": 0,
                     "Fraction.__new__": 0, "Fraction.__eq__": 0}


def test_hopf_checks_do_no_fraction_arithmetic():
    # a guard on work, not on time, in a fresh interpreter: every coproduct
    # and antipode coefficient is an integer count, so the hopf identity
    # checks and the cocycle check run on ints end to end; calls of
    # Fraction.__new__, _add and _mul are counted by a profile hook
    code = (
        "import json, random, sys\n"
        "from fractions import Fraction\n"
        "from naphopf import checks\n"
        "watched = {f.__code__: f.__qualname__\n"
        "           for f in (Fraction.__new__, Fraction._add, Fraction._mul)}\n"
        "rows = []\n"
        "for fn in (checks._hopf_coassoc, checks._hopf_antipode,\n"
        "           checks._hopf_delta_multiplicative, checks._ck_cocycle):\n"
        "    calls = dict.fromkeys(watched.values(), 0)\n"
        "    def count(frame, event, arg):\n"
        "        if event == 'call' and frame.f_code in watched:\n"
        "            calls[watched[frame.f_code]] += 1\n"
        "    sys.setprofile(count)\n"
        "    witness = fn(5, random.Random(0))\n"
        "    sys.setprofile(None)\n"
        "    rows.append([fn.__name__, witness, calls])\n"
        "print(json.dumps(rows))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    rows = json.loads(out.stdout)
    assert [r[0] for r in rows] == ["_hopf_coassoc", "_hopf_antipode",
                                    "_hopf_delta_multiplicative", "_ck_cocycle"]
    for name, witness, calls in rows:
        assert witness == "", name
        assert calls == {"Fraction.__new__": 0, "Fraction._add": 0, "Fraction._mul": 0}, name


def test_cold_results_share_fractions_and_hash_in_c():
    # a guard on work, not on time, in a fresh interpreter: the cold
    # coproducts of the three algebras and the antipodes of every tree with
    # 1..7 vertices hand out the engine's int counts, make no Fraction and
    # run no Python-level __hash__ or __eq__, counted by a profile hook.
    # Equal ints are not all one object: 166 of the 6,320 terms (antipode
    # coefficients -20..-6) lie outside CPython's small-int cache and hold
    # an int each, about 4.6 KB
    code = (
        "import json, sys\n"
        "from fractions import Fraction\n"
        "from types import MappingProxyType\n"
        "from naphopf import hopf, trees\n"
        "ts = [t for n in range(1, 8) for t in trees.enumerate_trees(n)]\n"
        "gens = [t for t in ts if t.size > 1]\n"
        "keys = [(a, hopf.ALGEBRAS[a].tree_key(t)) for a in hopf.ALGEBRAS for t in gens]\n"
        "def ask():\n"
        "    return ([hopf.hnap_coproduct(t) for t in ts]\n"
        "            + [hopf.ck_coproduct(t) for t in ts]\n"
        "            + [hopf.qgnap_coproduct(t) for t in gens]\n"
        "            + [hopf.antipode(hopf.HopfElement.monomial(a, k)) for a, k in keys])\n"
        "new = Fraction.__new__.__code__\n"
        "calls = {'Fraction.__new__': 0, '__hash__': 0, '__eq__': 0}\n"
        "def count(frame, event, arg):\n"
        "    if event == 'call':\n"
        "        code = frame.f_code\n"
        "        if code is new:\n"
        "            calls['Fraction.__new__'] += 1\n"
        "        elif code.co_name in ('__hash__', '__eq__'):\n"
        "            calls[code.co_name] += 1\n"
        "sys.setprofile(count)\n"
        "results = ask()\n"
        "sys.setprofile(None)\n"
        "coeffs = [c for r in results for c in r.terms.values()]\n"
        "print(json.dumps([len(results), len(coeffs), calls,\n"
        "                  all(type(c) is int for c in coeffs),\n"
        "                  all(type(r.terms) is MappingProxyType for r in results)]))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    results, terms, calls, ints, read_only = json.loads(out.stdout)
    # 85 trees in hnap and ck, 84 generators in qgnap, 3 * 84 antipodes
    assert results == 85 + 85 + 84 + 3 * 84 and terms > 10 * results
    assert calls["Fraction.__new__"] == 0
    assert calls["__hash__"] == calls["__eq__"] == 0
    assert ints and read_only
