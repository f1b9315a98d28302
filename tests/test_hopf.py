import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from naphopf.hopf import (
    ALGEBRAS,
    HopfElement,
    TensorElement,
    antipode,
    antipode_monomial,
    b_plus,
    b_plus_map,
    ck_coproduct,
    ck_coproduct_cuts,
    convolution_antipode_identity,
    count_Ef_Eg,
    f_coefficient,
    forest_as_tree_monomial,
    g_coefficient,
    g_structure_constants,
    hnap_coproduct,
    iso_from_ck,
    iso_to_ck,
    l_nap,
    qgnap_coproduct,
    rho,
    tensor_map,
)
from naphopf.posets import brute_force_pi, f_structure_constants, interval_of
from naphopf.trees import (
    Forest,
    LEAF,
    aut0_order,
    aut_order,
    chain,
    corolla,
    enumerate_forests,
    enumerate_trees,
    forest_aut_order,
    nap_instance,
    parse_tree,
)
from naphopf.verify import _coassociative, _hnap_coproduct_by_ideals

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


def test_rho_is_hopf_morphism_at_a_four_vertex_tree():
    g = HopfElement.qg_generator(T1200)
    lhs = tensor_map(g.coproduct(), "hnap",
                     lambda k: rho(HopfElement.monomial("qgnap", k)),
                     lambda k: rho(HopfElement.monomial("qgnap", k)))
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


# --- Connes-Kreimer --------------------------------------------------------------------


def test_ck_coproduct_base_cases():
    one = Forest()
    assert ck_coproduct(LEAF) == tensor("ck", [
        (Forest((LEAF,)), one, 1), (one, Forest((LEAF,)), 1)])
    assert ck_coproduct(T10) == tensor("ck", [
        (Forest((T10,)), one, 1), (one, Forest((T10,)), 1),
        (Forest((LEAF,)), Forest((LEAF,)), 1)])


def test_ck_inductive_equals_cut_enumeration():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            assert ck_coproduct(t) == ck_coproduct_cuts(t)
    for m in range(0, 5):
        for f in enumerate_forests(m):
            assert ck_coproduct(f) == ck_coproduct_cuts(f)


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
            rhs = rhs + tensor_map(x.coproduct(), "ck",
                                   lambda k: HopfElement.monomial("ck", k),
                                   lambda k: b_plus_map(HopfElement.monomial("ck", k)))
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
            mapped = tensor_map(x.coproduct(), "ck",
                                lambda k: iso_to_ck(F(k)),
                                lambda k: iso_to_ck(F(k)))
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
               antipode_monomial("hnap", t)):
        with pytest.raises(AttributeError):
            te.terms.clear()
        with pytest.raises(TypeError):
            te.terms[next(iter(te.terms))] = Fraction(7)
    bp = brute_force_pi(nap_instance(), 2)
    with pytest.raises(TypeError):
        bp.index[next(iter(bp.index))] = 0
    with pytest.raises(AttributeError):
        bp.theta.clear()
    ip = interval_of(t)
    with pytest.raises(TypeError):
        ip.poset.leq[0][0] = False
    with pytest.raises(TypeError):
        ip.poset.leq[0] = ()
    with pytest.raises(TypeError):
        ip.representative.parents[2] = 3
    assert len(g_structure_constants(t)) == 3
    assert len(hnap_coproduct(t).terms) == 3
    assert len(interval_of(t)) == 3
    assert len(brute_force_pi(nap_instance(), 2).index) == 3
    assert len(brute_force_pi(nap_instance(), 2).theta) == 5


def test_single_tree_ck_and_antipode_return_the_cached_values():
    t = parse_tree("(()(()))")
    assert ck_coproduct(t) is ck_coproduct(Forest((t,))) is ck_coproduct(t)
    assert ck_coproduct(t) == ck_coproduct_cuts(t)
    x = F(t)
    assert antipode(x) is antipode_monomial("hnap", t)
    # a scaled monomial still goes through the linear extension
    assert antipode(2 * x) == 2 * antipode(x)
