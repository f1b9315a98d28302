"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (pytest shows them with -rA
or -s); stated runtime bounds are asserted where a criterion carries one.
"""

import time
from fractions import Fraction
from math import factorial

from naphopf import ck_coproduct_cuts
from naphopf.hopf import (
    HopfElement,
    TensorElement,
    b_plus_map,
    ck_coproduct,
    hnap_coproduct,
    iso_to_ck,
    l_nap,
    qgnap_coproduct,
    tensor_map,
)
from naphopf.oracles import (
    admissible_triples,
    brute_force_pi,
    check_maximal_interval_model,
    comm_instance,
    count_Ef_Eg,
    f_coefficient,
    g_coefficient,
    labeled_trees,
    nap_instance,
)
from naphopf.posets import (
    check_distributive_lattice,
    check_total_semimodularity,
    diamond_poset,
    interval_of,
    mobius,
    mobius_closed_form,
    pentagon_poset,
)
from naphopf.series import (
    corolla_series,
    ladder_series,
    mobius_series,
    project_comm,
    project_corolla,
    project_ladder,
    ps_comp_inverse,
    ps_compose,
    ps_exp_neg_x_times_x,
    ps_multiply,
    ps_one,
    ps_x,
    series_graft,
    series_multiply,
    spec_membership,
    unit_series,
    zeta_series,
)
from naphopf.trees import (
    Forest,
    LEAF,
    aut0_order,
    aut_order,
    chain,
    corolla,
    enumerate_trees,
    forest_aut_order,
    parse_tree,
)

EXPECTED_COUNTS = [1, 1, 2, 4, 9, 20, 48, 115]


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_tree_counts():
    start = time.monotonic()
    counts = [len(enumerate_trees(n)) for n in range(1, 9)]
    assert counts == EXPECTED_COUNTS
    for n in range(1, 7):
        labeled = labeled_trees(list(range(1, n + 1)))
        assert len(labeled) == n ** (n - 1)
        assert {t.shape() for t in labeled} == set(enumerate_trees(n))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    _report(1, f"tree counts 1..8 = {counts}, labeled quotient agrees to n=6 "
               f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_mobius_closed_form():
    start = time.monotonic()
    checked = 0
    for n in range(1, 8):
        for t in enumerate_trees(n):
            assert mobius(t) == mobius_closed_form(t), t.string
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    _report(2, f"recursive mobius equals closed form on {checked} trees "
               f"({elapsed * 1000:.0f} ms)")


def test_criterion_3_reference_coproducts():
    t10, t110, t200 = chain(2), chain(3), corolla(2)
    t1200 = parse_tree("((()()))")
    t2100 = parse_tree("(()(()))")
    t3000 = corolla(3)

    def hs(rows):
        return TensorElement("hnap", {(a, b): Fraction(c) for a, b, c in rows})

    assert hnap_coproduct(t1200) == hs([
        (LEAF, t1200, 1), (t10, t110, 2), (t200, t10, 1), (t1200, LEAF, 1)])
    assert hnap_coproduct(t2100) == hs([
        (LEAF, t2100, 1), (t10, t200, 1), (t10, t110, 1),
        (t200, t10, 1), (t110, t10, 1), (t2100, LEAF, 1)])
    assert hnap_coproduct(t3000) == hs([
        (LEAF, t3000, 1), (t10, t200, 3), (t200, t10, 3), (t3000, LEAF, 1)])

    one = Forest()

    def F(*ts):
        return Forest(ts)

    def gs(rows):
        return TensorElement("qgnap", {(a, b): Fraction(c) for a, b, c in rows})

    assert qgnap_coproduct(t1200) == gs([
        (one, F(t1200), 1), (F(t10), F(t110), 1),
        (F(t200), F(t10), 1), (F(t1200), one, 1)])
    assert qgnap_coproduct(t2100) == gs([
        (one, F(t2100), 1), (F(t10), F(t200), 2), (F(t10), F(t110), 1),
        (F(t10, t10), F(t10), 1), (F(t110), F(t10), 1), (F(t2100), one, 1)])
    assert qgnap_coproduct(t3000) == gs([
        (one, F(t3000), 1), (F(t10), F(t200), 1),
        (F(t200), F(t10), 1), (F(t3000), one, 1)])

    f10 = HopfElement.hnap_basis(t10)
    assert f10 * f10 * f10 == HopfElement.hnap_basis(t3000)
    _report(3, "all six reference coproducts and the corolla relation reproduced")


def test_criterion_4_main_theorem():
    start = time.monotonic()
    identity_checked = 0
    for n in range(2, 6):
        for alpha in enumerate_trees(n):
            for beta, gamma in admissible_triples(alpha):
                lhs = (aut_order(alpha) * aut0_order(beta)
                       * g_coefficient(alpha, beta, gamma))
                rhs = (forest_aut_order(beta) * aut_order(gamma)
                       * f_coefficient(alpha, beta, gamma))
                assert lhs == rhs, (alpha.string, beta.render(), gamma.string)
                identity_checked += 1
    orbit_checked = 0
    for n in range(2, 5):
        for alpha in enumerate_trees(n):
            for beta, gamma in admissible_triples(alpha):
                ef, eg = count_Ef_Eg(alpha, beta, gamma)
                assert ef == eg
                assert ef == (forest_aut_order(beta) * aut_order(gamma)
                              * f_coefficient(alpha, beta, gamma))
                assert eg == (aut_order(alpha) * aut0_order(beta)
                              * g_coefficient(alpha, beta, gamma))
                orbit_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"{elapsed:.2f}s"
    _report(4, f"aut-weighted identity on {identity_checked} triples to size 5, "
               f"orbit counts on {orbit_checked} triples to size 4 "
               f"({elapsed * 1000:.0f} ms)")


def test_criterion_5_series_identities():
    z, m, eps7 = zeta_series(7), mobius_series(7), unit_series(7)
    assert series_multiply(z, m) == eps7
    assert series_multiply(m, z) == eps7
    c, ell, eps8 = corolla_series(8), ladder_series(8), unit_series(8)
    assert series_multiply(c, ell) == eps8
    assert series_multiply(ell, c) == eps8
    assert eps8 + series_graft(c, eps8) == c
    _report(5, "zeta/mobius inverse at N=7, corolla/ladder inverse and "
               "fixed point at N=8")


def test_criterion_6_membership():
    ok, witness = spec_membership(zeta_series(7))
    assert ok and witness is None
    ok, witness = spec_membership(corolla_series(8))
    assert not ok and witness == corolla(2)
    ok, witness = spec_membership(ladder_series(8))
    assert not ok and witness == corolla(2)
    _report(6, "zeta accepted; corolla and ladder rejected with witness "
               f"{corolla(2).string}")


def test_criterion_7_projections():
    n = 8
    z, m = zeta_series(n), mobius_series(n)
    c, ell = corolla_series(n), ladder_series(n)
    cayley = [Fraction(0)] + [Fraction(k ** (k - 1), factorial(k))
                              for k in range(1, n + 1)]
    assert list(project_comm(z).coeffs) == cayley
    assert project_comm(z) == ps_comp_inverse(ps_exp_neg_x_times_x(n))
    pc, pl = project_comm(c), project_comm(ell)
    assert ps_compose(pc, pl) == ps_x(n)
    assert ps_compose(pl, pc) == ps_x(n)
    one = ps_one(n - 1)
    for proj in (project_corolla, project_ladder):
        assert ps_multiply(proj(z), proj(m)) == one
        assert ps_multiply(proj(c), proj(ell)) == one
    _report(7, "comm projection of zeta equals the cayley series; all "
               "projection inverses match")


def test_criterion_8_connes_kreimer_bridge():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            assert ck_coproduct(t) == ck_coproduct_cuts(t), t.string
            x = HopfElement.hnap_basis(t)
            mapped = tensor_map(x.coproduct(), iso_to_ck, iso_to_ck)
            assert mapped == iso_to_ck(x).coproduct(), t.string
            assert iso_to_ck(l_nap(x)) == b_plus_map(iso_to_ck(x)), t.string
    _report(8, "inductive and cut coproducts agree; the basis isomorphism "
               "intertwines coproducts and cocycles to 5 vertices")


def test_criterion_9_lattice_checks():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            ip = interval_of(t)
            assert check_total_semimodularity(ip), t.string
            assert check_distributive_lattice(ip), t.string
    assert not check_total_semimodularity(pentagon_poset())
    assert not check_distributive_lattice(diamond_poset())
    _report(9, "all intervals to 6 vertices are totally semimodular "
               "distributive lattices; negative controls fail")


def test_criterion_10_oracle_equivalence():
    nap = nap_instance()
    for n in range(1, 5):
        bp = brute_force_pi(nap, n)
        assert len(bp) == (n + 1) ** (n - 1)
        for i in bp.poset.maximal_elements():
            assert check_maximal_interval_model(bp, i)
    comm = brute_force_pi(comm_instance(), 3)
    assert len(comm) == 5
    for i in range(5):
        for j in range(5):
            refines = all(any(a <= b for b in comm.parts[j])
                          for a in comm.parts[i])
            assert comm.poset.leq[i][j] == refines
    _report(10, "brute-force posets match (n+1)^(n-1) and the ideal model; "
                "comm at n=3 is the refinement lattice")
