import random
from fractions import Fraction
from math import factorial

import pytest

from naphopf.hopf import HopfElement
from naphopf.series import (
    PowerSeries,
    TreeSeries,
    corolla_series,
    faa_generators,
    gcomm_product,
    ladder_series,
    lie_bracket,
    mobius_series,
    project_comm,
    project_corolla,
    project_ladder,
    ps_comp_inverse,
    ps_compose,
    ps_exp_neg_x_times_x,
    ps_mul_inverse,
    ps_multiply,
    ps_one,
    ps_x,
    random_group_element,
    series_graft,
    series_inverse,
    series_multiply,
    spec_membership,
    unit_series,
    zeta_series,
)
from naphopf.oracles import _multiply_labeled, dfs_representative, slot_compositions
from naphopf.trees import (
    LEAF,
    aut_order,
    chain,
    corolla,
    enumerate_trees,
    parse_tree,
)

T10 = chain(2)
T110 = chain(3)
T200 = corolla(2)


# --- TreeSeries basics -----------------------------------------------------------


def test_series_drops_zero_and_overflow_coefficients():
    s = TreeSeries(2, {LEAF: 1, T10: 0, T110: 5})
    assert s.coeffs == {LEAF: Fraction(1)}
    assert s.is_group_element()


def test_series_json_roundtrip():
    z = zeta_series(5)
    assert TreeSeries.from_json(z.to_json()) == z
    data = z.to_json()
    assert data["coeffs"]["(()()())"] == "1/6"


def test_series_json_with_two_spellings_of_one_tree_is_refused():
    # (()(())) and ((())()) are one tree: keeping either coefficient would
    # silently drop the other
    data = {"truncation": 4, "coeffs": {"()": "1", "(()(()))": "1", "((())())": "5"}}
    with pytest.raises(ValueError) as err:
        TreeSeries.from_json(data)
    assert str(err.value) == ("series field 'coeffs': '(()(()))' and '((())())' "
                              "name the same tree")
    # whitespace makes another spelling too
    with pytest.raises(ValueError) as err:
        TreeSeries.from_json({"truncation": 2, "coeffs": {"()": "1", " () ": "1"}})
    assert str(err.value).endswith("'()' and ' () ' name the same tree")


def test_series_json_with_a_tree_above_the_truncation_is_refused():
    # a stored series never holds a tree above its truncation, so loading
    # one would silently drop its coefficient
    data = {"truncation": 2, "coeffs": {"()": "1", "((()))": "7"}}
    with pytest.raises(ValueError) as err:
        TreeSeries.from_json(data)
    assert str(err.value) == ("series field 'coeffs': '((()))' has 3 vertices, "
                              "more than the truncation 2")
    # arithmetic results keep truncating
    assert TreeSeries(2, {LEAF: 1, chain(3): 7}) == TreeSeries(2, {LEAF: 1})



@pytest.mark.parametrize("coeff", [
    "1e99", "1e3", "1.5", "1E2", " 1", "1/2 ", "+1", "1_000", "0x10", "1/-2",
    "\u0661", "inf", "nan", "", "1//2", "1/2/3",
])
def test_series_json_coefficient_is_an_integer_or_p_over_q(coeff):
    # only what to_json writes is read back: Fraction would take an exponent
    # and spend time that grows tenfold per exponent digit
    data = {"truncation": 2, "coeffs": {"()": "1", "(())": coeff}}
    with pytest.raises(ValueError) as err:
        TreeSeries.from_json(data)
    assert str(err.value) == (f"series field 'coeffs': '(())' has coefficient {coeff!r}, "
                              "not an integer or p/q")


def test_series_json_reads_integers_and_p_over_q():
    data = {"truncation": 2, "coeffs": {"()": 1, "(())": "-3/6"}}
    assert TreeSeries.from_json(data).coeffs == {LEAF: 1, chain(2): Fraction(-1, 2)}
    for c in ("0", "-0", "007", "12/8", "-1/1"):
        assert TreeSeries.from_json({"truncation": 2, "coeffs": {"(())": c}}).coeffs == (
            {chain(2): Fraction(c)} if Fraction(c) else {})

def test_an_int_coefficient_stays_an_int():
    # an int is kept, any other number becomes a Fraction, and 3 and
    # Fraction(3) are one coefficient
    three, also_three = TreeSeries(4, {T110: 3}), TreeSeries(4, {T110: Fraction(3)})
    assert type(three.coeffs[T110]) is int
    assert type(also_three.coeffs[T110]) is Fraction
    assert three == also_three
    assert three.to_json() == also_three.to_json()
    assert repr(three) == repr(also_three)
    c = corolla_series(5)
    assert all(type(v) is int for v in ((-1) * c).coeffs.values())
    assert all(type(v) is Fraction for v in (Fraction(1, 2) * c).coeffs.values())


def test_integer_operands_give_integer_results():
    n = 6
    c, ladder = corolla_series(n), ladder_series(n)
    inv = series_inverse(c)
    assert inv == ladder
    assert all(type(v) is int for v in inv.coeffs.values())
    for out in (lie_bracket(c, ladder), series_graft(c, ladder), series_multiply(c, ladder)):
        assert out.coeffs and all(type(v) is int for v in out.coeffs.values())
    # the engine divides by the operands' denominators: zeta's stay Fractions
    z = zeta_series(8)
    assert all(type(v) is Fraction for v in series_multiply(z, z).coeffs.values())


def test_multiply_requires_group_elements():
    bad = TreeSeries(3, {T10: 1})
    with pytest.raises(ValueError, match="group element"):
        series_multiply(bad, unit_series(3))
    with pytest.raises(ValueError):
        series_multiply(unit_series(3), bad)
    with pytest.raises(ValueError):
        series_inverse(bad)


def test_unit_laws():
    rng = random.Random(0)
    eps = unit_series(5)
    for _ in range(3):
        a = random_group_element(rng, 5)
        assert series_multiply(a, eps) == a
        assert series_multiply(eps, a) == a
    assert series_inverse(eps) == eps


def test_associativity_random():
    rng = random.Random(1)
    for _ in range(2):
        a = random_group_element(rng, 5)
        b = random_group_element(rng, 5)
        c = random_group_element(rng, 5)
        assert (series_multiply(series_multiply(a, b), c)
                == series_multiply(a, series_multiply(b, c)))


def test_left_linearity():
    rng = random.Random(2)
    eps = unit_series(5)
    a1 = random_group_element(rng, 5)
    a2 = random_group_element(rng, 5)
    b = random_group_element(rng, 5)
    combo = a1 + a2 - eps
    assert (series_multiply(combo, b)
            == series_multiply(a1, b) + series_multiply(a2, b) - series_multiply(eps, b))


def test_representative_independence():
    rng = random.Random(3)
    a = random_group_element(rng, 5)
    b = random_group_element(rng, 5)
    assert series_multiply(a, b) == _multiply_labeled(a, b, dfs_representative)
    z, m = zeta_series(5), mobius_series(5)
    assert series_multiply(z, m) == _multiply_labeled(z, m, dfs_representative)


# --- named series and their identities --------------------------------------------


def test_named_series_coefficients():
    z = zeta_series(5)
    assert z.coefficient(corolla(3)) == Fraction(1, 6)
    assert z.coefficient(parse_tree("(()(()))")) == 1
    assert z.coefficient(parse_tree("((()()))")) == Fraction(1, 2)
    m = mobius_series(5)
    assert m.coefficient(corolla(4)) == Fraction(1, 24)
    assert m.coefficient(corolla(3)) == Fraction(-1, 6)
    assert m.coefficient(chain(3)) == 0
    c = corolla_series(6)
    assert all(c.coefficient(corolla(k)) == 1 for k in range(6))
    assert c.coefficient(chain(3)) == 0
    ell = ladder_series(6)
    assert ell.coefficient(chain(4)) == -1
    assert ell.coefficient(chain(5)) == 1
    assert ell.coefficient(corolla(2)) == 0


def test_zeta_mobius_inverse():
    n = 7
    z, m, eps = zeta_series(n), mobius_series(n), unit_series(n)
    assert series_multiply(z, m) == eps
    assert series_multiply(m, z) == eps
    assert series_inverse(z) == m


def test_corolla_ladder_inverse():
    n = 8
    c, ell, eps = corolla_series(n), ladder_series(n), unit_series(n)
    assert series_multiply(c, ell) == eps
    assert series_multiply(ell, c) == eps
    assert series_inverse(ell) == c


def test_corolla_functional_equation():
    n = 8
    c, eps = corolla_series(n), unit_series(n)
    assert eps + series_graft(c, eps) == c


def test_graft_examples():
    eps = unit_series(4)
    assert series_graft(eps, eps) == TreeSeries(4, {T10: 1})
    # grafting distributes over the product (tested through left linearity)
    rng = random.Random(4)
    n = 5
    c = corolla_series(n)
    d = random_group_element(rng, n)
    e = random_group_element(rng, n)
    eps = unit_series(n)
    lhs = (series_multiply(series_graft(c, d) + eps, e)
           - series_multiply(eps, e))
    rhs = series_graft(series_multiply(c, e), series_multiply(d, e))
    assert lhs == rhs


# --- Lie bracket --------------------------------------------------------------------


def test_slot_composition_example():
    assert dict(slot_compositions(T10, T10)) == {T200: 1, T110: 1}


def test_bracket_antisymmetry_and_self():
    rng = random.Random(5)
    a = random_group_element(rng, 4)
    b = random_group_element(rng, 4)
    zero = TreeSeries(4, {})
    assert lie_bracket(a, a) == zero
    assert lie_bracket(a, b) + lie_bracket(b, a) == zero


def test_jacobi_on_homogeneous_elements():
    trees = [t for n in range(1, 5) for t in enumerate_trees(n)]
    big = 12
    singles = {t: TreeSeries(big, {t: Fraction(1)}) for t in trees}
    zero = TreeSeries(big, {})
    rng = random.Random(6)
    for _ in range(40):
        x, y, z = (singles[rng.choice(trees)] for _ in range(3))
        jac = (lie_bracket(x, lie_bracket(y, z))
               + lie_bracket(y, lie_bracket(z, x))
               + lie_bracket(z, lie_bracket(x, y)))
        assert jac == zero


def test_bracket_is_homogeneous_in_each_operand():
    # with the antisymmetry the Jacobi check asserts, this lets the check
    # take [x, [z, y]] as -[x, [y, z]]
    rng = random.Random(7)
    operands = ([TreeSeries(8, {t: 1}) for n in range(1, 5) for t in enumerate_trees(n)]
                + [random_group_element(rng, 5) for _ in range(3)])
    for x in operands:
        for y in operands:
            minus = (-1) * lie_bracket(x, y)
            assert lie_bracket(x, (-1) * y) == minus
            assert lie_bracket((-1) * x, y) == minus


# --- membership in the incidence spectrum --------------------------------------------


def test_spec_membership():
    ok, witness = spec_membership(zeta_series(6))
    assert ok and witness is None
    ok, witness = spec_membership(corolla_series(6))
    assert not ok and witness == T200
    ok, witness = spec_membership(ladder_series(6))
    assert not ok and witness == T200


def test_spec_membership_stability():
    n = 6
    z = zeta_series(n)
    for s in (series_inverse(z), series_multiply(z, z)):
        ok, witness = spec_membership(s)
        assert ok, witness


# --- power series toolkit --------------------------------------------------------------


def _types(*series: PowerSeries) -> set:
    return {type(c) for s in series for c in s.coeffs}


def test_power_series_follow_the_coefficient_rule():
    # as for tree series: integer operands give ints through every ps
    # function and projection, and 1 + x + x^2 + ... inverts to 1 - x
    n = 8
    c, ladder = corolla_series(n), ladder_series(n)
    assert _types(*(proj(s) for s in (c, ladder)
                    for proj in (project_corolla, project_ladder, project_comm))) == {int}
    pc, pl = project_comm(c), project_comm(ladder)
    assert ps_mul_inverse(project_corolla(c)) == project_corolla(ladder)
    assert ps_comp_inverse(pc) == pl
    assert _types(ps_mul_inverse(project_corolla(c)), ps_mul_inverse(project_ladder(ladder)),
                  ps_comp_inverse(pc), ps_comp_inverse(pl), ps_compose(pc, pl),
                  ps_multiply(project_corolla(c), project_corolla(ladder)),
                  gcomm_product(pc, pl), ps_one(n), ps_x(n), pc.truncate(n + 2),
                  ps_comp_inverse(PowerSeries([0, -1, 1, 3]))) == {int}
    # dividing by anything but 1 or -1 gives Fractions; a float becomes one
    halves = ps_mul_inverse(PowerSeries([2, 1]))
    assert halves == PowerSeries([Fraction(1, 2), Fraction(-1, 4)])
    assert _types(halves) == {Fraction}
    assert _types(ps_comp_inverse(PowerSeries([0, 2, 1]))) == {int, Fraction}  # g_0 = 0
    assert PowerSeries([0.5]).coeffs == (Fraction(1, 2),)
    # no path yields a float, from int, Fraction or float input
    z, m = zeta_series(n), mobius_series(n)
    wobbly = PowerSeries([0, 1.0, 0.5, -0.25])
    outs = [project_comm(z), ps_comp_inverse(project_comm(z)), ps_mul_inverse(project_corolla(z)),
            ps_mul_inverse(project_ladder(m)), ps_comp_inverse(ps_exp_neg_x_times_x(n)),
            gcomm_product(project_comm(z), project_comm(m)), ps_comp_inverse(wobbly),
            ps_compose(wobbly, wobbly), ps_mul_inverse(PowerSeries([1.5, 2.0])), wobbly]
    assert all(float not in _types(s) for s in outs)
    assert ps_compose(ps_comp_inverse(wobbly), wobbly) == ps_x(3)


def test_ps_mul_inverse_geometric():
    one_plus_x = PowerSeries([1, 1] + [0] * 6)
    inv = ps_mul_inverse(one_plus_x)
    assert inv == PowerSeries([(-1) ** n for n in range(8)])
    assert ps_multiply(one_plus_x, inv) == ps_one(7)


def test_ps_compose_associative():
    rng = random.Random(7)

    def rand_comp(n):
        return PowerSeries([0, 1] + [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                     for _ in range(n - 1)])

    f, g, h = rand_comp(8), rand_comp(8), rand_comp(8)
    assert ps_compose(ps_compose(f, g), h) == ps_compose(f, ps_compose(g, h))


def test_ps_comp_inverse_geometric_pair():
    n = 8
    over_1mx = PowerSeries([0] + [1] * n)            # x/(1-x)
    over_1px = PowerSeries([0] + [(-1) ** (k - 1) for k in range(1, n + 1)])  # x/(1+x)
    assert ps_comp_inverse(over_1mx) == over_1px
    assert ps_comp_inverse(over_1px) == over_1mx
    assert ps_compose(over_1mx, over_1px) == ps_x(n)


def test_ps_comp_inverse_of_x_exp_neg_x():
    n = 8
    inv = ps_comp_inverse(ps_exp_neg_x_times_x(n))
    want = PowerSeries([0] + [Fraction(k ** (k - 1), factorial(k))
                              for k in range(1, n + 1)])
    assert inv == want


def test_ps_errors():
    with pytest.raises(ValueError):
        ps_mul_inverse(PowerSeries([0, 1]))
    with pytest.raises(ValueError):
        ps_compose(ps_one(3), PowerSeries([1, 1, 0, 0]))
    with pytest.raises(ValueError):
        ps_comp_inverse(PowerSeries([0, 0, 1, 0]))


# --- projections ---------------------------------------------------------------------------


def test_projection_values():
    n = 8
    c, ell = corolla_series(n), ladder_series(n)
    assert project_ladder(c).coeffs == tuple([1, 1] + [0] * (n - 2))
    assert project_corolla(ell).coeffs == tuple([1, -1] + [0] * (n - 2))
    assert project_corolla(c).coeffs == tuple([1] * n)
    assert project_ladder(ell).coeffs == tuple((-1) ** k for k in range(n))


def test_projection_products_are_one():
    n = 8
    z, m = zeta_series(n), mobius_series(n)
    c, ell = corolla_series(n), ladder_series(n)
    one = ps_one(n - 1)
    for proj in (project_corolla, project_ladder):
        assert ps_multiply(proj(z), proj(m)) == one
        assert ps_multiply(proj(c), proj(ell)) == one


def test_comm_projection_of_zeta_is_cayley():
    n = 8
    got = project_comm(zeta_series(n))
    want = PowerSeries([0] + [Fraction(k ** (k - 1), factorial(k))
                              for k in range(1, n + 1)])
    assert got == want
    assert got == ps_comp_inverse(ps_exp_neg_x_times_x(n))


def test_comm_projection_of_corolla_and_ladder():
    n = 8
    pc = project_comm(corolla_series(n))
    pl = project_comm(ladder_series(n))
    assert pc == PowerSeries([0] + [1] * n)
    assert pl == PowerSeries([0] + [(-1) ** (k - 1) for k in range(1, n + 1)])
    assert ps_compose(pc, pl) == ps_x(n)
    assert ps_compose(pl, pc) == ps_x(n)


def test_projections_are_morphisms():
    rng = random.Random(8)
    n = 6
    a = random_group_element(rng, n)
    b = random_group_element(rng, n)
    ab = series_multiply(a, b)
    assert project_corolla(ab) == ps_multiply(project_corolla(a), project_corolla(b))
    assert project_ladder(ab) == ps_multiply(project_ladder(a), project_ladder(b))
    assert project_comm(ab) == ps_compose(project_comm(a), project_comm(b))
    assert project_comm(ab) == gcomm_product(project_comm(a), project_comm(b))


def test_projected_inverse_is_inverse_of_projection():
    n = 7
    for s, s_inv in [(zeta_series(n), mobius_series(n)),
                     (corolla_series(n), ladder_series(n))]:
        assert project_corolla(s_inv) == ps_mul_inverse(project_corolla(s))
        assert project_ladder(s_inv) == ps_mul_inverse(project_ladder(s))
        assert project_comm(s_inv) == ps_comp_inverse(project_comm(s))


# --- the diffeomorphism-group picture ---------------------------------------------------------


def test_gcomm_product():
    n = 8
    x = ps_x(n)
    rng = random.Random(9)
    f = PowerSeries([0, 1] + [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                              for _ in range(n - 1)])
    assert gcomm_product(x, f) == f
    assert gcomm_product(f, x) == f
    g = PowerSeries([0, 1] + [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                              for _ in range(n - 1)])
    assert gcomm_product(f, g) == ps_compose(f, g)
    with pytest.raises(ValueError):
        gcomm_product(ps_one(n), f)


def test_faa_generators():
    f10 = HopfElement.hnap_basis(T10)
    f110 = HopfElement.hnap_basis(T110)
    assert faa_generators(1) == f10
    assert faa_generators(2) == f110 + Fraction(1, 2) * (f10 * f10)
    f1110 = HopfElement.hnap_basis(chain(4))
    f1200 = HopfElement.hnap_basis(parse_tree("((()()))"))
    want = (f1110 + Fraction(1, 2) * f1200 + f110 * f10
            + Fraction(1, 6) * (f10 * f10 * f10))
    assert faa_generators(3) == want
    # the 1/aut weights are Fractions, 1/1 included, next to int products
    assert all(type(c) is Fraction for c in faa_generators(3).terms.values())
    assert [type(c) for c in (f110 * f10).terms.values()] == [int]


def test_member_characters_are_algebra_maps():
    n = 5
    z = zeta_series(n)
    zz = series_multiply(z, z)

    def lam(a, t):
        return aut_order(t) * a.coefficient(t)

    from naphopf.hopf import hnap_coproduct
    from naphopf.trees import RootedTree

    for s in enumerate_trees(2):
        for t in enumerate_trees(3):
            merged = RootedTree(s.children + t.children)
            assert lam(z, merged) == lam(z, s) * lam(z, t)
    for size in range(1, n + 1):
        for t in enumerate_trees(size):
            conv = sum((c * lam(z, left) * lam(z, right)
                        for (left, right), c in hnap_coproduct(t).terms.items()),
                       Fraction(0))
            assert conv == aut_order(t) * zz.coefficient(t)
