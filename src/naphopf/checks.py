"""The checks of the named verification suites: the library's defining
identities, each run against an independent route.

Each check is a pure function of (degree, rng) that returns a witness
string, empty exactly when it passes.  ``_check`` registers it in
``_REGISTRY`` with its suite and, when it uses the degree, the degree it
runs at by default and the cap it never runs above (``_DEGREES``);
:func:`naphopf.verify.run_suite` resolves the degree and runs them.  The
exhaustive and labeled routes the checks compare against live in
:mod:`naphopf.oracles`.  ``verify`` imports this module on the first run of
a suite, so a process that runs none never compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import hopf
from .hopf import (
    ALGEBRAS,
    BasisMap,
    HopfElement,
    TensorElement,
    b_plus_map,
    ck_coproduct,
    convolution_antipode_identity,
    iso_from_ck,
    iso_to_ck,
    l_nap,
    qgnap_coproduct,
    rho,
    tensor_map,
)
from .oracles import (
    LABELED_G_LIMIT,
    LABELED_PRODUCT_LIMIT,
    _hnap_coproduct_by_ideals,
    _multiply_labeled,
    _trees,
    admissible_triples,
    brute_force_pi,
    canonical_representative,
    check_distributive_lattice,
    check_interval_factorization,
    check_maximal_interval_model,
    check_total_semimodularity,
    check_upset_isomorphism,
    ck_coproduct_cuts,
    comm_instance,
    count_Ef_Eg,
    dfs_representative,
    diamond_poset,
    f_coefficient,
    f_structure_constants,
    g_coefficient,
    interval_mobius,
    labeled_g_structure_constants,
    nap_instance,
    pentagon_poset,
    slot_compositions,
)
from .posets import interval_of, mobius, mobius_closed_form
from .series import (
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
from .trees import (
    Forest,
    LEAF,
    RootedTree,
    aut0_order,
    aut_order,
    chain,
    corolla,
    enumerate_forests,
    enumerate_trees,
    forest_aut_order,
    parse_tree,
)

BRUTE_CAP = 4  # structured-partition search is exponential in the ground set

# (suite, name, check) in the order of registration
_REGISTRY: list[tuple[str, str, object]] = []
# each check's (default degree, cap): the degree it runs at when none is
# asked, and the highest it runs at whatever is asked; a check without a
# default ignores the degree
_DEGREES: dict = {}


def _check(suite: str, name: str, degree: int | None = None, cap: int | None = None):
    def wrap(fn):
        _REGISTRY.append((suite, name, fn))
        _DEGREES[fn] = (degree, cap)
        return fn

    return wrap


# ---------------------------------------------------------------------------
# poset suite


@_check("poset", "brute-force element counts equal (n+1)^(n-1)", degree=4, cap=BRUTE_CAP)
def _poset_counts(degree, rng):
    nap = nap_instance()
    for n in range(1, degree + 1):
        bp = brute_force_pi(nap, n)
        if len(bp) != (n + 1) ** (n - 1):
            return f"n={n}: {len(bp)} elements"
    return ""


@_check("poset", "brute-force relations are posets with a unique bottom",
        degree=4, cap=BRUTE_CAP)
def _poset_axioms(degree, rng):
    nap = nap_instance()
    for n in range(1, degree + 1):
        bp = brute_force_pi(nap, n)
        try:
            bp.poset.validate()
        except ValueError as exc:
            return f"n={n}: {exc}"
        b = bp.bottom_index()
        if b is None or len(bp.elements[b]) != n:
            return f"n={n}: bottom is not the all-singletons forest"
    return ""


@_check("poset", "comm poset at n=3 is the 5-element refinement lattice")
def _poset_comm(degree, rng):
    bp = brute_force_pi(comm_instance(), 3)
    if len(bp) != 5:
        return f"{len(bp)} elements"
    parts = {frozenset(p) for p in bp.parts}
    if len(parts) != 5:
        return "partitions are not distinct"
    for i in range(len(bp)):
        for j in range(len(bp)):
            refines = all(any(a <= b for b in bp.parts[j]) for a in bp.parts[i])
            if bp.poset.leq[i][j] != refines:
                return f"order differs from refinement at ({i},{j})"
    return ""


@_check("poset", "up-sets are isomorphic to part posets via theta", degree=4, cap=BRUTE_CAP)
def _poset_upsets(degree, rng):
    nap = nap_instance()
    for n in range(1, degree + 1):
        bp = brute_force_pi(nap, n)
        for i in range(len(bp)):
            if not check_upset_isomorphism(bp, i):
                return f"n={n}, element {i}"
    return ""


@_check("poset", "intervals factor over the parts of the top element", degree=4, cap=BRUTE_CAP)
def _poset_intervals(degree, rng):
    nap = nap_instance()
    bp = brute_force_pi(nap, degree)
    for i in range(len(bp)):
        for j in range(len(bp)):
            if bp.poset.leq[i][j] and not check_interval_factorization(bp, i, j):
                return f"pair ({i},{j}) at n={degree}"
    return ""


@_check("poset", "maximal intervals realize the ideal-lattice model", degree=4, cap=BRUTE_CAP)
def _poset_models(degree, rng):
    nap = nap_instance()
    for n in range(1, degree + 1):
        bp = brute_force_pi(nap, n)
        for i in bp.poset.maximal_elements():
            if not check_maximal_interval_model(bp, i):
                return f"n={n}, maximal element {i}"
    return ""


def _interval_mu(t: RootedTree) -> int:
    # mu(0,1) of the interval of t by the recursion on its masks
    return interval_mobius(interval_of(t))[-1]


@_check("poset", "mobius of branch products multiplies", degree=6)
def _poset_mobius_products(degree, rng):
    for t in _trees(2, degree):
        if t.root_valence < 2:
            continue
        prod = 1
        for branch in t.children:
            prod *= mobius(RootedTree((branch,)))
        if _interval_mu(t) != prod:
            return t.string
    return ""


@_check("poset", "mobius values over an interval sum to zero", degree=7)
def _poset_mobius_sums(degree, rng):
    for t in _trees(2, degree):
        if sum(interval_mobius(interval_of(t))) != 0:
            return t.string
    return ""


# ---------------------------------------------------------------------------
# mobius suite


@_check("mobius", "recursive mobius equals the corolla closed form", degree=7)
def _mobius_closed(degree, rng):
    for t in _trees(1, degree):
        mu = _interval_mu(t)
        if mu != mobius_closed_form(t):
            return f"{t.string}: {mu} vs {mobius_closed_form(t)}"
    return ""


@_check("poset", "tree intervals are totally semimodular", degree=6)
def _lattice_semimodular(degree, rng):
    for t in _trees(1, degree):
        if not check_total_semimodularity(interval_of(t)):
            return t.string
    return ""


@_check("poset", "tree intervals are distributive lattices on ideals", degree=6)
def _lattice_distributive(degree, rng):
    for t in _trees(1, degree):
        if not check_distributive_lattice(interval_of(t)):
            return t.string
    return ""


@_check("poset", "negative controls fail the lattice checks")
def _lattice_controls(degree, rng):
    if check_total_semimodularity(pentagon_poset()):
        return "pentagon passed semimodularity"
    if check_distributive_lattice(diamond_poset()):
        return "diamond passed distributivity"
    if not check_total_semimodularity(diamond_poset()):
        return "diamond should be semimodular"
    return ""


# ---------------------------------------------------------------------------
# hopf suite


def _tensor_from_rows(algebra: str, rows) -> TensorElement:
    out: dict = {}
    for left, right, coeff in rows:
        out[(left, right)] = out.get((left, right), 0) + coeff
    return TensorElement(algebra, out)


@_check("hopf", "incidence coproducts of the four-vertex examples")
def _hopf_reference_f(degree, rng):
    t10, t110, t200 = chain(2), chain(3), corolla(2)
    t1200 = parse_tree("((()()))")
    t2100 = parse_tree("(()(()))")
    t3000 = corolla(3)
    cases = [
        (t1200, [(LEAF, t1200, 1), (t10, t110, 2), (t200, t10, 1), (t1200, LEAF, 1)]),
        (t2100, [(LEAF, t2100, 1), (t10, t200, 1), (t10, t110, 1),
                 (t200, t10, 1), (t110, t10, 1), (t2100, LEAF, 1)]),
        (t3000, [(LEAF, t3000, 1), (t10, t200, 3), (t200, t10, 3), (t3000, LEAF, 1)]),
    ]
    for t, rows in cases:
        if hopf.hnap_coproduct(t) != _tensor_from_rows("hnap", rows):
            return t.string
    return ""


@_check("hopf", "function-algebra coproducts of the four-vertex examples")
def _hopf_reference_g(degree, rng):
    t10, t110, t200 = chain(2), chain(3), corolla(2)
    t1200 = parse_tree("((()()))")
    t2100 = parse_tree("(()(()))")
    t3000 = corolla(3)
    one = Forest()

    def F(*ts):
        return Forest(ts)

    cases = [
        (t1200, [(one, F(t1200), 1), (F(t10), F(t110), 1),
                 (F(t200), F(t10), 1), (F(t1200), one, 1)]),
        (t2100, [(one, F(t2100), 1), (F(t10), F(t200), 2), (F(t10), F(t110), 1),
                 (F(t10, t10), F(t10), 1), (F(t110), F(t10), 1), (F(t2100), one, 1)]),
        (t3000, [(one, F(t3000), 1), (F(t10), F(t200), 1),
                 (F(t200), F(t10), 1), (F(t3000), one, 1)]),
    ]
    for t, rows in cases:
        if qgnap_coproduct(t) != _tensor_from_rows("qgnap", rows):
            return t.string
    return ""


@_check("hopf", "branch merging gives the three-corolla relation")
def _hopf_relation(degree, rng):
    f10 = HopfElement.hnap_basis(chain(2))
    if f10 * f10 != HopfElement.hnap_basis(corolla(2)):
        return "square"
    if f10 * f10 * f10 != HopfElement.hnap_basis(corolla(3)):
        return "cube"
    return ""


def _generator_keys(algebra: str, max_degree: int):
    # the monomial attached to each tree of 1..max_degree vertices
    return map(ALGEBRAS[algebra].tree_key, _trees(1, max_degree))


def _coassociative(algebra: str, key) -> bool:
    coproduct = ALGEBRAS[algebra].coproduct
    delta = coproduct(key)
    left: dict = {}
    right: dict = {}
    for (a, b), c in delta.terms.items():
        for (a1, a2), c2 in coproduct(a).terms.items():
            k = (a1, a2, b)
            left[k] = left.get(k, 0) + c * c2
        for (b1, b2), c2 in coproduct(b).terms.items():
            k = (a, b1, b2)
            right[k] = right.get(k, 0) + c * c2
    left = {k: v for k, v in left.items() if v}
    right = {k: v for k, v in right.items() if v}
    return left == right


@_check("hopf", "coassociativity of all three coproducts", degree=6)
def _hopf_coassoc(degree, rng):
    for algebra in ALGEBRAS:
        for key in _generator_keys(algebra, degree):
            if not _coassociative(algebra, key):
                return f"{algebra}: {ALGEBRAS[algebra].render(key)}"
    return ""


@_check("hopf", "coproducts are algebra morphisms", degree=6)
def _hopf_delta_multiplicative(degree, rng):
    for s in _trees(1, degree - 1):
        for t in _trees(1, degree - s.size):
            x = HopfElement.hnap_basis(s)
            y = HopfElement.hnap_basis(t)
            if (x * y).coproduct() != x.coproduct() * y.coproduct():
                return f"hnap: {s.string} * {t.string}"
    for algebra in ("qgnap", "ck"):
        keys = [k for k in _generator_keys(algebra, max(2, degree - 2))
                if k != ALGEBRAS[algebra].unit]
        for _ in range(10):
            a = rng.choice(keys)
            b = rng.choice(keys)
            x, y = HopfElement.monomial(algebra, a), HopfElement.monomial(algebra, b)
            if (x * y).coproduct() != x.coproduct() * y.coproduct():
                return f"{algebra}: {a} * {b}"
    return ""


@_check("hopf", "antipode satisfies the convolution identity", degree=5)
def _hopf_antipode(degree, rng):
    for algebra in ALGEBRAS:
        for key in _generator_keys(algebra, degree):
            x = HopfElement.monomial(algebra, key)
            expected = HopfElement(algebra, {ALGEBRAS[algebra].unit: x.counit()})
            if convolution_antipode_identity(x) != expected:
                return f"{algebra}: {ALGEBRAS[algebra].render(key)}"
    return ""


@_check("hopf", "valence-one generators generate freely", degree=7)
def _hopf_freeness(degree, rng):
    seen: dict[RootedTree, Forest] = {}
    for m in range(0, degree):
        for branches in enumerate_forests(m):
            generators = Forest(RootedTree((b,)) for b in branches)
            merged = RootedTree(branches.components)
            if merged in seen:
                return f"collision at {merged.string}"
            seen[merged] = generators
    expect = sum(len(enumerate_trees(n)) for n in range(1, degree + 1))
    if len(seen) != expect:
        return f"{len(seen)} products for {expect} trees"
    for t, generators in seen.items():
        refactored = Forest(RootedTree((b,)) for b in t.children)
        if refactored != generators:
            return f"factorization differs at {t.string}"
    return ""


@_check("hopf", "rho is a morphism of coalgebras", degree=5)
def _hopf_rho(degree, rng):
    for alpha in _trees(2, degree):
        g = HopfElement.qg_generator(alpha)
        if tensor_map(g.coproduct(), rho, rho) != rho(g).coproduct():
            return alpha.string
    return ""


# ---------------------------------------------------------------------------
# main-theorem suite: f by ideal enumeration against g by the labeled route,
# and the brute-force orbit counts behind both


@_check("main-theorem", "aut-weighted identity between the two coproducts",
        degree=5, cap=LABELED_G_LIMIT)
def _main_identity(degree, rng):
    # both sides as weighted dicts, compared over the union of their supports
    for n in range(2, degree + 1):
        g_of = labeled_g_structure_constants(n)
        for alpha in enumerate_trees(n):
            lhs = {(beta, gamma): aut_order(alpha) * aut0_order(beta) * g
                   for (beta, gamma), g in g_of[alpha].items()}
            rhs = {}
            for (beta, gamma), f in f_structure_constants(alpha).items():
                beta = Forest(beta.components + (LEAF,) * (gamma.size - len(beta)))
                rhs[(beta, gamma)] = forest_aut_order(beta) * aut_order(gamma) * f
            bad = [k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k)]
            if bad:
                beta, gamma = min(bad, key=lambda k: (k[0].sort_key(), k[1].size, k[1].string))
                return f"{alpha.string} | {beta.render() or '1'} | {gamma.string}"
    return ""


@_check("main-theorem", "brute-force orbit counts match both sides",
        degree=4, cap=BRUTE_CAP)
def _main_counts(degree, rng):
    for alpha in _trees(2, degree):
        for beta, gamma in admissible_triples(alpha):
            ef, eg = count_Ef_Eg(alpha, beta, gamma)
            if ef != eg:
                return f"E_f={ef} E_g={eg} at {alpha.string}"
            f = f_coefficient(alpha, beta, gamma)
            g = g_coefficient(alpha, beta, gamma)
            if ef != forest_aut_order(beta) * aut_order(gamma) * f:
                return f"E_f mismatch at {alpha.string}|{beta.render()}|{gamma.string}"
            if eg != aut_order(alpha) * aut0_order(beta) * g:
                return f"E_g mismatch at {alpha.string}|{beta.render()}|{gamma.string}"
    return ""


# ---------------------------------------------------------------------------
# ck-iso suite


@_check("ck-iso", "inductive coproduct equals admissible-cut enumeration", degree=5)
def _ck_cuts(degree, rng):
    for t in _trees(1, degree):
        if ck_coproduct(t) != ck_coproduct_cuts(t):
            return t.string
    return ""


@_check("ck-iso", "graft operator satisfies the cocycle identity", degree=5)
def _ck_cocycle(degree, rng):
    unitf = Forest()
    for m in range(0, degree + 1):
        for f in enumerate_forests(m):
            x = HopfElement.ck_forest(f)
            bx = b_plus_map(x)
            rhs = TensorElement("ck", {(k, unitf): c for k, c in bx.terms.items()})
            rhs = rhs + tensor_map(x.coproduct(), BasisMap.identity("ck"), b_plus_map)
            if bx.coproduct() != rhs:
                return f.render() or "1"
    return ""


@_check("ck-iso", "basis isomorphism and its inverse compose to the identity", degree=5)
def _ck_iso_inverse(degree, rng):
    for t in _trees(1, degree):
        x = HopfElement.hnap_basis(t)
        if iso_from_ck(iso_to_ck(x)) != x:
            return t.string
    for m in range(0, degree):
        for f in enumerate_forests(m):
            y = HopfElement.ck_forest(f)
            if iso_to_ck(iso_from_ck(y)) != y:
                return f.render() or "1"
    return ""


@_check("ck-iso", "basis isomorphism intertwines the coproducts", degree=5)
def _ck_iso_coproduct(degree, rng):
    # left: the ideal enumeration; right: the Connes-Kreimer coproduct
    for t in _trees(1, degree):
        x = HopfElement.hnap_basis(t)
        lhs = tensor_map(_hnap_coproduct_by_ideals(t), iso_to_ck, iso_to_ck)
        if lhs != iso_to_ck(x).coproduct():
            return t.string
    return ""


@_check("ck-iso", "basis isomorphism intertwines the cocycles", degree=5)
def _ck_iso_cocycle(degree, rng):
    for t in _trees(1, degree):
        x = HopfElement.hnap_basis(t)
        if iso_to_ck(l_nap(x)) != b_plus_map(iso_to_ck(x)):
            return t.string
    return ""


# ---------------------------------------------------------------------------
# series suite


@_check("series", "group laws hold on random elements", degree=5)
def _series_group_laws(n, rng):
    eps = unit_series(n)
    for trial in range(3):
        a = random_group_element(rng, n)
        b = random_group_element(rng, n)
        c = random_group_element(rng, n)
        if series_multiply(series_multiply(a, b), c) != series_multiply(a, series_multiply(b, c)):
            return f"associativity, trial {trial}"
        if series_multiply(a, eps) != a or series_multiply(eps, a) != a:
            return f"unit, trial {trial}"
        inv = series_inverse(a)
        if series_multiply(a, inv) != eps or series_multiply(inv, a) != eps:
            return f"inverse, trial {trial}"
    return ""


@_check("series", "product is linear in its left argument", degree=5)
def _series_left_linear(n, rng):
    eps = unit_series(n)
    a1 = random_group_element(rng, n)
    a2 = random_group_element(rng, n)
    b = random_group_element(rng, n)
    combo = a1 + a2 - eps  # still a group element
    lhs = series_multiply(combo, b)
    rhs = series_multiply(a1, b) + series_multiply(a2, b) - series_multiply(eps, b)
    return "" if lhs == rhs else "left linearity"


@_check("series", "product is independent of the representative labeling",
        degree=5, cap=LABELED_PRODUCT_LIMIT)
def _series_representatives(n, rng):
    a = random_group_element(rng, n)
    b = random_group_element(rng, n)
    for representative in (canonical_representative, dfs_representative):
        label = representative.__name__
        if series_multiply(a, b) != _multiply_labeled(a, b, representative):
            return f"random elements, {label}"
        if (series_multiply(zeta_series(n), mobius_series(n))
                != _multiply_labeled(zeta_series(n), mobius_series(n), representative)):
            return f"zeta times mobius, {label}"
    return ""


@_check("series", "zeta and mobius series are mutually inverse", degree=7)
def _series_zeta_mobius(n, rng):
    z = zeta_series(n)
    m = mobius_series(n)
    eps = unit_series(n)
    if series_multiply(z, m) != eps or series_multiply(m, z) != eps:
        return f"N={n}"
    if series_inverse(z) != m:
        return "inverse(zeta) != mobius"
    return ""


@_check("series", "corolla and ladder series are mutually inverse", degree=8)
def _series_corolla_ladder(n, rng):
    c = corolla_series(n)
    ell = ladder_series(n)
    eps = unit_series(n)
    if series_multiply(c, ell) != eps or series_multiply(ell, c) != eps:
        return f"N={n}"
    if series_inverse(ell) != c:
        return "inverse(ladder) != corolla"
    return ""


@_check("series", "corolla series satisfies its graft fixed point", degree=8)
def _series_fixed_point(n, rng):
    c = corolla_series(n)
    eps = unit_series(n)
    if eps + series_graft(c, eps) != c:
        return f"N={n}"
    return ""


@_check("series", "graft distributes over the product", degree=5)
def _series_graft_distributes(n, rng):
    c = corolla_series(n)
    d = random_group_element(rng, n)
    e = random_group_element(rng, n)
    lhs = series_multiply(series_graft(c, d) + unit_series(n), e) - series_multiply(unit_series(n), e)
    rhs = series_graft(series_multiply(c, e), series_multiply(d, e))
    return "" if lhs == rhs else "distributivity"


@_check("series", "lie bracket is antisymmetric and satisfies jacobi", degree=4, cap=5)
def _series_lie(n, rng):
    zero = TreeSeries(2 * n, {})
    singles = [TreeSeries(2 * n, {t: 1}) for t in _trees(1, n)]
    for x in singles:
        if lie_bracket(x, x) != zero.truncate(2 * n):
            return "bracket with itself"
    pairs = dict(slot_compositions(chain(2), chain(2)))
    if pairs != {corolla(2): 1, chain(3): 1}:
        return "two-chain slot composition"
    big = 3 * n
    singles = [TreeSeries(big, {t: 1}) for t in _trees(1, n)]
    zero = TreeSeries(big, {})
    # each inner bracket once per ordered pair
    inner = {(i, j): lie_bracket(x, y)
             for i, x in enumerate(singles) for j, y in enumerate(singles)}
    for (i, j), xy in inner.items():
        if xy != (-1) * inner[j, i]:
            return "antisymmetry"
    # each outer bracket [x_i, [x_j, x_k]] once per i and j <= k: for j > k
    # it is the negative of [x_i, [x_k, x_j]], by the antisymmetry just
    # asserted and the bracket's linearity in its right operand
    outer: dict = {}

    def bracket(i, j, k):
        if j > k:
            return (-1) * bracket(i, k, j)
        if (i, j, k) not in outer:
            outer[i, j, k] = lie_bracket(singles[i], inner[j, k])
        return outer[i, j, k]

    # the Jacobi sum of (x, y, z) has the same three terms as the sums of its
    # two rotations, so each rotation class is summed once, at its least
    # rotation
    basis = range(len(singles))
    for i in basis:
        for j in basis:
            for k in basis:
                if (i, j, k) > (j, k, i) or (i, j, k) > (k, i, j):
                    continue
                if bracket(i, j, k) + bracket(j, k, i) + bracket(k, i, j) != zero:
                    return "jacobi"
    return ""


@_check("series", "membership accepts zeta and rejects corolla and ladder", degree=6)
def _series_membership(degree, rng):
    # the first failing tree is the two-leaf corolla, so three vertices at least
    n = max(degree, 3)
    ok, witness = spec_membership(zeta_series(n))
    if not ok:
        return f"zeta rejected at {witness.string}"
    ok, witness = spec_membership(corolla_series(n))
    if ok or witness != corolla(2):
        return "corolla witness"
    ok, witness = spec_membership(ladder_series(n))
    if ok or witness != corolla(2):
        return "ladder witness"
    return ""


@_check("series", "membership is stable under product and inverse", degree=6)
def _series_membership_stable(n, rng):
    z = zeta_series(n)
    for name, s in [("zeta", z),
                    ("inverse", series_inverse(z)),
                    ("square", series_multiply(z, z))]:
        ok, witness = spec_membership(s)
        if not ok:
            return f"{name} rejected at {witness.string}"
    return ""


@_check("series",
        "member characters are multiplicative with matching convolution", degree=5)
def _series_characters(n, rng):
    def character(a):
        return lambda t: aut_order(t) * a.coefficient(t)

    z = zeta_series(n)
    m = mobius_series(n)
    for a in (z, m):
        lam = character(a)
        for s in _trees(1, n - 1):
            for t in _trees(1, n + 1 - s.size):
                merged = RootedTree(s.children + t.children)
                if merged.size > n:
                    continue
                if lam(merged) != lam(s) * lam(t):
                    return f"not multiplicative at {s.string}*{t.string}"
    for a, b in [(z, z), (z, m)]:
        lam_a, lam_b = character(a), character(b)
        prod = series_multiply(a, b)
        for t in _trees(1, n):
            conv = sum((c * lam_a(left) * lam_b(right)
                        for (left, right), c in hopf.hnap_coproduct(t).terms.items()),
                       Fraction(0))
            if conv != aut_order(t) * prod.coefficient(t):
                return f"convolution differs at {t.string}"
    return ""


# ---------------------------------------------------------------------------
# projections suite


@_check("projections", "comm projection of zeta matches the cayley numbers", degree=8)
def _proj_cayley(n, rng):
    got = project_comm(zeta_series(n))
    want = PowerSeries([Fraction(0)] +
                       [Fraction(k ** (k - 1), factorial(k)) for k in range(1, n + 1)])
    if got != want:
        return "coefficients"
    if got != ps_comp_inverse(ps_exp_neg_x_times_x(n)):
        return "inverse of x exp(-x)"
    return ""


@_check("projections",
        "comm projections of corolla and ladder invert compositionally", degree=8)
def _proj_comm_cl(n, rng):
    pc = project_comm(corolla_series(n))
    pl = project_comm(ladder_series(n))
    if ps_compose(pc, pl) != ps_x(n) or ps_compose(pl, pc) != ps_x(n):
        return "composition"
    if ps_comp_inverse(pc) != pl:
        return "inverse"
    return ""


@_check("projections", "corolla and ladder projections invert multiplicatively", degree=8)
def _proj_mult(n, rng):
    z, m = zeta_series(n), mobius_series(n)
    c, ell = corolla_series(n), ladder_series(n)
    for name, proj in [("corolla", project_corolla), ("ladder", project_ladder)]:
        one = ps_one(n - 1)
        if ps_multiply(proj(z), proj(m)) != one:
            return f"{name} of zeta/mobius"
        if ps_multiply(proj(c), proj(ell)) != one:
            return f"{name} of corolla/ladder"
    if n >= 2:
        if project_ladder(corolla_series(n)).coeffs[:2] != (Fraction(1), Fraction(1)):
            return "ladder of corolla is not 1+x"
        if project_corolla(ladder_series(n)).coeffs[:2] != (Fraction(1), Fraction(-1)):
            return "corolla of ladder is not 1-x"
    return ""


@_check("projections", "projections are group morphisms", degree=6)
def _proj_morphisms(n, rng):
    for trial in range(3):
        a = random_group_element(rng, n)
        b = random_group_element(rng, n)
        ab = series_multiply(a, b)
        if project_corolla(ab) != ps_multiply(project_corolla(a), project_corolla(b)):
            return f"corolla, trial {trial}"
        if project_ladder(ab) != ps_multiply(project_ladder(a), project_ladder(b)):
            return f"ladder, trial {trial}"
        if project_comm(ab) != gcomm_product(project_comm(a), project_comm(b)):
            return f"comm, trial {trial}"
    return ""


@_check("projections", "projected inverses are the inverses of projections", degree=7)
def _proj_inverses(n, rng):
    z, m = zeta_series(n), mobius_series(n)
    c, ell = corolla_series(n), ladder_series(n)
    for s, s_inv in [(z, m), (c, ell)]:
        if project_corolla(s_inv) != ps_mul_inverse(project_corolla(s)):
            return "corolla"
        if project_ladder(s_inv) != ps_mul_inverse(project_ladder(s)):
            return "ladder"
        if project_comm(s_inv) != ps_comp_inverse(project_comm(s)):
            return "comm"
    return ""


@_check("projections", "gcomm product agrees with power-series composition", degree=8)
def _proj_gcomm(n, rng):
    x = ps_x(n)
    if gcomm_product(x, x) != x:
        return "unit"
    for trial in range(3):
        a = _random_comp_series(rng, n)
        b = _random_comp_series(rng, n)
        if gcomm_product(a, b) != ps_compose(a, b):
            return f"trial {trial}"
    return ""


def _random_comp_series(rng, n: int) -> PowerSeries:
    cs = [0, 1]
    for _ in range(2, n + 1):
        cs.append(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return PowerSeries(cs)


@_check("projections", "diffeomorphism subalgebra generators")
def _proj_faa(degree, rng):
    f10 = HopfElement.hnap_basis(chain(2))
    f110 = HopfElement.hnap_basis(chain(3))
    f1110 = HopfElement.hnap_basis(chain(4))
    f1200 = HopfElement.hnap_basis(parse_tree("((()()))"))
    if faa_generators(1) != f10:
        return "degree 1"
    if faa_generators(2) != f110 + Fraction(1, 2) * (f10 * f10):
        return "degree 2"
    want = (f1110 + Fraction(1, 2) * f1200 + f110 * f10
            + Fraction(1, 6) * (f10 * f10 * f10))
    if faa_generators(3) != want:
        return "degree 3"
    return ""
