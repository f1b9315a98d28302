"""The group of tree-indexed series under operadic substitution.

A truncated series assigns a rational coefficient to every tree of size at
most N; group elements have coefficient 1 on the single vertex.  The product
substitutes the right series into every vertex of every tree of the left
one, by the graft recursion on interned tree ids.  The classical Zeta, Mobius,
corolla and ladder series live here, together with the three projections
onto one-variable power series groups.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from itertools import groupby
from math import factorial, lcm
from operator import itemgetter

from .hopf import HopfElement
from .trees import (
    LEAF,
    TREE_TABLE,
    RootedTree,
    aut_order,
    chain,
    corolla,
    enumerate_trees,
)


class TreeSeries:
    """Truncated formal series indexed by canonical rooted trees."""

    __slots__ = ("truncation", "coeffs")

    def __init__(self, truncation: int, coeffs: dict | None = None) -> None:
        if truncation < 1:
            raise ValueError("truncation must be >= 1")
        clean: dict[RootedTree, Fraction] = {}
        for t, c in (coeffs or {}).items():
            if t.size > truncation:
                continue
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                clean[t] = c
        self.truncation = truncation
        self.coeffs = clean

    def coefficient(self, t: RootedTree) -> Fraction:
        return self.coeffs.get(t, Fraction(0))

    def is_group_element(self) -> bool:
        return self.coeffs.get(LEAF) == 1

    def support(self) -> list[RootedTree]:
        return sorted(self.coeffs, key=lambda t: (t.size, t.string))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TreeSeries)
                and self.truncation == other.truncation
                and self.coeffs == other.coeffs)

    def __add__(self, other: "TreeSeries") -> "TreeSeries":
        n = min(self.truncation, other.truncation)
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            out[t] = out.get(t, Fraction(0)) + c
        return TreeSeries(n, out)

    def __sub__(self, other: "TreeSeries") -> "TreeSeries":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "TreeSeries":
        c = Fraction(scalar)
        return TreeSeries(self.truncation, {t: c * v for t, v in self.coeffs.items()})

    def truncate(self, n: int) -> "TreeSeries":
        if n > self.truncation:
            raise ValueError("cannot extend a truncated series")
        return TreeSeries(n, self.coeffs)

    def to_json(self) -> dict:
        return {
            "truncation": self.truncation,
            "coeffs": {t.string: str(c) for t, c in
                       sorted(self.coeffs.items(),
                              key=lambda kv: (kv[0].size, kv[0].string))},
        }

    @classmethod
    def from_json(cls, data: dict) -> "TreeSeries":
        """Inverse of :meth:`to_json`.  Data of another shape raises
        ValueError naming the offending field."""
        from .trees import parse_tree

        if not isinstance(data, dict):
            raise ValueError("series JSON must be an object")
        truncation, coeffs = data.get("truncation"), data.get("coeffs")
        if type(truncation) is not int:
            raise ValueError("series field 'truncation' must be an integer")
        if not (isinstance(coeffs, dict) and all(
                isinstance(k, str) and type(c) in (int, str) for k, c in coeffs.items())):
            raise ValueError("series field 'coeffs' must map tree strings to rationals")
        try:
            parsed = {parse_tree(k): Fraction(c) for k, c in coeffs.items()}
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"series field 'coeffs': {exc}") from None
        return cls(truncation, parsed)

    def __repr__(self) -> str:
        bits = [f"{c}*{t.string}" for t, c in
                sorted(self.coeffs.items(), key=lambda kv: (kv[0].size, kv[0].string))]
        return f"TreeSeries(N={self.truncation}, {' + '.join(bits) or '0'})"


def unit_series(n: int) -> TreeSeries:
    """The group unit: the single-vertex tree with coefficient 1."""
    return TreeSeries(n, {LEAF: Fraction(1)})


def _require_group(a: TreeSeries) -> None:
    if not a.is_group_element():
        raise ValueError("series is not a group element (unit coefficient must be 1)")


def _graded_scale(n: int, *series: TreeSeries) -> int:
    # a D with D**|t| * c integral for every term c*t of size <= n: a prime
    # p <= |t| enters with the least exponent that suffices (for zeta, D is
    # the product of the primes below n), the rest of a denominator whole
    need: dict = {}
    rest = 1
    for size, q in {(t.size, c.denominator) for s in series
                    for t, c in s.coeffs.items() if t.size <= n and c.denominator > 1}:
        for p in range(2, size + 1):
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            if e:
                need[p] = max(need.get(p, 0), -(-e // size))
        rest = lcm(rest, q)
    return lcm(rest, *(p ** e for p, e in need.items()))


def _scaled_pool(b: TreeSeries, n: int, scale: int) -> list:
    # b's terms of size <= n as the engine's (size, id, coeff) list, each
    # coefficient times scale**size: an int when scale is b's graded scale
    table = TREE_TABLE
    return sorted((t.size, table.id(t), c.numerator * (scale ** t.size // c.denominator))
                  for t, c in b.coeffs.items() if t.size <= n)


def _substituted(a: dict, pool: list, scale: int, n: int, memo: dict,
                 degree: int | None = None) -> dict:
    # sum of a_t S(t) over the trees t of a, where S substitutes the scaled
    # pool into every vertex, as {class id: coefficient}: the classes of
    # size ``degree`` only, or of every size up to n.  a_t is scaled by the
    # lcm D_a of a's denominators, so every term landing on a class c
    # carries D_a * scale**|c|, taken out by one division per class.  The
    # entries are read at the budgets of n whatever the degree, so every
    # degree shares them
    table = TREE_TABLE
    da = lcm(*(c.denominator for c in a.values()))
    low, high = (1, n) if degree is None else (degree, degree)
    acc: dict = {}
    # smaller trees first: a tree's entry is then mostly first asked for at
    # its largest budget, and not built again for a larger one
    for t, at in sorted(a.items(), key=lambda kv: kv[0].size):
        if t.size <= high:
            table.substitute(table.id(t), pool, n, memo, acc,
                             at.numerator * (da // at.denominator), low, high)
    sizes = table.sizes
    return {u: Fraction(c, da * scale ** sizes[u]) for u, c in acc.items() if c}


def series_multiply(a: TreeSeries, b: TreeSeries) -> TreeSeries:
    """Substitution product of two group elements.

    The coefficient of a class c collects, over every tree t in the support
    of a and every assignment of support trees of b to the vertices of t,
    the product of the coefficients whose composition lands in c.  It is
    computed by the graft recursion of :class:`~naphopf.trees.TreeTable`
    on interned tree ids, in ints: b_s is scaled by D**|s| for a D that
    clears b's denominators and a_t by the lcm D_a of a's, so every term
    landing on c carries D_a * D**|c| and each class is divided once.  The
    result is exact through the common truncation.
    """
    _require_group(a)
    _require_group(b)
    n = min(a.truncation, b.truncation)
    scale = _graded_scale(n, b)
    out = _substituted(a.coeffs, _scaled_pool(b, n, scale), scale, n, {})
    return TreeSeries(n, {TREE_TABLE.trees[u]: c for u, c in out.items()})


def series_inverse(a: TreeSeries) -> TreeSeries:
    """Two-sided inverse of a group element, solved degree by degree.

    The unknown coefficient of each size-d class enters a left product h*a
    only through the all-singleton assignment, so each degree is solved by
    one subtraction.  The degrees and the check h*a = unit share one scaled
    pool of a and one memo.  Every degree reads the entries at the budgets
    of the full truncation, so each is built once, and degree d sums only
    the classes of size d.  a*h = unit is checked by its own product.
    """
    _require_group(a)
    n = a.truncation
    table = TREE_TABLE
    scale = _graded_scale(n, a)
    pool = _scaled_pool(a, n, scale)
    memo: dict = {}
    inv = {LEAF: Fraction(1)}
    for d in range(2, n + 1):
        for u, c in _substituted(inv, pool, scale, n, memo, d).items():
            inv[table.trees[u]] = -c
    if _substituted(inv, pool, scale, n, memo) != {table.id(LEAF): 1}:
        raise ArithmeticError("left inverse failed to verify")
    del memo  # the check below is a product with its own pool and memo
    h = TreeSeries(n, inv)
    if series_multiply(a, h) != unit_series(n):
        raise ArithmeticError("inverse is not two-sided to this truncation")
    return h


def series_graft(a: TreeSeries, b: TreeSeries) -> TreeSeries:
    """Bilinear extension of the graft s ◁ t (t becomes a new root branch of s)."""
    n = min(a.truncation, b.truncation)
    out: dict[RootedTree, Fraction] = {}
    for s, ca in a.coeffs.items():
        for t, cb in b.coeffs.items():
            if s.size + t.size > n:
                continue
            g = RootedTree(s.children + (t,))
            out[g] = out.get(g, Fraction(0)) + ca * cb
    return TreeSeries(n, out)


def lie_bracket(a: TreeSeries, b: TreeSeries) -> TreeSeries:
    """[a,b] = sum over supports of a_s b_t (s∘t - t∘s), where s∘t puts t
    at one vertex of s with units elsewhere: the pre-Lie product of the
    rooted trees operad (Chapoton-Livernet, IMRN 2001).

    s∘t is the one-insertion layer of substitution.  For each size m >= 2
    of the right operand's support, one memo serves every left tree s with
    |s| + m - 1 <= N, and one :meth:`~naphopf.trees.TreeTable.substitute`
    call puts the pool of the single vertex and the size-m trees into s,
    reading only the classes of size |s| + m - 1: two insertions would need
    |s| + 2m - 2 vertices.  s∘1 = |s| s needs no engine.  In ints: with one
    D clearing both operands, the single vertex weighs D and a tree t of
    the pool b_t D**|t|, and a_s is scaled by the lcm D_ab of both
    operands' denominators, so each class c is divided once, by D_ab D**|c|.
    """
    n = min(a.truncation, b.truncation)
    table = TREE_TABLE
    scale = _graded_scale(n, a, b)
    dab = lcm(*(c.denominator for x in (a, b) for c in x.coeffs.values()))
    acc: dict = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        left = [(t.size, table.id(t), sign * c.numerator * (dab // c.denominator))
                for t, c in x.coeffs.items() if t.size <= n]
        for m, layer in groupby(_scaled_pool(y, n, scale), key=itemgetter(0)):
            pool, memo = [(1, table.id(LEAF), scale), *layer], {}
            for size, s, w in left:
                top = size + m - 1
                if m == 1:  # s∘1 = |s| s, y_1 D being the pool's second term
                    acc[s] = acc.get(s, 0) + w * size * pool[1][2] * scale ** (size - 1)
                elif top <= n:
                    table.substitute(s, pool, top, memo, acc, w, top, top)
    sizes = table.sizes
    return TreeSeries(n, {table.trees[u]: Fraction(c, dab * scale ** sizes[u])
                          for u, c in acc.items() if c})


def zeta_series(n: int) -> TreeSeries:
    """Every tree weighted by the inverse of its automorphism-group order."""
    out = {}
    for size in range(1, n + 1):
        for t in enumerate_trees(size):
            out[t] = Fraction(1, aut_order(t))
    return TreeSeries(n, out)


def mobius_series(n: int) -> TreeSeries:
    """Mobius weights: (-1)^k/k! on the corolla with k leaves, zero elsewhere."""
    out = {}
    for k in range(0, n):
        out[corolla(k)] = Fraction((-1) ** k, factorial(k))
    return TreeSeries(n, out)


def corolla_series(n: int) -> TreeSeries:
    """The sum of all corollas with coefficient 1."""
    return TreeSeries(n, {corolla(k): Fraction(1) for k in range(0, n)})


def ladder_series(n: int) -> TreeSeries:
    """The alternating sum of linear trees."""
    return TreeSeries(n, {chain(k): Fraction((-1) ** (k - 1)) for k in range(1, n + 1)})


def spec_membership(a: TreeSeries) -> tuple[bool, RootedTree | None]:
    """Whether a group element comes from a character of the incidence algebra.

    The criterion is multiplicativity over root branches: for every tree,
    #Aut(t) a_t must equal the product over branches t_i of
    #Aut(B(r,t_i)) a_{B(r,t_i)}.  Returns the first failing tree as witness.
    """
    _require_group(a)
    for size in range(1, a.truncation + 1):
        for t in enumerate_trees(size):
            lhs = aut_order(t) * a.coefficient(t)
            rhs = Fraction(1)
            for branch in t.children:
                single = RootedTree((branch,))
                rhs *= aut_order(single) * a.coefficient(single)
            if lhs != rhs:
                return False, t
    return True, None


# ---------------------------------------------------------------------------
# one-variable power series (exact, truncated)


class PowerSeries:
    """Truncated power series with exact rational coefficients c_0..c_N."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable) -> None:
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("need at least the constant coefficient")

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        return self.coeffs[n] if n < len(self.coeffs) else Fraction(0)

    def truncate(self, n: int) -> "PowerSeries":
        cs = list(self.coeffs[:n + 1])
        cs += [Fraction(0)] * (n + 1 - len(cs))
        return PowerSeries(cs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PowerSeries) and self.coeffs == other.coeffs

    def to_json(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    def __repr__(self) -> str:
        return "PowerSeries(%s)" % ", ".join(str(c) for c in self.coeffs)


def ps_one(n: int) -> PowerSeries:
    return PowerSeries([Fraction(1)] + [Fraction(0)] * n)


def ps_x(n: int) -> PowerSeries:
    cs = [Fraction(0)] * (n + 1)
    if n >= 1:
        cs[1] = Fraction(1)
    return PowerSeries(cs)


def ps_multiply(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    n = min(a.truncation, b.truncation)
    out = [Fraction(0)] * (n + 1)
    bs = b.coeffs
    for i, ai in enumerate(a.coeffs[:n + 1]):
        if ai:
            for j, bj in enumerate(bs[:n + 1 - i], i):
                if bj:
                    out[j] += ai * bj
    return PowerSeries(out)


def ps_mul_inverse(a: PowerSeries) -> PowerSeries:
    """Multiplicative inverse; needs an invertible constant term."""
    if a.coefficient(0) == 0:
        raise ValueError("constant term must be nonzero")
    n = a.truncation
    out = [Fraction(0)] * (n + 1)
    out[0] = 1 / a.coefficient(0)
    for m in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, m + 1):
            acc += a.coefficient(i) * out[m - i]
        out[m] = -acc / a.coefficient(0)
    return PowerSeries(out)


def ps_compose(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """a(b(x)); b must have zero constant term."""
    if b.coefficient(0) != 0:
        raise ValueError("inner series must have zero constant term")
    n = min(a.truncation, b.truncation)
    out = [Fraction(0)] * (n + 1)
    out[0] = a.coefficient(0)
    power, inner = ps_one(n), b.truncate(n)
    for am in a.coeffs[1:n + 1]:
        power = ps_multiply(power, inner)
        if am:
            for i, p in enumerate(power.coeffs):
                if p:
                    out[i] += am * p
    return PowerSeries(out)


def ps_comp_inverse(a: PowerSeries) -> PowerSeries:
    """Compositional inverse of x + higher order (linear term must be invertible)."""
    if a.coefficient(0) != 0:
        raise ValueError("series must have zero constant term")
    if a.coefficient(1) == 0:
        raise ValueError("linear term must be invertible")
    n = a.truncation
    inv = [Fraction(0)] * (n + 1)
    if n >= 1:
        inv[1] = 1 / a.coefficient(1)
    for m in range(2, n + 1):
        g = PowerSeries(inv[:m] + [Fraction(0)] * (n + 1 - m))
        residue = ps_compose(g, a).coefficient(m)
        inv[m] = -residue / (a.coefficient(1) ** m)
    g = PowerSeries(inv)
    if ps_compose(g, a) != ps_x(n) or ps_compose(a, g) != ps_x(n):
        raise ArithmeticError("compositional inverse failed to verify")
    return g


def ps_exp_neg_x_times_x(n: int) -> PowerSeries:
    """The truncation of x exp(-x)."""
    cs = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        cs[m] = Fraction((-1) ** (m - 1), factorial(m - 1))
    return PowerSeries(cs)


# ---------------------------------------------------------------------------
# projections to power-series groups


def project_corolla(a: TreeSeries) -> PowerSeries:
    """Corolla coefficients as a multiplicative-group series (c_0 = 1)."""
    n = a.truncation - 1
    return PowerSeries([a.coefficient(corolla(k)) for k in range(n + 1)])


def project_ladder(a: TreeSeries) -> PowerSeries:
    """Linear-tree coefficients as a multiplicative-group series (c_0 = 1)."""
    n = a.truncation - 1
    return PowerSeries([a.coefficient(chain(k + 1)) for k in range(n + 1)])


def project_comm(a: TreeSeries) -> PowerSeries:
    """Sum of same-size coefficients, as a composition-group series."""
    cs = [Fraction(0)] * (a.truncation + 1)
    for t, c in a.coeffs.items():
        cs[t.size] += c
    return PowerSeries(cs)


def gcomm_product(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Substitution product in the one-class-per-degree operad.

    Computed operadically: a degree-m term of a composes with every ordered
    tuple of degrees from b; this must agree with ps_compose(a, b)
    coefficientwise.
    """
    if a.coefficient(0) != 0 or a.coefficient(1) != 1:
        raise ValueError("composition-group element needs c0 = 0, c1 = 1")
    if b.coefficient(0) != 0 or b.coefficient(1) != 1:
        raise ValueError("composition-group element needs c0 = 0, c1 = 1")
    n = min(a.truncation, b.truncation)
    out = [Fraction(0)] * (n + 1)
    pool = [(s, s, b.coefficient(s)) for s in range(1, n + 1) if b.coefficient(s)]
    for m in range(1, n + 1):
        am = a.coefficient(m)
        if am:
            for _, d, prod in ordered_tuples(m, n, pool):
                out[d] += am * prod
    return PowerSeries(out)


def ordered_tuples(slots: int, budget: int, pool: list):
    """Every ordered ``slots``-tuple of items from ``pool``, a list of
    ``(size, item, coeff)``, whose sizes sum to at most ``budget``; yields
    ``(items, total size, product of the coefficients)``."""
    if slots == 0:
        yield (), 0, Fraction(1)
        return
    for size, item, c in pool:
        if size > budget - (slots - 1):
            continue
        for rest, total, prod in ordered_tuples(slots - 1, budget - size, pool):
            yield (item,) + rest, size + total, c * prod


def faa_generators(n: int) -> HopfElement:
    """The degree-n generator of the diffeomorphism subalgebra inside the
    incidence algebra: the sum of F_[t]/#Aut(t) over trees with n+1 vertices."""
    if n < 1:
        raise ValueError("generator index must be >= 1")
    terms = {t: Fraction(1, aut_order(t)) for t in enumerate_trees(n + 1)}
    return HopfElement("hnap", terms)


def random_group_element(rng, n: int) -> TreeSeries:
    """Seeded random group element with coefficients p/q, |p|, q <= 3."""
    out = {LEAF: Fraction(1)}
    for size in range(2, n + 1):
        for t in enumerate_trees(size):
            num = rng.randint(-3, 3)
            den = rng.randint(1, 3)
            if num:
                out[t] = Fraction(num, den)
    return TreeSeries(n, out)
