"""The three Hopf algebras on rooted trees and the maps between them.

* ``hnap``: the incidence Hopf algebra of tree intervals.  Monomials are
  single trees (the basis F_[t]); multiplying two basis trees merges their
  root branches.  The coproduct sums branch-forest x restriction pairs over
  the ideals of the tree; it is computed as the Connes-Kreimer coproduct of
  the branch forest, carried back by the basis isomorphism (the ideal
  enumeration of :mod:`naphopf.posets` is the oracle in ``verify``).
* ``qgnap``: the function Hopf algebra of the group of tree-indexed series,
  free commutative on one generator per tree of size >= 2.  Monomials are
  forests of such trees; the generator coproduct counts the ordered ways to
  compose a representative of gamma with a rearrangement of beta.
* ``ck``: the Connes-Kreimer Hopf algebra, free commutative on all trees.
  Monomials are arbitrary forests; the coproduct is computed by the
  inductive one-cocycle formula for the graft operator, with an independent
  admissible-cut enumeration kept as an oracle.

All coefficients are exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product as cartesian
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .posets import f_structure_constants
from .trees import (
    Forest,
    LEAF,
    LabeledTree,
    TREE_TABLE,
    RootedTree,
    aut_order,
    canonical_representative,
    enumerate_trees,
    labeled_isomorphisms,
    labeled_trees,
    nap_compose,
    set_partitions,
)

ALGEBRAS = ("hnap", "qgnap", "ck")


def unit_key(algebra: str):
    if algebra == "hnap":
        return LEAF
    return Forest()


def monomial_degree(algebra: str, key) -> int:
    if algebra == "hnap":
        return key.size - 1
    if algebra == "qgnap":
        return key.size - len(key)
    return key.size


def multiply_keys(algebra: str, a, b):
    if algebra == "hnap":
        return RootedTree(a.children + b.children)
    return Forest(a.components + b.components)


def monomial_string(algebra: str, key) -> str:
    if algebra == "hnap":
        return key.string
    return key.render() or "1"


def _monomial_sort_key(algebra: str, key):
    if algebra == "hnap":
        return (key.size, key.string)
    return key.sort_key()


def forest_as_tree_monomial(f: Forest) -> RootedTree:
    """The basis tree equal to the product of F_[t] over the components of f.

    Multiplying basis trees merges root branches, so the product is the tree
    whose root carries every branch of every component; single-vertex
    components are units and disappear.
    """
    branches: list[RootedTree] = []
    for t in f.components:
        branches.extend(t.children)
    return RootedTree(branches)


def _check_algebra(algebra: str) -> None:
    if algebra not in ALGEBRAS:
        raise ValueError(f"unknown algebra tag {algebra!r}")


class HopfElement:
    """Finite rational combination of monomials in one of the three algebras."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: str, terms: dict | None = None) -> None:
        _check_algebra(algebra)
        clean = {}
        for key, coeff in (terms or {}).items():
            c = Fraction(coeff)
            if c:
                clean[key] = c
        self.algebra = algebra
        self.terms = clean

    @classmethod
    def unit(cls, algebra: str) -> "HopfElement":
        return cls(algebra, {unit_key(algebra): Fraction(1)})

    @classmethod
    def zero(cls, algebra: str) -> "HopfElement":
        return cls(algebra, {})

    @classmethod
    def monomial(cls, algebra: str, key, coeff=1) -> "HopfElement":
        return cls(algebra, {key: Fraction(coeff)})

    @classmethod
    def hnap_basis(cls, t: RootedTree) -> "HopfElement":
        """The basis element F_[t]."""
        return cls("hnap", {t: Fraction(1)})

    @classmethod
    def qg_generator(cls, alpha: RootedTree) -> "HopfElement":
        """The generator G_alpha (the unit when alpha is a single vertex)."""
        if alpha.size == 1:
            return cls.unit("qgnap")
        return cls("qgnap", {Forest((alpha,)): Fraction(1)})

    @classmethod
    def ck_forest(cls, f: Forest) -> "HopfElement":
        return cls("ck", {f: Fraction(1)})

    @classmethod
    def ck_tree(cls, t: RootedTree) -> "HopfElement":
        return cls("ck", {Forest((t,)): Fraction(1)})

    def coefficient(self, key) -> Fraction:
        return self.terms.get(key, Fraction(0))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, HopfElement)
                and self.algebra == other.algebra
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.algebra, frozenset(self.terms.items())))

    def __add__(self, other: "HopfElement") -> "HopfElement":
        self._require_same(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return HopfElement(self.algebra, out)

    def __sub__(self, other: "HopfElement") -> "HopfElement":
        return self + (-1) * other

    def __neg__(self) -> "HopfElement":
        return (-1) * self

    def __rmul__(self, scalar) -> "HopfElement":
        c = Fraction(scalar)
        return HopfElement(self.algebra, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "HopfElement") -> "HopfElement":
        if not isinstance(other, HopfElement):
            return NotImplemented
        self._require_same(other)
        out: dict = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                k = multiply_keys(self.algebra, ka, kb)
                out[k] = out.get(k, Fraction(0)) + ca * cb
        return HopfElement(self.algebra, out)

    def _require_same(self, other: "HopfElement") -> None:
        if self.algebra != other.algebra:
            raise ValueError(f"algebra tag mismatch: {self.algebra} vs {other.algebra}")

    def coproduct(self) -> "TensorElement":
        out = TensorElement(self.algebra, {})
        for key, coeff in self.terms.items():
            out = out + coeff * coproduct_monomial(self.algebra, key)
        return out

    def counit(self) -> Fraction:
        return self.coefficient(unit_key(self.algebra))

    def antipode(self) -> "HopfElement":
        return antipode(self)

    def __repr__(self) -> str:
        if not self.terms:
            return f"HopfElement({self.algebra!r}, 0)"
        bits = []
        for key in sorted(self.terms, key=lambda k: _monomial_sort_key(self.algebra, k)):
            bits.append(f"{self.terms[key]}*{monomial_string(self.algebra, key)}")
        return f"HopfElement({self.algebra!r}, {' + '.join(bits)})"


class TensorElement:
    """Finite rational combination of monomial (x) monomial pairs."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: str, terms: dict | None = None) -> None:
        _check_algebra(algebra)
        clean = {}
        for pair, coeff in (terms or {}).items():
            c = Fraction(coeff)
            if c:
                clean[pair] = c
        self.algebra = algebra
        self.terms = clean

    @classmethod
    def single(cls, algebra: str, left, right, coeff=1) -> "TensorElement":
        return cls(algebra, {(left, right): Fraction(coeff)})

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TensorElement)
                and self.algebra == other.algebra
                and self.terms == other.terms)

    def __add__(self, other: "TensorElement") -> "TensorElement":
        if self.algebra != other.algebra:
            raise ValueError("algebra tag mismatch")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return TensorElement(self.algebra, out)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "TensorElement":
        c = Fraction(scalar)
        return TensorElement(self.algebra, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        if not isinstance(other, TensorElement):
            return NotImplemented
        if self.algebra != other.algebra:
            raise ValueError("algebra tag mismatch")
        out: dict = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (multiply_keys(self.algebra, a1, a2),
                     multiply_keys(self.algebra, b1, b2))
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return TensorElement(self.algebra, out)

    def to_json(self) -> list[dict]:
        """Sorted list of {left, right, coeff} records with p/q coefficients."""
        rows = []
        for (a, b) in sorted(self.terms,
                             key=lambda kv: (_monomial_sort_key(self.algebra, kv[0]),
                                             _monomial_sort_key(self.algebra, kv[1]))):
            rows.append({"left": monomial_string(self.algebra, a),
                         "right": monomial_string(self.algebra, b),
                         "coeff": str(self.terms[(a, b)])})
        return rows

    def __repr__(self) -> str:
        bits = [f"{c}*({monomial_string(self.algebra, a)} (x) "
                f"{monomial_string(self.algebra, b)})"
                for (a, b), c in self.terms.items()]
        return f"TensorElement({self.algebra!r}, {' + '.join(bits) or '0'})"


def _read_only(x):
    # a cached result is shared by every caller, so its terms are frozen
    x.terms = MappingProxyType(x.terms)
    return x


def tensor_map(te: TensorElement, algebra: str,
               left_map: Callable[[object], HopfElement],
               right_map: Callable[[object], HopfElement]) -> TensorElement:
    """Apply linear maps (monomial -> element) to the two tensor factors."""
    out: dict = {}
    for (a, b), c in te.terms.items():
        ea = left_map(a)
        eb = right_map(b)
        for ka, ca in ea.terms.items():
            for kb, cb in eb.terms.items():
                k = (ka, kb)
                out[k] = out.get(k, Fraction(0)) + c * ca * cb
    return TensorElement(algebra, out)


# ---------------------------------------------------------------------------
# products and coproducts


@lru_cache(maxsize=None)
def hnap_coproduct(t: RootedTree) -> TensorElement:
    """Coproduct of F_[t]: sum over ideals of branch-forest (x) restriction.

    Computed through the basis isomorphism F_[B(r,t_1..t_k)] -> t_1...t_k:
    the Connes-Kreimer coproduct of the branch forest of t, with both
    tensor factors mapped back by forest -> B+(forest).  An admissible cut
    of the branches prunes the forest hanging under an ideal and keeps the
    ideal's restriction as trunk.
    """
    return _read_only(TensorElement("hnap", {
        (b_plus(a), b_plus(b)): c
        for (a, b), c in ck_coproduct(Forest(t.children)).terms.items()}))


@lru_cache(maxsize=None)
def g_structure_constants(alpha: RootedTree) -> Mapping[tuple[Forest, RootedTree], int]:
    """Coproduct structure constants of the generator attached to alpha.

    The value at (beta, gamma) counts the distinct orderings of the multiset
    beta whose composition into a representative of gamma has class alpha.
    Keys carry the full multiset beta, single-vertex components included.
    The orderings are counted by reading the graft recursion of NAP
    composition backwards (:meth:`~naphopf.trees.TreeTable.decompose`),
    never through ideals.  The mapping is cached and read-only.
    """
    if alpha.size < 2:
        raise ValueError("generators are attached to trees of size >= 2")
    table = TREE_TABLE
    target = table.id(alpha)
    memo: dict = {}
    out: dict[tuple[Forest, RootedTree], int] = {}
    for k in range(1, alpha.size + 1):
        for gamma in enumerate_trees(k):
            for beta, c in table.decompose(table.id(gamma), target, memo).items():
                out[(Forest(table.trees[i] for i in beta), gamma)] = c
    return MappingProxyType(out)


@lru_cache(maxsize=None)
def qgnap_coproduct(alpha: RootedTree) -> TensorElement:
    """Coproduct of the generator G_alpha in the function Hopf algebra."""
    out: dict = {}
    for (beta, gamma), g in g_structure_constants(alpha).items():
        left = beta.drop_units()
        right = Forest((gamma,)) if gamma.size > 1 else Forest()
        key = (left, right)
        out[key] = out.get(key, Fraction(0)) + g
    return _read_only(TensorElement("qgnap", out))


def _qgnap_monomial_coproduct(key: Forest) -> TensorElement:
    out = TensorElement.single("qgnap", Forest(), Forest())
    for t in key.components:
        out = out * qgnap_coproduct(t)
    return out


@lru_cache(maxsize=None)
def _ck_tree_coproduct(t: RootedTree) -> TensorElement:
    # inductive one-cocycle formula: D(B+(x)) = B+(x) (x) 1 + (id (x) B+) D(x)
    branches = Forest(t.children)
    inner = ck_coproduct(branches)
    out: dict = {(Forest((t,)), Forest()): Fraction(1)}
    for (a, b), c in inner.terms.items():
        key = (a, Forest((RootedTree(b.components),)))
        out[key] = out.get(key, Fraction(0)) + c
    return _read_only(TensorElement("ck", out))


def ck_coproduct(f: "Forest | RootedTree") -> TensorElement:
    """Connes-Kreimer coproduct of a forest (or a single tree).

    The coproduct of a single tree is the cached, read-only one.
    """
    if isinstance(f, RootedTree):
        return _ck_tree_coproduct(f)
    if len(f) == 1:
        return _ck_tree_coproduct(f.components[0])
    out = TensorElement.single("ck", Forest(), Forest())
    for t in f.components:
        out = out * _ck_tree_coproduct(t)
    return out


def _admissible_cuts(rep: LabeledTree) -> Iterable[frozenset]:
    # edge subsets with at most one cut edge on any root-to-leaf path
    edges = [(p, c) for c, p in rep.parents.items()]
    ancestors: dict = {}
    for v in rep.labels:
        chain = set()
        w = v
        while w != rep.root:
            w = rep.parents[w]
            chain.add(w)
        ancestors[v] = chain
    m = len(edges)
    for mask in range(1 << m):
        cut = [edges[i] for i in range(m) if mask >> i & 1]
        ok = True
        for i, (u1, v1) in enumerate(cut):
            for (u2, v2) in cut[i + 1:]:
                if v1 == v2 or v1 in ancestors[v2] or v2 in ancestors[v1]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield frozenset(cut)


def ck_coproduct_cuts(f: "Forest | RootedTree") -> TensorElement:
    """Connes-Kreimer coproduct by direct admissible-cut enumeration.

    Independent of the inductive route; the two must agree.
    """
    if isinstance(f, RootedTree):
        f = Forest((f,))
    out = TensorElement.single("ck", Forest(), Forest())
    for t in f.components:
        rep = canonical_representative(t)
        terms: dict = {(Forest((t,)), Forest()): Fraction(1)}
        for cut in _admissible_cuts(rep):
            kept = {c: p for c, p in rep.parents.items() if (p, c) not in cut}
            pruned = [LabeledTree(v, _subtree_parents(rep, v)) for (_, v) in cut]
            root_part = _root_component(rep, kept)
            key = (Forest(p.shape() for p in pruned),
                   Forest((root_part.shape(),)))
            terms[key] = terms.get(key, Fraction(0)) + 1
        out = out * TensorElement("ck", terms)
    return out


def _subtree_parents(rep: LabeledTree, v) -> dict:
    keep = rep.subtree_labels(v)
    return {c: p for c, p in rep.parents.items() if c in keep and p in keep}


def _root_component(rep: LabeledTree, kept_parents: dict) -> LabeledTree:
    stay = {rep.root}
    changed = True
    while changed:
        changed = False
        for c, p in kept_parents.items():
            if p in stay and c not in stay:
                stay.add(c)
                changed = True
    return LabeledTree(rep.root, {c: p for c, p in kept_parents.items() if c in stay})


def b_plus(f: Forest) -> RootedTree:
    """The graft operator: a new root whose branches are the forest components."""
    return RootedTree(f.components)


def b_plus_map(x: HopfElement) -> HopfElement:
    """Linear extension of the graft operator on the Connes-Kreimer algebra."""
    if x.algebra != "ck":
        raise ValueError("b_plus_map acts on ck elements")
    out: dict = {}
    for key, c in x.terms.items():
        k = Forest((b_plus(key),))
        out[k] = out.get(k, Fraction(0)) + c
    return HopfElement("ck", out)


def l_nap(x: HopfElement) -> HopfElement:
    """The one-cocycle on the incidence algebra: F_[t] -> F_[B(r,t)]."""
    if x.algebra != "hnap":
        raise ValueError("l_nap acts on hnap elements")
    out: dict = {}
    for t, c in x.terms.items():
        k = RootedTree((t,))
        out[k] = out.get(k, Fraction(0)) + c
    return HopfElement("hnap", out)


def iso_to_ck(x: HopfElement) -> HopfElement:
    """The Hopf isomorphism F_[B(r,t_1..t_k)] -> forest t_1...t_k."""
    if x.algebra != "hnap":
        raise ValueError("iso_to_ck acts on hnap elements")
    out: dict = {}
    for t, c in x.terms.items():
        k = Forest(t.children)
        out[k] = out.get(k, Fraction(0)) + c
    return HopfElement("ck", out)


def iso_from_ck(x: HopfElement) -> HopfElement:
    """Inverse isomorphism: forest t_1...t_k -> F_[B(r,t_1..t_k)]."""
    if x.algebra != "ck":
        raise ValueError("iso_from_ck acts on ck elements")
    out: dict = {}
    for f, c in x.terms.items():
        k = RootedTree(f.components)
        out[k] = out.get(k, Fraction(0)) + c
    return HopfElement("hnap", out)


def coproduct_monomial(algebra: str, key) -> TensorElement:
    """Coproduct of a single monomial in any of the three algebras."""
    _check_algebra(algebra)
    if algebra == "hnap":
        return hnap_coproduct(key)
    if algebra == "qgnap":
        return _qgnap_monomial_coproduct(key)
    return ck_coproduct(key)


def rho(x: HopfElement) -> HopfElement:
    """The surjection onto the incidence algebra: G_alpha -> F_[alpha]/#Aut(alpha),
    extended multiplicatively over forest monomials."""
    if x.algebra != "qgnap":
        raise ValueError("rho acts on qgnap elements")
    out: dict = {}
    for forest, c in x.terms.items():
        scale = Fraction(1)
        for t in forest.components:
            scale /= aut_order(t)
        k = forest_as_tree_monomial(forest)
        out[k] = out.get(k, Fraction(0)) + c * scale
    return HopfElement("hnap", out)


# ---------------------------------------------------------------------------
# antipode

_ANTIPODE_CACHE: dict[tuple, HopfElement] = {}


def antipode_monomial(algebra: str, key) -> HopfElement:
    """Antipode of one monomial, by the graded-connected recursion
    S(x) = -x - sum S(x') x'' over the reduced coproduct."""
    cached = _ANTIPODE_CACHE.get((algebra, key))
    if cached is not None:
        return cached
    unit = unit_key(algebra)
    if monomial_degree(algebra, key) == 0:
        out = HopfElement.unit(algebra)
    else:
        acc = HopfElement.monomial(algebra, key, -1)
        for (a, b), c in coproduct_monomial(algebra, key).terms.items():
            if a == unit or b == unit:
                continue
            acc = acc - c * (antipode_monomial(algebra, a) * HopfElement.monomial(algebra, b))
        out = acc
    _ANTIPODE_CACHE[(algebra, key)] = _read_only(out)
    return out


def antipode(x: HopfElement) -> HopfElement:
    """Linear extension of the monomial antipode; a single monomial with
    coefficient 1 gets the cached, read-only monomial antipode."""
    if len(x.terms) == 1:
        (key, c), = x.terms.items()
        if c == 1:
            return antipode_monomial(x.algebra, key)
    out = HopfElement.zero(x.algebra)
    for key, c in x.terms.items():
        out = out + c * antipode_monomial(x.algebra, key)
    return out


def convolution_antipode_identity(x: HopfElement) -> HopfElement:
    """m (S (x) id) Delta applied to x; equals counit(x) * unit for a Hopf algebra."""
    out = HopfElement.zero(x.algebra)
    for (a, b), c in x.coproduct().terms.items():
        out = out + c * (antipode_monomial(x.algebra, a) * HopfElement.monomial(x.algebra, b))
    return out


# ---------------------------------------------------------------------------
# brute-force counting of the two torsor sets behind f and g


def count_Ef_Eg(alpha: RootedTree, beta: Forest, gamma: RootedTree,
                max_size: int = 6) -> tuple[int, int]:
    """Cardinalities of the two isomorphism-decorated composition sets.

    E_f ranges over partitions of {1..n} ordered by least element, labeled
    outer/inner trees composing exactly to the representative of alpha, and
    explicit isomorphisms onto representatives of gamma and of the
    components of beta.  E_g ranges over component orderings and explicit
    isomorphisms of the composite onto the representative of alpha.  Both
    are enumerated exhaustively; the two counts agree.
    """
    n = alpha.size
    k = gamma.size
    if beta.size != n:
        raise ValueError("total size of beta must equal the size of alpha")
    if len(beta) != k:
        raise ValueError("beta must have one component per vertex of gamma")
    if n > max_size:
        raise ValueError(f"ground set of size {n} exceeds max_size {max_size}")

    r_alpha = canonical_representative(alpha)
    r_gamma = canonical_representative(gamma)
    comps = list(beta.components)
    sizes = [t.size for t in comps]
    std_reps = [canonical_representative(t) for t in comps]

    # E_g: orderings tau with an explicit isomorphism of the composite onto alpha
    offsets = []
    total = 0
    for s in sizes:
        offsets.append(total)
        total += s
    block_reps = [std_reps[i].relabel({v: v + offsets[i] for v in std_reps[i].labels})
                  for i in range(len(comps))]
    eg = 0
    for tau in permutations(range(k)):
        w = nap_compose(r_gamma, {i + 1: block_reps[tau[i]] for i in range(k)})
        eg += len(labeled_isomorphisms(w, r_alpha))

    # E_f: exact compositions onto the representative of alpha
    ef = 0
    ground = list(range(1, n + 1))
    for blocks in set_partitions(ground):
        if len(blocks) != k:
            continue
        parts = sorted((sorted(b) for b in blocks), key=lambda b: b[0])
        pools = [labeled_trees(part) for part in parts]
        for u in labeled_trees(list(range(1, k + 1))):
            psi = len(labeled_isomorphisms(u, r_gamma))
            if not psi:
                continue
            for combo in cartesian(*pools):
                if nap_compose(u, {i + 1: combo[i] for i in range(k)}) != r_alpha:
                    continue
                iso = [[len(labeled_isomorphisms(combo[a], std_reps[b]))
                        for b in range(k)] for a in range(k)]
                sigma_sum = 0
                for sigma in permutations(range(k)):
                    prod = 1
                    for i in range(k):
                        prod *= iso[sigma[i]][i]
                        if not prod:
                            break
                    sigma_sum += prod
                ef += psi * sigma_sum
    return ef, eg


def f_coefficient(alpha: RootedTree, beta: Forest, gamma: RootedTree) -> int:
    """Incidence structure constant looked up by the full multiset beta."""
    return f_structure_constants(alpha).get((beta.drop_units(), gamma), 0)


def g_coefficient(alpha: RootedTree, beta: Forest, gamma: RootedTree) -> int:
    """Group-side structure constant looked up by the full multiset beta."""
    if alpha.size < 2:
        raise ValueError("generators are attached to trees of size >= 2")
    return g_structure_constants(alpha).get((beta, gamma), 0)


def admissible_triples(alpha: RootedTree) -> list[tuple[Forest, RootedTree]]:
    """All size-compatible (beta, gamma) pairs for the given alpha."""
    from .trees import enumerate_forests_with_components

    n = alpha.size
    out = []
    for k in range(1, n + 1):
        for gamma in enumerate_trees(k):
            for beta in enumerate_forests_with_components(n, k):
                out.append((beta, gamma))
    return out
