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

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import permutations, product as cartesian
from math import prod
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


class _Combination:
    """Finite rational combination of keys, tagged with its algebra; the
    vector-space operations shared by elements and tensors."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: str, terms: dict | None = None) -> None:
        ALGEBRAS[algebra]  # an unknown tag raises ValueError
        clean = {}
        for key, coeff in (terms or {}).items():
            c = Fraction(coeff)
            if c:
                clean[key] = c
        self.algebra = algebra
        self.terms = clean

    def _new(self, terms: dict):
        # keys and Fraction coefficients come from operands already checked
        x = object.__new__(type(self))
        x.algebra = self.algebra
        x.terms = {k: c for k, c in terms.items() if c}
        return x

    def _require_same(self, other: "_Combination") -> None:
        if self.algebra != other.algebra:
            raise ValueError(f"algebra tag mismatch: {self.algebra} vs {other.algebra}")

    def __eq__(self, other: object) -> bool:
        return (type(other) is type(self)
                and self.algebra == other.algebra
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.algebra, frozenset(self.terms.items())))

    def _combine(self, other, sign: int):
        if type(other) is not type(self):
            return NotImplemented
        self._require_same(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + sign * c
        return self._new(out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        c = Fraction(scalar)
        return self._new({k: c * v for k, v in self.terms.items()})


class HopfElement(_Combination):
    """Finite rational combination of monomials in one of the three algebras."""

    __slots__ = ()

    def __init__(self, algebra: str, terms: dict | None = None) -> None:
        is_key = ALGEBRAS[algebra].is_key
        for key in terms or ():
            if not is_key(key):
                raise ValueError(f"{key!r} is not a monomial of the {algebra} algebra")
        super().__init__(algebra, terms)

    @classmethod
    def unit(cls, algebra: str) -> "HopfElement":
        return cls(algebra, {ALGEBRAS[algebra].unit: 1})

    @classmethod
    def zero(cls, algebra: str) -> "HopfElement":
        return cls(algebra, {})

    @classmethod
    def monomial(cls, algebra: str, key, coeff=1) -> "HopfElement":
        return cls(algebra, {key: coeff})

    @classmethod
    def hnap_basis(cls, t: RootedTree) -> "HopfElement":
        """The basis element F_[t]."""
        return cls.monomial("hnap", t)

    @classmethod
    def qg_generator(cls, alpha: RootedTree) -> "HopfElement":
        """The generator G_alpha (the unit when alpha is a single vertex)."""
        return cls.monomial("qgnap", ALGEBRAS["qgnap"].tree_key(alpha))

    @classmethod
    def ck_forest(cls, f: Forest) -> "HopfElement":
        return cls.monomial("ck", f)

    @classmethod
    def ck_tree(cls, t: RootedTree) -> "HopfElement":
        return cls.monomial("ck", Forest((t,)))

    def __mul__(self, other: "HopfElement") -> "HopfElement":
        if type(other) is not HopfElement:
            return NotImplemented
        self._require_same(other)
        multiply = ALGEBRAS[self.algebra].multiply
        out: dict = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                k = multiply(ka, kb)
                out[k] = out.get(k, 0) + ca * cb
        return self._new(out)

    def coproduct(self) -> "TensorElement":
        coproduct = ALGEBRAS[self.algebra].coproduct
        out = TensorElement(self.algebra, {})
        for key, coeff in self.terms.items():
            out = out + coeff * coproduct(key)
        return out

    def counit(self) -> Fraction:
        return self.terms.get(ALGEBRAS[self.algebra].unit, Fraction(0))

    def antipode(self) -> "HopfElement":
        return antipode(self)

    def __repr__(self) -> str:
        alg = ALGEBRAS[self.algebra]
        bits = [f"{self.terms[key]}*{alg.render(key)}"
                for key in sorted(self.terms, key=alg.sort_key)]
        return f"HopfElement({self.algebra!r}, {' + '.join(bits) or '0'})"


class TensorElement(_Combination):
    """Finite rational combination of monomial (x) monomial pairs."""

    __slots__ = ()

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        if type(other) is not TensorElement:
            return NotImplemented
        self._require_same(other)
        multiply = ALGEBRAS[self.algebra].multiply
        out: dict = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (multiply(a1, a2), multiply(b1, b2))
                out[k] = out.get(k, 0) + c1 * c2
        return self._new(out)

    def to_json(self) -> list[dict]:
        """Sorted list of {left, right, coeff} records with p/q coefficients."""
        alg = ALGEBRAS[self.algebra]
        return [{"left": alg.render(a), "right": alg.render(b),
                 "coeff": str(self.terms[(a, b)])}
                for (a, b) in sorted(self.terms, key=lambda kv: (alg.sort_key(kv[0]),
                                                                 alg.sort_key(kv[1])))]

    def __repr__(self) -> str:
        render = ALGEBRAS[self.algebra].render
        bits = [f"{c}*({render(a)} (x) {render(b)})" for (a, b), c in self.terms.items()]
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
        key = (beta.drop_units(), Forest((gamma,)).drop_units())
        out[key] = out.get(key, Fraction(0)) + g
    return _read_only(TensorElement("qgnap", out))


def _forest_coproduct(algebra: str, tree_coproduct: Callable[[RootedTree], TensorElement],
                      f: Forest) -> TensorElement:
    # coproducts are algebra morphisms: multiply the trees' coproducts from
    # 1 (x) 1; a single tree's coproduct is handed out as it is, cached or not
    if len(f) == 1:
        return tree_coproduct(f.components[0])
    out = TensorElement(algebra, {(Forest(), Forest()): 1})
    for t in f.components:
        out = out * tree_coproduct(t)
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
    return _forest_coproduct("ck", _ck_tree_coproduct, f)


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
    out = TensorElement("ck", {(Forest(), Forest()): 1})
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


# ---------------------------------------------------------------------------
# the three algebras


@dataclass(frozen=True)
class Algebra:
    """What sets one of the three Hopf algebras apart."""

    unit: object                                  # the key of 1
    is_key: Callable[[object], bool]              # tells the monomial keys
    degree: Callable[[object], int]               # the grading
    multiply: Callable[[object, object], object]  # the product of two keys
    coproduct: Callable[[object], TensorElement]  # the coproduct of one key
    render: Callable[[object], str]               # how a key prints
    sort_key: Callable[[object], tuple]           # the order keys print in
    tree_key: Callable[[RootedTree], object]      # the monomial of one tree


class _AlgebraTable(dict):
    def __missing__(self, tag):
        raise ValueError(f"unknown algebra tag {tag!r}")


# Connes-Kreimer: every forest is a monomial
_CK = Algebra(
    unit=Forest(),
    is_key=lambda k: isinstance(k, Forest),
    degree=lambda f: f.size,
    multiply=lambda a, b: Forest(a.components + b.components),
    coproduct=ck_coproduct,
    render=lambda f: f.render() or "1",
    sort_key=Forest.sort_key,
    tree_key=lambda t: Forest((t,)))

ALGEBRAS: Mapping[str, Algebra] = _AlgebraTable(
    # the incidence algebra: basis trees F_[t], whose product merges root branches
    hnap=Algebra(
        unit=LEAF,
        is_key=lambda k: isinstance(k, RootedTree),
        degree=lambda t: t.size - 1,
        multiply=lambda a, b: RootedTree(a.children + b.children),
        coproduct=hnap_coproduct,
        render=lambda t: t.string,
        sort_key=lambda t: (t.size, t.string),
        tree_key=lambda t: t),
    # the function algebra: forests of the generators G_t, as CK but with
    # G_t of a single vertex t the unit
    qgnap=replace(
        _CK,
        is_key=lambda k: isinstance(k, Forest) and all(t.size > 1 for t in k.components),
        degree=lambda f: f.size - len(f),
        coproduct=partial(_forest_coproduct, "qgnap", qgnap_coproduct),
        tree_key=lambda t: Forest((t,)).drop_units()),
    ck=_CK,
)


# ---------------------------------------------------------------------------
# maps between the algebras


def _basis_map(x: HopfElement, source: str, target: str,
               key_map: Callable[[object], object],
               weight: Callable[[object], Fraction] | None = None) -> HopfElement:
    # the linear extension of key -> weight(key) * key_map(key)
    if x.algebra != source:
        raise ValueError(f"the map acts on {source} elements, not {x.algebra}")
    out: dict = {}
    for key, c in x.terms.items():
        k = key_map(key)
        out[k] = out.get(k, 0) + (c if weight is None else c * weight(key))
    return HopfElement(target, out)


def b_plus_map(x: HopfElement) -> HopfElement:
    """Linear extension of the graft operator on the Connes-Kreimer algebra."""
    return _basis_map(x, "ck", "ck", lambda f: Forest((b_plus(f),)))


def l_nap(x: HopfElement) -> HopfElement:
    """The one-cocycle on the incidence algebra: F_[t] -> F_[B(r,t)]."""
    return _basis_map(x, "hnap", "hnap", lambda t: RootedTree((t,)))


def iso_to_ck(x: HopfElement) -> HopfElement:
    """The Hopf isomorphism F_[B(r,t_1..t_k)] -> forest t_1...t_k."""
    return _basis_map(x, "hnap", "ck", lambda t: Forest(t.children))


def iso_from_ck(x: HopfElement) -> HopfElement:
    """Inverse isomorphism: forest t_1...t_k -> F_[B(r,t_1..t_k)]."""
    return _basis_map(x, "ck", "hnap", b_plus)


def rho(x: HopfElement) -> HopfElement:
    """The surjection onto the incidence algebra: G_alpha -> F_[alpha]/#Aut(alpha),
    extended multiplicatively over forest monomials."""
    return _basis_map(x, "qgnap", "hnap", forest_as_tree_monomial,
                      lambda f: Fraction(1, prod(aut_order(t) for t in f.components)))


# ---------------------------------------------------------------------------
# antipode

_ANTIPODE_CACHE: dict[tuple, HopfElement] = {}


def antipode_monomial(algebra: str, key) -> HopfElement:
    """Antipode of one monomial, by the graded-connected recursion
    S(x) = -x - sum S(x') x'' over the reduced coproduct."""
    cached = _ANTIPODE_CACHE.get((algebra, key))
    if cached is not None:
        return cached
    alg = ALGEBRAS[algebra]
    x = HopfElement.monomial(algebra, key)  # checks the key
    if alg.degree(key) == 0:
        out = x
    else:
        out = -x
        for (a, b), c in alg.coproduct(key).terms.items():
            if a == alg.unit or b == alg.unit:
                continue
            out = out - c * (antipode_monomial(algebra, a) * HopfElement.monomial(algebra, b))
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
