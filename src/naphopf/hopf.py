"""The three Hopf algebras on rooted trees and the maps between them.

* ``hnap``: the incidence Hopf algebra of tree intervals.  Monomials are
  single trees (the basis F_[t]); multiplying two basis trees merges their
  root branches.  The coproduct sums branch-forest x restriction pairs over
  the root-containing ideals of the tree.
* ``qgnap``: the function Hopf algebra of the group of tree-indexed series,
  free commutative on one generator per tree of size >= 2.  Monomials are
  forests of such trees; the generator coproduct counts the ordered ways to
  compose a representative of gamma with a rearrangement of beta.
* ``ck``: the Connes-Kreimer Hopf algebra, free commutative on all trees.
  Monomials are arbitrary forests; a tree's coproduct is t (x) 1 plus one
  pruned-forest (x) trunk term per admissible cut, and the admissible cuts
  are the ideals: a cut prunes the branches of the ideal's components.

All three coproducts and all three antipodes are read off one table, the
root-containing ideals of :func:`naphopf.trees.ideals`, which
works on interned tree ids with integer counts; the ``qgnap`` constants are
its counts under the paper's main theorem.  A forest key is the forest of
its B+ tree, ``forest_of(node(ids))``, so ``ck`` multiplies as ``hnap``
does.  Trees and forests are built only when a result is handed out.  The oracles
(ideal enumeration by :mod:`naphopf.posets`, admissible cuts over edge
subsets, the labeled composition route and the brute-force orbit counts)
live in :mod:`naphopf.oracles`.

A memo keyed by values is an ``lru_cache``; id-keyed memos, such as the
per-tree antipodes, are dicts in :mod:`naphopf.trees`; ``trees.clear()``
empties them.  The ids themselves live for the process, like the trees.

Coefficients are exact, under one rule, :func:`exact`, which the series
of :mod:`naphopf.series` follow too.  Every coproduct and antipode
coefficient is an integer count, so the engines' counts are handed out as
they are; only the 1/aut weights of ``rho`` and the caller's scalars bring
denominators.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from functools import lru_cache, partial
from math import prod
from types import MappingProxyType

from .trees import (ANTIPODES, AUTS, GRAFTS, KIDS, LEAF, NO_GRAFTS, SIZES, TREES, Forest,
                    RootedTree, aut_order, forest_of, graft, ideals, node)


def exact(c) -> int | Fraction:
    """The library's one coefficient rule: an ``int`` or a ``Fraction`` is
    returned as it is, and any other number becomes a ``Fraction``."""
    return c if type(c) is int or type(c) is Fraction else Fraction(c)


def forest_as_tree_monomial(f: Forest) -> RootedTree:
    """The basis tree equal to the product of F_[t] over the components of f.

    Multiplying basis trees merges root branches, so the product is the tree
    whose root carries every branch of every component; single-vertex
    components are units and disappear.
    """
    return TREES[node([k for c in KIDS[f.id] for k in KIDS[c]])]


class _Combination:
    """Finite rational combination of keys, tagged with its algebra; the
    vector-space operations shared by elements and tensors.  Coefficients
    follow :func:`exact`.

    Read-only once built: a cached coproduct or antipode is shared by every
    caller, so rebinding its ``terms`` would change it for all of them.
    The constructors set the slots through their descriptors
    (``_set_algebra``, ``_set_terms``), which the guard does not see."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: str, terms: dict | None = None) -> None:
        ALGEBRAS[algebra]  # an unknown tag raises ValueError
        clean = {}
        for key, c in (terms or {}).items():
            c = exact(c)
            if c:
                clean[key] = c
        _set_algebra(self, algebra)
        _set_terms(self, clean)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"a {type(self).__name__} is read-only: {name!r} cannot change")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle through the constructor, which sets the slots
        return type(self), (self.algebra, dict(self.terms))

    def _new(self, terms: dict):
        # keys and coefficients come from operands already checked
        x = object.__new__(type(self))
        _set_algebra(x, self.algebra)
        _set_terms(x, {k: c for k, c in terms.items() if c})
        return x

    @classmethod
    def _from_counts(cls, algebra: str, counts: dict):
        # a result built from the engine's int counts, cached and shared by
        # every caller: its keys are monomials by construction, so they are
        # not checked again, and its terms are read-only
        x = object.__new__(cls)
        _set_algebra(x, algebra)
        _set_terms(x, MappingProxyType({k: c for k, c in counts.items() if c}))
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

    def __rmul__(self, c):
        c = exact(c)
        return self._new({k: c * v for k, v in self.terms.items()})


# the slot setters of _Combination's constructors
_set_algebra, _set_terms = _Combination.algebra.__set__, _Combination.terms.__set__


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
        return cls.monomial(algebra, ALGEBRAS[algebra].unit)

    @classmethod
    def zero(cls, algebra: str) -> "HopfElement":
        return cls(algebra, {})

    @classmethod
    def monomial(cls, algebra: str, key, coeff=1) -> "HopfElement":
        """coeff * key, the key checked once."""
        if not ALGEBRAS[algebra].is_key(key):
            raise ValueError(f"{key!r} is not a monomial of the {algebra} algebra")
        coeff = exact(coeff)
        x = object.__new__(cls)
        _set_algebra(x, algebra)
        _set_terms(x, {key: coeff} if coeff else {})
        return x

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
        out: dict = {}
        for key, c in self.terms.items():
            for k, v in coproduct(key).terms.items():
                out[k] = out.get(k, 0) + c * v
        return TensorElement(self.algebra, out)

    def counit(self) -> Fraction | int:
        return self.terms.get(ALGEBRAS[self.algebra].unit, 0)

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

    def __init__(self, algebra: str, terms: dict | None = None) -> None:
        is_key = ALGEBRAS[algebra].is_key
        for key in terms or ():
            if not (type(key) is tuple and len(key) == 2 and is_key(key[0]) and is_key(key[1])):
                raise ValueError(f"{key!r} is not a pair of monomials of the {algebra} algebra")
        super().__init__(algebra, terms)

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


def tensor_map(te: TensorElement, left: BasisMap, right: BasisMap) -> TensorElement:
    """left (x) right applied to a tensor, key by key."""
    if left.source != te.algebra or right.source != te.algebra or left.target != right.target:
        raise ValueError(f"maps from {left.source} and {right.source} into {left.target} and "
                         f"{right.target} do not act on a {te.algebra} tensor")
    out: dict = {}
    for (a, b), c in te.terms.items():
        k = (left.key_map(a), right.key_map(b))
        out[k] = out.get(k, 0) + c * left.weight(a) * right.weight(b)
    return TensorElement(left.target, out)


# ---------------------------------------------------------------------------
# products and coproducts


@lru_cache(maxsize=None)
def hnap_coproduct(t: RootedTree) -> TensorElement:
    """Coproduct of F_[t]: sum over ideals of branch-forest (x) restriction.

    Each row (beta, gamma) of :func:`~naphopf.trees.ideals` gives
    F_[beta_1] ... F_[beta_m] (x) F_[gamma], and the product merges root
    branches: it is the first component with the other components'
    branches grafted on (the unit F_[•] when beta is all single vertices).
    """
    trees, kids, grafts, leaf = TREES, KIDS, GRAFTS, LEAF.id
    out: dict = {}
    for (b, g), c in ideals(t.id).items():
        m = b[0] if b else leaf
        for j in b[1:]:
            for k in kids[j]:
                r = grafts.get(m, NO_GRAFTS).get(k)
                m = graft(m, k) if r is None else r
        key = (trees[m], trees[g])
        out[key] = out.get(key, 0) + c
    return TensorElement._from_counts("hnap", out)


@lru_cache(maxsize=None)
def g_structure_constants(alpha: RootedTree) -> Mapping[tuple[Forest, RootedTree], int]:
    """Coproduct structure constants of the generator attached to alpha.

    The value at (beta, gamma) counts the distinct orderings of the multiset
    beta whose composition into a representative of gamma has class alpha.
    Keys carry the full multiset beta, single-vertex components included.
    The paper's main theorem gives it from the incidence constant f, the
    count of :func:`~naphopf.trees.ideals`:
    aut(alpha) aut0(beta) g = forest_aut(beta) aut(gamma) f, where
    forest_aut(beta) / aut0(beta) is the product of the automorphism orders
    of the components of beta.  The mapping is cached and read-only.
    """
    trees, sizes, leaf = TREES, SIZES, LEAF.id
    out: dict[tuple[Forest, RootedTree], int] = {}
    for b, g, c in _g_rows(alpha.id):
        out[(forest_of(node(b + (leaf,) * (sizes[g] - len(b)))), trees[g])] = c
    return MappingProxyType(out)


def _g_rows(i: int) -> list[tuple[tuple[int, ...], int, int]]:
    # (ids of the components of beta with >= 2 vertices, id of gamma, g) for
    # each row of the ideal table of tree i, weighted by the main theorem
    if SIZES[i] < 2:
        raise ValueError("generators are attached to trees of size >= 2")
    auts = AUTS
    out = []
    for (b, g), f in ideals(i).items():
        for j in b:
            f *= auts[j]
        out.append((b, g, f * auts[g] // auts[i]))
    return out


# A row source gives the coproduct of tree j as rows (ids of the left
# forest, id of the right tree or None for the unit, count).

def _ck_rows(j: int) -> Iterable[tuple[list[int], int | None, int]]:
    # t (x) 1, then pruned forest (x) trunk for every admissible cut: an
    # ideal's cut prunes the branches of its components
    kids = KIDS
    yield [j], None, 1
    for (b, g), c in ideals(j).items():
        yield [k for v in b for k in kids[v]], g, c


def _qgnap_rows(j: int) -> Iterable[tuple[tuple[int, ...], int | None, int]]:
    # beta (x) gamma with single vertices, the units, dropped
    leaf = LEAF.id
    for b, g, c in _g_rows(j):
        yield b, None if g == leaf else g, c


def _rows_coproduct(algebra: str, rows: Callable, t: RootedTree) -> TensorElement:
    # the rows of tree t as a read-only tensor of forests
    unit = Forest()
    out: dict = {}
    for a, r, c in rows(t.id):
        key = (forest_of(node(a)), unit if r is None else forest_of(node((r,))))
        out[key] = out.get(key, 0) + c
    return TensorElement._from_counts(algebra, out)


@lru_cache(maxsize=None)
def qgnap_coproduct(alpha: RootedTree) -> TensorElement:
    """Coproduct of the generator G_alpha in the function Hopf algebra:
    beta (x) gamma with single vertices, the units, dropped."""
    return _rows_coproduct("qgnap", _qgnap_rows, alpha)


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
    return _rows_coproduct("ck", _ck_rows, t)


def ck_coproduct(f: "Forest | RootedTree") -> TensorElement:
    """Connes-Kreimer coproduct of a forest (or a single tree).

    The coproduct of a single tree is the cached, read-only one.
    """
    if isinstance(f, RootedTree):
        return _ck_tree_coproduct(f)
    return _forest_coproduct("ck", _ck_tree_coproduct, f)


def b_plus(f: Forest) -> RootedTree:
    """The graft operator: the tree whose root carries the components."""
    return TREES[f.id]


# ---------------------------------------------------------------------------
# antipodes on tree ids

def _id_product(factors: Iterable[dict]) -> dict:
    # the product of combinations of forests given as sorted id tuples
    out: dict = {(): 1}
    for f in factors:
        grown: dict = {}
        for u, cu in out.items():
            for v, cv in f.items():
                k = tuple(sorted(u + v))
                grown[k] = grown.get(k, 0) + cu * cv
        out = {k: c for k, c in grown.items() if c}
    return out


def _tree_antipode(i: int, rows: Callable) -> dict:
    # S(t) = -t - sum c S(a) r over the rows a (x) r of t with neither side
    # the unit.  The trees of a are smaller than t, so they are done first,
    # on an explicit stack.
    memo = ANTIPODES.setdefault(rows, {})
    stack = [i]
    while stack:
        j = stack[-1]
        if j in memo:
            stack.pop()
            continue
        reduced = [(a, r, c) for a, r, c in rows(j) if a and r is not None]
        todo = [k for k in dict.fromkeys(k for a, _, _ in reduced for k in a) if k not in memo]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        out = {(j,): -1}
        for a, r, c in reduced:
            for u, cu in _id_product(memo[k] for k in a).items():
                k = tuple(sorted(u + (r,)))
                out[k] = out.get(k, 0) - c * cu
        memo[j] = {u: c for u, c in out.items() if c}
    return memo[i]


def _antipode(algebra: str, rows: Callable, read: Callable[[int], object], key) -> HopfElement:
    # the antipode is multiplicative: the product of the antipodes of the
    # branches of the B+ tree of key, a forest or an hnap basis tree (the ck
    # antipode of its branch forest, carried back by B+).  Each forest u of
    # the product is its B+ tree node(u), read as a forest or as that tree
    s = _id_product(_tree_antipode(k, rows) for k in KIDS[key.id])
    return HopfElement._from_counts(algebra, {read(node(u)): c for u, c in s.items()})


# ---------------------------------------------------------------------------
# the three algebras


class Algebra(namedtuple("Algebra", "unit is_key multiply coproduct antipode render "
                                    "sort_key tree_key")):
    """What sets one of the three Hopf algebras apart:

    * ``unit``: the key of 1;
    * ``is_key(k)``: whether k is a monomial key;
    * ``multiply(a, b)``: the product of two keys;
    * ``coproduct(k)``: the coproduct of one key;
    * ``antipode(k)``: the read-only antipode of one key, uncached;
    * ``render(k)``: how a key prints;
    * ``sort_key(k)``: the order keys print in;
    * ``tree_key(t)``: the monomial of one tree.
    """

    __slots__ = ()


def _merge(a, b) -> int:
    # the id of the tree whose root carries the branches of the B+ trees of
    # a and b: the product of two hnap basis trees or of two ck forests
    return node(KIDS[a.id] + KIDS[b.id])


class _AlgebraTable(dict):
    def __missing__(self, tag):
        raise ValueError(f"unknown algebra tag {tag!r}")


# Connes-Kreimer: every forest is a monomial
_CK = Algebra(
    unit=Forest(),
    is_key=lambda k: isinstance(k, Forest),
    multiply=lambda a, b: forest_of(_merge(a, b)),
    coproduct=ck_coproduct,
    antipode=partial(_antipode, "ck", _ck_rows, forest_of),
    render=lambda f: f.render() or "1",
    sort_key=Forest.sort_key,
    tree_key=lambda t: Forest((t,)))

ALGEBRAS: Mapping[str, Algebra] = _AlgebraTable(
    # the incidence algebra: basis trees F_[t], whose product merges root branches
    hnap=Algebra(
        unit=LEAF,
        is_key=lambda k: isinstance(k, RootedTree),
        multiply=lambda a, b: TREES[_merge(a, b)],
        coproduct=hnap_coproduct,
        antipode=partial(_antipode, "hnap", _ck_rows, TREES.__getitem__),
        render=lambda t: t.string,
        sort_key=lambda t: (t.size, t.string),
        tree_key=lambda t: t),
    # the function algebra: forests of the generators G_t, as CK but with
    # G_t of a single vertex t the unit
    qgnap=_CK._replace(
        is_key=lambda k: isinstance(k, Forest) and all(t.size > 1 for t in k.components),
        coproduct=partial(_forest_coproduct, "qgnap", qgnap_coproduct),
        antipode=partial(_antipode, "qgnap", _qgnap_rows, forest_of),
        tree_key=lambda t: Forest((t,)).drop_units()),
    ck=_CK,
)


# ---------------------------------------------------------------------------
# maps between the algebras


class BasisMap:
    """A linear map sending each monomial to a multiple of one monomial:
    key -> weight(key) * key_map(key), from one algebra into another.

    Calling it maps an element; :func:`tensor_map` applies two of them to
    the factors of a tensor.
    """

    __slots__ = ("source", "target", "key_map", "weight")

    def __init__(self, source: str, target: str, key_map: Callable[[object], object],
                 weight: Callable[[object], Fraction | int] = lambda key: 1) -> None:
        self.source = source
        self.target = target
        self.key_map = key_map
        self.weight = weight

    @classmethod
    def identity(cls, algebra: str) -> "BasisMap":
        return cls(algebra, algebra, lambda key: key)

    def __call__(self, x: HopfElement) -> HopfElement:
        if x.algebra != self.source:
            raise ValueError(f"the map acts on {self.source} elements, not {x.algebra}")
        key_map, weight = self.key_map, self.weight
        out: dict = {}
        for key, c in x.terms.items():
            k = key_map(key)
            out[k] = out.get(k, 0) + c * weight(key)
        return HopfElement(self.target, out)


# the linear extension of the graft operator on the Connes-Kreimer algebra
b_plus_map = BasisMap("ck", "ck", lambda f: forest_of(node((f.id,))))

# the one-cocycle on the incidence algebra: F_[t] -> F_[B(r,t)]
l_nap = BasisMap("hnap", "hnap", lambda t: RootedTree((t,)))

# the Hopf isomorphism F_[B(r,t_1..t_k)] -> forest t_1...t_k
iso_to_ck = BasisMap("hnap", "ck", lambda t: forest_of(t.id))

# the inverse isomorphism: forest t_1...t_k -> F_[B(r,t_1..t_k)]
iso_from_ck = BasisMap("ck", "hnap", b_plus)

# the surjection onto the incidence algebra: G_alpha -> F_[alpha]/#Aut(alpha),
# extended multiplicatively over forest monomials
rho = BasisMap("qgnap", "hnap", forest_as_tree_monomial,
               lambda f: Fraction(1, prod(aut_order(t) for t in f.components)))


# ---------------------------------------------------------------------------
# antipode

@lru_cache(maxsize=None)
def antipode_monomial(algebra: str, key) -> HopfElement:
    """Antipode of one monomial, cached and read-only.

    ``ck`` and ``qgnap`` take the product of the antipodes of the trees,
    each from the recursion S(t) = -t - sum S(t') t'' over the reduced
    coproduct, run on tree ids; ``hnap`` carries the ``ck`` antipode of
    the branch forest back by B+.
    """
    HopfElement.monomial(algebra, key)  # checks the key; an error is not cached
    return ALGEBRAS[algebra].antipode(key)


def antipode(x: HopfElement) -> HopfElement:
    """Linear extension of the monomial antipode; a single monomial with
    coefficient 1 (an ``int`` or a ``Fraction``) gets the cached, read-only
    monomial antipode."""
    if len(x.terms) == 1:
        (key, c), = x.terms.items()
        if c == 1:
            return antipode_monomial(x.algebra, key)
    out: dict = {}
    for key, c in x.terms.items():
        for k, v in antipode_monomial(x.algebra, key).terms.items():
            out[k] = out.get(k, 0) + c * v
    return x._new(out)


def convolution_antipode_identity(x: HopfElement) -> HopfElement:
    """m (S (x) id) Delta applied to x; equals counit(x) * unit for a Hopf algebra."""
    multiply = ALGEBRAS[x.algebra].multiply
    out: dict = {}
    for (a, b), c in x.coproduct().terms.items():
        for k, v in antipode_monomial(x.algebra, a).terms.items():
            k = multiply(k, b)
            out[k] = out.get(k, 0) + c * v
    return x._new(out)
