"""Canonical rooted trees and forests, and the NAP composition engine on
interned tree ids.

Trees are hash-consed (Filliâtre-Conchon, "Type-safe modular hash-consing",
2006): children are kept sorted by (size, canonical string), and
constructing a tree returns the single instance of its shape from a
process-wide intern dict.  So structural equality is identity, equality
and hashing are the object defaults, and multisets deduplicate by
sorting.  As in that scheme, a tree gets its unique integer id when it is
interned.  A forest is its B+ tree, whose root carries the components as
branches (the paper's map f <-> B+(f)): it has that tree's id and
children, and its one instance is kept on that tree (:func:`forest_of`),
so the intern dict is the only one, and a forest literal is read as the
branches of that tree by the one loop that reads a tree literal.
Interned trees, with their ids, and forests live for the whole process.
Labeled trees, their enumeration and composition, and the two
set-operads built on them serve only as oracles and live in
:mod:`naphopf.oracles`.

The tree table is this module.  ``TREES[i]`` is the one instance of tree
i, and ``SIZES``, ``KIDS`` (the ids of its children in canonical child
order, the one stored copy of them) and ``AUTS`` (its automorphism order)
are what the engines read of it; each list grows by one entry per tree
built.  A tree's children are built before it, so each child id is
smaller than its parent's, and :func:`subtrees` lists a tree's subtrees
children first by sorting their ids.  :func:`node` finds a tree from its
children's ids in the one intern dict, and sorts and constructs it only
if it was never built.  Nothing is enumerated in advance.

Substituting into a tree is the B-series recursion (Butcher 1972;
Hairer-Lubich-Wanner, Geometric Numerical Integration, III.1): putting
a tree x at the root of B(t_1..t_k) and composing each branch gives
x ◁ S(t_1) ◁ ... ◁ S(t_k), so S(B(t_1..t_k)) = S(p) ◁ S(t_k) for the
prefix tree p = B(t_1..t_{k-1}), which has an id too.  :func:`substitute`
keeps one memo entry per tree read as a prefix or a last branch, its
composed classes sorted by size, and a size budget prunes every graft
whose result could not fit.  Products, inverses and the Lie bracket all
run on it.  The coefficients are ints: the series layer scales rational
ones to integers first (see :func:`naphopf.series.series_multiply`).  The
root-containing ideals of a tree, which give all three coproducts, are
tabled the same way, by id and with integer counts: see :func:`ideals`.

Id-keyed memos are dicts in this module (``GRAFTS``, ``IDEAL_ROWS``,
``ANTIPODES``); memos keyed by values are ``lru_cache``s on pure
functions, such as the spellings of :func:`parse_tree`.  :func:`clear`
empties the dicts in place, and the spelling cache with them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Container, Iterable, Iterator
from functools import lru_cache
from itertools import accumulate
from math import inf, prod
from operator import attrgetter
from types import MappingProxyType


class TreeSyntaxError(ValueError):
    """Malformed tree literal; ``offset`` is the position of the error in
    the UTF-8 bytes of the literal."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


# the canonical order of children and components: (size, string)
_key: Callable[["RootedTree"], tuple[int, str]] = attrgetter("size", "string")


class _Interned:
    """Base of the hash-consed values: each has one instance per value, so
    a copy is the instance itself (``__reduce__`` makes unpickling return
    it too)."""

    __slots__ = ()

    def __copy__(self):
        return self

    def __deepcopy__(self, memo: dict):
        return self


# every tree built in this process, by id, and what the engines read of
# tree i: its size, the ids of its children in canonical child order and
# its automorphism order
TREES: list["RootedTree"] = []
SIZES: list[int] = []
KIDS: list[tuple[int, ...]] = []
AUTS: list[int] = []
# the intern dict, the only one: the id of every tree built, by the sorted
# tuple of its child ids.  A forest is looked up here as its B+ tree
_BY_KIDS: dict[tuple[int, ...], int] = {}


class RootedTree(_Interned):
    """Unlabeled rooted tree in canonical form.

    The canonical string is ``"(" + children + ")"`` with children sorted
    ascending by (size, string).  ``RootedTree(children)`` returns the one
    instance of its shape, so two trees are equal, and the same object,
    exactly when their canonical strings are equal.  ``id`` is the next
    free int when the tree is built, so ``TREES[t.id] is t``, and
    ``children`` is read off ``KIDS[t.id]``, which the tree does not copy.
    ``forest`` is the forest of t's branches once :func:`forest_of` has
    made it.  Trees and their ids live for the whole process, and trees
    must not be mutated.
    """

    __slots__ = ("size", "string", "id", "forest")

    def __new__(cls, children: Iterable["RootedTree"] = ()) -> "RootedTree":
        key = tuple(sorted([c.id for c in children]))
        i = _BY_KIDS.get(key)
        return _new_tree(key) if i is None else TREES[i]

    def __reduce__(self):
        # parsing is not recursive, so deep trees pickle too
        return parse_tree, (self.string,)

    def __lt__(self, other: "RootedTree") -> bool:
        return _key(self) < _key(other)

    def __le__(self, other: "RootedTree") -> bool:
        return _key(self) <= _key(other)

    def __repr__(self) -> str:
        return "RootedTree(%r)" % self.string

    @property
    def children(self) -> tuple["RootedTree", ...]:
        """The children in canonical order, read off ``KIDS``."""
        return tuple([TREES[k] for k in KIDS[self.id]])

    @property
    def root_valence(self) -> int:
        return len(KIDS[self.id])

    def is_corolla(self) -> bool:
        """True iff every non-root vertex is a child of the root."""
        return len(KIDS[self.id]) == self.size - 1


def _new_tree(key: tuple[int, ...]) -> RootedTree:
    # the one place a tree is made, on a miss of the intern dict: the first
    # instance of the tree whose root has the children with the sorted ids
    # key.  Trees are built from one thread at a time
    kids = sorted([TREES[k] for k in key], key=_key)
    ids = tuple([c.id for c in kids])
    # aut is m! aut(c)^m over each run of m equal children, which are
    # adjacent: the j-th child of a run brings j aut(c)
    aut, last, m = 1, -1, 0
    for k in ids:
        m = m + 1 if k == last else 1
        last = k
        aut *= m * AUTS[k]
    t = object.__new__(RootedTree)
    t.size = 1 + sum([c.size for c in kids])
    t.string = "(%s)" % "".join([c.string for c in kids])
    t.forest = None
    t.id = _BY_KIDS[key] = len(TREES)
    TREES.append(t)
    SIZES.append(t.size)
    KIDS.append(key if key == ids else ids)
    AUTS.append(aut)
    return t


def node(kids: Iterable[int]) -> int:
    """The id of the tree whose root has the children with ids ``kids``,
    in any order; the tree is constructed only if it was never built."""
    key = tuple(sorted(kids))
    i = _BY_KIDS.get(key)
    return _new_tree(key).id if i is None else i


LEAF = RootedTree()


def chain(n: int) -> RootedTree:
    """The linear tree with n vertices."""
    if n < 1:
        raise ValueError("chain needs at least one vertex")
    t = LEAF
    for _ in range(n - 1):
        t = RootedTree((t,))
    return t


def corolla(k: int) -> RootedTree:
    """The tree whose root carries k leaf children (k+1 vertices)."""
    if k < 0:
        raise ValueError("corolla needs a nonnegative leaf count")
    return RootedTree((LEAF,) * k)


def graft_onto(s: RootedTree, t: RootedTree) -> RootedTree:
    """The NAP product s ◁ t: attach t as one more branch of the root of s."""
    return TREES[node(KIDS[s.id] + (t.id,))]


@lru_cache(maxsize=None)
def parse_tree(text: str) -> RootedTree:
    """Parse the grammar ``tree := "(" tree* ")"`` into a canonical tree.

    Leading and trailing whitespace is ignored; anything else malformed
    raises :class:`TreeSyntaxError` at the first bad byte, with its UTF-8
    byte offset.

    Every spelling of one tree returns its one instance, as every
    construction does.  The text is read once, and each vertex is looked
    up in the intern dict by the ids of its children, so a tree built
    before is neither sorted nor constructed again.  The ``lru_cache``
    keys on the exact text, whitespace included, so a spelling parsed
    before costs one lookup; it does not store exceptions, so malformed
    text raises on every call.  :func:`clear` empties it.
    """
    return TREES[_parse(text, False)]


def _parse(text: str, forest: bool) -> int:
    # the one pass over tree text: the id of the tree it spells or, with
    # forest, of the B+ tree whose root, left open, takes its trees.
    # Whitespace is allowed only outside every vertex, and the first
    # character outside the grammar raises.  The child ids of the open
    # vertices are on an explicit stack, so the depth is not bounded by the
    # recursion limit
    leaf = LEAF.id
    stack: list[list[int]] = []
    kids: list[int] = []  # of the innermost open vertex, or the top level
    for i, ch in enumerate(text):
        if ch == "(":
            stack.append(kids)
            kids = []
        elif ch == ")" and stack:
            k = node(kids) if kids else leaf
            kids = stack.pop()
            kids.append(k)
            if not (stack or forest):  # the tree is read: whitespace may follow
                rest = text[i + 1:].lstrip()
                if rest:
                    raise _syntax_error("trailing input after tree", text, len(text) - len(rest))
                return k
        elif stack or not ch.isspace():
            raise _syntax_error(f"expected '(' but found {ch!r}", text, i)
    if stack or not forest:
        raise _syntax_error("unclosed '('" if stack else "unexpected end of input, expected '('",
                            text, len(text))
    return node(kids)


def _syntax_error(message: str, text: str, i: int) -> TreeSyntaxError:
    # text[:i] is parentheses and whitespace, so it always encodes
    return TreeSyntaxError(message, len(text[:i].encode("utf-8")))


class Forest(_Interned):
    """Canonical multiset of rooted trees, sorted like tree children.

    A forest is its B+ tree, whose root carries the components as
    branches: ``id`` is that tree's id, ``components`` its children (read
    off ``KIDS`` once, when the forest is made), ``size`` its size less
    the root, and ``Forest(components)`` returns the one instance kept on
    that tree (:func:`forest_of`).  The empty forest, whose B+ tree is the
    single vertex, is the unit monomial in the Hopf-algebra modules.
    """

    __slots__ = ("components", "size", "id")

    def __new__(cls, components: Iterable[RootedTree] = ()) -> "Forest":
        return forest_of(node([t.id for t in components]))

    def __reduce__(self):
        return Forest, (self.components,)

    def __lt__(self, other: "Forest") -> bool:
        return self.sort_key() < other.sort_key()

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[RootedTree]:
        return iter(self.components)

    def __repr__(self) -> str:
        return "Forest(%r)" % (self.render(),)

    def sort_key(self) -> tuple:
        return (self.size, len(self.components), tuple(t.string for t in self.components))

    def render(self) -> str:
        """Whitespace-separated canonical tree strings (empty string if empty)."""
        return " ".join(t.string for t in self.components)

    def drop_units(self) -> "Forest":
        """The forest with single-vertex components removed."""
        return Forest(t for t in self.components if t.size > 1)


def forest_of(i: int) -> Forest:
    """The forest of the branches of tree i, made on first use and then
    kept on the tree: ``forest_of(i).id == i``."""
    t = TREES[i]
    if t.forest is None:
        f = t.forest = object.__new__(Forest)
        f.components = t.children
        f.size = t.size - 1
        f.id = i
    return t.forest


def parse_forest(text: str) -> Forest:
    """Parse tree literals, with optional whitespace between them, into a
    canonical forest: ``"()()"`` is ``"() ()"``.  The trees are read as
    the branches of the forest's B+ tree, by the loop of :func:`parse_tree`;
    malformed text raises :class:`TreeSyntaxError` at its first bad byte,
    its offset counted from the start of the forest text."""
    return forest_of(_parse(text, True))


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple[RootedTree, ...]:
    """All unlabeled rooted trees with exactly n vertices, canonically
    sorted.  Each is made once, on ids, as ``node(KIDS[p] + (t,))`` from
    its largest branch t and the prefix tree p of its other branches (the
    split of :func:`substitute`), both listed before it."""
    if n < 1:
        raise ValueError("tree size must be >= 1")
    if n == 1:
        return (LEAF,)
    made = []
    for k in range(1, n):  # the size of the largest branch
        branches = enumerate_trees(k)
        for p in enumerate_trees(n - k):
            kids = KIDS[p.id]
            # the branches no smaller than p's largest: all of them if it is
            # smaller than k vertices, none if it is larger
            start = bisect_left(branches, TREES[kids[-1]]) if kids else 0
            made.extend([node(kids + (t.id,)) for t in branches[start:]])
    return tuple(sorted([TREES[i] for i in made], key=_key))


def enumerate_forests(total: int) -> tuple[Forest, ...]:
    """All forests (multisets of trees) with the given total vertex count,
    in the order of their B+ trees: the branch forests of
    ``enumerate_trees(total + 1)``, by (size, string) of that tree."""
    if total < 0:
        raise ValueError("forest size must be >= 0")
    return tuple([forest_of(t.id) for t in enumerate_trees(total + 1)])


def aut_order(t: RootedTree) -> int:
    """Order of the automorphism group of t.

    Satisfies aut(t) = prod over distinct child classes c of
    mult(c)! * aut(c)^mult(c); it is evaluated once, when t is built, from
    its children's orders.
    """
    return AUTS[t.id]


def aut0_order(f: Forest) -> int:
    """Order of the component-permutation group, prod over classes of
    mult!: the forest's automorphism order over its components' orders."""
    return AUTS[f.id] // prod([AUTS[k] for k in KIDS[f.id]])


def forest_aut_order(f: Forest) -> int:
    """Full automorphism order of a forest, that of its B+ tree."""
    return AUTS[f.id]


# the memos keyed by tree ids, filled on first use: the graft map
# GRAFTS[i][j] = id(s ◁ t) for the ids i of s and j of t, the rows of
# ideals() by tree id, and the antipode of each id for each row source of
# naphopf.hopf, its forests keyed by the ids of their B+ trees
GRAFTS: dict[int, dict[int, int]] = {}
IDEAL_ROWS: dict[int, dict[tuple[tuple[int, ...], int], int]] = {}
ANTIPODES: dict[Callable, dict[int, dict[int, int]]] = {}
# the row of GRAFTS of a tree that has none yet, for reading
# ``GRAFTS.get(i, NO_GRAFTS).get(j)`` in one line (never filled)
NO_GRAFTS: MappingProxyType = MappingProxyType({})


def clear() -> None:
    """Empty every memo keyed by tree ids in place, and the spelling cache
    of :func:`parse_tree`; ids, like trees, stay."""
    for memo in (GRAFTS, IDEAL_ROWS, ANTIPODES):
        memo.clear()
    parse_tree.cache_clear()


def stats() -> dict[str, int]:
    """Entry counts: trees built in the process (the B+ trees of the
    forests built among them), graft-map entries, rows of the ideal
    table, per-tree antipodes and memoized spellings."""
    return {"trees": len(TREES), "grafts": sum(map(len, GRAFTS.values())),
            "ideal_rows": sum(map(len, IDEAL_ROWS.values())),
            "antipodes": sum(map(len, ANTIPODES.values())),
            "spellings": parse_tree.cache_info().currsize}


def subtrees(i: int, done: Container[int]) -> list[int]:
    """The ids of the distinct subtrees of tree i not in ``done``,
    ascending: children first, as a child is built before its parent.
    The walk does not enter a subtree in ``done``, whose own subtrees
    are taken to be done too."""
    out, todo = set(), [i]
    while todo:
        j = todo.pop()
        if j not in out and j not in done:
            out.add(j)
            todo.extend(KIDS[j])
    return sorted(out)


def graft(i: int, j: int) -> int:
    """The id of s ◁ t, where i and j are the ids of s and t."""
    row = GRAFTS.get(i)
    if row is None:
        row = GRAFTS[i] = {}
    g = row.get(j)
    if g is None:
        g = row[j] = node(KIDS[i] + (j,))
    return g


def ideals(i: int) -> dict:
    """The root-containing ideals S of tree i, as {(beta, gamma): count}.

    S writes the tree as gamma, its restriction to S, composed with one
    component beta_v at each v in S: v and its branches outside S.
    ``beta`` is the sorted tuple of the ids of the components with two
    vertices or more (the other |gamma| - len(beta) are single
    vertices); the count is the incidence structure constant f.

    Each branch k of the root either hangs whole in the root's
    component, or joins S through a row of k's own table.  The subtrees
    are filled in id order (:func:`subtrees`), so children first and
    with no recursion: the depth of a tree is not bounded by the
    recursion limit.
    """
    table = IDEAL_ROWS
    rows = table.get(i)
    if rows is not None:
        return rows
    grafts, kids_of, leaf = GRAFTS, KIDS, LEAF.id
    for j in subtrees(i, table):
        kids = kids_of[j]
        # (beta so far, the root's component so far, gamma so far)
        states: dict = {((), leaf, leaf): 1}
        for k in kids:
            below, grown = table[k], {}
            for (b, rc, g), c in states.items():
                r = grafts.get(rc, NO_GRAFTS).get(k)
                key = (b, graft(rc, k) if r is None else r, g)
                grown[key] = grown.get(key, 0) + c
                for (b2, g2), c2 in below.items():
                    r = grafts.get(g, NO_GRAFTS).get(g2)
                    key = (tuple(sorted(b + b2)) if b and b2 else b or b2,
                           rc, graft(g, g2) if r is None else r)
                    grown[key] = grown.get(key, 0) + c * c2
            states = grown
        rows = {}
        for (b, rc, g), c in states.items():
            key = (tuple(sorted(b + (rc,))) if rc != leaf else b, g)
            rows[key] = rows.get(key, 0) + c
        table[j] = rows
    return table[i]


def substitute(t: int, pool: list, budget: int, memo: dict, acc: dict,
               weight: int, low: int, high: int) -> None:
    """Every vertex of tree t substituted by a tree of ``pool``.

    Adds ``weight`` times each composed class of size ``low..high``
    (``high`` at most ``budget``) to ``acc``, weighted by the product
    of the pool coefficients.  ``pool`` is a list of
    ``(size, id, coeff)`` sorted by size.

    A tree B(k_1..k_m) is substituted as S(p) ◁ S(k_m): its prefix tree
    p = B(k_1..k_{m-1}) is read at ``budget - |k_m|`` and its last
    branch at ``budget - |p|``.  ``memo`` keeps one entry per tree (see
    :func:`_substitution`) and must only ever see one pool.  t's
    classes below ``budget`` are read from its entry, which a later read
    of t as a prefix or a branch shares, since such reads stay below
    ``budget``; its classes of size ``budget`` are grafted straight into
    ``acc`` and never stored.  With a pool of the single vertex and trees
    of one size m >= 2, the classes of size |t| + m - 1 put one tree at
    one vertex of t: the Lie bracket's one-insertion layer.
    """
    kids = KIDS[t]
    if not kids:  # the single vertex takes the pool
        for s, u, c in pool:
            if low <= s <= high:
                acc[u] = acc.get(u, 0) + weight * c
        return
    sizes, last = SIZES, kids[-1]
    p = node(kids[:-1])
    # the prefix and the branch at their full budgets first, so that t's
    # entry finds them and does not build them twice
    prefix = _substitution(p, pool, budget - sizes[last], memo)
    branch = _substitution(last, pool, budget - sizes[p], memo)
    if sizes[t] < budget and low < budget:
        _, terms, starts = _substitution(t, pool, budget - 1, memo)
        for u, c in terms[starts[low]:starts[min(high, budget - 1) + 1]]:
            acc[u] = acc.get(u, 0) + weight * c
    if high == budget:
        _graft_entries(acc, weight, prefix, branch, budget, budget)


def _substitution(t: int, pool: list, budget: int, memo: dict) -> tuple:
    # the entry of tree t in memo, built if missing or below budget:
    # (budget, terms, starts), the (class id, coeff) terms of S(t) up to
    # budget sorted by size, the first of size s at terms[starts[s]].
    # An entry stands at the largest budget asked so far, and a smaller
    # budget reads a prefix of it: which classes of size s a tree has
    # does not depend on the budget.  The single vertex holds the pool,
    # which serves every budget.
    # Requests run on an explicit stack, so the depth and width of t are
    # not bounded by the recursion limit; each carries its prefix tree
    # once looked up, for its second visit
    have = memo.get(t)
    if have is not None and have[0] >= budget:
        return have
    sizes, kids_of, missing = SIZES, KIDS, (0,)
    stack = [(t, budget, None)]
    while stack:
        s, b, p = stack[-1]
        have = memo.get(s)
        if have is not None and have[0] >= b:
            stack.pop()
            continue
        kids = kids_of[s]
        if not kids:
            stack.pop()
            memo[s] = (inf, *_entry({u: c for _, u, c in pool}, 1, pool[-1][0]))
            continue
        last = kids[-1]
        if p is None:
            p = node(kids[:-1])
        bp, bk = b - sizes[last], b - sizes[p]
        prefix, branch = memo.get(p, missing), memo.get(last, missing)
        if prefix[0] < bp or branch[0] < bk:
            stack[-1] = (s, b, p)
            if prefix[0] < bp:
                stack.append((p, bp, None))
            if branch[0] < bk:
                stack.append((last, bk, None))
            continue
        stack.pop()
        acc: dict = {}
        _graft_entries(acc, 1, prefix, branch, sizes[s], b)
        memo[s] = (b, *_entry(acc, sizes[s], b))
    return memo[t]


def _entry(acc: dict, low: int, top: int) -> tuple:
    # the nonzero terms of acc, of sizes low..top, sorted by size, and
    # where each size starts
    sizes = SIZES
    layers: list = [[] for _ in range(low, top + 1)]
    for u, c in acc.items():
        if c:
            layers[sizes[u] - low].append((u, c))
    return ([term for layer in layers for term in layer],
            [0] * (low + 1) + list(accumulate(map(len, layers))))


def _graft_entries(acc: dict, weight: int, prefix: tuple, branch: tuple,
                   low: int, high: int) -> None:
    # adds weight * cu * cy to u ◁ y for the terms (u, cu) of the prefix
    # entry and (y, cy) of the branch entry with low <= |u| + |y| <= high
    grafts, sizes = GRAFTS, SIZES
    _, ys, ks = branch
    # the first term of an entry is its tree, the smallest of its classes
    end, top, seen, row = high - sizes[ys[0][0]], len(ks) - 2, 0, ()
    for u, cu in prefix[1]:  # by size, up to the largest that fits
        su = sizes[u]
        if su != seen:  # the branch terms that fit u's size, once per size
            if su > end:
                break
            seen, lo, hi = su, low - su, high - su
            if hi > top:
                hi = top
            row = ys[ks[lo if lo > 0 else 0]:ks[hi + 1]] if lo <= hi else ()
        if not row:
            continue
        w = weight * cu
        made = grafts.get(u)
        if made is None:
            made = grafts[u] = {}
        get = made.get
        for y, cy in row:
            # a graft has two vertices or more, so its id is never 0
            g = get(y) or graft(u, y)
            acc[g] = acc.get(g, 0) + w * cy
