"""Canonical rooted trees and forests, and the NAP composition engine on
interned tree ids.

Trees and forests are hash-consed (Filliâtre-Conchon, "Type-safe modular
hash-consing", 2006): children and components are kept sorted by (size,
canonical string), and constructing one returns the single instance of its
shape from a process-wide intern dict.  So structural equality is identity,
equality and hashing are the object defaults, and multisets deduplicate by
sorting.  Interned trees and forests live for the whole process.  Labeled
trees, their enumeration and composition, and the two set-operads built on
them serve only as oracles and live in :mod:`naphopf.oracles`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache
from itertools import groupby
from math import factorial, inf
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


# every tree built in this process, by its sorted child tuple
_TREES: dict[tuple["RootedTree", ...], "RootedTree"] = {}


class RootedTree(_Interned):
    """Unlabeled rooted tree in canonical form.

    The canonical string is ``"(" + children + ")"`` with children sorted
    ascending by (size, string).  ``RootedTree(children)`` returns the one
    instance of its shape, so two trees are equal, and the same object,
    exactly when their canonical strings are equal.  Trees live for the
    whole process and must not be mutated.
    """

    __slots__ = ("children", "size", "string")

    def __new__(cls, children: Iterable["RootedTree"] = ()) -> "RootedTree":
        kids = tuple(sorted(children, key=_key))
        t = _TREES.get(kids)
        return _new_tree(kids) if t is None else t

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
    def root_valence(self) -> int:
        return len(self.children)

    def is_corolla(self) -> bool:
        """True iff every non-root vertex is a child of the root."""
        return len(self.children) == self.size - 1


def _new_tree(kids: tuple[RootedTree, ...]) -> RootedTree:
    # the miss branch of RootedTree(): the first instance of the tree with
    # these sorted children (setdefault keeps one even if two threads race)
    t = object.__new__(RootedTree)
    t.children = kids
    t.size = 1 + sum(c.size for c in kids)
    t.string = "(%s)" % "".join(c.string for c in kids)
    return _TREES.setdefault(kids, t)


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
    return RootedTree(s.children + (t,))


def parse_tree(text: str) -> RootedTree:
    """Parse the grammar ``tree := "(" tree* ")"`` into a canonical tree.

    Leading and trailing whitespace is ignored; anything else malformed
    raises :class:`TreeSyntaxError` with the offending byte offset.

    Every spelling of one tree returns its one instance, as every
    construction does.  Each vertex is looked up in :data:`TREE_TABLE` by
    the ids of its children (:meth:`TreeTable.node`), so a tree the table
    holds is neither sorted nor constructed again.  The exact text of each
    successful parse is memoized in ``TREE_TABLE.by_text``, so a spelling
    seen before costs one dict lookup; malformed text is never stored and
    raises on every call.
    """
    table = TREE_TABLE
    i = table.by_text.get(text)
    if i is None:
        i = table.by_text[text] = _parse_id(table, text)
    return table.trees[i]


def _parse_id(table: "TreeTable", text: str) -> int:
    # the id of the tree spelled by text, interned in table
    s = text.strip()
    # a literal made of parentheses only, as many '(' as ')'; anything else
    # goes to the validating loop of _raise_syntax_error, which reports the error
    if s[:1] == "(" and s[-1:] == ")" and 2 * s.count("(") == len(s) == 2 * s.count(")"):
        hit, node = table.by_kids.get, table.node
        leaf = hit(())
        # the child ids collected so far at each open vertex below the root,
        # on an explicit stack: the depth is not bounded by the recursion limit
        stack: list[list[int]] = []
        kids: list[int] = []
        for ch in s[1:-1].replace("()", "."):  # "." is a leaf
            if ch == ".":
                kids.append(leaf)
            elif ch == "(":
                stack.append(kids)
                kids = []
            elif stack:
                key = tuple(sorted(kids))
                i = hit(key)
                kids = stack.pop()
                kids.append(node(key) if i is None else i)
            else:  # the root closed before the end
                break
        else:
            return node(kids)
    _raise_syntax_error(text)


def _raise_syntax_error(text: str):
    # the validating parse of a malformed literal: raises at the first error
    # and never returns
    def fail(message: str, i: int):
        # text[:i] is parentheses and whitespace, so it always encodes
        raise TreeSyntaxError(message, len(text[:i].encode("utf-8")))

    n = len(text)
    i = 0
    while i < n and text[i].isspace():
        i += 1
    depth = 0  # of open vertices: a counter, not a recursion
    while True:
        if i >= n:
            fail("unclosed '('" if depth else "unexpected end of input, expected '('", i)
        ch = text[i]
        i += 1
        if ch == "(":
            depth += 1
        elif ch == ")" and depth:
            depth -= 1
            if not depth:
                break
        else:
            fail(f"expected '(' but found {ch!r}", i - 1)
    while i < n and text[i].isspace():
        i += 1
    if i != n:
        fail("trailing input after tree", i)
    raise AssertionError(f"{text!r} is well formed")


# every forest built in this process, by its sorted component tuple
_FORESTS: dict[tuple[RootedTree, ...], "Forest"] = {}


class Forest(_Interned):
    """Canonical multiset of rooted trees, sorted like tree children.

    Hash-consed like :class:`RootedTree`: ``Forest(components)`` returns the
    one instance of its multiset, so equal forests are the same object.  The
    empty forest is allowed; it is the unit monomial in the Hopf-algebra
    modules.
    """

    __slots__ = ("components", "size")

    def __new__(cls, components: Iterable[RootedTree] = ()) -> "Forest":
        comps = tuple(sorted(components, key=_key))
        f = _FORESTS.get(comps)
        if f is None:
            f = object.__new__(Forest)
            f.components = comps
            f.size = sum(t.size for t in comps)
            f = _FORESTS.setdefault(comps, f)
        return f

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


def parse_forest(text: str) -> Forest:
    """Parse whitespace-separated tree literals into a canonical forest."""
    return Forest(parse_tree(tok) for tok in text.split())


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple[RootedTree, ...]:
    """All unlabeled rooted trees with exactly n vertices, canonically sorted."""
    if n < 1:
        raise ValueError("tree size must be >= 1")
    if n == 1:
        return (LEAF,)
    return tuple(sorted((RootedTree(f) for f in _forest_tuples(n - 1, None)),
                        key=_key))


@lru_cache(maxsize=None)
def _forest_tuples(total: int,
                   bound: tuple[int, str] | None) -> tuple[tuple[RootedTree, ...], ...]:
    # Multisets of trees with the given total size, listed with components in
    # non-increasing (size, string) order; every component key <= bound.
    if total == 0:
        return ((),)
    out = []
    top = total if bound is None else min(total, bound[0])
    for s in range(top, 0, -1):
        for t in reversed(enumerate_trees(s)):
            k = _key(t)
            if bound is not None and k > bound:
                continue
            for rest in _forest_tuples(total - s, k):
                out.append((t,) + rest)
    return tuple(out)


def enumerate_forests(total: int) -> tuple[Forest, ...]:
    """All forests (multisets of trees) with the given total vertex count."""
    if total < 0:
        raise ValueError("forest size must be >= 0")
    return tuple(Forest(f) for f in _forest_tuples(total, None))


def enumerate_forests_with_components(total: int, k: int) -> tuple[Forest, ...]:
    """All forests with exactly k components and the given total size."""
    return tuple(f for f in enumerate_forests(total) if len(f) == k)


@lru_cache(maxsize=None)
def aut_order(t: RootedTree) -> int:
    """Order of the automorphism group of t.

    Satisfies aut(t) = prod over distinct child classes c of
    mult(c)! * aut(c)^mult(c); :class:`TreeTable` evaluates it children
    first when it interns t, without recursion.
    """
    return TREE_TABLE.auts[TREE_TABLE.id(t)]


def aut0_order(f: Forest) -> int:
    """Order of the component-permutation group: prod over classes of mult!."""
    out = 1
    for mult in Counter(f.components).values():
        out *= factorial(mult)
    return out


def forest_aut_order(f: Forest) -> int:
    """Full automorphism order of a forest: aut0 times the component auts."""
    out = aut0_order(f)
    for t in f.components:
        out *= aut_order(t)
    return out


# the row of TreeTable.grafts of a tree that has none yet, for reading
# ``grafts.get(i, NO_GRAFTS).get(j)`` in one line (never filled)
NO_GRAFTS: MappingProxyType = MappingProxyType({})


class TreeTable:
    """Interned integer ids of rooted trees, and the NAP composition engine.

    A tree gets the next free id the first time it is seen, its children
    first, and the table keeps for every id its size, the ids of its
    children in canonical child order (``kids``) and its automorphism
    order.  ``trees[i]`` is the one instance of tree i (trees are
    hash-consed process-wide, see :class:`RootedTree`), and ``ids`` maps it
    back to i by identity.  ``by_kids`` maps the sorted tuple of a tree's
    child ids to its id, so :meth:`node` finds a tree the table holds from
    its children's ids without sorting or constructing it.  Every id is
    made by :meth:`_add`, whether it comes from :meth:`id`, :meth:`node` or
    :meth:`graft`.  The graft map ``grafts[i][j] = id(s ◁ t)`` is filled on
    first use.  Nothing is enumerated in advance, so the table holds only
    the trees that some computation reached; :meth:`stats` counts them.
    The ids belong to the table: a fresh table numbers the same instances
    anew, in the order it meets them.

    ``by_text`` memoizes :func:`parse_tree`: it maps the exact text of each
    successful parse, whitespace included, to the tree's id, so it grows by
    one entry per distinct well-formed spelling parsed.

    Substituting into a tree is the B-series recursion (Butcher 1972;
    Hairer-Lubich-Wanner, Geometric Numerical Integration, III.1): putting
    a tree x at the root of B(t_1..t_k) and composing each branch gives
    x ◁ S(t_1) ◁ ... ◁ S(t_k), so S(B(t_1..t_k)) = S(p) ◁ S(t_k) for the
    prefix tree p = B(t_1..t_{k-1}), which is a tree of the table too.
    :meth:`substitute` keeps one memo entry per tree read as a prefix or a
    last branch, its composed classes sorted by size, and a size budget
    prunes every graft whose result could not fit.  The coefficients are
    ints: the series layer scales rational ones to integers first (see
    :func:`naphopf.series.series_multiply`).

    The root-containing ideals of a tree, which give all three coproducts,
    are tabled the same way, by id and with integer counts: see
    :meth:`ideals`; ``antipodes`` holds the antipode of each id for each
    row source of :mod:`naphopf.hopf`.  Every memo keyed by tree ids is a
    field of the table, so a fresh table starts with all of them empty;
    memos keyed by values are ``lru_cache``s on pure functions.
    """

    __slots__ = ("trees", "sizes", "kids", "auts", "ids", "by_kids", "by_text",
                 "grafts", "ideal_table", "antipodes")

    def __init__(self) -> None:
        self.trees: list[RootedTree] = []
        self.sizes: list[int] = []
        self.kids: list[list[int]] = []
        self.auts: list[int] = []
        self.ids: dict[RootedTree, int] = {}
        self.by_kids: dict[tuple[int, ...], int] = {}
        self.by_text: dict[str, int] = {}
        self.grafts: dict[int, dict[int, int]] = {}
        self.ideal_table: dict[int, dict[tuple[tuple[int, ...], int], int]] = {}
        self.antipodes: dict[Callable, dict[int, dict[tuple[int, ...], int]]] = {}
        self.id(LEAF)  # id 0: the parser reads every "()" as this id

    def __len__(self) -> int:
        return len(self.trees)

    def stats(self) -> dict[str, int]:
        """Entry counts: trees with an id, graft-map entries, rows of the
        ideal table, child-id keys, tree instances built in the process
        (held by any table or none), per-tree antipodes and memoized
        spellings."""
        return {"trees": len(self.trees), "grafts": sum(map(len, self.grafts.values())),
                "ideal_rows": sum(map(len, self.ideal_table.values())),
                "child_keys": len(self.by_kids), "interned": len(_TREES),
                "antipodes": sum(map(len, self.antipodes.values())),
                "spellings": len(self.by_text)}

    def _add(self, t: RootedTree, key: tuple[int, ...]) -> int:
        # the one place a new id is made; t's children have ids and
        # ``key`` is the sorted tuple of their ids
        ids, auts = self.ids, self.auts
        kids = [ids[c] for c in t.children]
        aut = 1
        for k, run in groupby(kids):  # equal children are adjacent
            m = len(list(run))
            aut *= factorial(m) * auts[k] ** m
        i = ids[t] = self.by_kids[key] = len(self.trees)
        self.trees.append(t)
        self.sizes.append(t.size)
        self.kids.append(kids)
        auts.append(aut)
        return i

    def id(self, t: RootedTree) -> int:
        """The id of t, assigned on first sight.

        Children get their ids first, on an explicit stack, so the depth
        of t is not bounded by the recursion limit.
        """
        ids = self.ids
        i = ids.get(t)
        if i is not None:
            return i
        stack = [t]
        while stack:
            s = stack[-1]
            kids = [ids.get(c) for c in s.children]
            if None in kids:
                stack.extend(c for c in s.children if c not in ids)
                continue
            stack.pop()
            if s not in ids:
                self._add(s, tuple(sorted(kids)))
        return ids[t]

    def node(self, kids: Iterable[int]) -> int:
        """The id of the tree whose root has the children with ids ``kids``,
        in any order; the tree is constructed only if the table lacks it."""
        key = tuple(sorted(kids))
        i = self.by_kids.get(key)
        if i is None:
            trees = self.trees
            i = self._add(RootedTree([trees[k] for k in key]), key)
        return i

    def graft(self, i: int, j: int) -> int:
        """The id of s ◁ t, where i and j are the ids of s and t."""
        row = self.grafts.get(i)
        if row is None:
            row = self.grafts[i] = {}
        g = row.get(j)
        if g is None:
            g = row[j] = self.node(self.kids[i] + [j])
        return g

    def ideals(self, i: int) -> dict:
        """The root-containing ideals S of tree i, as {(beta, gamma): count}.

        S writes the tree as gamma, its restriction to S, composed with one
        component beta_v at each v in S: v and its branches outside S.
        ``beta`` is the sorted tuple of the ids of the components with two
        vertices or more (the other |gamma| - len(beta) are single
        vertices); the count is the incidence structure constant f.

        Each branch k of the root either hangs whole in the root's
        component, or joins S through a row of k's own table.  Trees are
        filled children first on an explicit stack, so the depth of a tree
        is not bounded by the recursion limit.
        """
        table = self.ideal_table
        rows = table.get(i)
        if rows is not None:
            return rows
        grafts, graft, kids_of, leaf = self.grafts, self.graft, self.kids, self.id(LEAF)
        stack = [i]
        while stack:
            j = stack[-1]
            if j in table:
                stack.pop()
                continue
            kids = kids_of[j]
            todo = [k for k in kids if k not in table]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
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

    def _sorted(self, acc: dict) -> list:
        sizes = self.sizes
        return sorted((sizes[u], u, c) for u, c in acc.items() if c)

    def substitute(self, t: int, pool: list, budget: int, memo: dict, acc: dict,
                   weight: int, low: int, high: int) -> None:
        """Every vertex of tree t substituted by a tree of ``pool``.

        Adds ``weight`` times each composed class of size ``low..high``
        (``high`` at most ``budget``) to ``acc``, weighted by the product
        of the pool coefficients.  ``pool`` is a list of
        ``(size, id, coeff)`` sorted by size.

        A tree B(k_1..k_m) is substituted as S(p) ◁ S(k_m): its prefix tree
        p = B(k_1..k_{m-1}) is read at ``budget - |k_m|`` and its last
        branch at ``budget - |p|``.  ``memo`` keeps one entry per tree (see
        :meth:`_substitution`) and must only ever see one pool.  t's
        classes below ``budget`` are read from its entry, which a later read
        of t as a prefix or a branch shares, since such reads stay below
        ``budget``; its classes of size ``budget`` are grafted straight into
        ``acc`` and never stored.
        """
        kids = self.kids[t]
        if not kids:  # the single vertex takes the pool
            for s, u, c in pool:
                if low <= s <= high:
                    acc[u] = acc.get(u, 0) + weight * c
            return
        sizes, last = self.sizes, kids[-1]
        p = self.node(kids[:-1])
        # the prefix and the branch at their full budgets first, so that t's
        # entry finds them and does not build them twice
        prefix = self._substitution(p, pool, budget - sizes[last], memo)
        branch = self._substitution(last, pool, budget - sizes[p], memo)
        if sizes[t] < budget and low < budget:
            _, terms, starts = self._substitution(t, pool, budget - 1, memo)
            for u, c in terms[starts[low]:starts[min(high, budget - 1) + 1]]:
                acc[u] = acc.get(u, 0) + weight * c
        if high == budget:
            self._graft_entries(acc, weight, prefix, branch, budget, budget)

    def _substitution(self, t: int, pool: list, budget: int, memo: dict) -> tuple:
        # the entry of tree t in memo, built if missing or below budget:
        # (budget, terms, starts), the (class id, coeff) terms of S(t) up to
        # budget sorted by size, the first of size s at terms[starts[s]].
        # An entry stands at the largest budget asked so far, and a smaller
        # budget reads a prefix of it: which classes of size s a tree has
        # does not depend on the budget.  The single vertex holds the pool,
        # which serves every budget.
        # Requests run on an explicit stack, so the depth and width of t are
        # not bounded by the recursion limit
        have = memo.get(t)
        if have is not None and have[0] >= budget:
            return have
        sizes, kids_of, node = self.sizes, self.kids, self.node
        stack = [(t, budget)]
        while stack:
            s, b = stack[-1]
            have = memo.get(s)
            if have is not None and have[0] >= b:
                stack.pop()
                continue
            kids = kids_of[s]
            if not kids:
                stack.pop()
                memo[s] = (inf, *self._entry({u: c for _, u, c in pool}, pool[-1][0]))
                continue
            last = kids[-1]
            p = node(kids[:-1])
            bp, bk = b - sizes[last], b - sizes[p]
            todo = [(j, bj) for j, bj in ((p, bp), (last, bk))
                    if memo.get(j, (0,))[0] < bj]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            acc: dict = {}
            self._graft_entries(acc, 1, memo[p], memo[last], sizes[s], b)
            memo[s] = (b, *self._entry(acc, b))
        return memo[t]

    def _entry(self, acc: dict, top: int) -> tuple:
        # the nonzero terms of acc, of sizes up to top, sorted by size, and
        # where each size starts
        sizes = self.sizes
        layers: list = [[] for _ in range(top + 1)]
        for u, c in acc.items():
            if c:
                layers[sizes[u]].append((u, c))
        starts = [0]
        for layer in layers:
            starts.append(starts[-1] + len(layer))
        return [term for layer in layers for term in layer], starts

    def _graft_entries(self, acc: dict, weight: int, prefix: tuple, branch: tuple,
                       low: int, high: int) -> None:
        # adds weight * cu * cy to u ◁ y for the terms (u, cu) of the prefix
        # entry and (y, cy) of the branch entry with low <= |u| + |y| <= high
        grafts, graft, sizes = self.grafts, self.graft, self.sizes
        _, us, ps = prefix
        _, ys, ks = branch
        # the first term of an entry is its tree, the smallest of its classes
        sk, top = sizes[ys[0][0]], len(ks) - 2
        for su in range(sizes[us[0][0]], min(len(ps) - 2, high - sk) + 1):
            i, j = ps[su], ps[su + 1]
            lo, hi = low - su, high - su
            if hi > top:
                hi = top
            if i == j or lo > hi:
                continue
            row = ys[ks[lo if lo > 0 else 0]:ks[hi + 1]]
            if not row:
                continue
            for u, cu in us[i:j]:
                w = weight * cu
                get = grafts.setdefault(u, {}).get
                for y, cy in row:
                    # a graft has two vertices or more, so its id is never 0
                    g = get(y) or graft(u, y)
                    acc[g] = acc.get(g, 0) + w * cy

    def derive(self, s: int, pool: list, budget: int, memo: dict) -> list:
        """One vertex of tree s substituted by a tree of ``pool``, units
        elsewhere, summed over the vertices.

        ``pool`` is a list of ``(size, id, coeff)`` sorted by size.  Returns
        the composed classes of size at most ``budget`` in the same form,
        sorted.  A tree B(k_1..k_m) splits like :meth:`substitute`:
        D(B(k_1..k_m)) = D(p) ◁ k_m + p ◁ D(k_m) for the prefix tree
        p = B(k_1..k_{m-1}), p read at ``budget - |k_m|`` and k_m at
        ``budget - |p|``; the single vertex gives the pool.  ``memo`` keeps
        one entry per tree, (budget, classes), at the largest budget asked
        so far, and must only ever see one pool; a smaller budget reads a
        prefix of it.  Requests run on an explicit stack, so the depth and
        width of s are not bounded by the recursion limit.
        """
        sizes, kids_of, node = self.sizes, self.kids, self.node
        grafts, graft, missing, leaf = self.grafts, self.graft, (-inf,), self.id(LEAF)
        # each request is (tree, budget, its prefix tree or None until looked up)
        stack = [(s, budget, None)]
        while stack:
            j, b, p = stack[-1]
            have = memo.get(j)
            if have is not None and have[0] >= b:
                stack.pop()
                continue
            kids = kids_of[j]
            if not kids:
                stack.pop()
                memo[j] = (inf, pool)
                continue
            last = kids[-1]
            if p is None:
                p = node(kids[:-1]) if len(kids) > 1 else leaf
            bp, bk = b - sizes[last], b - sizes[p]
            todo = [(i, bi, None) for i, bi in ((p, bp), (last, bk))
                    if memo.get(i, missing)[0] < bi]
            if todo:
                stack[-1] = (j, b, p)
                stack.extend(todo)
                continue
            stack.pop()
            acc: dict = {}
            # a graft has two vertices or more, so its id is never 0
            for size, u, c in memo[p][1]:  # D(p) ◁ k_m
                if size > bp:
                    break
                g = grafts.get(u, NO_GRAFTS).get(last) or graft(u, last)
                acc[g] = acc.get(g, 0) + c
            get = grafts.setdefault(p, {}).get
            for size, y, c in memo[last][1]:  # p ◁ D(k_m)
                if size > bk:
                    break
                g = get(y) or graft(p, y)
                acc[g] = acc.get(g, 0) + c
            memo[j] = (b, self._sorted(acc))
        top, terms = memo[s]
        if top > budget:
            terms = terms[:bisect_right(terms, (budget, inf))]
        return terms


TREE_TABLE = TreeTable()
