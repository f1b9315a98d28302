"""Canonical rooted trees and forests, their labeled representatives, and
the NAP composition engine on interned tree ids.

Trees and forests are hash-consed (Filliâtre-Conchon, "Type-safe modular
hash-consing", 2006): children and components are kept sorted by (size,
canonical string), and constructing one returns the single instance of its
shape from a process-wide intern dict.  So structural equality is identity,
equality and hashing are the object defaults, and multisets deduplicate by
sorting.  Interned trees and forests live for the whole process.  Labeled
trees are root + parent-map data with arbitrary hashable labels; the
standard ground set is the strings "1".."n".  Enumerating and composing
labeled trees, and the two set-operads built on them, serve only as
oracles and live in :mod:`naphopf.oracles`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Hashable, Iterable, Iterator
from functools import lru_cache
from itertools import groupby
from math import factorial
from operator import attrgetter
from types import MappingProxyType

Label = Hashable


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
        return all(c.size == 1 for c in self.children)


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


class LabeledTree:
    """Rooted tree with distinct hashable vertex labels.

    Stored as the root label plus the parent map of every non-root vertex;
    the constructor checks that the parent map reaches the root acyclically
    (connected and simply connected).
    """

    __slots__ = ("root", "parents", "labels", "_children", "_hash")

    def __init__(self, root: Label, parents: dict[Label, Label]) -> None:
        if root in parents:
            raise ValueError("root must not have a parent")
        self.root = root
        self.parents = dict(parents)
        labels = set(parents)
        for p in parents.values():
            labels.add(p)
        labels.add(root)
        if len(labels) != len(parents) + 1:
            raise ValueError("parent map mentions a label with no parent entry")
        reached: set[Label] = {root}
        for v in parents:
            path = []
            w = v
            while w not in reached:
                path.append(w)
                if w not in self.parents:
                    raise ValueError(f"vertex {w!r} is disconnected from the root")
                w = self.parents[w]
                if len(path) > len(labels):
                    raise ValueError("cycle in parent map")
            reached.update(path)
        self.labels = frozenset(labels)
        children: dict[Label, list[Label]] = {v: [] for v in labels}
        for child, parent in self.parents.items():
            children[parent].append(child)
        # read-only: labeled trees are hashed, and cached intervals share them
        self._children = {v: tuple(kids) for v, kids in children.items()}
        self.parents = MappingProxyType(self.parents)
        self._hash = hash((self.root, frozenset(self.parents.items())))

    @property
    def size(self) -> int:
        return len(self.labels)

    def children(self, v: Label) -> tuple[Label, ...]:
        return self._children[v]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LabeledTree)
                and self.root == other.root
                and self.parents == other.parents)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "LabeledTree(%r, %r)" % (self.root, self.parents)

    def shape(self) -> RootedTree:
        """The underlying unlabeled canonical tree."""

        def build(v: Label) -> RootedTree:
            return RootedTree(build(c) for c in self._children[v])

        return build(self.root)

    def relabel(self, mapping: dict[Label, Label]) -> "LabeledTree":
        """Apply a label bijection (must cover every vertex)."""
        return LabeledTree(mapping[self.root],
                           {mapping[c]: mapping[p] for c, p in self.parents.items()})

    def restrict(self, keep: frozenset) -> "LabeledTree":
        """Restriction to an ancestor-closed vertex set containing the root."""
        if self.root not in keep:
            raise ValueError("restriction must contain the root")
        parents = {}
        for v in keep:
            if v == self.root:
                continue
            p = self.parents.get(v)
            if p is None or p not in keep:
                raise ValueError("restriction set is not ancestor-closed")
            parents[v] = p
        return LabeledTree(self.root, parents)

    def render(self) -> str:
        """``label:(child child ...)`` with children sorted deterministically."""

        def fmt(v: Label) -> str:
            kids = sorted(self._children[v], key=lambda c: (str(c)))
            return "%s:(%s)" % (v, " ".join(fmt(c) for c in kids))

        return fmt(self.root)


def canonical_representative(t: RootedTree) -> LabeledTree:
    """Labeled copy of t with integer labels 1..n assigned in BFS order."""
    parents: dict[Label, Label] = {}
    queue = [(t, 1)]
    next_label = 2
    head = 0
    while head < len(queue):
        node, lbl = queue[head]
        head += 1
        for child in node.children:
            parents[next_label] = lbl
            queue.append((child, next_label))
            next_label += 1
    return LabeledTree(1, parents)


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
    :meth:`graft`.  The graft map ``(i, j) -> id(s ◁ t)`` is filled on
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
    x ◁ S(t_1) ◁ ... ◁ S(t_k).  Linear combinations are lists of
    ``(size, id, coeff)`` sorted by size, and a size budget prunes every
    graft whose result could not fit.  The coefficients are ints: the series
    layer scales rational ones to integers first (see
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
        self.grafts: dict[tuple[int, int], int] = {}
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
        return {"trees": len(self.trees), "grafts": len(self.grafts),
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
        g = self.grafts.get((i, j))
        if g is None:
            g = self.grafts[(i, j)] = self.node(self.kids[i] + [j])
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
                    r = grafts.get((rc, k))
                    key = (b, graft(rc, k) if r is None else r, g)
                    grown[key] = grown.get(key, 0) + c
                    for (b2, g2), c2 in below.items():
                        r = grafts.get((g, g2))
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

    def substitute(self, t: int, pool: list, budget: int, memo: dict) -> list:
        """Every vertex of tree t substituted by a tree of ``pool``.

        Returns the combination of the composed classes of size at most
        ``budget``, each weighted by the product of the pool coefficients.
        ``memo`` is keyed by (subtree, budget) and must only ever see one
        pool; an entry reads only pool terms up to its budget, so one memo
        serves every budget.
        """
        key = (t, budget)
        hit = memo.get(key)
        if hit is not None:
            return hit
        sizes, grafts, graft = self.sizes, self.grafts, self.graft
        size = sizes[t]
        # vertices not yet substituted: each takes at least one more vertex
        rest = size - 1
        acc = {}
        for sx, x, cx in pool:
            if sx > budget - rest:
                break
            acc[x] = cx
        for k in self.kids[t]:
            rest -= sizes[k]
            sub = self.substitute(k, pool, budget - size + sizes[k], memo)
            grown: dict = {}
            for u, cu in acc.items():
                room = budget - sizes[u] - rest
                for sy, y, cy in sub:
                    if sy > room:
                        break
                    g = grafts.get((u, y))
                    if g is None:
                        g = graft(u, y)
                    grown[g] = grown.get(g, 0) + cu * cy
            acc = grown
        out = memo[key] = self._sorted(acc)
        return out

    def derive(self, s: int, pool: list, budget: int, memo: dict) -> list:
        """One vertex of tree s substituted by a tree of ``pool``, units
        elsewhere, summed over the vertices: the tree at the root, or at one
        slot inside one branch.  Sizes and ``memo`` as in :meth:`substitute`.
        """
        key = (s, budget)
        hit = memo.get(key)
        if hit is not None:
            return hit
        graft, sizes = self.graft, self.sizes
        size, kids = sizes[s], self.kids[s]
        acc: dict = {}
        for sx, x, cx in pool:
            if sx > budget - size + 1:
                break
            for k in kids:
                x = graft(x, k)
            acc[x] = acc.get(x, 0) + cx
        for i, k in enumerate(kids):
            if i and kids[i - 1] == k:
                continue
            mult = kids.count(k)
            rest = self.id(LEAF)
            for k2 in kids[:i] + kids[i + 1:]:
                rest = graft(rest, k2)
            for _, y, cy in self.derive(k, pool, budget - size + sizes[k], memo):
                g = graft(rest, y)
                acc[g] = acc.get(g, 0) + mult * cy
        out = memo[key] = self._sorted(acc)
        return out


TREE_TABLE = TreeTable()
