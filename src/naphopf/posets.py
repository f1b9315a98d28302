"""Operad posets: tree-ideal interval lattices and their Mobius functions.
The brute-force poset of structured partitions that validates them lives
in :mod:`naphopf.oracles`.

An interval [0,t] is stored on the lower ideals of a labeled copy of t:
the full vertex set is the bottom element, the root alone is the top, and
x <= y holds exactly when ideal(x) contains ideal(y).  Each ideal is also
an int bitmask, so the order, the covers and the Mobius recursion are read
off the masks, and its branch forest and restriction are built children
first from the interned shapes of ``TREE_TABLE``.  The per-ideal functions
:func:`forest_below` and :func:`theta_of` build the same shapes vertex by
vertex and stay as their oracle.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import groupby, product as cartesian
from math import comb

from .trees import (
    Forest,
    Label,
    LabeledTree,
    RootedTree,
    TREE_TABLE,
    canonical_representative,
)


class FinitePoset:
    """Finite poset on indices 0..n-1 with an explicit boolean relation."""

    def __init__(self, leq: Sequence[Sequence[bool]], check: bool = True) -> None:
        self.n = len(leq)
        self.leq = tuple(tuple(bool(v) for v in row) for row in leq)
        self._covers: tuple[tuple[int, int], ...] | None = None
        self._meet: list[list[int | None]] | None = None
        self._join: list[list[int | None]] | None = None
        if check:
            self.validate()

    def validate(self) -> None:
        leq = self.leq
        n = self.n
        for i in range(n):
            if not leq[i][i]:
                raise ValueError(f"relation is not reflexive at {i}")
            for j in range(n):
                if i != j and leq[i][j] and leq[j][i]:
                    raise ValueError(f"relation is not antisymmetric at ({i},{j})")
                if leq[i][j]:
                    for k in range(n):
                        if leq[j][k] and not leq[i][k]:
                            raise ValueError(f"relation is not transitive at ({i},{j},{k})")

    @classmethod
    def from_covers(cls, n: int, covers: Iterable[tuple[int, int]]) -> "FinitePoset":
        """Build the reflexive-transitive closure of the given cover pairs."""
        leq = [[i == j for j in range(n)] for i in range(n)]
        for a, b in covers:
            leq[a][b] = True
        for k in range(n):
            for i in range(n):
                if leq[i][k]:
                    row_k = leq[k]
                    row_i = leq[i]
                    for j in range(n):
                        if row_k[j]:
                            row_i[j] = True
        return cls(leq)

    def _masks(self) -> tuple[list[int], list[int]]:
        # the down-set and the up-set of each element as int bitmasks
        n = self.n
        leq = self.leq
        down = [sum(1 << k for k in range(n) if leq[k][i]) for i in range(n)]
        up = [sum(1 << k for k in range(n) if leq[i][k]) for i in range(n)]
        return down, up

    def covers(self) -> tuple[tuple[int, int], ...]:
        """All pairs (i, j) with j covering i: nothing lies strictly between."""
        if self._covers is None:
            down, up = self._masks()
            n = self.n
            self._covers = tuple((i, j) for i in range(n) for j in range(n)
                                 if i != j and up[i] & down[j] == (1 << i) | (1 << j))
        return self._covers

    def down_set(self, i: int) -> list[int]:
        return [j for j in range(self.n) if self.leq[j][i]]

    def up_set(self, i: int) -> list[int]:
        return [j for j in range(self.n) if self.leq[i][j]]

    def minimal_elements(self) -> list[int]:
        return [i for i in range(self.n)
                if all(not self.leq[j][i] for j in range(self.n) if j != i)]

    def maximal_elements(self) -> list[int]:
        return [i for i in range(self.n)
                if all(not self.leq[i][j] for j in range(self.n) if j != i)]

    def bottom(self) -> int | None:
        mins = self.minimal_elements()
        return mins[0] if len(mins) == 1 else None

    def top(self) -> int | None:
        maxs = self.maximal_elements()
        return maxs[0] if len(maxs) == 1 else None

    def _bound_tables(self) -> tuple[list[list[int | None]], list[list[int | None]]]:
        # The meet of i and j is the element whose down-set is the
        # intersection of theirs, when there is one (it is then the greatest
        # common lower bound); the join is the dual, on up-sets.  Sets are
        # int bitmasks, so both tables take O(n^2) lookups.
        if self._meet is None:
            down, up = self._masks()
            by_down = {m: i for i, m in enumerate(down)}
            by_up = {m: i for i, m in enumerate(up)}
            self._meet = [[by_down.get(di & dj) for dj in down] for di in down]
            self._join = [[by_up.get(ui & uj) for uj in up] for ui in up]
        return self._meet, self._join

    def is_lattice(self) -> bool:
        meet, join = self._bound_tables()
        return all(meet[i][j] is not None and join[i][j] is not None
                   for i in range(self.n) for j in range(self.n))

    def mobius_from_bottom(self) -> list[int]:
        """The vector mu(bottom, x); requires a unique minimal element."""
        bottom = self.bottom()
        if bottom is None:
            raise ValueError("poset has no unique minimal element")
        order = sorted(range(self.n), key=lambda i: len(self.down_set(i)))
        mu = [0] * self.n
        for i in order:
            if i == bottom:
                mu[i] = 1
            else:
                mu[i] = -sum(mu[j] for j in self.down_set(i) if j != i)
        return mu


class IntervalPoset:
    """The interval [0,t] on the lower ideals of a labeled copy of t.

    ``elements[i]`` is a vertex set of ``representative`` (labels 1..n in BFS
    order) containing the root and closed under taking parents, and
    ``masks[i]`` is the same set as an int with bit v - 1 set for label v.
    The stored orientation has the full vertex set at the bottom and {root}
    at the top, sorted by rank (vertices removed) and then by the sorted
    labels; each element carries the forest of branches hanging under its
    ideal and the restriction of t to the ideal.

    The ideals are built children first: at each vertex v every child c is
    either cut off or kept with one of c's own ideals.  Shapes are
    ``TREE_TABLE`` ids until the end, so a restriction is ``node`` of the
    kept children's restrictions and the branch component at v is ``node``
    of the cut children's full shapes: a shape the table already holds is
    looked up, never rebuilt.  Equal branch forests are one ``Forest``.
    """

    __slots__ = ("representative", "elements", "masks", "bottom_index", "top_index",
                 "forests", "thetas")

    def __init__(self, tree: RootedTree) -> None:
        rep = canonical_representative(tree)
        table = TREE_TABLE
        node, trees = table.node, table.trees
        # shape[v - 1] is the id of the subtree below label v: the labels
        # number a BFS of t with children in canonical order, and so does
        # this walk over the child ids
        shape = [table.id(tree)]
        for i in shape:
            shape.extend(table.kids[i])
        # the ideals of the subtree below v, as rows (restriction id, v, id
        # of the branch component at v, rows of the kept children)
        rows: dict = {}
        for v in reversed(_bfs_order(rep)):
            kids = rep.children(v)
            out = []
            for combo in cartesian(*[(None,) + rows.pop(c) for c in kids]):
                kept = tuple(row for row in combo if row is not None)
                cut = [shape[c - 1] for c, row in zip(kids, combo) if row is None]
                out.append((node([row[0] for row in kept]), v, node(cut), kept))
            rows[v] = tuple(out)
        # each ideal's labels and branch components, read off its row tree
        # on an explicit stack, so a deep tree needs no Python stack
        bit = [0] + [1 << (v - 1) for v in range(1, len(shape) + 1)]  # bit[v]: label v
        split = []
        for row in rows[rep.root]:
            labels, comps, stack = [], [], [row]
            while stack:
                _, u, comp, kept = stack.pop()
                labels.append(u)
                comps.append(comp)
                stack.extend(kept)
            labels.sort()
            comps.sort()
            split.append((-len(labels), labels, sum(map(bit.__getitem__, labels)),
                          row[0], tuple(comps)))
        # bottom (rank 0) is the full vertex set; rank = vertices removed
        split.sort()
        forests: dict = {}
        for *_, comps in split:
            if comps not in forests:
                forests[comps] = Forest([trees[c] for c in comps])
        self.representative = rep
        self.elements = tuple(frozenset(e[1]) for e in split)
        self.masks = tuple(e[2] for e in split)
        self.thetas = tuple(trees[e[3]] for e in split)
        self.forests = tuple(forests[e[4]] for e in split)
        self.bottom_index = 0
        self.top_index = len(split) - 1

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def poset(self) -> FinitePoset:
        """The order x <= y iff ideal(x) contains ideal(y), built from the
        masks on each call; the interval itself stores no order matrix."""
        masks = self.masks
        return FinitePoset([[m2 & m1 == m2 for m2 in masks] for m1 in masks], check=False)

    def covers(self) -> tuple[tuple[int, int], ...]:
        """All pairs (i, j) with j covering i, sorted: ideal j is ideal i
        less one vertex that has no child in ideal i."""
        rep = self.representative
        child_masks = dict.fromkeys(rep.labels, 0)
        for c, p in rep.parents.items():
            child_masks[p] |= 1 << (c - 1)
        index = {m: i for i, m in enumerate(self.masks)}
        out = []
        for i, (ideal, m) in enumerate(zip(self.elements, self.masks)):
            ups = sorted(index[m ^ (1 << (v - 1))] for v in ideal
                         if v != rep.root and not child_masks[v] & m)
            out.extend((i, j) for j in ups)
        return tuple(out)


# The ideal algorithms below run children first over an explicit BFS order
# instead of recursing, so a deep tree needs no Python stack.


def _bfs_order(rep: LabeledTree, keep: "frozenset | None" = None) -> list[Label]:
    # the vertices reachable from the root (inside keep, if given), parents
    # before children
    order = [rep.root]
    for v in order:
        order.extend(c for c in rep.children(v) if keep is None or c in keep)
    return order


def _subtree_shapes(rep: LabeledTree, keep: "frozenset | None" = None) -> dict:
    # the shape of the subtree below each vertex, restricted to keep if given
    shapes: dict = {}
    for v in reversed(_bfs_order(rep, keep)):
        shapes[v] = RootedTree(shapes[c] for c in rep.children(v) if c in shapes)
    return shapes


def _ideal_split(rep: LabeledTree, full: dict, ideal: frozenset) -> tuple[Forest, RootedTree]:
    # Branches hanging under the ideal, and the restriction of the tree to
    # it; full maps each vertex to the shape of its subtree.
    forest = Forest(RootedTree(full[c] for c in rep.children(v) if c not in ideal)
                    for v in ideal)
    theta = _subtree_shapes(rep, ideal)[rep.root]
    return forest, theta


def ideal_count(t: RootedTree) -> int:
    """The number of elements of the interval of t, without listing them:
    each branch of a vertex is cut off or contributes one of its ideals."""
    rep = canonical_representative(t)
    count: dict = {}
    for v in reversed(_bfs_order(rep)):
        out = 1
        for c in rep.children(v):
            out *= 1 + count.pop(c)
        count[v] = out
    return count[rep.root]


def ideal_orbit_count(t: RootedTree) -> int:
    """The number of root-containing ideals up to automorphism, summed over
    the distinct subtrees of t: a bound on the rows that
    ``TreeTable.ideals`` stores for t, and equal to them on chains.

    A subtree whose root has m equal branches of class c, each with o
    ideal classes, takes one of C(o + m, m) multisets of "cut off or one of
    the o" for them.  Computed children first on an explicit stack.
    """
    kids = TREE_TABLE.kids
    orbits: dict = {}
    stack = [TREE_TABLE.id(t)]
    while stack:
        j = stack.pop()
        if j in orbits:
            continue
        todo = [k for k in kids[j] if k not in orbits]
        if todo:
            stack.append(j)
            stack.extend(todo)
            continue
        out = 1
        for k, run in groupby(kids[j]):  # equal children are adjacent
            m = len(list(run))
            out *= comb(orbits[k] + m, m)
        orbits[j] = out
    return sum(orbits.values())


@lru_cache(maxsize=None)
def interval_of(t: RootedTree) -> IntervalPoset:
    """The interval poset of t, with per-element forest and theta data."""
    return IntervalPoset(t)


def _validate_ideal(t: RootedTree, ideal: frozenset) -> LabeledTree:
    rep = canonical_representative(t)
    if not ideal or not ideal <= rep.labels or rep.root not in ideal:
        raise ValueError("not an ideal of the canonical representative")
    for v in ideal:
        if v != rep.root and rep.parents[v] not in ideal:
            raise ValueError("ideal is not closed under taking parents")
    return rep


def forest_below(t: RootedTree, ideal: "frozenset | Iterable") -> Forest:
    """Multiset of branch shapes hanging under the vertices of the ideal."""
    ideal = frozenset(ideal)
    rep = _validate_ideal(t, ideal)
    return _ideal_split(rep, _subtree_shapes(rep), ideal)[0]


def theta_of(t: RootedTree, ideal: "frozenset | Iterable") -> RootedTree:
    """Shape of the restriction of t to the ideal."""
    ideal = frozenset(ideal)
    rep = _validate_ideal(t, ideal)
    return _subtree_shapes(rep, ideal)[rep.root]


@lru_cache(maxsize=None)
def mobius(t: RootedTree) -> int:
    """mu(0,1) of the interval of t, by the defining recursion
    mu(0,x) = -sum of mu(0,y) over y < x, on the ideal masks: y < x is
    ideal(y) strictly containing ideal(x), so every such y comes earlier in
    the rank order, and the y with mu(0,y) = 0 are left out of the sum."""
    nonzero: list = []  # (mask of y, mu(0,y)) for the earlier y
    for mx in interval_of(t).masks:  # the bottom first, the top last
        mu = -sum(m for my, m in nonzero if my & mx == mx) if nonzero else 1
        if mu:
            nonzero.append((mx, mu))
    return mu


def mobius_closed_form(t: RootedTree) -> int:
    """(-1)^n for the corolla with n+1 vertices, 0 for every other tree."""
    if t.is_corolla():
        return (-1) ** (t.size - 1)
    return 0


def check_total_semimodularity(p: "FinitePoset | IntervalPoset") -> bool:
    """True iff any two elements covering a common element share a cover."""
    above: dict[int, list[int]] = {}
    for a, b in p.covers():
        above.setdefault(a, []).append(b)
    for ups in above.values():
        for i, x in enumerate(ups):
            for y in ups[i + 1:]:
                if not any(w in above.get(y, ()) for w in above.get(x, ())):
                    return False
    return True


def check_distributive_lattice(p: "FinitePoset | IntervalPoset") -> bool:
    """True iff p is a lattice satisfying x ∧ (y ∨ z) = (x ∧ y) ∨ (x ∧ z).

    For an interval poset the meet and join are additionally required to
    coincide with ideal union and ideal intersection.
    """
    poset = p.poset if isinstance(p, IntervalPoset) else p
    if not poset.is_lattice():
        return False
    meet, join = poset._bound_tables()
    if isinstance(p, IntervalPoset):
        index = {s: i for i, s in enumerate(p.elements)}
        for si, meet_i, join_i in zip(p.elements, meet, join):
            for sj, meet_ij, join_ij in zip(p.elements, meet_i, join_i):
                if meet_ij != index[si | sj] or join_ij != index[si & sj]:
                    return False
    # x ∧ (y ∨ z) against (x ∧ y) ∨ (x ∧ z), read off the two tables
    for meet_x in meet:
        for y, join_y in enumerate(join):
            join_with_xy = join[meet_x[y]]
            for z, y_or_z in enumerate(join_y):
                if meet_x[y_or_z] != join_with_xy[meet_x[z]]:
                    return False
    return True


def pentagon_poset() -> FinitePoset:
    """N5: two atoms cover the bottom but share no upper cover."""
    # 0 < 1 < 2 < 4 and 0 < 3 < 4
    return FinitePoset.from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def diamond_poset() -> FinitePoset:
    """M3: three incomparable atoms between bottom and top (not distributive)."""
    return FinitePoset.from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def interval_dot(ip: IntervalPoset) -> str:
    """Hasse diagram of an interval in DOT format, one node per ideal,
    labeled by the canonical string of the ideal restriction."""
    lines = ["digraph interval {", "  rankdir=BT;"]
    for idx in range(len(ip.elements)):
        lines.append('  n%d [label="%s"];' % (idx, ip.thetas[idx].string))
    for a, b in ip.covers():
        lines.append("  n%d -> n%d;" % (a, b))
    lines.append("}")
    return "\n".join(lines)
