"""Operad posets: tree-ideal interval lattices and their Mobius functions.

An interval [0,t] is stored on the root-containing lower ideals of t, with
the vertices of t labeled 1..n in BFS order, children in canonical order:
the full vertex set is the bottom element, the root alone is the top, and
x <= y holds exactly when ideal(x) contains ideal(y).  Each ideal is also
an int bitmask, so the covers are read off the masks and each vertex's
child mask, and its branch forest and restriction are built children first
from the interned tree ids.  No labeled tree and no order
matrix is built.

The interval is the distributive lattice J(P) of the order ideals of the
tree order P, so mu(0,1) follows the antichain rule (Stanley, EC1 §3.9):
:func:`mobius` reads it off the root valence.  The labeled and matrix
posets, the per-ideal shape functions, the lattice checkers and the
Mobius recursion on the masks that validate this module live in
:mod:`naphopf.oracles`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby, product as cartesian
from math import comb, prod

from .trees import KIDS, TREES, RootedTree, forest_of, node, subtrees


class IntervalPoset:
    """The interval [0,t] on the root-containing lower ideals of t.

    ``elements[i]`` is a set of vertex labels (1..n in BFS order of t,
    children in canonical order) containing the root 1 and closed under
    taking parents, and ``masks[i]`` is the same set as an int with bit
    v - 1 set for label v; ``child_masks[v - 1]`` is the mask of the
    children of v.  The stored orientation has the full vertex set at the
    bottom and {1} at the top, sorted by rank (vertices removed) and then
    by the sorted labels; each element carries the forest of branches
    hanging under its ideal and the restriction of t to the ideal.

    The ideals are built children first: at each vertex v every child c is
    either cut off or kept with one of c's own ideals.  Shapes are tree
    ids until the end, so a restriction is ``node`` of the kept children's
    restrictions and the branch component at v is ``node`` of the cut
    children's full shapes: a shape built before is looked up, never
    rebuilt.  A branch forest is the forest of ``node`` of its components,
    its B+ tree, so equal branch forests are one ``Forest``.

    Read-only once built: a cached interval is shared by every caller.
    """

    __slots__ = ("elements", "masks", "child_masks", "bottom_index", "top_index",
                 "forests", "thetas")

    def __init__(self, tree: RootedTree) -> None:
        # a BFS of t over the child ids: shape[v - 1] is the id of the
        # subtree below label v, and labels[v - 1] the labels of its children
        shape = [tree.id]
        labels = []
        for i in shape:
            first = len(shape) + 1
            shape.extend(KIDS[i])
            labels.append(range(first, len(shape) + 1))
        # the ideals of the subtree below v, as rows (restriction id, v, id
        # of the branch component at v, rows of the kept children)
        rows: dict = {}
        for v in range(len(shape), 0, -1):
            kids = labels[v - 1]
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
        for row in rows[1]:
            ideal, comps, stack = [], [], [row]
            while stack:
                _, u, comp, kept = stack.pop()
                ideal.append(u)
                comps.append(comp)
                stack.extend(kept)
            ideal.sort()
            comps.sort()
            split.append((-len(ideal), ideal, sum(map(bit.__getitem__, ideal)),
                          row[0], tuple(comps)))
        # bottom (rank 0) is the full vertex set; rank = vertices removed
        split.sort()
        put = object.__setattr__
        put(self, "elements", tuple(frozenset(e[1]) for e in split))
        put(self, "masks", tuple(e[2] for e in split))
        put(self, "child_masks", tuple(sum(map(bit.__getitem__, kids)) for kids in labels))
        put(self, "thetas", tuple(TREES[e[3]] for e in split))
        put(self, "forests", tuple(forest_of(node(e[4])) for e in split))
        put(self, "bottom_index", 0)
        put(self, "top_index", len(split) - 1)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"an IntervalPoset is read-only: {name!r} cannot change")

    __delattr__ = __setattr__

    def __reduce__(self):
        # a copy or an unpickled interval is the cached one of the same tree
        return interval_of, (self.thetas[self.bottom_index],)

    def __len__(self) -> int:
        return len(self.elements)

    def covers(self) -> tuple[tuple[int, int], ...]:
        """All pairs (i, j) with j covering i, sorted: ideal j is ideal i
        less one vertex other than the root that has no child in ideal i."""
        child_masks = self.child_masks
        index = {m: i for i, m in enumerate(self.masks)}
        out = []
        for i, (ideal, m) in enumerate(zip(self.elements, self.masks)):
            ups = sorted(index[m ^ (1 << (v - 1))] for v in ideal
                         if v != 1 and not child_masks[v - 1] & m)
            out.extend((i, j) for j in ups)
        return tuple(out)


def _children_first(t: RootedTree, value) -> dict:
    # value(child ids, values so far) for every distinct subtree id of t,
    # children first in id order, so a deep tree needs no Python stack
    out: dict = {}
    for j in subtrees(t.id, ()):
        out[j] = value(KIDS[j], out)
    return out


def ideal_count(t: RootedTree) -> int:
    """The number of elements of the interval of t, without listing them:
    each branch of a vertex is cut off or contributes one of its ideals."""
    counts = _children_first(t, lambda kids, done: prod(1 + done[k] for k in kids))
    return counts[t.id]


def ideal_orbit_count(t: RootedTree) -> int:
    """The number of root-containing ideals up to automorphism, summed over
    the distinct subtrees of t: a bound on the rows that
    :func:`naphopf.trees.ideals` stores for t, and equal to them on chains.

    A subtree whose root has m equal branches of class c, each with o
    ideal classes, takes one of C(o + m, m) multisets of "cut off or one of
    the o" for them.
    """
    def orbits(kids, done):
        out = 1
        for k, run in groupby(kids):  # equal children are adjacent
            m = len(list(run))
            out *= comb(done[k] + m, m)
        return out

    return sum(_children_first(t, orbits).values())


@lru_cache(maxsize=None)
def interval_of(t: RootedTree) -> IntervalPoset:
    """The interval poset of t, with per-element forest and theta data."""
    return IntervalPoset(t)


def mobius(t: RootedTree) -> int:
    """mu(0,1) of the interval of t by the antichain rule: the vertices
    below the root are an antichain exactly when t is a corolla, and then
    mu = (-1)^(n-1) for n vertices; 0 for every other tree."""
    return (-1) ** (t.size - 1) if len(KIDS[t.id]) == t.size - 1 else 0


# the closed form is the rule itself
mobius_closed_form = mobius


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
