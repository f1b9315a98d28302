"""Reference computations that the production modules are checked against.

Nothing on the production path imports this module: the checks of
:mod:`naphopf.checks` import it, and so do the tests and ``enumerate
--labeled``; the package resolves its public names on first use.  Every
route here is exhaustive or works on labeled structures and shares no code
with the engine it checks; the exponential ones refuse inputs above their
limits:

* labeled trees and forests, the BFS representative of a tree, NAP
  composition on labels and the Prufer enumeration of every labeled tree;
  the two operads as :class:`OperadInstance` records;
* one composition on the graft map (:func:`compose_shapes`) and the slot
  sum s ∘ t as one composition per vertex (:func:`slot_compositions`),
  which only the tests and the Jacobi check call;
* the ideal intervals of ``naphopf.posets`` by other routes: each ideal's
  branch forest and restriction rebuilt vertex by vertex on the labeled
  representative, the order matrix of :class:`FinitePoset`, the Mobius
  recursion on the masks, and the semimodularity and distributivity
  checkers with their pentagon and diamond controls;
* the brute-force poset of structured partitions and the checks that it
  realizes the ideal-lattice model of ``naphopf.posets``;
* the incidence constants f by ideal enumeration, the group constants g
  and the series product by the labeled route, the two orbit counts of
  the main theorem, and the Connes-Kreimer coproduct and antipode over
  edge subsets.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict, namedtuple
from collections.abc import Hashable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product as cartesian
from types import MappingProxyType

from .hopf import HopfElement, TensorElement, forest_as_tree_monomial, g_structure_constants
from .posets import IntervalPoset, interval_of
from .series import TreeSeries, ordered_tuples
from .trees import (
    LEAF,
    TREE_TABLE,
    Forest,
    RootedTree,
    enumerate_forests_with_components,
    enumerate_trees,
)

Label = Hashable

# the labeled composition oracles enumerate ordered tuples of trees, about 4x
# more per vertex: at 8 vertices labeled_g_structure_constants takes ~0.6 s
# and _multiply_labeled of zeta and mobius ~0.4 s (CPU, Python 3.11, 2-core host)
LABELED_G_LIMIT = 8
LABELED_PRODUCT_LIMIT = 8
# count_Ef_Eg enumerates labeled trees and partitions of the ground set
ORBIT_COUNT_LIMIT = 6


def _trees(lo: int, hi: int):
    """The trees of lo..hi vertices, smaller first."""
    for n in range(lo, hi + 1):
        yield from enumerate_trees(n)


# ---------------------------------------------------------------------------
# labeled trees and the two operads


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
        # read-only: labeled trees are hashed
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


class LabeledForest:
    """Set of labeled trees with pairwise-disjoint label sets."""

    __slots__ = ("components", "labels", "_hash")

    def __init__(self, components: Iterable[LabeledTree]) -> None:
        comps = frozenset(components)
        total = 0
        labels: set[Label] = set()
        for c in comps:
            total += c.size
            labels.update(c.labels)
        if len(labels) != total:
            raise ValueError("components must have disjoint label sets")
        self.components = comps
        self.labels = frozenset(labels)
        self._hash = hash(comps)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LabeledForest) and self.components == other.components

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[LabeledTree]:
        return iter(self.components)

    def partition(self) -> frozenset:
        """The induced partition of the ground set: one block per component."""
        return frozenset(c.labels for c in self.components)


def nap_compose(t: LabeledTree, subs: dict[Label, LabeledTree]) -> LabeledTree:
    """NAP composition: substitute subs[i] at each vertex i of t.

    The result is the disjoint union of the substituted trees with one extra
    edge root(subs[i]) -> root(subs[i']) for every edge i -> i' of t; its
    root is the root of the tree substituted at the root of t.
    """
    missing = [v for v in t.labels if v not in subs]
    if missing:
        raise ValueError(f"missing substitution for vertices {missing!r}")
    total = sum(subs[v].size for v in t.labels)
    union: set[Label] = set()
    for v in t.labels:
        union.update(subs[v].labels)
    if len(union) != total:
        raise ValueError("label collision between substituted trees")
    parents: dict[Label, Label] = {}
    for v in t.labels:
        parents.update(subs[v].parents)
    for child, parent in t.parents.items():
        parents[subs[child].root] = subs[parent].root
    return LabeledTree(subs[t.root].root, parents)


def singleton(label: Label) -> LabeledTree:
    """The one-vertex labeled tree."""
    return LabeledTree(label, {})


def dfs_representative(t: RootedTree) -> LabeledTree:
    """Labeled copy of t with labels 1..n assigned in preorder DFS.

    Children are visited in reversed canonical order, so the labeling
    genuinely differs from :func:`canonical_representative` on most trees.
    """
    parents: dict[Label, Label] = {}
    counter = [1]

    def visit(node: RootedTree, lbl: int) -> None:
        for child in reversed(node.children):
            counter[0] += 1
            c_lbl = counter[0]
            parents[c_lbl] = lbl
            visit(child, c_lbl)

    visit(t, 1)
    return LabeledTree(1, parents)


def _prufer_edges(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    # Decode a Prufer sequence over {0..n-1} into the n-1 edges of a tree.
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        v = heapq.heappop(leaves)
        edges.append((v, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def labeled_trees(labels: Sequence[Label]) -> list[LabeledTree]:
    """All rooted labeled trees on the given labels (n^(n-1) of them).

    Enumerated by decoding every Prufer sequence and rooting the resulting
    free tree at every vertex; independent of the canonical-tree machinery.
    """
    labels = list(labels)
    n = len(labels)
    if n == 0:
        raise ValueError("need at least one label")
    if n == 1:
        return [LabeledTree(labels[0], {})]
    out = []
    for seq in cartesian(range(n), repeat=n - 2):
        edges = _prufer_edges(seq, n)
        adjacency: dict[int, list[int]] = {v: [] for v in range(n)}
        for a, b in edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        for root in range(n):
            parents: dict[Label, Label] = {}
            stack = [root]
            seen = {root}
            while stack:
                w = stack.pop()
                for nb in adjacency[w]:
                    if nb not in seen:
                        seen.add(nb)
                        parents[labels[nb]] = labels[w]
                        stack.append(nb)
            out.append(LabeledTree(labels[root], parents))
    return out


def set_partitions(items: Sequence[Label]) -> list[list[list[Label]]]:
    """All partitions of the given sequence into nonempty unordered blocks."""
    items = list(items)
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for partial in set_partitions(rest):
        for i in range(len(partial)):
            out.append(partial[:i] + [[first] + partial[i]] + partial[i + 1:])
        out.append([[first]] + partial)
    return out


def labeled_forests(labels: Sequence[Label]) -> list[LabeledForest]:
    """All labeled forests on the given ground set ((n+1)^(n-1) of them)."""
    out = []
    for blocks in set_partitions(labels):
        pools = [labeled_trees(block) for block in blocks]
        for combo in cartesian(*pools):
            out.append(LabeledForest(combo))
    return out


def labeled_isomorphisms(a: LabeledTree, b: LabeledTree,
                         targets: Sequence[Label] | None = None) -> list[dict]:
    """All bijections from a's labels onto b's (or ``targets``) carrying a to b.

    Exhaustive over permutations; intended for small ground sets only.  A
    candidate is tested on the parent maps instead of being relabeled: the
    root must go to b's root and every parent edge c -> p of a to the edge
    of b at the image of c.
    """
    source = list(a.labels)
    image = list(b.labels) if targets is None else list(targets)
    if len(source) != len(image) or len(source) != b.size:
        return []
    at = {v: k for k, v in enumerate(source)}
    root = at[a.root]
    edges = [(at[c], at[p]) for c, p in a.parents.items()]
    b_root, b_parents = b.root, b.parents
    out = []
    for perm in permutations(image):
        if perm[root] != b_root:
            continue
        for c, p in edges:
            w = perm[c]
            if w not in b_parents or b_parents[w] != perm[p]:
                break
        else:
            out.append(dict(zip(source, perm)))
    return out


def find_shape_isomorphism(a: LabeledTree, b: LabeledTree) -> dict | None:
    """One label bijection carrying a onto b, or None if shapes differ.

    Built recursively by matching children with equal shapes; linear-ish,
    unlike the exhaustive :func:`labeled_isomorphisms`.
    """
    if a.shape() != b.shape():
        return None

    def shape_of(tree: LabeledTree, v: Label) -> RootedTree:
        return RootedTree(shape_of(tree, c) for c in tree.children(v))

    mapping: dict = {}

    def match(va: Label, vb: Label) -> None:
        mapping[va] = vb
        by_shape: dict[RootedTree, list[Label]] = {}
        for cb in b.children(vb):
            by_shape.setdefault(shape_of(b, cb), []).append(cb)
        for ca in a.children(va):
            match(ca, by_shape[shape_of(a, ca)].pop())

    match(a.root, b.root)
    return mapping


class OperadInstance(namedtuple("OperadInstance", "name classes class_size labeled_structures "
                                                  "compose class_of label_set")):
    """A set-operad given by enumerators and a labeled composition rule.

    ``classes(n)`` lists the coinvariant classes of size n;
    ``class_size(c)`` is the size of a class;
    ``labeled_structures(labels)`` lists the structures on a label tuple;
    ``compose(x, subs)`` substitutes a structure for every vertex/label of x;
    ``class_of`` projects a labeled structure to its class; ``label_set``
    returns the underlying ground set of a structure.  Instances are
    immutable and compare and hash by their fields.
    """

    __slots__ = ()


@lru_cache(maxsize=None)
def nap_instance() -> OperadInstance:
    """The NAP operad: rooted trees with root-joining composition; one shared
    instance, as caches keyed by an instance compare its functions by identity."""
    return OperadInstance(
        name="nap",
        classes=enumerate_trees,
        class_size=lambda t: t.size,
        labeled_structures=labeled_trees,
        compose=nap_compose,
        class_of=lambda x: x.shape(),
        label_set=lambda x: x.labels,
    )


@lru_cache(maxsize=None)
def comm_instance() -> OperadInstance:
    """The Comm operad: one structure per finite set, composition by union;
    one shared instance, as :func:`nap_instance`."""

    def compose(x: frozenset, subs: dict) -> frozenset:
        out: set = set()
        for i in x:
            out.update(subs[i])
        return frozenset(out)

    return OperadInstance(
        name="comm",
        classes=lambda n: (n,),
        class_size=lambda c: c,
        labeled_structures=lambda labels: [frozenset(labels)],
        compose=compose,
        class_of=lambda x: len(x),
        label_set=lambda x: x,
    )


# ---------------------------------------------------------------------------
# single compositions on the graft engine


def compose_shapes(outer: RootedTree, inner: Sequence[RootedTree]) -> RootedTree:
    """Class of the NAP composition of outer with the given inner trees.

    ``inner[i]`` is substituted at the vertex labeled i+1 of the BFS
    representative of ``outer`` (:func:`canonical_representative`).
    """
    inner = tuple(inner)
    if len(inner) != outer.size:
        raise ValueError("need one inner tree per vertex of the outer tree")
    table = TREE_TABLE
    # parent[v] is the BFS position of the parent of the vertex at position v
    order, parent = [outer], [-1]
    for v, node in enumerate(order):
        for child in node.children:
            order.append(child)
            parent.append(v)
    # a vertex follows its parent in BFS order, so walking backwards grafts
    # each composed subtree only once it is complete
    comp = [table.id(t) for t in inner]
    for v in range(len(order) - 1, 0, -1):
        comp[parent[v]] = table.graft(comp[parent[v]], comp[v])
    return table.trees[comp[0]]


def slot_compositions(s: RootedTree, t: RootedTree) -> tuple[tuple[RootedTree, int], ...]:
    """The sum s ∘ t over single slots: t at one vertex of s and units
    elsewhere, by :func:`compose_shapes`, classes with multiplicities."""
    units = (LEAF,) * (s.size - 1)
    out = Counter(compose_shapes(s, units[:v] + (t,) + units[v:]) for v in range(s.size))
    return tuple(sorted(out.items(), key=lambda kv: kv[0]))


# ---------------------------------------------------------------------------
# ideal intervals by the labeled and the matrix routes: each ideal's shapes
# vertex by vertex, the order matrix, the Mobius recursion and the lattice
# checkers


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

    def maximal_elements(self) -> list[int]:
        return [i for i in range(self.n)
                if all(not self.leq[i][j] for j in range(self.n) if j != i)]

    def bottom(self) -> int | None:
        mins = [i for i in range(self.n)
                if all(not self.leq[j][i] for j in range(self.n) if j != i)]
        return mins[0] if len(mins) == 1 else None

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


def interval_order(ip: IntervalPoset) -> FinitePoset:
    """The order of an interval as a matrix, read off its masks: x <= y iff
    ideal(x) contains ideal(y)."""
    masks = ip.masks
    return FinitePoset([[m2 & m1 == m2 for m2 in masks] for m1 in masks], check=False)


def interval_mobius(ip: IntervalPoset) -> list[int]:
    """mu(bottom, x) for every element x of an interval, by the defining
    recursion mu(0,x) = -sum of mu(0,y) over y < x, on the masks: y < x is
    ideal(y) strictly containing ideal(x), so every such y comes earlier in
    the rank order, and the y with mu(0,y) = 0 are left out of the sum."""
    out: list = []
    nonzero: list = []  # (mask of y, mu(0,y)) for the earlier y
    for mx in ip.masks:  # the bottom first, the top last
        mu = -sum(m for my, m in nonzero if my & mx == mx) if nonzero else 1
        if mu:
            nonzero.append((mx, mu))
        out.append(mu)
    return out


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
    full = _subtree_shapes(rep)  # the shape of the subtree below each vertex
    return Forest(RootedTree(full[c] for c in rep.children(v) if c not in ideal)
                  for v in ideal)


def theta_of(t: RootedTree, ideal: "frozenset | Iterable") -> RootedTree:
    """Shape of the restriction of t to the ideal."""
    ideal = frozenset(ideal)
    rep = _validate_ideal(t, ideal)
    return _subtree_shapes(rep, ideal)[rep.root]


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

    An interval poset is checked on its masks: its order is reverse
    inclusion, so it is a lattice with meet union and join intersection
    exactly when its distinct masks are closed under OR and AND, and a
    ring of sets is distributive.
    """
    if isinstance(p, IntervalPoset):
        masks = set(p.masks)
        return len(masks) == len(p.masks) and all(
            a | b in masks and a & b in masks for a in masks for b in masks)
    if not p.is_lattice():
        return False
    meet, join = p._bound_tables()
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


# ---------------------------------------------------------------------------
# the brute-force poset of structured partitions


def _label_key(label: Label):
    if isinstance(label, frozenset):
        return ("set", tuple(sorted(_label_key(x) for x in label)))
    return ("atom", str(label))


def _part_key(part: frozenset):
    return tuple(sorted(_label_key(x) for x in part))


@lru_cache(maxsize=None)
def pi_elements(instance: OperadInstance, labels: tuple[Label, ...]) -> tuple[frozenset, ...]:
    """All structured partitions of the ground set: a set partition together
    with one labeled structure of the operad on each block."""
    out = []
    for blocks in set_partitions(list(labels)):
        pools = [instance.labeled_structures(tuple(block)) for block in blocks]
        for combo in cartesian(*pools):
            out.append(frozenset(combo))
    return tuple(out)


def element_parts(instance: OperadInstance, element: frozenset) -> tuple[frozenset, ...]:
    """The partition induced by an element, as a deterministically sorted tuple."""
    return tuple(sorted((instance.label_set(c) for c in element), key=_part_key))


def compose_pi(instance: OperadInstance, theta: frozenset, x: frozenset) -> frozenset:
    """Compose a structured partition of the parts of x into x itself."""
    by_part = {instance.label_set(c): c for c in x}
    out = []
    for comp in theta:
        subs = {part: by_part[part] for part in instance.label_set(comp)}
        out.append(instance.compose(comp, subs))
    return frozenset(out)


class BruteForcePoset:
    """The poset of structured partitions of a ground set, by exhaustive search.

    The order is computed from the definition: x <= y iff some structured
    partition theta of the parts of x composes x into y.  The witnessing
    theta of every comparable pair is retained, and its uniqueness (the
    `basic' property of the operad) is asserted during construction.
    """

    def __init__(self, instance: OperadInstance, labels: Sequence[Label]) -> None:
        self.instance = instance
        self.labels = tuple(labels)
        self.elements = pi_elements(instance, self.labels)
        # read-only, like theta below: brute_force_pi hands one cached poset
        # to every caller
        self.index = MappingProxyType({e: i for i, e in enumerate(self.elements)})
        n = len(self.elements)
        leq = [[i == j for j in range(n)] for i in range(n)]
        theta_witness: dict[tuple[int, int], frozenset] = {}
        self.parts = tuple(element_parts(instance, e) for e in self.elements)
        for i in range(n):
            x = self.elements[i]
            for theta in pi_elements(instance, self.parts[i]):
                y = compose_pi(instance, theta, x)
                j = self.index[y]
                prior = theta_witness.get((i, j))
                if prior is not None and prior != theta:
                    raise ValueError("operad is not basic: theta is not unique")
                theta_witness[(i, j)] = theta
                leq[i][j] = True
        self.poset = FinitePoset(leq)
        self.theta = MappingProxyType(theta_witness)

    def __len__(self) -> int:
        return len(self.elements)

    def bottom_index(self) -> int | None:
        return self.poset.bottom()


BRUTE_FORCE_LIMIT = 4


def brute_force_pi(instance: OperadInstance, ground: "int | Sequence[Label]") -> BruteForcePoset:
    """Poset of structured partitions on {1..n} (or an explicit label tuple).

    The search is exponential; ground sets larger than ``BRUTE_FORCE_LIMIT``
    are refused.  The poset is cached and shared by every caller.
    """
    if isinstance(ground, int):
        labels: tuple[Label, ...] = tuple(str(i) for i in range(1, ground + 1))
    else:
        labels = tuple(ground)
    if len(labels) > BRUTE_FORCE_LIMIT:
        raise ValueError(f"ground set of size {len(labels)} exceeds "
                         f"BRUTE_FORCE_LIMIT = {BRUTE_FORCE_LIMIT}")
    return _structured_partitions(instance, labels)


@lru_cache(maxsize=None)
def _structured_partitions(instance: OperadInstance,
                           labels: tuple[Label, ...]) -> BruteForcePoset:
    # unguarded: the checks below reach it for parts of a poset already built
    return BruteForcePoset(instance, labels)


def _restrict_element(instance: OperadInstance, element: frozenset,
                      block: frozenset) -> frozenset:
    return frozenset(c for c in element if instance.label_set(c) <= block)


def check_upset_isomorphism(bp: BruteForcePoset, i: int) -> bool:
    """The up-set of element i must be order-isomorphic to the poset of
    structured partitions of its parts, via the witnessing thetas."""
    target = _structured_partitions(bp.instance, bp.parts[i])
    upset = bp.poset.up_set(i)
    if len(upset) != len(target):
        return False
    image = {}
    for j in upset:
        theta = bp.theta.get((i, j))
        if theta is None or theta not in target.index:
            return False
        image[j] = target.index[theta]
    if sorted(image.values()) != list(range(len(target))):
        return False
    for a in upset:
        for b in upset:
            if bp.poset.leq[a][b] != target.poset.leq[image[a]][image[b]]:
                return False
    return True


def check_interval_factorization(bp: BruteForcePoset, i: int, j: int) -> bool:
    """[x,y] must factor as the product over the parts u of y of the
    intervals [0, theta(x_u, y_u)], via componentwise thetas."""
    instance = bp.instance
    if not bp.poset.leq[i][j]:
        raise ValueError("need x <= y")
    x = bp.elements[i]
    y = bp.elements[j]
    interval = [k for k in range(len(bp))
                if bp.poset.leq[i][k] and bp.poset.leq[k][j]]

    factors = []
    for u in element_parts(instance, y):
        x_u = _restrict_element(instance, x, u)
        y_u = _restrict_element(instance, y, u)
        ground_u = tuple(sorted(u, key=_label_key))
        bp_u = _structured_partitions(instance, ground_u)
        xi = bp_u.index[x_u]
        sub = _structured_partitions(instance, element_parts(instance, x_u))
        theta_top = bp_u.theta.get((xi, bp_u.index[y_u]))
        if theta_top is None:
            return False
        factors.append((u, bp_u, xi, sub, sub.index[theta_top]))

    coords = {}
    for k in interval:
        z = bp.elements[k]
        cs = []
        for u, bp_u, xi, sub, top_idx in factors:
            z_u = _restrict_element(instance, z, u)
            theta = bp_u.theta.get((xi, bp_u.index[z_u]))
            if theta is None:
                return False
            ci = sub.index[theta]
            if not sub.poset.leq[ci][top_idx]:
                return False
            cs.append(ci)
        coords[k] = tuple(cs)

    down_sets = [[d for d in range(len(sub)) if sub.poset.leq[d][top_idx]]
                 for (_, __, ___, sub, top_idx) in factors]
    expected = set(cartesian(*down_sets))
    if len(coords) != len(expected) or set(coords.values()) != expected:
        return False
    subs = [f[3] for f in factors]
    for a in interval:
        for b in interval:
            componentwise = all(s.poset.leq[ca][cb]
                                for s, ca, cb in zip(subs, coords[a], coords[b]))
            if bp.poset.leq[a][b] != componentwise:
                return False
    return True


def check_maximal_interval_model(bp: BruteForcePoset, i: int) -> bool:
    """A maximal element's down-set must realize the ideal-lattice model.

    Checks that the sets of component roots of the elements below a labeled
    tree x are exactly the ideals of x ordered by reverse inclusion, that
    branch forests match, and that a shape isomorphism transports everything
    onto the interval of the unlabeled class.
    """
    element = bp.elements[i]
    if len(element) != 1:
        raise ValueError("element is not maximal (more than one component)")
    tree = next(iter(element))
    if not isinstance(tree, LabeledTree):
        raise ValueError("model check applies to the NAP instance")
    ip = interval_of(tree.shape())
    down = bp.poset.down_set(i)
    if len(down) != len(ip):
        return False

    roots = {j: frozenset(c.root for c in bp.elements[j]) for j in down}
    if len(set(roots.values())) != len(down):
        return False
    for a in down:
        for b in down:
            if bp.poset.leq[a][b] != (roots[a] >= roots[b]):
                return False

    phi = find_shape_isomorphism(tree, canonical_representative(tree.shape()))
    if phi is None:
        return False
    ideal_index = {s: k for k, s in enumerate(ip.elements)}
    for j in down:
        mapped = frozenset(phi[v] for v in roots[j])
        k = ideal_index.get(mapped)
        if k is None:
            return False
        if Forest(c.shape() for c in bp.elements[j]) != ip.forests[k]:
            return False
    return True


# ---------------------------------------------------------------------------
# the main theorem: the two structure constants from independent routes,
# f by ideal enumeration and g by the labeled route, and the brute-force
# orbit counts behind both


def count_Ef_Eg(alpha: RootedTree, beta: Forest, gamma: RootedTree) -> tuple[int, int]:
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
    if n > ORBIT_COUNT_LIMIT:
        raise ValueError(f"{n} vertices exceeds ORBIT_COUNT_LIMIT = {ORBIT_COUNT_LIMIT}")

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

    # E_f: exact compositions onto the representative of alpha.  The
    # composite keeps every edge of every inner tree, so an inner tree with
    # an edge that alpha's representative lacks cannot take part.
    ef = 0
    outer = [(u, len(labeled_isomorphisms(u, r_gamma)))
             for u in _labeled_pools(k, 1)[0][0]]  # every labeled tree on {1..k}
    a_parents = r_alpha.parents
    for pools in _labeled_pools(n, k):
        pools = [[t for t in pool
                  if all(a_parents.get(c) == p for c, p in t.parents.items())]
                 for pool in pools]
        for u, psi in outer:
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


@lru_cache(maxsize=None)
def _labeled_pools(n: int, k: int) -> tuple:
    # for each partition of {1..n} into k blocks, ordered by least element,
    # the labeled trees on each block
    out = []
    for blocks in set_partitions(list(range(1, n + 1))):
        if len(blocks) == k:
            parts = sorted((sorted(b) for b in blocks), key=lambda b: b[0])
            out.append(tuple(tuple(labeled_trees(part)) for part in parts))
    return tuple(out)


def f_structure_constants(alpha: RootedTree) -> dict[tuple[Forest, RootedTree], int]:
    """Incidence-coproduct structure constants of a tree.

    Each interval element contributes the pair (branch forest with
    single-vertex components dropped, restriction class); the value counts
    the ideals realizing the pair, so the values sum to the interval size.
    """
    ip = interval_of(alpha)
    out: Counter[tuple[Forest, RootedTree]] = Counter()
    for forest, theta in zip(ip.forests, ip.thetas):
        out[(forest.drop_units(), theta)] += 1
    return dict(out)


def f_coefficient(alpha: RootedTree, beta: Forest, gamma: RootedTree) -> int:
    """Incidence structure constant looked up by the full multiset beta,
    from the ideal enumeration of :func:`naphopf.posets.interval_of`."""
    return f_structure_constants(alpha).get((beta.drop_units(), gamma), 0)


def g_coefficient(alpha: RootedTree, beta: Forest, gamma: RootedTree) -> int:
    """Group-side structure constant looked up by the full multiset beta,
    from the production :func:`naphopf.hopf.g_structure_constants`."""
    if alpha.size < 2:
        raise ValueError("generators are attached to trees of size >= 2")
    return g_structure_constants(alpha).get((beta, gamma), 0)


def admissible_triples(alpha: RootedTree) -> list[tuple[Forest, RootedTree]]:
    """All size-compatible (beta, gamma) pairs for the given alpha."""
    n = alpha.size
    return [(beta, gamma) for gamma in _trees(1, n)
            for beta in enumerate_forests_with_components(n, gamma.size)]


def labeled_g_structure_constants(n: int) -> dict:
    """The function-algebra structure constants of every tree of n vertices,
    {alpha: {(beta, gamma): count}}, by the labeled route: each ordered
    tuple of trees of total size n composed into the representative of each
    gamma counts once for the class it lands in.  Independent of the ideal
    table behind ``hopf.g_structure_constants``.  The enumeration is
    exponential; n above ``LABELED_G_LIMIT`` is refused."""
    if n > LABELED_G_LIMIT:
        raise ValueError(f"{n} vertices exceeds LABELED_G_LIMIT = {LABELED_G_LIMIT}")
    pool = [(t.size, t, 1) for t in _trees(1, n)]
    out: dict = defaultdict(Counter)
    for gamma in _trees(1, n):
        for seq, total, _ in ordered_tuples(gamma.size, n, pool):
            if total == n:
                alpha = _compose_labeled(gamma, seq, canonical_representative)
                out[alpha][(Forest(seq), gamma)] += 1
    return out


# ---------------------------------------------------------------------------
# coproducts and antipodes by enumeration


def _edge_cuts(t: RootedTree) -> Iterable[tuple[int, bool, list, RootedTree]]:
    """Every subset C of the edges of t, cut: (|C|, whether C is admissible,
    the subtrees cut off, the part left with the root).  C is admissible
    when no cut edge lies below another."""
    rep = canonical_representative(t)
    # BFS labels grow downwards, so taking the edges by decreasing child
    # label completes every subtree before its parent edge is reached
    edges = sorted(rep.parents.items(), reverse=True)
    for mask in range(1 << len(edges)):
        kids: dict = {v: [] for v in rep.labels}
        cut_below = dict.fromkeys(rep.labels, False)
        pieces: list = []
        admissible = True
        for i, (c, p) in enumerate(edges):
            if mask >> i & 1:
                pieces.append(RootedTree(kids[c]))
                admissible = admissible and not cut_below[c]
                cut_below[p] = True
            else:
                kids[p].append(RootedTree(kids[c]))
                cut_below[p] = cut_below[p] or cut_below[c]
        yield len(pieces), admissible, pieces, RootedTree(kids[rep.root])


def ck_coproduct_cuts(f: "Forest | RootedTree") -> TensorElement:
    """Connes-Kreimer coproduct by direct admissible-cut enumeration.

    Independent of ``hopf.ck_coproduct``, which builds the cuts branch by
    branch on tree ids; the two must agree.
    """
    if isinstance(f, RootedTree):
        f = Forest((f,))
    out = TensorElement("ck", {(Forest(), Forest()): 1})
    for t in f.components:
        terms: dict = {(Forest((t,)), Forest()): 1}
        for _, admissible, pieces, trunk in _edge_cuts(t):
            if admissible:
                key = (Forest(pieces), Forest((trunk,)))
                terms[key] = terms.get(key, 0) + 1
        out = out * TensorElement("ck", terms)
    return out


def ck_antipode_closed_form(f: "Forest | RootedTree") -> HopfElement:
    """The Connes-Kreimer antipode from its closed form (Connes-Kreimer
    1998): S(t) is the sum over all edge subsets C of t of (-1)^(|C|+1)
    times the forest left after cutting C, multiplied over the components
    of f.  Independent of the recursion on admissible cuts in ``hopf``.
    """
    if isinstance(f, RootedTree):
        f = Forest((f,))
    out = HopfElement.unit("ck")
    for t in f.components:
        terms: dict = {}
        for cut, _, pieces, trunk in _edge_cuts(t):
            key = Forest(pieces + [trunk])
            terms[key] = terms.get(key, 0) + (-1) ** (cut + 1)
        out = out * HopfElement("ck", terms)
    return out


def _hnap_coproduct_by_ideals(t: RootedTree) -> TensorElement:
    """The incidence coproduct of F_[t] from its definition: one
    branch-forest (x) restriction term per ideal of the interval of t.

    ``hopf.hnap_coproduct`` goes through the Connes-Kreimer coproduct
    instead, so this is the oracle it is checked against.
    """
    ip = interval_of(t)
    out: dict = {}
    for forest, theta in zip(ip.forests, ip.thetas):
        key = (forest_as_tree_monomial(forest), theta)
        out[key] = out.get(key, 0) + 1
    return TensorElement("hnap", out)


# ---------------------------------------------------------------------------
# the series product by the labeled route: substitute into a labeled
# representative with nap_compose and take the shape.  It shares nothing
# with the graft engine of trees.TreeTable, so it serves as its oracle.


def _compose_labeled(outer: RootedTree, inner, representative) -> RootedTree:
    """Class of the composition with ``inner[i]`` at the vertex labeled
    i+1 of ``representative(outer)``."""
    subs = {}
    for i, t in enumerate(inner):
        rep = canonical_representative(t)
        subs[i + 1] = rep.relabel({v: (i, v) for v in rep.labels})
    return nap_compose(representative(outer), subs).shape()


def _multiply_labeled(a: TreeSeries, b: TreeSeries, representative) -> TreeSeries:
    """The series product summed over every assignment of b's support to
    the vertices of the chosen representative of each tree of a.  The sum
    is exponential; a truncation above ``LABELED_PRODUCT_LIMIT`` is refused."""
    n = min(a.truncation, b.truncation)
    if n > LABELED_PRODUCT_LIMIT:
        raise ValueError(f"truncation {n} exceeds LABELED_PRODUCT_LIMIT = "
                         f"{LABELED_PRODUCT_LIMIT}")
    pool = [(t.size, t, c) for t, c in b.coeffs.items()]
    out: dict = {}
    for t, at in a.coeffs.items():
        for assignment, _, prod in ordered_tuples(t.size, n, pool):
            c = _compose_labeled(t, assignment, representative)
            out[c] = out.get(c, Fraction(0)) + at * prod
    return TreeSeries(n, out)
