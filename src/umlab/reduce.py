"""The finitary reduction constructions, with brute-force counterparts.

Every transformation here sends a combinatorial object (rooted tree,
list of spaces, distance subset) to an ultrametric space and builds its
ball tree directly, by grafting and relabelling balls; only the graph
encoding, which is not ultrametric, yields a distance matrix.  Each is
paired by the verification campaigns with the preserve/reflect law it
must satisfy against brute-force oracles.

Fresh points added by a construction get identifiers starting with "*".
Point ids serve for reporting only and are never checked for uniqueness:
an input may use the same prefix, and a tail of a tail repeats its ids.
"""

from __future__ import annotations

from fractions import Fraction

from .balltree import (
    BallTree,
    _chain,
    canonical_code,
    canonical_space,
    canonicalize,
    embeds,
    internal,
    leaf,
    matching_exists,
    realized_of_tree,
)
from .errors import InputError
from .frozen import Frozen, setfield
from .metric import DistanceSet, FiniteMetric
from .rationals import exact, format_rational


class RootedTree(Frozen):
    """Rooted tree as a parent array: parents[0] is None, parents[i] < i."""

    __slots__ = ("parents",)

    def __init__(self, parents: tuple[int | None, ...]):
        if not parents or parents[0] is not None:
            raise InputError("node 0 must be the root (parent null)")
        for i, p in enumerate(parents[1:], start=1):
            if not isinstance(p, int) or not 0 <= p < i:
                raise InputError(f"parent of node {i} must be an earlier node, got {p!r}")
        setfield(self, "parents", parents)

    @property
    def n(self) -> int:
        return len(self.parents)

    def children(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for i, p in enumerate(self.parents[1:], start=1):
            out[p].append(i)
        return out

    def depths(self) -> list[int]:
        d = [0] * self.n
        for i, p in enumerate(self.parents[1:], start=1):
            d[i] = d[p] + 1
        return d

    def depth(self) -> int:
        return max(self.depths())

    def ranks(self) -> list[int]:
        """Well-founded rank of every node: leaves 0, parents 1 + max child."""
        kids = self.children()
        rk = [0] * self.n
        for i in range(self.n - 1, -1, -1):
            rk[i] = 1 + max((rk[c] for c in kids[i]), default=-1)
        return rk

    def rank(self) -> int:
        return self.ranks()[0]


class Graph(Frozen):
    """Simple undirected graph as adjacency bitset rows: bit b of adj[a]
    is set exactly when a and b are adjacent (never bit a of adj[a])."""

    __slots__ = ("n", "adj")

    @classmethod
    def from_edges(cls, n: int, pairs) -> "Graph":
        if n < 1:
            raise InputError("graph needs at least one vertex")
        adj = [0] * n
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise InputError(f"edge ({a},{b}) out of range for {n} vertices")
            if a == b:
                raise InputError(f"loop at vertex {a}")
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return cls(n, tuple(adj))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as pairs (a, b) with a < b, in increasing order."""
        return tuple(
            (a, b) for a, row in enumerate(self.adj) for b in range(a + 1, self.n) if row >> b & 1
        )


def check_decreasing(radii) -> tuple[Fraction, ...]:
    radii = tuple(map(exact, radii))
    if not radii or any(r <= 0 for r in radii):
        raise InputError("need a nonempty sequence of positive distances")
    if any(nxt >= cur for cur, nxt in zip(radii, radii[1:])):
        raise InputError("distance sequence must be strictly decreasing")
    return radii


# ---------------------------------------------------------------------------
# Rooted tree isomorphism / embeddability, canonical and brute force.
# ---------------------------------------------------------------------------

def _ahu(t: RootedTree, ids: dict[tuple[int, ...], int]) -> int:
    """The class id of t's root: bottom-up (parents[i] < i), a node's id is
    `ids`' number for the sorted tuple of its children's ids."""
    kids = t.children()
    cls = [0] * t.n
    for i in range(t.n - 1, -1, -1):
        cls[i] = ids.setdefault(tuple(sorted([cls[c] for c in kids[i]])), len(ids))
    return cls[0]


def rooted_tree_iso(g: RootedTree, h: RootedTree) -> bool:
    """Root-preserving isomorphism, decided by shared class ids."""
    ids: dict[tuple[int, ...], int] = {}
    return _ahu(g, ids) == _ahu(h, ids)


def rooted_tree_embeds(g: RootedTree, h: RootedTree) -> bool:
    """Root-preserving, parent-preserving injective map from g into h.

    Decided by bipartite matching of children, pair by pair on an
    explicit stack, so a deep tree costs no recursion.  A leaf fits
    anywhere.  A matching counts an undecided pair of children as not
    fitting; if it succeeds anyway, or asked for no such pair, it is
    decided.  Otherwise some rows of child pairs (one child of g against
    every child of h) are decided first and it runs again: the first
    row with undecided pairs, and as many more as the rows decided
    already, so a pair is matched again only logarithmically often.
    """
    gk, hk = g.children(), h.children()
    memo: dict[tuple[int, int], bool] = {}
    stack = [(0, 0)]
    while stack:
        u, v = stack[-1]
        asked = False

        def fits(c: int, d: int) -> bool:
            nonlocal asked
            if not gk[c]:
                return True
            known = memo.get((c, d))
            asked = asked or known is None
            return bool(known)

        ok = matching_exists(gk[u], hk[v], fits)
        if ok or not asked:
            memo[u, v] = ok
            stack.pop()
            continue
        rows = [c for c in gk[u] if gk[c]]
        pending = [c for c in rows if any((c, d) not in memo for d in hk[v])]
        for c in pending[: max(1, len(rows) - len(pending))]:
            stack.extend((c, d) for d in hk[v] if (c, d) not in memo)
    return memo[0, 0]


def brute_rooted_iso(g: RootedTree, h: RootedTree) -> bool:
    """Oracle: search all root-preserving bijections.

    A total injective parent-preserving map between equal-sized trees is
    automatically an isomorphism.
    """
    return g.n == h.n and _brute_tree_injection(g, h)


def brute_rooted_embeds(g: RootedTree, h: RootedTree) -> bool:
    """Oracle: search all root-preserving parent-preserving injections."""
    return g.n <= h.n and _brute_tree_injection(g, h)


def _brute_tree_injection(g: RootedTree, h: RootedTree) -> bool:
    hk = h.children()
    image: dict[int, int] = {0: 0}
    used = [False] * h.n
    used[0] = True

    def extend(u: int) -> bool:
        # node indices are ordered parents-first, so image[parent] exists
        if u == g.n:
            return True
        pu = image[g.parents[u]]
        for v in hk[pu]:
            if not used[v]:
                used[v] = True
                image[u] = v
                if extend(u + 1):
                    return True
                del image[u]
                used[v] = False
        return False

    return extend(1) if g.n > 1 else True


# ---------------------------------------------------------------------------
# Tree-to-space constructions.
# ---------------------------------------------------------------------------

def _tree_space(t: RootedTree, labels, ids) -> BallTree:
    """The ball tree of a tree encoding: a node i with children is the
    ball labelled labels[i] holding i itself and its children's balls.

    labels must strictly decrease from parent to child.  Nodes are
    visited children first (parents[i] < i), without recursion.
    """
    kids = t.children()
    balls: list[BallTree] = [leaf(p) for p in ids]
    for i in range(t.n - 1, -1, -1):
        if kids[i]:
            balls[i] = internal(labels[i], [balls[i]] + [balls[c] for c in kids[i]])
    return canonicalize(balls[0])


def tree_ultrametric(t: RootedTree, radii) -> BallTree:
    """The space on the nodes of t with d(s, u) = radii[depth of their
    deepest common ancestor]; radii must be strictly decreasing.

    A node is a strict ancestor of another exactly when their distance
    equals the radius at its own depth.
    """
    radii = check_decreasing(radii)
    if len(radii) < t.depth() + 1:
        raise InputError(
            f"need at least {t.depth() + 1} radii for a tree of depth {t.depth()}"
        )
    return _tree_space(t, [radii[d] for d in t.depths()], [str(i) for i in range(t.n)])


def rank_extend(t: RootedTree) -> tuple[RootedTree, list[int]]:
    """Append one fresh child under each leaf; return (tree, node ranks).

    The appended nodes come last; every original node's rank goes up by
    exactly one.
    """
    kids = t.children()
    parents = list(t.parents) + [i for i in range(t.n) if not kids[i]]
    extended = RootedTree(tuple(parents))
    return extended, extended.ranks()


def rank_ultrametric(t: RootedTree, radii) -> BallTree:
    """Encode tree ranks as distances: extend t with one child per leaf,
    then d(s, u) = radii[rank of their deepest common ancestor].

    radii must be strictly increasing from radii[0] = 0, with more
    entries than rank(t) + 1.  The smallest positive distance radii[1]
    occurs exactly between an original leaf and its appended child.
    """
    radii = tuple(map(exact, radii))
    if not radii or radii[0] != 0:
        raise InputError("rank radii must start at 0")
    if any(lo >= hi for lo, hi in zip(radii, radii[1:])):
        raise InputError("rank radii must be strictly increasing")
    if len(radii) <= t.rank() + 1:
        raise InputError(
            f"need more than {t.rank() + 1} radii for a tree of rank {t.rank()}"
        )
    extended, ranks = rank_extend(t)
    ids = [str(i) if i < t.n else f"*{i}" for i in range(extended.n)]
    return _tree_space(extended, [radii[r] for r in ranks], ids)


# ---------------------------------------------------------------------------
# Space surgery: gluing, tails, unions, decompositions.
# ---------------------------------------------------------------------------

def _node(label: Fraction, children) -> BallTree:
    """internal(label, children), with every child whose root already
    carries label spliced in: it is the same ball one level down."""
    kids: list[BallTree] = []
    for c in children:
        if not c.is_leaf and c.label == label:
            kids.extend(c.children)
        else:
            kids.append(c)
    return internal(label, kids)


def _realized_within(t: BallTree, ds: DistanceSet) -> DistanceSet:
    realized = realized_of_tree(t)
    if any(v not in ds for v in realized):
        raise InputError("distances of the space must lie in the distance set")
    return realized


def glue_canonical(u: BallTree, ds: DistanceSet, rbar: Fraction) -> BallTree:
    """Glue u to the canonical space on ds minus its least positive value,
    with cross distances max(rbar, value).

    Requires rbar in ds and rbar above every distance of u, and the
    distances of u drawn from ds.  The result realizes every value of
    ds except possibly the removed one (which u itself may realize).
    """
    rbar = exact(rbar)
    if len(ds) < 2:
        raise InputError("glue needs a distance set with at least 2 values")
    if rbar not in ds:
        raise InputError("rbar must belong to the distance set")
    realized = _realized_within(u, ds)
    if realized.positive and realized.positive[-1] >= rbar:
        raise InputError("rbar must exceed every distance of the space")
    tail = [v for v in ds.values if v != ds.positive[0]]
    out = _node(rbar, (u, _chain([v for v in tail if v <= rbar], "*")))
    for v in tail:  # each tail value above rbar is peeled off the rest on top
        if v > rbar:
            out = internal(v, (out, leaf(f"*{format_rational(v)}")))
    return canonicalize(out)


def add_tail(x: BallTree, ds: DistanceSet) -> BallTree:
    """Disjoint union of x with the canonical space on ds minus its
    maximum, all cross distances equal to that maximum.

    The output realizes every value of ds.
    """
    if len(ds) < 2:
        raise InputError("tail needs a distance set with at least 2 values")
    _realized_within(x, ds)
    return canonicalize(_node(ds.positive[-1], (x, _chain(ds.values[:-1], "*"))))


def union_at_distance(spaces, r: Fraction) -> BallTree:
    """Disjoint union with all cross distances r; a singleton list is
    returned unchanged.  Every distance inside a component must be < r.
    """
    spaces = list(spaces)
    r = exact(r)
    if not spaces:
        raise InputError("need at least one space")
    if r <= 0:
        raise InputError("cross distance must be positive")
    for k, s in enumerate(spaces):
        realized = realized_of_tree(s)
        if realized.positive and realized.positive[-1] >= r:
            raise InputError(f"component {k} realizes a distance >= {format_rational(r)}")
    if len(spaces) == 1:
        return canonicalize(spaces[0])
    kids = []
    for k, s in enumerate(spaces):
        prefixed = _prefix_points(s, f"{k}:")
        kids.append(prefixed)
    return canonicalize(internal(r, kids))


def _prefix_points(t: BallTree, prefix: str) -> BallTree:
    if t.is_leaf:
        return leaf(prefix + (t.point or ""))
    return BallTree(t.label, None, tuple(_prefix_points(c, prefix) for c in t.children))


def decompose_space(x: BallTree, ds: DistanceSet) -> list[BallTree]:
    """Split x into its maximal balls of diameter below the top distance
    and mark each with a fresh point at the second-largest distance.

    Inverse direction of the union construction: embeddability (resp.
    isometry) of spaces corresponds to injective (resp. perfect)
    matching of the decomposed lists.
    """
    if len(ds) < 3:
        raise InputError("decompose needs a distance set with at least 3 values")
    top, second = ds.positive[-1], ds.positive[-2]
    _realized_within(x, ds)
    classes = x.children if not x.is_leaf and x.label == top else (x,)
    return [
        canonicalize(_node(second, (c, leaf(f"*{k}")))) for k, c in enumerate(classes)
    ]


# ---------------------------------------------------------------------------
# Graphs and subsets.
# ---------------------------------------------------------------------------

def is_trivial_graph(g: Graph) -> bool:
    """Trivial for the metric encoding: a single vertex, no edges at all,
    or a complete clique."""
    return sum(map(int.bit_count, g.adj)) in (0, g.n * (g.n - 1))


def graph_metric(g: Graph, r: Fraction, rp: Fraction) -> FiniteMetric:
    """Distance r between adjacent vertices, rp between non-adjacent ones.

    Requires 0 < r < rp <= 2r, which makes the result a metric (though
    generally not an ultrametric).
    """
    r, rp = exact(r), exact(rp)
    if not 0 < r < rp or rp > 2 * r:
        raise InputError("need 0 < r < rp <= 2r")
    return FiniteMetric(g.n, tuple(
        tuple(Fraction(0) if i == j else (r if row >> j & 1 else rp) for j in range(g.n))
        for i, row in enumerate(g.adj)
    ))


def brute_graph_iso(g: Graph, h: Graph) -> bool:
    """Oracle: equal sorted degrees imply equal sizes, and between graphs
    of equal size an induced embedding is a bijection: an isomorphism."""
    degrees = sorted(map(int.bit_count, g.adj))
    return degrees == sorted(map(int.bit_count, h.adj)) and brute_graph_embeds(g, h)


def brute_graph_embeds(g: Graph, h: Graph) -> bool:
    """Oracle: search all injections realizing g as an induced subgraph,
    one vertex at a time: u may go to an unused v whose row on the image
    so far is the image of u's row on the vertices before u."""
    image: list[int] = []

    def extend(u: int, used: int) -> bool:
        if u == g.n:
            return True
        row = g.adj[u]
        want = sum(1 << image[w] for w in range(u) if row >> w & 1)
        for v, hrow in enumerate(h.adj):
            if not used >> v & 1 and hrow & used == want:
                image.append(v)
                if extend(u + 1, used | 1 << v):
                    return True
                image.pop()
        return False

    return g.n <= h.n and extend(0, 0)


def subset_space(values) -> BallTree:
    """The canonical space on a set of positive distances (plus 0).

    Set inclusion corresponds exactly to isometric embeddability of the
    resulting spaces.
    """
    vals = list(map(exact, values))
    if any(v.numerator <= 0 for v in vals):
        raise InputError("subset values must be positive")
    return canonical_space(DistanceSet.from_values(vals))


# ---------------------------------------------------------------------------
# List-level matchers used by the preserve/reflect laws.
# ---------------------------------------------------------------------------

def list_embeds(xs, ys) -> bool:
    """Injective matching of xs into ys where each pair must embed."""
    return matching_exists(list(xs), list(ys), embeds)


def list_isometric(xs, ys) -> bool:
    """Perfect matching under isometry: equal multisets of canonical codes."""
    xs, ys = list(xs), list(ys)
    return sorted(canonical_code(x) for x in xs) == sorted(
        canonical_code(y) for y in ys
    )
