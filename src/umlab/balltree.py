"""Canonical ball trees for finite ultrametric spaces.

A ball tree has points at the leaves and positive distances at the
internal nodes; the distance of two points is the label of their least
common ancestor, and labels strictly decrease towards the leaves.  With
children kept sorted by canonical code the tree itself is a canonical
form: two spaces are isometric exactly when their codes are equal
(verified against `metric.brute_isometric` by the test campaigns).

Point identifiers are retained in leaves for reporting but ignored by
every decision procedure.  All values are immutable; the embeddability
check memoizes per call only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, NotUltrametricError
from .metric import DistanceSet, FiniteMetric, validate
from .rationals import format_rational

CanonCode = bytes


@dataclass(frozen=True)
class BallTree:
    label: Fraction | None  # None at leaves
    point: str | None  # None at internal nodes
    children: tuple["BallTree", ...]

    @property
    def is_leaf(self) -> bool:
        return self.label is None

    @property
    def n_points(self) -> int:
        if self.is_leaf:
            return 1
        return sum(c.n_points for c in self.children)


def leaf(point: str = "p") -> BallTree:
    return BallTree(None, point, ())


def internal(label: Fraction, children) -> BallTree:
    """Build an internal node, enforcing the ball-tree invariants."""
    children = tuple(children)
    label = Fraction(label)
    if label <= 0:
        raise InputError("internal label must be positive")
    if len(children) < 2:
        raise InputError("internal node needs at least 2 children")
    for c in children:
        if not c.is_leaf and c.label >= label:
            raise InputError("child labels must be strictly below the parent label")
    return BallTree(label, None, children)


def leaves(t: BallTree) -> list[str]:
    """Leaf point ids in tree order."""
    if t.is_leaf:
        return [t.point or ""]
    out: list[str] = []
    for c in t.children:
        out.extend(leaves(c))
    return out


def canonical_code(t: BallTree) -> CanonCode:
    """A byte string invariant under child reordering and point relabeling.

    The encoding is unambiguous (framed), so equal codes mean equal
    canonical trees, i.e. isometric spaces.
    """
    if t.is_leaf:
        return b"L"
    inner = b"".join(sorted(canonical_code(c) for c in t.children))
    return b"(" + format_rational(t.label).encode() + b";" + inner + b")"


def canonicalize(t: BallTree) -> BallTree:
    """Return the same space with children sorted by canonical code."""
    if t.is_leaf:
        return t
    kids = sorted(
        (canonicalize(c) for c in t.children), key=canonical_code
    )
    return BallTree(t.label, None, tuple(kids))


def isometric(a: BallTree, b: BallTree) -> bool:
    return canonical_code(a) == canonical_code(b)


def from_ball_tree(t: BallTree) -> FiniteMetric:
    """The distance matrix induced by least-common-ancestor labels."""
    n = t.n_points
    rows = [[Fraction(0)] * n for _ in range(n)]
    counter = [0]

    def fill(node: BallTree) -> list[int]:
        if node.is_leaf:
            idx = counter[0]
            counter[0] += 1
            return [idx]
        groups = [fill(c) for c in node.children]
        for gi in range(len(groups)):
            for gj in range(gi + 1, len(groups)):
                for i in groups[gi]:
                    for j in groups[gj]:
                        rows[i][j] = rows[j][i] = node.label
        return [i for g in groups for i in g]

    fill(t)
    return FiniteMetric(n, tuple(tuple(row) for row in rows))


def to_ball_tree(m: FiniteMetric) -> BallTree:
    """Cluster a validated ultrametric matrix into its canonical ball tree.

    Point i becomes the leaf named str(i).  Raises NotUltrametricError
    (with a witness triple) otherwise.  Degenerate levels collapse
    automatically: an internal node is only created where a distance is
    actually realized, so no node ever has a single child.
    """
    report = validate(m.rows)
    if not report.is_ultrametric:
        witness = report.ultrametric_witness()
        raise NotUltrametricError(
            "matrix is not an ultrametric"
            + (f" (witness triple {witness})" if witness else ""),
            witness,
        )

    def build(points: list[int]) -> BallTree:
        if len(points) == 1:
            return leaf(str(points[0]))
        radius = max(m.rows[i][j] for i in points for j in points)
        # d < radius is an equivalence on `points`: group by class.
        groups: list[list[int]] = []
        for p in points:
            for g in groups:
                if m.rows[p][g[0]] < radius:
                    g.append(p)
                    break
            else:
                groups.append([p])
        return internal(radius, (build(g) for g in groups))

    return canonicalize(build(list(range(m.n))))


def realized_of_tree(t: BallTree) -> DistanceSet:
    """Realized distances straight off the tree labels."""
    labels: set[Fraction] = set()

    def walk(node: BallTree) -> None:
        if not node.is_leaf:
            labels.add(node.label)
            for c in node.children:
                walk(c)

    walk(t)
    return DistanceSet.from_values(labels)


def chain(values, prefix: str = "") -> BallTree:
    """The space on increasing values with d(r, r') = max(r, r'): the
    left-combed chain peeling off the maximum at each level.

    The point of value r is named prefix + r.
    """
    values = list(values)
    t = leaf(prefix + format_rational(values[0]))
    for v in values[1:]:
        t = internal(v, (t, leaf(prefix + format_rational(v))))
    return t


def canonical_space(ds: DistanceSet) -> BallTree:
    """The space on the set itself, with d(r, r') = max(r, r').

    Realizes exactly the given distances.
    """
    return canonicalize(chain(ds.values))


def matching_exists(xs, ys, fits) -> bool:
    """Whether every x can be matched to a distinct y with fits(x, y).

    Kuhn's augmenting paths; fits is evaluated lazily, pair by pair.
    """
    if len(xs) > len(ys):
        return False
    match_of: list[int | None] = [None] * len(ys)

    def augment(xi: int, seen: list[bool]) -> bool:
        for yi in range(len(ys)):
            if seen[yi] or not fits(xs[xi], ys[yi]):
                continue
            seen[yi] = True
            if match_of[yi] is None or augment(match_of[yi], seen):
                match_of[yi] = xi
                return True
        return False

    return all(augment(xi, [False] * len(ys)) for xi in range(len(xs)))


def embeds(a: BallTree, b: BallTree) -> bool:
    """Decide isometric embeddability of a into b.

    A leaf embeds anywhere.  An internal node with label r embeds into a
    subtree v iff some node w within v carries label exactly r and the
    children of a match injectively into the children of w, each child
    embedding into its assigned subtree.  The injective assignment is a
    maximum bipartite matching; results are memoized on node pairs.
    """
    internal_nodes_within: dict[int, list[BallTree]] = {}

    def collect(v: BallTree) -> list[BallTree]:
        got = [] if v.is_leaf else [v]
        for c in v.children:
            got.extend(collect(c))
        internal_nodes_within[id(v)] = got
        return got

    collect(b)
    memo: dict[tuple[int, int], bool] = {}

    def can_embed(x: BallTree, v: BallTree) -> bool:
        if x.is_leaf:
            return True
        key = (id(x), id(v))
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = any(
            w.label == x.label and matching_exists(x.children, w.children, can_embed)
            for w in internal_nodes_within[id(v)]
        )
        memo[key] = result
        return result

    return can_embed(a, b)
