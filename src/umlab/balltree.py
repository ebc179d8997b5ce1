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

from fractions import Fraction

from .errors import InputError, NotUltrametricError
from .frozen import Frozen, setfield
from .metric import DistanceSet, FiniteMetric, validate
from .qo import assign
from .rationals import exact, format_rational

CanonCode = bytes


class BallTree(Frozen):
    __slots__ = ("label", "point", "children")

    # Its own __init__, built per node: without it native-large's trials_per_s fell 7%
    def __init__(self, label: Fraction | None, point: str | None, children: tuple[BallTree, ...]):
        setfield(self, "label", label)  # None at leaves
        setfield(self, "point", point)  # None at internal nodes
        setfield(self, "children", children)

    @property
    def is_leaf(self) -> bool:
        return self.label is None

    @property
    def n_points(self) -> int:
        count, stack = 0, [self]
        while stack:
            node = stack.pop()
            if node.label is None:
                count += 1
            else:
                stack.extend(node.children)
        return count


def leaf(point: str = "p") -> BallTree:
    return BallTree(None, point, ())


def internal(label: Fraction, children) -> BallTree:
    """Build an internal node, enforcing the ball-tree invariants."""
    children = tuple(children)
    label = exact(label)
    if label.numerator <= 0:
        raise InputError("internal label must be positive")
    if len(children) < 2:
        raise InputError("internal node needs at least 2 children")
    for c in children:
        if not c.is_leaf and c.label >= label:
            raise InputError("child labels must be strictly below the parent label")
    return BallTree(label, None, children)


def leaves(t: BallTree) -> list[str]:
    """Leaf point ids in tree order."""
    out: list[str] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if node.label is None:
            out.append(node.point or "")
        else:
            stack.extend(reversed(node.children))
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
    """Cluster an ultrametric matrix into its canonical ball tree.

    Point i becomes the leaf named str(i).  Raises NotUltrametricError
    (with a witness triple) otherwise.  The nodes are the balls that
    `validate` found by `metric.single_linkage`, so an internal node is
    only created where a distance is actually realized and no node ever
    has a single child.  Children are ordered by least point index
    before `canonicalize`.
    """
    report = validate(m.rows)
    if not report.is_ultrametric:
        witness = report.ultrametric_witness()
        raise NotUltrametricError(
            "matrix is not an ultrametric"
            + (f" (witness triple {witness})" if witness else ""),
            witness,
        )
    nodes = [leaf(str(p)) for p in range(m.n)]
    for label, kids in report.balls:
        nodes.append(BallTree(label, None, tuple(nodes[k] for k in kids)))
    return canonicalize(nodes[-1])


def realized_of_tree(t: BallTree) -> DistanceSet:
    """Realized distances straight off the tree labels."""
    labels: list[Fraction] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if node.label is not None:
            labels.append(node.label)
            stack.extend(node.children)
    return DistanceSet.from_values(reversed(labels))  # children first: nearly ascending


def chain(values, prefix: str = "") -> BallTree:
    """The space on increasing values with d(r, r') = max(r, r'): the
    left-combed chain peeling off the maximum at each level.

    The point of value r is named prefix + r.  values[0] only names the
    first point; every later value is a label, checked as `internal`
    checks it.
    """
    values = list(values)
    for k in range(1, len(values)):
        v = values[k] = exact(values[k])
        if v.numerator <= 0:
            raise InputError("internal label must be positive")
        if k > 1 and values[k - 1] >= v:
            raise InputError("child labels must be strictly below the parent label")
    return _chain(values, prefix)


def _chain(values, prefix: str = "") -> BallTree:
    """`chain` on values known to be positive and increasing after the first."""
    t = leaf(prefix + format_rational(values[0]))
    for v in values[1:]:
        t = BallTree(v, None, (t, leaf(prefix + format_rational(v))))
    return t


def canonical_space(ds: DistanceSet) -> BallTree:
    """The space on the set itself, with d(r, r') = max(r, r').

    Realizes exactly the given distances.  The chain is already
    canonical: each level's children are (subtree, leaf), and a
    subtree's code starts with "(", which sorts before a leaf's "L".
    """
    return _chain(ds.values)


def matching_exists(xs, ys, fits) -> bool:
    """Whether every x can be matched to a distinct y with fits(x, y);
    `qo.assign` with unit needs and rooms, asking fits lazily."""
    return assign([1] * len(xs), [1] * len(ys), lambda i, j: fits(xs[i], ys[j])) is not None


def embeds(a: BallTree, b: BallTree) -> bool:
    """Decide isometric embeddability of a into b.

    A leaf embeds anywhere.  An internal node x embeds into a subtree v
    iff v is internal and either carries x's label, with the children
    of x matching injectively into the children of v (each child
    embedding into its assigned subtree), or carries a larger label and
    x embeds into one of v's children.  Labels strictly decrease
    towards the leaves, so v is the only node of its subtree that can
    carry x's label.  Leaf children fit anywhere, so the matching only
    needs x to have no more children than v and its internal children
    to match into v's internal children.  Where that leaves a single
    candidate pair, the descent loops instead of recursing, so a chain
    costs no stack depth.  Results are memoized on node pairs.
    """
    memo: dict[tuple[int, int], bool] = {}

    def can_embed(x: BallTree, v: BallTree) -> bool:
        path: list[tuple[int, int]] = []
        while True:
            if x.is_leaf:
                result = True
                break
            if v.is_leaf or v.label < x.label:
                result = False
                break
            key = (id(x), id(v))
            result = memo.get(key)
            if result is not None:
                break
            path.append(key)
            vs = [w for w in v.children if not w.is_leaf]
            if v.label > x.label:
                if len(vs) == 1:
                    v = vs[0]
                    continue
                result = any(can_embed(x, w) for w in vs)
                break
            if len(x.children) > len(v.children):
                result = False
                break
            xs = [c for c in x.children if not c.is_leaf]
            if len(xs) == 1 == len(vs):
                x, v = xs[0], vs[0]
                continue
            result = matching_exists(xs, vs, can_embed)
            break
        for key in path:
            memo[key] = result
        return result

    return can_embed(a, b)
