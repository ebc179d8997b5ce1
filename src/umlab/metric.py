"""Finite metric and ultrametric spaces with exact rational distances.

A space is a square matrix of Fractions.  `validate` checks the metric
and ultrametric axioms and reports every violated inequality.  It
recognizes an ultrametric in O(n^2) by single linkage, whose merges are
also its ball tree, and runs the cubic triangle scans only on a matrix
that is not one.  `brute_isometric` / `brute_embeds` are the
permutation-search oracles that everything else is verified against.
Both oracles carry a hard size bound and refuse larger inputs instead
of hanging.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import InputError, SizeBoundError
from .frozen import Frozen, setfield
from .rationals import exact, format_rational

DEFAULT_BRUTE_BOUND = 8
_ZERO = Fraction(0)

# A ball of `single_linkage`: its label and its children, where a child
# below n is a point and n + k is the k-th ball.
Ball = tuple[Fraction, tuple[int, ...]]


class DistanceSet(Frozen):
    """A strictly increasing tuple of distances, always starting at 0."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[Fraction, ...]):
        if not values or values[0] != 0:
            raise InputError("distance set must start at 0")
        for lo, hi in zip(values, values[1:]):
            if lo >= hi:
                raise InputError("distance set must be strictly increasing")
        setfield(self, "values", values)

    @classmethod
    def from_values(cls, values) -> "DistanceSet":
        """Build a distance set from Fractions or ints, adding 0.

        Duplicates go by (numerator, denominator): exact, since a
        Fraction is always in lowest terms, and a tuple of ints hashes
        far faster than a Fraction.
        """
        distinct = {(v.numerator, v.denominator): v for v in map(exact, values)}
        distinct.pop((0, 1), None)
        ordered = sorted(distinct.values())  # fewest comparisons on ascending input
        if ordered and ordered[0].numerator < 0:
            raise InputError("distances must be nonnegative")
        return _trusted((_ZERO, *ordered))

    @property
    def positive(self) -> tuple[Fraction, ...]:
        return self.values[1:]

    def __contains__(self, value) -> bool:
        return value in self.values

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return "{" + ", ".join(format_rational(v) for v in self.values) + "}"


def _trusted(values: tuple[Fraction, ...]) -> DistanceSet:
    """A DistanceSet from values already known to be one, without the checks."""
    ds = object.__new__(DistanceSet)
    setfield(ds, "values", values)
    return ds


class Violation(Frozen):
    """One failed axiom instance: a kind ("symmetry", "diagonal", "positivity",
    "triangle" or "ultrametric"), indices and the two compared sides."""

    __slots__ = ("kind", "indices", "lhs", "rhs")

    def describe(self) -> str:
        ix = ",".join(str(i) for i in self.indices)
        return (
            f"{self.kind} violated at ({ix}): "
            f"{format_rational(self.lhs)} > {format_rational(self.rhs)}"
            if self.kind in ("triangle", "ultrametric")
            else f"{self.kind} violated at ({ix})"
        )


class ValidationReport(Frozen):
    __slots__ = ("is_metric", "is_ultrametric", "violations", "realized", "balls")

    def __init__(
        self,
        is_metric: bool,
        is_ultrametric: bool,
        violations: tuple[Violation, ...],
        realized: DistanceSet,
        balls: tuple[Ball, ...] | None = None,
    ):
        setfield(self, "is_metric", is_metric)
        setfield(self, "is_ultrametric", is_ultrametric)
        setfield(self, "violations", violations)
        setfield(self, "realized", realized)
        setfield(self, "balls", balls)  # `single_linkage`'s, on an ultrametric

    def ultrametric_witness(self) -> tuple[int, int, int] | None:
        for v in self.violations:
            if v.kind == "ultrametric" and len(v.indices) == 3:
                return v.indices  # type: ignore[return-value]
        return None


class FiniteMetric(Frozen):
    """A finite space (n points, exact matrix); only `from_rows` validates it."""

    __slots__ = ("n", "rows")

    @classmethod
    def from_rows(cls, rows) -> "FiniteMetric":
        rows = _coerce_matrix(rows)
        report = validate(rows)
        if not report.is_metric:
            raise InputError("not a metric: " + report.violations[0].describe())
        return cls(len(rows), rows)


def _coerce_matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Check shape and entry types; negative entries are an input error."""
    rows = tuple(tuple(map(exact, row)) for row in rows)
    n = len(rows)
    if n == 0:
        raise InputError("matrix must have at least one point")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InputError(f"matrix row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if v.numerator < 0:  # `exact` made v a Fraction; no Python-level comparison
                raise InputError(f"matrix[{i}][{j}] is negative")
    return rows


def validate(rows) -> ValidationReport:
    """Check the metric and ultrametric axioms on a candidate matrix.

    Reports symmetry / zero-diagonal / positivity / triangle failures
    (any of which make `is_metric` false) and strong-triangle failures
    (which only affect `is_ultrametric`).  `realized` is the set of
    entries together with 0 regardless of validity.

    An ultrametric is recognized by `single_linkage` in O(n^2), which
    also proves the pair axioms and yields `balls`; only a matrix that
    is not one pays the pair checks and the cubic scans that list its
    violations.
    """
    rows = _coerce_matrix(rows)
    balls = single_linkage(rows)
    if balls is not None:
        realized = DistanceSet.from_values(label for label, _ in balls)
        return ValidationReport(True, True, (), realized, balls)
    n = len(rows)
    violations: list[Violation] = []
    for i in range(n):
        if rows[i][i] != 0:
            violations.append(Violation("diagonal", (i, i), rows[i][i], Fraction(0)))
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                violations.append(Violation("symmetry", (i, j), rows[i][j], rows[j][i]))
            elif rows[i][j] == 0:
                violations.append(Violation("positivity", (i, j), rows[i][j], Fraction(0)))
    if not violations:
        _scan_triples(rows, violations)
    metric_ok = all(v.kind == "ultrametric" for v in violations)
    realized = DistanceSet.from_values(v for row in rows for v in row)
    return ValidationReport(metric_ok, not violations, tuple(violations), realized)


def _scan_triples(rows, violations: list[Violation]) -> None:
    """Append every triangle violation, or, if there is none, every
    strong-triangle violation, each triple in lexicographic order."""
    for i, j, k in itertools.permutations(range(len(rows)), 3):
        if i < k and rows[i][k] > rows[i][j] + rows[j][k]:
            violations.append(
                Violation("triangle", (i, j, k), rows[i][k], rows[i][j] + rows[j][k])
            )
    if violations:
        return
    for i, j, k in itertools.permutations(range(len(rows)), 3):
        if i < k and rows[i][k] > max(rows[i][j], rows[j][k]):
            violations.append(
                Violation(
                    "ultrametric", (i, j, k), rows[i][k], max(rows[i][j], rows[j][k])
                )
            )


def single_linkage(rows) -> tuple[Ball, ...] | None:
    """The balls of an ultrametric matrix, or None if it is not one.

    Single linkage (Gower & Ross 1969) in O(n^2): Prim's minimum spanning
    tree on the integer ranks of the entries, whose edges are then merged
    in rank order.  Each merge checks every pair it joins (both ways
    round) against the merge rank, so each pair is checked once; all
    checks pass exactly when the matrix is an ultrametric, and then the
    clusters are its balls.  Merges at one rank that share a cluster
    form one ball, whose children are ordered by least point index.
    Balls come children first, so the last one is the whole space.
    """
    n = len(rows)
    if any(rows[i][i] != 0 for i in range(n)):
        return None
    index: dict[tuple[int, int], int] = {}  # (numerator, denominator) -> first-seen id
    seen: list[Fraction] = []  # first-seen id -> value
    cells = []
    for row in rows:
        cell = []
        for v in row:
            key = (v.numerator, v.denominator)
            c = index.get(key)
            if c is None:
                c = index[key] = len(seen)
                seen.append(v)
            cell.append(c)
        cells.append(cell)
    order = sorted(range(len(seen)), key=seen.__getitem__)
    values = [seen[c] for c in order]
    if values[0].numerator != 0:
        return None
    rank = [0] * len(values)
    for r, c in enumerate(order):
        rank[c] = r
    ranks = [[rank[c] for c in row] for row in cells]
    best, link, todo, edges = ranks[0][:], [0] * n, list(range(1, n)), []
    while todo:
        j = min(todo, key=best.__getitem__)
        todo.remove(j)
        edges.append((best[j], link[j], j))
        row = ranks[j]
        for k in todo:
            if row[k] < best[k]:
                best[k], link[k] = row[k], j
    edges.sort()
    cluster = list(range(n))  # point -> the point naming its cluster
    members = [[p] for p in range(n)]
    node = list(range(n))  # cluster name -> id of its point or ball
    least = list(range(n))  # id -> least point index below it
    balls: list[Ball] = []
    for r, group in itertools.groupby(edges, key=lambda e: e[0]):
        if r == 0:
            return None
        opened: dict[int, list[int]] = {}
        for _, u, v in group:
            a, b = cluster[u], cluster[v]
            if len(members[a]) < len(members[b]):
                a, b = b, a
            for p in members[a]:
                row = ranks[p]
                for q in members[b]:
                    if row[q] != r or ranks[q][p] != r:
                        return None
            for q in members[b]:
                cluster[q] = a
            members[a] += members[b]
            opened[a] = opened.pop(a, [node[a]]) + opened.pop(b, [node[b]])
        for a, kids in opened.items():
            kids.sort(key=least.__getitem__)
            node[a] = n + len(balls)
            least.append(least[kids[0]])
            balls.append((values[r], tuple(kids)))
    return tuple(balls)


def realized_distances(m: FiniteMetric) -> DistanceSet:
    """The set of distances realized by the space, always containing 0."""
    return DistanceSet.from_values(v for row in m.rows for v in row)


def _point_signature(m: FiniteMetric, i: int) -> tuple[Fraction, ...]:
    return tuple(sorted(m.rows[i]))


def brute_isometric(a: FiniteMetric, b: FiniteMetric, *, bound: int = DEFAULT_BRUTE_BOUND) -> bool:
    """Exhaustive search for a distance-preserving bijection.

    Works for arbitrary metrics, not only ultrametrics.  Refuses inputs
    with more than `bound` points.
    """
    if a.n > bound or b.n > bound:
        raise SizeBoundError(f"brute_isometric refuses spaces above {bound} points")
    if a.n != b.n:
        return False
    if sorted(_point_signature(a, i) for i in range(a.n)) != sorted(
        _point_signature(b, j) for j in range(b.n)
    ):
        return False
    return _search_injection(a, b)


def brute_embeds(a: FiniteMetric, b: FiniteMetric, *, bound: int = DEFAULT_BRUTE_BOUND) -> bool:
    """Exhaustive search for a distance-preserving injection of a into b."""
    if a.n > bound or b.n > bound:
        raise SizeBoundError(f"brute_embeds refuses spaces above {bound} points")
    if a.n > b.n:
        return False
    return _search_injection(a, b)


def _search_injection(a: FiniteMetric, b: FiniteMetric) -> bool:
    image: list[int] = []
    used = [False] * b.n

    def extend(i: int) -> bool:
        if i == a.n:
            return True
        for j in range(b.n):
            if used[j]:
                continue
            if all(a.rows[i][k] == b.rows[j][image[k]] for k in range(i)):
                used[j] = True
                image.append(j)
                if extend(i + 1):
                    return True
                image.pop()
                used[j] = False
        return False

    return extend(0)


def is_well_spaced(ds: DistanceSet) -> bool:
    """Whether every consecutive pair r < r' of positive values has 2r < r'."""
    pos = ds.positive
    return all(2 * lo < hi for lo, hi in zip(pos, pos[1:]))


class TriangleAudit(Frozen):
    __slots__ = ("all_isosceles", "witness")


def triangle_audit(ds: DistanceSet) -> TriangleAudit:
    """Check whether every triangle buildable from the set is isosceles.

    Enumerates all multisets {r1 <= r2 <= r3} of positive values
    satisfying the triangle inequality r3 <= r1 + r2 and demands
    r2 = r3 (the two largest sides coincide).  Returns the
    lexicographically least violating triple otherwise.
    """
    if len(ds) < 2:
        raise InputError("triangle audit needs at least one positive distance")
    pos = ds.positive
    witness: tuple[Fraction, Fraction, Fraction] | None = None
    for r1, r2, r3 in itertools.combinations_with_replacement(pos, 3):
        if r3 <= r1 + r2 and r2 != r3:
            witness = (r1, r2, r3)
            break
    return TriangleAudit(witness is None, witness)
