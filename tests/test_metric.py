import random
from fractions import Fraction as F

import pytest

from umlab.errors import InputError, SizeBoundError
from umlab.metric import (
    DistanceSet,
    FiniteMetric,
    brute_embeds,
    brute_isometric,
    is_well_spaced,
    realized_distances,
    triangle_audit,
    validate,
)


def _m(rows):
    return FiniteMetric.from_rows([[F(v) for v in row] for row in rows])


def test_validate_two_point_space():
    report = validate([[F(0), F(1)], [F(1), F(0)]])
    assert report.is_metric and report.is_ultrametric
    assert report.realized.values == (F(0), F(1))


def test_validate_canonical_three_point_space():
    report = validate([[F(0), F(1), F(2)], [F(1), F(0), F(2)], [F(2), F(2), F(0)]])
    assert report.is_ultrametric


def test_validate_path_metric_not_ultrametric():
    report = validate([[F(0), F(1), F(2)], [F(1), F(0), F(1)], [F(2), F(1), F(0)]])
    assert report.is_metric and not report.is_ultrametric
    assert report.ultrametric_witness() == (0, 1, 2)


def test_validate_reports_symmetry_and_diagonal():
    report = validate([[F(0), F(1)], [F(2), F(0)]])
    assert not report.is_metric
    assert {v.kind for v in report.violations} == {"symmetry"}
    report = validate([[F(1)]])
    assert not report.is_metric


def test_validate_rejects_malformed_input():
    with pytest.raises(InputError):
        validate([[F(0), F(1)]])
    with pytest.raises(InputError):
        validate([[F(0), F(-1)], [F(-1), F(0)]])


def test_realized_distances():
    assert realized_distances(_m([[0]])).values == (F(0),)
    u = _m([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    assert realized_distances(u).values == (F(0), F(1), F(2))


def test_realized_from_tree_labels():
    # labels {1/2, 3}: enumerate all leaf pairs of the induced matrix
    half = F(1, 2)
    u = _m([[0, half, 3], [half, 0, 3], [3, 3, 0]])
    assert realized_distances(u).values == (F(0), half, F(3))


def test_brute_isometric_relabeling_and_sizes():
    a = _m([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    relabeled = _m([[0, 2, 2], [2, 0, 1], [2, 1, 0]])
    assert brute_isometric(a, relabeled)
    assert not brute_isometric(a, _m([[0, 1], [1, 0]]))


def test_brute_isometric_u_vs_path():
    u = _m([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    path = _m([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert not brute_isometric(u, path)


def test_brute_size_bound_refusal():
    big = _m([[F(0) if i == j else F(1) for j in range(9)] for i in range(9)])
    with pytest.raises(SizeBoundError):
        brute_isometric(big, big)
    with pytest.raises(SizeBoundError):
        brute_embeds(big, big)
    assert brute_isometric(big, big, bound=9)


def test_brute_embeds():
    single = _m([[0]])
    u = _m([[0, 2, 3], [2, 0, 3], [3, 3, 0]])
    assert brute_embeds(single, u)
    pair = _m([[0, 1], [1, 0]])
    assert not brute_embeds(pair, u)  # 1 not realized in the target
    inside = _m([[0, 2], [2, 0]])
    assert brute_embeds(inside, u)
    assert not brute_embeds(u, inside)


def test_well_spaced():
    assert is_well_spaced(DistanceSet.from_values([F(1), F(3)]))
    assert not is_well_spaced(DistanceSet.from_values([F(1), F(2)]))
    assert is_well_spaced(DistanceSet.from_values([F(1), F(5, 2)]))


def test_triangle_audit():
    assert triangle_audit(DistanceSet.from_values([F(1), F(3)])).all_isosceles
    audit = triangle_audit(DistanceSet.from_values([F(1), F(2)]))
    assert not audit.all_isosceles and audit.witness == (F(1), F(1), F(2))
    audit = triangle_audit(DistanceSet.from_values([F(1), F(3, 2), F(4)]))
    assert audit.witness == (F(1), F(1), F(3, 2))
    with pytest.raises(InputError):
        triangle_audit(DistanceSet.from_values([]))


def test_distance_set_invariants():
    with pytest.raises(InputError):
        DistanceSet((F(1), F(2)))  # must start at 0
    with pytest.raises(InputError):
        DistanceSet((F(0), F(2), F(2)))  # strictly increasing
    with pytest.raises(InputError):
        DistanceSet.from_values([F(-1)])
    ds = DistanceSet.from_values([F(2), F(1), F(1)])
    assert ds.values == (F(0), F(1), F(2))


def test_from_values_matches_the_sorted_set():
    rng = random.Random(11)
    pool = [0, 1, 2, 5, F(1, 2), F(2, 4), F(3, 2), F(4, 2), F(7, 3), F(10, 5)]
    for _ in range(300):
        vals = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
        vals += [F(v) for v in vals[: rng.randint(0, len(vals))]]  # equal, distinct objects
        ds = DistanceSet.from_values(vals)
        assert ds == DistanceSet(tuple(sorted(set(vals) | {0})))
        assert all(type(v) is F for v in ds.values)


@pytest.mark.parametrize("values, text", [
    ([F(1), F(-1, 2)], "distances must be nonnegative"),
    ([-3, 2], "distances must be nonnegative"),
    ([F(-1), 1.5], "distance: expected a Fraction or an int, got 1.5"),
    ([F(1), "2"], "distance: expected a Fraction or an int, got '2'"),
])
def test_from_values_error_texts(values, text):
    with pytest.raises(InputError) as exc:
        DistanceSet.from_values(values)
    assert str(exc.value) == text
