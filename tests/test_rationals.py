from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from umlab import balltree as bt
from umlab import metric as mt
from umlab import reduce as red
from umlab.errors import InputError
from umlab.genlab import enumerate_ball_trees
from umlab.rationals import exact, format_rational, parse_rational


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", Fraction(0)),
        ("1", Fraction(1)),
        ("-3", Fraction(-3)),
        ("1/2", Fraction(1, 2)),
        ("-7/3", Fraction(-7, 3)),
        ("10/21", Fraction(10, 21)),
    ],
)
def test_parse_canonical(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "text",
    ["2/4", "3/1", "01", "1/01", "-0", "+1", "1.5", "1/0", "", "a", "1/-2"],
)
def test_parse_rejects_non_canonical(text):
    with pytest.raises(InputError):
        parse_rational(text)


def test_error_mentions_position():
    with pytest.raises(InputError, match=r"matrix\[0\]\[1\]"):
        parse_rational("2/4", "matrix[0][1]")


@given(st.fractions())
def test_format_parse_round_trip(value):
    assert parse_rational(format_rational(value)) == value


def test_exact_keeps_fractions_and_converts_ints():
    half = Fraction(1, 2)
    assert exact(half) is half
    assert type(exact(3)) is Fraction and exact(3) == 3
    for bad in (0.5, "1/2", True, None):
        with pytest.raises(InputError, match=r"^distance: expected a Fraction or an int"):
            exact(bad)


EDGE = red.RootedTree((None, 0))
ENTRY_POINTS = {
    "FiniteMetric.from_rows": lambda v: mt.FiniteMetric.from_rows([[0, v], [v, 0]]),
    "validate": lambda v: mt.validate([[0, v], [v, 0]]),
    "DistanceSet.from_values": lambda v: mt.DistanceSet.from_values([v]),
    "internal": lambda v: bt.internal(v, (bt.leaf("a"), bt.leaf("b"))),
    "check_decreasing": lambda v: red.tree_ultrametric(EDGE, [1, v]),
    "rank radii": lambda v: red.rank_ultrametric(EDGE, [0, v, 1, 2]),
    "glue_canonical": lambda v: red.glue_canonical(
        bt.leaf("a"), mt.DistanceSet.from_values([Fraction(1, 4), Fraction(1, 2), 1]), v
    ),
    "union_at_distance": lambda v: red.union_at_distance([bt.leaf("a"), bt.leaf("b")], v),
    "graph_metric": lambda v: red.graph_metric(
        red.Graph.from_edges(2, [(0, 1)]), v, Fraction(3, 4)
    ),
    "subset_space": lambda v: red.subset_space([v]),
    "enumerate_ball_trees": lambda v: enumerate_ball_trees([v], 2),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_reject_floats_and_strings(entry):
    build = ENTRY_POINTS[entry]
    build(Fraction(1, 2))
    for bad in (0.5, "1/2"):
        with pytest.raises(InputError, match="expected a Fraction or an int"):
            build(bad)
