"""Value semantics of umlab's immutable record types, and what importing
the CLI pulls in."""

import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from umlab import balltree as bt
from umlab import genlab as gl
from umlab import metric as mt
from umlab import qo
from umlab import reduce as red

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _instances():
    """One freshly built instance of every record type, with its pinned repr."""
    order = qo.closure(2, [(0, 1)])
    failure = gl.Failure(1, {"a": 1}, "x", "y")
    return [
        (bt.leaf(), "BallTree(label=None, point='p', children=())"),
        (
            bt.internal(F(1), [bt.leaf("a"), bt.leaf("b")]),
            "BallTree(label=Fraction(1, 1), point=None, children=("
            "BallTree(label=None, point='a', children=()), "
            "BallTree(label=None, point='b', children=())))",
        ),
        (mt.DistanceSet((F(0), F(1, 2))), "DistanceSet(values=(Fraction(0, 1), Fraction(1, 2)))"),
        (
            mt.Violation("triangle", (0, 1, 2), F(3), F(2)),
            "Violation(kind='triangle', indices=(0, 1, 2), lhs=Fraction(3, 1), rhs=Fraction(2, 1))",
        ),
        (
            mt.validate([[0, 1], [1, 0]]),
            "ValidationReport(is_metric=True, is_ultrametric=True, violations=(), "
            "realized=DistanceSet(values=(Fraction(0, 1), Fraction(1, 1))), "
            "balls=((Fraction(1, 1), (0, 1)),))",
        ),
        (
            mt.FiniteMetric(2, ((F(0), F(1)), (F(1), F(0)))),
            "FiniteMetric(n=2, rows=((Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(0, 1))))",
        ),
        (
            mt.TriangleAudit(False, (F(1), F(1), F(2))),
            "TriangleAudit(all_isosceles=False, witness=(Fraction(1, 1), Fraction(1, 1), Fraction(2, 1)))",
        ),
        (order, "QuasiOrder(n=2, up=(3, 2))"),
        (
            qo.OmegaMultiset.of(order, {0: 2, 1: qo.OMEGA}),
            "OmegaMultiset(base=QuasiOrder(n=2, up=(3, 2)), entries=((0, 2), (1, omega)))",
        ),
        (qo.Witness(((0, 1, 2),)), "Witness(entries=((0, 1, 2),))"),
        (
            qo.IterationTrace((frozenset({0, 1}), frozenset({1})), 1, frozenset({1})),
            "IterationTrace(levels=(frozenset({0, 1}), frozenset({1})), stabilized_at=1, core=frozenset({1}))",
        ),
        (red.RootedTree((None, 0)), "RootedTree(parents=(None, 0))"),
        (red.Graph.from_edges(3, [(0, 1)]), "Graph(n=3, adj=(2, 1, 0))"),
        (gl.Bounds(max_points=3), "Bounds(max_nodes=None, max_points=3, max_support=None)"),
        (failure, "Failure(trial=1, inputs={'a': 1}, expected='x', got='y')"),
        (
            gl.CampaignReport("p", 1, 2, (failure,), 0.5),
            "CampaignReport(prop='p', trials=1, seed=2, failures=("
            "Failure(trial=1, inputs={'a': 1}, expected='x', got='y'),), elapsed_seconds=0.5)",
        ),
        (
            gl.CampaignReport("p", 1, 2, (), 0.5),
            "CampaignReport(prop='p', trials=1, seed=2, failures=(), elapsed_seconds=0.5)",
        ),
    ]


CASES = list(range(len(_instances())))


def _fields(x) -> list[str]:
    """The field names, in order, read off the pinned repr's top level."""
    body, names, depth, start = repr(x)[len(type(x).__name__) + 1:-1], [], 0, 0
    for k, ch in enumerate(body):
        depth += (ch in "([{") - (ch in ")]}")
        if depth == 0 and ch == "=":
            names.append(body[start:k])
        elif depth == 0 and ch == ",":
            start = k + 2
    return names


@pytest.mark.parametrize("case", CASES)
def test_repr_is_pinned(case):
    x, text = _instances()[case]
    assert repr(x) == text


@pytest.mark.parametrize("case", CASES)
def test_fields_cannot_be_assigned_or_deleted(case):
    x, _ = _instances()[case]
    names = _fields(x)
    assert names
    for name in names:
        before = getattr(x, name)
        with pytest.raises(AttributeError):
            setattr(x, name, before)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is before
    with pytest.raises(AttributeError):
        x.not_a_field = 1


@pytest.mark.parametrize("case", CASES)
def test_equal_instances_hash_equal(case):
    x, _ = _instances()[case]
    y, _ = _instances()[case]
    assert x is not y and x == y and not x != y
    try:
        hash(x)
    except TypeError:  # a field holds a dict (a failure's inputs)
        assert "inputs" in repr(x)
        with pytest.raises(TypeError):
            hash(y)
    else:
        assert hash(x) == hash(y)
    assert x != object() and x != tuple(getattr(x, name) for name in _fields(x))


def test_unequal_across_classes_with_the_same_field_values():
    values = (F(0), F(1))
    assert mt.DistanceSet(values) != qo.Witness(values)
    rows = ((F(0), F(1)), (F(1), F(0)))
    assert mt.FiniteMetric(2, rows) != red.Graph(2, rows)

    class Leaf(bt.BallTree):
        pass

    assert bt.leaf() != Leaf(None, "p", ()) and Leaf(None, "p", ()) != bt.leaf()


def test_unequal_when_one_field_differs():
    assert bt.leaf("a") != bt.leaf("b")
    assert gl.Bounds(max_nodes=2) != gl.Bounds(max_points=2)
    assert qo.closure(2, [(0, 1)]) != qo.closure(2, [(1, 0)])


def test_defaults():
    assert gl.Bounds() == gl.Bounds(None, None, None)
    assert gl.Bounds().nodes(5) == 5 and gl.Bounds(max_nodes=2).nodes(5) == 2
    report = mt.ValidationReport(True, False, (), mt.DistanceSet((F(0),)))
    assert report.balls is None
    assert report == mt.ValidationReport(True, False, (), mt.DistanceSet((F(0),)), None)


@pytest.mark.parametrize(
    "cls",
    [mt.Violation, mt.FiniteMetric, mt.TriangleAudit, qo.OmegaMultiset, qo.Witness,
     qo.IterationTrace, red.Graph, gl.Failure, gl.CampaignReport],
)
def test_positional_records_need_one_value_per_field(cls):
    width = len(cls.__slots__)
    for count in (width - 1, width + 1):
        with pytest.raises(TypeError, match=f"^{cls.__name__} takes {width} values, got {count}$"):
            cls(*range(count))
    assert cls(*range(width))._values() == tuple(range(width))


@pytest.mark.parametrize("name", ["max_nodes", "max_points", "max_support"])
def test_bounds_below_one_are_rejected(name):
    with pytest.raises(gl.InputError, match=f"^{name} must be at least 1, got 0$"):
        gl.Bounds(**{name: 0})


def test_failure_doc_and_report_doc():
    failure = gl.Failure(3, {"a": {"n": 1}}, "claim", "got")
    assert failure.to_doc() == {"trial": 3, "inputs": {"a": {"n": 1}}, "expected": "claim", "got": "got"}
    doc = gl.CampaignReport("p", 4, 5, (failure,), 0.25).to_doc()
    assert doc["failures"] == [failure.to_doc()] and doc["pass"] is False


def test_importing_the_cli_skips_dataclasses_typing_and_pathlib():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import umlab.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing', 'pathlib', 'umlab.genlab')"
        " if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, SRC], capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["umlab.genlab"]
