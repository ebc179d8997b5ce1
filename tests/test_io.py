import json
from fractions import Fraction as F

import pytest

from umlab.balltree import BallTree
from umlab.errors import InputError
from umlab.genlab import gen_ball_tree, gen_multiset, gen_qo, gen_tree
from umlab.io import (
    graph_doc,
    load_json,
    multiset_doc,
    parse_graph,
    parse_multiset,
    parse_qo,
    parse_space,
    parse_tree,
    qo_doc,
    space_doc,
    space_to_tree,
    tree_doc,
)
from umlab.metric import DistanceSet, FiniteMetric
from umlab.qo import OMEGA, closure


def test_singleton_matrix_space():
    space = parse_space({"kind": "matrix", "matrix": [["0"]]})
    assert isinstance(space, FiniteMetric) and space.n == 1


def test_matrix_round_trip():
    doc = {"kind": "matrix", "matrix": [["0", "1/2"], ["1/2", "0"]]}
    space = parse_space(doc)
    assert space_doc(space) == doc


def test_balltree_round_trip():
    doc = {
        "kind": "balltree",
        "tree": {"label": "1", "children": [{"leaf": "a"}, {"leaf": "b"}]},
    }
    tree = parse_space(doc)
    assert isinstance(tree, BallTree)
    assert space_doc(tree) == doc


def test_matrix_asymmetry_names_the_cell():
    doc = {"kind": "matrix", "matrix": [["0", "1"], ["2", "0"]]}
    with pytest.raises(InputError, match=r"matrix\[1\]\[0\]"):
        parse_space(doc)


MATRIX_ERRORS = [
    # a parse error in a later cell beats a negative entry in an earlier one
    ([["0", "-1"], ["1", "x"]], "space.matrix[1][1]: 'x' is not a canonical rational"),
    # a negative entry beats a bad diagonal; negatives are found row by row
    ([["1", "1"], ["1", "-1"]], "space.matrix[1][1]: distances must be nonnegative"),
    ([["0", "1", "1"], ["1", "0", "-2"], ["-1", "1", "0"]],
     "space.matrix[1][2]: distances must be nonnegative"),
    # a bad diagonal in row i beats an asymmetric pair in row i ...
    ([["0", "1", "2"], ["1", "1", "3"], ["2", "1", "0"]], "space.matrix[1][1]: diagonal must be 0"),
    # ... and an asymmetric pair in an earlier row beats it
    ([["0", "1"], ["2", "1"]], "space.matrix[1][0]: must equal space.matrix[0][1]"),
    # positivity and triangle faults come through Violation.describe()
    ([["0", "0"], ["0", "0"]], "space.matrix: positivity violated at (0,1)"),
    ([["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]],
     "space.matrix: triangle violated at (0,1,2): 3 > 2"),
    ([["0", "1"], ["1"]], "space.matrix[1]: expected a row of length 2"),
    ([], "space.matrix: expected a nonempty array of rows"),
]


@pytest.mark.parametrize("matrix, text", MATRIX_ERRORS)
def test_matrix_error_texts_and_which_fault_wins(matrix, text):
    with pytest.raises(InputError) as info:
        parse_space({"kind": "matrix", "matrix": matrix})
    assert str(info.value) == text


def test_matrix_without_metric_checks_only_signs():
    with pytest.raises(InputError) as info:
        parse_space({"kind": "matrix", "matrix": [["1", "-1"], ["2", "0"]]}, require_metric=False)
    assert str(info.value) == "space.matrix[0][1]: distances must be nonnegative"
    space = parse_space({"kind": "matrix", "matrix": [["1", "1"], ["2", "0"]]}, require_metric=False)
    assert space.rows == ((F(1), F(1)), (F(2), F(0)))


def test_non_canonical_rational_rejected():
    doc = {"kind": "matrix", "matrix": [["0", "2/4"], ["2/4", "0"]]}
    with pytest.raises(InputError, match=r"matrix\[0\]\[1\].*lowest terms"):
        parse_space(doc)


def test_tree_node_invariants_enforced_at_parse():
    with pytest.raises(InputError, match="at least 2 children"):
        parse_space({"kind": "balltree", "tree": {"label": "1", "children": [{"leaf": "a"}]}})
    bad = {
        "kind": "balltree",
        "tree": {
            "label": "1",
            "children": [
                {"label": "2", "children": [{"leaf": "a"}, {"leaf": "b"}]},
                {"leaf": "c"},
            ],
        },
    }
    with pytest.raises(InputError, match=r"children\[0\].label"):
        parse_space(bad)

    def nested(label):
        inner = {"label": label, "children": [{"leaf": "a"}, {"leaf": "b"}]}
        middle = {"label": "2", "children": [{"leaf": "c"}, inner]}
        return {"kind": "balltree", "tree": {"label": "3", "children": [middle, {"leaf": "d"}]}}

    where = "tree.children[0].children[1].label: "
    for label, message in (("0", "must be positive"), ("-1/2", "must be positive"),
                           ("2", "must be strictly below the parent label"),
                           ("5/2", "must be strictly below the parent label")):
        with pytest.raises(InputError) as err:
            parse_space(nested(label))
        assert str(err.value) == where + message
    assert parse_space(nested("1")).children[0].children[1].label == 1


def test_space_to_tree_requires_ultrametric():
    path = {"kind": "matrix", "matrix": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]}
    with pytest.raises(InputError):
        space_to_tree(parse_space(path))


def test_load_json_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "matrix",}', encoding="utf-8")
    with pytest.raises(InputError, match="line 1 column"):
        load_json(bad)
    with pytest.raises(InputError):
        load_json(tmp_path / "missing.json")


def test_qo_round_trip_and_closure_on_load():
    order = parse_qo({"n": 3, "pairs": [[0, 1], [1, 2]]})
    assert order.le(0, 2)  # closure applied
    assert parse_qo(qo_doc(order)) == order
    with pytest.raises(InputError):
        parse_qo({"n": 2, "pairs": [[0, 5]]})
    with pytest.raises(InputError):
        parse_qo({"n": 2, "pairs": [[0]]})


def test_multiset_round_trip():
    base = closure(2, [])
    ms = parse_multiset({"mults": {"0": 2, "1": "omega"}}, base)
    assert ms.mult(0) == 2 and ms.mult(1) is OMEGA
    assert parse_multiset(multiset_doc(ms), base) == ms
    with pytest.raises(InputError):
        parse_multiset({"mults": {"0": 0}}, base)
    with pytest.raises(InputError):
        parse_multiset({"mults": {"07": 1}}, base)
    with pytest.raises(InputError):
        parse_multiset({"mults": {"0": 1.5}}, base)


def test_tree_and_graph_round_trips():
    tree = parse_tree({"parents": [None, 0, 0, 1]})
    assert parse_tree(tree_doc(tree)) == tree
    with pytest.raises(InputError):
        parse_tree({"parents": [0]})
    graph = parse_graph({"n": 4, "edges": [[0, 1], [2, 3]]})
    assert parse_graph(graph_doc(graph)) == graph
    with pytest.raises(InputError):
        parse_graph({"n": 2, "edges": [[0, 0]]})


def test_generated_objects_round_trip():
    ds = DistanceSet.from_values([F(1), F(2)])
    for seed in range(40):
        t = gen_ball_tree(seed, ds, 6)
        assert parse_space(space_doc(t)) == t
        rt = gen_tree(seed, 6)
        assert parse_tree(tree_doc(rt)) == rt
        base = gen_qo(seed, 4, F(1, 3))
        assert parse_qo(qo_doc(base)) == base
        ms = gen_multiset(seed, base, 4, F(1, 4))
        assert parse_multiset(multiset_doc(ms), base) == ms


def test_docs_are_json_serializable():
    base = gen_qo(3, 4, F(1, 2))
    ms = gen_multiset(3, base, 4, F(1, 2))
    blob = json.dumps(
        {
            "qo": qo_doc(base),
            "ms": multiset_doc(ms),
            "space": space_doc(gen_ball_tree(3, DistanceSet.from_values([F(1)]), 4)),
        }
    )
    assert isinstance(blob, str)
