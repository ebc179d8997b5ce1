import json
import random
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
from umlab.metric import DistanceSet, FiniteMetric, validate
from umlab.qo import OMEGA, closure
from umlab.rationals import parse_rational


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


def _reference_matrix_outcome(matrix):
    """The matrix checks in their documented order, written out in full:
    every cell parses, then signs row by row, then the diagonal and
    symmetry in row order, then `validate`'s first violation."""
    n = len(matrix)
    try:
        rows = [[parse_rational(v, f"space.matrix[{i}][{j}]") for j, v in enumerate(row)]
                for i, row in enumerate(matrix)]
    except InputError as exc:
        return str(exc)
    for i in range(n):
        for j in range(n):
            if rows[i][j] < 0:
                return f"space.matrix[{i}][{j}]: distances must be nonnegative"
    for i in range(n):
        if rows[i][i] != 0:
            return f"space.matrix[{i}][{i}]: diagonal must be 0"
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                return f"space.matrix[{j}][{i}]: must equal space.matrix[{i}][{j}]"
    report = validate(rows)
    if not report.is_metric:
        return "space.matrix: " + report.violations[0].describe()
    return tuple(map(tuple, rows))


def _matrix_outcome(matrix):
    try:
        return parse_space({"kind": "matrix", "matrix": matrix}).rows
    except InputError as exc:
        return str(exc)


def test_matrix_error_texts_match_the_reference_order_on_seeded_matrices():
    rng = random.Random(20140)
    cells = ("0", "1", "2", "3", "1/2", "-1", "x")
    outcomes = {}
    for _ in range(5000):
        n = rng.randint(1, 4)
        matrix = [["0"] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i][j] = matrix[j][i] = rng.choice(cells[:5])
        for _ in range(rng.choice((0, 0, 1, 2))):
            matrix[rng.randrange(n)][rng.randrange(n)] = rng.choice(cells)
        want = _reference_matrix_outcome(matrix)
        assert _matrix_outcome(matrix) == want, matrix
        kind = "accepted" if isinstance(want, tuple) else want.split(": ", 1)[1].split()[0]
        outcomes[kind] = outcomes.get(kind, 0) + 1
    # every fault class and the accepted case are exercised
    assert set(outcomes) == {"accepted", "'x'", "distances", "diagonal", "must",
                             "positivity", "triangle"}, outcomes


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


PAIR_LIST_ERRORS = [
    ({"n": 2, "pairs": {}}, "{what}.{key}: expected an array of pairs"),
    ({"n": 2, "pairs": "01"}, "{what}.{key}: expected an array of pairs"),
    ({"n": 2, "pairs": [[0]]}, "{what}.{key}[0]: expected a pair {shape}"),
    ({"n": 2, "pairs": [[0, 1], [0, 1, 1]]}, "{what}.{key}[1]: expected a pair {shape}"),
    ({"n": 2, "pairs": [[0, 1], "01"]}, "{what}.{key}[1]: expected a pair {shape}"),
    ({"n": 2, "pairs": [[True, 1]]}, "{what}.{key}[0][0]: expected an integer, got True"),
    ({"n": 2, "pairs": [["0", 1]]}, "{what}.{key}[0][0]: expected an integer, got '0'"),
    ({"n": 2, "pairs": [[0.0, 1]]}, "{what}.{key}[0][0]: expected an integer, got 0.0"),
    ({"n": 2, "pairs": [[0, 1], [1, False]]},
     "{what}.{key}[1][1]: expected an integer, got False"),
    ({"n": 2, "pairs": [[0, "1"]]}, "{what}.{key}[0][1]: expected an integer, got '1'"),
    ({"n": 2, "pairs": [[1, 1.5]]}, "{what}.{key}[0][1]: expected an integer, got 1.5"),
    # slot 0 wins when both slots are bad
    ({"n": 2, "pairs": [["a", 1.5]]}, "{what}.{key}[0][0]: expected an integer, got 'a'"),
    # a later bad pair is found even after an out-of-range one
    ({"n": 2, "pairs": [[0, 2], [0]]}, "{what}.{key}[1]: expected a pair {shape}"),
    ({"pairs": [[0, 1]]}, "{what}.n: expected an integer, got None"),
    ({"n": "2", "pairs": []}, "{what}.n: expected an integer, got '2'"),
    ({"n": 2049, "pairs": [[0]]}, "{what}.n: at most 2048 elements are supported"),
]
PAIR_LIST_KINDS = {
    "qo": (parse_qo, "pairs", "[i,j]", {
        "range": "pair (0,2) out of range for carrier 2",
        "range-first": "pair (2,0) out of range for carrier 2",
        "empty": "carrier size must be >= 1",
    }),
    "graph": (parse_graph, "edges", "[a,b]", {
        "range": "edge (0,2) out of range for 2 vertices",
        "range-first": "edge (2,0) out of range for 2 vertices",
        "empty": "graph needs at least one vertex",
        "loop": "loop at vertex 1",
    }),
}
PAIR_LIST_LATE_ERRORS = [
    ({"n": 2, "pairs": [[0, 1], [0, 2]]}, "range"),
    ({"n": 0, "pairs": []}, "empty"),
    ({"n": 0}, "empty"),
    ({"n": 2, "pairs": [[0, 1], [1, 1]]}, "loop"),
    ({"n": 2, "pairs": [[2, 0]]}, "range-first"),  # i == n, not only j
]


def _pair_list_doc(what, doc):
    key = PAIR_LIST_KINDS[what][1]
    return {(key if k == "pairs" else k): v for k, v in doc.items()}


def _pair_list_error(what, doc):
    with pytest.raises(InputError) as info:
        PAIR_LIST_KINDS[what][0](_pair_list_doc(what, doc))
    return str(info.value)


@pytest.mark.parametrize("what", sorted(PAIR_LIST_KINDS))
@pytest.mark.parametrize("doc, text", PAIR_LIST_ERRORS)
def test_pair_list_error_texts(what, doc, text):
    _, key, shape, _ = PAIR_LIST_KINDS[what]
    assert _pair_list_error(what, doc) == text.format(what=what, key=key, shape=shape)


@pytest.mark.parametrize("what", sorted(PAIR_LIST_KINDS))
@pytest.mark.parametrize("doc, fault", PAIR_LIST_LATE_ERRORS)
def test_pair_list_range_and_carrier_errors(what, doc, fault):
    # range, size and loop faults are judged by closure / Graph.from_edges
    texts = PAIR_LIST_KINDS[what][3]
    if fault in texts:
        assert _pair_list_error(what, doc) == texts[fault]
    else:  # a quasi-order accepts [i,i]: it is reflexive anyway
        assert PAIR_LIST_KINDS[what][0](_pair_list_doc(what, doc)).n == doc["n"]


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
