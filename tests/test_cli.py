import json
from fractions import Fraction as F

import pytest

from umlab import qo
from umlab.balltree import from_ball_tree, leaf
from umlab.cli import main
from umlab.genlab import gen_ball_tree, property_names
from umlab.io import space_doc
from umlab.metric import DistanceSet, validate
from umlab.rationals import format_rational

MATRIX_2PT = {"kind": "matrix", "matrix": [["0", "1"], ["1", "0"]]}
TREE_2PT = {
    "kind": "balltree",
    "tree": {"label": "1", "children": [{"leaf": "a"}, {"leaf": "b"}]},
}
PATH_3PT = {
    "kind": "matrix",
    "matrix": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
}


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_space_isom_self(files, capsys):
    a = files("a.json", MATRIX_2PT)
    code, out, _ = run(capsys, "space", "isom", a, a)
    assert code == 0
    assert json.loads(out) == {"isometric": True}


def test_space_isom_matrix_vs_tree(files, capsys):
    a = files("a.json", MATRIX_2PT)
    b = files("b.json", TREE_2PT)
    code, out, _ = run(capsys, "space", "isom", a, b)
    assert code == 0 and json.loads(out)["isometric"] is True


def test_space_isom_negative_exit_1(files, capsys):
    a = files("a.json", MATRIX_2PT)
    b = files(
        "b.json", {"kind": "matrix", "matrix": [["0", "2"], ["2", "0"]]}
    )
    code, out, _ = run(capsys, "space", "isom", a, b)
    assert code == 1 and json.loads(out)["isometric"] is False


def test_space_check_path_metric(files, capsys):
    path = files("p.json", PATH_3PT)
    code, out, _ = run(capsys, "space", "check", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["is_metric"] is True and doc["is_ultrametric"] is False
    assert doc["realized"] == ["0", "1", "2"]
    assert any("ultrametric" in v for v in doc["violations"])


def test_space_check_non_metric_exit_1(files, capsys):
    bad = files("bad.json", {"kind": "matrix", "matrix": [["0", "1"], ["2", "0"]]})
    code, out, _ = run(capsys, "space", "check", bad)
    assert code == 1 and json.loads(out)["is_metric"] is False


def test_space_check_reads_a_ball_tree_off_its_labels(files, capsys):
    """The report on a ball-tree document is the one that validating its
    matrix gives, byte for byte, in both output formats."""
    ds = DistanceSet.from_values([F(1, 3), F(1), F(2), F(7, 2)])
    trees = [leaf("only")] + [gen_ball_tree(seed, ds, 1 + seed % 9) for seed in range(30)]
    for k, tree in enumerate(trees):
        report = validate(from_ball_tree(tree).rows)
        assert report.is_ultrametric and not report.violations
        expected = {
            "is_metric": True,
            "is_ultrametric": True,
            "violations": [],
            "realized": [format_rational(v) for v in report.realized],
        }
        path = files(f"t{k}.json", space_doc(tree))
        code, out, _ = run(capsys, "space", "check", path)
        assert code == 0 and out == json.dumps(expected, sort_keys=True) + "\n"
        code, out, _ = run(capsys, "--format", "text", "space", "check", path)
        assert code == 0 and out == "".join(
            f"{key}: {json.dumps(value) if isinstance(value, list) else value}\n"
            for key, value in sorted(expected.items())
        )


def test_space_canon_and_embed(files, capsys):
    a = files("a.json", MATRIX_2PT)
    code, out, _ = run(capsys, "space", "canon", a)
    assert code == 0 and json.loads(out)["code"] == "(1;LL)"
    b = files("b.json", TREE_2PT)
    code, out, _ = run(capsys, "space", "embed", a, b)
    assert code == 0 and json.loads(out)["embeds"] is True


def test_space_canon_rejects_non_ultrametric(files, capsys):
    path = files("p.json", PATH_3PT)
    code, _, err = run(capsys, "space", "canon", path)
    assert code == 2 and "error" in err


def test_parse_error_names_cell(files, capsys):
    bad = files("bad.json", {"kind": "matrix", "matrix": [["0", "2/4"], ["2/4", "0"]]})
    code, _, err = run(capsys, "space", "isom", bad, bad)
    assert code == 2 and "matrix[0][1]" in err


def test_qo_inj_pigeonhole(files, capsys):
    order = files("qo.json", {"n": 1, "pairs": []})
    a = files("a.json", {"mults": {"0": 2}})
    b = files("b.json", {"mults": {"0": 1}})
    code, out, _ = run(capsys, "qo", "inj", order, a, b, "--method", "flow")
    assert code == 1
    assert json.loads(out)["inj_le"] is False


def test_qo_cf_einj_iterate_classes(files, capsys):
    order = files("qo.json", {"n": 3, "pairs": [[0, 1], [1, 2]]})
    a = files("a.json", {"mults": {"0": 2, "1": "omega", "2": 5}})
    code, out, _ = run(capsys, "qo", "iterate", order, a)
    assert code == 0
    doc = json.loads(out)
    assert doc["levels"] == [[0, 1, 2], [0, 1]]
    assert doc["stabilized_at"] == 1 and doc["core"] == [0, 1]

    code, out, _ = run(capsys, "qo", "cf", order, a, a)
    assert code == 0 and json.loads(out)["cf_le"] is True

    code, out, _ = run(capsys, "qo", "einj", order, a, a, "--paranoid")
    assert code == 0
    doc = json.loads(out)
    assert doc["einj"] is True and doc["cross_check"] == "agree"

    code, out, _ = run(capsys, "qo", "classes", order)
    assert code == 0 and json.loads(out)["classes"] == [[0], [1], [2]]


def test_qo_einj_flow_skips_the_characterization(files, capsys, monkeypatch):
    def refuse(a, b):
        raise AssertionError("einj_equivalent ran under --method flow")

    monkeypatch.setattr(qo, "einj_equivalent", refuse)
    order = files("qo.json", {"n": 3, "pairs": [[0, 1], [1, 2]]})
    a = files("a.json", {"mults": {"0": 2, "1": "omega", "2": 5}})
    b = files("b.json", {"mults": {"0": 2, "1": "omega", "2": 4}})
    code, out, _ = run(capsys, "qo", "einj", order, a, a, "--method", "flow")
    assert code == 0 and json.loads(out) == {"einj": True, "method": "flow"}
    code, out, _ = run(capsys, "qo", "einj", order, a, b, "--method", "flow")
    assert code == 1 and json.loads(out) == {"einj": False, "method": "flow"}

    code, out, _ = run(capsys, "qo", "incomparable", order)
    assert code == 1 and json.loads(out)["incomparable"] is False


def test_qo_inj_wqo_method(files, capsys):
    order = files("qo.json", {"n": 2, "pairs": []})
    a = files("a.json", {"mults": {"0": 1, "1": 1}})
    b = files("b.json", {"mults": {"0": "omega"}})
    code, out, _ = run(capsys, "qo", "inj", order, a, b, "--method", "wqo")
    assert code == 1 and json.loads(out)["inj_le"] is False


def test_reduce_theta_and_rank(files, tmp_path, capsys):
    tree = files("t.json", {"parents": [None, 0]})
    out_file = str(tmp_path / "out.json")
    code, _, _ = run(capsys, "reduce", "theta", tree, "--radii", "3,1", "--out", out_file)
    assert code == 0
    with open(out_file, encoding="utf-8") as handle:
        doc = json.load(handle)
    assert doc["kind"] == "balltree" and doc["tree"]["label"] == "3"

    code, out, _ = run(capsys, "reduce", "rank", tree, "--radii", "0,1,2,3")
    assert code == 0
    assert json.loads(out)["tree"]["label"] == "2"


def test_reduce_out_unwritable_exit_2(files, tmp_path, capsys):
    tree = files("t.json", {"parents": [None, 0]})
    missing = str(tmp_path / "nodir" / "x.json")
    code, out, err = run(capsys, "reduce", "theta", tree, "--radii", "2,1", "--out", missing)
    assert code == 2 and out == ""
    assert err.startswith("error: --out ") and "nodir" in err


def test_too_deep_input_exit_2(files, capsys):
    path = files("path.json", {"parents": [None, *range(599)]})
    code, out, err = run(capsys, "reduce", "theta", path, "--radii",
                         ",".join(str(600 - k) for k in range(600)))
    assert code == 2 and out == ""
    assert err.startswith("error: input nested too deeply")
    values = ",".join(str(k) for k in range(1, 5001))
    code, out, err = run(capsys, "reduce", "powerset", "--values", values)
    assert code == 2 and out == ""
    assert err.startswith("error: input nested too deeply")


def test_unreadable_json_exit_2(files, tmp_path, capsys):
    raw = tmp_path / "utf16.json"
    raw.write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run(capsys, "space", "canon", str(raw))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(raw) in err and "UTF-8" in err
    long_int = tmp_path / "long.json"
    long_int.write_text('{"n": ' + "9" * 5000 + ', "pairs": []}', encoding="utf-8")
    code, out, err = run(capsys, "qo", "classes", str(long_int))
    assert code == 2 and out == ""
    assert err == f"error: {long_int}: an integer has too many digits\n"


@pytest.mark.parametrize("n", [10**30, 2**63, 2049])
def test_carrier_above_the_cap_exit_2(n, files, capsys):
    order = files("qo.json", {"n": n, "pairs": []})
    code, out, err = run(capsys, "qo", "classes", order)
    assert code == 2 and out == ""
    assert err == "error: qo.n: at most 2048 elements are supported\n"
    graph = files("g.json", {"n": n, "edges": []})
    code, out, err = run(capsys, "reduce", "graph", graph, "--edge", "1", "--nonedge", "3/2")
    assert code == 2 and out == ""
    assert err == "error: graph.n: at most 2048 elements are supported\n"


def test_carrier_at_the_cap_is_accepted(files, capsys):
    order = files("qo.json", {"n": 2048, "pairs": [[0, 2047]]})
    code, out, _ = run(capsys, "qo", "classes", order)
    assert code == 0 and len(json.loads(out)["classes"]) == 2048


def test_space_embed_on_331_level_chains(files, capsys):
    def chain_doc(values):
        tree = {"leaf": "p0"}
        for v in values:
            tree = {"label": str(v), "children": [{"leaf": f"p{v}"}, tree]}
        return {"kind": "balltree", "tree": tree}

    big = files("big.json", chain_doc(range(1, 332)))
    cut = files("cut.json", chain_doc([*range(1, 200), *range(201, 332), 400]))
    assert run(capsys, "space", "embed", big, big)[:2] == (0, '{"embeds": true}\n')
    assert run(capsys, "space", "embed", cut, big)[:2] == (1, '{"embeds": false}\n')


def test_reduce_glue_tail_phi_decompose(files, capsys):
    a = files("a.json", MATRIX_2PT)
    code, out, _ = run(
        capsys, "reduce", "glue", a, "--distances", "0,1,2,4", "--rbar", "4"
    )
    assert code == 0 and json.loads(out)["kind"] == "balltree"

    code, out, _ = run(capsys, "reduce", "tail", a, "--distances", "0,1,2")
    assert code == 0

    b = files("b.json", TREE_2PT)
    code, out, _ = run(capsys, "reduce", "phi", a, b, "--radius", "2")
    assert code == 0 and json.loads(out)["tree"]["label"] == "2"

    code, out, _ = run(capsys, "reduce", "decompose", a, "--distances", "0,1/2,1")
    assert code == 0
    assert len(json.loads(out)["components"]) == 2


def test_reduce_graph_and_powerset(files, capsys):
    graph = files("g.json", {"n": 3, "edges": [[0, 1]]})
    code, out, _ = run(
        capsys, "reduce", "graph", graph, "--edge", "1", "--nonedge", "3/2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "matrix" and doc["trivial"] is False

    code, out, _ = run(capsys, "reduce", "powerset", "--values", "1,3")
    assert code == 0 and json.loads(out)["tree"]["label"] == "3"
    code, out, _ = run(capsys, "reduce", "powerset", "--values", "")
    assert code == 0 and json.loads(out)["tree"] == {"leaf": "0"}


def test_reduce_precondition_violation_exit_2(files, capsys):
    a = files("a.json", MATRIX_2PT)
    code, _, err = run(capsys, "reduce", "glue", a, "--distances", "0,1,2", "--rbar", "1")
    assert code == 2 and "error" in err


def test_verify_campaign(files, capsys):
    code, out, _ = run(
        capsys,
        "verify", "theta-iso", "--trials", "500", "--seed", "7", "--max-nodes", "8",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["property"] == "theta-iso"
    assert doc["trials"] == 500 and doc["pass"] is True and doc["failures"] == []


@pytest.mark.parametrize("flag", ["--max-nodes", "--max-points", "--max-support"])
def test_verify_bound_below_one_exit_2(flag, capsys):
    for prop in property_names():
        code, out, err = run(capsys, "verify", prop, "--trials", "20", flag, "0")
        assert code == 2 and out == "", prop
        assert err.startswith("error: ") and "at least 1" in err, prop


def test_verify_unknown_property(capsys):
    code, _, err = run(capsys, "verify", "bogus", "--trials", "5")
    assert code == 2 and "unknown property" in err


def test_format_text(files, capsys):
    a = files("a.json", MATRIX_2PT)
    code, out, _ = run(capsys, "--format", "text", "space", "isom", a, a)
    assert code == 0 and "isometric: True" in out


def test_usage_error_exit_2(capsys):
    assert main(["space"]) == 2
    assert main(["bogus-group"]) == 2


def test_verify_records_a_raising_trial_instead_of_crashing(monkeypatch, capsys):
    from umlab import balltree

    monkeypatch.setattr(balltree, "embeds", lambda a, b: 1 / 0)
    code, out, err = run(capsys, "verify", "powerset-embed", "--trials", "4")
    assert code == 1 and err == ""
    got = {f["got"] for f in json.loads(out)["failures"]}
    assert got == {"ZeroDivisionError: division by zero"}


def test_verify_bounds_above_the_oracle_bound_exit_2(capsys):
    code, out, err = run(capsys, "verify", "canon-vs-brute", "--trials", "50", "--max-points", "12")
    assert code == 2 and out == ""
    assert err.startswith("error: brute_isometric refuses spaces above 8 points")


def test_internal_error_exit_3(files, capsys, monkeypatch):
    from umlab import balltree

    monkeypatch.setattr(balltree, "embeds", lambda a, b: 1 / 0)
    a = files("a.json", MATRIX_2PT)
    code, out, err = run(capsys, "space", "embed", a, a)
    assert code == 3 and out == ""
    assert "Traceback" in err
    assert err.splitlines()[-1] == "error: internal error: ZeroDivisionError: division by zero"
