"""What a `umlab` process does around its decision: each verb group
compiles only the modules it runs, the package resolves its public
names on first access, and the console script ends like `main` apart
from its exit path (a closed stdout, the shutdown freeze)."""

import gc
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import umlab
from umlab.cli import main
from umlab.genlab import gen_ball_tree
from umlab.io import space_doc
from umlab.metric import DistanceSet

SRC = Path(__file__).resolve().parents[1] / "src"

TREE = {"kind": "balltree", "tree": {"label": "1", "children": [{"leaf": "a"}, {"leaf": "b"}]}}
QO = {"n": 3, "pairs": [[0, 1], [1, 2]]}

# umlab.__all__ as it was when the package imported every module eagerly
PUBLIC = [
    "BallTree", "BaseMismatchError", "Bounds", "CampaignReport", "DistanceSet",
    "FiniteMetric", "Graph", "InputError", "IterationTrace", "NotUltrametricError",
    "OMEGA", "OmegaMultiset", "QuasiOrder", "RootedTree", "SizeBoundError",
    "UmlabError", "ValidationReport", "Witness", "add_tail", "balltree",
    "brute_embeds", "brute_isometric", "canonical_code", "canonical_space",
    "canonicalize", "cf_le", "closure", "decompose_space", "einj_equivalent",
    "embeds", "equiv_inj_le", "errors", "es_classes", "from_ball_tree", "frozen",
    "gen_ball_tree", "gen_multiset", "gen_qo", "gen_tree", "genlab",
    "glue_canonical", "graph_metric", "has_incomparable_pair", "inj_le",
    "internal", "io", "is_well_spaced", "isometric", "iterate_levels", "leaf",
    "leaves", "level_respecting_witness", "metric", "mutate_pair",
    "property_names", "qo", "rank_ultrametric", "rationals", "realized_distances",
    "reduce", "rooted_tree_embeds", "rooted_tree_iso", "run_campaign",
    "subset_space", "to_ball_tree", "tree_ultrametric", "triangle_audit",
    "union_at_distance", "validate", "verify_witness", "wqo_inj_le",
]


def _python(tmp_path, *args, env=None, **streams) -> subprocess.CompletedProcess:
    """A fresh interpreter on umlab's sources, run in tmp_path, with stdout
    and stderr captured unless `streams` names them."""
    (tmp_path / "tree.json").write_text(json.dumps(TREE), encoding="utf-8")
    (tmp_path / "qo.json").write_text(json.dumps(QO), encoding="utf-8")
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], text=True, env=env, cwd=tmp_path,
                          timeout=120, **(streams or {"capture_output": True}))


def _imports(tmp_path, *args) -> set[str]:
    """The modules a fresh interpreter imports, read from -X importtime."""
    proc = _python(tmp_path, "-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.split("|")[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv", [["space", "canon", "tree.json"], ["qo", "classes", "qo.json"]])
def test_space_and_qo_calls_skip_the_laws_and_reduce(tmp_path, argv):
    names = _imports(tmp_path, "-m", "umlab.cli", *argv)
    # both compile the flow; neither compiles the other's decision module
    used, skipped = ("umlab.balltree", "umlab.qo") if argv[0] == "space" else ("umlab.qo", "umlab.balltree")
    assert {used, "umlab.flow", "umlab.genlab", "umlab.io"} <= names
    assert not names & {skipped, "umlab.laws", "umlab.reduce"}


def test_reduce_call_skips_the_laws(tmp_path):
    names = _imports(tmp_path, "-m", "umlab.cli", "reduce", "powerset", "--values", "1,2")
    assert "umlab.reduce" in names and "umlab.laws" not in names


def test_reduce_call_skips_qo(tmp_path):
    names = _imports(tmp_path, "-m", "umlab.cli", "reduce", "powerset", "--values", "1,2")
    assert {"umlab.balltree", "umlab.flow", "umlab.genlab"} <= names
    assert "umlab.qo" not in names


def test_importing_the_cli_imports_genlab(tmp_path):
    # the benchmark's start-up probe reads genlab's line of this output
    assert "umlab.genlab" in _imports(tmp_path, "-c", "import umlab.cli")


def test_verify_imports_the_laws(tmp_path):
    names = _imports(tmp_path, "-m", "umlab.cli", "verify", "powerset-embed", "--trials", "4")
    assert "umlab.laws" in names


def test_public_names_resolve_to_their_home_modules():
    assert umlab.__all__ == PUBLIC
    listed = dir(umlab)
    for name in PUBLIC:
        value = getattr(umlab, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"umlab.{name}"], name
        else:
            home = sys.modules[value.__module__]
            assert home.__name__ != "umlab" and getattr(home, name) is value, name
        assert name in listed, name
    with pytest.raises(AttributeError):
        umlab.no_such_name
    with pytest.raises(ImportError):
        from umlab import no_such_name  # noqa: F401


# ---------------------------------------------------------------------------
# The console script's exit path.
# ---------------------------------------------------------------------------

def test_the_console_script_answers_as_main_does(tmp_path, capsys):
    tree = gen_ball_tree(5, DistanceSet.from_values(range(1, 9)), 700)
    assert tree.n_points == 610
    big = tmp_path / "big.json"
    big.write_text(json.dumps(space_doc(tree)), encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "balltree", "tree": {"label": "-1", "children": []}}),
                   encoding="utf-8")
    for argv, code in (["space", "canon", str(big)], 0), (["space", "canon", str(bad)], 2):
        assert main(argv) == code
        out, err = capsys.readouterr()
        proc = _python(tmp_path, "-m", "umlab.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_main_leaves_the_collector_unfrozen(capsys):
    before = gc.get_freeze_count()
    main(["reduce", "powerset", "--values", "1,2,3"])
    main(["space", "canon", "no-such-file.json"])
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_the_console_script_freezes_before_exit(tmp_path):
    script = ("import atexit, gc, sys; from umlab.cli import entry; "
              "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr)); entry()")
    proc = _python(tmp_path, "-c", script, "space", "canon", "tree.json")
    assert proc.returncode == 0 and proc.stderr == "True\n"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_is_exit_2_with_one_error_line(tmp_path, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the call starts
    try:
        proc = _python(tmp_path, "-m", "umlab.cli", "space", "canon", "tree.json",
                       env={"PYTHONUNBUFFERED": unbuffered}, stdout=write_end,
                       stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
