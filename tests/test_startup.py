"""What a `umlab` call imports: each verb group compiles only the modules
it runs, and the package resolves its public names on first access."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import umlab

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


def _imports(tmp_path, *args) -> set[str]:
    """The modules a fresh interpreter imports, read from -X importtime."""
    (tmp_path / "tree.json").write_text(json.dumps(TREE), encoding="utf-8")
    (tmp_path / "qo.json").write_text(json.dumps(QO), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.split("|")[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv", [["space", "canon", "tree.json"], ["qo", "classes", "qo.json"]])
def test_space_and_qo_calls_skip_the_laws_and_reduce(tmp_path, argv):
    names = _imports(tmp_path, "-m", "umlab.cli", *argv)
    assert {"umlab.balltree", "umlab.genlab", "umlab.io", "umlab.qo"} <= names
    assert not names & {"umlab.laws", "umlab.reduce"}


def test_reduce_call_skips_the_laws(tmp_path):
    names = _imports(tmp_path, "-m", "umlab.cli", "reduce", "powerset", "--values", "1,2")
    assert "umlab.reduce" in names and "umlab.laws" not in names


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
