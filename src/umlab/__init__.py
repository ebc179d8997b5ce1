"""Finite ultrametric spaces, quasi-order jump operators, and the
reduction constructions between them, with brute-force oracles and a
seeded verification-campaign runner.

The public names below are imported from their modules on first
access (PEP 562), so `import umlab` loads no submodule and a command
compiles only the modules it runs."""

_SUBMODULES = ("balltree", "errors", "frozen", "genlab", "io", "metric", "qo", "rationals", "reduce")

# module -> the public names it defines
_EXPORTS = {
    "balltree": (
        "BallTree",
        "canonical_code",
        "canonical_space",
        "canonicalize",
        "embeds",
        "from_ball_tree",
        "internal",
        "isometric",
        "leaf",
        "leaves",
        "to_ball_tree",
    ),
    "errors": (
        "BaseMismatchError",
        "InputError",
        "NotUltrametricError",
        "SizeBoundError",
        "UmlabError",
    ),
    "genlab": (
        "Bounds",
        "CampaignReport",
        "gen_ball_tree",
        "gen_multiset",
        "gen_qo",
        "gen_tree",
        "mutate_pair",
        "property_names",
        "run_campaign",
    ),
    "metric": (
        "DistanceSet",
        "FiniteMetric",
        "ValidationReport",
        "brute_embeds",
        "brute_isometric",
        "is_well_spaced",
        "realized_distances",
        "triangle_audit",
        "validate",
    ),
    "qo": (
        "OMEGA",
        "IterationTrace",
        "OmegaMultiset",
        "QuasiOrder",
        "Witness",
        "cf_le",
        "closure",
        "einj_equivalent",
        "equiv_inj_le",
        "es_classes",
        "has_incomparable_pair",
        "inj_le",
        "iterate_levels",
        "level_respecting_witness",
        "verify_witness",
        "wqo_inj_le",
    ),
    "reduce": (
        "Graph",
        "RootedTree",
        "add_tail",
        "decompose_space",
        "glue_canonical",
        "graph_metric",
        "rank_ultrametric",
        "rooted_tree_embeds",
        "rooted_tree_iso",
        "subset_space",
        "tree_ultrametric",
        "union_at_distance",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SUBMODULES, *_HOME])


def __getattr__(name: str):
    module = name if name in _SUBMODULES else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # through __import__, unlike importlib.import_module, the import shows
    # in `python -X importtime`, which the benchmark's start-up probe reads
    __import__(f"{__name__}.{module}")
    home = globals()[module]  # the import binds each submodule here
    return home if module == name else getattr(home, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
