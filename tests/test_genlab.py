import hashlib
import json
import random
from fractions import Fraction as F

import pytest

import umlab.balltree
import umlab.metric
import umlab.qo
import umlab.reduce
from umlab import genlab
from umlab.balltree import from_ball_tree, isometric, leaf
from umlab.errors import InputError, SizeBoundError
from umlab.genlab import (
    Bounds,
    derive_seed,
    enumerate_ball_trees,
    gen_ball_tree,
    gen_multiset,
    gen_qo,
    gen_tree,
    mutate_pair,
    run_campaign,
)
from umlab.laws import PROPERTIES
from umlab.metric import DEFAULT_BRUTE_BOUND, DistanceSet, TriangleAudit, validate
from umlab.qo import IterationTrace, Omega, closure
from umlab.reduce import rooted_tree_iso

# the exact property names the CLI contract promises
CONTRACT = {
    "canon-vs-brute",
    "embed-vs-brute",
    "theta-iso",
    "theta-embed",
    "glue-star",
    "add-tail-iso",
    "add-tail-embed",
    "phi-union",
    "decompose",
    "rank-tree",
    "powerset-embed",
    "graph-metric-iso",
    "graph-metric-embed",
    "inj-flow-vs-char",
    "inj-flow-vs-wqo",
    "inj-counts-equiv",
    "cf-support-only",
    "iterate-sanity",
    "witness-levels",
    "triangle-wellspaced",
}


def test_registry_matches_contract():
    assert set(PROPERTIES) == CONTRACT


def test_generators_are_deterministic():
    ds = DistanceSet.from_values([F(1), F(2)])
    assert gen_tree(42, 8) == gen_tree(42, 8)
    assert gen_ball_tree(42, ds, 7) == gen_ball_tree(42, ds, 7)
    assert gen_qo(42, 5, F(1, 3)) == gen_qo(42, 5, F(1, 3))
    base = gen_qo(42, 5, F(1, 3))
    assert gen_multiset(42, base, 5, F(1, 4)) == gen_multiset(42, base, 5, F(1, 4))
    assert derive_seed(7, 0) != derive_seed(7, 1)


def test_seed_validation():
    with pytest.raises(InputError):
        derive_seed(-1, 0)
    with pytest.raises(InputError):
        derive_seed(1 << 64, 0)


def test_gen_tree_shapes():
    assert gen_tree(3, 1).n == 1
    shapes = set()
    for seed in range(400):
        t = gen_tree(seed, 3)
        shapes.add((t.n, t.parents))
    ns = {n for n, _ in shapes}
    assert ns == {1, 2, 3}
    # both 3-node shapes (chain and star) occur
    assert (3, (None, 0, 1)) in shapes and (3, (None, 0, 0)) in shapes


def test_gen_ball_tree_validity():
    ds = DistanceSet.from_values([F(1, 2), F(1), F(3)])
    assert gen_ball_tree(5, ds, 1).is_leaf
    for seed in range(200):
        t = gen_ball_tree(seed, ds, 6)
        report = validate(from_ball_tree(t).rows)
        assert report.is_ultrametric
        assert set(report.realized.values) <= set(ds.values)


def test_gen_qo_density_extremes():
    assert gen_qo(1, 4, F(0)) == closure(4, [])
    total = closure(4, [(i, j) for i in range(4) for j in range(4)])
    assert gen_qo(1, 4, F(1)) == total
    for seed in range(50):
        order = gen_qo(seed, 5, F(1, 3))
        le_pairs = [
            (i, j) for i in range(5) for j in range(5) if order.le(i, j)
        ]
        assert closure(5, le_pairs) == order  # already closed


def test_integer_draw_test_matches_fraction_comparison():
    rng = random.Random(3)
    for p in [F(0), F(1), F(3, 10), F(35, 100), F(2, 5), F(1, 3), F(0.3), F(-1, 2), F(3, 2)]:
        below = genlab._below(p)
        edge = p * 2**53
        ks = {0, 2**53 - 1, *(k for k in range(int(edge) - 2, int(edge) + 3) if 0 <= k < 2**53)}
        ks |= {rng.getrandbits(53) for _ in range(500)}
        for k in ks:
            x = k / 2**53
            assert below(x) == (F(x) < p), (p, k)


def test_gen_multiset_modes():
    base = closure(4, [])
    all_omega = gen_multiset(9, base, 4, F(1))
    assert all(isinstance(m, Omega) for _, m in all_omega.entries)
    for seed in range(100):
        ms = gen_multiset(seed, base, 4, F(0), require_omega=True)
        assert any(isinstance(m, Omega) for _, m in ms.entries)
        plain = gen_multiset(seed, base, 4, F(0))
        assert not any(isinstance(m, Omega) for _, m in plain.entries)


def test_mutate_pair_branches_occur():
    ds = DistanceSet.from_values([F(1), F(2)])
    same = different = 0
    for seed in range(100):
        t = gen_ball_tree(derive_seed(1, seed), ds, 5)
        a, b = mutate_pair(derive_seed(2, seed), t)
        assert a == t
        if isometric(a, b):
            same += 1
        else:
            different += 1
    assert same > 0 and different > 0


def test_mutate_pair_balances_tree_instances():
    # coverage balance over 1000 trials: both signs occur
    iso = non = 0
    for seed in range(1000):
        t = gen_tree(derive_seed(3, seed), 6)
        a, b = mutate_pair(derive_seed(4, seed), t)
        if rooted_tree_iso(a, b):
            iso += 1
        else:
            non += 1
    assert iso > 0 and non > 0


def test_mutate_pair_balances_space_instances():
    ds = DistanceSet.from_values([F(1), F(2), F(4)])
    same = different = 0
    for seed in range(1000):
        t = gen_ball_tree(derive_seed(5, seed), ds, 6)
        a, b = mutate_pair(derive_seed(6, seed), t)
        if isometric(a, b):
            same += 1
        else:
            different += 1
    assert same > 0 and different > 0


def test_enumerate_ball_trees_small_counts():
    trees = enumerate_ball_trees([F(1)], 2)
    # a leaf and one two-leaf tree
    assert len(trees) == 2
    trees = enumerate_ball_trees([F(1), F(3)], 3)
    # 1 leaf, 2 two-leaf trees, and for 3 leaves: flat(1), flat(3),
    # 3-over-1 nesting = 3 trees
    assert len(trees) == 6
    seen = set()
    from umlab.balltree import canonical_code

    for t in enumerate_ball_trees([F(1), F(3), F(7)], 4):
        code = canonical_code(t)
        assert code not in seen
        seen.add(code)


def test_run_campaign_zero_trials_and_unknown():
    report = run_campaign("theta-iso", 0, 5)
    assert report.passed and report.trials == 0 and not report.failures
    with pytest.raises(InputError):
        run_campaign("no-such-property", 10, 5)


def test_run_campaign_deterministic_modulo_timing():
    a = run_campaign("canon-vs-brute", 40, 123).to_doc()
    b = run_campaign("canon-vs-brute", 40, 123).to_doc()
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


def _const(value):
    return lambda *args: value


# One planted fault per property, and the inputs every failure must carry.
FAULTS = {
    "canon-vs-brute": (umlab.metric, "brute_isometric", _const(False), "left right"),
    "embed-vs-brute": (umlab.balltree, "embeds", _const(True), "small big"),
    "theta-iso": (umlab.reduce, "tree_ultrametric", _const(leaf("broken")), "left right radii"),
    "theta-embed": (umlab.balltree, "embeds", _const(True), "left right radii"),
    "glue-star": (umlab.reduce, "glue_canonical", lambda u, ds, rbar: u,
                  "left right distances rbar"),
    "add-tail-iso": (umlab.reduce, "add_tail", lambda x, ds: x, "left right distances"),
    "add-tail-embed": (umlab.reduce, "add_tail", lambda x, ds: x, "left right distances"),
    "phi-union": (umlab.balltree, "embeds", _const(True), "left right radius"),
    "decompose": (umlab.balltree, "isometric", _const(False), "left right distances"),
    "rank-tree": (umlab.balltree, "isometric", _const(False), "left right radii"),
    "powerset-embed": (umlab.reduce, "subset_space", _const(leaf("p")), "left right"),
    "graph-metric-iso": (umlab.metric, "brute_isometric", _const(False), "left right r rp"),
    "graph-metric-embed": (umlab.metric, "brute_embeds", _const(True), "left right r rp"),
    "inj-flow-vs-char": (umlab.qo, "inj_le", _const((False, None)), "qo left right"),
    "inj-flow-vs-wqo": (umlab.qo, "inj_le", _const((False, None)), "qo left right"),
    "inj-counts-equiv": (umlab.qo, "inj_le", _const((False, None)), "qo left right"),
    "cf-support-only": (umlab.qo, "cf_le", _const(False), "qo left right"),
    "iterate-sanity": (umlab.qo, "iterate_levels",
                       _const(IterationTrace((frozenset(),), 0, frozenset())), "qo multiset"),
    "witness-levels": (umlab.qo, "level_respecting_witness", _const(None), "qo left right"),
    "triangle-wellspaced": (umlab.metric, "triangle_audit", _const(TriangleAudit(False, None)),
                            "values"),
}


def test_fault_injection_is_detected(monkeypatch):
    # a broken construction or decider must produce replayable failures
    assert set(FAULTS) == CONTRACT
    for name, (module, attr, fault, keys) in FAULTS.items():
        with monkeypatch.context() as patch:
            patch.setattr(module, attr, fault)
            report = run_campaign(name, 60, 2024)
            assert not report.passed, name
            json.dumps(report.to_doc())
            for f in report.failures:
                assert f.trial >= 0
                assert set(f.inputs) == set(keys.split()), (name, f.inputs)
            first = report.failures[0]
            assert run_campaign(name, first.trial + 1, 2024).failures[-1] == first, name


def test_a_raising_trial_is_a_replayable_failure(monkeypatch):
    embeds = umlab.balltree.embeds

    def planted(a, b):
        if b.n_points == 3:  # only on trials whose right set has two values
            return 1 / 0
        return embeds(a, b)

    monkeypatch.setattr(umlab.balltree, "embeds", planted)
    report = run_campaign("powerset-embed", 64, 9)
    assert 0 < len(report.failures) < 64
    first = report.failures[0]
    assert first.got == "ZeroDivisionError: division by zero"
    assert first.expected == "no exception" and first.inputs == {}
    json.dumps(report.to_doc())
    assert run_campaign("powerset-embed", first.trial + 1, 9).failures[-1] == first


def test_campaign_bounds_are_honored():
    report = run_campaign("theta-iso", 30, 7, Bounds(max_nodes=3))
    assert report.passed


@pytest.mark.parametrize("name", ["graph-metric-iso", "graph-metric-embed"])
def test_graph_oracle_never_runs_above_the_brute_bound(monkeypatch, name):
    # bounds past the metric oracle's are refused before any graph search
    sizes = []
    for attr in ("brute_graph_iso", "brute_graph_embeds"):
        def recorded(g, h, _real=getattr(umlab.reduce, attr)):
            sizes.append(max(g.n, h.n))
            return _real(g, h)
        monkeypatch.setattr(umlab.reduce, attr, recorded)
    with pytest.raises(SizeBoundError):
        run_campaign(name, 20, 0, Bounds(max_nodes=40))
    assert max(sizes, default=0) <= DEFAULT_BRUTE_BOUND, sizes


# Trial bounds of the acceptance suite; unlisted properties take Bounds().
ACCEPTANCE_BOUNDS = {
    "canon-vs-brute": Bounds(max_points=7),
    "embed-vs-brute": Bounds(max_points=6),
    "theta-iso": Bounds(max_nodes=8),
    "theta-embed": Bounds(max_nodes=8),
    "glue-star": Bounds(max_points=6),
    "add-tail-iso": Bounds(max_points=6),
    "add-tail-embed": Bounds(max_points=6),
    "decompose": Bounds(max_points=5),
    "rank-tree": Bounds(max_nodes=7),
    "graph-metric-iso": Bounds(max_nodes=7),
    "graph-metric-embed": Bounds(max_nodes=7),
    "inj-flow-vs-char": Bounds(max_support=6),
    "inj-flow-vs-wqo": Bounds(max_support=6),
    "inj-counts-equiv": Bounds(max_support=6),
}

# sha256 (first 16 hex digits) of every random() and getrandbits(k) value
# drawn in the first 100 trials at seed 20260810, followed by the report
# without elapsed_seconds.  A change here means existing seeds no longer
# replay the same instances.
DRAW_DIGESTS = {
    "add-tail-embed": "153c6eb60e4336cc",
    "add-tail-iso": "efe7b122e4ee93e5",
    "canon-vs-brute": "e610940a9e3c883d",
    "cf-support-only": "b605d96170982ffd",
    "decompose": "ccc469d9c65eddf9",
    "embed-vs-brute": "5492cdc19fe67fe2",
    "glue-star": "4275ca95d85f9537",
    "graph-metric-embed": "5d751b24866933d0",
    "graph-metric-iso": "15c285b2b89ca156",
    "inj-counts-equiv": "57e593b0d7af090e",
    "inj-flow-vs-char": "6bebafb821107cd9",
    "inj-flow-vs-wqo": "78edb4394cc58129",
    "iterate-sanity": "f3267660011866ad",
    "phi-union": "5510c27c9dd25eaa",
    "powerset-embed": "d8dafa541d21a13c",
    "rank-tree": "099a3a109270eae1",
    "theta-embed": "d856899564b0ff1b",
    "theta-iso": "92696a98d9ee7b8d",
    "triangle-wellspaced": "24c4b1993fa10c97",
    "witness-levels": "453f0891ebe18942",
}


def _draw_digest(monkeypatch, name):
    log = hashlib.sha256()

    class Logged(genlab.random.Random):
        def random(self):
            value = super().random()
            log.update(repr(value).encode())
            return value

        def getrandbits(self, k):
            value = super().getrandbits(k)
            log.update(f"{k}:{value};".encode())
            return value

    monkeypatch.setattr(genlab.random, "Random", Logged)
    doc = run_campaign(name, 100, 20260810, ACCEPTANCE_BOUNDS.get(name, Bounds())).to_doc()
    doc.pop("elapsed_seconds")
    log.update(json.dumps(doc, sort_keys=True).encode())
    return log.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_draw_streams_are_pinned(monkeypatch, name):
    assert _draw_digest(monkeypatch, name) == DRAW_DIGESTS[name]
