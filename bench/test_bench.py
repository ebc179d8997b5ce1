"""Tests of the benchmark's own code: the inputs of known answer, the
self-time arithmetic, the tail percentile and the output judge.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import expect as ex  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TREE = (F(3), [(F(1), ["a", "b", "c"]), (F(2), ["d", (F(1), ["e", "f"])]), "g"])


def distances(tree) -> dict[frozenset, F]:
    """Pairwise distances read off the matrix document."""
    order = [n for n in ex.nodes(tree) if ex.is_leaf(n)]
    rows = ex.matrix_doc(tree)["matrix"]
    return {frozenset((order[i], order[j])): F(rows[i][j])
            for i in range(len(order)) for j in range(i + 1, len(order))}


def brute_isometric(a, b) -> bool:
    da, db = distances(a), distances(b)
    pa = [n for n in ex.nodes(a) if ex.is_leaf(n)]
    pb = [n for n in ex.nodes(b) if ex.is_leaf(n)]
    if len(pa) != len(pb):
        return False
    for perm in itertools.permutations(pb):
        m = dict(zip(pa, perm))
        if all(db[frozenset((m[x], m[y]))] == d for pair, d in da.items() for x, y in [tuple(pair)]):
            return True
    return False


# ---------------------------------------------------------------------------
# Ball trees.
# ---------------------------------------------------------------------------

def test_tree_basics():
    assert ex.point_count(TREE) == 7
    assert ex.realized(TREE) == {F(0), F(1), F(2), F(3)}
    assert ex.canon_code(TREE) == "(3;(1;LLL)(2;(1;LL)L)L)"


def test_matrix_doc_is_the_lca_matrix():
    d = distances(TREE)
    assert d[frozenset("ab")] == 1
    assert d[frozenset("ef")] == 1
    assert d[frozenset("de")] == 2
    assert d[frozenset("ag")] == 3
    assert d[frozenset("ce")] == 3
    rows = ex.matrix_doc(TREE)["matrix"]
    assert all(rows[i][j] == rows[j][i] for i in range(7) for j in range(7))
    assert all(rows[i][i] == "0" for i in range(7))


def test_relabel_is_isometric_with_same_code():
    rng = random.Random(1)
    copy = ex.relabel(TREE, rng)
    assert ex.canon_code(copy) == ex.canon_code(TREE)
    assert set(n for n in ex.nodes(copy) if ex.is_leaf(n)).isdisjoint("abcdefg")
    assert brute_isometric(TREE, copy)


def test_delete_leaves_gives_a_subspace():
    rng = random.Random(2)
    for k in range(1, 6):
        sub = ex.delete_leaves(TREE, rng, k)
        assert ex.point_count(sub) == 7 - k
        d, ds = distances(TREE), distances(sub)
        assert all(d[pair] == v for pair, v in ds.items())  # distances kept
        for node in ex.nodes(sub):  # no one-child nodes, labels decrease
            if not ex.is_leaf(node):
                assert len(node[1]) >= 2
                assert all(ex.is_leaf(c) or c[0] < node[0] for c in node[1])


def test_insert_distance_realizes_the_value_and_keeps_the_rest():
    rng = random.Random(3)
    for value in (F(1, 2), F(3, 2), F(5)):
        grown = ex.insert_distance(TREE, rng, value)
        assert ex.realized(grown) == ex.realized(TREE) | {value}
        d, dg = distances(TREE), distances(grown)
        assert all(dg[pair] == v for pair, v in d.items())
        for node in ex.nodes(grown):
            if not ex.is_leaf(node):
                assert all(ex.is_leaf(c) or c[0] < node[0] for c in node[1])
    with pytest.raises(ValueError):
        ex.insert_distance(TREE, rng, 2)


def test_constructions_agree_with_umlab_on_generated_trees():
    from umlab import balltree as bt
    from umlab import genlab
    from umlab import io as uio

    rng = random.Random(4)
    for seed in range(30):
        tree = workloads._plain(genlab.gen_ball_tree(seed, workloads._DISTANCES, 12))
        parsed = uio.parse_space(ex.balltree_doc(tree))
        assert bt.canonical_code(parsed).decode() == ex.canon_code(tree)
        assert ex.point_count(tree) == parsed.n_points
        if ex.point_count(tree) > 1:
            matrix = uio.space_to_tree(uio.parse_space(ex.matrix_doc(tree)))
            assert bt.canonical_code(matrix).decode() == ex.canon_code(tree)
            sub = ex.delete_leaves(tree, rng, 1)
            assert bt.embeds(uio.parse_space(ex.balltree_doc(sub)), parsed)


# ---------------------------------------------------------------------------
# Chains, rooted trees, graphs.
# ---------------------------------------------------------------------------

def test_chain_text_shape_and_depth():
    doc = json.loads(ex.chain_text([3, 1, F(5, 2)]))
    assert ex.doc_shape(doc) == (4, {F(0), F(1), F(5, 2), F(3)})
    assert doc["tree"]["label"] == "3"
    assert doc["tree"]["children"][1] == {"leaf": "3"}
    deep = ex.chain_text(range(1, 400))  # deeper than the default recursion limit allows to build
    assert deep.count('"label"') == 399


def test_theta_and_rank_shapes():
    parents = [None, 0, 0, 1, 1, 3]  # depths 0 1 1 2 2 3; ranks 3 2 0 1 0 0
    assert ex.depths(parents) == [0, 1, 1, 2, 2, 3]
    assert ex.ranks(parents) == [3, 2, 0, 1, 0, 0]
    assert ex.theta_shape(parents, [9, 7, 5, 3]) == (6, {F(0), F(9), F(7), F(5)})
    # three leaves get a child each; ranks 0..3 become 1..4
    assert ex.rank_shape(parents, [0, 1, 2, 3, 4]) == (9, {F(0), F(1), F(2), F(3), F(4)})
    assert ex.theta_shape([None], [1]) == (1, {F(0)})


def test_theta_and_rank_shapes_match_umlab():
    from umlab import reduce as red

    rng = random.Random(5)
    for n in (1, 2, 5, 9, 14):
        parents = ex.random_parents(rng, n)
        tree = red.RootedTree(tuple(parents))
        radii = list(range(max(ex.depths(parents)) + 1, 0, -1))
        out = red.tree_ultrametric(tree, radii)
        got = (out.n_points, set(red.realized_of_tree(out).values))
        assert got == ex.theta_shape(parents, radii)
        radii = list(range(max(ex.ranks(parents)) + 2))
        out = red.rank_ultrametric(tree, radii)
        assert (out.n_points, set(red.realized_of_tree(out).values)) == ex.rank_shape(parents, radii)


# ---------------------------------------------------------------------------
# Quasi-orders and multisets.
# ---------------------------------------------------------------------------

def closure(n, pairs):
    le = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        le[i][j] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                le[i][j] = le[i][j] or (le[i][k] and le[k][j])
    return le


@pytest.mark.parametrize("seed", range(8))
def test_make_qo_reach_is_the_closure_and_blocks_are_classes(seed):
    rng = random.Random(seed)
    q = ex.make_qo(rng, 14, 0.3)
    le = closure(q.n, q.pairs)
    assert all(q.le(x, y) == le[x][y] for x in range(q.n) for y in range(q.n))
    classes = {frozenset(y for y in range(q.n) if le[x][y] and le[y][x]) for x in range(q.n)}
    assert classes == {frozenset(b) for b in q.blocks}
    assert ex.classes_expect(q) == sorted((sorted(c) for c in classes), key=lambda c: c[0])
    sink = q.blocks[-1]
    assert all(not q.le(x, y) for x in sink for y in range(q.n) if y not in sink)


def test_multiset_constructions():
    rng = random.Random(6)
    q = ex.make_qo(rng, 10, 0.3)
    ms = {0: 2, 3: ex.OMEGA, 5: 1}
    bumped = ex.bump(ms, rng, 3)
    assert bumped[3] == ex.OMEGA
    assert all(bumped[x] >= ms[x] for x in (0, 5)) and bumped[0] + bumped[5] > 3
    assert ex.without_omega(ms, 9) == {0: 2, 3: 9, 5: 1}
    assert ex.OMEGA in ex.with_omega({1: 1, 2: 2}, rng).values()
    shuffled = ex.within_class_shuffle(ms, q, rng)

    def masses(m):
        out = {}
        for x, v in m.items():
            b = q.block_of[x]
            out[b] = ex.OMEGA if ex.OMEGA in (v, out.get(b)) else out.get(b, 0) + v
        return out

    assert masses(shuffled) == masses(ms)


def test_iterate_expect_by_hand():
    q = ex.QuasiOrderFixture(4, [0, 1, 2, 3], [[0], [1], [2], [3]], [[0, 1]],
                             [0b0011, 0b0010, 0b0100, 0b1000])
    assert ex.iterate_expect(q, {0: 1, 1: ex.OMEGA, 2: 5}) == {
        "levels": [[0, 1, 2], [0, 1]], "stabilized_at": 1, "core": [0, 1]}
    assert ex.iterate_expect(q, {0: 1, 2: 5}) == {
        "levels": [[0, 2], []], "stabilized_at": 1, "core": []}
    assert ex.iterate_expect(q, {1: ex.OMEGA}) == {
        "levels": [[1]], "stabilized_at": 0, "core": [1]}


# ---------------------------------------------------------------------------
# Decks.
# ---------------------------------------------------------------------------

def test_decks_repeat_for_a_seed_and_spread_groups(tmp_path):
    a = workloads.build("matrix-sweep", 7, tmp_path / "a")
    b = workloads.build("matrix-sweep", 7, tmp_path / "b")
    assert [c.argv[:2] for c in a] == [c.argv[:2] for c in b]
    assert run.balance(a) == run.balance(b)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files)
    deck = workloads.Deck(tmp_path / "c", 0, "x")
    for k in range(4):
        deck.add("big", k)
    for k in range(2):
        deck.add("small", -k)
    assert deck.calls() == [0, 0, 1, 2, -1, 3]  # at 1/8, 2/8, 3/8, 5/8, 6/8, 7/8


def test_campaign_covers_every_property():
    from umlab.genlab import property_names

    assert sorted(workloads.CAMPAIGN) == property_names() == sorted(run.PROPERTIES)


# ---------------------------------------------------------------------------
# Self times, tails, judging.
# ---------------------------------------------------------------------------

def test_self_times_subtract_children_once():
    recorded = [
        (-1, "root", 0, 100),
        (0, "a", 10, 40),
        (1, "b", 15, 25),
        (0, "a", 50, 60),
        (0, "c", 55, 70),  # overlaps the previous child: covered once
        (-1, "root", 200, 210),
    ]
    got = spans.self_times(recorded)
    assert got["root"] == pytest.approx((100 - 50 + 10) / 1e9)
    assert got["a"] == pytest.approx((30 - 10 + 10) / 1e9)
    assert got["b"] == pytest.approx(10 / 1e9)
    assert got["c"] == pytest.approx(15 / 1e9)
    # the overlap of a and c is self time of both, but covered once in root
    assert sum(got.values()) == pytest.approx(115 / 1e9)


def test_tracer_covers_aliases_and_restores_them():
    from umlab import balltree as bt
    from umlab import io as uio
    from umlab import metric as mt
    from umlab import reduce as red

    originals = (mt.validate, uio.validate, bt.validate, red.embeds, bt.canonical_code)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert uio.validate is not originals[1] and bt.validate is not originals[2]
        assert red.embeds is not originals[3]
        tree = uio.parse_space(ex.matrix_doc(TREE))
        code = bt.canonical_code(bt.to_ball_tree(tree))
    finally:
        tracer.uninstall()
    assert (mt.validate, uio.validate, bt.validate, red.embeds, bt.canonical_code) == originals
    calls = tracer.calls()
    assert calls["metric.validate_s"] == 2  # io parse and to_ball_tree
    # the recursion inside canonical_code records no spans of its own
    assert calls["balltree.canonical_code_s"] == 1 + sum(  # sort keys in canonicalize
        len(n[1]) for n in ex.nodes(TREE) if not ex.is_leaf(n))
    assert code.decode() == ex.canon_code(TREE)
    assert tracer.counts["rationals.parse_calls"] == 49
    parents = {name: [] for name in calls}
    for parent, name, _, _ in tracer.spans:
        parents[name].append(tracer.spans[parent][1] if parent >= 0 else None)
    assert set(parents["metric.validate_s"]) == {"io.parse_space_s", "balltree.to_ball_tree_s"}


def test_tail_percentile_keeps_ten_samples_above():
    assert run.tail(list(range(1, 101))) == (90, 90)
    pct, value = run.tail(list(range(1, 27)))
    assert pct == 61 and value == 16 and sum(v > value for v in range(1, 27)) == 10
    assert run.tail([3, 1, 2]) == (50, 2)
    assert run.tail(list(range(1, 16))) == (50, 8)  # never below the median
    assert run.tail([4, 1, 3, 2]) == (50, 2.5)


def test_fastest_takes_each_call_at_its_best_repetition():
    calls = ["a", "b", "c"]
    times = [[0.3, 0.2, 0.5], [0.1, 0.4, 0.6], [0.2, 0.3, 0.4]]  # decks in order
    kinds = [["ok", "ok", "ok"], ["ok", "traceback", "ok"], ["ok", "ok", "ok"]]
    outcomes = [run.Outcome(call, t, kind) for ts, ks in zip(times, kinds)
                for call, t, kind in zip(calls, ts, ks)]
    assert run.fastest(outcomes, 3) == [(0.1, True), (0.2, False), (0.4, True)]


def test_judge_classifies_failures():
    call = workloads.Call("space isom", 3, [], 0, workloads.decides("isometric", True), True)
    assert run.judge(call, 0, '{"isometric": true}', "") == ("ok", "")
    assert run.judge(call, 1, '{"isometric": false}', "")[0] == "wrong"
    assert run.judge(call, 0, '{"isometric": false}', "")[0] == "wrong"
    assert run.judge(call, 2, "", "error: bad")[0] == "exit 2"
    crash = "Traceback (most recent call last):\n  ...\nRecursionError: too deep\n"
    assert run.judge(call, 1, "", crash) == ("traceback", "RecursionError: too deep")
