import itertools
import random
from fractions import Fraction as F

import pytest

from umlab.balltree import (
    canonical_code,
    canonical_space,
    embeds,
    from_ball_tree,
    internal,
    isometric,
    leaf,
    leaves,
    realized_of_tree,
)
from umlab.errors import InputError
from umlab.genlab import _edit_graph, gen_ball_tree, gen_tree, mutate_pair
from umlab.io import graph_doc, parse_graph
from umlab.metric import DistanceSet, validate
from umlab.rationals import format_rational
from umlab.reduce import (
    Graph,
    RootedTree,
    add_tail,
    brute_graph_embeds,
    brute_graph_iso,
    brute_rooted_embeds,
    brute_rooted_iso,
    decompose_space,
    glue_canonical,
    graph_metric,
    is_trivial_graph,
    list_embeds,
    list_isometric,
    rank_extend,
    rank_ultrametric,
    rooted_tree_embeds,
    rooted_tree_iso,
    subset_space,
    tree_ultrametric,
    union_at_distance,
)

CHAIN2 = RootedTree((None, 0))
STAR3 = RootedTree((None, 0, 0))
CHAIN3 = RootedTree((None, 0, 1))


def test_rooted_tree_validation():
    with pytest.raises(InputError):
        RootedTree((0,))
    with pytest.raises(InputError):
        RootedTree((None, 2))


def test_rooted_tree_iso_and_embeds():
    reordered = RootedTree((None, 0, 1, 0))
    same = RootedTree((None, 0, 0, 2))
    assert rooted_tree_iso(reordered, same)
    assert not rooted_tree_iso(CHAIN3, STAR3)
    assert rooted_tree_embeds(CHAIN2, CHAIN3)
    assert not rooted_tree_embeds(
        RootedTree((None, 0, 0, 0)), RootedTree((None, 0, 0))
    )  # three children into two


def test_rooted_tree_iso_on_deep_paths():
    path = RootedTree((None,) + tuple(range(4999)))
    assert path.n == 5000
    assert rooted_tree_iso(path, RootedTree(path.parents))
    assert not rooted_tree_iso(path, RootedTree(path.parents + (4998,)))
    # same size, only the shape differs: the last node hangs one level higher
    assert not rooted_tree_iso(path, RootedTree(path.parents[:-1] + (4997,)))


def test_rooted_tree_embeds_on_deep_paths():
    path = RootedTree((None,) + tuple(range(899)))
    longer = RootedTree((None,) + tuple(range(4999)))
    assert rooted_tree_embeds(path, path) and rooted_tree_embeds(longer, longer)
    assert rooted_tree_embeds(path, longer)
    assert not rooted_tree_embeds(longer, path)
    # a fork one level above the bottom fits into no path
    assert not rooted_tree_embeds(RootedTree(path.parents + (897,)), longer)


def test_rooted_tree_embeds_matches_brute_force_up_to_8_nodes():
    rng = random.Random(24)
    seen = set()
    for _ in range(1500):
        h = gen_tree(rng.getrandbits(64), 8)
        if rng.random() < 0.5:
            g = gen_tree(rng.getrandbits(64), 8)
        else:  # a subtree of h closed under parents, renumbered
            index = {0: 0}
            for i in range(1, h.n):
                if h.parents[i] in index and rng.random() < 0.7:
                    index[i] = len(index)
            g = RootedTree(tuple(None if i == 0 else index[h.parents[i]] for i in index))
        answer = rooted_tree_embeds(g, h)
        assert answer == brute_rooted_embeds(g, h), (g, h)
        seen.add(answer)
    assert seen == {True, False}


def test_tree_decisions_match_brute_force():
    rng = random.Random(11)
    for _ in range(300):
        g = gen_tree(rng.getrandbits(64), 7)
        g, h = mutate_pair(rng.getrandbits(64), g)
        assert rooted_tree_iso(g, h) == brute_rooted_iso(g, h)
        assert rooted_tree_embeds(g, h) == brute_rooted_embeds(g, h)


# ---------------------------------------------------------------------------
# Depth encoding.
# ---------------------------------------------------------------------------

def test_tree_ultrametric_examples():
    assert tree_ultrametric(RootedTree((None,)), [F(1)]).is_leaf
    two = tree_ultrametric(CHAIN2, [F(3), F(1)])
    assert from_ball_tree(two).rows == ((F(0), F(3)), (F(3), F(0)))
    star = tree_ultrametric(STAR3, [F(3), F(1)])
    m = from_ball_tree(star)
    assert sorted(v for row in m.rows for v in row) == [0, 0, 0] + [F(3)] * 6


def test_tree_ultrametric_ancestor_rule():
    # strict ancestor at depth k <=> distance equals radii[k]
    rng = random.Random(21)
    for _ in range(60):
        t = gen_tree(rng.getrandbits(64), 8)
        radii = [F(t.depth() + 1 - k) for k in range(t.depth() + 1)]
        space = tree_ultrametric(t, radii)
        m = from_ball_tree(space)
        ids = [int(p) for p in leaves(space)]
        depths = t.depths()
        anc: list[set[int]] = [set() for _ in range(t.n)]
        for i in range(1, t.n):
            anc[i] = anc[t.parents[i]] | {t.parents[i]}
        for a in range(m.n):
            for b in range(m.n):
                if a == b:
                    continue
                i, j = ids[a], ids[b]
                strict_ancestor = i in anc[j]
                assert strict_ancestor == (m.rows[a][b] == radii[depths[i]])


def test_tree_ultrametric_needs_enough_radii():
    with pytest.raises(InputError):
        tree_ultrametric(CHAIN3, [F(2), F(1)])
    with pytest.raises(InputError):
        tree_ultrametric(CHAIN2, [F(1), F(2)])


def test_theta_preserve_reflect_randomized():
    rng = random.Random(31)
    for _ in range(150):
        g = gen_tree(rng.getrandbits(64), 7)
        g, h = mutate_pair(rng.getrandbits(64), g)
        depth = max(g.depth(), h.depth())
        radii = [F(depth + 1 - k) for k in range(depth + 1)]
        sg, sh = tree_ultrametric(g, radii), tree_ultrametric(h, radii)
        assert rooted_tree_iso(g, h) == isometric(sg, sh)
        assert rooted_tree_embeds(g, h) == embeds(sg, sh)


# ---------------------------------------------------------------------------
# Rank encoding.
# ---------------------------------------------------------------------------

def test_rank_extend_single_and_chain():
    ext, ranks = rank_extend(RootedTree((None,)))
    assert ext.n == 2 and ranks[0] == 1
    ext, ranks = rank_extend(CHAIN2)
    assert ext.n == 3 and ranks == [2, 1, 0]


def test_rank_ultrametric_single_node():
    space = rank_ultrametric(RootedTree((None,)), [F(0), F(1), F(2)])
    assert from_ball_tree(space).rows == ((F(0), F(1)), (F(1), F(0)))


def test_rank_ultrametric_marker_law():
    # the least positive radius appears exactly between an original leaf
    # and its appended marker
    rng = random.Random(41)
    for _ in range(80):
        t = gen_tree(rng.getrandbits(64), 7)
        radii = [F(k) for k in range(t.rank() + 2)]
        space = rank_ultrametric(t, radii)
        m = from_ball_tree(space)
        ids = leaves(space)
        extended, _ = rank_extend(t)
        expected = {
            tuple(sorted((str(extended.parents[j]), f"*{j}")))
            for j in range(t.n, extended.n)
        }
        got = {
            tuple(sorted((ids[a], ids[b])))
            for a in range(m.n)
            for b in range(a + 1, m.n)
            if m.rows[a][b] == radii[1]
        }
        assert got == expected


def test_rank_iso_law_randomized():
    rng = random.Random(51)
    for _ in range(120):
        g = gen_tree(rng.getrandbits(64), 7)
        g, h = mutate_pair(rng.getrandbits(64), g)
        radii = [F(k) for k in range(max(g.rank(), h.rank()) + 2)]
        assert rooted_tree_iso(g, h) == isometric(
            rank_ultrametric(g, radii), rank_ultrametric(h, radii)
        )


def test_rank_radii_validation():
    with pytest.raises(InputError):
        rank_ultrametric(CHAIN2, [F(1), F(2), F(3)])  # must start at 0
    with pytest.raises(InputError):
        rank_ultrametric(CHAIN2, [F(0), F(1)])  # too short
    with pytest.raises(InputError, match="rank radii must be strictly increasing"):
        rank_ultrametric(CHAIN2, [0, 1, 1, 2])  # a repeated radius


# ---------------------------------------------------------------------------
# Gluing and tails.
# ---------------------------------------------------------------------------

DS124 = DistanceSet.from_values([F(1), F(2), F(4)])


def test_glue_singleton():
    glued = glue_canonical(leaf("a"), DS124, F(4))
    assert realized_of_tree(glued).values == (F(0), F(2), F(4))


def test_glue_keeps_realized_value_of_input():
    u = internal(F(1), [leaf("a"), leaf("b")])
    glued = glue_canonical(u, DS124, F(2))
    assert realized_of_tree(glued).values == DS124.values


def test_glue_preconditions():
    with pytest.raises(InputError):
        glue_canonical(leaf("a"), DS124, F(3))  # rbar not in the set
    with pytest.raises(InputError):
        glue_canonical(internal(F(2), [leaf(), leaf()]), DS124, F(2))  # not above
    with pytest.raises(InputError):
        glue_canonical(internal(F(3), [leaf(), leaf()]), DS124, F(4))  # 3 not in set
    with pytest.raises(InputError):
        glue_canonical(leaf("a"), DistanceSet.from_values([]), F(0))  # fewer than 2 values


def test_glue_preserves_and_reflects_isometry():
    rng = random.Random(61)
    allowed = DistanceSet.from_values([F(1)])
    for _ in range(150):
        u0 = gen_ball_tree(rng.getrandbits(64), allowed, 5)
        u0, u1 = mutate_pair(rng.getrandbits(64), u0)
        g0 = glue_canonical(u0, DS124, F(2))
        g1 = glue_canonical(u1, DS124, F(2))
        assert isometric(u0, u1) == isometric(g0, g1)


def test_add_tail_examples():
    ds = DistanceSet.from_values([F(1), F(2)])
    out = add_tail(leaf("a"), ds)
    assert realized_of_tree(out).values == ds.values
    # x already the canonical space on the lower part: two copies far apart
    x = canonical_space(DistanceSet.from_values([F(1)]))
    out = add_tail(x, ds)
    assert out.n_points == 4 and out.label == F(2)
    # the smallest accepted set, {0, 1}: the tail is one point at distance 1
    out = add_tail(leaf("a"), DistanceSet.from_values([F(1)]))
    assert out.n_points == 2 and realized_of_tree(out).values == (F(0), F(1))
    with pytest.raises(InputError):
        add_tail(leaf("a"), DistanceSet.from_values([]))


def test_add_tail_preserve_reflect():
    rng = random.Random(71)
    ds = DistanceSet.from_values([F(1), F(2), F(4)])
    for _ in range(150):
        x = gen_ball_tree(rng.getrandbits(64), ds, 5)
        x, y = mutate_pair(rng.getrandbits(64), x)
        tx, ty = add_tail(x, ds), add_tail(y, ds)
        assert isometric(x, y) == isometric(tx, ty)
        assert embeds(x, y) == embeds(tx, ty)
        assert realized_of_tree(tx).values == ds.values


# ---------------------------------------------------------------------------
# Unions and decompositions.
# ---------------------------------------------------------------------------

def test_union_examples():
    two = union_at_distance([leaf("a"), leaf("b")], F(2))
    assert from_ball_tree(two).rows == ((F(0), F(2)), (F(2), F(0)))
    comb = union_at_distance(
        [canonical_space(DistanceSet.from_values([F(1)])), leaf("c")], F(2)
    )
    assert canonical_code(comb) == canonical_code(
        canonical_space(DistanceSet.from_values([F(1), F(2)]))
    )
    single = internal(F(1), [leaf(), leaf()])
    assert isometric(union_at_distance([single], F(5)), single)
    with pytest.raises(InputError):
        union_at_distance([internal(F(2), [leaf(), leaf()])], F(2))
    with pytest.raises(InputError, match="cross distance must be positive"):
        union_at_distance([leaf("a"), leaf("b")], F(0))


def test_union_invariant_under_permutation():
    a = internal(F(1), [leaf(), leaf()])
    b = internal(F(1, 2), [leaf(), leaf(), leaf()])
    c = leaf("z")
    assert isometric(
        union_at_distance([a, b, c], F(3)), union_at_distance([c, a, b], F(3))
    )


def test_decompose_examples():
    ds = DistanceSet.from_values([F(1), F(2)])
    x = internal(F(2), [leaf("a"), leaf("b")])
    parts = decompose_space(x, ds)
    marked_pair = internal(F(1), [leaf(), leaf()])
    assert len(parts) == 2
    assert all(canonical_code(p) == canonical_code(marked_pair) for p in parts)
    # no top distance realized: a single component
    parts = decompose_space(internal(F(1), [leaf(), leaf()]), ds)
    assert len(parts) == 1 and parts[0].n_points == 3
    with pytest.raises(InputError):
        decompose_space(leaf("a"), DistanceSet.from_values([F(1)]))


def test_decompose_round_trip_law():
    rng = random.Random(81)
    ds = DistanceSet.from_values([F(1), F(2), F(4)])
    for _ in range(150):
        x = gen_ball_tree(rng.getrandbits(64), ds, 6)
        x, y = mutate_pair(rng.getrandbits(64), x)
        dx, dy = decompose_space(x, ds), decompose_space(y, ds)
        assert embeds(x, y) == list_embeds(dx, dy)
        assert isometric(x, y) == list_isometric(dx, dy)


def test_union_matching_law():
    rng = random.Random(91)
    ds = DistanceSet.from_values([F(1), F(3, 2)])
    for _ in range(120):
        xs = [gen_ball_tree(rng.getrandbits(64), ds, 4) for _ in range(rng.randint(1, 3))]
        ys = [gen_ball_tree(rng.getrandbits(64), ds, 4) for _ in range(rng.randint(1, 3))]
        ux, uy = union_at_distance(xs, F(2)), union_at_distance(ys, F(2))
        assert list_embeds(xs, ys) == embeds(ux, uy)
        assert list_isometric(xs, ys) == isometric(ux, uy)


# ---------------------------------------------------------------------------
# Every construction against its defining distance formula.
# ---------------------------------------------------------------------------

def _assert_space(out, ids, dist):
    """out has exactly the points ids, at distances dist(a, b)."""
    names = leaves(out)
    assert sorted(names) == sorted(ids)
    m = from_ball_tree(out)
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            assert m.rows[i][j] == (0 if a == b else dist(a, b)), (a, b)


def _distances(t):
    names = leaves(t)
    m = from_ball_tree(t)
    return {(a, b): m.rows[i][j] for i, a in enumerate(names) for j, b in enumerate(names)}


def _lca(parents, i, j):
    path = [i]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    while j not in path:
        j = parents[j]
    return j


def _point(name):
    """(whether name is a fresh tail point, its value)."""
    return (True, F(name[1:])) if name.startswith("*") else (False, None)


def test_constructions_match_their_formulas():
    rng = random.Random(101)
    ds = DistanceSet.from_values([F(1), F(2), F(3), F(5)])
    top, second = F(5), F(3)
    seen = set()
    for trial in range(80):
        # theta: radii at the depth of the deepest common ancestor
        t = gen_tree(rng.getrandbits(64), 9)
        depths = t.depths()
        radii = [F(2 * t.depth() + 1 - 2 * k, 3) for k in range(t.depth() + 1)]
        _assert_space(
            tree_ultrametric(t, radii),
            [str(i) for i in range(t.n)],
            lambda a, b: radii[depths[_lca(t.parents, int(a), int(b))]],
        )

        # rank: one fresh child under each leaf, radii at the common ancestor's rank
        parents = list(t.parents) + [i for i in range(t.n) if i not in t.parents]
        height = [0] * len(parents)
        for i in range(len(parents) - 1, 0, -1):
            height[parents[i]] = max(height[parents[i]], height[i] + 1)
        radii = [F(k * k, 2) for k in range(height[0] + 1)]
        _assert_space(
            rank_ultrametric(t, radii),
            [str(i) for i in range(t.n)] + [f"*{j}" for j in range(t.n, len(parents))],
            lambda a, b: radii[height[_lca(parents, int(a.lstrip("*")), int(b.lstrip("*")))]],
        )

        # glue: the tail is ds without its least positive value, cross max(rbar, v)
        rbar = ds.positive[trial % 4]
        u = gen_ball_tree(rng.getrandbits(64), DistanceSet.from_values(
            [v for v in ds.positive if v < rbar]), 5) if rbar > 1 else leaf("p")
        du, tail = _distances(u), [v for v in ds.values if v != F(1)]

        def glued(a, b):
            (ta, va), (tb, vb) = _point(a), _point(b)
            if ta and tb:
                return max(va, vb)
            if ta or tb:
                return max(rbar, va if ta else vb)
            return du[a, b]

        _assert_space(glue_canonical(u, ds, rbar),
                      leaves(u) + [f"*{format_rational(v)}" for v in tail], glued)
        seen.add("rbar least" if rbar == ds.positive[0] else "rbar above")

        # tail: the canonical space on ds minus its maximum, cross distance top
        x = gen_ball_tree(rng.getrandbits(64), ds, 6)
        dx = _distances(x)

        def tailed(a, b):
            (ta, va), (tb, vb) = _point(a), _point(b)
            if ta and tb:
                return max(va, vb)
            return top if ta or tb else dx[a, b]

        _assert_space(add_tail(x, ds),
                      leaves(x) + [f"*{format_rational(v)}" for v in ds.values[:-1]], tailed)
        seen.add("leaf input" if x.is_leaf else "internal input")

        # decompose: the classes of d < top, each marked at distance second
        classes: list[list[str]] = []
        for a in leaves(x):
            home = next((c for c in classes if dx[a, c[0]] < top), None)
            if home is None:
                classes.append([a])
            else:
                home.append(a)
        parts = decompose_space(x, ds)
        assert len(parts) == len(classes)
        got = set()
        for k, part in enumerate(parts):
            members = [a for a in leaves(part) if a != f"*{k}"]
            got.add(frozenset(members))
            _assert_space(part, members + [f"*{k}"],
                          lambda a, b: second if "*" in a + b else dx[a, b])
            if any(dx[a, b] == second for a in members for b in members):
                seen.add("class at second")
        assert got == {frozenset(c) for c in classes}
    assert seen == {"rbar least", "rbar above", "leaf input", "internal input", "class at second"}


# ---------------------------------------------------------------------------
# Graphs and subsets.
# ---------------------------------------------------------------------------

def test_graph_metric_examples():
    single_edge = Graph.from_edges(2, [(0, 1)])
    m = graph_metric(single_edge, F(1), F(3, 2))
    assert m.rows == ((F(0), F(1)), (F(1), F(0)))
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    report = validate(graph_metric(path, F(1), F(3, 2)).rows)
    assert report.is_metric and not report.is_ultrametric
    # rp = 2r is the largest accepted: the triangle r + r >= rp still holds
    assert validate(graph_metric(path, F(1), F(2)).rows).is_metric
    with pytest.raises(InputError):
        graph_metric(path, F(1), F(3))  # rp > 2r
    with pytest.raises(InputError):
        graph_metric(path, F(2), F(2))


def test_graph_flags():
    assert is_trivial_graph(Graph.from_edges(3, []))
    assert is_trivial_graph(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]))
    assert is_trivial_graph(Graph.from_edges(1, []))
    assert not is_trivial_graph(Graph.from_edges(3, [(0, 1)]))


def test_graph_validation():
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 3)])


def test_brute_graph_oracles():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    relabeled = Graph.from_edges(3, [(1, 0), (0, 2)])
    assert brute_graph_iso(p3, relabeled)
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert not brute_graph_iso(p3, triangle)
    assert brute_graph_embeds(Graph.from_edges(2, [(0, 1)]), p3)
    # induced: a non-edge must stay a non-edge
    assert not brute_graph_embeds(Graph.from_edges(2, []), Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))


# The permutation oracles that the bitset search replaced, kept as the
# reference: every bijection (resp. injection), tested on edge sets.

def _perm_search(g: Graph, h: Graph, images) -> bool:
    ge, he = set(g.edges), set(h.edges)
    return any(
        all(
            ((i, j) in ge) == ((min(p[i], p[j]), max(p[i], p[j])) in he)
            for i in range(g.n)
            for j in range(i + 1, g.n)
        )
        for p in images
    )


def perm_graph_iso(g: Graph, h: Graph) -> bool:
    return g.n == h.n and len(g.edges) == len(h.edges) and _perm_search(
        g, h, itertools.permutations(range(h.n))
    )


def perm_graph_embeds(g: Graph, h: Graph) -> bool:
    return g.n <= h.n and _perm_search(g, h, itertools.permutations(range(h.n), g.n))


def _all_graphs(max_vertices: int):
    """Every labelled graph on 1..max_vertices vertices, with its edge list."""
    for n in range(1, max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [e for k, e in enumerate(pairs) if mask >> k & 1]
            yield Graph.from_edges(n, edges), edges


def test_graph_rows_agree_with_edge_sets():
    r, rp = F(2), F(3)
    graphs = 0
    for g, edges in _all_graphs(5):
        graphs += 1
        assert g.edges == tuple(edges)
        assert parse_graph(graph_doc(g)) == g
        assert graph_doc(g) == {"n": g.n, "edges": [list(e) for e in edges]}
        assert Graph.from_edges(g.n, [(b, a) for a, b in reversed(edges)] + edges) == g
        edge_set = set(edges)
        assert graph_metric(g, r, rp).rows == tuple(
            tuple(
                F(0) if i == j else (r if (min(i, j), max(i, j)) in edge_set else rp)
                for j in range(g.n)
            )
            for i in range(g.n)
        )
        assert is_trivial_graph(g) == (len(edges) in (0, g.n * (g.n - 1) // 2))
    assert graphs == 1 + 2 + 8 + 64 + 1024


def test_graph_oracles_agree_with_permutation_reference_up_to_4_vertices():
    graphs = [g for g, _ in _all_graphs(4)]
    assert len(graphs) == 75
    seen = set()
    for g in graphs:
        for h in graphs:
            iso, emb = brute_graph_iso(g, h), brute_graph_embeds(g, h)
            assert iso == perm_graph_iso(g, h), (g, h)
            assert emb == perm_graph_embeds(g, h), (g, h)
            seen.add((iso, emb))
    assert seen == {(True, True), (False, True), (False, False)}


def test_graph_oracles_agree_with_permutation_reference_on_seeded_pairs():
    rng = random.Random(19)
    counts = {"iso": 0, "embeds": 0}
    for trial in range(300):
        n = rng.randint(5, 7)
        h = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5])
        if trial % 3 == 0:
            _, g = mutate_pair(trial, h)  # a relabelled copy or a one-pair edit
        elif trial % 3 == 1:  # an induced subgraph, relabelled
            keep = rng.sample(range(n), rng.randint(5, n))
            index = {v: k for k, v in enumerate(keep)}
            g = Graph.from_edges(
                len(keep), [(index[a], index[b]) for a, b in h.edges if a in index and b in index]
            )
        else:
            m = rng.randint(5, 7)
            g = Graph.from_edges(m, [e for e in itertools.combinations(range(m), 2) if rng.random() < 0.5])
        iso, emb = brute_graph_iso(g, h), brute_graph_embeds(g, h)
        assert iso == perm_graph_iso(g, h), (g, h)
        assert emb == perm_graph_embeds(g, h), (g, h)
        counts["iso"] += iso
        counts["embeds"] += emb
    assert all(50 < k < 250 for k in counts.values())  # both answers are common


def test_edit_graph_changes_exactly_one_pair():
    rng = random.Random(7)
    for g, edges in _all_graphs(5):
        edited = _edit_graph(rng, g)
        assert Graph.from_edges(edited.n, edited.edges) == edited  # rows stay symmetric
        if g.n == 1:
            assert edited == Graph.from_edges(2, [])
        else:
            assert edited.n == g.n and len(set(edited.edges) ^ set(edges)) == 1


def test_subset_space_examples():
    assert subset_space([]).is_leaf
    two = subset_space([F(1)])
    assert realized_of_tree(two).values == (F(0), F(1))
    with pytest.raises(InputError):
        subset_space([F(0)])


def test_subset_space_exhaustive_inclusion_law():
    universe = [F(1), F(2), F(3)]
    spaces = {}
    for bits in range(8):
        values = [v for k, v in enumerate(universe) if bits >> k & 1]
        spaces[bits] = subset_space(values)
    for xb in range(8):
        for yb in range(8):
            assert (xb & yb == xb) == embeds(spaces[xb], spaces[yb])
