import random
from fractions import Fraction as F

import pytest

from umlab.balltree import (
    canonical_code,
    canonical_space,
    canonicalize,
    embeds,
    from_ball_tree,
    internal,
    isometric,
    leaf,
    realized_of_tree,
    to_ball_tree,
)
from umlab.errors import InputError, NotUltrametricError
from umlab.genlab import _delete_leaf, gen_ball_tree, gen_tree, mutate_pair
from umlab.metric import DistanceSet, FiniteMetric, brute_embeds, brute_isometric
from umlab.reduce import RootedTree, list_embeds, rooted_tree_embeds


def test_single_point_round_trip():
    t = to_ball_tree(FiniteMetric.from_rows([[F(0)]]))
    assert t.is_leaf
    assert from_ball_tree(t).rows == ((F(0),),)


def test_two_point_tree_is_forced():
    t = to_ball_tree(FiniteMetric.from_rows([[F(0), F(1)], [F(1), F(0)]]))
    assert not t.is_leaf and t.label == F(1)
    assert all(c.is_leaf for c in t.children)
    assert from_ball_tree(t).rows == ((F(0), F(1)), (F(1), F(0)))


def test_three_point_comb():
    rows = [[F(0), F(1), F(2)], [F(1), F(0), F(2)], [F(2), F(2), F(0)]]
    t = to_ball_tree(FiniteMetric.from_rows(rows))
    expected = canonical_space(DistanceSet.from_values([F(1), F(2)]))
    assert canonical_code(t) == canonical_code(expected)


def test_to_ball_tree_rejects_non_ultrametric_with_witness():
    rows = [[F(0), F(1), F(2)], [F(1), F(0), F(1)], [F(2), F(1), F(0)]]
    with pytest.raises(NotUltrametricError) as err:
        to_ball_tree(FiniteMetric.from_rows(rows))
    assert err.value.witness == (0, 1, 2)


def test_internal_node_invariants():
    with pytest.raises(InputError):
        internal(F(1), [leaf("a")])  # needs two children
    with pytest.raises(InputError):
        internal(F(1), [internal(F(1), [leaf(), leaf()]), leaf()])  # label order
    with pytest.raises(InputError):
        internal(F(0), [leaf(), leaf()])


def test_code_invariant_under_relabeling_and_reordering():
    inner = internal(F(1), [leaf("a"), leaf("b")])
    t1 = internal(F(2), [inner, leaf("c")])
    t2 = internal(F(2), [leaf("z"), internal(F(1), [leaf("y"), leaf("x")])])
    assert canonical_code(t1) == canonical_code(t2)
    assert isometric(t1, t2)


def test_codes_distinguish_labels():
    a = internal(F(1), [leaf(), leaf()])
    b = internal(F(2), [leaf(), leaf()])
    assert canonical_code(a) != canonical_code(b)
    assert not isometric(a, b)
    # different realized distances are an isometry invariant
    assert realized_of_tree(a) != realized_of_tree(b)


def test_canonical_space_examples():
    assert canonical_space(DistanceSet.from_values([])).is_leaf
    two = canonical_space(DistanceSet.from_values([F(1)]))
    assert canonical_code(two) == canonical_code(internal(F(1), [leaf(), leaf()]))
    comb = canonical_space(DistanceSet.from_values([F(1), F(2)]))
    assert realized_of_tree(comb).values == (F(0), F(1), F(2))


def test_embeds_examples():
    assert embeds(leaf("x"), internal(F(3), [leaf(), leaf()]))
    assert not embeds(
        internal(F(1), [leaf(), leaf()]), internal(F(2), [leaf(), leaf()])
    )
    nested = internal(F(2), [internal(F(1), [leaf(), leaf()]), leaf()])
    assert embeds(internal(F(1), [leaf(), leaf()]), nested)
    assert embeds(internal(F(2), [leaf(), leaf()]), nested)
    assert not embeds(internal(F(2), [leaf(), leaf(), leaf()]), nested)


def test_round_trip_preserves_code_randomized():
    rng = random.Random(99)
    ds = DistanceSet.from_values([F(1, 2), F(1), F(3)])
    for _ in range(200):
        t = gen_ball_tree(rng.getrandbits(64), ds, 7)
        again = to_ball_tree(from_ball_tree(t))
        assert canonical_code(again) == canonical_code(t)
        assert canonicalize(t) == again or canonical_code(canonicalize(t)) == canonical_code(again)


def test_code_equality_matches_brute_force_randomized():
    rng = random.Random(7)
    ds = DistanceSet.from_values([F(1), F(2), F(7, 2)])
    for _ in range(300):
        a = gen_ball_tree(rng.getrandbits(64), ds, 6)
        a, b = mutate_pair(rng.getrandbits(64), a)
        fast = canonical_code(a) == canonical_code(b)
        assert fast == brute_isometric(from_ball_tree(a), from_ball_tree(b))


def test_embeds_matches_brute_force_randomized():
    rng = random.Random(13)
    ds = DistanceSet.from_values([F(1), F(2), F(5)])
    for _ in range(300):
        a = gen_ball_tree(rng.getrandbits(64), ds, 5)
        b = gen_ball_tree(rng.getrandbits(64), ds, 7)
        assert embeds(a, b) == brute_embeds(from_ball_tree(a), from_ball_tree(b))


# ---------------------------------------------------------------------------
# Reference deciders: the recursive Kuhn matcher and the `embeds` that
# searched every internal node below v for x's label.  They share no code
# with `qo.assign` or the label descent, so they check the fast deciders at
# sizes far beyond the brute-force bound.
# ---------------------------------------------------------------------------

def kuhn_matching_exists(xs, ys, fits) -> bool:
    if len(xs) > len(ys):
        return False
    match_of: list[int | None] = [None] * len(ys)

    def augment(xi: int, seen: list[bool]) -> bool:
        for yi in range(len(ys)):
            if seen[yi] or not fits(xs[xi], ys[yi]):
                continue
            seen[yi] = True
            if match_of[yi] is None or augment(match_of[yi], seen):
                match_of[yi] = xi
                return True
        return False

    return all(augment(xi, [False] * len(ys)) for xi in range(len(xs)))


def kuhn_embeds(a, b) -> bool:
    internal_nodes_within: dict[int, list] = {}

    def collect(v):
        got = [] if v.is_leaf else [v]
        for c in v.children:
            got.extend(collect(c))
        internal_nodes_within[id(v)] = got
        return got

    collect(b)
    memo: dict[tuple[int, int], bool] = {}

    def can_embed(x, v) -> bool:
        if x.is_leaf:
            return True
        key = (id(x), id(v))
        if key not in memo:
            memo[key] = any(
                w.label == x.label and kuhn_matching_exists(x.children, w.children, can_embed)
                for w in internal_nodes_within[id(v)]
            )
        return memo[key]

    return can_embed(a, b)


def kuhn_rooted_tree_embeds(g: RootedTree, h: RootedTree) -> bool:
    gk, hk = g.children(), h.children()
    memo: dict[tuple[int, int], bool] = {}

    def can(u: int, v: int) -> bool:
        if (u, v) not in memo:
            memo[u, v] = kuhn_matching_exists(gk[u], hk[v], can)
        return memo[u, v]

    return can(0, 0)


def test_deciders_match_kuhn_reference_up_to_200_points():
    rng = random.Random(2024)
    ds = DistanceSet.from_values(range(1, 9))
    answers = []
    for _ in range(20):
        a = gen_ball_tree(rng.getrandbits(64), ds, 200)
        b = gen_ball_tree(rng.getrandbits(64), ds, 200)
        cut = _delete_leaf(a, rng.randrange(a.n_points))[0] or a
        edited = mutate_pair(rng.getrandbits(64), a)[1]
        for x, y in ((a, a), (cut, a), (a, cut), (a, edited), (edited, a), (a, b)):
            answers.append(embeds(x, y))
            assert answers[-1] == kuhn_embeds(x, y)
    for _ in range(60):
        h = gen_tree(rng.getrandbits(64), 200)
        part = RootedTree(h.parents[:rng.randint(1, h.n)])
        g = gen_tree(rng.getrandbits(64), 40)
        for x, y in ((h, h), (part, h), (h, part), (g, h)):
            answers.append(rooted_tree_embeds(x, y))
            assert answers[-1] == kuhn_rooted_tree_embeds(x, y)
    for _ in range(60):
        xs = [gen_ball_tree(rng.getrandbits(64), ds, 8) for _ in range(rng.randint(1, 5))]
        ys = [gen_ball_tree(rng.getrandbits(64), ds, 25) for _ in range(rng.randint(1, 8))]
        answers.append(list_embeds(xs, ys))
        assert answers[-1] == kuhn_matching_exists(xs, ys, kuhn_embeds)
    assert 0.2 < sum(answers) / len(answers) < 0.8
