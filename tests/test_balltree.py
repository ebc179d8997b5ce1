import itertools
import json
import random
from fractions import Fraction as F

import pytest

from umlab import metric
from umlab import io as uio
from umlab.balltree import (
    BallTree,
    canonical_code,
    canonical_space,
    canonicalize,
    chain,
    embeds,
    from_ball_tree,
    internal,
    isometric,
    leaf,
    leaves,
    realized_of_tree,
    to_ball_tree,
)
from umlab.errors import InputError, NotUltrametricError
from umlab.cli import main
from umlab.genlab import Bounds, _delete_leaf, gen_ball_tree, gen_tree, mutate_pair, run_campaign
from umlab.metric import DistanceSet, FiniteMetric, brute_embeds, brute_isometric, validate
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
    rng = random.Random(13)
    for size in [1, 2, 3, *rng.sample(range(4, 150), 20), 150]:
        values = [F(v, 3) for v in sorted(rng.sample(range(1000), size))]
        assert canonicalize(chain(values)) == chain(values)  # leaf ids too


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


# ---------------------------------------------------------------------------
# References for the single-linkage pass: the cubic axiom scan `validate`
# ran on every matrix, and the recursive clustering `to_ball_tree` used.
# ---------------------------------------------------------------------------

def scan_validate(rows):
    """(is_metric, is_ultrametric, violation texts) by the cubic scan."""
    n = len(rows)
    found = [f"diagonal violated at ({i},{i})" for i in range(n) if rows[i][i] != 0]
    for i, j in itertools.combinations(range(n), 2):
        if rows[i][j] != rows[j][i]:
            found.append(f"symmetry violated at ({i},{j})")
        elif rows[i][j] == 0:
            found.append(f"positivity violated at ({i},{j})")
    if found:
        return False, False, found
    for kind, bound in (("triangle", lambda a, b: a + b), ("ultrametric", max)):
        for i, j, k in itertools.permutations(range(n), 3):
            if i < k and rows[i][k] > bound(rows[i][j], rows[j][k]):
                found.append(f"{kind} violated at ({i},{j},{k}): "
                             f"{rows[i][k]} > {bound(rows[i][j], rows[j][k])}")
        if found:
            return kind == "ultrametric", False, found
    return True, True, found


def build_ball_tree(m: FiniteMetric) -> BallTree:
    """Split each ball into the classes of d < radius, children by least point."""
    def build(points):
        if len(points) == 1:
            return leaf(str(points[0]))
        radius = max(m.rows[i][j] for i in points for j in points)
        groups = []
        for p in points:
            for g in groups:
                if m.rows[p][g[0]] < radius:
                    g.append(p)
                    break
            else:
                groups.append([p])
        return internal(radius, (build(g) for g in groups))

    return canonicalize(build(list(range(m.n))))


def ultrametric_matrices(seed: int, count: int, max_points: int):
    rng = random.Random(seed)
    ds = DistanceSet.from_values([F(1, 2), F(1), F(2), F(3), F(7, 2), F(5)])
    for _ in range(count):
        yield from_ball_tree(gen_ball_tree(rng.getrandbits(64), ds, rng.randint(1, max_points)))


def perturbed(m: FiniteMetric, rng: random.Random):
    """Copies of m with one symmetric entry raised, lowered, or tied to a
    neighbour in its row, and one made asymmetric."""
    if m.n < 3:
        return
    i, j, k = rng.sample(range(m.n), 3)
    d = m.rows[i][j]
    for value, mirror in ((d + F(1, 3), True), (d / 2, True), (m.rows[i][k], True), (d + 1, False)):
        rows = [list(row) for row in m.rows]
        rows[i][j] = value
        if mirror:
            rows[j][i] = value
        yield rows


def as_parsed(rows):
    """rows with every entry a fresh object, as the JSON parser makes them."""
    return [[F(v.numerator, v.denominator) for v in row] for row in rows]


def test_validate_fast_path_agrees_with_cubic_scan():
    rng = random.Random(5)
    outcomes = {}
    for m in ultrametric_matrices(31, 150, 14):
        for shared in [m.rows, *perturbed(m, rng)]:
            for rows in (shared, as_parsed(shared)):
                report = validate(rows)
                got = (report.is_metric, report.is_ultrametric,
                       [v.describe() for v in report.violations])
                assert got == scan_validate(rows)
                assert report.realized == DistanceSet.from_values(v for row in rows for v in row)
                assert report.balls == metric.single_linkage(rows)
                assert (report.balls is None) == (not report.is_ultrametric)
                outcomes[got[:2]] = outcomes.get(got[:2], 0) + 1
    assert outcomes[True, True] > 300  # every other outcome occurs too
    assert outcomes[True, False] > 60 and outcomes[False, False] > 60


def test_to_ball_tree_matches_reference_build():
    for m in ultrametric_matrices(32, 120, 60):
        tree = to_ball_tree(m)
        assert tree == build_ball_tree(m)  # leaf ids and child order too
        assert canonical_code(tree) == canonical_code(build_ball_tree(m))


def test_no_ultrametric_input_enters_the_cubic_scan(monkeypatch, tmp_path, capsys):
    def refuse(rows, violations):
        raise AssertionError("cubic scan run on an ultrametric")

    monkeypatch.setattr(metric, "_scan_triples", refuse)
    ms = list(ultrametric_matrices(33, 40, 30))
    for m in ms:
        assert validate(m.rows).is_ultrametric
        to_ball_tree(FiniteMetric.from_rows(m.rows))
        uio.space_to_tree(uio.parse_space(uio.space_doc(m)))
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path, m in zip((a, b), ms):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(uio.space_doc(m), handle)
    calls = [("space", "check", a), ("space", "canon", a), ("space", "isom", a, b),
             ("space", "embed", a, b),
             ("reduce", "glue", a, "--distances", "0,1/2,1,2,3,7/2,5,6", "--rbar", "6"),
             ("reduce", "tail", a, "--distances", "0,1/2,1,2,3,7/2,5"),
             ("reduce", "decompose", a, "--distances", "0,1/2,1,2,3,7/2,5")]
    for argv in calls:
        assert main(list(argv)) in (0, 1), argv
        assert "error" not in capsys.readouterr().err
    assert run_campaign("canon-vs-brute", 60, 4, Bounds(max_points=7)).passed


def test_embeds_on_deep_chains():
    values = list(range(1, 2001))
    evens = values[1::2]
    assert embeds(chain(evens), chain(values))
    assert embeds(chain(values), chain(values))
    assert not embeds(chain(values), chain(evens))
    assert not embeds(chain(evens + [5000]), chain(values + [4000]))


def test_walks_on_a_5000_level_chain():
    values = range(1, 5001)
    t = chain(values)
    assert t.n_points == 5000
    assert leaves(t) == [str(v) for v in values]
    assert realized_of_tree(t).values == (0, *values[1:])  # values[0] names a leaf only


@pytest.mark.parametrize("values, text", [
    ([1, 0], "internal label must be positive"),
    ([1, 2, F(-1, 2)], "internal label must be positive"),
    ([1, 2, 2], "child labels must be strictly below the parent label"),
    ([1, 3, 2, -1], "child labels must be strictly below the parent label"),
    ([1, 0, -1], "internal label must be positive"),
])
def test_chain_error_texts(values, text):
    with pytest.raises(InputError) as exc:
        chain(values)
    assert str(exc.value) == text


def test_chain_rejects_a_float_label_as_an_input_error():
    with pytest.raises(InputError, match="expected a Fraction or an int, got 1.5"):
        chain([1, 2, 1.5])


def test_chain_first_value_only_names_a_leaf():
    # values[0] is no label, so it is neither sign-checked nor compared
    t = chain([5, 1, 2])
    assert t.label == 2 and leaves(t) == ["5", "1", "2"]
