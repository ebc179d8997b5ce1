"""The workloads: seeded decks of CLI calls with known answers.

A deck is one cycle of calls; a run repeats it at least three times and
as often as fits in the run's time.  Its composition (verbs, size tiers, expected decisions) is fixed
per workload and only the instances depend on the seed, so runs on
different seeds measure the same mix.  Calls of each group are spread
evenly over the deck, so any prefix of it has about the deck's mix.

Inputs are generated here, written as files, and each call carries the
check of its output derived from the construction (see `expect`).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import expect as ex
from umlab import genlab
from umlab.metric import DistanceSet

Check = Callable[[dict], "str | None"]

_DISTANCES = DistanceSet.from_values(range(1, 9))


@dataclass
class Call:
    verb: str  # "space isom", "verify", ...
    size: int  # points, nodes, support or trials, whichever sizes the input
    argv: list[str]
    exit: int  # expected exit code
    check: Check
    answer: bool | None  # expected decision; None for verbs that decide nothing
    trials: int = 0  # verify only
    prop: str = ""  # verify only


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------

def decides(key: str, value: bool) -> Check:
    return lambda doc: None if doc.get(key) is value else f"{key}={doc.get(key)!r}, want {value}"


def equals(**want) -> Check:
    def check(doc):
        bad = {k: doc.get(k) for k, v in want.items() if doc.get(k) != v}
        return f"got {bad}, want { {k: want[k] for k in bad} }" if bad else None
    return check


def shape(points: int, realized: set[Fraction], **extra) -> Check:
    def check(doc):
        got = ex.doc_shape(doc)
        if got != (points, realized):
            return f"space of {got[0]} points realizing {sorted(map(str, got[1]))}, want {points} realizing {sorted(map(str, realized))}"
        return equals(**extra)(doc) if extra else None
    return check


def components(want: list[tuple[int, set[Fraction]]]) -> Check:
    def key(item):
        return item[0], sorted(item[1])

    def check(doc):
        got = sorted((ex.doc_shape(c) for c in doc.get("components", [])), key=key)
        return None if got == sorted(want, key=key) else f"components {got}, want {want}"
    return check


def campaign_passes(trials: int) -> Check:
    return equals(**{"pass": True, "trials": trials})


# ---------------------------------------------------------------------------
# Deck assembly.
# ---------------------------------------------------------------------------

class Deck:
    """Writes input files under `root` and collects calls by group."""

    def __init__(self, root: Path, seed: int, workload: str):
        self.root = root
        self.rng = random.Random(f"{workload}:{seed}")
        self.groups: dict[str, list[Call]] = {}
        self._files = itertools.count()
        root.mkdir(parents=True, exist_ok=True)

    def sub_seed(self) -> int:
        return self.rng.getrandbits(64)

    def put(self, text: str) -> str:
        path = self.root / f"in{next(self._files)}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def put_doc(self, doc) -> str:
        return self.put(json.dumps(doc, sort_keys=True))

    def add(self, group: str, call: Call) -> None:
        self.groups.setdefault(group, []).append(call)

    def calls(self) -> list[Call]:
        """All calls, each group spread evenly over the deck."""
        placed = []
        for g, calls in enumerate(self.groups.values()):
            for k, call in enumerate(calls):
                placed.append(((k + 0.5) / len(calls), g, k, call))
        placed.sort(key=lambda item: item[:3])
        return [item[3] for item in placed]

    # -- generators ---------------------------------------------------------

    def ball_tree(self, points: int, ds: DistanceSet = _DISTANCES):
        """A `gen_ball_tree` tree cut down to exactly `points` points: sizes
        are fixed so that a call's cost does not vary with the seed."""
        while True:
            tree = _plain(genlab.gen_ball_tree(self.sub_seed(), ds, 2 * points))
            count = ex.point_count(tree)
            if count >= points:
                return ex.delete_leaves(tree, self.rng, count - points) if count > points else tree

    def rooted_tree(self, n: int) -> list[int | None]:
        """A random recursive tree on n nodes with n // 2 leaves (the rank
        space grows with the leaf count)."""
        while True:
            parents = ex.random_parents(self.rng, n)
            if n - len(set(parents[1:])) == max(1, n // 2):
                return parents


def _plain(t):
    if t.is_leaf:
        return t.point
    return (t.label, [_plain(c) for c in t.children])


def _omit(ds: DistanceSet, value) -> DistanceSet:
    return DistanceSet.from_values(v for v in ds.positive if v != value)


def _radii(values) -> str:
    return ",".join(ex.fmt(v) for v in values)


# ---------------------------------------------------------------------------
# Call families shared by the workloads.
# ---------------------------------------------------------------------------

def _space_doc(tree, matrix: bool) -> dict:
    return ex.matrix_doc(tree) if matrix else ex.balltree_doc(tree)


def space_check(deck: Deck, group: str, tree, corrupt: str = "") -> None:
    """`space check` on a matrix: intact (an ultrametric), or with one
    distance raised to the shortest detour through a third point (still a
    metric, no longer an ultrametric), or one past it (not a metric)."""
    doc = ex.matrix_doc(tree)
    n = len(doc["matrix"])
    if not corrupt:
        real = sorted(ex.realized(tree))
        deck.add(group, Call("space check", n, ["space", "check", deck.put_doc(doc)], 0,
                             equals(is_metric=True, is_ultrametric=True, realized=[ex.fmt(v) for v in real]),
                             True))
        return
    rows = doc["matrix"]
    i, j = deck.rng.sample(range(n), 2)
    detour = min(Fraction(rows[i][k]) + Fraction(rows[k][j]) for k in range(n) if k not in (i, j))
    metric = corrupt == "ultra"
    rows[i][j] = rows[j][i] = ex.fmt(detour if metric else detour + 1)
    deck.add(group, Call("space check", n, ["space", "check", deck.put_doc(doc)], 0 if metric else 1,
                         equals(is_metric=metric, is_ultrametric=False), metric))


def space_canon(deck: Deck, group: str, tree, matrix: bool) -> None:
    deck.add(group, Call("space canon", ex.point_count(tree),
                         ["space", "canon", deck.put_doc(_space_doc(tree, matrix))], 0,
                         equals(code=ex.canon_code(tree)), None))


def space_isom(deck: Deck, group: str, tree, matrix: bool, positive: bool) -> None:
    """A relabelled copy is isometric; a copy missing a point is not."""
    other = ex.relabel(tree, deck.rng) if positive else ex.delete_leaves(tree, deck.rng, 1)
    argv = ["space", "isom", deck.put_doc(_space_doc(tree, matrix)),
            deck.put_doc(_space_doc(other, matrix))]
    deck.add(group, Call("space isom", ex.point_count(tree), argv, 0 if positive else 1,
                         decides("isometric", positive), positive))


def space_embed(deck: Deck, group: str, points: int, matrix: bool, positive: bool,
                drop: float = 0.07) -> None:
    """A relabelled copy with points deleted embeds; a copy that also
    realizes a distance the target lacks does not."""
    if positive:
        target = deck.ball_tree(points)
    else:
        missing = deck.rng.choice(_DISTANCES.positive)
        target = deck.ball_tree(points, _omit(_DISTANCES, missing))
    count = ex.point_count(target)
    source = ex.delete_leaves(ex.relabel(target, deck.rng), deck.rng, max(1, round(drop * count)))
    if not positive:
        source = ex.insert_distance(source, deck.rng, missing)
    argv = ["space", "embed", deck.put_doc(_space_doc(source, matrix)),
            deck.put_doc(_space_doc(target, matrix))]
    deck.add(group, Call("space embed", count, argv, 0 if positive else 1,
                         decides("embeds", positive), positive))


def reduce_theta(deck: Deck, group: str, n: int) -> None:
    parents = deck.rooted_tree(n)
    depth = max(ex.depths(parents))
    radii = list(range(depth + 1, 0, -1))
    argv = ["reduce", "theta", deck.put_doc({"parents": parents}), "--radii", _radii(radii)]
    deck.add(group, Call("reduce theta", n, argv, 0, shape(*ex.theta_shape(parents, radii)), None))


def reduce_rank(deck: Deck, group: str, n: int) -> None:
    parents = deck.rooted_tree(n)
    radii = list(range(max(ex.ranks(parents)) + 2))
    argv = ["reduce", "rank", deck.put_doc({"parents": parents}), "--radii", _radii(radii)]
    deck.add(group, Call("reduce rank", n, argv, 0, shape(*ex.rank_shape(parents, radii)), None))


def reduce_glue(deck: Deck, group: str, points: int, matrix: bool) -> None:
    """Glue onto the canonical space of {0..8} minus 1, at rbar = 6: the
    tail adds the 8 remaining values as points."""
    rbar = Fraction(6)
    space = deck.ball_tree(points, DistanceSet.from_values(range(1, 6)))
    tail = [v for v in _DISTANCES.values if v != 1]
    real = ex.realized(space) | set(tail) | {rbar}
    argv = ["reduce", "glue", deck.put_doc(_space_doc(space, matrix)),
            "--distances", _radii(_DISTANCES.values), "--rbar", ex.fmt(rbar)]
    deck.add(group, Call("reduce glue", ex.point_count(space), argv, 0,
                         shape(ex.point_count(space) + len(tail), real), None))


def reduce_tail(deck: Deck, group: str, points: int, matrix: bool) -> None:
    """The tail on {0..8} minus its maximum adds 8 points and realizes all of it."""
    space = deck.ball_tree(points)
    argv = ["reduce", "tail", deck.put_doc(_space_doc(space, matrix)),
            "--distances", _radii(_DISTANCES.values)]
    deck.add(group, Call("reduce tail", ex.point_count(space), argv, 0,
                         shape(ex.point_count(space) + len(_DISTANCES) - 1, set(_DISTANCES.values)), None))


def reduce_decompose(deck: Deck, group: str, points: int, matrix: bool) -> None:
    """A space whose top label is 8 splits into its top-level balls, each
    marked with one fresh point at distance 7."""
    parts = [deck.ball_tree(max(2, points // 3), _omit(_DISTANCES, 8)) for _ in range(3)]
    space = (Fraction(8), parts)
    want = [(ex.point_count(p) + 1, ex.realized(p) | {Fraction(7)}) for p in parts]
    argv = ["reduce", "decompose", deck.put_doc(_space_doc(space, matrix)),
            "--distances", _radii(_DISTANCES.values)]
    deck.add(group, Call("reduce decompose", ex.point_count(space), argv, 0, components(want), None))


def reduce_phi(deck: Deck, group: str, points: int) -> None:
    """Union at distance 9 of spaces over {1..8}: sizes add up."""
    spaces = [deck.ball_tree(points) for _ in range(3)]
    real = set().union(*(ex.realized(s) for s in spaces)) | {Fraction(9)}
    argv = ["reduce", "phi", *(deck.put_doc(ex.balltree_doc(s)) for s in spaces), "--radius", "9"]
    total = sum(ex.point_count(s) for s in spaces)
    deck.add(group, Call("reduce phi", total, argv, 0, shape(total, real), None))


def reduce_graph(deck: Deck, group: str, n: int) -> None:
    edges = ex.random_graph(deck.rng, n)
    real = {Fraction(0)} | ({Fraction(1)} if edges else set())
    if len(edges) < n * (n - 1) // 2:
        real.add(Fraction(3, 2))
    trivial = len(edges) in (0, n * (n - 1) // 2)
    argv = ["reduce", "graph", deck.put_doc({"n": n, "edges": edges}), "--edge", "1", "--nonedge", "3/2"]
    deck.add(group, Call("reduce graph", n, argv, 0, shape(n, real, trivial=trivial), None))


def _value_sets(deck: Deck, k: int) -> tuple[list[int], list[int], list[int]]:
    """S, a superset T of S, and S plus one value outside T."""
    pool = deck.rng.sample(range(1, 20 * k + 20), k + k // 10 + 2)
    small = sorted(pool[:k])
    big = sorted(pool[:k + k // 10 + 1])
    return small, big, sorted(small + [pool[-1]])


def powerset_calls(deck: Deck, group: str, k: int, embeds: bool = True) -> None:
    """`reduce powerset` realizes exactly its values; chains of value sets
    embed exactly when the sets are included."""
    small, big, off = _value_sets(deck, k)
    deck.add(group, Call("reduce powerset", k, ["reduce", "powerset", "--values", _radii(small)], 0,
                         shape(k + 1, {Fraction(v) for v in small} | {Fraction(0)}), None))
    if embeds:
        target = deck.put(ex.chain_text(big))
        for source, positive in ((small, True), (off, False)):
            deck.add(group, Call("space embed", k, ["space", "embed", deck.put(ex.chain_text(source)), target],
                                 0 if positive else 1, decides("embeds", positive), positive))


def qo_calls(deck: Deck, group: str, n: int, support: int, max_mult: int, edge_prob: float,
             verbs) -> None:
    """Quasi-order decisions with answers fixed by the construction."""
    rng = deck.rng
    q = ex.make_qo(rng, n, edge_prob)
    qo_file = deck.put_doc(q.doc())

    def put(ms) -> str:
        return deck.put_doc(ex.multiset_doc(ms))

    def add(verb, argv, exit_code, check, answer):
        deck.add(group, Call(verb, n, argv, exit_code, check, answer))

    base = ex.random_multiset(rng, q, support, max_mult, 0.1)
    finite = ex.without_omega(base, max_mult)
    for verb in verbs:
        if verb == "classes":
            add("qo classes", ["qo", "classes", qo_file], 0, equals(classes=ex.classes_expect(q)), None)
        elif verb == "cf+":
            add("qo cf", ["qo", "cf", qo_file, put(base), put(ex.bump(base, rng, 3))], 0,
                decides("cf_le", True), True)
        elif verb == "cf-":
            # an element of the sink block lies below nothing outside it
            sink = set(q.blocks[-1])
            left = dict(finite)
            left[rng.choice(q.blocks[-1])] = 1
            right = {x: m for x, m in finite.items() if x not in sink} or {
                next(x for x in range(q.n) if x not in sink): 1}
            add("qo cf", ["qo", "cf", qo_file, put(left), put(right)], 1, decides("cf_le", False), False)
        elif verb in ("inj+", "wqo+"):
            method = "flow" if verb == "inj+" else "wqo"
            add("qo inj", ["qo", "inj", qo_file, put(base), put(ex.bump(base, rng, 50)), "--method", method],
                0, decides("inj_le", True), True)
        elif verb in ("inj-", "wqo-"):
            method = "flow" if verb == "inj-" else "wqo"
            left = ex.with_omega(base, rng)
            right = ex.without_omega(ex.bump(left, rng, 50), max_mult)
            add("qo inj", ["qo", "inj", qo_file, put(left), put(right), "--method", method],
                1, decides("inj_le", False), False)
        elif verb == "einj+":
            add("qo einj", ["qo", "einj", qo_file, put(base), put(ex.within_class_shuffle(base, q, rng))],
                0, decides("einj", True), True)
        elif verb == "einj-":
            add("qo einj", ["qo", "einj", qo_file, put(finite), put(ex.bump(finite, rng, 3))],
                1, decides("einj", False), False)
        elif verb == "iterate":
            ms = ex.with_omega(base, rng)
            add("qo iterate", ["qo", "iterate", qo_file, put(ms)], 0, equals(**ex.iterate_expect(q, ms)), None)
        else:
            raise ValueError(f"unknown qo call {verb!r}")


def verify_call(deck: Deck, group: str, prop: str, trials: int, bounds: dict) -> None:
    argv = ["verify", prop, "--trials", str(trials), "--seed", str(deck.sub_seed())]
    for flag, value in bounds.items():
        argv += [flag, str(value)]
    deck.add(group, Call("verify", trials, argv, 0, campaign_passes(trials), True, trials, prop))


# ---------------------------------------------------------------------------
# The workloads.
# ---------------------------------------------------------------------------

# Tiers of the matrix sweep: cheap calls at 24 points, `space canon` and the
# other verbs at 40, `space check` at 90, which takes seconds on its own.
# The 40-point `space canon` calls are the middle of the deck's call times,
# with as many calls below them as above, so the deck's median falls inside
# that cluster of similar calls instead of in a gap between tiers, where it
# would jump with small changes.
MATRIX_TIERS = {
    24: ("check-metric", "embed-", "theta", "tail"),
    40: ("canon",) * 4 + ("decompose", "isom+", "rank", "glue", "embed+"),
    90: ("check",),
}


def matrix_sweep(deck: Deck) -> None:
    """Matrix-format inputs over {1..8}: the time goes to the cubic exact
    checks in `metric.validate` and `balltree.to_ball_tree`."""
    for size, verbs in MATRIX_TIERS.items():
        g = f"m{size}"
        for verb in verbs:
            if verb.startswith("check"):
                space_check(deck, g, deck.ball_tree(size), corrupt=verb[6:])
            elif verb == "canon":
                space_canon(deck, g, deck.ball_tree(size), matrix=True)
            elif verb.startswith("isom"):
                space_isom(deck, g, deck.ball_tree(size), matrix=True, positive=verb.endswith("+"))
            elif verb.startswith("embed"):
                space_embed(deck, g, size, matrix=True, positive=verb.endswith("+"))
            elif verb == "theta":
                reduce_theta(deck, g, size)
            elif verb == "rank":
                reduce_rank(deck, g, size)
            elif verb == "glue":
                reduce_glue(deck, g, size, matrix=True)
            elif verb == "tail":
                reduce_tail(deck, g, size, matrix=True)
            else:
                reduce_decompose(deck, g, size, matrix=True)
    for _ in range(2):  # two small campaigns, so trials_per_s averages over calls
        verify_call(deck, "verify", "canon-vs-brute", 220, {"--max-points": 7})


# Ball trees, powerset chains and quasi-orders in native form, no matrices.
NATIVE_TREES = {
    150: ("canon", "embed+"),
    300: ("isom+", "embed+", "embed-"),
    600: ("canon", "isom-", "embed+", "embed-"),
}
NATIVE_CHAINS = (100, 300, 700)
NATIVE_QOS = {
    50: ("classes", "cf+", "cf-", "inj+", "wqo-", "einj-"),
    100: ("inj+", "wqo-", "einj+", "iterate"),
    200: ("inj+", "wqo+", "einj-", "iterate"),
}


def native_large(deck: Deck) -> None:
    """Large native documents: the time goes to `balltree.embeds` and
    `canonical_code`, and to `qo` closure and flow; `validate` never runs."""
    for size, verbs in NATIVE_TREES.items():
        g = f"t{size}"
        for verb in verbs:
            if verb == "canon":
                space_canon(deck, g, deck.ball_tree(size), matrix=False)
            elif verb.startswith("isom"):
                space_isom(deck, g, deck.ball_tree(size), matrix=False, positive=verb.endswith("+"))
            else:
                space_embed(deck, g, size, matrix=False, positive=verb.endswith("+"))
    reduce_phi(deck, "t150", 150)
    reduce_graph(deck, "graph", 40)
    for k in NATIVE_CHAINS:
        powerset_calls(deck, f"c{k}", k)
    for n, verbs in NATIVE_QOS.items():
        qo_calls(deck, f"q{n}", n, n, 1000, 0.5, verbs)
    # Each campaign sweeps all 1024 subset pairs, so these calls cost the same
    # for every seed.
    for _ in range(2):
        verify_call(deck, "verify", "powerset-embed", 1024, {})


# Trials per property: about 0.2 s of campaign work at the parent commit,
# so every property weighs about the same in the deck.  Bounds are those
# of the acceptance suite.
CAMPAIGN = {
    "add-tail-embed": (90, {"--max-points": 6}),
    "add-tail-iso": (80, {"--max-points": 6}),
    "canon-vs-brute": (325, {"--max-points": 7}),
    "cf-support-only": (650, {}),
    "decompose": (225, {"--max-points": 5}),
    "embed-vs-brute": (1000, {"--max-points": 6}),
    "glue-star": (115, {"--max-points": 6}),
    "graph-metric-embed": (250, {"--max-nodes": 7}),
    "graph-metric-iso": (225, {"--max-nodes": 7}),
    "inj-counts-equiv": (900, {"--max-support": 6}),
    "inj-flow-vs-char": (650, {"--max-support": 6}),
    "inj-flow-vs-wqo": (500, {"--max-support": 6}),
    "iterate-sanity": (850, {}),
    "phi-union": (325, {}),
    "powerset-embed": (1536, {}),
    "rank-tree": (90, {"--max-nodes": 7}),
    "theta-embed": (125, {"--max-nodes": 8}),
    "theta-iso": (150, {"--max-nodes": 8}),
    "triangle-wellspaced": (2800, {}),
    "witness-levels": (500, {}),
}


def campaign(deck: Deck) -> None:
    """One `verify` call per registered property: many tiny instances."""
    for prop, (trials, bounds) in CAMPAIGN.items():
        verify_call(deck, "campaign", prop, trials, bounds)


DECKS = {
    "matrix-sweep": matrix_sweep,
    "native-large": native_large,
    "campaign": campaign,
}


def build(workload: str, seed: int, root: Path) -> list[Call]:
    """Generate the workload's inputs under `root` and return its deck."""
    deck = Deck(root, seed, workload)
    DECKS[workload](deck)
    return deck.calls()
