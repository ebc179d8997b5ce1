"""Seeded generators, mutation helpers, and the campaign runner.

Everything here is a pure function of (seed, parameters).  Campaign
sub-seeds are derived from (seed, trial index) by a fixed 64-bit mixing
function, so trials are independent and order-insensitive and any
failing trial can be replayed verbatim from the report.

Negative test instances are manufactured by mutation rather than
rejection sampling: independent random pairs are almost always
negative and would under-test the positive path.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import lru_cache

from . import balltree as bt
from . import io as uio
from . import metric as mt
from . import qo
from . import reduce as red
from .errors import InputError

_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def check_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= _MASK:
        raise InputError("seed must be an unsigned 64-bit integer")
    return seed


def derive_seed(seed: int, index: int) -> int:
    """Per-trial sub-seed: fixed mixing of (seed, trial index)."""
    return _splitmix64(_splitmix64(check_seed(seed)) ^ ((index + 1) * 0xD6E8FEB86659FD93 & _MASK))


# ---------------------------------------------------------------------------
# Generators.
# ---------------------------------------------------------------------------

def gen_tree(seed: int, max_nodes: int) -> red.RootedTree:
    """Uniform size in [1, max_nodes]; each parent uniform among earlier nodes."""
    if max_nodes < 1:
        raise InputError("max_nodes must be >= 1")
    rng = random.Random(check_seed(seed))
    n = rng.randint(1, max_nodes)
    parents: list[int | None] = [None]
    for i in range(1, n):
        parents.append(rng.randrange(i))
    return red.RootedTree(tuple(parents))


def gen_ball_tree(seed: int, ds: mt.DistanceSet, max_leaves: int) -> bt.BallTree:
    """A valid ball tree with labels from the positive part of ds."""
    if len(ds) < 2:
        raise InputError("need at least one positive distance")
    if max_leaves < 1:
        raise InputError("max_leaves must be >= 1")
    rng = random.Random(check_seed(seed))
    counter = itertools.count()

    def build(budget: int, allowed: tuple[Fraction, ...]) -> bt.BallTree:
        if budget == 1 or not allowed or rng.random() < 0.2:
            return bt.leaf(f"p{next(counter)}")
        label = rng.choice(allowed)
        parts = _random_composition(rng, budget, rng.randint(2, budget))
        below = tuple(v for v in allowed if v < label)
        return bt.internal(label, (build(p, below) for p in parts))

    return build(rng.randint(1, max_leaves), ds.positive)


def _random_composition(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def gen_qo(seed: int, n: int, density) -> qo.QuasiOrder:
    """Closure of a random pair set with the given expected density.

    Some strict comparabilities are additionally collapsed into mutual
    ones so that nontrivial classes occur; density 0 still yields the
    equality order and density 1 the total relation.
    """
    if n < 1:
        raise InputError("carrier size must be >= 1")
    density = Fraction(density)
    rng = random.Random(check_seed(seed))
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < density
    ]
    order = qo.closure(n, pairs)
    strict = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if order.le[i][j] and not order.le[j][i]
    ]
    collapsed = [(j, i) for i, j in strict if rng.random() < 0.3]
    if collapsed:
        order = qo.closure(n, pairs + collapsed)
    return order


def gen_equivalence(seed: int, n: int, max_blocks: int) -> qo.QuasiOrder:
    """A random equivalence relation with at most max_blocks classes."""
    rng = random.Random(check_seed(seed))
    blocks = [rng.randrange(max(1, max_blocks)) for _ in range(n)]
    le = tuple(
        tuple(blocks[i] == blocks[j] for j in range(n)) for i in range(n)
    )
    return qo.QuasiOrder(n, le)


def gen_multiset(
    seed: int,
    base: qo.QuasiOrder,
    max_support: int,
    omega_prob,
    *,
    require_omega: bool = False,
) -> qo.OmegaMultiset:
    """Nonempty support, multiplicities in {1,2,3} or omega.

    `require_omega` forces at least one omega multiplicity (the
    faithful omega-sequence mode).
    """
    if max_support < 1:
        raise InputError("max_support must be >= 1")
    omega_prob = Fraction(omega_prob)
    rng = random.Random(check_seed(seed))
    k = rng.randint(1, min(max_support, base.n))
    support = sorted(rng.sample(range(base.n), k))
    mults: dict[int, qo.Mult] = {
        x: (qo.OMEGA if rng.random() < omega_prob else rng.choice((1, 2, 3)))
        for x in support
    }
    if require_omega and not any(isinstance(m, qo.Omega) for m in mults.values()):
        mults[rng.choice(support)] = qo.OMEGA
    return qo.OmegaMultiset.of(base, mults)


# ---------------------------------------------------------------------------
# Mutation: one equivalence-preserving branch, one usually-breaking branch.
# ---------------------------------------------------------------------------

def mutate_pair(seed: int, x):
    """Return (x, x') where x' is either a relabeled copy or a small edit."""
    rng = random.Random(check_seed(seed))
    if isinstance(x, bt.BallTree):
        other = _relabel_tree(rng, x) if rng.random() < 0.5 else _edit_tree(rng, x)
    elif isinstance(x, red.RootedTree):
        other = _relabel_rooted(rng, x) if rng.random() < 0.5 else _edit_rooted(rng, x)
    elif isinstance(x, red.Graph):
        other = _relabel_graph(rng, x) if rng.random() < 0.5 else _edit_graph(rng, x)
    elif isinstance(x, qo.OmegaMultiset):
        other = _relabel_multiset(rng, x) if rng.random() < 0.5 else _edit_multiset(rng, x)
    else:
        raise InputError(f"cannot mutate values of type {type(x).__name__}")
    return x, other


def _relabel_tree(rng: random.Random, t: bt.BallTree) -> bt.BallTree:
    counter = itertools.count()

    def walk(node: bt.BallTree) -> bt.BallTree:
        if node.is_leaf:
            return bt.leaf(f"q{next(counter)}")
        kids = list(node.children)
        rng.shuffle(kids)
        return bt.BallTree(node.label, None, tuple(walk(c) for c in kids))

    return walk(t)


def _edit_tree(rng: random.Random, t: bt.BallTree) -> bt.BallTree:
    # Edits stay inside the tree's own label set so distance-set
    # constrained campaigns remain valid: delete a leaf or add one.
    if t.is_leaf:
        return _relabel_tree(rng, t)
    if rng.random() < 0.5 and t.n_points > 2:
        victim = rng.randrange(t.n_points)
        return _delete_leaf(t, victim)[0]
    return _add_leaf(rng, t)


def _delete_leaf(t: bt.BallTree, index: int) -> tuple[bt.BallTree | None, int]:
    """Remove the index-th leaf (in tree order), collapsing unary nodes."""
    if t.is_leaf:
        return (None, index - 1) if index == 0 else (t, index - 1)
    kids: list[bt.BallTree] = []
    for c in t.children:
        if index >= 0:
            kept, index = _delete_leaf(c, index)
            if kept is not None:
                kids.append(kept)
        else:
            kids.append(c)
    if len(kids) == 1:
        return kids[0], index
    return bt.BallTree(t.label, None, tuple(kids)), index


def _add_leaf(rng: random.Random, t: bt.BallTree) -> bt.BallTree:
    internals = _internal_count(t)
    target = rng.randrange(internals)

    def walk(node: bt.BallTree, remaining: int) -> tuple[bt.BallTree, int]:
        if node.is_leaf:
            return node, remaining
        if remaining == 0:
            kids = node.children + (bt.leaf("q+"),)
            return bt.BallTree(node.label, None, kids), -1
        remaining -= 1
        out = []
        for c in node.children:
            if remaining >= 0:
                c, remaining = walk(c, remaining)
            out.append(c)
        return bt.BallTree(node.label, None, tuple(out)), remaining

    return walk(t, target)[0]


def _internal_count(t: bt.BallTree) -> int:
    if t.is_leaf:
        return 0
    return 1 + sum(_internal_count(c) for c in t.children)


def _relabel_rooted(rng: random.Random, t: red.RootedTree) -> red.RootedTree:
    kids = t.children()
    parents: list[int | None] = [None]
    new_index = {0: 0}
    stack = [0]
    while stack:
        u = stack.pop()
        order = list(kids[u])
        rng.shuffle(order)
        for c in order:
            new_index[c] = len(parents)
            parents.append(new_index[u])
            stack.append(c)
    return red.RootedTree(tuple(parents))


def _edit_rooted(rng: random.Random, t: red.RootedTree) -> red.RootedTree:
    if t.n > 1 and rng.random() < 0.5:
        kids = t.children()
        leaves_ = [i for i in range(t.n) if not kids[i] and i != 0]
        victim = rng.choice(leaves_)
        parents = [p for i, p in enumerate(t.parents) if i != victim]
        fixed = [None if p is None else (p if p < victim else p - 1) for p in parents]
        return red.RootedTree(tuple(fixed))
    parent = rng.randrange(t.n)
    return red.RootedTree(t.parents + (parent,))


def _relabel_graph(rng: random.Random, g: red.Graph) -> red.Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return red.Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges])


def _edit_graph(rng: random.Random, g: red.Graph) -> red.Graph:
    if g.n < 2:
        return red.Graph.from_edges(g.n + 1, list(g.edges))
    a = rng.randrange(g.n)
    b = rng.randrange(g.n - 1)
    if b >= a:
        b += 1
    pair = (min(a, b), max(a, b))
    edges = set(g.edges)
    edges.symmetric_difference_update({pair})
    return red.Graph.from_edges(g.n, edges)


def _relabel_multiset(rng: random.Random, ms: qo.OmegaMultiset) -> qo.OmegaMultiset:
    """Swap elements within mutual-comparability classes (bijectively);
    this never changes any of the jump relations in either argument."""
    mapping: dict[int, int] = {}
    for cls in qo.es_classes(ms.base):
        shuffled = list(cls)
        rng.shuffle(shuffled)
        mapping.update(zip(cls, shuffled))
    return qo.OmegaMultiset.of(ms.base, {mapping[x]: m for x, m in ms.entries})


def _edit_multiset(rng: random.Random, ms: qo.OmegaMultiset) -> qo.OmegaMultiset:
    mults = dict(ms.entries)
    moves = ["bump", "toggle"]
    if len(mults) > 1:
        moves.append("drop")
    if len(mults) < ms.base.n:
        moves.append("grow")
    move = rng.choice(moves)
    if move == "drop":
        del mults[rng.choice(list(mults))]
    elif move == "grow":
        fresh = rng.choice([x for x in range(ms.base.n) if x not in mults])
        mults[fresh] = rng.choice((1, 2, 3, qo.OMEGA))
    elif move == "toggle":
        x = rng.choice(list(mults))
        mults[x] = rng.choice((1, 2, 3)) if isinstance(mults[x], qo.Omega) else qo.OMEGA
    else:
        x = rng.choice(list(mults))
        if isinstance(mults[x], qo.Omega):
            mults[x] = rng.choice((1, 2, 3))
        else:
            mults[x] = max(1, mults[x] + rng.choice((-1, 1)))
    return qo.OmegaMultiset.of(ms.base, mults)


# ---------------------------------------------------------------------------
# Exhaustive enumeration (small sweeps used by the acceptance suite).
# ---------------------------------------------------------------------------

def enumerate_ball_trees(labels, max_leaves: int) -> list[bt.BallTree]:
    """All canonical ball trees with at most max_leaves leaves and
    internal labels from the given positive values."""
    labels = tuple(sorted(Fraction(v) for v in labels))
    if any(v <= 0 for v in labels):
        raise InputError("labels must be positive")

    def exact(n: int, bound: int) -> list[bt.BallTree]:
        # trees with exactly n leaves whose root label (if internal) is
        # among labels[:bound]
        if n == 1:
            return [bt.leaf("p")]
        out = []
        for li in range(bound):
            pool = [t for m in range(1, n) for t in exact(m, li)]
            pool.sort(key=bt.canonical_code)
            for combo in _multisets_with_leaf_total(pool, n, 2):
                out.append(bt.internal(labels[li], combo))
        return out

    total: list[bt.BallTree] = []
    for n in range(1, max_leaves + 1):
        total.extend(exact(n, len(labels)))
    return total


def _multisets_with_leaf_total(pool, total: int, min_parts: int):
    """Multisets (as nondecreasing index tuples) from pool with the given
    total number of leaves and at least min_parts parts."""

    def rec(start: int, remaining: int, parts: list[bt.BallTree]):
        if remaining == 0:
            if len(parts) >= min_parts:
                yield tuple(parts)
            return
        for i in range(start, len(pool)):
            n = pool[i].n_points
            if n <= remaining:
                parts.append(pool[i])
                yield from rec(i, remaining - n, parts)
                parts.pop()

    yield from rec(0, total, [])


@lru_cache(maxsize=1)
def _wellspaced_universe() -> tuple[tuple[Fraction, ...], ...]:
    values = [Fraction(k, 4) for k in range(1, 13)]
    out = []
    for size in range(1, 6):
        out.extend(itertools.combinations(values, size))
    return tuple(out)


# ---------------------------------------------------------------------------
# Campaign machinery.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bounds:
    max_nodes: int | None = None
    max_points: int | None = None
    max_support: int | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and value < 1:
                raise InputError(f"{f.name} must be at least 1, got {value}")

    def nodes(self, default: int) -> int:
        return self.max_nodes if self.max_nodes is not None else default

    def points(self, default: int) -> int:
        return self.max_points if self.max_points is not None else default

    def support(self, default: int) -> int:
        return self.max_support if self.max_support is not None else default


@dataclass(frozen=True)
class Failure:
    trial: int
    inputs: dict
    expected: str
    got: str

    def to_doc(self) -> dict:
        return {
            "trial": self.trial,
            "inputs": self.inputs,
            "expected": self.expected,
            "got": self.got,
        }


@dataclass(frozen=True)
class CampaignReport:
    prop: str
    trials: int
    seed: int
    failures: tuple[Failure, ...]
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_doc(self) -> dict:
        return {
            "property": self.prop,
            "trials": self.trials,
            "seed": self.seed,
            "failures": [f.to_doc() for f in self.failures],
            "pass": self.passed,
            "elapsed_seconds": self.elapsed_seconds,
        }


PROPERTIES: dict[str, object] = {}


def prop(name: str):
    def register(fn):
        PROPERTIES[name] = fn
        return fn

    return register


def property_names() -> list[str]:
    return sorted(PROPERTIES)


def run_campaign(name: str, trials: int, seed: int, bounds: Bounds = Bounds()) -> CampaignReport:
    """Run a registered property `trials` times with derived sub-seeds.

    Aggregation is order-insensitive; a report with no failures passes.
    """
    if name not in PROPERTIES:
        raise InputError(f"unknown property {name!r}; known: {', '.join(property_names())}")
    if trials < 0:
        raise InputError("trials must be >= 0")
    check_seed(seed)
    fn = PROPERTIES[name]
    failures: list[Failure] = []
    start = time.perf_counter()
    for trial in range(trials):
        rng = random.Random(derive_seed(seed, trial))
        failure = fn(trial, rng, bounds)
        if failure is not None:
            failures.append(replace(failure, trial=trial))
    elapsed = time.perf_counter() - start
    failures.sort(key=lambda f: f.trial)
    return CampaignReport(name, trials, seed, tuple(failures), elapsed)


def _fail(expected, got, **inputs) -> Failure:
    return Failure(-1, inputs, str(expected), str(got))


_VALUE_POOL = (
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
    Fraction(3),
    Fraction(9, 2),
    Fraction(5),
    Fraction(7),
)


def _rand_distance_set(rng: random.Random, lo: int = 2, hi: int = 4) -> mt.DistanceSet:
    k = rng.randint(lo, hi)
    return mt.DistanceSet.from_values(rng.sample(_VALUE_POOL, k))


def _sub(rng: random.Random) -> int:
    return rng.getrandbits(64)


# ---------------------------------------------------------------------------
# Registered properties (names match the CLI `verify` contract).
# ---------------------------------------------------------------------------

@prop("canon-vs-brute")
def _prop_canon_vs_brute(trial, rng, bounds):
    ds = _rand_distance_set(rng)
    a = gen_ball_tree(_sub(rng), ds, bounds.points(7))
    a, b = mutate_pair(_sub(rng), a)
    ma, mb = bt.from_ball_tree(a), bt.from_ball_tree(b)
    if bt.canonical_code(bt.to_ball_tree(ma)) != bt.canonical_code(a):
        return _fail("round-trip code equality", "differs", space=uio.space_doc(a))
    if not mt.validate(ma.rows).is_ultrametric:
        return _fail("ultrametric (isosceles law)", "violated", space=uio.space_doc(a))
    canon = bt.canonical_code(a) == bt.canonical_code(b)
    brute = mt.brute_isometric(ma, mb)
    if canon != brute:
        return _fail(
            f"brute_isometric={brute}",
            f"canonical codes equal={canon}",
            left=uio.space_doc(a),
            right=uio.space_doc(b),
        )
    return None


@prop("embed-vs-brute")
def _prop_embed_vs_brute(trial, rng, bounds):
    ds = _rand_distance_set(rng)
    big = gen_ball_tree(_sub(rng), ds, bounds.points(6) + 2)
    style = rng.random()
    if style < 0.4:
        small = big
        while small.n_points > bounds.points(6) or (
            small.n_points > 1 and rng.random() < 0.5
        ):
            small = _delete_leaf(small, rng.randrange(small.n_points))[0]
    elif style < 0.7:
        small = _relabel_tree(rng, big)
        while small.n_points > bounds.points(6):
            small = _delete_leaf(small, rng.randrange(small.n_points))[0]
    else:
        small = gen_ball_tree(_sub(rng), ds, bounds.points(6))
    ma, mb = bt.from_ball_tree(small), bt.from_ball_tree(big)
    fast = bt.embeds(small, big)
    brute = mt.brute_embeds(ma, mb)
    if fast != brute:
        return _fail(
            f"brute_embeds={brute}",
            f"embeds={fast}",
            small=uio.space_doc(small),
            big=uio.space_doc(big),
        )
    if not bt.embeds(small, small):
        return _fail("embeds reflexive", "False", space=uio.space_doc(small))
    mutual = bt.embeds(small, big) and bt.embeds(big, small)
    if bt.isometric(small, big) != mutual:
        return _fail(
            "isometric iff mutually embeddable",
            f"isometric={bt.isometric(small, big)}, mutual={mutual}",
            small=uio.space_doc(small),
            big=uio.space_doc(big),
        )
    third = gen_ball_tree(_sub(rng), ds, bounds.points(6) + 2)
    if fast and bt.embeds(big, third) and not bt.embeds(small, third):
        return _fail(
            "embeds transitive",
            "a into b into c but not a into c",
            small=uio.space_doc(small),
            big=uio.space_doc(big),
            third=uio.space_doc(third),
        )
    return None


def _radii_for(rng: random.Random, count: int) -> list[Fraction]:
    base = rng.choice((Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3)))
    if rng.random() < 0.5:
        return [base * (count - k) for k in range(count)]
    return [base / (2**k) for k in range(count)]


@prop("theta-iso")
def _prop_theta_iso(trial, rng, bounds):
    g = gen_tree(_sub(rng), bounds.nodes(8))
    g, h = mutate_pair(_sub(rng), g)
    radii = _radii_for(rng, max(g.depth(), h.depth()) + 1)
    tree_level = red.rooted_tree_iso(g, h)
    if g.n <= 7 and h.n <= 7 and tree_level != red.brute_rooted_iso(g, h):
        return _fail(
            f"brute_rooted_iso={red.brute_rooted_iso(g, h)}",
            f"rooted_tree_iso={tree_level}",
            left=uio.tree_doc(g),
            right=uio.tree_doc(h),
        )
    space_level = bt.isometric(red.tree_ultrametric(g, radii), red.tree_ultrametric(h, radii))
    if tree_level != space_level:
        return _fail(
            f"tree iso={tree_level}",
            f"space isometry={space_level}",
            left=uio.tree_doc(g),
            right=uio.tree_doc(h),
            radii=[str(r) for r in radii],
        )
    return None


@prop("theta-embed")
def _prop_theta_embed(trial, rng, bounds):
    g = gen_tree(_sub(rng), bounds.nodes(8))
    g, h = mutate_pair(_sub(rng), g)
    radii = _radii_for(rng, max(g.depth(), h.depth()) + 1)
    tree_level = red.rooted_tree_embeds(g, h)
    if g.n <= 7 and h.n <= 7 and tree_level != red.brute_rooted_embeds(g, h):
        return _fail(
            f"brute_rooted_embeds={red.brute_rooted_embeds(g, h)}",
            f"rooted_tree_embeds={tree_level}",
            left=uio.tree_doc(g),
            right=uio.tree_doc(h),
        )
    space_level = bt.embeds(red.tree_ultrametric(g, radii), red.tree_ultrametric(h, radii))
    if tree_level != space_level:
        return _fail(
            f"tree embed={tree_level}",
            f"space embed={space_level}",
            left=uio.tree_doc(g),
            right=uio.tree_doc(h),
            radii=[str(r) for r in radii],
        )
    return None


@prop("glue-star")
def _prop_glue_star(trial, rng, bounds):
    ds = _rand_distance_set(rng, 3, 4)
    rbar = rng.choice(ds.positive[1:]) if len(ds.positive) > 1 else ds.positive[0]
    allowed = mt.DistanceSet.from_values(v for v in ds.positive if v < rbar)
    if len(allowed) < 2 or rng.random() < 0.2:
        u0 = bt.leaf("p0")
    else:
        u0 = gen_ball_tree(_sub(rng), allowed, bounds.points(6))
    u0, u1 = mutate_pair(_sub(rng), u0)
    g0 = red.glue_canonical(u0, ds, rbar)
    g1 = red.glue_canonical(u1, ds, rbar)
    before = bt.isometric(u0, u1)
    after = bt.isometric(g0, g1)
    if before != after:
        return _fail(
            f"isometric before={before}",
            f"after={after}",
            left=uio.space_doc(u0),
            right=uio.space_doc(u1),
            distances=[str(v) for v in ds],
            rbar=str(rbar),
        )
    removed = ds.positive[0]
    realized = bt.realized_of_tree(g0)
    missing = [v for v in ds.values if v not in realized and v != removed]
    if missing:
        return _fail(
            "output realizes all of ds except possibly the least positive",
            f"missing {missing}",
            space=uio.space_doc(u0),
            distances=[str(v) for v in ds],
        )
    if removed in bt.realized_of_tree(u0) and removed not in realized:
        return _fail(
            "removed distance kept when the input realizes it",
            "lost",
            space=uio.space_doc(u0),
        )
    return None


@prop("add-tail-iso")
def _prop_add_tail_iso(trial, rng, bounds):
    return _add_tail_check(rng, bounds, bt.isometric, "isometric")


@prop("add-tail-embed")
def _prop_add_tail_embed(trial, rng, bounds):
    return _add_tail_check(rng, bounds, bt.embeds, "embeds")


def _add_tail_check(rng, bounds, relation, relname):
    ds = _rand_distance_set(rng, 2, 4)
    x = gen_ball_tree(_sub(rng), ds, bounds.points(6))
    x, y = mutate_pair(_sub(rng), x)
    tx, ty = red.add_tail(x, ds), red.add_tail(y, ds)
    before, after = relation(x, y), relation(tx, ty)
    if before != after:
        return _fail(
            f"{relname} before={before}",
            f"after={after}",
            left=uio.space_doc(x),
            right=uio.space_doc(y),
            distances=[str(v) for v in ds],
        )
    if tuple(bt.realized_of_tree(tx).values) != ds.values:
        return _fail(
            "output realizes the full distance set",
            str(bt.realized_of_tree(tx)),
            space=uio.space_doc(x),
            distances=[str(v) for v in ds],
        )
    return None


@prop("phi-union")
def _prop_phi_union(trial, rng, bounds):
    radius = rng.choice(_VALUE_POOL[3:])
    inside = [v for v in _VALUE_POOL if v < radius]
    ds = mt.DistanceSet.from_values(rng.sample(inside, min(3, len(inside))))
    xs = [gen_ball_tree(_sub(rng), ds, 5) for _ in range(rng.randint(1, 4))]
    style = rng.random()
    if style < 0.4:
        ys = [mutate_pair(_sub(rng), x)[1] for x in xs]
        rng.shuffle(ys)
    elif style < 0.6:
        ys = [_relabel_tree(rng, x) for x in xs]
        rng.shuffle(ys)
        if rng.random() < 0.5:
            ys = ys[1:] or ys
        else:
            ys.append(gen_ball_tree(_sub(rng), ds, 5))
    else:
        ys = [gen_ball_tree(_sub(rng), ds, 5) for _ in range(rng.randint(1, 4))]
    ux, uy = red.union_at_distance(xs, radius), red.union_at_distance(ys, radius)
    docs = {
        "left": [uio.space_doc(x) for x in xs],
        "right": [uio.space_doc(y) for y in ys],
        "radius": str(radius),
    }
    if red.list_embeds(xs, ys) != bt.embeds(ux, uy):
        return _fail(
            f"list matching={red.list_embeds(xs, ys)}",
            f"space embed={bt.embeds(ux, uy)}",
            **docs,
        )
    if red.list_isometric(xs, ys) != bt.isometric(ux, uy):
        return _fail(
            f"list perfect matching={red.list_isometric(xs, ys)}",
            f"space isometry={bt.isometric(ux, uy)}",
            **docs,
        )
    return None


@prop("decompose")
def _prop_decompose(trial, rng, bounds):
    ds = _rand_distance_set(rng, 2, 4)
    x = gen_ball_tree(_sub(rng), ds, bounds.points(6))
    x, y = mutate_pair(_sub(rng), x)
    dx, dy = red.decompose_space(x, ds), red.decompose_space(y, ds)
    docs = {
        "left": uio.space_doc(x),
        "right": uio.space_doc(y),
        "distances": [str(v) for v in ds],
    }
    if bt.embeds(x, y) != red.list_embeds(dx, dy):
        return _fail(
            f"space embed={bt.embeds(x, y)}",
            f"list matching={red.list_embeds(dx, dy)}",
            **docs,
        )
    if bt.isometric(x, y) != red.list_isometric(dx, dy):
        return _fail(
            f"space isometry={bt.isometric(x, y)}",
            f"list perfect matching={red.list_isometric(dx, dy)}",
            **docs,
        )
    return None


@prop("rank-tree")
def _prop_rank_tree(trial, rng, bounds):
    g = gen_tree(_sub(rng), bounds.nodes(7))
    g, h = mutate_pair(_sub(rng), g)
    count = max(g.rank(), h.rank()) + 2
    base = rng.choice((Fraction(1), Fraction(1, 2), Fraction(2)))
    radii = [base * k for k in range(count)]
    sg, sh = red.rank_ultrametric(g, radii), red.rank_ultrametric(h, radii)
    tree_level = red.rooted_tree_iso(g, h)
    space_level = bt.isometric(sg, sh)
    if tree_level != space_level:
        return _fail(
            f"tree iso={tree_level}",
            f"space isometry={space_level}",
            left=uio.tree_doc(g),
            right=uio.tree_doc(h),
            radii=[str(r) for r in radii],
        )
    extended, _ = red.rank_extend(g)
    want = {
        (str(extended.parents[j]), f"*{j}") for j in range(g.n, extended.n)
    }
    m, ids = bt.from_ball_tree(sg), bt.leaves(sg)
    got = {
        tuple(sorted((ids[i], ids[j])))
        for i in range(m.n)
        for j in range(i + 1, m.n)
        if m.rows[i][j] == radii[1]
    }
    if got != {tuple(sorted(p)) for p in want}:
        return _fail(
            "least positive distance exactly between original leaves and their markers",
            f"pairs {sorted(got)}",
            tree=uio.tree_doc(g),
        )
    return None


_POWERSET_UNIVERSE = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(7))


@prop("powerset-embed")
def _prop_powerset_embed(trial, rng, bounds):
    index = trial % (1 << (2 * len(_POWERSET_UNIVERSE)))
    xbits, ybits = divmod(index, 1 << len(_POWERSET_UNIVERSE))
    xs = [v for k, v in enumerate(_POWERSET_UNIVERSE) if xbits >> k & 1]
    ys = [v for k, v in enumerate(_POWERSET_UNIVERSE) if ybits >> k & 1]
    sx, sy = red.subset_space(xs), red.subset_space(ys)
    if tuple(bt.realized_of_tree(sx).values) != tuple([Fraction(0)] + xs):
        return _fail(
            "canonical space realizes exactly its distance set",
            str(bt.realized_of_tree(sx)),
            values=[str(v) for v in xs],
        )
    included = set(xs) <= set(ys)
    embedded = bt.embeds(sx, sy)
    if included != embedded:
        return _fail(
            f"inclusion={included}",
            f"embeds={embedded}",
            left=[str(v) for v in xs],
            right=[str(v) for v in ys],
        )
    return None


@prop("graph-metric-iso")
def _prop_graph_metric_iso(trial, rng, bounds):
    r, rp = (Fraction(1), Fraction(2)) if trial % 2 else (Fraction(1), Fraction(3, 2))
    g = _gen_graph(rng, bounds.nodes(7))
    g, h = mutate_pair(_sub(rng), g)
    graph_level = red.brute_graph_iso(g, h)
    metric_level = mt.brute_isometric(red.graph_metric(g, r, rp), red.graph_metric(h, r, rp))
    if graph_level != metric_level:
        return _fail(
            f"graph iso={graph_level}",
            f"metric isometry={metric_level}",
            left=uio.graph_doc(g),
            right=uio.graph_doc(h),
            r=str(r),
            rp=str(rp),
        )
    return None


@prop("graph-metric-embed")
def _prop_graph_metric_embed(trial, rng, bounds):
    r, rp = (Fraction(1), Fraction(2)) if trial % 2 else (Fraction(1), Fraction(3, 2))
    h = _gen_graph(rng, bounds.nodes(7))
    if rng.random() < 0.5 and h.n > 1:
        keep = sorted(rng.sample(range(h.n), rng.randint(1, h.n - 1)))
        index = {v: k for k, v in enumerate(keep)}
        g = red.Graph.from_edges(
            len(keep),
            [(index[a], index[b]) for a, b in h.edges if a in index and b in index],
        )
    else:
        g = _gen_graph(rng, h.n)
    graph_level = red.brute_graph_embeds(g, h)
    metric_level = mt.brute_embeds(red.graph_metric(g, r, rp), red.graph_metric(h, r, rp))
    if graph_level != metric_level:
        return _fail(
            f"graph induced embed={graph_level}",
            f"metric embed={metric_level}",
            left=uio.graph_doc(g),
            right=uio.graph_doc(h),
            r=str(r),
            rp=str(rp),
        )
    return None


def _gen_graph(rng: random.Random, max_vertices: int) -> red.Graph:
    n = rng.randint(1, max_vertices)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45
    ]
    return red.Graph.from_edges(n, edges)


def _gen_instance(rng, bounds, *, require_omega=False, equivalence=False):
    n = rng.randint(1, bounds.support(6))
    if equivalence:
        base = gen_equivalence(_sub(rng), n, max_blocks=max(1, n - 1))
    else:
        base = gen_qo(_sub(rng), n, Fraction(rng.randint(0, 5), 10))
    a = gen_multiset(_sub(rng), base, bounds.support(6), Fraction(35, 100),
                     require_omega=require_omega)
    style = rng.random()
    if style < 0.4:
        b = _relabel_multiset(rng, a)
    elif style < 0.7:
        b = _edit_multiset(rng, a)
    else:
        b = gen_multiset(_sub(rng), base, bounds.support(6), Fraction(35, 100),
                         require_omega=require_omega)
    return base, a, b


def _instance_docs(base, a, b) -> dict:
    return {
        "qo": uio.qo_doc(base),
        "left": uio.multiset_doc(a),
        "right": uio.multiset_doc(b),
    }


@prop("inj-flow-vs-char")
def _prop_inj_flow_vs_char(trial, rng, bounds):
    base, a, b = _gen_instance(rng, bounds, require_omega=trial % 2 == 0)
    ok_ab, wit_ab = qo.inj_le(a, b)
    ok_ba, _ = qo.inj_le(b, a)
    char = qo.einj_equivalent(a, b)
    if char != (ok_ab and ok_ba):
        return _fail(
            f"flow gives mutual={ok_ab and ok_ba}",
            f"characterization={char}",
            **_instance_docs(base, a, b),
        )
    if ok_ab and not qo.verify_witness(a, b, wit_ab):
        return _fail("valid witness", "invalid", **_instance_docs(base, a, b))
    if ok_ab and not qo.cf_le(a, b):
        return _fail("inj implies cf", "cf false", **_instance_docs(base, a, b))
    return None


@prop("inj-flow-vs-wqo")
def _prop_inj_flow_vs_wqo(trial, rng, bounds):
    base, a, b = _gen_instance(rng, bounds, require_omega=trial % 2 == 0)
    flow = qo.inj_le(a, b)[0]
    cones = qo.wqo_inj_le(a, b)
    if flow != cones:
        return _fail(
            f"flow={flow}", f"cone split={cones}", **_instance_docs(base, a, b)
        )
    if not qo.inj_le(a, a)[0]:
        return _fail("inj reflexive", "False", **_instance_docs(base, a, a))
    c = gen_multiset(_sub(rng), base, bounds.support(6), Fraction(35, 100))
    if flow and qo.inj_le(b, c)[0] and not qo.inj_le(a, c)[0]:
        return _fail(
            "inj transitive",
            "a<=b<=c but not a<=c",
            **_instance_docs(base, a, c) | {"middle": uio.multiset_doc(b)},
        )
    return None


@prop("inj-counts-equiv")
def _prop_inj_counts_equiv(trial, rng, bounds):
    base, a, b = _gen_instance(rng, bounds, require_omega=trial % 2 == 0,
                               equivalence=True)
    flow = qo.inj_le(a, b)[0]
    counts = qo.equiv_inj_le(a, b)
    if flow != counts:
        return _fail(
            f"flow={flow}", f"classwise counts={counts}", **_instance_docs(base, a, b)
        )
    mutual = flow and qo.inj_le(b, a)[0]
    classwise_equal = all(
        a.class_mass(x) == b.class_mass(x) for x in set(a.support) | set(b.support)
    )
    if mutual != classwise_equal:
        return _fail(
            f"mutual inj={mutual}",
            f"classwise equality={classwise_equal}",
            **_instance_docs(base, a, b),
        )
    return None


@prop("cf-support-only")
def _prop_cf_support_only(trial, rng, bounds):
    base, a, b = _gen_instance(rng, bounds)
    blown_a = qo.OmegaMultiset.of(base, {x: qo.OMEGA for x in a.support})
    blown_b = qo.OmegaMultiset.of(base, {x: qo.OMEGA for x in b.support})
    plain = qo.cf_le(a, b)
    variants = (
        qo.cf_le(blown_a, b),
        qo.cf_le(a, blown_b),
        qo.cf_le(blown_a, blown_b),
    )
    if any(v != plain for v in variants):
        return _fail(
            f"cf invariant under blowing up multiplicities ({plain})",
            str(variants),
            **_instance_docs(base, a, b),
        )
    if not qo.cf_le(a, a):
        return _fail("cf reflexive", "False", **_instance_docs(base, a, a))
    c = gen_multiset(_sub(rng), base, bounds.support(6), Fraction(35, 100))
    if plain and qo.cf_le(b, c) and not qo.cf_le(a, c):
        return _fail(
            "cf transitive",
            "a<=b<=c but not a<=c",
            **_instance_docs(base, a, c) | {"middle": uio.multiset_doc(b)},
        )
    return None


@prop("iterate-sanity")
def _prop_iterate_sanity(trial, rng, bounds):
    base, a, _ = _gen_instance(rng, bounds, require_omega=trial % 3 == 0)
    trace = qo.iterate_levels(a)
    docs = {"qo": uio.qo_doc(base), "multiset": uio.multiset_doc(a)}
    if trace.levels[0] != frozenset(a.support):
        return _fail("level 0 equals support", str(trace.levels[0]), **docs)
    for lo, hi in zip(trace.levels[1:], trace.levels):
        if not lo < hi:
            return _fail("levels strictly decreasing until stabilization",
                         str(trace.levels), **docs)
    if trace.stabilized_at > len(a.support):
        return _fail("stabilization within support size",
                     str(trace.stabilized_at), **docs)
    le = base.le
    omegas = set(a.omega_elements())
    for level in trace.levels:
        # downward closed within support, which also gives class invariance
        for x in a.support:
            if x not in level and any(le[x][y] for y in level):
                return _fail(
                    "levels downward closed within support",
                    f"{x} is below the level but outside it", **docs,
                )
    if not omegas <= trace.core:
        return _fail("omega elements stay in the core", str(trace.core), **docs)
    for x in trace.core:
        if not any(y in omegas and le[x][y] for y in trace.core):
            return _fail(
                "every core element sees an omega element above it in the core",
                f"element {x}", **docs,
            )
    return None


@prop("witness-levels")
def _prop_witness_levels(trial, rng, bounds):
    n = rng.randint(1, bounds.support(6))
    base = gen_qo(_sub(rng), n, Fraction(rng.randint(0, 5), 10))
    a = gen_multiset(_sub(rng), base, bounds.support(6), Fraction(40, 100),
                     require_omega=trial % 2 == 0)
    b = _relabel_multiset(rng, a) if rng.random() < 0.7 else gen_multiset(
        _sub(rng), base, bounds.support(6), Fraction(40, 100)
    )
    if not (qo.inj_le(a, b)[0] and qo.inj_le(b, a)[0]):
        return None
    witness = qo.level_respecting_witness(a, b)
    docs = _instance_docs(base, a, b)
    if witness is None:
        return _fail("a level-respecting witness exists", "None", **docs)
    if not qo.verify_witness(a, b, witness):
        return _fail("level witness is a valid witness", "invalid", **docs)
    ta, tb = qo.iterate_levels(a), qo.iterate_levels(b)

    def stratum(trace, x):
        for k in range(trace.stabilized_at):
            if x in trace.levels[k] - trace.levels[k + 1]:
                return k
        return "core"

    for x, y, _ in witness.entries:
        if stratum(ta, x) != stratum(tb, y):
            return _fail(
                "witness maps each stratum into the same stratum",
                f"{x} ({stratum(ta, x)}) -> {y} ({stratum(tb, y)})",
                **docs,
            )
    return None


@prop("triangle-wellspaced")
def _prop_triangle_wellspaced(trial, rng, bounds):
    universe = _wellspaced_universe()
    values = universe[trial % len(universe)]
    ds = mt.DistanceSet.from_values(values)
    audit = mt.triangle_audit(ds)
    spaced = mt.is_well_spaced(ds)
    if audit.all_isosceles != spaced:
        return _fail(
            f"well-spaced={spaced}",
            f"all-isosceles={audit.all_isosceles} (witness {audit.witness})",
            values=[str(v) for v in values],
        )
    return None
