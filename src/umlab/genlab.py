"""Seeded generators, mutation helpers, and the campaign runner.

Everything here is a pure function of (seed, parameters).  Campaign
sub-seeds are derived from (seed, trial index) by a fixed 64-bit mixing
function, so trials are independent and order-insensitive and any
failing trial can be replayed verbatim from the report.

Negative test instances are manufactured by mutation rather than
rejection sampling: independent random pairs are almost always
negative and would under-test the positive path.

A property is a generator of checks.  It draws its instance, names
every input in one `inputs` dict, and yields `_holds(...)` or
`_agree(...)` for each check: None when the check holds, else a
`Failure` that serializes all of `inputs`.  The runner stops a trial at
its first failure.  The order of the random draws is frozen, since
existing seeds must keep replaying the same instances, and umlab
functions are looked up through their modules when the property runs,
so that patched module attributes take effect.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

from . import balltree as bt
from . import io as uio
from . import metric as mt
from . import qo
from . import rationals
from . import reduce as red
from .errors import InputError, SizeBoundError
from .frozen import Frozen, setfield

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


def _below(p: Fraction):
    """The test x < p, exact in integers, for a draw x of `random()`.

    `random()` returns k / 2**53 for an integer k, so x < num / den
    exactly when k * den < num * 2**53; no Fraction is built per draw.
    """
    num, den = p.numerator, p.denominator
    bound = num << 53
    return lambda x: int(x * 9007199254740992.0) * den < bound  # 2.0**53


def gen_qo(seed: int, n: int, density) -> qo.QuasiOrder:
    """Closure of a random pair set with the given expected density.

    Some strict comparabilities are additionally collapsed into mutual
    ones so that nontrivial classes occur; density 0 still yields the
    equality order and density 1 the total relation.
    """
    if n < 1:
        raise InputError("carrier size must be >= 1")
    below = _below(Fraction(density))
    rng = random.Random(check_seed(seed))
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and below(rng.random())
    ]
    order = qo.closure(n, pairs)
    up = order.up
    strict = [(i, j) for i, row in enumerate(up) for j in range(n) if row >> j & 1 and up[j] != row]
    collapsed = [(j, i) for i, j in strict if rng.random() < 0.3]
    if collapsed:
        order = qo.closure(n, pairs + collapsed)
    return order


def gen_equivalence(seed: int, n: int, max_blocks: int) -> qo.QuasiOrder:
    """A random equivalence relation with at most max_blocks classes."""
    rng = random.Random(check_seed(seed))
    blocks = [rng.randrange(max(1, max_blocks)) for _ in range(n)]
    up = tuple(sum(1 << j for j, c in enumerate(blocks) if c == b) for b in blocks)
    return qo.QuasiOrder(n, up)


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
    omega = _below(Fraction(omega_prob))
    rng = random.Random(check_seed(seed))
    k = rng.randint(1, min(max_support, base.n))
    support = sorted(rng.sample(range(base.n), k))
    mults: dict[int, qo.Mult] = {
        x: (qo.OMEGA if omega(rng.random()) else rng.choice((1, 2, 3)))
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
        return red.Graph(g.n + 1, g.adj + (0,))
    a = rng.randrange(g.n)
    b = rng.randrange(g.n - 1)
    if b >= a:
        b += 1
    adj = list(g.adj)
    adj[a] ^= 1 << b
    adj[b] ^= 1 << a
    return red.Graph(g.n, tuple(adj))


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
    labels = tuple(sorted(map(rationals.exact, labels)))
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

class Bounds(Frozen):
    __slots__ = ("max_nodes", "max_points", "max_support")

    def __init__(
        self,
        max_nodes: int | None = None,
        max_points: int | None = None,
        max_support: int | None = None,
    ):
        for name, value in zip(self.__slots__, (max_nodes, max_points, max_support)):
            if value is not None and value < 1:
                raise InputError(f"{name} must be at least 1, got {value}")
            setfield(self, name, value)

    def nodes(self, default: int) -> int:
        return self.max_nodes if self.max_nodes is not None else default

    def points(self, default: int) -> int:
        return self.max_points if self.max_points is not None else default

    def support(self, default: int) -> int:
        return self.max_support if self.max_support is not None else default


class Failure(Frozen):
    __slots__ = ("trial", "inputs", "expected", "got")

    def to_doc(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class CampaignReport(Frozen):
    __slots__ = ("prop", "trials", "seed", "failures", "elapsed_seconds")

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

    A trial fails at its first failing check; the checks after it are
    not run.  A trial that raises fails too, with got "TypeName:
    message" and no inputs; `run_campaign(name, trial + 1, seed)`
    replays it.  Only a `SizeBoundError` propagates: bounds above what
    an oracle accepts are a usage error, not a failed trial.
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
        try:
            failure = next(filter(None, fn(trial, rng, bounds)), None)
        except SizeBoundError:
            raise
        except Exception as exc:
            failure = Failure(trial, {}, "no exception", f"{type(exc).__name__}: {exc}")
        if failure is not None:
            failures.append(Failure(trial, failure.inputs, failure.expected, failure.got))
    elapsed = time.perf_counter() - start
    return CampaignReport(name, trials, seed, tuple(failures), elapsed)


def _doc(x):
    """JSON form of one trial input, chosen by its type."""
    if isinstance(x, (bt.BallTree, mt.FiniteMetric)):
        return uio.space_doc(x)
    if isinstance(x, red.RootedTree):
        return uio.tree_doc(x)
    if isinstance(x, red.Graph):
        return uio.graph_doc(x)
    if isinstance(x, qo.QuasiOrder):
        return uio.qo_doc(x)
    if isinstance(x, qo.OmegaMultiset):
        return uio.multiset_doc(x)
    if isinstance(x, (list, tuple, mt.DistanceSet)):
        return [_doc(v) for v in x]
    return str(x)


def _holds(inputs: dict, claim: str, ok: bool, got="violated") -> Failure | None:
    """None if the claim holds; otherwise a failure carrying every input."""
    if ok:
        return None
    return Failure(-1, {k: _doc(v) for k, v in inputs.items()}, claim, str(got))


def _agree(inputs: dict, **decisions) -> Failure | None:
    """None if every named decision equals the first one."""
    (name, first), *rest = decisions.items()
    if all(value == first for _, value in rest):
        return None
    got = ", ".join(f"{k}={v}" for k, v in rest)
    return _holds(inputs, f"{name}={first}", False, got)


_VALUE_POOL = tuple(Fraction(v) for v in ("1/3", "1/2", "1", "3/2", "2", "3", "9/2", "5", "7"))


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
    inputs = {"left": a, "right": b}
    ma, mb = bt.from_ball_tree(a), bt.from_ball_tree(b)
    code = bt.canonical_code(a)
    yield _holds(inputs, "round-trip code equality",
                 bt.canonical_code(bt.to_ball_tree(ma)) == code, "differs")
    yield _holds(inputs, "ultrametric (isosceles law)", mt.validate(ma.rows).is_ultrametric)
    yield _agree(inputs, brute_isometric=mt.brute_isometric(ma, mb),
                 codes_equal=code == bt.canonical_code(b))


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
    inputs = {"small": small, "big": big}
    fast = bt.embeds(small, big)
    brute = mt.brute_embeds(bt.from_ball_tree(small), bt.from_ball_tree(big))
    yield _agree(inputs, brute_embeds=brute, embeds=fast)
    yield _holds(inputs, "embeds reflexive", bt.embeds(small, small), "False")
    yield _agree(inputs, isometric=bt.isometric(small, big), mutual=fast and bt.embeds(big, small))
    inputs["third"] = third = gen_ball_tree(_sub(rng), ds, bounds.points(6) + 2)
    yield _holds(inputs, "embeds transitive",
                 not (fast and bt.embeds(big, third)) or bt.embeds(small, third),
                 "a into b into c but not a into c")


def _radii_for(rng: random.Random, count: int) -> list[Fraction]:
    base = rng.choice((Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3)))
    if rng.random() < 0.5:
        return [base * (count - k) for k in range(count)]
    return [base / (2**k) for k in range(count)]


@prop("theta-iso")
def _prop_theta_iso(trial, rng, bounds):
    return _theta_law(rng, bounds, red.rooted_tree_iso, red.brute_rooted_iso, bt.isometric)


@prop("theta-embed")
def _prop_theta_embed(trial, rng, bounds):
    return _theta_law(rng, bounds, red.rooted_tree_embeds, red.brute_rooted_embeds, bt.embeds)


def _theta_law(rng, bounds, tree_rel, brute_rel, space_rel):
    """θ preserves and reflects the relation; small trees also go to brute force."""
    g = gen_tree(_sub(rng), bounds.nodes(8))
    g, h = mutate_pair(_sub(rng), g)
    radii = _radii_for(rng, max(g.depth(), h.depth()) + 1)
    inputs = {"left": g, "right": h, "radii": radii}
    tree_level = tree_rel(g, h)
    if g.n <= 7 and h.n <= 7:
        yield _agree(inputs, brute=brute_rel(g, h), tree=tree_level)
    yield _agree(inputs, tree=tree_level,
                 space=space_rel(red.tree_ultrametric(g, radii), red.tree_ultrametric(h, radii)))


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
    inputs = {"left": u0, "right": u1, "distances": ds, "rbar": rbar}
    g0, g1 = red.glue_canonical(u0, ds, rbar), red.glue_canonical(u1, ds, rbar)
    yield _agree(inputs, before=bt.isometric(u0, u1), after=bt.isometric(g0, g1))
    removed = ds.positive[0]
    realized = bt.realized_of_tree(g0)
    missing = [v for v in ds.values if v not in realized and v != removed]
    yield _holds(inputs, "output realizes all of ds except possibly the least positive",
                 not missing, missing)
    yield _holds(inputs, "removed distance kept when the input realizes it",
                 removed in realized or removed not in bt.realized_of_tree(u0), "lost")


@prop("add-tail-iso")
def _prop_add_tail_iso(trial, rng, bounds):
    return _add_tail_law(rng, bounds, bt.isometric)


@prop("add-tail-embed")
def _prop_add_tail_embed(trial, rng, bounds):
    return _add_tail_law(rng, bounds, bt.embeds)


def _add_tail_law(rng, bounds, relation):
    """Adding tails preserves and reflects the relation and realizes all of ds."""
    ds = _rand_distance_set(rng, 2, 4)
    x = gen_ball_tree(_sub(rng), ds, bounds.points(6))
    x, y = mutate_pair(_sub(rng), x)
    inputs = {"left": x, "right": y, "distances": ds}
    tx, ty = red.add_tail(x, ds), red.add_tail(y, ds)
    yield _agree(inputs, before=relation(x, y), after=relation(tx, ty))
    realized = bt.realized_of_tree(tx)
    yield _holds(inputs, "output realizes the full distance set", realized.values == ds.values,
                 realized)


def _matching_law(inputs, xs, ys, x, y):
    """Spaces x and y relate as their lists of pieces xs and ys match."""
    yield _agree(inputs, space_embed=bt.embeds(x, y), list_matching=red.list_embeds(xs, ys))
    yield _agree(inputs, space_isometry=bt.isometric(x, y),
                 list_perfect_matching=red.list_isometric(xs, ys))


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
    inputs = {"left": xs, "right": ys, "radius": radius}
    ux, uy = red.union_at_distance(xs, radius), red.union_at_distance(ys, radius)
    return _matching_law(inputs, xs, ys, ux, uy)


@prop("decompose")
def _prop_decompose(trial, rng, bounds):
    ds = _rand_distance_set(rng, 2, 4)
    x = gen_ball_tree(_sub(rng), ds, bounds.points(6))
    x, y = mutate_pair(_sub(rng), x)
    inputs = {"left": x, "right": y, "distances": ds}
    dx, dy = red.decompose_space(x, ds), red.decompose_space(y, ds)
    return _matching_law(inputs, dx, dy, x, y)


@prop("rank-tree")
def _prop_rank_tree(trial, rng, bounds):
    g = gen_tree(_sub(rng), bounds.nodes(7))
    g, h = mutate_pair(_sub(rng), g)
    count = max(g.rank(), h.rank()) + 2
    base = rng.choice((Fraction(1), Fraction(1, 2), Fraction(2)))
    radii = [base * k for k in range(count)]
    inputs = {"left": g, "right": h, "radii": radii}
    sg, sh = red.rank_ultrametric(g, radii), red.rank_ultrametric(h, radii)
    yield _agree(inputs, tree_iso=red.rooted_tree_iso(g, h), space_isometry=bt.isometric(sg, sh))
    extended, _ = red.rank_extend(g)
    want = {
        tuple(sorted((str(extended.parents[j]), f"*{j}"))) for j in range(g.n, extended.n)
    }
    m, ids = bt.from_ball_tree(sg), bt.leaves(sg)
    got = {
        tuple(sorted((ids[i], ids[j])))
        for i in range(m.n)
        for j in range(i + 1, m.n)
        if m.rows[i][j] == radii[1]
    }
    yield _holds(inputs,
                 "least positive distance exactly between original leaves and their markers",
                 got == want, sorted(got))


_POWERSET_UNIVERSE = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(7))


@prop("powerset-embed")
def _prop_powerset_embed(trial, rng, bounds):
    index = trial % (1 << (2 * len(_POWERSET_UNIVERSE)))
    xbits, ybits = divmod(index, 1 << len(_POWERSET_UNIVERSE))
    xs = [v for k, v in enumerate(_POWERSET_UNIVERSE) if xbits >> k & 1]
    ys = [v for k, v in enumerate(_POWERSET_UNIVERSE) if ybits >> k & 1]
    inputs = {"left": xs, "right": ys}
    sx, sy = red.subset_space(xs), red.subset_space(ys)
    realized = bt.realized_of_tree(sx)
    yield _holds(inputs, "canonical space realizes exactly its distance set",
                 realized.values == (0, *xs), realized)
    yield _agree(inputs, inclusion=set(xs) <= set(ys), embeds=bt.embeds(sx, sy))


def _graph_radii(trial: int) -> tuple[Fraction, Fraction]:
    return (Fraction(1), Fraction(2)) if trial % 2 else (Fraction(1), Fraction(3, 2))


@prop("graph-metric-iso")
def _prop_graph_metric_iso(trial, rng, bounds):
    r, rp = _graph_radii(trial)
    g = _gen_graph(rng, bounds.nodes(7))
    g, h = mutate_pair(_sub(rng), g)
    inputs = {"left": g, "right": h, "r": r, "rp": rp}
    # the metric oracle first: it refuses sizes the graph search must not see
    metric = mt.brute_isometric(red.graph_metric(g, r, rp), red.graph_metric(h, r, rp))
    yield _agree(inputs, graph_iso=red.brute_graph_iso(g, h), metric_isometry=metric)


@prop("graph-metric-embed")
def _prop_graph_metric_embed(trial, rng, bounds):
    r, rp = _graph_radii(trial)
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
    inputs = {"left": g, "right": h, "r": r, "rp": rp}
    metric = mt.brute_embeds(red.graph_metric(g, r, rp), red.graph_metric(h, r, rp))
    yield _agree(inputs, graph_induced_embed=red.brute_graph_embeds(g, h), metric_embed=metric)


def _gen_graph(rng: random.Random, max_vertices: int) -> red.Graph:
    n = rng.randint(1, max_vertices)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45
    ]
    return red.Graph.from_edges(n, edges)


def _gen_instance(rng, bounds, *, require_omega=False, equivalence=False) -> dict:
    """A base order and two multisets over it, as trial inputs."""
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
    return {"qo": base, "left": a, "right": b}


@prop("inj-flow-vs-char")
def _prop_inj_flow_vs_char(trial, rng, bounds):
    inputs = _gen_instance(rng, bounds, require_omega=trial % 2 == 0)
    _, a, b = inputs.values()
    ok_ab, wit_ab = qo.inj_le(a, b)
    ok_ba, _ = qo.inj_le(b, a)
    yield _agree(inputs, flow_mutual=ok_ab and ok_ba, characterization=qo.einj_equivalent(a, b))
    yield _holds(inputs, "valid witness", not ok_ab or qo.verify_witness(a, b, wit_ab), "invalid")
    yield _holds(inputs, "inj implies cf", not ok_ab or qo.cf_le(a, b), "cf false")


@prop("inj-flow-vs-wqo")
def _prop_inj_flow_vs_wqo(trial, rng, bounds):
    inputs = _gen_instance(rng, bounds, require_omega=trial % 2 == 0)
    base, a, b = inputs.values()
    flow = qo.inj_le(a, b)[0]
    yield _agree(inputs, flow=flow, cone_split=qo.wqo_inj_le(a, b))
    yield _holds(inputs, "inj reflexive", qo.inj_le(a, a)[0], "False")
    inputs["third"] = c = gen_multiset(_sub(rng), base, bounds.support(6), Fraction(35, 100))
    yield _holds(inputs, "inj transitive",
                 not (flow and qo.inj_le(b, c)[0]) or qo.inj_le(a, c)[0], "a<=b<=c but not a<=c")


@prop("inj-counts-equiv")
def _prop_inj_counts_equiv(trial, rng, bounds):
    inputs = _gen_instance(rng, bounds, require_omega=trial % 2 == 0, equivalence=True)
    base, a, b = inputs.values()
    flow = qo.inj_le(a, b)[0]
    yield _agree(inputs, flow=flow, classwise_counts=qo.equiv_inj_le(a, b))
    yield _agree(inputs, mutual_inj=flow and qo.inj_le(b, a)[0], classwise_equality=all(
        a.class_mass(x) == b.class_mass(x) for x in set(a.support) | set(b.support)
    ))


@prop("cf-support-only")
def _prop_cf_support_only(trial, rng, bounds):
    inputs = _gen_instance(rng, bounds)
    base, a, b = inputs.values()
    blown_a = qo.OmegaMultiset.of(base, {x: qo.OMEGA for x in a.support})
    blown_b = qo.OmegaMultiset.of(base, {x: qo.OMEGA for x in b.support})
    plain = qo.cf_le(a, b)
    yield _agree(inputs, plain=plain, blown_left=qo.cf_le(blown_a, b),
                 blown_right=qo.cf_le(a, blown_b), blown_both=qo.cf_le(blown_a, blown_b))
    yield _holds(inputs, "cf reflexive", qo.cf_le(a, a), "False")
    inputs["third"] = c = gen_multiset(_sub(rng), base, bounds.support(6), Fraction(35, 100))
    yield _holds(inputs, "cf transitive",
                 not (plain and qo.cf_le(b, c)) or qo.cf_le(a, c), "a<=b<=c but not a<=c")


@prop("iterate-sanity")
def _prop_iterate_sanity(trial, rng, bounds):
    base, a, _ = _gen_instance(rng, bounds, require_omega=trial % 3 == 0).values()
    inputs = {"qo": base, "multiset": a}
    trace = qo.iterate_levels(a)
    levels, core, up = trace.levels, trace.core, base.up
    yield _holds(inputs, "level 0 equals support", levels[0] == frozenset(a.support), levels[0])
    yield _holds(inputs, "levels strictly decreasing until stabilization",
                 all(lo < hi for lo, hi in zip(levels[1:], levels)), levels)
    yield _holds(inputs, "stabilization within support size",
                 trace.stabilized_at <= len(a.support), trace.stabilized_at)
    # downward closed within support, which also gives class invariance
    outside = [x for level in levels for x in a.support
               if x not in level and up[x] & sum(1 << y for y in level)]
    yield _holds(inputs, "levels downward closed within support", not outside, outside)
    omegas = set(a.omega_elements())
    yield _holds(inputs, "omega elements stay in the core", omegas <= core, core)
    above = sum(1 << y for y in core & omegas)
    unseen = [x for x in core if not up[x] & above]
    yield _holds(inputs, "every core element sees an omega element above it in the core",
                 not unseen, unseen)


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
        return
    inputs = {"qo": base, "left": a, "right": b}
    witness = qo.level_respecting_witness(a, b)
    yield _holds(inputs, "a level-respecting witness exists", witness is not None, "None")
    yield _holds(inputs, "level witness is a valid witness", qo.verify_witness(a, b, witness),
                 "invalid")
    ta, tb = qo.iterate_levels(a), qo.iterate_levels(b)

    def stratum(trace, x):
        for k in range(trace.stabilized_at):
            if x in trace.levels[k] - trace.levels[k + 1]:
                return k
        return "core"

    moved = [f"{x} ({sx}) -> {y} ({sy})" for x, y, _ in witness.entries
             if (sx := stratum(ta, x)) != (sy := stratum(tb, y))]
    yield _holds(inputs, "witness maps each stratum into the same stratum", not moved,
                 "; ".join(moved))


@prop("triangle-wellspaced")
def _prop_triangle_wellspaced(trial, rng, bounds):
    universe = _wellspaced_universe()
    values = universe[trial % len(universe)]
    ds = mt.DistanceSet.from_values(values)
    audit = mt.triangle_audit(ds)
    yield _agree({"values": values}, well_spaced=mt.is_well_spaced(ds),
                 all_isosceles=audit.all_isosceles)
