"""Seeded generators, mutation helpers, and the campaign runner.

Everything here is a pure function of (seed, parameters).  Campaign
sub-seeds are derived from (seed, trial index) by a fixed 64-bit mixing
function, so trials are independent and order-insensitive and any
failing trial can be replayed verbatim from the report.

Negative test instances are manufactured by mutation rather than
rejection sampling: independent random pairs are almost always
negative and would under-test the positive path.

The registered properties live in `laws`, which `run_campaign` and
`property_names` import on first use, so a command other than `verify`
never compiles them.  `reduce` too is imported only by the generators
and mutators of rooted trees and graphs.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from . import balltree as bt
from . import metric as mt
from . import qo
from . import rationals
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
    from . import reduce as red  # here only: other verbs never load reduce

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
        return x, _relabel_tree(rng, x) if rng.random() < 0.5 else _edit_tree(rng, x)
    if isinstance(x, qo.OmegaMultiset):
        return x, _relabel_multiset(rng, x) if rng.random() < 0.5 else _edit_multiset(rng, x)
    from . import reduce as red  # here only: other verbs never load reduce

    if isinstance(x, red.RootedTree):
        return x, _relabel_rooted(rng, x) if rng.random() < 0.5 else _edit_rooted(rng, x)
    if isinstance(x, red.Graph):
        return x, _relabel_graph(rng, x) if rng.random() < 0.5 else _edit_graph(rng, x)
    raise InputError(f"cannot mutate values of type {type(x).__name__}")


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
    from . import reduce as red

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
    from . import reduce as red

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
    from . import reduce as red

    perm = list(range(g.n))
    rng.shuffle(perm)
    return red.Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges])


def _edit_graph(rng: random.Random, g: red.Graph) -> red.Graph:
    from . import reduce as red

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


def property_names() -> list[str]:
    from . import laws

    return sorted(laws.PROPERTIES)


def run_campaign(name: str, trials: int, seed: int, bounds: Bounds = Bounds()) -> CampaignReport:
    """Run a registered property `trials` times with derived sub-seeds.

    A trial fails at its first failing check; the checks after it are
    not run.  A trial that raises fails too, with got "TypeName:
    message" and no inputs; `run_campaign(name, trial + 1, seed)`
    replays it.  Only a `SizeBoundError` propagates: bounds above what
    an oracle accepts are a usage error, not a failed trial.
    Aggregation is order-insensitive; a report with no failures passes.
    A property that draws nothing gets None, not a seeded generator.
    """
    from . import laws  # here only: the laws load for campaigns alone

    if name not in laws.PROPERTIES:
        raise InputError(f"unknown property {name!r}; known: {', '.join(property_names())}")
    if trials < 0:
        raise InputError("trials must be >= 0")
    check_seed(seed)
    fn = laws.PROPERTIES[name]
    draws = name not in laws.UNSEEDED
    failures: list[Failure] = []
    start = time.perf_counter()
    for trial in range(trials):
        rng = random.Random(derive_seed(seed, trial)) if draws else None
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

