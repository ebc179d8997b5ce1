"""The registered campaign properties ("laws") and the helpers only they use.

A property is a generator of checks.  It draws its instance, names
every input in one `inputs` dict, and yields `_holds(...)` or
`_agree(...)` for each check: None when the check holds, else a
`Failure` that serializes all of `inputs`.  The runner,
`genlab.run_campaign`, stops a trial at its first failure and imports
this module on first use, so only `verify` loads it.  The order of the
random draws is frozen, since existing seeds must keep replaying the
same instances, and umlab functions, genlab's generators among them,
are looked up through their modules when the property runs, so that
patched module attributes take effect.

A property registered with `draws=False` reads only its trial index:
the runner passes it None instead of a seeded generator.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from . import balltree as bt
from . import genlab as gl
from . import io as uio
from . import metric as mt
from . import qo
from . import reduce as red

PROPERTIES: dict[str, object] = {}
UNSEEDED: set[str] = set()  # properties registered with draws=False


def prop(name: str, *, draws: bool = True):
    def register(fn):
        PROPERTIES[name] = fn
        if not draws:
            UNSEEDED.add(name)
        return fn

    return register


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


def _holds(inputs: dict, claim: str, ok: bool, got="violated") -> gl.Failure | None:
    """None if the claim holds; otherwise a failure carrying every input."""
    if ok:
        return None
    return gl.Failure(-1, {k: _doc(v) for k, v in inputs.items()}, claim, str(got))


def _agree(inputs: dict, **decisions) -> gl.Failure | None:
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
    a = gl.gen_ball_tree(_sub(rng), ds, bounds.points(7))
    a, b = gl.mutate_pair(_sub(rng), a)
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
    big = gl.gen_ball_tree(_sub(rng), ds, bounds.points(6) + 2)
    style = rng.random()
    if style < 0.4:
        small = big
        while small.n_points > bounds.points(6) or (
            small.n_points > 1 and rng.random() < 0.5
        ):
            small = gl._delete_leaf(small, rng.randrange(small.n_points))[0]
    elif style < 0.7:
        small = gl._relabel_tree(rng, big)
        while small.n_points > bounds.points(6):
            small = gl._delete_leaf(small, rng.randrange(small.n_points))[0]
    else:
        small = gl.gen_ball_tree(_sub(rng), ds, bounds.points(6))
    inputs = {"small": small, "big": big}
    fast = bt.embeds(small, big)
    brute = mt.brute_embeds(bt.from_ball_tree(small), bt.from_ball_tree(big))
    yield _agree(inputs, brute_embeds=brute, embeds=fast)
    yield _holds(inputs, "embeds reflexive", bt.embeds(small, small), "False")
    yield _agree(inputs, isometric=bt.isometric(small, big), mutual=fast and bt.embeds(big, small))
    inputs["third"] = third = gl.gen_ball_tree(_sub(rng), ds, bounds.points(6) + 2)
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
    g = gl.gen_tree(_sub(rng), bounds.nodes(8))
    g, h = gl.mutate_pair(_sub(rng), g)
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
        u0 = gl.gen_ball_tree(_sub(rng), allowed, bounds.points(6))
    u0, u1 = gl.mutate_pair(_sub(rng), u0)
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
    x = gl.gen_ball_tree(_sub(rng), ds, bounds.points(6))
    x, y = gl.mutate_pair(_sub(rng), x)
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
    xs = [gl.gen_ball_tree(_sub(rng), ds, 5) for _ in range(rng.randint(1, 4))]
    style = rng.random()
    if style < 0.4:
        ys = [gl.mutate_pair(_sub(rng), x)[1] for x in xs]
        rng.shuffle(ys)
    elif style < 0.6:
        ys = [gl._relabel_tree(rng, x) for x in xs]
        rng.shuffle(ys)
        if rng.random() < 0.5:
            ys = ys[1:] or ys
        else:
            ys.append(gl.gen_ball_tree(_sub(rng), ds, 5))
    else:
        ys = [gl.gen_ball_tree(_sub(rng), ds, 5) for _ in range(rng.randint(1, 4))]
    inputs = {"left": xs, "right": ys, "radius": radius}
    ux, uy = red.union_at_distance(xs, radius), red.union_at_distance(ys, radius)
    return _matching_law(inputs, xs, ys, ux, uy)


@prop("decompose")
def _prop_decompose(trial, rng, bounds):
    ds = _rand_distance_set(rng, 2, 4)
    x = gl.gen_ball_tree(_sub(rng), ds, bounds.points(6))
    x, y = gl.mutate_pair(_sub(rng), x)
    inputs = {"left": x, "right": y, "distances": ds}
    dx, dy = red.decompose_space(x, ds), red.decompose_space(y, ds)
    return _matching_law(inputs, dx, dy, x, y)


@prop("rank-tree")
def _prop_rank_tree(trial, rng, bounds):
    g = gl.gen_tree(_sub(rng), bounds.nodes(7))
    g, h = gl.mutate_pair(_sub(rng), g)
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


@prop("powerset-embed", draws=False)
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
    g, h = gl.mutate_pair(_sub(rng), g)
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
        base = gl.gen_equivalence(_sub(rng), n, max_blocks=max(1, n - 1))
    else:
        base = gl.gen_qo(_sub(rng), n, Fraction(rng.randint(0, 5), 10))
    a = gl.gen_multiset(_sub(rng), base, bounds.support(6), Fraction(35, 100),
                     require_omega=require_omega)
    style = rng.random()
    if style < 0.4:
        b = gl._relabel_multiset(rng, a)
    elif style < 0.7:
        b = gl._edit_multiset(rng, a)
    else:
        b = gl.gen_multiset(_sub(rng), base, bounds.support(6), Fraction(35, 100),
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
    inputs["third"] = c = gl.gen_multiset(_sub(rng), base, bounds.support(6), Fraction(35, 100))
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
    inputs["third"] = c = gl.gen_multiset(_sub(rng), base, bounds.support(6), Fraction(35, 100))
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
    yield _holds(inputs, "stabilization within one step",
                 trace.stabilized_at <= 1, trace.stabilized_at)
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
    base = gl.gen_qo(_sub(rng), n, Fraction(rng.randint(0, 5), 10))
    a = gl.gen_multiset(_sub(rng), base, bounds.support(6), Fraction(40, 100),
                     require_omega=trial % 2 == 0)
    b = gl._relabel_multiset(rng, a) if rng.random() < 0.7 else gl.gen_multiset(
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

    def stratum(trace, x):  # stratum 0 is the support outside the core
        return "core" if x in trace.core else 0

    moved = [f"{x} ({sx}) -> {y} ({sy})" for x, y, _ in witness.entries
             if (sx := stratum(ta, x)) != (sy := stratum(tb, y))]
    yield _holds(inputs, "witness maps each stratum into the same stratum", not moved,
                 "; ".join(moved))


@lru_cache(maxsize=1)
def _wellspaced_universe() -> tuple[tuple[Fraction, ...], ...]:
    values = [Fraction(k, 4) for k in range(1, 13)]
    out = []
    for size in range(1, 6):
        out.extend(itertools.combinations(values, size))
    return tuple(out)


@prop("triangle-wellspaced", draws=False)
def _prop_triangle_wellspaced(trial, rng, bounds):
    universe = _wellspaced_universe()
    values = universe[trial % len(universe)]
    ds = mt.DistanceSet.from_values(values)
    audit = mt.triangle_audit(ds)
    yield _agree({"values": values}, well_spaced=mt.is_well_spaced(ds),
                 all_isosceles=audit.all_isosceles)
