import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umlab.errors import BaseMismatchError, InputError
from umlab.genlab import gen_equivalence, gen_multiset, gen_qo
from umlab.io import parse_qo, qo_doc
from umlab.qo import (
    OMEGA,
    Omega,
    OmegaMultiset,
    QuasiOrder,
    assign,
    cf_le,
    closure,
    einj_equivalent,
    equiv_inj_le,
    es_classes,
    has_incomparable_pair,
    inj_le,
    iterate_levels,
    level_respecting_witness,
    verify_witness,
    wqo_inj_le,
)

EQ1 = closure(1, [])
EQ2 = closure(2, [])
CHAIN3 = closure(3, [(0, 1), (1, 2)])


def ms(base, mults):
    return OmegaMultiset.of(base, mults)


# ---------------------------------------------------------------------------
# Quasi-order construction.
# ---------------------------------------------------------------------------

def test_closure_examples():
    assert EQ2.up == (0b01, 0b10)
    assert CHAIN3.up == (0b111, 0b110, 0b100)  # bit j of up[i]: i <= j
    assert CHAIN3.le(0, 2) and not CHAIN3.le(2, 0)
    with pytest.raises(InputError):
        closure(2, [(0, 5)])


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=5),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=10),
)
def test_closure_idempotent(n, pairs):
    pairs = [(i % n, j % n) for i, j in pairs]
    once = closure(n, pairs)
    le_pairs = [(i, j) for i in range(n) for j in range(n) if once.le(i, j)]
    assert closure(n, le_pairs) == once


def reference_closure(n, pairs):
    """The closure as a bool matrix, by the plain triple loop."""
    le = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        le[i][j] = True
    for k in range(n):
        for i in range(n):
            if le[i][k]:
                le[i] = [a or b for a, b in zip(le[i], le[k])]
    return le


def test_bitset_rows_agree_with_bool_matrix_reference():
    rng = random.Random(15)
    cases = []
    for trial in range(120):
        n = rng.randint(1, 12)
        density = rng.choice((0.05, 0.15, 0.3))
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < density]
        if trial % 3 == 0:  # an equivalence relation
            pairs += [(j, i) for i, j in pairs]
        cases.append((n, pairs))
    cases.append((200, [(rng.randrange(200), rng.randrange(200)) for _ in range(400)]))
    for n, pairs in cases:
        order, le = closure(n, pairs), reference_closure(n, pairs)
        assert [[order.le(i, j) for j in range(n)] for i in range(n)] == le
        assert QuasiOrder(order.n, order.up) == order  # the full check accepts it
        same = [[le[i][j] and le[j][i] for j in range(n)] for i in range(n)]
        classes = []
        for i in range(n):
            if not any(i in c for c in classes):
                classes.append(tuple(j for j in range(n) if same[i][j]))
        assert es_classes(order) == tuple(classes)
        incomparable = [(i, j) for i in range(n) for j in range(i + 1, n)
                        if not le[i][j] and not le[j][i]]
        assert has_incomparable_pair(order) == (
            (True, incomparable[0]) if incomparable else (False, None)
        )
        assert order.is_symmetric() == all(
            le[i][j] == le[j][i] for i in range(n) for j in range(n)
        )
        mults = {x: rng.choice((1, 2, 3, OMEGA)) for x in rng.sample(range(n), min(n, 6))}
        multiset = ms(order, mults)
        for e in range(n):
            total = 0
            for x, m in mults.items():
                if same[x][e]:
                    total = total + m
            assert multiset.class_mass(e) == total
        doc = qo_doc(order)
        assert doc["pairs"] == [[i, j] for i in range(n) for j in range(n) if i != j and le[i][j]]
        assert parse_qo(doc) == order


def test_quasiorder_rejects_broken_relations():
    with pytest.raises(InputError, match="bitset rows"):
        QuasiOrder(2, (0b01, 0b110))  # bit 2 is outside the carrier
    with pytest.raises(InputError):
        QuasiOrder(2, (0b00, 0b10))  # not reflexive
    with pytest.raises(InputError, match=r"^relation is not transitive at \(0,1,2\)$"):
        QuasiOrder(3, (0b011, 0b110, 0b100))


def test_es_classes():
    assert es_classes(closure(3, [])) == ((0,), (1,), (2,))
    total = closure(3, [(i, j) for i in range(3) for j in range(3)])
    assert es_classes(total) == ((0, 1, 2),)
    collapsed = closure(3, [(0, 1), (1, 2), (2, 1)])
    assert es_classes(collapsed) == ((0,), (1, 2))


def test_has_incomparable_pair():
    assert has_incomparable_pair(CHAIN3) == (False, None)
    assert has_incomparable_pair(EQ2) == (True, (0, 1))


def test_incomparable_agrees_with_complement_scan():
    # independent oracle: scan the complement of the comparability relation
    rng = random.Random(4)
    for trial in range(300):
        base = gen_qo(rng.getrandbits(64), rng.randint(1, 6), F(rng.randint(0, 4), 10))
        found, pair = has_incomparable_pair(base)
        comparable = {
            (i, j)
            for i in range(base.n)
            for j in range(base.n)
            if base.le(i, j) or base.le(j, i)
        }
        complement = [
            (i, j)
            for i in range(base.n)
            for j in range(i + 1, base.n)
            if (i, j) not in comparable
        ]
        assert found == bool(complement)
        if found:
            assert pair == min(complement)


# ---------------------------------------------------------------------------
# cf / inj examples from first principles.
# ---------------------------------------------------------------------------

def test_cf_examples():
    a = ms(CHAIN3, {2: OMEGA})
    b = ms(CHAIN3, {1: OMEGA})
    assert cf_le(a, a)
    assert not cf_le(a, b)
    assert cf_le(ms(CHAIN3, {0: OMEGA, 1: 3}), b)
    x = ms(EQ2, {0: 1})
    y = ms(EQ2, {1: 1})
    assert not cf_le(x, y)


def test_cf_base_mismatch():
    with pytest.raises(BaseMismatchError):
        cf_le(ms(EQ1, {0: 1}), ms(EQ2, {0: 1}))
    with pytest.raises(InputError):
        cf_le(OmegaMultiset.of(EQ1, {}), ms(EQ1, {0: 1}))


def test_inj_pigeonhole_and_omega():
    ok, witness = inj_le(ms(EQ1, {0: 2}), ms(EQ1, {0: 1}))
    assert not ok and witness is None
    ok, witness = inj_le(ms(EQ1, {0: 3}), ms(EQ1, {0: OMEGA}))
    assert ok and verify_witness(ms(EQ1, {0: 3}), ms(EQ1, {0: OMEGA}), witness)
    ok, _ = inj_le(ms(EQ1, {0: OMEGA}), ms(EQ1, {0: 5}))
    assert not ok


def test_inj_witness_respects_order():
    a = ms(CHAIN3, {0: 2, 1: 1})
    b = ms(CHAIN3, {1: 2, 2: OMEGA})
    ok, witness = inj_le(a, b)
    assert ok
    assert verify_witness(a, b, witness)
    assert all(CHAIN3.le(x, y) for x, y, _ in witness.entries)


# ---------------------------------------------------------------------------
# The placement primitive against Hall's condition: the sources S can all be
# placed iff every subset of S needs no more than the room of the targets
# that fit some member of it.
# ---------------------------------------------------------------------------

def hall_holds(need, room, table) -> bool:
    for r in range(1, len(need) + 1):
        for subset in itertools.combinations(range(len(need)), r):
            reach = [j for j in range(len(room)) if any(table[i, j] for i in subset)]
            if sum(need[i] for i in subset) > sum(room[j] for j in reach):
                return False
    return True


def test_assign_agrees_with_hall_condition():
    rng = random.Random(606)
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        n, m = rng.randint(0, 6), rng.randint(0, 6)
        need = [rng.randint(1, 4) for _ in range(n)]
        room = [rng.randint(1, 4) for _ in range(m)]
        density = rng.random()
        table = {(i, j): rng.random() < density for i in range(n) for j in range(m)}
        asked = []

        def fits(i, j):
            asked.append(i)
            return table[i, j]

        placed = assign(need, room, fits)
        feasible = hall_holds(need, room, table)
        assert (placed is not None) == feasible
        outcomes[feasible] += 1
        if placed is None:
            first_failing = next(k for k in range(n) if not hall_holds(need[:k + 1], room, table))
            assert all(i <= first_failing for i in asked)
            continue
        assert all(table[pair] and units > 0 for pair, units in placed.items())
        assert all(sum(u for (i, _), u in placed.items() if i == s) == need[s] for s in range(n))
        assert all(sum(u for (_, j), u in placed.items() if j == t) <= room[t] for t in range(m))
    assert min(outcomes.values()) > 150
    assert assign([], [], None) == {} and assign([], [3, 1], None) == {}


# ---------------------------------------------------------------------------
# The truncation oracle for inj_le (finite-total left side): replace every
# omega capacity by (total demand + support size) and exhaustively search
# distributions of each source over its allowed targets.
# ---------------------------------------------------------------------------

def truncation_inj_le(a: OmegaMultiset, b: OmegaMultiset) -> bool:
    assert not a.omega_elements(), "oracle is sound for finite-total left sides"
    bound = sum(m for _, m in a.finite_entries()) + len(a.support)
    sources = list(a.finite_entries())
    targets = [y for y, _ in b.entries]
    caps0 = tuple(
        bound if isinstance(m, Omega) else m for _, m in b.entries
    )
    le = a.base.le
    memo: dict[tuple[int, tuple[int, ...]], bool] = {}

    def search(i: int, caps: tuple[int, ...]) -> bool:
        if i == len(sources):
            return True
        key = (i, caps)
        if key in memo:
            return memo[key]
        x, demand = sources[i]
        slots = [t for t, y in enumerate(targets) if le(x, y)]

        def place(j: int, remaining: int, caps_now: tuple[int, ...]) -> bool:
            if remaining == 0:
                return search(i + 1, caps_now)
            if j == len(slots):
                return False
            t = slots[j]
            for take in range(min(remaining, caps_now[t]), -1, -1):
                nxt = caps_now[:t] + (caps_now[t] - take,) + caps_now[t + 1:]
                if place(j + 1, remaining - take, nxt):
                    return True
            return False

        result = place(0, demand, caps)
        memo[key] = result
        return result

    return search(0, caps0)


def test_inj_flow_agrees_with_truncation_oracle():
    rng = random.Random(20260810)
    checked = 0
    while checked < 2000:
        n = rng.randint(1, 6)
        base = gen_qo(rng.getrandbits(64), n, F(rng.randint(0, 5), 10))
        a = gen_multiset(rng.getrandbits(64), base, 6, F(0))
        b = gen_multiset(rng.getrandbits(64), base, 6, F(3, 10))
        assert inj_le(a, b)[0] == truncation_inj_le(a, b)
        checked += 1


# ---------------------------------------------------------------------------
# Level iteration.
# ---------------------------------------------------------------------------

def test_iterate_examples():
    trace = iterate_levels(ms(EQ1, {0: OMEGA}))
    assert trace.levels == (frozenset({0}),)
    assert trace.stabilized_at == 0 and trace.core == {0}

    trace = iterate_levels(ms(EQ1, {0: 3}))
    assert trace.levels == (frozenset({0}), frozenset())
    assert trace.stabilized_at == 1 and trace.core == frozenset()

    trace = iterate_levels(ms(CHAIN3, {0: 2, 1: OMEGA, 2: 5}))
    assert trace.levels == (frozenset({0, 1, 2}), frozenset({0, 1}))
    assert trace.stabilized_at == 1 and trace.core == {0, 1}


def test_einj_examples():
    a = ms(EQ2, {0: OMEGA})
    assert einj_equivalent(a, a)
    b = ms(EQ2, {0: OMEGA, 1: 1})
    assert not einj_equivalent(a, b)


def test_einj_matches_flow_on_mixed_instances():
    rng = random.Random(5)
    for trial in range(600):
        n = rng.randint(1, 6)
        base = gen_qo(rng.getrandbits(64), n, F(rng.randint(0, 5), 10))
        a = gen_multiset(rng.getrandbits(64), base, 6, F(35, 100),
                         require_omega=trial % 2 == 0)
        b = gen_multiset(rng.getrandbits(64), base, 6, F(35, 100))
        assert einj_equivalent(a, b) == (inj_le(a, b)[0] and inj_le(b, a)[0])


def test_wqo_examples():
    assert wqo_inj_le(ms(EQ1, {0: OMEGA}), ms(EQ1, {0: OMEGA}))
    assert not wqo_inj_le(ms(EQ2, {0: 1, 1: 1}), ms(EQ2, {0: OMEGA}))


def test_equiv_counting():
    a = ms(EQ2, {0: 2, 1: OMEGA})
    b = ms(EQ2, {0: 2, 1: OMEGA})
    assert equiv_inj_le(a, b) and equiv_inj_le(b, a)
    assert not equiv_inj_le(ms(EQ1, {0: 3}), ms(EQ1, {0: 2}))
    with pytest.raises(InputError):
        equiv_inj_le(ms(CHAIN3, {0: 1}), ms(CHAIN3, {0: 1}))


def test_equiv_matches_flow_on_random_equivalences():
    rng = random.Random(6)
    for _ in range(400):
        n = rng.randint(1, 6)
        base = gen_equivalence(rng.getrandbits(64), n, max_blocks=max(1, n - 1))
        a = gen_multiset(rng.getrandbits(64), base, 6, F(3, 10))
        b = gen_multiset(rng.getrandbits(64), base, 6, F(3, 10))
        assert equiv_inj_le(a, b) == inj_le(a, b)[0]


def test_inj_implies_cf_monotonicity():
    rng = random.Random(8)
    for trial in range(500):
        n = rng.randint(1, 6)
        base = gen_qo(rng.getrandbits(64), n, F(rng.randint(0, 5), 10))
        a = gen_multiset(rng.getrandbits(64), base, 6, F(35, 100))
        b = gen_multiset(rng.getrandbits(64), base, 6, F(35, 100))
        if inj_le(a, b)[0]:
            assert cf_le(a, b)


def test_level_respecting_witness_mutual_pair():
    base = closure(4, [(0, 1), (1, 0), (2, 3)])
    a = ms(base, {0: 2, 2: 1, 3: OMEGA})
    b = ms(base, {1: 2, 2: 1, 3: OMEGA})
    assert inj_le(a, b)[0] and inj_le(b, a)[0]
    witness = level_respecting_witness(a, b)
    assert witness is not None
    assert verify_witness(a, b, witness)
    trace_a, trace_b = iterate_levels(a), iterate_levels(b)
    for x, y, _ in witness.entries:
        assert (x in trace_a.core) == (y in trace_b.core)


def test_level_layer_exhaustive_on_small_orders():
    # every quasi-order on n <= 3 elements (the closures of all relations)
    # and every multiset with multiplicities from {absent, 1, 2, omega}
    orders = []
    for n in (1, 2, 3):
        off = [(i, j) for i in range(n) for j in range(n) if i != j]
        ups = {closure(n, [p for k, p in enumerate(off) if mask >> k & 1]).up
               for mask in range(1 << len(off))}
        orders.extend(QuasiOrder(n, up) for up in sorted(ups))
    assert len(orders) == 34
    pairs = 0
    for base in orders:
        multisets = []
        for mults in itertools.product((None, 1, 2, OMEGA), repeat=base.n):
            if any(mults):
                a = ms(base, {x: m for x, m in enumerate(mults) if m is not None})
                trace = iterate_levels(a)
                assert trace.stabilized_at <= 1
                omegas = a.omega_elements()
                assert trace.core == {x for x in a.support if any(base.le(x, w) for w in omegas)}
                multisets.append((a, trace.core))
        for (a, core_a), (b, core_b) in itertools.product(multisets, repeat=2):
            pairs += 1
            mutual = inj_le(a, b)[0] and inj_le(b, a)[0]
            assert einj_equivalent(a, b) == mutual
            if mutual:
                witness = level_respecting_witness(a, b)
                assert witness is not None and verify_witness(a, b, witness)
                assert all((x in core_a) == (y in core_b) for x, y, _ in witness.entries)
    assert pairs == 116_010


def test_omega_arithmetic():
    assert OMEGA == OMEGA and not OMEGA < OMEGA
    assert 5 < OMEGA and OMEGA > 5 and OMEGA >= OMEGA
    assert OMEGA + 3 is OMEGA and 3 + OMEGA is OMEGA
    assert not isinstance(3, Omega)
