"""Finite quasi-orders and jump relations on omega-multisets.

A quasi-order is stored as one int bitset per element, its upper cone;
the relations below test supports, levels and cores against it as masks.

An omega-multiset assigns each carrier element a multiplicity in
{1, 2, 3, ...} or omega; it stands in for an infinite sequence over the
carrier, listed up to reordering (legitimate because the two jump
relations below quantify over positions symmetrically).

Omega arithmetic, stated once and used everywhere:
  * finite + omega = omega;
  * an omega demand can only be met by an omega capacity;
  * an omega capacity absorbs any number of omega demands as well as
    any finite flow (an infinite set splits into infinitely many
    disjoint infinite subsets).

`cf_le` ignores multiplicities entirely (support-only).  `inj_le`
decides injective matchability by the omega rule above plus
`flow.assign`, the augmenting-path flow that also serves every matching
decision of the ball trees and reductions, and returns an explicit
witness.  `einj_equivalent`, `wqo_inj_le` and `equiv_inj_le` are
independently derived procedures that must agree with the flow
decision; the agreement is what the test campaigns verify.
"""

from __future__ import annotations

from collections import Counter

from .errors import BaseMismatchError, InputError
from .flow import assign
from .frozen import Frozen, setfield


class Omega:
    """The multiplicity omega; a singleton, larger than every integer."""

    _instance: "Omega | None" = None

    def __new__(cls) -> "Omega":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "omega"

    def __eq__(self, other) -> bool:
        return isinstance(other, Omega)

    def __hash__(self) -> int:
        return hash("omega")

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return isinstance(other, Omega)

    def __gt__(self, other) -> bool:
        return not isinstance(other, Omega)

    def __ge__(self, other) -> bool:
        return True

    def __add__(self, other):
        return self

    def __radd__(self, other):
        return self


OMEGA = Omega()
Mult = int | Omega


def check_mult(m: Mult) -> Mult:
    if isinstance(m, Omega):
        return m
    if isinstance(m, int) and not isinstance(m, bool) and m >= 1:
        return m
    raise InputError(f"multiplicity must be a positive integer or omega, got {m!r}")


class QuasiOrder(Frozen):
    """A reflexive-transitive relation on {0, ..., n-1} as bitset rows:
    bit j of up[i] is set exactly when i <= j (up[i] is i's upper cone)."""

    __slots__ = ("n", "up")

    def __init__(self, n: int, up: tuple[int, ...]):
        if n < 1 or len(up) != n or any(not isinstance(r, int) or r < 0 or r >> n for r in up):
            raise InputError("relation must be n bitset rows below 2**n with n >= 1")
        for i, row in enumerate(up):
            if not row >> i & 1:
                raise InputError(f"relation is not reflexive at {i}")
        for i, row in enumerate(up):
            rest = row
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                missing = up[j] & ~row
                if missing:
                    k = (missing & -missing).bit_length() - 1
                    raise InputError(f"relation is not transitive at ({i},{j},{k})")
        setfield(self, "n", n)
        setfield(self, "up", up)

    def le(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def is_symmetric(self) -> bool:
        """Whether the order is an equivalence: each upper cone holds no
        more elements than share it (those always lie in it)."""
        return all(row.bit_count() == k for row, k in Counter(self.up).items())


def _closed(n: int, up: tuple[int, ...]) -> QuasiOrder:
    """A QuasiOrder from rows already known to be one, without the checks."""
    s = object.__new__(QuasiOrder)
    setfield(s, "n", n)
    setfield(s, "up", up)
    return s


def _mask(elements) -> int:
    """The bitset of the given distinct carrier elements."""
    return sum(1 << x for x in elements)


def closure(n: int, pairs) -> QuasiOrder:
    """Reflexive-transitive closure of the given ordered pairs
    (Warshall's algorithm on the bitset rows)."""
    if n < 1:
        raise InputError("carrier size must be >= 1")
    rows = [1 << i for i in range(n)]
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"pair ({i},{j}) out of range for carrier {n}")
        rows[i] |= 1 << j
    for k in range(n):
        bit, row_k = 1 << k, rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= row_k
    return _closed(n, tuple(rows))  # reflexive and transitive by construction


def es_classes(s: QuasiOrder) -> tuple[tuple[int, ...], ...]:
    """Partition into classes of mutual comparability, ordered by least
    member; x <= y <= x holds exactly when x and y share their upper cone."""
    classes: dict[int, list[int]] = {}
    for i, row in enumerate(s.up):
        classes.setdefault(row, []).append(i)
    return tuple(tuple(c) for c in classes.values())


def has_incomparable_pair(s: QuasiOrder) -> tuple[bool, tuple[int, int] | None]:
    """The least pair (x, y) with neither x <= y nor y <= x, if any."""
    up = s.up
    for i, row in enumerate(up):
        rest = ~row & (1 << s.n) - (2 << i)  # every j > i with not i <= j
        while rest:
            j = (rest & -rest).bit_length() - 1
            if not up[j] >> i & 1:
                return True, (i, j)
            rest &= rest - 1
    return False, None


class OmegaMultiset(Frozen):
    """Finite-support multiset over a quasi-order's carrier: `entries` are
    (element, multiplicity) pairs sorted by element, no repeats."""

    __slots__ = ("base", "entries")

    @classmethod
    def of(cls, base: QuasiOrder, mults) -> "OmegaMultiset":
        items = dict(mults)
        entries = []
        for x in sorted(items):
            if not (0 <= x < base.n):
                raise InputError(f"element {x} out of range for carrier {base.n}")
            entries.append((x, check_mult(items[x])))
        return cls(base, tuple(entries))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self.entries)

    def mult(self, x: int) -> Mult | None:
        for y, m in self.entries:
            if y == x:
                return m
        return None

    def omega_elements(self) -> tuple[int, ...]:
        return tuple(x for x, m in self.entries if isinstance(m, Omega))

    def finite_entries(self) -> tuple[tuple[int, int], ...]:
        return tuple((x, m) for x, m in self.entries if not isinstance(m, Omega))

    def restrict(self, keep) -> "OmegaMultiset":
        keep = set(keep)
        return OmegaMultiset(self.base, tuple(e for e in self.entries if e[0] in keep))

    def class_mass(self, element: int) -> Mult:
        """Total multiplicity of the mutual-comparability class of `element`.

        The class is taken in the base order; elements of the class
        missing from the support contribute nothing.  Returns 0 when
        nothing of the class is present.
        """
        up = self.base.up
        return sum((m for x, m in self.entries if up[x] == up[element]), 0)  # omega absorbs


def _check_pair(a: OmegaMultiset, b: OmegaMultiset) -> None:
    if a.base is not b.base and a.base != b.base:
        raise BaseMismatchError("multisets are over different base quasi-orders")
    if not a.entries or not b.entries:
        raise InputError("jump operations need nonempty support")


def cf_le(a: OmegaMultiset, b: OmegaMultiset) -> bool:
    """Every support element of a is below some support element of b.

    Multiplicities are deliberately ignored: repeating entries (even
    infinitely often) never changes this relation.
    """
    _check_pair(a, b)
    up, targets = a.base.up, _mask(b.support)
    return all(up[x] & targets for x in a.support)


class Witness(Frozen):
    """An explicit injective assignment: (source, target, amount) triples."""

    __slots__ = ("entries",)


def verify_witness(a: OmegaMultiset, b: OmegaMultiset, w: Witness) -> bool:
    """Row sums match source multiplicities; columns stay within capacity;
    every used pair respects the base order.  Omega capacity absorbs any
    combination; omega demand must be covered by omega assignments."""
    if any(x not in a.support or y not in b.support for x, y, _ in w.entries):
        return False
    if any(not a.base.le(x, y) for x, y, _ in w.entries):
        return False
    for x, m in a.entries:
        parts = [amt for (src, _, amt) in w.entries if src == x]
        if isinstance(m, Omega):
            if not any(isinstance(p, Omega) for p in parts):
                return False
        else:
            if any(isinstance(p, Omega) for p in parts) or sum(parts) != m:
                return False
    for y, m in b.entries:
        parts = [amt for (_, dst, amt) in w.entries if dst == y]
        if isinstance(m, Omega):
            continue
        if any(isinstance(p, Omega) for p in parts) or sum(parts) > m:
            return False
    return all(amt == OMEGA or amt >= 1 for _, _, amt in w.entries)


def inj_le(a: OmegaMultiset, b: OmegaMultiset) -> tuple[bool, Witness | None]:
    """Injective matchability of positions, with an explicit witness.

    Omega-multiplicity sources each need some omega-multiplicity target
    above them (targets are shareable); `assign` must place the finite
    part within the capacities of b, where an omega capacity takes the
    whole finite demand.
    """
    _check_pair(a, b)
    up = a.base.up
    omega_targets = b.omega_elements()
    witness_entries: list[tuple[int, int, Mult]] = []
    for x in a.omega_elements():
        target = next((y for y in omega_targets if up[x] >> y & 1), None)
        if target is None:
            return False, None
        witness_entries.append((x, target, OMEGA))
    finite = a.finite_entries()
    xs, need = [x for x, _ in finite], [m for _, m in finite]
    total_demand, ys = sum(need), b.support
    room = [total_demand if isinstance(m, Omega) else m for _, m in b.entries]
    placed = assign(need, room, lambda i, j: up[xs[i]] >> ys[j] & 1)
    if placed is None:
        return False, None
    witness_entries.extend(sorted((xs[i], ys[j], amt) for (i, j), amt in placed.items()))
    return True, Witness(tuple(witness_entries))


class IterationTrace(Frozen):
    """The decreasing level sets of the jump iteration.

    `levels` holds the distinct sets only; the next iterate would repeat
    the last entry.  `stabilized_at` is the first index whose successor
    equals it; `core` is the stable value.
    """

    __slots__ = ("levels", "stabilized_at", "core")


def _core(a: OmegaMultiset) -> frozenset[int]:
    """The support elements of a with an omega element of a above them."""
    up, omegas = a.base.up, _mask(a.omega_elements())
    return frozenset(x for x in frozenset(a.support) if up[x] & omegas)


def iterate_levels(a: OmegaMultiset) -> IterationTrace:
    """Iteratively discard elements with only finitely many successors.

    A support element survives a step iff some element above it (within
    the current level) carries multiplicity omega: over finite support,
    infinitely many successors force an omega multiplicity.

    The iteration stops after at most one step.  An omega element lies
    above itself, so it survives every step; hence from the support,
    step 1 keeps exactly the core (the elements below an omega element),
    and step 2 keeps all of it, since the omega elements above each core
    element are still there.  The trace is (support) at index 0 when the
    core is the whole support, else (support, core) at index 1.
    """
    support, core = frozenset(a.support), _core(a)
    if core == support:
        return IterationTrace((support,), 0, support)
    return IterationTrace((support, core), 1, core)


def einj_equivalent(a: OmegaMultiset, b: OmegaMultiset) -> bool:
    """Mutual injective matchability, decided by the level characterization.

    Two conditions: for every element outside either core, equal class
    masses on both sides; and mutual cofinality of the cores.

    These imply equal stabilization indices, so that test is not made.
    Say a's index is 1 and b's is 0: some x of a's support lies outside
    a's core.  Its class mass in a is positive, so by the class-mass
    condition b holds an element y equivalent to x.  All of b's support
    is b's core, so y lies below an omega element w of b; w is in b's
    core, so by cofinality w lies below an element of a's core, and
    that one below an omega element of a.  Then x is in a's core, a
    contradiction.
    """
    _check_pair(a, b)
    up = a.base.up
    core_a, core_b = _core(a), _core(b)
    for x in a.support:
        if x not in core_a and a.class_mass(x) != b.class_mass(x):
            return False
    for y in b.support:
        if y not in core_b and b.class_mass(y) != a.class_mass(y):
            return False
    mask_a, mask_b = _mask(core_a), _mask(core_b)
    return all(up[x] & mask_b for x in core_a) and all(up[y] & mask_a for y in core_b)


def wqo_inj_le(a: OmegaMultiset, b: OmegaMultiset) -> bool:
    """Injective matchability via the finite/infinite upper-cone split.

    Elements of b with no omega multiplicity above them form the finite
    fringe F; everything of a dominated by the complement K (b's core)
    is absorbable there, and what remains must match injectively into F.
    Every finite quasi-order is a wqo, so the split always applies.
    """
    _check_pair(a, b)
    up, core_b = a.base.up, _core(b)
    k_part = _mask(core_b)
    absorbed = {x for x in a.support if up[x] & k_part}
    if any(x not in absorbed for x in a.omega_elements()):
        return False
    remaining = [(x, m) for x, m in a.finite_entries() if x not in absorbed]
    caps = [(y, m) for y, m in b.entries if y not in core_b]
    assert all(not isinstance(c, Omega) for _, c in caps)
    placed = assign([m for _, m in remaining], [c for _, c in caps],
                    lambda i, j: up[remaining[i][0]] >> caps[j][0] & 1)
    return placed is not None


def equiv_inj_le(a: OmegaMultiset, b: OmegaMultiset) -> bool:
    """Classwise counting decision, valid only over equivalence relations."""
    _check_pair(a, b)
    if not a.base.is_symmetric():
        raise InputError("equiv_inj_le needs a symmetric (equivalence) base")
    for x in a.support:
        mass_a = a.class_mass(x)
        mass_b = b.class_mass(x)
        if isinstance(mass_a, Omega):
            if not isinstance(mass_b, Omega):
                return False
        elif not isinstance(mass_b, Omega) and mass_a > mass_b:
            return False
    return True


def level_respecting_witness(a: OmegaMultiset, b: OmegaMultiset) -> Witness | None:
    """For mutually matchable multisets, a witness that maps the support
    outside the core of a into that of b and core to core.

    Built with one flow per part; returns None when the multisets are
    not mutually matchable (or a part's flow fails, or a part of a meets
    an empty part of b, which the campaigns treat as a falsification).
    """
    _check_pair(a, b)
    ok_ab, _ = inj_le(a, b)
    ok_ba, _ = inj_le(b, a)
    if not (ok_ab and ok_ba):
        return None
    core_a, core_b = _core(a), _core(b)
    entries: list[tuple[int, int, Mult]] = []
    for part_a, part_b in ((set(a.support) - core_a, set(b.support) - core_b), (core_a, core_b)):
        if not part_a:
            continue
        if not part_b:
            return None
        ok, witness = inj_le(a.restrict(part_a), b.restrict(part_b))
        if not ok:
            return None
        entries.extend(witness.entries)
    return Witness(tuple(entries))
