"""Inputs whose answers are known from how they were built.

Nothing here imports umlab: every expected answer is derived from the
construction (a relabelled copy is isometric, a copy with leaves deleted
embeds, a set inclusion decides the powerset chains, ...), never from
the program under test.

Ball trees are plain values: a leaf is its point name (a str) and an
internal node is a pair (label, [children]) with labels strictly
decreasing towards the leaves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

OMEGA = "omega"


def fmt(value) -> str:
    """Canonical rational string: "p" or "p/q" in lowest terms."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# Ball trees.
# ---------------------------------------------------------------------------

def is_leaf(node) -> bool:
    return isinstance(node, str)


def nodes(tree):
    """Every node, parents before children, without recursion."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if not is_leaf(node):
            stack.extend(reversed(node[1]))


def point_count(tree) -> int:
    return sum(1 for node in nodes(tree) if is_leaf(node))


def labels(tree) -> set[Fraction]:
    return {Fraction(node[0]) for node in nodes(tree) if not is_leaf(node)}


def realized(tree) -> set[Fraction]:
    """Distances the space realizes: the internal labels, plus 0."""
    return labels(tree) | {Fraction(0)}


def canon_code(tree) -> str:
    """The CLI's canonical code: "L" per leaf, "(label;sorted child codes)"."""
    codes: dict[int, str] = {}
    stack = [(tree, False)]
    while stack:
        node, done = stack.pop()
        if is_leaf(node):
            codes[id(node)] = "L"
        elif done:
            inner = "".join(sorted(codes.pop(id(c)) for c in node[1]))
            codes[id(node)] = f"({fmt(node[0])};{inner})"
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in node[1])
    return codes[id(tree)]


def balltree_doc(tree) -> dict:
    """The native document, each node listing its leaves before its subtrees.

    The layout is fixed because `embeds` matches children in document order
    and its time at a fixed size varies about tenfold with that order; a
    shuffled layout would make the cost of a call depend on the shuffle."""
    def layout(node):
        if is_leaf(node):
            return {"leaf": node}
        kids = sorted(node[1], key=lambda c: not is_leaf(c))
        return {"label": fmt(node[0]), "children": [layout(c) for c in kids]}

    return {"kind": "balltree", "tree": layout(tree)}


def matrix_doc(tree) -> dict:
    """The least-common-ancestor distance matrix, leaves in tree order."""
    order = [node for node in nodes(tree) if is_leaf(node)]
    index = {id(leaf): k for k, leaf in enumerate(order)}
    n = len(order)
    rows = [["0"] * n for _ in range(n)]
    for node in nodes(tree):
        if is_leaf(node):
            continue
        text = fmt(node[0])
        groups = [[index[id(x)] for x in nodes(c) if is_leaf(x)] for c in node[1]]
        for gi, left in enumerate(groups):
            for right in groups[gi + 1:]:
                for i in left:
                    for j in right:
                        rows[i][j] = rows[j][i] = text
    return {"kind": "matrix", "matrix": rows}


def relabel(tree, rng: random.Random, prefix: str = "r"):
    """An isometric copy: children shuffled at every node, points renamed."""
    count = point_count(tree)
    names = [f"{prefix}{k}" for k in range(count)]
    rng.shuffle(names)
    it = iter(names)

    def copy(node):
        if is_leaf(node):
            return next(it)
        kids = list(node[1])
        rng.shuffle(kids)
        return (node[0], [copy(c) for c in kids])

    return copy(tree)


def delete_leaves(tree, rng: random.Random, k: int):
    """A subspace: k random points removed, one-child nodes spliced out."""
    leaves = [node for node in nodes(tree) if is_leaf(node)]
    if not 0 <= k < len(leaves):
        raise ValueError(f"cannot delete {k} of {len(leaves)} points")
    gone = set(rng.sample(range(len(leaves)), k))
    doomed = {id(leaves[i]) for i in gone}

    def copy(node):
        if is_leaf(node):
            return None if id(node) in doomed else node
        kids = [c for c in (copy(c) for c in node[1]) if c is not None]
        if not kids:
            return None
        return kids[0] if len(kids) == 1 else (node[0], kids)

    return copy(tree)


def insert_distance(tree, rng: random.Random, value, name: str = "x"):
    """A copy realizing `value` (absent from the tree): a random point is
    paired with a fresh one at that distance, placed where labels keep
    strictly decreasing."""
    value = Fraction(value)
    if value <= 0 or value in labels(tree):
        raise ValueError("value must be positive and not yet realized")
    target = rng.randrange(point_count(tree))
    seen = [0]

    def copy(node, parent_label):
        label = Fraction(0) if is_leaf(node) else Fraction(node[0])
        size = point_count(node)
        hit = seen[0] <= target < seen[0] + size
        if hit and label < value and (parent_label is None or parent_label > value):
            seen[0] += size
            return (value, [node, name])
        if is_leaf(node):
            seen[0] += 1
            return node
        return (node[0], [copy(c, label) for c in node[1]])

    return copy(tree, None)


# ---------------------------------------------------------------------------
# Powerset chains: the canonical space on a value set, built as JSON text
# so that chains deeper than the json module's nesting limit can be written.
# ---------------------------------------------------------------------------

def chain_text(values) -> str:
    """The left-combed chain of {0} + values, peeling off the maximum."""
    text = '{"leaf": "0"}'
    for v in sorted(Fraction(x) for x in values):
        text = f'{{"label": "{fmt(v)}", "children": [{text}, {{"leaf": "{fmt(v)}"}}]}}'
    return '{"kind": "balltree", "tree": ' + text + "}"


def doc_shape(doc) -> tuple[int, set[Fraction]]:
    """Point count and realized distances of a space document, without
    recursion (chains may be deeper than the recursion limit)."""
    if doc.get("kind") == "matrix":
        rows = doc["matrix"]
        return len(rows), {Fraction(v) for row in rows for v in row} | {Fraction(0)}
    points, seen = 0, {Fraction(0)}
    stack = [doc["tree"]]
    while stack:
        node = stack.pop()
        if "leaf" in node:
            points += 1
        else:
            seen.add(Fraction(node["label"]))
            stack.extend(node["children"])
    return points, seen


# ---------------------------------------------------------------------------
# Rooted trees and graphs.
# ---------------------------------------------------------------------------

def random_parents(rng: random.Random, n: int) -> list[int | None]:
    return [None] + [rng.randrange(i) for i in range(1, n)]


def depths(parents) -> list[int]:
    d = [0] * len(parents)
    for i in range(1, len(parents)):
        d[i] = d[parents[i]] + 1
    return d


def ranks(parents) -> list[int]:
    """Leaves 0, every other node 1 + the largest rank of its children."""
    rk = [0] * len(parents)
    for i in range(len(parents) - 1, 0, -1):
        rk[parents[i]] = max(rk[parents[i]], rk[i] + 1)
    return rk


def theta_shape(parents, radii) -> tuple[int, set[Fraction]]:
    """Points and distances of the common-ancestor-depth space: a node with
    a child is the deepest common ancestor of that pair."""
    d = depths(parents)
    inner = {p for p in parents[1:]}
    return len(parents), {Fraction(radii[d[u]]) for u in inner} | {Fraction(0)}


def rank_shape(parents, radii) -> tuple[int, set[Fraction]]:
    """The rank space adds one child per leaf, which raises every rank by
    one; every original node is then the common ancestor of some pair."""
    leaves = len(parents) - len({p for p in parents[1:]})
    return len(parents) + leaves, {Fraction(radii[r + 1]) for r in ranks(parents)} | {Fraction(0)}


def random_graph(rng: random.Random, n: int, density: float = 0.45) -> list[list[int]]:
    return [[i, j] for i in range(n) for j in range(i + 1, n) if rng.random() < density]


# ---------------------------------------------------------------------------
# Quasi-orders and multisets.
# ---------------------------------------------------------------------------

@dataclass
class QuasiOrderFixture:
    """Blocks of mutually comparable elements over a random DAG of blocks.

    Edges only run from lower to higher block numbers, so the blocks are
    exactly the mutual-comparability classes and the last block is a sink.
    """

    n: int
    block_of: list[int]
    blocks: list[list[int]]
    pairs: list[list[int]]
    reach: list[int] = field(repr=False)  # bitset of blocks reachable from each block

    def le(self, x: int, y: int) -> bool:
        return bool(self.reach[self.block_of[x]] >> self.block_of[y] & 1)

    def doc(self) -> dict:
        return {"n": self.n, "pairs": self.pairs}


def make_qo(rng: random.Random, n: int, edge_prob: float, max_block: int = 3) -> QuasiOrderFixture:
    elements = list(range(n))
    rng.shuffle(elements)
    blocks: list[list[int]] = []
    while elements:
        size = min(len(elements), rng.randint(1, max_block))
        blocks.append(sorted(elements[:size]))
        del elements[:size]
    block_of = [0] * n
    for b, members in enumerate(blocks):
        for x in members:
            block_of[x] = b
    pairs = []
    for members in blocks:
        if len(members) > 1:
            pairs.extend([x, y] for x, y in zip(members, members[1:] + members[:1]))
    count = len(blocks)
    succ: list[set[int]] = [set() for _ in range(count)]
    for b in range(count - 1):
        for c in range(b + 1, count):
            if rng.random() < edge_prob:
                succ[b].add(c)
                pairs.append([rng.choice(blocks[b]), rng.choice(blocks[c])])
    reach = [0] * count
    for b in range(count - 1, -1, -1):
        reach[b] = 1 << b
        for c in succ[b]:
            reach[b] |= reach[c]
    return QuasiOrderFixture(n, block_of, blocks, pairs, reach)


def random_multiset(rng: random.Random, q: QuasiOrderFixture, support: int,
                    max_mult: int, omega_prob: float) -> dict[int, object]:
    chosen = rng.sample(range(q.n), support)
    return {
        x: (OMEGA if rng.random() < omega_prob else rng.randint(1, max_mult)) for x in chosen
    }


def multiset_doc(ms) -> dict:
    return {"mults": {str(x): m for x, m in sorted(ms.items())}}


def bump(ms, rng: random.Random, most: int):
    """Every finite multiplicity raised by 0..most, at least one strictly:
    the original injects into the result by the identity map."""
    out = dict(ms)
    finite = [x for x, m in out.items() if m != OMEGA]
    for x in finite:
        out[x] += rng.randint(0, most)
    if finite:
        out[rng.choice(finite)] += 1
    return out


def without_omega(ms, cap: int):
    return {x: (cap if m == OMEGA else m) for x, m in ms.items()}


def with_omega(ms, rng: random.Random):
    out = dict(ms)
    out[rng.choice(sorted(out))] = OMEGA
    return out


def within_class_shuffle(ms, q: QuasiOrderFixture, rng: random.Random):
    """Every element moved to a random member of its own class, merging
    multiplicities: mutually comparable elements are interchangeable, so
    the result and the original inject into each other."""
    out: dict[int, object] = {}
    for x, m in sorted(ms.items()):
        y = rng.choice(q.blocks[q.block_of[x]])
        if y in out:
            out[y] = OMEGA if OMEGA in (m, out[y]) else out[y] + m
        else:
            out[y] = m
    return out


def iterate_expect(q: QuasiOrderFixture, ms) -> dict:
    """An element survives a step when an omega element of the current
    level lies above it; omega elements survive themselves, so the second
    level is already stable."""
    support = sorted(ms)
    omegas = [y for y in support if ms[y] == OMEGA]
    first = [x for x in support if any(q.le(x, y) for y in omegas)]
    levels = [support] if first == support else [support, first]
    return {"levels": levels, "stabilized_at": len(levels) - 1, "core": first}


def classes_expect(q: QuasiOrderFixture) -> list[list[int]]:
    return sorted((sorted(b) for b in q.blocks), key=lambda b: b[0])
