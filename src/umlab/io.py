"""JSON external interfaces.

Formats:
  space     {"kind":"matrix","matrix":[["0","1/2"],["1/2","0"]]}
            {"kind":"balltree","tree":{"label":"1","children":[{"leaf":"a"},{"leaf":"b"}]}}
  qo        {"n":3,"pairs":[[0,1],[1,2]]}        (closure applied on load)
  multiset  {"mults":{"0":2,"1":"omega"}}
  tree      {"parents":[null,0,0,1]}
  graph     {"n":4,"edges":[[0,1],[2,3]]}

Rationals travel as canonical strings; every invariant of the target
type is enforced at parse time, and errors carry the JSON path of the
offending token.  A qo or graph carrier holds at most MAX_CARRIER
elements: closure and the graph metric take memory quadratic in it.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InputError
from .metric import FiniteMetric, validate
from .rationals import format_rational, parse_rational

MAX_CARRIER = 2048


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise InputError(f"{path}: an integer has too many digits") from exc


def _require_dict(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise InputError(f"{what}: expected a JSON object")
    return doc


def _require_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{where}: expected an integer, got {value!r}")
    return value


def _parse_pairs(doc, what: str, key: str, shape: str) -> tuple[int, list]:
    """The carrier size and the list of integer pairs of a qo or graph
    document; range and loop faults are left to the type it builds."""
    doc = _require_dict(doc, what)
    n = _require_int(doc.get("n"), f"{what}.n")
    if n > MAX_CARRIER:
        raise InputError(f"{what}.n: at most {MAX_CARRIER} elements are supported")
    pairs = doc.get(key, [])
    if not isinstance(pairs, list):
        raise InputError(f"{what}.{key}: expected an array of pairs")
    for k, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputError(f"{what}.{key}[{k}]: expected a pair {shape}")
        for slot, v in enumerate(pair):
            if type(v) is not int:  # the path is built only for a rejected value
                _require_int(v, f"{what}.{key}[{k}][{slot}]")
    return n, pairs


# ---------------------------------------------------------------------------
# Spaces.
# ---------------------------------------------------------------------------

def parse_space(doc, *, require_metric: bool = True) -> FiniteMetric | BallTree:
    doc = _require_dict(doc, "space")
    kind = doc.get("kind")
    if kind == "matrix":
        return _parse_matrix(doc.get("matrix"), require_metric=require_metric)
    if kind == "balltree":
        return _parse_ball_tree(doc.get("tree"))
    raise InputError(f"space.kind: expected 'matrix' or 'balltree', got {kind!r}")


def _parse_matrix(matrix, *, require_metric: bool) -> FiniteMetric:
    if not isinstance(matrix, list) or not matrix:
        raise InputError("space.matrix: expected a nonempty array of rows")
    n = len(matrix)
    rows: list[list[Fraction]] = []
    for i, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"space.matrix[{i}]: expected a row of length {n}")
        rows.append(
            [parse_rational(v, f"space.matrix[{i}][{j}]") for j, v in enumerate(row)]
        )
    for i in range(n):
        for j in range(n):
            if rows[i][j].numerator < 0:
                raise InputError(f"space.matrix[{i}][{j}]: distances must be nonnegative")
    if require_metric:
        report = validate(rows)
        if not report.is_metric:
            raise InputError(_matrix_fault(report.violations))
    return FiniteMetric(n, tuple(tuple(r) for r in rows))


def _matrix_fault(violations) -> str:
    """Name the cell of the first diagonal or symmetry fault in row order
    (the diagonal (i,i) sorts before the pairs (i,j>i)); other faults
    keep `validate`'s first violation."""
    cells = [v.indices for v in violations if v.kind in ("diagonal", "symmetry")]
    if not cells:
        return "space.matrix: " + violations[0].describe()
    i, j = min(cells)
    if i == j:
        return f"space.matrix[{i}][{i}]: diagonal must be 0"
    return f"space.matrix[{j}][{i}]: must equal space.matrix[{i}][{j}]"


def _parse_ball_tree(tree) -> BallTree:
    from .balltree import BallTree, leaf  # here only: qo calls never compile balltree

    def parse_node(node, path: str, parent_label: Fraction | None) -> BallTree:
        node = _require_dict(node, path)
        if "leaf" in node:
            name = node["leaf"]
            if not isinstance(name, str):
                raise InputError(f"{path}.leaf: expected a string point id")
            return leaf(name)
        if "label" not in node or "children" not in node:
            raise InputError(f"{path}: expected either a leaf or label+children")
        label = parse_rational(node["label"], f"{path}.label")
        if label <= 0:
            raise InputError(f"{path}.label: must be positive")
        if parent_label is not None and label >= parent_label:
            raise InputError(f"{path}.label: must be strictly below the parent label")
        children = node["children"]
        if not isinstance(children, list) or len(children) < 2:
            raise InputError(f"{path}.children: internal nodes need at least 2 children")
        kids = tuple(
            parse_node(c, f"{path}.children[{k}]", label) for k, c in enumerate(children)
        )
        return BallTree(label, None, kids)

    return parse_node(tree, "tree", None)


def space_to_tree(space: FiniteMetric | BallTree) -> BallTree:
    if isinstance(space, FiniteMetric):
        from .balltree import to_ball_tree  # here only: qo calls never compile balltree

        return to_ball_tree(space)
    return space


def space_doc(space: FiniteMetric | BallTree) -> dict:
    if isinstance(space, FiniteMetric):
        return {
            "kind": "matrix",
            "matrix": [[format_rational(v) for v in row] for row in space.rows],
        }
    return {"kind": "balltree", "tree": _tree_node_doc(space)}


def _tree_node_doc(t: BallTree) -> dict:
    if t.is_leaf:
        return {"leaf": t.point or ""}
    return {
        "label": format_rational(t.label),
        "children": [_tree_node_doc(c) for c in t.children],
    }


# ---------------------------------------------------------------------------
# Quasi-orders and multisets.
# ---------------------------------------------------------------------------

def parse_qo(doc) -> QuasiOrder:
    from .qo import closure  # here only: space calls never compile qo

    return closure(*_parse_pairs(doc, "qo", "pairs", "[i,j]"))


def qo_doc(s: QuasiOrder) -> dict:
    pairs = [[i, j] for i, row in enumerate(s.up) for j in range(s.n) if j != i and row >> j & 1]
    return {"n": s.n, "pairs": pairs}


def parse_multiset(doc, base: QuasiOrder) -> OmegaMultiset:
    from .qo import OMEGA, OmegaMultiset

    doc = _require_dict(doc, "multiset")
    mults = doc.get("mults")
    if not isinstance(mults, dict):
        raise InputError("multiset.mults: expected an object")
    parsed: dict[int, Mult] = {}
    for key, value in mults.items():
        try:
            elem = int(key)
        except ValueError:
            raise InputError(f"multiset.mults[{key!r}]: key must be a carrier index")
        if str(elem) != key:
            raise InputError(f"multiset.mults[{key!r}]: key must be a canonical integer")
        if value == "omega":
            parsed[elem] = OMEGA
        else:
            m = _require_int(value, f"multiset.mults[{key!r}]")
            if m < 1:
                raise InputError(f"multiset.mults[{key!r}]: multiplicity must be >= 1")
            parsed[elem] = m
    return OmegaMultiset.of(base, parsed)


def multiset_doc(ms: OmegaMultiset) -> dict:
    from .qo import Omega

    return {
        "mults": {
            str(x): ("omega" if isinstance(m, Omega) else m) for x, m in ms.entries
        }
    }


# ---------------------------------------------------------------------------
# Trees and graphs.
# ---------------------------------------------------------------------------

def parse_tree(doc) -> RootedTree:
    from .reduce import RootedTree  # here only: other verbs never load reduce

    doc = _require_dict(doc, "tree")
    parents = doc.get("parents")
    if not isinstance(parents, list) or not parents:
        raise InputError("tree.parents: expected a nonempty array")
    out: list[int | None] = []
    for k, p in enumerate(parents):
        if p is None:
            out.append(None)
        else:
            out.append(_require_int(p, f"tree.parents[{k}]"))
    return RootedTree(tuple(out))


def tree_doc(t: RootedTree) -> dict:
    return {"parents": list(t.parents)}


def parse_graph(doc) -> Graph:
    from .reduce import Graph

    return Graph.from_edges(*_parse_pairs(doc, "graph", "edges", "[a,b]"))


def graph_doc(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}
