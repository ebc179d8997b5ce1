"""Command-line front end.

Exit codes: 0 = success / decision positive / property holds;
1 = decision negative or property falsified (report on stdout);
2 = input or usage error (diagnostic on stderr);
3 = internal error, a bug (traceback and `error: internal error: ...` on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import balltree as bt
from . import genlab
from . import io as uio
from . import metric as mt
from . import qo
from .errors import InputError, UmlabError
from .metric import DistanceSet
from .rationals import format_rational, parse_rational


def build_parser(groups=None) -> argparse.ArgumentParser:
    """The `umlab` parser, with the verbs of every group, or of the
    groups named in `groups` only.

    Every group name is registered either way, so the usage and the
    error for a wrong group read the same; only a parse that enters a
    group needs its verbs.
    """
    parser = argparse.ArgumentParser(
        prog="umlab",
        description="Finite ultrametric spaces, quasi-order jumps, reductions, "
        "and their verification campaigns.",
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )
    sub = parser.add_subparsers(dest="group", required=True)
    for name, (help_text, add_verbs) in _GROUPS.items():
        group = sub.add_parser(name, help=help_text)
        if groups is None or name in groups:
            add_verbs(group)
    return parser


def _space_verbs(group: argparse.ArgumentParser) -> None:
    space = group.add_subparsers(dest="verb", required=True)
    p = space.add_parser("check", help="validate a candidate matrix")
    p.add_argument("file")
    p = space.add_parser("canon", help="canonical code of an ultrametric space")
    p.add_argument("file")
    p = space.add_parser("isom", help="decide isometry")
    p.add_argument("left")
    p.add_argument("right")
    p = space.add_parser("embed", help="decide isometric embeddability")
    p.add_argument("left")
    p.add_argument("right")


def _qo_verbs(group: argparse.ArgumentParser) -> None:
    qog = group.add_subparsers(dest="verb", required=True)
    p = qog.add_parser("classes", help="mutual-comparability classes")
    p.add_argument("qo_file")
    p = qog.add_parser("cf", help="support-cofinality jump relation")
    p.add_argument("qo_file")
    p.add_argument("left")
    p.add_argument("right")
    p = qog.add_parser("inj", help="injective-matching jump relation")
    p.add_argument("qo_file")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--method", choices=("flow", "wqo"), default="flow")
    p = qog.add_parser("einj", help="mutual injective matchability")
    p.add_argument("qo_file")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--method", choices=("char", "flow"), default="char")
    p.add_argument(
        "--paranoid", action="store_true", help="cross-check both methods"
    )
    p = qog.add_parser("iterate", help="level iteration trace")
    p.add_argument("qo_file")
    p.add_argument("multiset")
    p = qog.add_parser("incomparable", help="find an incomparable pair")
    p.add_argument("qo_file")


def _reduce_verbs(group: argparse.ArgumentParser) -> None:
    reduce_ = group.add_subparsers(dest="verb", required=True)
    p = reduce_.add_parser("theta", help="tree nodes with common-ancestor-depth distances")
    p.add_argument("tree")
    p.add_argument("--radii", required=True, help="strictly decreasing, comma separated")
    p.add_argument("--out")
    p = reduce_.add_parser("glue", help="glue a space to a canonical tail")
    p.add_argument("space")
    p.add_argument("--distances", required=True, help="distance set, comma separated")
    p.add_argument("--rbar", required=True)
    p.add_argument("--out")
    p = reduce_.add_parser("tail", help="disjoint union with a canonical tail")
    p.add_argument("space")
    p.add_argument("--distances", required=True)
    p.add_argument("--out")
    p = reduce_.add_parser("phi", help="disjoint union at a fixed distance")
    p.add_argument("spaces", nargs="+")
    p.add_argument("--radius", required=True)
    p.add_argument("--out")
    p = reduce_.add_parser("decompose", help="split into marked components")
    p.add_argument("space")
    p.add_argument("--distances", required=True)
    p.add_argument("--out")
    p = reduce_.add_parser("rank", help="encode tree ranks as distances")
    p.add_argument("tree")
    p.add_argument("--radii", required=True, help="strictly increasing from 0")
    p.add_argument("--out")
    p = reduce_.add_parser("graph", help="two-distance metric of a graph")
    p.add_argument("graph")
    p.add_argument("--edge", required=True, help="distance for edges")
    p.add_argument("--nonedge", required=True, help="distance for non-edges")
    p.add_argument("--out")
    p = reduce_.add_parser("powerset", help="canonical space of a value set")
    p.add_argument("--values", default="", help="positive values, comma separated")
    p.add_argument("--out")


def _verify_args(group: argparse.ArgumentParser) -> None:
    group.add_argument("property", help="registered property name")
    group.add_argument("--trials", type=int, required=True)
    group.add_argument("--seed", type=int, default=0)
    group.add_argument("--max-nodes", type=int)
    group.add_argument("--max-points", type=int)
    group.add_argument("--max-support", type=int)


_GROUPS = {
    "space": ("metric space decisions", _space_verbs),
    "qo": ("quasi-order and multiset decisions", _qo_verbs),
    "reduce": ("reduction constructions", _reduce_verbs),
    "verify": ("run a verification campaign", _verify_args),
}


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True))
    else:
        for key in sorted(doc):
            value = doc[key]
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            print(f"{key}: {value}")


def _rationals(text: str, where: str) -> list[Fraction]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    return [parse_rational(piece, where) for piece in items]


def _load_tree(path: str) -> bt.BallTree:
    return uio.space_to_tree(uio.parse_space(uio.load_json(path)))


def _decision(doc: dict, key: str, fmt: str) -> int:
    _emit(doc, fmt)
    return 0 if doc[key] else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # --format takes only json or text, so the first argument naming a
    # group is the group; only its verbs are built
    parser = build_parser([arg for arg in argv if arg in _GROUPS][:1])
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except UmlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply for the recursion limit", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # here only, so start-up does not pay for it
        traceback.print_exc()
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    fmt = args.format
    if args.group == "space":
        return _space(args, fmt)
    if args.group == "qo":
        return _qo(args, fmt)
    if args.group == "reduce":
        return _reduce(args, fmt)
    return _verify(args, fmt)


def _space(args, fmt: str) -> int:
    if args.verb == "check":
        space = uio.parse_space(uio.load_json(args.file), require_metric=False)
        if isinstance(space, bt.BallTree):
            # the parser makes labels decrease towards the leaves: an ultrametric
            report = mt.ValidationReport(True, True, (), bt.realized_of_tree(space))
        else:
            report = mt.validate(space.rows)
        doc = {
            "is_metric": report.is_metric,
            "is_ultrametric": report.is_ultrametric,
            "violations": [v.describe() for v in report.violations],
            "realized": [format_rational(v) for v in report.realized],
        }
        return _decision(doc, "is_metric", fmt)
    if args.verb == "canon":
        tree = _load_tree(args.file)
        _emit({"code": bt.canonical_code(tree).decode("ascii")}, fmt)
        return 0
    left, right = _load_tree(args.left), _load_tree(args.right)
    if args.verb == "isom":
        return _decision({"isometric": bt.isometric(left, right)}, "isometric", fmt)
    return _decision({"embeds": bt.embeds(left, right)}, "embeds", fmt)


def _qo(args, fmt: str) -> int:
    base = uio.parse_qo(uio.load_json(args.qo_file))
    if args.verb == "classes":
        _emit({"classes": [list(c) for c in qo.es_classes(base)]}, fmt)
        return 0
    if args.verb == "incomparable":
        found, pair = qo.has_incomparable_pair(base)
        return _decision(
            {"incomparable": found, "pair": list(pair) if pair else None},
            "incomparable",
            fmt,
        )
    left = uio.parse_multiset(uio.load_json(args.left if args.verb != "iterate" else args.multiset), base)
    if args.verb == "iterate":
        trace = qo.iterate_levels(left)
        _emit(
            {
                "levels": [sorted(level) for level in trace.levels],
                "stabilized_at": trace.stabilized_at,
                "core": sorted(trace.core),
            },
            fmt,
        )
        return 0
    right = uio.parse_multiset(uio.load_json(args.right), base)
    if args.verb == "cf":
        return _decision({"cf_le": qo.cf_le(left, right)}, "cf_le", fmt)
    if args.verb == "inj":
        if args.method == "flow":
            ok, witness = qo.inj_le(left, right)
        else:
            ok, witness = qo.wqo_inj_le(left, right), None
        doc: dict = {"inj_le": ok, "method": args.method}
        if witness is not None:
            doc["witness"] = [
                [x, y, "omega" if isinstance(m, qo.Omega) else m]
                for x, y, m in witness.entries
            ]
        return _decision(doc, "inj_le", fmt)
    # einj
    by_char = by_flow = None
    if args.method == "char" or args.paranoid:
        by_char = qo.einj_equivalent(left, right)
    if args.method == "flow" or args.paranoid:
        by_flow = qo.inj_le(left, right)[0] and qo.inj_le(right, left)[0]
    answer = by_char if args.method == "char" else by_flow
    if args.paranoid and by_flow != by_char:
        raise UmlabError(
            f"einj cross-check disagrees: char={by_char} flow={by_flow}"
        )
    doc = {"einj": answer, "method": args.method}
    if args.paranoid:
        doc["cross_check"] = "agree"
    return _decision(doc, "einj", fmt)


def _reduce(args, fmt: str) -> int:
    from . import reduce as red  # here only: other verbs never load reduce

    verb = args.verb
    if verb == "theta":
        tree = uio.parse_tree(uio.load_json(args.tree))
        out = red.tree_ultrametric(tree, _rationals(args.radii, "--radii"))
    elif verb == "glue":
        space = _load_tree(args.space)
        ds = DistanceSet.from_values(_rationals(args.distances, "--distances"))
        out = red.glue_canonical(space, ds, parse_rational(args.rbar, "--rbar"))
    elif verb == "tail":
        space = _load_tree(args.space)
        ds = DistanceSet.from_values(_rationals(args.distances, "--distances"))
        out = red.add_tail(space, ds)
    elif verb == "phi":
        spaces = [_load_tree(path) for path in args.spaces]
        out = red.union_at_distance(spaces, parse_rational(args.radius, "--radius"))
    elif verb == "decompose":
        space = _load_tree(args.space)
        ds = DistanceSet.from_values(_rationals(args.distances, "--distances"))
        parts = red.decompose_space(space, ds)
        doc = {"components": [uio.space_doc(p) for p in parts]}
        return _write_or_emit(doc, args.out, fmt)
    elif verb == "rank":
        tree = uio.parse_tree(uio.load_json(args.tree))
        out = red.rank_ultrametric(tree, _rationals(args.radii, "--radii"))
    elif verb == "graph":
        graph = uio.parse_graph(uio.load_json(args.graph))
        metric = red.graph_metric(
            graph,
            parse_rational(args.edge, "--edge"),
            parse_rational(args.nonedge, "--nonedge"),
        )
        doc = uio.space_doc(metric)
        doc["trivial"] = red.is_trivial_graph(graph)
        return _write_or_emit(doc, args.out, fmt)
    else:  # powerset
        out = red.subset_space(_rationals(args.values, "--values"))
    return _write_or_emit(uio.space_doc(out), args.out, fmt)


def _write_or_emit(doc: dict, out_path: str | None, fmt: str) -> int:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            raise InputError(f"--out {out_path}: {exc.strerror or exc}") from exc
    else:
        _emit(doc, fmt)
    return 0


def _verify(args, fmt: str) -> int:
    bounds = genlab.Bounds(
        max_nodes=args.max_nodes,
        max_points=args.max_points,
        max_support=args.max_support,
    )
    report = genlab.run_campaign(args.property, args.trials, args.seed, bounds)
    _emit(report.to_doc(), fmt)
    return 0 if report.passed else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
