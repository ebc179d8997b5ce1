"""Spans around calls into umlab's public functions, recorded in memory.

`Tracer.install` swaps module attributes for timing wrappers, in every
umlab module that binds the function, so names imported under another
module (`umlab.io.validate`, `umlab.reduce.embeds`, ...) and module
references resolved at call time (`genlab`'s `bt.embeds`) are all
covered.  Nothing under src/ is edited; `uninstall` restores the
originals.

While a wrapped function runs, its own module binding points back at the
original, so recursive calls (`canonical_code`) neither add spans nor
add stack frames: a traced call reaches the same recursion depth as an
untraced one.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# Module -> function -> the per-layer metric its self time adds to.
SPANS = {
    "umlab.io": {
        "load_json": "io.load_json_s",
        "parse_space": "io.parse_space_s",
        "parse_tree": "io.parse_tree_s",
        "parse_qo": "io.parse_qo_s",
        "parse_multiset": "io.parse_multiset_s",
        "space_doc": "io.emit_s",
    },
    "umlab.cli": {"main": "cli.main_self_s", "_emit": "io.emit_s", "_write_or_emit": "io.emit_s"},
    "umlab.metric": {
        "validate": "metric.validate_s",
        "brute_isometric": "metric.brute_s",
        "brute_embeds": "metric.brute_s",
    },
    "umlab.balltree": {
        "to_ball_tree": "balltree.to_ball_tree_s",
        "from_ball_tree": "balltree.from_ball_tree_s",
        "canonical_code": "balltree.canonical_code_s",
        "canonicalize": "balltree.canonicalize_s",
        "embeds": "balltree.embeds_s",
    },
    "umlab.qo": {
        "closure": "qo.closure_s",
        "inj_le": "qo.inj_le_s",
        "wqo_inj_le": "qo.wqo_inj_le_s",
        "einj_equivalent": "qo.einj_equivalent_s",
        "iterate_levels": "qo.iterate_levels_s",
    },
    "umlab.reduce": {
        **{name: f"reduce.build_s.{name}" for name in (
            "tree_ultrametric", "rank_ultrametric", "glue_canonical", "add_tail",
            "union_at_distance", "decompose_space", "subset_space", "graph_metric")},
        "list_embeds": "reduce.match_s",
        "rooted_tree_embeds": "reduce.match_s",
        "rooted_tree_iso": "reduce.match_s",
        "brute_rooted_iso": "reduce.brute_s",
        "brute_rooted_embeds": "reduce.brute_s",
        "brute_graph_iso": "reduce.brute_s",
        "brute_graph_embeds": "reduce.brute_s",
    },
    "umlab.genlab": {
        **{name: "genlab.gen_s" for name in (
            "gen_tree", "gen_ball_tree", "gen_qo", "gen_equivalence", "gen_multiset", "mutate_pair")},
        "run_campaign": "genlab.campaign_self_s",
    },
}

# Functions counted without a span: called too often for one each.
COUNTS = {"umlab.rationals": {"parse_rational": "rationals.parse_calls"}}

# Call counts reported next to a span's self time.
CALLS = {
    "metric.validate_s": "metric.validate_calls",
    "metric.brute_s": "metric.brute_calls",
    "balltree.embeds_s": "balltree.embeds_calls",
}


class Tracer:
    """Spans as (parent index, name, start ns, end ns), kept in a list."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span_wrapper(self, fn, name: str, home):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        depth = [0]

        def wrapper(*args, **kwargs):
            outer = depth[0] == 0
            if outer:
                setattr(home, fn.__name__, fn)
            depth[0] += 1
            sid = len(spans)
            spans.append((stack[-1] if stack else -1, name, clock(), 0))
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent, _, t0, _ = spans[sid]
                spans[sid] = (parent, name, t0, t1)
                depth[0] -= 1
                if outer:
                    setattr(home, fn.__name__, wrapper)

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        homes = {name: importlib.import_module(name) for name in [*SPANS, *COUNTS]}
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "umlab" or key.startswith("umlab."))]
        for table, spans in ((SPANS, True), (COUNTS, False)):
            for module_name, functions in table.items():
                home = homes[module_name]
                for attr, name in functions.items():
                    fn = getattr(home, attr)
                    wrapper = (self._span_wrapper(fn, name, home) if spans
                               else self._count_wrapper(fn, name))
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is fn:
                                self._patched.append((module, key, fn))
                                setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, key, fn = self._patched.pop()
            setattr(module, key, fn)

    def calls(self) -> dict[str, int]:
        """How many spans each name has."""
        out: dict[str, int] = defaultdict(int)
        for _, name, _, _ in self.spans:
            out[name] += 1
        return out


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per span name: each span's duration minus the
    part of it that its child spans cover (overlaps counted once)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for parent, _, t0, t1 in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    out: dict[str, float] = defaultdict(float)
    for sid, (_, name, t0, t1) in enumerate(spans):
        covered, reach = 0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[name] += (t1 - t0 - covered) / 1e9
    return out
