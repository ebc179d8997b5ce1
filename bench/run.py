"""Benchmark of the umlab CLI: seeded workloads, checked outputs, metrics.

    python3 bench/run.py --workload matrix-sweep --seed 1 --seconds 36 --trace 0

With `--trace 0` the run is a closed loop with one client: it spawns
`python -m umlab.cli` for the next call of the workload's deck only after
the previous one exited, for as many whole decks as fit in `--seconds`
(at least MIN_DECKS), and reports the end-to-end metrics.  Each timing
metric takes every call of the deck at its fastest repetition in the run:
on a shared host the speed of a core changes in bursts, and the fastest
of several repetitions spread over the run repeats from run to run far
better than the plain wall-clock figures, which go to the result record.  With `--trace 1` it runs the same deck in-process,
once untraced and once with spans around umlab's public functions (see
`spans`), and reports per-layer self times, counts and the tracing
overhead.  Every output is checked against the answer known from how its
input was built.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; a fuller record of the run
goes to .bench_work/results/.

A call fails on a wrong answer, a wrong exit code, a traceback on stderr
or a timeout.  `correct` is false only when some call gave a wrong
answer; crashes count in `failed` and are listed by verb and size.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# setup_s is the median of repeated set-ups: at least SETUPS_FIRST before
# the first deck, and more while they took less than SETUP_BUDGET_S, then
# more after every deck of the closed loop while they take less than
# SETUP_SLICE_S, so that the set-ups are spread over the run like the calls.
SETUPS_FIRST, SETUPS_MAX, SETUP_BUDGET_S, SETUP_SLICE_S = 3, 200, 1.0, 0.3
PROBES = 5  # fresh interpreters per start-up probe in a traced run
MIN_DECKS = 3  # repetitions of the deck in a run, however long it takes
CALL_TIMEOUT_S = 60
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it

PROPERTIES = (
    "add-tail-embed", "add-tail-iso", "canon-vs-brute", "cf-support-only", "decompose",
    "embed-vs-brute", "glue-star", "graph-metric-embed", "graph-metric-iso",
    "inj-counts-equiv", "inj-flow-vs-char", "inj-flow-vs-wqo", "iterate-sanity",
    "phi-union", "powerset-embed", "rank-tree", "theta-embed", "theta-iso",
    "triangle-wellspaced", "witness-levels",
)

END_TO_END = {
    "setup_s": "s",
    "call_s_p50": "s",
    "call_s_tail": "s",
    "calls_per_s": "1/s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = [
    "cli.interp_s", "cli.import_s", "cli.import_genlab_s", "cli.main_self_s",
    "io.load_json_s", "io.parse_space_s", "io.parse_tree_s", "io.parse_qo_s",
    "io.parse_multiset_s", "io.emit_s", "rationals.parse_calls",
    "metric.validate_s", "metric.validate_calls", "metric.brute_s", "metric.brute_calls",
    "balltree.to_ball_tree_s", "balltree.from_ball_tree_s", "balltree.canonical_code_s",
    "balltree.canonicalize_s", "balltree.embeds_s", "balltree.embeds_calls",
    "qo.closure_s", "qo.inj_le_s", "qo.wqo_inj_le_s", "qo.einj_equivalent_s",
    "qo.iterate_levels_s",
    *(f"reduce.build_s.{name}" for name in (
        "tree_ultrametric", "rank_ultrametric", "glue_canonical", "add_tail",
        "union_at_distance", "decompose_space", "subset_space", "graph_metric")),
    "reduce.match_s", "reduce.brute_s",
    "genlab.gen_s", "genlab.campaign_self_s",
    *(f"genlab.trials_per_s.{prop}" for prop in PROPERTIES),
    "trace.overhead_s", "trace.spans",
]


def layer_unit(name: str) -> str:
    if ".trials_per_s." in name:
        return "1/s"
    return "s" if name.endswith("_s") or "_s." in name else "count"


@dataclass
class Outcome:
    call: object  # workloads.Call
    seconds: float
    kind: str  # "ok", "wrong", "traceback", "timeout" or "exit N"
    detail: str = ""
    maxrss_kb: int = 0


def judge(call, code, out: str, err: str) -> tuple[str, str]:
    """Classify one call's result against its expected answer."""
    if "Traceback (most recent call last)" in err:
        return "traceback", err.strip().splitlines()[-1][:200]
    if code != call.exit:
        if code in (0, 1) and call.exit in (0, 1):
            return "wrong", f"exit {code}, want {call.exit}: {out.strip()[:200]}"
        return f"exit {code}", err.strip()[:200]
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return "wrong", f"stdout is not one JSON document: {out[:200]!r}"
    problem = call.check(doc)
    return ("wrong", problem[:300]) if problem else ("ok", "")


def tail(samples) -> tuple[int, float]:
    """The highest whole percentile with at least TAIL_BEYOND samples above
    it (nearest rank); the median when that percentile would not lie above
    the median, as with fewer than 2 * TAIL_BEYOND samples."""
    xs = sorted(samples)
    n = len(xs)
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    if pct <= 50:
        return 50, statistics.median(xs)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, xs[rank - 1]


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args, scratch: Path, env: dict) -> tuple[int | None, str, str, float, int]:
    """Run one child to exit: (exit code or None on timeout, stdout, stderr,
    wall seconds from spawn to exit, its max RSS in KiB from wait4)."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=env, cwd=ROOT)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(CALL_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        code = None if killed.is_set() else proc.returncode
        return (code, out.read().decode("utf-8", "replace"), err.read().decode("utf-8", "replace"),
                seconds, usage.ru_maxrss)


def run_cli(call, scratch: Path, env: dict) -> Outcome:
    code, out, err, seconds, rss = spawn([sys.executable, "-m", "umlab.cli", *call.argv], scratch, env)
    if code is None:
        return Outcome(call, seconds, "timeout", f"killed after {CALL_TIMEOUT_S} s", rss)
    kind, detail = judge(call, code, out, err)
    return Outcome(call, seconds, kind, detail, rss)


def whole_decks(deck, seconds: float, run_call, least: int = 1,
                after_deck=lambda: None) -> tuple[list[Outcome], float]:
    """Run the deck `least` times, then again while one more deck, at the
    mean deck time so far, still ends within `seconds`.  Every run then
    measures whole decks, so its mix of calls does not depend on where a
    time limit happened to cut the deck."""
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    while True:
        outcomes += [run_call(call) for call in deck]
        after_deck()
        wall = time.perf_counter() - start
        decks = len(outcomes) // len(deck)
        if decks >= least and wall * (decks + 1) / decks > seconds:
            return outcomes, wall


def closed_loop(deck, seconds: float, scratch: Path, after_deck) -> tuple[list[Outcome], float]:
    env = child_env()
    spawn([sys.executable, "-c", "import umlab.cli"], scratch, env)  # byte-compile before timing
    return whole_decks(deck, seconds, lambda call: run_cli(call, scratch, env), MIN_DECKS, after_deck)


# ---------------------------------------------------------------------------
# In-process passes for the traced run.
# ---------------------------------------------------------------------------

def run_inprocess(call) -> Outcome:
    from umlab import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(call.argv)
        except Exception:  # the CLI would die with this traceback
            code = 1
            err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    kind, detail = judge(call, code, out.getvalue(), err.getvalue())
    return Outcome(call, seconds, kind, detail)


def probe(args, scratch: Path, env: dict) -> tuple[float, str]:
    code, _, err, seconds, _ = spawn([sys.executable, *args], scratch, env)
    if code != 0:
        raise RuntimeError(f"{args} exited {code}: {err[-300:]}")
    return seconds, err


def import_genlab_s(stderr: str) -> float:
    """Cumulative import time of umlab.genlab from `-X importtime` output."""
    for line in stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "umlab.genlab":
            return int(parts[1]) / 1e6
    raise RuntimeError("umlab.genlab missing from -X importtime output")


def start_up_probes(scratch: Path) -> dict[str, float]:
    env = child_env()
    probe(["-c", "import umlab.cli"], scratch, env)  # byte-compile before timing
    interp = statistics.median(probe(["-c", "pass"], scratch, env)[0] for _ in range(PROBES))
    imported = statistics.median(probe(["-c", "import umlab.cli"], scratch, env)[0] for _ in range(PROBES))
    genlab = statistics.median(
        import_genlab_s(probe(["-X", "importtime", "-c", "import umlab.cli"], scratch, env)[1])
        for _ in range(PROBES))
    return {"cli.interp_s": interp, "cli.import_s": imported - interp, "cli.import_genlab_s": genlab}


def run_decks(deck, decks: int) -> list[Outcome]:
    return [run_inprocess(call) for _ in range(decks) for call in deck]


def traced_run(deck, seconds: float, scratch: Path, stem: str) -> tuple[list[Outcome], dict, dict]:
    """Whole decks in-process: untraced, traced, untraced again, each pass
    the same number of decks, as many as fit in a third of `seconds` in the
    first pass.  Per-layer figures are per deck."""
    import spans

    metrics = start_up_probes(scratch)
    untraced, wall = whole_decks(deck, seconds / 3, run_inprocess)
    decks = len(untraced) // len(deck)
    walls = [wall]

    tracer = spans.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        traced = run_decks(deck, decks)
    finally:
        tracer.uninstall()
    traced_wall = time.perf_counter() - start
    start = time.perf_counter()
    untraced += run_decks(deck, decks)
    walls.append(time.perf_counter() - start)

    metrics.update({name: 0 for name in PER_LAYER if name not in metrics})
    calls = tracer.calls()
    per_deck = {**spans.self_times(tracer.spans), **tracer.counts,
                **{count: calls.get(span, 0) for span, count in spans.CALLS.items()},
                "trace.overhead_s": traced_wall - statistics.mean(walls),
                "trace.spans": len(tracer.spans)}
    metrics.update({name: value / decks for name, value in per_deck.items()})
    trials: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
    for o in untraced:
        if o.call.prop and o.kind == "ok":
            trials[o.call.prop][0] += o.call.trials
            trials[o.call.prop][1] += o.seconds
    for prop, (count, secs) in trials.items():
        metrics[f"genlab.trials_per_s.{prop}"] = count / secs

    names = sorted({name for _, name, _, _ in tracer.spans})
    index = {name: k for k, name in enumerate(names)}
    with gzip.open(WORK / "results" / f"{stem}-spans.json.gz", "wt", encoding="utf-8") as handle:
        json.dump({"fields": ["parent", "name", "start_ns", "end_ns"], "names": names,
                   "spans": [[p, index[n], t0, t1] for p, n, t0, t1 in tracer.spans]}, handle)
    extra = {"decks": decks, "untraced_wall_s": walls, "traced_wall_s": traced_wall,
             "untraced_failures": summarize_failures(untraced)}
    return traced, metrics, extra


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------

def fastest(outcomes: list[Outcome], size: int) -> list[tuple[float, bool]]:
    """Each call of a deck of `size` calls, run as whole decks in order: its
    fastest time over the repetitions, and whether every repetition was ok."""
    return [(min(o.seconds for o in reps), all(o.kind == "ok" for o in reps))
            for reps in (outcomes[k::size] for k in range(size))]


def end_to_end(outcomes: list[Outcome], deck, wall: float, setup_s: float) -> tuple[dict, dict]:
    """Timings over the deck's calls, each at its fastest repetition; calls
    per second and trials per second over the sum of those times."""
    best = fastest(outcomes, len(deck))
    durations = [seconds for seconds, _ in best]
    pct, tail_value = tail(durations)
    verify = [(seconds, call.trials) for (seconds, ok), call in zip(best, deck) if ok and call.prop]
    metrics = {
        "setup_s": setup_s,
        "call_s_p50": statistics.median(durations),
        "call_s_tail": tail_value,
        "calls_per_s": sum(ok for _, ok in best) / sum(durations),
        "trials_per_s": (sum(trials for _, trials in verify) / sum(seconds for seconds, _ in verify)
                         if verify else 0.0),
        "peak_rss_mb": max(o.maxrss_kb for o in outcomes) / 1024,
    }
    ok = sum(o.kind == "ok" for o in outcomes)
    every = [o.seconds for o in outcomes]
    return metrics, {"tail_percentile": pct, "samples": len(durations),
                     "decks": len(outcomes) // len(deck), "wall_s": wall,
                     "wall_call_s_p50": statistics.median(every),
                     "wall_calls_per_s": ok / wall,
                     "failed_frac": (len(outcomes) - ok) / len(outcomes)}


def summarize_failures(outcomes: list[Outcome]) -> list[dict]:
    """Failed calls grouped by verb, size and kind, with one example each."""
    groups: dict[tuple, list[Outcome]] = defaultdict(list)
    for o in outcomes:
        if o.kind != "ok":
            groups[(o.call.verb, o.call.size, o.kind)].append(o)
    return [{"verb": verb, "size": size, "kind": kind, "count": len(items),
             "detail": items[0].detail}
            for (verb, size, kind), items in sorted(groups.items())]


def balance(deck) -> dict:
    """Expected decisions per verb over one deck, and trials per property."""
    verbs: dict[str, Counter] = defaultdict(Counter)
    for call in deck:
        verbs[call.verb][{True: "positive", False: "negative", None: "no_decision"}[call.answer]] += 1
    out: dict = {"verbs": {verb: dict(sorted(c.items())) for verb, c in sorted(verbs.items())}}
    trials = {call.prop: call.trials for call in deck if call.prop}
    if trials:
        out["trials"] = dict(sorted(trials.items()))
    return out


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_at_start": list(os.getloadavg()),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "umlab" / "cli.py").is_file():
        print(f"error: no umlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    record = run_record(args)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.DECKS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.DECKS)}",
              file=sys.stderr)
        return 2
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    base = WORK / stem
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    try:
        setup_times: list[float] = []

        def set_up(root: Path):
            start = time.perf_counter()
            built = workloads.build(args.workload, args.seed, root)
            setup_times.append(time.perf_counter() - start)
            return built

        def set_up_again(budget: float, least: int) -> None:
            """Time more set-ups in a spare directory while they fit in `budget`."""
            spent, count = 0.0, 0
            while count < least or (spent < budget and count < SETUPS_MAX):
                set_up(base / "spare")
                spent += setup_times[-1]
                count += 1
                shutil.rmtree(base / "spare")

        deck = set_up(base / "inputs")
        set_up_again(SETUP_BUDGET_S, SETUPS_FIRST - 1)
        scratch = base / "io"
        scratch.mkdir()
        if args.trace:
            outcomes, metrics, extra = traced_run(deck, args.seconds, scratch, stem)
            units = {name: layer_unit(name) for name in PER_LAYER}
            metrics = {name: metrics[name] for name in PER_LAYER}
        else:
            outcomes, wall = closed_loop(deck, args.seconds, scratch,
                                         lambda: set_up_again(SETUP_SLICE_S, 1))
            metrics, extra = end_to_end(outcomes, deck, wall, statistics.median(setup_times))
            units = END_TO_END
    finally:
        shutil.rmtree(base, ignore_errors=True)

    failures = summarize_failures(outcomes)
    wrong = [o for o in outcomes if o.kind == "wrong"]
    result = {
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": sum(o.kind != "ok" for o in outcomes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    report = {"run": record, "setup_s_each": setup_times, **extra, "balance": balance(deck),
              "failures": failures, **result,
              "calls": [[o.call.verb, o.call.size, o.kind, o.seconds] for o in outcomes]}
    (WORK / "results" / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"run: {json.dumps(record)}")
    if not args.trace:
        print(f"calls: {extra['samples']} in the deck, each at its fastest of {extra['decks']}; "
              f"tail percentile: p{extra['tail_percentile']}; failed_frac: {extra['failed_frac']:.4f}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    print(f"balance: {json.dumps(report['balance'])}")
    for f in failures:
        print(f"failed: {f['verb']} size={f['size']} {f['kind']} x{f['count']}: {f['detail']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
