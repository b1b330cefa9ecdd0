#!/usr/bin/env python3
"""depthbench's benchmark: one closed-loop caller, one thread, four workloads.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Each repetition draws fresh inputs from (seed, repetition) — so no
process-global cache serves one repetition from an earlier one — times
its fixed op list back to back, then checks every op's output untimed.
Repetitions continue while the next one fits in ``--seconds``, and at
least until 100 ops have run.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` repetitions alternate
untraced and traced, and it carries the per-layer metrics of the traced
ones (see tracing.py) plus the tracing overhead; the spans of the first
traced repetition are written to ``.perfbench-trace/<workload>.jsonl``.
Every timing is scaled by yardstick samples taken around it (see
yardstick.py), so a slow phase of a shared host does not move it.  The
program is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracing
from yardstick import Yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-trace"
MIN_OPS = 100
IMPORT_SAMPLES = 9
# peak_rss_mb is the peak while the first RSS_REPS repetitions run: later
# ones only add entries to the program's bounded caches, at a rate set by
# how fast the host runs, so a whole-run peak would track the host's speed.
RSS_REPS = 4

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:  # not a git checkout, or a packed ref
        return "unknown"


def machine_info(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
        "commit": git_commit(),
    }


def import_program(stick: Yardstick) -> float:
    """Import every depthbench module from this checkout; returns the median seconds.

    The package is imported ``IMPORT_SAMPLES`` times, dropping it from
    ``sys.modules`` in between, so work moved to import time shows in
    ``setup_s`` as a median rather than one noisy shot.  Each import is
    scaled by the yardstick samples taken around it.  The last import is
    the one the workloads use.
    """
    if not (SRC / "depthbench" / "__init__.py").is_file():
        raise ImportError(f"no depthbench package under {SRC}")
    sys.path.insert(0, str(SRC))
    samples = []
    before = stick.sample()
    for _ in range(IMPORT_SAMPLES):
        for key in [k for k in sys.modules if k.split(".")[0] == "depthbench"]:
            del sys.modules[key]
        start = time.perf_counter()
        for name in tracing.MODULES:
            importlib.import_module(f"depthbench.{name}")
        seconds = time.perf_counter() - start
        after = stick.sample()
        samples.append(seconds * stick.scale(before, after))
        before = after
    for name in tracing.MODULES:
        path = Path(sys.modules[f"depthbench.{name}"].__file__).resolve()
        if path.parent != SRC / "depthbench":
            raise ImportError(f"depthbench.{name} resolved outside {SRC}: {path}")
    return statistics.median(samples)


def run_rep(ops, tracer=None, stick: Yardstick | None = None) -> tuple[float, list[float], dict, dict]:
    """Run the op list back to back: (wall ns, per-op ns, results, raised).

    With a yardstick, samples are taken before the first op, between ops
    once ``yardstick.EVERY_S`` has passed, and after the last op; each op's
    time is scaled by the samples around it.  The wall time is the sum of
    the op times, so the samples themselves are not in it.
    """
    results: dict = {}
    raised: dict = {}
    latencies: list[float] = []
    brackets = []  # the yardstick sample taken last before each op
    clock = time.perf_counter_ns
    last = stick.sample() if stick else None
    for i, op in enumerate(ops):
        if stick and stick.due():
            last = stick.sample()
        brackets.append(last)
        if tracer is not None:
            tracer.op = f"{tracer.rep}:{i}"
        start = clock()
        try:
            results[op.label] = op.run(results)
        except Exception as exc:  # a raising op is a failed op, not a crashed benchmark
            raised[op.label] = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - start)
    if stick:
        stick.sample()  # the sample after op i is the next one taken: index brackets[i] + 1
        latencies = [ns * stick.scale(b, b + 1) for ns, b in zip(latencies, brackets)]
    return sum(latencies), latencies, results, raised


def verify(ops, results: dict, raised: dict, workloads) -> list:
    failures = []
    for op in ops:
        if op.label in raised:
            failures.append((op.label, workloads.reported(f"raised {raised[op.label]}")))
            continue
        try:
            failure = op.check(results[op.label], results)
        except Exception as exc:  # an output the check cannot read is a wrong output
            failure = workloads.wrong(f"check raised {type(exc).__name__}: {exc}")
        if failure is not None:
            failures.append((op.label, failure))
    return failures


def measure(workload: str, seed: int, seconds: float, trace: bool, stick: Yardstick) -> dict:
    import workloads  # imports depthbench, so only after import_program

    build = workloads.BUILDERS[workload]
    walls: dict[bool, list[float]] = {False: [], True: []}
    setups, latencies, failures, layers = [], [], [], []
    kept_spans: list[tuple] = []
    attempted = 0
    begin = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        rep = 0
        while True:
            rep_start = time.perf_counter()
            tracer = None
            if trace and rep % 2 == 1:
                tracer = tracing.Tracer(rep)
                tracer.op = f"{rep}:setup"
                tracer.install()
            try:
                before = stick.sample()
                setup_start = time.perf_counter()
                ops = build(seed, rep, workdir)
                if len({op.label for op in ops}) != len(ops):
                    raise ValueError(f"{workload}: op labels are not unique")
                setup = time.perf_counter() - setup_start
                setups.append(setup * stick.scale(before, stick.sample()))
                # The inputs stay alive for the whole repetition; frozen, they
                # are not rescanned by every collection the ops trigger.
                gc.collect()
                gc.freeze()
                wall, lats, results, raised = run_rep(ops, tracer, stick)
            finally:
                gc.unfreeze()
                if tracer is not None:
                    tracer.uninstall()
            walls[tracer is not None].append(wall)
            if tracer is not None:
                layers.append(tracing.layer_metrics(tracing.reduce_spans(tracer.spans)))
                kept_spans = kept_spans or tracer.spans
            latencies += lats
            attempted += len(ops)
            failures += [(rep, label, f) for label, f in verify(ops, results, raised, workloads)]
            del ops, results
            gc.collect()
            rep += 1
            if rep <= RSS_REPS:
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            elapsed = time.perf_counter() - begin
            enough = attempted >= MIN_OPS and (not trace or rep >= 2)
            if enough and elapsed + (time.perf_counter() - rep_start) > seconds:
                break
    return {
        "peak_rss_kb": peak_rss_kb,
        "walls": walls,
        "setups": setups,
        "latencies": latencies,
        "failures": failures,
        "attempted": attempted,
        "layers": layers,
        "spans": kept_spans,
        "reps": rep,
    }


def end_to_end(m: dict, import_s: float) -> dict[str, float]:
    lat_ms = [ns / 1e6 for ns in m["latencies"]]
    return {
        "wall_s": statistics.median(m["walls"][False]) / 1e9,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "setup_s": import_s + statistics.median(m["setups"]),
        "peak_rss_mb": m["peak_rss_kb"] / 1024,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tracing.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    stick = Yardstick()
    try:
        import_s = import_program(stick)
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    info = machine_info(args.workload, args.seed)
    m = measure(args.workload, args.seed, args.seconds, bool(args.trace), stick)
    failed = len(m["failures"])  # labels are unique within a repetition
    for rep, label, f in m["failures"][:10]:
        kind = "WRONG" if f.silent else "failed"
        print(f"{kind}: workload={args.workload} seed={args.seed} rep={rep} op={label}: {f.message}", file=sys.stderr)
    units = dict(END_TO_END)
    if args.trace:
        values = tracing.median_metrics(m["layers"])
        values["trace.overhead_ratio"] = (
            statistics.median(m["walls"][True]) / statistics.median(m["walls"][False]) - 1
        )
        units = {name: unit for name, unit, _b, _nz in tracing.PER_LAYER}
        TRACE_DIR.mkdir(exist_ok=True)
        tracing.write_jsonl(TRACE_DIR / f"{args.workload}.jsonl", info, m["spans"])
        gaps = tracing.coverage_gaps(args.workload, values)
        if gaps:
            print(f"perfbench: trace coverage check failed, zero on {args.workload}: {gaps}", file=sys.stderr)
            return 1
    else:
        values = end_to_end(m, import_s)
    print("machine " + json.dumps(info, sort_keys=True))
    print(f"reps {m['reps']}  ops {m['attempted']}  failed {failed}")
    for name, value in values.items():
        print(f"{name:40s} {value:14.6f} {units[name]}")
    print(f"{'fail_ratio':40s} {failed / m['attempted']:14.6f} 1")
    print(f"{'yardstick_ms':40s} {statistics.median(stick.samples) * 1e3:14.6f} ms")
    result = {
        "correct": not any(f.silent for _rep, _label, f in m["failures"]),
        "attempted": m["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
