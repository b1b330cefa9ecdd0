"""Spans around depthbench's public functions, recorded from outside the package.

A traced repetition wraps each function in ``TARGETS`` in *every* namespace
that binds it: ``do1`` and ``bench`` import circuit functions by name, so
patching only the home module would silently miss their calls.  A span
holds (name, start_ns, end_ns, parent index, op id, counts); spans stay in
memory until their repetition ends, and ``write_jsonl`` stores one
repetition's spans when the run ends (a traced ``ca-compile`` repetition
alone records ~230k ``automata.step`` spans, so keeping every repetition
would cost hundreds of MB).  ``reduce_spans``
turns one repetition's spans into per-function calls, self time (duration
minus the time covered by child spans) and summed counts, and
``layer_metrics`` names them as in ``PER_LAYER``.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from typing import Any, Callable

PACKAGE = "depthbench"
MODULES = ("meters", "circuits", "netlist", "automata", "s5", "do1", "derand", "bench", "cli")


def _compile_counts(bound: inspect.BoundArguments, result: Any) -> dict:
    k = bound.arguments["k"]
    entries = 1 << (2 * k + 1)
    return {"cell_updates": k * (2 * k + 1) * entries, "table_entries": entries}


def _search_counts(bound: inspect.BoundArguments, result: Any) -> dict:
    n, vocab = bound.arguments["n"], bound.arguments["vocab_size"]
    return {
        "decider_calls": result.attempts * vocab**n * result.k,
        "attempts": result.attempts,
        "found": int(result.success),
    }


# (span name, module, attribute path, counts hook).  ``do1.value_fn`` is the
# exact value function under every oracle handed to extraction, so its
# calls are the probes.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("automata.compile_steps", "automata", "compile_steps", _compile_counts),
    ("automata.step", "automata", "step", None),
    ("automata.step_compiled", "automata", "step_compiled", None),
    ("automata.evolve", "automata", "evolve", None),
    ("do1.extract_depth_of_one", "do1", "extract_depth_of_one", None),
    ("do1.value_fn", "do1", "optimal_value", None),
    ("do1.env_step", "do1", "env_step", None),
    ("do1.depth_of_one", "do1", "depth_of_one", None),
    ("do1.CircuitConfig", "do1", "CircuitConfig.__init__", None),
    ("do1.random_alt_config", "do1", "random_alt_config", None),
    ("circuits.eval_serial", "circuits", "eval_serial", None),
    ("circuits.eval_layered", "circuits", "eval_layered", None),
    ("circuits.gate_depths", "circuits", "gate_depths", None),
    ("circuits.validate", "circuits", "validate", None),
    ("circuits.random_circuit", "circuits", "random_circuit", None),
    ("netlist.parse_netlist", "netlist", "parse_netlist", None),
    ("netlist.format_netlist", "netlist", "format_netlist", None),
    ("s5.fold_serial", "s5", "fold_serial", None),
    ("s5.fold_tree", "s5", "fold_tree", None),
    ("s5.random_word", "s5", "random_word", None),
    ("derand.find_universal_seeds", "derand", "find_universal_seeds", _search_counts),
    ("derand.count_bundle_errors", "derand", "count_bundle_errors", None),
    ("meters.charge", "meters", "CostMeter.charge", None),
    ("bench.run_case", "bench", "run_case", None),
    ("bench.emit_csv", "bench", "emit_csv", None),
    ("bench.parse_csv", "bench", "parse_csv", None),
    ("bench.emit_report", "bench", "emit_report", None),
    ("cli.main", "cli", "main", None),
)

WORKLOADS = ("sweep", "probe", "ca-compile", "scale")
_ALL = frozenset(WORKLOADS)
_CA = frozenset({"sweep", "ca-compile", "scale"})
_DO1 = frozenset({"sweep", "probe"})
_EVAL = frozenset({"sweep", "probe", "scale"})
_SCALE = frozenset({"sweep", "scale"})
_CLI = frozenset({"probe", "ca-compile"})
_NETLIST = frozenset({"probe", "scale"})

# (metric, unit, better, workloads on which the traced run must read it nonzero)
PER_LAYER: tuple[tuple[str, str, str, frozenset], ...] = (
    ("automata.compile_steps.calls", "count", "lower", _CA),
    ("automata.compile_steps.self_ms", "ms", "lower", _CA),
    ("automata.compile_steps.cell_updates", "count", "lower", _CA),
    ("automata.table_entries_built", "count", "lower", _CA),
    ("automata.step.calls", "count", "lower", _CA),
    ("automata.step.self_ms", "ms", "lower", _CA),
    ("automata.step_compiled.calls", "count", "lower", _CA),
    ("automata.step_compiled.self_ms", "ms", "lower", _CA),
    ("automata.evolve.self_ms", "ms", "lower", _CA),
    ("do1.extract_depth_of_one.calls", "count", "lower", _DO1),
    ("do1.extract_depth_of_one.self_ms", "ms", "lower", _DO1),
    ("do1.probes", "count", "lower", _DO1),
    ("do1.value_fn.self_ms", "ms", "lower", _DO1),
    ("do1.probe_us", "us", "lower", _DO1),
    ("do1.env_step.calls", "count", "lower", _DO1),
    ("do1.env_step.self_ms", "ms", "lower", _DO1),
    ("do1.depth_of_one.self_ms", "ms", "lower", _DO1),
    ("do1.CircuitConfig.self_ms", "ms", "lower", _DO1),
    ("do1.random_alt_config.self_ms", "ms", "lower", _DO1),
    ("circuits.eval_serial.calls", "count", "lower", _EVAL),
    ("circuits.eval_serial.self_ms", "ms", "lower", _EVAL),
    ("circuits.eval_layered.self_ms", "ms", "lower", _SCALE),
    ("circuits.gate_depths.calls", "count", "lower", _EVAL),
    ("circuits.gate_depths.self_ms", "ms", "lower", _EVAL),
    ("circuits.gate_depths.per_eval", "ratio", "lower", _EVAL),
    ("circuits.validate.self_ms", "ms", "lower", _EVAL),
    ("circuits.random_circuit.self_ms", "ms", "lower", _SCALE),
    ("netlist.parse_netlist.self_ms", "ms", "lower", _NETLIST),
    ("netlist.format_netlist.self_ms", "ms", "lower", _NETLIST),
    ("s5.fold_serial.self_ms", "ms", "lower", _SCALE),
    ("s5.fold_tree.self_ms", "ms", "lower", _SCALE),
    ("s5.random_word.self_ms", "ms", "lower", _SCALE),
    ("derand.find_universal_seeds.self_ms", "ms", "lower", _SCALE),
    ("derand.count_bundle_errors.self_ms", "ms", "lower", _SCALE),
    ("derand.decider_calls", "count", "lower", _SCALE),
    ("derand.attempt_success_ratio", "ratio", "higher", _SCALE),
    ("meters.charge.calls", "count", "lower", _ALL),
    ("meters.charge.self_ms", "ms", "lower", _ALL),
    ("bench.run_case.self_ms", "ms", "lower", frozenset({"sweep"})),
    ("bench.emit_csv.self_ms", "ms", "lower", frozenset({"sweep"})),
    ("bench.parse_csv.self_ms", "ms", "lower", frozenset({"sweep"})),
    ("bench.emit_report.self_ms", "ms", "lower", frozenset({"sweep"})),
    ("cli.main.calls", "count", "lower", _CLI),
    ("cli.main.self_ms", "ms", "lower", _CLI),
    ("trace.overhead_ratio", "ratio", "lower", frozenset()),
)


def _resolve(owner: Any, path: str) -> tuple[Any, str]:
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records a span per wrapped call between ``install`` and ``uninstall``."""

    def __init__(self, rep: int) -> None:
        self.rep = rep
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack = self.spans, self.stack
        signature = inspect.signature(fn) if count is not None else None
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, None)
            if count is not None:
                spans[idx] = (name, start, end, parent, self.op, count(signature.bind(*args, **kwargs), result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a depthbench module or class binds it."""
        modules = [sys.modules[f"{PACKAGE}.{m}"] for m in MODULES]
        for name, module, path, count in TARGETS:
            owner, attr = _resolve(sys.modules[f"{PACKAGE}.{module}"], path)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, count)
            owners = [owner] + [m for m in modules if m is not owner]
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, key, original))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)


def reduce_spans(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, self_ns (duration minus direct children) and summed counts."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _op, _counts in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict[str, dict] = {}
    for idx, (name, start, end, _parent, _op, counts) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["self_ns"] += end - start - child_ns[idx]
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return stats


def _get(stats: dict, name: str, key: str) -> float:
    return stats.get(name, {}).get(key, 0)


def layer_metrics(stats: dict[str, dict]) -> dict[str, float]:
    """One repetition's per-layer metrics, in ``PER_LAYER`` order, without ``trace.overhead_ratio``."""
    probes = _get(stats, "do1.value_fn", "calls")
    evals = _get(stats, "circuits.eval_serial", "calls") + _get(stats, "circuits.eval_layered", "calls")
    attempts = _get(stats, "derand.find_universal_seeds", "attempts")
    computed = {
        "automata.compile_steps.cell_updates": _get(stats, "automata.compile_steps", "cell_updates"),
        "automata.table_entries_built": _get(stats, "automata.compile_steps", "table_entries"),
        "do1.probes": probes,
        "do1.probe_us": _get(stats, "do1.value_fn", "self_ns") / 1e3 / probes if probes else 0.0,
        "circuits.gate_depths.per_eval": _get(stats, "circuits.gate_depths", "calls") / evals if evals else 0.0,
        "derand.decider_calls": _get(stats, "derand.find_universal_seeds", "decider_calls"),
        "derand.attempt_success_ratio": (
            _get(stats, "derand.find_universal_seeds", "found") / attempts if attempts else 0.0
        ),
    }
    out: dict[str, float] = {}
    for metric, _unit, _better, _nonzero in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        if metric in computed:
            out[metric] = computed[metric]
        elif stat == "calls":
            out[metric] = _get(stats, span, "calls")
        elif stat == "self_ms":
            out[metric] = _get(stats, span, "self_ns") / 1e6
    return out


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(rep[name] for rep in per_rep) for name in per_rep[0]}


def coverage_gaps(workload: str, metrics: dict[str, float]) -> list[str]:
    """Metrics expected nonzero on ``workload`` that read zero: a missed namespace."""
    return [m for m, _u, _b, nonzero in PER_LAYER if workload in nonzero and not metrics.get(m)]


def write_jsonl(path, header: dict, spans: list[tuple]) -> None:
    """Header line, then one JSON array per span: name, start, end, parent, op, counts."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for name, start, end, parent, op, counts in spans:
            fh.write(f'["{name}",{start},{end},{parent},"{op}",{json.dumps(counts) if counts else "null"}]\n')
