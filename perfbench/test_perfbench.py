"""Tests of the benchmark itself: failure counting, determinism, wrapper hygiene.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import yardstick

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (needs depthbench importable)
from depthbench import do1, meters, s5  # noqa: E402


def run_and_verify(ops):
    _wall, _lats, results, raised = run.run_rep(ops)
    return run.verify(ops, results, raised, workloads)


def test_corrupted_solver_result_is_counted_as_failed(monkeypatch, tmp_path):
    ops = [op for op in workloads.build_scale(0, 0, tmp_path) if op.label.startswith("fold_")]
    assert run_and_verify(ops) == []

    honest = s5.fold_tree

    def wrong_product(word, meter=None):
        return s5.compose((1, 0, 2, 3, 4), honest(word, meter))

    monkeypatch.setattr(s5, "fold_tree", wrong_product)
    failures = run_and_verify(ops)
    assert {label for label, _f in failures} == {f"fold_tree/{n}" for n in workloads.SCALE_WORDS}
    assert all(f.silent for _label, f in failures)


def test_refused_cli_input_is_a_reported_failure(tmp_path):
    (item2,) = [op for op in workloads.build_probe(0, 0, tmp_path) if op.label.endswith("item2")]
    failures = run_and_verify([item2])
    assert len(failures) == 1
    label, failure = failures[0]
    assert not failure.silent and "exit 1" in failure.message


def test_raising_op_is_a_reported_failure():
    def boom(_results):
        raise ValueError("refused")

    op = workloads.Op("boom", boom, lambda _r, _all: None)
    ((label, failure),) = run_and_verify([op])
    assert label == "boom" and not failure.silent and "refused" in failure.message


def test_same_seed_same_ops_and_meter_digest(tmp_path):
    first = workloads.build_sweep(7, 1, tmp_path)
    second = workloads.build_sweep(7, 1, tmp_path)
    seeds = [op.run.__defaults__[0].seed for op in first[:-1]]
    assert seeds == [op.run.__defaults__[0].seed for op in second[:-1]]
    assert [op.label for op in first] == [op.label for op in second]
    other = workloads.build_sweep(7, 2, tmp_path)
    assert seeds != [op.run.__defaults__[0].seed for op in other[:-1]]

    digests = []
    for ops in (first, second):
        _wall, _lats, results, raised = run.run_rep(ops)
        assert not raised and run.verify(ops, results, raised, workloads) == []
        digests.append(workloads.meter_digest(results["csv-roundtrip"][0]))
    assert digests[0] == digests[1]


def test_default_seed_uses_shipped_suite_and_matches_recorded_digest(tmp_path):
    ops = workloads.build_sweep(workloads.DEFAULT_SEED, 0, tmp_path)
    _wall, _lats, results, raised = run.run_rep(ops)
    assert run.verify(ops, results, raised, workloads) == []
    assert workloads.meter_digest(results["csv-roundtrip"][0]) == workloads.SWEEP_DIGEST


def _bindings():
    modules = [sys.modules[f"depthbench.{m}"] for m in tracing.MODULES]
    owners = modules + [meters.CostMeter, do1.CircuitConfig]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def test_traced_rep_restores_every_wrapped_attribute_and_covers_sweep(tmp_path):
    before = _bindings()
    tracer = tracing.Tracer(1)
    tracer.install()
    patched = len(tracer._patches)
    try:
        ops = workloads.build_sweep(3, 1, tmp_path)
        run.run_rep(ops, tracer)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[key] is after[key] for key in before)
    # eval_serial alone is bound in circuits, do1 and bench
    assert patched > len(tracing.TARGETS)
    metrics = tracing.layer_metrics(tracing.reduce_spans(tracer.spans))
    assert tracing.coverage_gaps("sweep", metrics) == []
    assert metrics["do1.probes"] > 0 and metrics["bench.run_case.self_ms"] > 0


def test_coverage_check_flags_a_missed_namespace():
    metrics = {name: 1.0 for name, *_ in tracing.PER_LAYER}
    metrics["cli.main.calls"] = 0
    assert tracing.coverage_gaps("probe", metrics) == ["cli.main.calls"]
    assert tracing.coverage_gaps("sweep", metrics) == []


def test_self_time_subtracts_direct_children():
    spans = [
        ("outer", 0, 100, -1, "0:0", None),
        ("inner", 10, 40, 0, "0:0", None),
        ("leaf", 20, 30, 1, "0:0", {"n": 2}),
    ]
    stats = tracing.reduce_spans(spans)
    assert stats["outer"]["self_ns"] == 70
    assert stats["inner"]["self_ns"] == 20
    assert stats["leaf"] == {"calls": 1, "self_ns": 10, "n": 2}


def test_benchmark_json_names_what_the_run_prints():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(tracing.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, unit, better, _nonzero in tracing.PER_LAYER
    ]


def test_each_op_is_scaled_by_the_yardstick_samples_around_it(monkeypatch):
    class Stub(yardstick.Yardstick):
        """Samples read 1, 2, 4, 8 times the nominal time; one is due before every op."""

        def __init__(self):
            super().__init__(warmup=0)
            self._next = iter([1, 2, 4, 8])

        def _time(self):
            return next(self._next) * yardstick.REF_NOMINAL_S

        def due(self):
            return True

    ticks = iter(range(0, 10**6, 1000))
    monkeypatch.setattr(run.time, "perf_counter_ns", lambda: next(ticks))
    ops = [workloads.Op(f"op{i}", lambda _r: None, lambda _r, _all: None) for i in range(2)]
    wall, lats, _results, _raised = run.run_rep(ops, stick=Stub())
    # op0 lies between samples 2 and 4 (times nominal), op1 between 4 and 8
    assert lats == [pytest.approx(1000 / 3), pytest.approx(1000 / 6)]
    assert wall == pytest.approx(500)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
