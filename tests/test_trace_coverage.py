"""The benchmark's traced workloads still reach every layer they are meant to measure.

``perfbench/run.py --trace 1`` exits 1 when a per-layer metric that
``tracing.PER_LAYER`` expects nonzero on a workload reads 0, which happens
when a function in ``tracing.TARGETS`` is renamed, removed or no longer
called there.  One traced repetition per workload catches that here.
``sweep`` is covered by ``perfbench/test_perfbench.py``.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["probe", "ca-compile", "scale"])
def test_one_traced_repetition_covers_every_layer(workload, tmp_path):
    tracer = tracing.Tracer(1)
    tracer.install()
    try:
        ops = workloads.BUILDERS[workload](0, 1, tmp_path)
        _wall, _lats, _results, raised = run.run_rep(ops, tracer)
    finally:
        tracer.uninstall()
    assert raised == {}
    metrics = tracing.layer_metrics(tracing.reduce_spans(tracer.spans))
    assert tracing.coverage_gaps(workload, metrics) == []
