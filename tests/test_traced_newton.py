"""The benchmark's Newton tracer still reads newton_refine's one-lane view.

perfbench/tracing.py wraps `solver.newton_refine` in a span and counts the
calls of the map it is given as `solver.newton.evals`, with the returned
iterations as `solver.newton.iters`.  newton_refine runs on the lane
kernel's window, so one pass calls the map once for each trial step it
sends; the counter must see every one of those rows.
"""

from pathlib import Path

import numpy as np

from heun_racah import solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_newton_refine_counts_every_row(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    def run():
        rows = []

        def fj(x):  # Newton on tanh from 2.5 halves its first steps
            rows.append(complex(x[0]))
            return np.tanh(x), [[1 / np.cosh(x[0]) ** 2]]
        return solver.newton_refine(fj, np.array([2.5 + 0j])), rows

    (x, ok, its), rows = run()
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        (x1, ok1, its1), traced_rows = run()
    assert np.array_equal(x, x1) and (ok, its) == (ok1, its1) and rows == traced_rows
    spans = tracer.spans()["name"]
    assert np.count_nonzero(spans == tracer.name_id("solver.newton_refine")) == 1
    counts = tracer.counters[tracing.SETUP_OP]
    assert ok and counts["solver.newton.iters"] == its
    assert counts["solver.newton.converged"] == 1
    # every row of every window is an evaluation, beyond one per iteration
    assert counts["solver.newton.evals"] == len(rows) > its + 1
