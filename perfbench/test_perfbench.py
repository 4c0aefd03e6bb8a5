"""Self-tests for the benchmark's own arithmetic and output check.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import heun_racah as hr  # noqa: E402
import heun_racah.serialize  # noqa: E402,F401  (report_json uses hr.serialize)
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import CRITERION_8, WORKLOADS, Checked, check_catalog  # noqa: E402


def test_p50_is_geometric_mean_of_per_size_medians():
    times = [1.0, 2.0, 9.0, 3.0, 4.0, 5.0, 2.0, 8.0, 1.0]
    assert stats.p50(times) == 3.0
    # sizes rotate: slot medians are median(1,3,2)=2, median(2,4,8)=4, median(9,5,1)=5
    assert stats.p50(times, 3) == pytest.approx((2 * 4 * 5) ** (1 / 3))


def test_tail_has_ten_samples_beyond():
    times = [float(t) for t in range(100, 0, -1)]
    assert stats.tail(times, 90) == 90.0  # 91..100 lie beyond
    assert stats.tail(times[:30], 50) == 85.0  # 71..100: median 85, 15 beyond
    with pytest.raises(ValueError):
        stats.tail(times, 95)  # only 5 beyond
    with pytest.raises(ValueError):
        stats.tail([1.0] * 5 + [2.0] * 20, 50)  # ties: nothing lies beyond


def test_min_ops_leaves_ten_beyond():
    for q in (50, 75, 95):
        n = stats.min_ops(q)
        stats.tail([float(t) for t in range(n)], q)
        with pytest.raises(ValueError):
            stats.tail([float(t) for t in range(n - 1)], q)
    assert (stats.min_ops(50), stats.min_ops(75), stats.min_ops(95)) == (20, 40, 200)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_with_nested_spans():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    a = tracer.begin(tracer.name_id("a"))
    b = tracer.begin(tracer.name_id("b"))
    c = tracer.begin(tracer.name_id("c"))
    tracer.finish(c)
    tracer.finish(b)
    d = tracer.begin(tracer.name_id("d"))
    tracer.finish(d)
    tracer.finish(a)
    sp = tracer.spans()
    assert list(sp["parent"]) == [-1, a, b, a]
    own = tracing.self_times(sp["parent"], sp["end"] - sp["start"])
    assert list(own) == [3.0, 2.0, 1.0, 4.0]


def test_fail_count_counts_errors_and_failed_checks():
    problems = [(), ("SolverFailure: no state",), (), ("state 0: residual",)]
    assert stats.failed(problems) == 2


def test_vacuous_maba_sweep_is_a_failed_op():
    # At N = 40 every MABA_REDUCTION residual overflows to NaN, which
    # verify_relation's `res > worst` drops: it reports 0.0 and no worst tuple.
    rp = hr.build_params(40, CRITERION_8["beta"], CRITERION_8["gamma"],
                         CRITERION_8["delta"])
    ctx = hr.DynContext(rep=hr.build_representation(rp), rho=CRITERION_8["rho"])
    with np.errstate(all="ignore"):
        report = hr.verify_relation(hr.RelationId.MABA_REDUCTION, ctx,
                                    samples=20, seed=0)
    assert report.max_residual == 0.0 and report.worst_tuple is None
    checked = check_catalog(hr, [report])
    assert checked.problems and checked.certified == 0
    assert stats.failed([(), checked.problems]) == 1


def test_catalog_pass_is_checked_clean():
    wl = WORKLOADS["verify-catalog"]
    ctx = wl.setup(hr)
    checked = wl.check(hr, ctx, 0, wl.run(hr, ctx, 0, seed=0))
    assert checked == Checked(certified=12, coverage=1.0, problems=())


def test_tracing_replaces_directly_imported_names_and_restores_them():
    import heun_racah.dynamical as dynamical
    import heun_racah.solver as solver
    originals = (solver.bethe_vector, solver.dense_spectrum,
                 solver.build_W_parametric, dynamical.draw_until)
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        patched = (solver.bethe_vector, solver.dense_spectrum,
                   solver.build_W_parametric, dynamical.draw_until)
        assert all(p is not o for p, o in zip(patched, originals))
    assert (solver.bethe_vector, solver.dense_spectrum,
            solver.build_W_parametric, dynamical.draw_until) == originals


def test_traced_solve_matches_untraced_and_counts_layers():
    wl = WORKLOADS["solve-inhom"]
    problems = wl.setup(hr)
    plain = wl.report_json(hr, wl.run(hr, problems, 0, seed=0))
    tracer = tracing.Tracer()
    tracer.set_op(0)
    with tracing.Instrumentation(tracer):
        traced = wl.report_json(hr, wl.run(hr, problems, 0, seed=0))
    assert traced == plain
    m = tracing.layer_metrics(tracer, [0], [r.value for r in hr.RelationId])
    assert m["solver.newton_refine.calls"][0] == 64
    assert m["solver.newton.evals_per_start"][0] > m["solver.newton.iters_per_start"][0]
    assert m["bethe.inhomogeneous_residuals.calls"][0] > 0
    assert m["bethe.vacuum_coeffs.calls"][0] > 0
    assert 0 < m["solver.solve.self_s"][0] < m["bethe.inhomogeneous_residuals.s"][0]
