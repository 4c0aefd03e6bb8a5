from collections import Counter

import numpy as np
import pytest

from heun_racah import bethe, sampling, solver
from heun_racah.bethe import HOMOGENEOUS, INHOMOGENEOUS, BetheSystem
from heun_racah.core import dense_spectrum
from heun_racah.errors import ModeError, ParameterDomainError, SolverFailure
from heun_racah.heun import build_heun_params, build_W_parametric
from heun_racah.racah import DynContext, build_params, build_representation
from heun_racah.sampling import REJECT_MARGIN, within_margin
from heun_racah.serialize import dump_json
from heun_racah.solver import (COND_LIMIT, DEFLATION_TOL, MAX_HALVINGS, MAX_ITER, NEWTON_TOL,
                               WINDOW, SolveReport, SolverConfig, _certify, _is_duplicate, _solve,
                               newton_lanes, newton_refine, seed_starts, solve_homogeneous,
                               solve_inhomogeneous)

import reference_kernel
from conftest import finite_difference_map
from test_kernel import lane_view, reference_closed_form


def homogeneous_setup(N=1, rho=2 / 7, beta=5):
    rp = build_params(N, beta, 1, 2)
    ctx = DynContext(rep=build_representation(rp), rho=rho)
    hp = build_heun_params(rho, 0, 3, rp)
    return rp, ctx, hp


def generic_setup(N):
    rp = build_params(N, 2.2 + 0.4j, 1.3, 0.8)
    ctx = DynContext(rep=build_representation(rp), rho=1.7)
    hp = build_heun_params(1.7, 0.9, 2.6, rp)
    return rp, ctx, hp


class TestNewtonRefine:
    def test_linear_exact_jacobian_single_step(self):
        x, ok, its = newton_refine(lambda x: (2 * x - 4, [[2.0]]), np.array([10.0 + 0j]))
        assert ok and its == 1
        np.testing.assert_allclose(x, [2.0], atol=1e-12)

    def test_linear_fd_jacobian(self):
        x, ok, its = newton_refine(finite_difference_map(lambda x: 2 * x - 4),
                                   np.array([10.0 + 0j]))
        assert ok and its <= 2
        np.testing.assert_allclose(x, [2.0], atol=1e-10)

    def test_classic_square_root(self):
        x, ok, its = newton_refine(finite_difference_map(lambda x: x * x - 4),
                                   np.array([3.0 + 0j]))
        assert ok and its <= 6
        np.testing.assert_allclose(x, [2.0], atol=1e-10)

    def test_pole_start_abandoned(self):
        def fj(x):
            raise ParameterDomainError("pole")
        x, ok, its = newton_refine(fj, np.array([1.0 + 0j]))
        assert not ok and its == 0

    def test_singular_jacobian_abandoned(self):
        _, ok, _ = newton_refine(finite_difference_map(lambda x: np.array([x[0] * 0 + 1.0])),
                                 np.array([1.0 + 0j]))
        assert not ok

    def test_jacobian_comes_from_the_same_pass(self):
        # one map evaluation per row: the start, then the one pass of WINDOW
        # trial steps, whose first row (the full step) is accepted with its J
        points = []

        def fj(x):
            points.append(x.copy())
            return 2 * x - 4, [[2.0]]
        x, ok, its = newton_refine(fj, np.array([10.0 + 0j]))
        assert ok and its == 1 and len(points) == 1 + WINDOW
        assert np.array_equal(x, points[1])

    def test_nan_after_a_finite_component_is_a_pole(self):
        # max() of [1.0, nan] is 1.0, so the NaN must be seen before the norm
        x, ok, its = newton_refine(lambda x: ([1.0 + 0j, complex("nan")], np.eye(2)),
                                   np.array([1.0 + 0j, 2.0 + 0j]))
        assert not ok and its == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("J", [[[0.0]], [[0.0, 0.0], [0.0, 1.0]]])
    def test_exactly_singular_jacobian_abandoned_without_warning(self, J):
        x0 = np.ones(len(J), dtype=complex)
        x, ok, its = newton_refine(lambda x: (np.ones(len(J), dtype=complex), J), x0)
        assert not ok and its == 0
        assert np.array_equal(x, x0)

    def test_svd_that_fails_abandons_the_start(self, monkeypatch):
        # an inverse that fails leaves the lane to the SVD, and an SVD that
        # fails then abandons it; with the SVD alone working, it decides
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")
        monkeypatch.setattr(np.linalg, "inv", failing)
        _, ok, its = newton_refine(lambda x: (2 * x - 4, [[2.0]]), np.array([10.0 + 0j]))
        assert ok and its == 1
        monkeypatch.setattr(np.linalg, "svd", failing)
        _, ok, its = newton_refine(lambda x: (2 * x - 4, [[2.0]]), np.array([10.0 + 0j]))
        assert not ok and its == 0

    def test_a_step_that_keeps_the_norm_is_never_accepted(self):
        # ||F|| stays 1 along every step, so no trial lowers it strictly: the
        # start is abandoned after the start point and the 30 trial steps
        points = []

        def fj(x):
            points.append(complex(x[0]))
            return [1.0 + 0j], [[1.0]]
        x, ok, its = newton_refine(fj, np.array([0.0 + 0j]))
        assert not ok and its == 0 and x[0] == 0
        assert points == [0.0] + [-(0.5 ** k) for k in range(MAX_HALVINGS)]

    def test_line_search_resumes_two_halvings_above_the_last_step(self):
        # Newton on tanh from 2.5 first accepts the step 1/8, so the next
        # iteration starts at 1/2; the full-step search starts at 1 again
        passes, points_ref = [], []

        def fj(X, _lanes):
            passes.append(X[:, 0].tolist())
            return np.tanh(X), (1 / np.cosh(X) ** 2)[:, :, None], np.zeros(len(X), bool)

        def fj_ref(x):
            points_ref.append(complex(x[0]))
            return np.tanh(x), [[1 / np.cosh(x[0]) ** 2]]
        [(_, x, ok, _)] = newton_lanes(fj, [[2.5 + 0j]])
        x_ref, ok_ref, _ = reference_newton_refine(fj_ref, np.array([2.5 + 0j]))
        # (first trial step, accepted step) of each iteration; the step is
        # delta = -tanh(x) cosh(x)^2 = -sinh(2x) / 2 from the iterate x.  A
        # pass sends the window's steps in order, and the first that lowers
        # |tanh| is accepted; the rows after it are never looked at
        steps, (x_k,), first = [], passes[0], None
        for rows in passes[1:]:
            for p in rows:
                t = 2.0 ** round(np.log2(((p - x_k) / (-np.sinh(2 * x_k) / 2)).real))
                first = first or t
                if abs(np.tanh(p)) < abs(np.tanh(x_k)):
                    steps.append((first, t))
                    x_k, first = p, None
                    break
        assert steps[0] == (1.0, 0.125)
        for (_, accepted), (first, _) in zip(steps, steps[1:]):
            assert first == min(1.0, 4 * accepted)
        assert ok and ok_ref and abs(x[0] - x_ref[0]) < 1e-11
        assert len(passes) < len(points_ref)


def reference_newton_refine(fj, x0):
    """newton_refine as it was before its line search resumed near the last
    accepted step: every iteration backtracks from the full step (and takes
    norms and the condition number the older way).  The oracle whose
    certified states and evaluation count the resumed search is held to."""
    def try_eval(x):
        try:
            F, J = fj(x)
            F = np.asarray(F, dtype=np.complex128)
        except (ParameterDomainError, ZeroDivisionError, FloatingPointError, OverflowError):
            return None
        if not np.all(np.isfinite(F)):
            return None
        return F, np.asarray(J, dtype=np.complex128).reshape(x.size, x.size)

    x = np.asarray(x0, dtype=np.complex128).copy()
    n = x.size
    out = try_eval(x)
    if out is None:
        return x, False, 0
    fx, J = out
    scale = 1.0 + float(np.max(np.abs(fx))) if n else 1.0
    for it in range(MAX_ITER):
        if n == 0 or np.max(np.abs(fx)) <= NEWTON_TOL * scale:
            return x, True, it
        if not np.all(np.isfinite(J)) or np.linalg.cond(J) > COND_LIMIT:
            return x, False, it
        try:
            delta = np.linalg.solve(J, -fx)
        except np.linalg.LinAlgError:
            return x, False, it
        t = 1.0
        best = float(np.max(np.abs(fx)))
        for _ in range(MAX_HALVINGS):
            xt = x + t * delta
            out = try_eval(xt)
            if out is not None and float(np.max(np.abs(out[0]))) < best:
                x, (fx, J) = xt, out
                break
            t *= 0.5
        else:
            return x, False, it
    return x, bool(np.max(np.abs(fx)) <= NEWTON_TOL * scale), MAX_ITER


def one_step_refine(fj, x0):
    """newton_refine's resumed search with one trial step a call: the plain
    kernel of tests/reference_kernel.py at trials=1 on one lane, fj called
    once per row; a map that raises a pole error has met a pole."""
    n = len(x0)

    def rows(X, _lanes):
        F = np.zeros((len(X), n), dtype=np.complex128)
        J = np.zeros((len(X), n, n), dtype=np.complex128)
        pole = np.zeros(len(X), dtype=bool)
        for i, x in enumerate(X):
            try:
                F[i], J[i] = fj(x)
            except ParameterDomainError:
                pole[i] = True
        return F, J, pole
    [(_, x, ok, its)] = reference_kernel.newton_lanes(rows, [x0], trials=1)
    return x, ok, its


def scaled_reference_map(system, scales):
    """The scalar reference_closed_form with row r scaled by 1 / scales[r],
    as a solve scales each lane's rows."""
    norms = [1.0 / s for s in scales]

    def fj(x):
        F, J = reference_closed_form(system, x)
        return ([v * n for v, n in zip(F, norms)],
                [[v * n for v in row] for row, n in zip(J, norms)])
    return fj


def scalar_newton(system, x, scales, _first, refine=reference_newton_refine):
    """(index, roots, converged, iterations) of each start that kept the
    margin, in start order, the index counting those starts: one scalar
    Newton per start on the scalar closed form."""
    for index, (start, row) in enumerate(zip(x.tolist(), scales.tolist())):
        yield index, *refine(scaled_reference_map(system, row), start)


def reference_solve(system, cfg, newton=scalar_newton):
    """solver._solve without its stop at p + 1 matched eigenvalues: every
    lane runs and is certified in the order newton(system, starts) hands
    it over.  By default that is the full-step scalar search in start
    order; with solver._lanes it is a full run of the solve's own lane
    kernel, in the order its lanes finish.  newton takes seed_starts'
    (x, scales, first)."""
    W = build_W_parametric(system.hp, system.ctx)
    W_fro = float(np.linalg.norm(W))
    oracle = dense_spectrum(W).eigenvalues

    certified = []
    x, scales, first, rejected = seed_starts(system, cfg)
    rejects = Counter({"pole_margin": rejected} if rejected else {})
    attempts, converged = rejected, 0
    for _index, roots, ok, _its in newton(system, x, scales, first):
        attempts += 1
        if not ok:
            rejects["newton"] += 1
            continue
        converged += 1
        if _is_duplicate(roots, (state for state, _, _ in certified)):
            continue
        entry, reason = _certify(list(roots), system, cfg.seed, W, W_fro, oracle)
        if entry is None:
            rejects[reason] += 1
            continue
        certified.append(entry)

    certified.sort(key=lambda c: (c[0].eigenvalue.real, c[0].eigenvalue.imag,
                                  tuple((x.real, x.imag) for x in c[0].roots)))
    matched = np.zeros(len(oracle), dtype=bool)
    matched[[idx for _, idx, _ in certified]] = True
    return SolveReport(mode=system.mode, states=[state for state, _, _ in certified],
                       attempts=attempts, converged=converged, oracle=oracle,
                       matched=matched,
                       ambiguous_matches=[state.eigenvalue for state, _, amb in certified
                                          if amb],
                       seed=cfg.seed, p_bar=system.p_bar,
                       diagnostics={"rejected": dict(rejects)} if rejects else {})


def counted_closed_form(monkeypatch):
    """A Counter whose "rows" counts the root sets passed to the stacked
    closed form, and "passes" its calls."""
    counts = Counter()
    stacked = BetheSystem.closed_form

    def counting(self, roots, **kwargs):
        counts["rows"] += len(roots)
        counts["passes"] += 1
        return stacked(self, roots, **kwargs)
    monkeypatch.setattr(BetheSystem, "closed_form", counting)
    return counts


class TestNewtonMatchesReference:
    """The lane kernel, whose line search resumes near its last accepted
    step, certifies the states the scalar full-step search certifies from
    every start, with fewer map evaluations."""

    @staticmethod
    def assert_same_states(report, reference):
        assert np.array_equal(report.oracle, reference.oracle)
        assert np.array_equal(report.matched, reference.matched)
        left = list(reference.states)
        for state in report.states:
            same = [k for k, ref in enumerate(left)
                    if abs(state.eigenvalue - ref.eigenvalue)
                    <= solver.MATCH_TOL * max(1.0, abs(ref.eigenvalue))
                    and _is_duplicate(state.roots, [ref])]
            assert same, f"no reference state matches {state.eigenvalue}"
            del left[same[0]]
        assert not left and report.states  # not vacuous

    def assert_outcomes(self, system, cfg):
        self.assert_same_states(_solve(system, cfg), reference_solve(system, cfg))

    @pytest.mark.parametrize("seed", [0, 2])
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_criterion_8_starts(self, N, seed):
        rp, ctx, hp = generic_setup(N)
        self.assert_outcomes(BetheSystem(hp, ctx, INHOMOGENEOUS),
                             SolverConfig(starts=64, seed=seed))

    def test_size_cap_starts(self):
        rp, ctx, hp = homogeneous_setup(N=63)
        self.assert_outcomes(BetheSystem(hp, ctx, HOMOGENEOUS), SolverConfig(starts=64, seed=0))

    @pytest.mark.parametrize("seed", [0, 2])
    def test_fewer_evaluations_at_N4(self, seed):
        # N = 4 misses a state, so a solve runs all 64 starts.  The resumed
        # search evaluates each start's map fewer times than the full-step
        # one, both run one trial step a call on the one-lane view
        rp, ctx, hp = generic_setup(4)
        system = BetheSystem(hp, ctx, INHOMOGENEOUS)
        cfg = SolverConfig(starts=64, seed=seed)
        kernel = lane_view(system)
        evaluations = Counter()
        x, scales, _, _ = seed_starts(system, cfg)
        for start, row in zip(x, scales):
            norms = 1 / row
            for name, refine in (("resumed", one_step_refine), ("full", reference_newton_refine)):
                def counted(x, name=name):
                    evaluations[name] += 1
                    F, J = kernel(x)
                    return F * norms, J * norms[:, None]
                refine(counted, start)
        assert evaluations["resumed"] <= 0.8 * evaluations["full"]

    @pytest.mark.parametrize("seed", [0, 2])
    def test_window_halves_the_passes_at_N4(self, monkeypatch, seed):
        # a solve's lanes send WINDOW trial steps per pass: more rows, in at
        # most half the passes of the plain kernel's one-step search (which
        # makes one more pass, at the starts).  Each lane ends bit for bit
        # as in the one-step search, though lanes finishing in other rounds
        # are handed over in another order
        rp, ctx, hp = generic_setup(4)
        system = BetheSystem(hp, ctx, INHOMOGENEOUS)
        cfg = SolverConfig(starts=64, seed=seed)
        counts = counted_closed_form(monkeypatch)
        runs = []

        def recorded(kernel):
            def run(fj, starts, first):
                runs.append([])
                for lane in kernel(fj, starts, first):
                    runs[-1].append(lane)
                    yield lane
            return run
        monkeypatch.setattr(solver, "newton_lanes", recorded(solver.newton_lanes))
        window = _solve(system, cfg)
        passes = counts["passes"]
        monkeypatch.setattr(solver, "newton_lanes", recorded(
            lambda fj, starts, first: reference_kernel.newton_lanes(fj, starts, trials=1)))
        one_step = _solve(system, cfg)
        assert window.attempts == one_step.attempts == 64
        assert_same_lanes(*runs)
        self.assert_same_states(window, one_step)
        assert passes <= 0.5 * (counts["passes"] - passes)


def assert_same_lanes(run, other):
    """Two runs of newton_lanes hand over the same lanes, each with the
    same (index, x, converged, iterations) bit for bit, in any order."""
    run, other = (sorted(lanes, key=lambda lane: lane[0]) for lanes in (run, other))
    assert [lane[0] for lane in run] == [lane[0] for lane in other]
    for (_, x, ok, its), (_, x1, ok1, its1) in zip(run, other):
        assert np.array_equal(x, x1) and (ok, its) == (ok1, its1)


class TestNewtonLanes:
    """The starts run as the lanes of one Newton, and each lane is handed
    over, tagged with its index, at the end of the round it finishes in."""

    def test_a_lane_is_handed_over_the_round_it_finishes(self):
        # lane 0 starts farthest from its root, so lanes 1 and 2 finish first,
        # lane 2 before lane 1, as it starts the nearer to its root
        targets = np.array([4.0, 9.0, 16.0])
        starts = [[1e3 + 0j], [3.5 + 0j], [4.1 + 0j]]
        calls = []

        def fj(X, lanes):
            calls.append(lanes.tolist())
            return X * X - targets[lanes, None], 2 * X[:, :, None], np.zeros(len(X), bool)
        lanes = newton_lanes(fj, starts)
        handed = []
        for lane in lanes:
            # the round that found the lane finished ran at most its own pass
            # after the lane's last step, then handed the lane over
            last = max(n for n, rows in enumerate(calls) if lane[0] in rows)
            assert len(calls) - last <= 2
            handed.append(lane)
        assert [index for index, *_ in handed] == [2, 1, 0]
        assert set(calls[-1]) == {0}  # the last rounds stepped lane 0 alone
        with pytest.raises(StopIteration):
            next(lanes)
        for (index, x, ok, its), root in zip(handed, (4, 3, 2)):
            assert ok and abs(x[0] - root) < 1e-12
            # lane i is start i's Newton: the one-lane view from that start
            x1, ok1, its1 = newton_refine(lambda x, t=targets[index]: (x * x - t, [[2 * x[0]]]),
                                          starts[index])
            assert (ok, its) == (ok1, its1) and np.array_equal(x, x1)
        assert handed[-1][3] > max(its for _, _, _, its in handed[:2])
        # lanes that finish in the same round come in index order
        tied = newton_lanes(lambda X, lanes: (X * X - 9, 2 * X[:, :, None], np.zeros(len(X), bool)),
                            [[1e3 + 0j], [3.5 + 0j], [3.5 + 0j]])
        assert [index for index, *_ in tied] == [1, 2, 0]

    def test_start_index_and_closing(self, monkeypatch):
        # criterion-8 N = 2 at seed 1 stops after 5 of 64 lanes
        rp, ctx, hp = generic_setup(2)
        system = BetheSystem(hp, ctx, INHOMOGENEOUS)
        cfg = SolverConfig(starts=64, seed=1)
        x, scales, seeding_pass, rejected = seed_starts(system, cfg)
        assert rejected == 0 and len(x) == 64
        counts = counted_closed_form(monkeypatch)
        lanes = solver._lanes(system, x, scales, seeding_pass)
        first = [next(lanes) for _ in range(5)]
        rows = counts["rows"]
        lanes.close()
        with pytest.raises(StopIteration):
            next(lanes)
        assert counts["rows"] == rows  # closing evaluated no further lane
        # lane i is start i's Newton: the one-lane view from that start
        kernel = lane_view(system)
        assert [index for index, *_ in first] != list(range(5))  # not start order
        for index, roots, ok, its in first:
            norms = 1 / scales[index]

            def one(x):
                F, J = kernel(x)
                return F * norms, J * norms[:, None]
            x1, ok1, its1 = newton_refine(one, x[index])
            assert (ok, its) == (ok1, its1) and np.array_equal(roots, x1)
        # a full run hands the same lanes over first and evaluates more
        full = list(solver._lanes(system, x, scales, seeding_pass))
        assert len(full) == 64 and counts["rows"] > 2 * rows
        assert_same_lanes(first, full[:5])
        assert _solve(system, cfg).attempts == 5


class TestConfigAndMatching:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(starts=0)
        with pytest.raises(ValueError, match="seed"):
            SolverConfig(seed=-1)

    def test_oracle_matching_and_ambiguity(self):
        from heun_racah.solver import _match_oracle
        oracle = np.array([1.0 + 0j, 5.0 + 0j, 5.0 + 4e-7j])
        idx, amb = _match_oracle(1.0 + 1e-8j, oracle)
        assert idx == 0 and not amb
        idx, amb = _match_oracle(5.0 + 2e-7j, oracle)
        assert idx in (1, 2) and amb  # two oracle values inside the tolerance
        idx, amb = _match_oracle(42.0 + 0j, oracle)
        assert idx is None


class TestSeedStarts:
    def test_count_and_determinism(self):
        rp, ctx, hp = homogeneous_setup()
        cfg = SolverConfig(starts=17, seed=4)
        system = BetheSystem(hp, ctx, HOMOGENEOUS)
        x, scales, (F0, J0), rejected = seed_starts(system, cfg)
        x1, scales1, (F1, J1), _ = seed_starts(BetheSystem(hp, ctx, HOMOGENEOUS), cfg)
        assert x.shape == scales.shape == (17, 1) and rejected == 0
        for a, b in ((x, x1), (scales, scales1), (F0, F1), (J0, J1)):
            assert np.array_equal(a, b)
        # each start carries the scales of the pass that kept the margin there
        F, J, pole, rescaled = system.closed_form(x, scales=True)
        assert not pole.any() and np.array_equal(scales, rescaled)
        assert np.array_equal(F0, F) and np.array_equal(J0, J)

    @pytest.mark.parametrize("mode", [HOMOGENEOUS, INHOMOGENEOUS])
    def test_zero_guesses_keep_their_expressions(self, mode):
        # read from the swap weight's constants, bit for bit as written out
        rp, ctx, hp = homogeneous_setup() if mode == HOMOGENEOUS else generic_setup(3)
        system = BetheSystem(hp, ctx, mode)
        N, bt, g, d = rp.N, rp.beta, rp.gamma, rp.delta
        assert solver._xi_zero_guesses(system) == [
            -N + (bt - g + d), -N - (bt - g + d), N + 2 + g + d + bt, N + 2 + g + d - bt,
            2 * (hp.m_bar - system.p) - g - d]

    def test_start_that_never_keeps_the_margin_is_rejected(self, monkeypatch):
        # a margin no point keeps: each start misses it in 200 draws, the
        # start-by-start filter's 600 draws, made in passes of 3, 2 and 1 rows
        monkeypatch.setattr(sampling, "REJECT_MARGIN", np.inf)
        monkeypatch.setattr(solver, "REJECT_MARGIN", np.inf)
        rp, ctx, hp = generic_setup(1)
        system = BetheSystem(hp, ctx, INHOMOGENEOUS)
        cfg = SolverConfig(starts=3, seed=0)
        counts = counted_closed_form(monkeypatch)
        x, scales, (F, J), rejected = seed_starts(system, cfg)
        assert rejected == 3 and x.shape == scales.shape == F.shape == (0, 1)
        assert (counts["passes"], counts["rows"]) == (366, 600)
        assert [ref for _, ref in reference_kernel.seed_starts(system, cfg)] == [None] * 3
        with pytest.raises(SolverFailure, match="'pole_margin': 3"):
            solve_inhomogeneous(hp, rp, ctx, cfg)

    @pytest.mark.parametrize("mode, N", [(INHOMOGENEOUS, 3), (HOMOGENEOUS, 63)])
    def test_reference_runs_only_in_certification(self, monkeypatch, mode, N):
        # seeding and Newton run on the closed form alone: the scalar
        # reference pass runs inside _certify, after a lane is handed over
        rp, ctx, hp = generic_setup(N) if mode == INHOMOGENEOUS else homogeneous_setup(N)
        system = BetheSystem(hp, ctx, mode)
        calls, certifying, handed = [], [], []
        reference, certify, lanes = BetheSystem.reference, solver._certify, solver._lanes

        def recorded_reference(self, roots):
            calls.append((bool(certifying), len(handed)))
            return reference(self, roots)

        def recorded_certify(*args):
            certifying.append(True)
            try:
                return certify(*args)
            finally:
                certifying.pop()

        def recorded_lanes(*args):
            for lane in lanes(*args):
                handed.append(lane)
                yield lane
        monkeypatch.setattr(BetheSystem, "reference", recorded_reference)
        monkeypatch.setattr(solver, "_certify", recorded_certify)
        monkeypatch.setattr(solver, "_lanes", recorded_lanes)
        report = _solve(system, SolverConfig(starts=64, seed=0))
        assert report.states and len(calls) >= report.distinct
        assert all(inside and lanes_handed > 0 for inside, lanes_handed in calls)

    def test_includes_vacuum_weight_guesses(self):
        rp, ctx, hp = homogeneous_setup()
        cfg = SolverConfig(starts=64, seed=0)
        flat = seed_starts(BetheSystem(hp, ctx, HOMOGENEOUS), cfg)[0].ravel()
        for guess in (-rp.N + (rp.beta - rp.gamma + rp.delta),
                      rp.beta + rp.N + 2 + rp.gamma + rp.delta):
            target = bethe.canonical_root(complex(guess))
            assert min(abs(x - target) for x in flat) <= 0.25 * abs(target)

    def test_unknown_mode(self):
        rp, ctx, hp = homogeneous_setup()
        with pytest.raises(ModeError):
            seed_starts(BetheSystem(hp, ctx, "other"), SolverConfig())


class TestSolveHomogeneous:
    def test_vacuum_case(self):
        rp, ctx, hp = homogeneous_setup(rho=2 / 5)
        report = solve_homogeneous(hp, rp, ctx, SolverConfig(starts=4, seed=0))
        assert report.p_bar == 0
        assert report.distinct == 1
        state = report.states[0]
        assert state.roots == ()
        assert state.eigen_residual <= 1e-10
        W = build_W_parametric(hp, ctx)
        assert abs(state.eigenvalue - W[0, 0]) <= 1e-9 * max(1, abs(W[0, 0]))

    def test_one_root_case(self):
        rp, ctx, hp = homogeneous_setup(rho=2 / 7)
        report = solve_homogeneous(hp, rp, ctx, SolverConfig(starts=24, seed=5))
        assert report.p_bar == 1
        assert report.distinct >= 1
        oracle = dense_spectrum(build_W_parametric(hp, ctx)).eigenvalues
        for s in report.states:
            assert len(s.roots) == 1
            assert s.eigen_residual <= 1e-8
            assert min(abs(oracle - s.eigenvalue)) <= 1e-6 * max(1, abs(s.eigenvalue))

    def test_deflation_stable_across_seeds(self):
        rp, ctx, hp = homogeneous_setup(rho=2 / 7)
        r1 = solve_homogeneous(hp, rp, ctx, SolverConfig(starts=24, seed=5))
        r2 = solve_homogeneous(hp, rp, ctx, SolverConfig(starts=24, seed=11))
        roots1 = sorted((x.real, x.imag) for s in r1.states for x in s.roots)
        roots2 = sorted((x.real, x.imag) for s in r2.states for x in s.roots)
        assert len(roots1) == len(roots2)
        for a, b in zip(roots1, roots2):
            assert abs(complex(*a) - complex(*b)) <= 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_one_state_per_orbit_at_the_size_cap(self, seed):
        # N = 63 has one root and two orbits: 66.4177 and +-62.3707i, where
        # Newton leaves Re x at about +-1e-13
        rp, ctx, hp = homogeneous_setup(N=63)
        report = solve_homogeneous(hp, rp, ctx, SolverConfig(starts=64, seed=seed))
        assert report.p_bar == 1
        assert report.distinct == 2
        roots = sorted((s.roots[0] for s in report.states), key=lambda x: x.imag)
        assert abs(roots[0] - 66.4177) < 1e-4
        assert abs(roots[1] - 62.3707j) < 1e-4  # the display sign keeps Im >= 0

    def test_real_W_at_the_size_cap(self):
        # solve-wide's parameters: W is real, so the oracle comes from the
        # real solver and pairs its non-real eigenvalues exactly
        rp, ctx, hp = homogeneous_setup(N=63)
        assert not build_W_parametric(hp, ctx).imag.any()
        report = solve_homogeneous(hp, rp, ctx, SolverConfig(starts=64, seed=0))
        got = sorted((s.eigenvalue for s in report.states), key=lambda z: z.real)
        np.testing.assert_allclose(got, [3077.19517732365, 7227.90482267458], rtol=1e-12)
        assert report.coverage_fraction() == 2 / 64
        oracle = report.oracle
        np.testing.assert_array_equal(np.sort_complex(oracle), np.sort_complex(oracle.conj()))

    def test_mode_error_reports_candidates(self):
        rp, ctx, hp = generic_setup(1)
        with pytest.raises(ModeError, match="candidates"):
            solve_homogeneous(hp, rp, ctx, SolverConfig(starts=2, seed=0))


class TestSolveInhomogeneous:
    def test_n1_full_coverage(self):
        rp, ctx, hp = generic_setup(1)
        report = solve_inhomogeneous(hp, rp, ctx, SolverConfig(starts=32, seed=2))
        assert 1 <= report.distinct <= 2
        for s in report.states:
            assert s.eigen_residual <= 1e-8
        assert report.coverage_fraction() == 1.0

    def test_u_aux_invariance(self):
        # on-shell, the eigenvalue at another spectral point is the same, and
        # the Bethe vector is an eigenvector for it
        rp, ctx, hp = generic_setup(1)
        report = solve_inhomogeneous(hp, rp, ctx, SolverConfig(starts=32, seed=2))
        system = BetheSystem(hp, ctx, INHOMOGENEOUS)
        W = build_W_parametric(hp, ctx)
        for s in report.states:
            ev = system.eigenvalue(1.9 - 1.3j, list(s.roots))
            assert abs(ev - s.eigenvalue) <= 1e-7 * max(1, abs(s.eigenvalue))
            v = bethe.bethe_vector(list(s.roots), hp.m_bar, ctx)
            res = np.linalg.norm(W @ v - ev * v) / (np.linalg.norm(W) * np.linalg.norm(v))
            assert res <= 1e-8

    def test_no_colliding_roots_reported(self):
        rp, ctx, hp = generic_setup(2)
        report = solve_inhomogeneous(hp, rp, ctx, SolverConfig(starts=32, seed=2))
        for s in report.states:
            for i, x in enumerate(s.roots):
                for y in s.roots[:i]:
                    assert abs(x * x - y * y) >= REJECT_MARGIN

    def test_tau_pole_parameters_are_a_domain_error(self):
        # rho = 2, s2 = 3 give m_bar = 1/2, where a tau denominator vanishes
        # at N = 2 whatever the roots
        rp = build_params(2, 5, 1, 2)
        ctx = DynContext(rep=build_representation(rp), rho=2)
        hp = build_heun_params(2, 1, 3, rp)
        with pytest.raises(ParameterDomainError, match="tau pole"):
            solve_inhomogeneous(hp, rp, ctx, SolverConfig(starts=4, seed=0))

    def test_determinism(self):
        rp, ctx, hp = generic_setup(1)
        cfg = SolverConfig(starts=16, seed=9)
        a = solve_inhomogeneous(hp, rp, ctx, cfg)
        b = solve_inhomogeneous(hp, rp, ctx, cfg)
        assert dump_json(a.to_json_dict()) == dump_json(b.to_json_dict())

    def test_report_invariants(self):
        rp, ctx, hp = generic_setup(2)
        report = solve_inhomogeneous(hp, rp, ctx, SolverConfig(starts=32, seed=2))
        assert report.distinct == len(report.states)
        assert_counts_starts_tried(report, 32)
        assert len(report.spectrum_coverage) == rp.N + 1
        # no two states with the same root orbits
        for i, a in enumerate(report.states):
            assert not _is_duplicate(a.roots, report.states[:i])


def assert_counts_starts_tried(report, starts):
    """attempts counts the starts tried, fewer than all only once p + 1
    oracle eigenvalues are matched (every one in inhomogeneous mode,
    p_bar + 1 in homogeneous mode), and every one tried either converged
    or was rejected before Newton ended: at seeding (pole_margin) or by
    Newton.  Every other reject, root_margin among them, is certification's,
    of a lane that converged."""
    rejected = report.diagnostics.get("rejected", {})
    p = report.matched.size - 1 if report.p_bar is None else report.p_bar
    assert report.converged <= report.attempts <= starts
    assert report.attempts == starts or np.count_nonzero(report.matched) == p + 1
    assert report.converged + rejected.get("newton", 0) + rejected.get("pole_margin", 0) \
        == report.attempts
    assert sum(n for reason, n in rejected.items()
               if reason not in ("newton", "pole_margin")) <= report.converged


STOP_CASES = [(INHOMOGENEOUS, N, seed) for N in (1, 2, 3, 4) for seed in range(4)] \
    + [(HOMOGENEOUS, N, seed) for N in (1, 2) for seed in range(4)]

# (p_bar, N, rho, beta) of homogeneous problems whose full runs certify
# exactly the p_bar + 1 states, the last being solve-wide's size-cap W
P_BAR_CASES = [(0, 3, 2 / 5, 11), (1, 3, 2 / 7, 11), (2, 4, 2 / 9, 11), (3, 6, 2 / 11, 11),
               (1, 63, 2 / 7, 5)]


class TestStopAtFullCoverage:
    """The loop ends once p + 1 oracle eigenvalues are matched, and loses
    nothing a full run of the same lane kernel, in finish order, finds."""

    @staticmethod
    def system(mode, N):
        rp, ctx, hp = generic_setup(N) if mode == INHOMOGENEOUS else homogeneous_setup(N)
        return BetheSystem(hp, ctx, mode)

    @staticmethod
    def assert_stop_loses_nothing(system, cfg):
        report = _solve(system, cfg)
        full = reference_solve(system, cfg, solver._lanes)
        for key in ("states", "spectrum_coverage", "ambiguous_matches"):
            assert dump_json(report.to_json_dict()[key]) == dump_json(full.to_json_dict()[key])
        x, _, _, rejected = seed_starts(system, cfg)
        assert full.attempts == len(x) + rejected  # one start when p = 0
        assert_counts_starts_tried(report, cfg.starts)
        # stopped: the goal was met with lanes still running; not reported in JSON
        assert report.stopped == (report.attempts < full.attempts) and not full.stopped
        assert "stopped" not in report.to_json_dict()
        return report, full

    @pytest.mark.parametrize("mode,N,seed", STOP_CASES,
                             ids=[f"{m[:5]}-N{N}-seed{s}" for m, N, s in STOP_CASES])
    def test_stop_loses_nothing(self, mode, N, seed):
        self.assert_stop_loses_nothing(self.system(mode, N), SolverConfig(starts=64, seed=seed))

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("p_bar,N,rho,beta", P_BAR_CASES,
                             ids=[f"p_bar{p}-N{N}" for p, N, _, _ in P_BAR_CASES])
    def test_stop_at_the_p_bar_plus_one_bethe_states(self, p_bar, N, rho, beta, seed):
        rp, ctx, hp = homogeneous_setup(N, rho=rho, beta=beta)
        system = BetheSystem(hp, ctx, HOMOGENEOUS)
        assert system.p_bar == p_bar
        report, full = self.assert_stop_loses_nothing(system, SolverConfig(starts=64, seed=seed))
        assert full.distinct == report.distinct == p_bar + 1
        if p_bar:
            assert report.attempts < full.attempts

    @pytest.mark.parametrize("seed", range(4))
    def test_certification_margin_rejects_are_counted_apart(self, seed):
        # p_bar = 3 at N = 4: every converged lane's roots miss the margin at
        # certification, which files them as root_margin, not as the seeding
        # rejects (pole_margin) that never got a lane
        rp, ctx, hp = homogeneous_setup(4, rho=2 / 11)
        system = BetheSystem(hp, ctx, HOMOGENEOUS)
        cfg = SolverConfig(starts=64, seed=seed)
        full = reference_solve(system, cfg, solver._lanes)
        rejected = full.diagnostics["rejected"]
        assert not full.states and "pole_margin" not in rejected
        assert rejected["root_margin"] == full.converged >= 63
        assert_counts_starts_tried(full, cfg.starts)
        with pytest.raises(SolverFailure, match=f"'root_margin': {full.converged}"):
            _solve(system, cfg)

    def test_stop_fires_once_every_eigenvalue_is_matched(self):
        report = _solve(self.system(INHOMOGENEOUS, 2), SolverConfig(starts=64, seed=2))
        assert report.attempts == 17 and report.coverage_fraction() == 1.0 and report.stopped

    def test_missed_state_runs_every_start(self):
        report = _solve(self.system(INHOMOGENEOUS, 4), SolverConfig(starts=64, seed=0))
        assert report.attempts == 64 and report.coverage_fraction() < 1.0 and not report.stopped


def state_with(roots):
    return bethe.BetheState(roots=tuple(roots), mode=HOMOGENEOUS, u_aux=0j, eigenvalue=0j,
                            bethe_residuals=(), eigen_residual=0.0)


class TestDeflation:
    ROOTS = (1.3 - 0.4j, 2.9 + 1.7j, -0.2 + 3.1j)

    def test_permuted_and_sign_flipped_roots_are_one_state(self):
        x, y, z = self.ROOTS
        known = [state_with(self.ROOTS)]
        for roots in ([y, z, x], [-x, y, -z], [-z, -y, -x]):
            assert _is_duplicate(roots, known)

    def test_distinct_orbits_are_kept(self):
        x, y, z = self.ROOTS
        known = [state_with(self.ROOTS)]
        assert not _is_duplicate([x, y, z + 2 * DEFLATION_TOL], known)
        assert not _is_duplicate([x, y, y], known)  # a multiset: y cannot match twice
        assert not _is_duplicate([x, y], known)
        assert not _is_duplicate(self.ROOTS, [])

    def test_conjugate_squares_with_crossed_real_parts_are_one_state(self):
        # t = x^2 and its conjugate give roots a, b with equal real parts; a
        # 1e-13 shift orders them one way in one set and the other way in
        # the other, so no sorted convention lines the two sets up
        t = 3.0 + 4.0j
        a = np.sqrt(t)
        b = np.sqrt(t.conjugate())
        assert a.real == b.real
        first = bethe.canonical_roots([a + 1e-13, b - 1e-13])
        second = bethe.canonical_roots([a - 1e-13, b + 1e-13])
        assert first[0].imag * second[0].imag < 0  # the sorted order differs
        assert _is_duplicate(second, [state_with(first)])


class TestProblemConsistency:
    def test_mismatched_racah_params_are_a_domain_error(self):
        # seeds and residuals would read rp while certification reads ctx
        rp, ctx, hp = generic_setup(2)
        other = build_params(2, 2.3 + 0.4j, 1.3, 0.8)
        for solve in (solve_inhomogeneous, solve_homogeneous):
            with pytest.raises(ParameterDomainError, match="Racah parameters"):
                solve(hp, other, ctx, SolverConfig(starts=4, seed=0))

    def test_colliding_roots_rejected_as_root_margin(self):
        rp, ctx, hp = generic_setup(2)
        system = BetheSystem(hp, ctx, INHOMOGENEOUS)
        W = build_W_parametric(hp, ctx)
        oracle = dense_spectrum(W).eigenvalues
        x = 2.1 + 0.7j
        roots = [x, -x + 1e-5]  # x_1^2 - x_2^2 is about 4e-5
        assert abs(x * x - roots[1] ** 2) < REJECT_MARGIN
        assert min(abs(x), abs(x - 1), abs(x + 1)) > 1.0
        W_fro = float(np.linalg.norm(W))
        entry, reason = _certify(roots, system, 0, W, W_fro, oracle)
        assert entry is None and reason == "root_margin"
        # the same x beside a distant partner passes the margin
        assert _certify([x, 0.4 - 1.9j], system, 0, W, W_fro, oracle)[1] != "root_margin"

    def test_root_beside_plus_one_is_certified_past_the_margin(self):
        # the swap weight cancels the vacuum pole at x = +-1, so the
        # reference map evaluates there and the margin does not reject
        rp, ctx, hp = generic_setup(3)
        system = BetheSystem(hp, ctx, INHOMOGENEOUS)
        W = build_W_parametric(hp, ctx)
        oracle = dense_spectrum(W).eigenvalues
        roots = [1 + 5e-4, 0.4 - 1.9j, 2.3 + 0.5j]
        assert within_margin(system.reference, roots) is not None
        W_fro = float(np.linalg.norm(W))
        entry, reason = _certify(roots, system, 0, W, W_fro, oracle)
        assert entry is None and reason == "bethe_residual"
