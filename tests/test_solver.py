import numpy as np
import pytest

from heun_racah import bethe, solver
from heun_racah.bethe import HOMOGENEOUS, INHOMOGENEOUS, BetheSystem
from heun_racah.core import dense_spectrum
from heun_racah.dynamical import DynContext
from heun_racah.errors import ModeError, ParameterDomainError, SolverFailure
from heun_racah.heun import build_heun_params, build_W_parametric
from heun_racah.racah import build_params, build_representation
from heun_racah.sampling import REJECT_MARGIN, within_margin
from heun_racah.serialize import dump_json
from heun_racah.solver import (COND_LIMIT, DEFLATION_TOL, MAX_HALVINGS, MAX_ITER, NEWTON_TOL,
                               SolverConfig, _certify, _is_duplicate, newton_refine,
                               seed_starts, solve_homogeneous, solve_inhomogeneous)

from conftest import finite_difference_map


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
        # one map evaluation per point: the start, then one per accepted step
        points = []

        def fj(x):
            points.append(x.copy())
            return 2 * x - 4, [[2.0]]
        x, ok, its = newton_refine(fj, np.array([10.0 + 0j]))
        assert ok and its == 1 and len(points) == 2

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
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(np.linalg, "svd", failing)
        _, ok, its = newton_refine(lambda x: (2 * x - 4, [[2.0]]), np.array([10.0 + 0j]))
        assert not ok and its == 0


def reference_newton_refine(fj, x0):
    """newton_refine as it was before each evaluation took its norm once and
    the condition number came from the singular values: the oracle the
    rewrite must match bit for bit."""
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


def recorded_newton_calls(monkeypatch, solve, *args):
    """The (fj, x0) of every newton_refine call a solve makes."""
    calls = []

    def recording(fj, x0):
        calls.append((fj, np.array(x0, dtype=np.complex128)))
        return newton_refine(fj, x0)
    monkeypatch.setattr(solver, "newton_refine", recording)
    solve(*args)
    return calls


class TestNewtonMatchesReference:
    """One norm per evaluation and the SVD condition number change no bit."""

    def assert_identical(self, calls):
        iterations = []
        for fj, x0 in calls:
            x, ok, its = newton_refine(fj, x0)
            x_ref, ok_ref, its_ref = reference_newton_refine(fj, x0)
            assert np.array_equal(x, x_ref) and ok == ok_ref and its == its_ref
            iterations.append(its)
        assert len(calls) == 64 and max(iterations) > 1  # not vacuous

    @pytest.mark.parametrize("seed", [0, 2])
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_criterion_8_starts(self, monkeypatch, N, seed):
        rp, ctx, hp = generic_setup(N)
        self.assert_identical(recorded_newton_calls(
            monkeypatch, solve_inhomogeneous, hp, rp, ctx, SolverConfig(starts=64, seed=seed)))

    def test_size_cap_starts(self, monkeypatch):
        rp, ctx, hp = homogeneous_setup(N=63)
        self.assert_identical(recorded_newton_calls(
            monkeypatch, solve_homogeneous, hp, rp, ctx, SolverConfig(starts=64, seed=0)))


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
        a = seed_starts(system, cfg)
        b = seed_starts(BetheSystem(hp, ctx, HOMOGENEOUS), cfg)
        assert len(a) == 17
        assert a == b
        # each start carries the reference pass that kept the margin there
        for roots, reference in a:
            assert reference == system.reference(roots)

    def test_start_that_never_keeps_the_margin_is_rejected(self, monkeypatch):
        from heun_racah import solver
        monkeypatch.setattr(solver, "within_margin", lambda evaluate, value: None)
        rp, ctx, hp = generic_setup(1)
        system = BetheSystem(hp, ctx, INHOMOGENEOUS)
        assert [ref for _, ref in seed_starts(system, SolverConfig(starts=3))] == [None] * 3
        with pytest.raises(SolverFailure, match="'pole_margin': 3"):
            solve_inhomogeneous(hp, rp, ctx, SolverConfig(starts=3, seed=0))

    def test_includes_vacuum_weight_guesses(self):
        rp, ctx, hp = homogeneous_setup()
        cfg = SolverConfig(starts=64, seed=0)
        starts = seed_starts(BetheSystem(hp, ctx, HOMOGENEOUS), cfg)
        flat = [x for roots, _ in starts for x in roots]
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
        rp, ctx, hp = generic_setup(1)
        cfg = SolverConfig(starts=32, seed=2)
        r1 = solve_inhomogeneous(hp, rp, ctx, cfg)
        r2 = solve_inhomogeneous(hp, rp, ctx, cfg, u_aux=1.9 - 1.3j)
        ev1 = sorted((s.eigenvalue.real, s.eigenvalue.imag) for s in r1.states)
        ev2 = sorted((s.eigenvalue.real, s.eigenvalue.imag) for s in r2.states)
        assert len(ev1) == len(ev2)
        for a, b in zip(ev1, ev2):
            assert abs(complex(*a) - complex(*b)) <= 1e-7 * max(1, abs(complex(*a)))

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
        assert report.converged <= report.attempts == 32
        assert len(report.spectrum_coverage) == rp.N + 1
        # no two states with the same root orbits
        for i, a in enumerate(report.states):
            assert not _is_duplicate(a.roots, report.states[:i])


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

    def test_colliding_roots_rejected_as_pole_margin(self):
        rp, ctx, hp = generic_setup(2)
        system = BetheSystem(hp, ctx, INHOMOGENEOUS)
        W = build_W_parametric(hp, ctx)
        oracle = dense_spectrum(W).eigenvalues
        x = 2.1 + 0.7j
        roots = [x, -x + 1e-5]  # x_1^2 - x_2^2 is about 4e-5
        assert abs(x * x - roots[1] ** 2) < REJECT_MARGIN
        assert min(abs(x), abs(x - 1), abs(x + 1)) > 1.0
        W_fro = float(np.linalg.norm(W))
        state, reason = _certify(roots, system, 0, W, W_fro, oracle, None)
        assert state is None and reason == "pole_margin"
        # the same x beside a distant partner passes the margin
        assert _certify([x, 0.4 - 1.9j], system, 0, W, W_fro, oracle, None)[1] != "pole_margin"

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
        state, reason = _certify(roots, system, 0, W, W_fro, oracle, None)
        assert state is None and reason == "bethe_residual"
