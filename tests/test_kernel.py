"""The Bethe system's closed-form residual-and-Jacobian pass against its references.

The pass takes a stack of root sets; `lane_view` reads one lane of it.  The
references are the scalar residual maps in `bethe` (for values), central
finite differences and a sympy derivative (for the Jacobian), Newton on a
finite-difference Jacobian (for the solver path), and `reference_closed_form`,
the same pass written one root set at a time, which raises at a pole where
the stacked pass masks the lane (tests/test_properties.py compares the two).
TestMatchesPlainKernel holds the stacked pass and the lane kernel bit for bit
to the plain kernel of tests/reference_kernel.py.
"""

from functools import partial

import numpy as np
import pytest
import sympy as sp

from heun_racah import bethe, solver
from heun_racah.bethe import HOMOGENEOUS, INHOMOGENEOUS, BetheSystem, canonical_roots
from heun_racah.core import guard
from heun_racah.errors import ModeError, ParameterDomainError
from heun_racah.heun import build_heun_params
from heun_racah.racah import DynContext, build_params, build_representation
from heun_racah.solver import (MAX_HALVINGS, MAX_ITER, WINDOW, SolverConfig,
                               newton_lanes, newton_refine, seed_starts)

import reference_kernel
from conftest import finite_difference_map
from test_bethe import inhomogeneous_terms

CRITERION_8 = (2.2 + 0.4j, 1.3, 0.8, 1.7, 0.9, 2.6)
# (N, beta, gamma, delta, rho, s1, s2) with an integer root count p_bar:
# with s1 = 0, gamma = 1 and delta = 2, p_bar = 1/rho - 5/2.
HOMOGENEOUS_SETS = [(1, 5, 1, 2, 2 / 7, 0, 3), (2, 5, 1, 2, 2 / 7, 0, 3),
                    (3, 5, 1, 2, 2 / 9, 0, 3)]
FD_STEP = 1e-6


def setup(N, beta, gamma, delta, rho, s1, s2):
    rp = build_params(N, beta, gamma, delta)
    ctx = DynContext(rep=build_representation(rp), rho=rho)
    return rp, ctx, build_heun_params(rho, s1, s2, rp)


def random_roots(rng, p):
    r = rng.uniform(0.5, 5.0, p)
    th = rng.uniform(0.0, 2 * np.pi, p)
    return list(r * np.exp(1j * th))


def reference(mode, hp, ctx):
    """(residual map, cancellation scales) of the reference implementation."""
    if mode == INHOMOGENEOUS:
        return (lambda x: bethe.inhomogeneous_residuals(x, hp, ctx),
                lambda x: bethe.inhomogeneous_scales(x, hp, ctx))
    system = BetheSystem(hp, ctx, HOMOGENEOUS)
    return lambda x: system.reference(x)[0], lambda x: system.reference(x)[1]


def cases():
    for N in range(1, 7):
        yield pytest.param(INHOMOGENEOUS, (N,) + CRITERION_8, id=f"inhom-N{N}")
    for params in HOMOGENEOUS_SETS:
        yield pytest.param(HOMOGENEOUS, params, id=f"hom-N{params[0]}-rho{params[4]:.3f}")


def lane_view(system):
    """x -> (F, J) of the stacked pass on the one-lane stack [x]; a masked lane raises."""
    def kernel(x):
        F, J, pole = system.closed_form([x])
        if pole[0]:
            raise ParameterDomainError("closed form: the lane is masked as a pole")
        return F[0], J[0]
    return kernel


def kernel_for(mode, params):
    rp, ctx, hp = setup(*params)
    system = BetheSystem(hp, ctx, mode)
    return lane_view(system), system.p, hp, rp, ctx


def planted_poles(system, roots):
    """roots with one pole planted per kind the system has: x = 0, the swap
    weight's x = +-(c3 + 2) (g is weighed at +-x), in inhomogeneous mode
    a3^2 = rho^2 x^2 and a tau zero x = z (x^2 - z^2 = 0 exactly), and for
    p >= 2 x_1^2 = x_2^2 and k1(x_1, x_2) = 0 exactly (x_1 = 3, x_2 = 1)."""
    firsts = [[0j], [system.weight.c3 + 2], [-system.weight.c3 - 2]]
    if system.mode == INHOMOGENEOUS:
        firsts += [[system.brackets[2] / system.hp.rho], [system.tau[2][0]]]
    if system.p >= 2:
        firsts += [[roots[0], -roots[0]], [3 + 0j, 1 + 0j]]
    return [first + list(roots[len(first):]) for first in firsts]


def a1_lane(system, roots):
    """roots with x_1 = a1 / rho, where a1^2 - rho^2 x^2 is exactly zero at
    some p and not at others: a pole exactly where the scalar pass raises."""
    return [[system.brackets[1] / system.hp.rho] + list(roots[1:])] \
        if system.mode == INHOMOGENEOUS else []


def reference_closed_form(system, roots):
    """(F, J) of system.closed_form for one root set, as lists, written as a
    scalar pass; a pole raises ParameterDomainError (a guarded denominator)
    or ZeroDivisionError (an exactly zero divisor)."""
    p = system.p
    x = [complex(v) for v in roots]
    weights = [(system.weight(v), system.weight(-v)) for v in x]
    sq = [v * v for v in x]
    inv = [[0j] * p for _ in range(p)]
    for r in range(p):
        for l in range(r):
            inv[r][l] = 1 / guard(sq[r] - sq[l], "residual kernel pole: x_r^2 = x_l^2")
            inv[l][r] = -inv[r][l]

    F = [0j] * p
    J = [[0j] * p for _ in range(p)]
    for r in range(p):
        row, inv_r = J[r], inv[r]
        for eps, (g, dg) in zip((1, -1), weights[r]):
            y = eps * x[r]
            prod, dlog_y = 1.0, 0j
            dlog = [0j] * p
            for l in range(p):
                if l == r:
                    continue
                q = 4 * (y - 1) * inv_r[l]
                k = 1 - q
                prod *= k
                w = inv_r[l] / k
                dlog_y += w * (2 * y * q - 4)
                dlog[l] = -2 * x[l] * q * w
            t = g * prod
            F[r] += t
            row[r] += eps * (dg * prod + t * dlog_y)
            for l in range(p):
                if l != r:
                    row[l] += t * dlog[l]
    if system.squares is not None:
        _add_reference_corrections(system, x, sq, inv, F, J)
    return F, J


def _add_reference_corrections(system, x, sq, inv, F, J):
    """Add U_r^(i) and its derivatives to F and J."""
    p = system.p
    coef, csq, rho2, a1sq, a3sq, _ = system.squares
    zsq = [z * z for z in system.tau[2]]
    psi, dlog_c, dlog_phi = 1.0, [], []
    for v, s in zip(x, sq):
        num = a1sq - rho2 * s
        den = guard(a3sq - rho2 * s, "residual kernel pole: a3^2 = rho^2 x^2")
        psi *= num / den
        dlog_phi.append(2 * rho2 * v * (1 / den - 1 / num))
        dlog_c.append(-2 * v / (csq - s))
    for r in range(p):
        xr, inv_r = x[r], inv[r]
        val, dlog_r = coef * psi, dlog_phi[r]
        for zs in zsq:
            val *= sq[r] - zs
            dlog_r += 2 * xr / (sq[r] - zs)
        for k in range(p):
            if k != r:
                val *= (csq - sq[k]) * inv_r[k]
                dlog_r -= 2 * xr * inv_r[k]
        F[r] += val
        row = J[r]
        row[r] += val * dlog_r
        for j in range(p):
            if j != r:
                row[j] += val * (dlog_c[j] + 2 * x[j] * inv_r[j] + dlog_phi[j])


@pytest.mark.parametrize("mode, params", cases())
def test_residuals_match_reference(mode, params):
    kernel, p, hp, rp, ctx = kernel_for(mode, params)
    residuals, scales = reference(mode, hp, ctx)
    rng = np.random.default_rng(p)
    for _ in range(10):
        x = random_roots(rng, p)
        F, _ = kernel(x)
        for got, want, scale in zip(F, residuals(x), scales(x)):
            assert abs(got - want) <= 1e-12 * scale


@pytest.mark.parametrize("mode, params", cases())
def test_jacobian_matches_central_differences(mode, params):
    kernel, p, hp, rp, ctx = kernel_for(mode, params)
    residuals, _ = reference(mode, hp, ctx)
    rng = np.random.default_rng(100 + p)
    for _ in range(5):
        x = random_roots(rng, p)
        J = np.array(kernel(x)[1])
        _, fd = finite_difference_map(lambda v: residuals(list(v)), FD_STEP)(x)
        for row, fd_row in zip(J, fd):
            assert np.max(np.abs(row - fd_row)) <= 1e-7 * np.max(np.abs(row))


def test_jacobian_matches_sympy_at_two_roots():
    """Differentiate an independent transcription of U_r + U_r^(i) at N = 2."""
    N = 2
    kernel, p, hp, rp, ctx = kernel_for(INHOMOGENEOUS, (N,) + CRITERION_8)
    bt, g, d = (sp.sympify(c) for c in (rp.beta, rp.gamma, rp.delta))
    rho, s1, s2, m_bar = (sp.sympify(c) for c in (hp.rho, hp.s1, hp.s2, hp.m_bar))
    m = m_bar - N
    xs = sp.symbols("x1 x2")

    def f1w(v):
        c = rho * v - rho + s2
        return (2 * rho * (rho - 1) * s1 - (c + 1) * (c - 1)) * (1 - 1 / v)

    def xi(v):
        return (((v + N) ** 2 - (bt - g + d) ** 2) * (bt ** 2 - (v - N - 2 - g - d) ** 2)
                * (d + g - 2 * m + v) / (8 * (v - 1) * (d + g - 2 * m + 2 - v)))

    def k1(u, v):
        return ((u - 2) ** 2 - v ** 2) / (u ** 2 - v ** 2)

    pref = ((2 * m_bar - N) ** 2 - bt ** 2) / 8
    for k in range(1, N + 1):
        pref /= (2 * m_bar - 2 * d - bt - N - 2 * k) * (2 * m_bar - 2 * g + bt - N - 2 * k)
    c = g + d - 2 * m_bar + 2 * N + 2
    lam = 2 * (1 - rho) * s1 \
        + (g + d + 2 + 2 * N) * (d * rho + g * rho + 2 * rho * (N + 1) - 2)
    a1 = d * rho + g * rho + rho * (1 + 2 * N) - s2 - 1
    a3 = d * rho + g * rho + rho * (3 + 2 * N) - s2 - 1
    psi = sp.Mul(*[(a1 ** 2 - rho ** 2 * x ** 2) / (a3 ** 2 - rho ** 2 * x ** 2) for x in xs])

    rows = []
    for r, xr in enumerate(xs):
        others = [x for x in xs if x is not xr]
        U = sum(f1w(e * xr) * xi(e * xr) * sp.Mul(*[k1(e * xr, x) for x in others])
                for e in (1, -1))
        tau = pref * sp.Mul(*[(c ** 2 - x ** 2) / (xr ** 2 - x ** 2) for x in others]) \
            * sp.Mul(*[xr ** 2 - (bt - g + d - N + 2 * k) ** 2 for k in range(N + 1)])
        rows.append(U + tau * rho * lam * psi)

    point = [1.3 - 0.4j, 2.9 + 1.7j]
    subs = dict(zip(xs, (sp.sympify(v) for v in point)))
    want = np.array([[complex(sp.diff(row, x).evalf(30, subs=subs)) for x in xs]
                     for row in rows])
    got = np.array(kernel(point)[1])
    for got_row, want_row in zip(got, want):
        assert np.max(np.abs(got_row - want_row)) <= 1e-10 * np.max(np.abs(want_row))


@pytest.mark.parametrize("mode, params", [
    (INHOMOGENEOUS, (2,) + CRITERION_8), (HOMOGENEOUS, HOMOGENEOUS_SETS[2])])
@pytest.mark.parametrize("roots", [[1.5, -1.5], [1.5 + 0.5j, 1.5 + 0.5j], [0.0, 2.0],
                                   [2.0, 0.0]])
def test_poles_raise(mode, params, roots):
    # the scalar pass raises, and the stacked pass masks the lane beside a regular one
    rp, ctx, hp = setup(*params)
    system = BetheSystem(hp, ctx, mode)
    assert system.p == 2
    with pytest.raises(ParameterDomainError):
        reference_closed_form(system, roots)
    assert system.closed_form([roots, [1.3 - 0.4j, 2.9 + 1.7j]])[2].tolist() == [True, False]


@pytest.mark.parametrize("N", [2, 3, 4])
def test_newton_agrees_with_finite_difference_jacobian(N):
    """Each criterion-8 start converges to the same roots under both
    Jacobians, or fails under both."""
    rp, ctx, hp = setup(N, *CRITERION_8)
    system = BetheSystem(hp, ctx, INHOMOGENEOUS)
    cfg = SolverConfig(starts=64, seed=2)
    starts, scales, _, _ = seed_starts(system, cfg)
    for start, row in zip(starts, scales):
        norms = 1 / row

        def scaled(x):
            F, J = lane_view(system)(x)
            return F * norms, J * norms[:, None]
        x_fd, ok_fd, _ = newton_refine(finite_difference_map(lambda x: scaled(x)[0]), start)
        x_cf, ok_cf, _ = newton_refine(scaled, start)
        assert ok_fd == ok_cf
        if ok_fd:
            gap = np.abs(np.array(canonical_roots(x_fd)) - np.array(canonical_roots(x_cf)))
            assert np.max(gap) <= 1e-9


class TestBetheSystem:
    """What construction resolves once, and the reference pass's contract."""

    def test_homogeneous_builds_no_tau_or_psi_constant(self, monkeypatch):
        def boom(*args):
            raise AssertionError("tau constants built")
        monkeypatch.setattr(bethe, "_tau_shared", boom)
        rp, ctx, hp = setup(*HOMOGENEOUS_SETS[1])
        system = BetheSystem(hp, ctx, HOMOGENEOUS)
        assert (system.p, system.p_bar) == (1, 1)
        assert system.tau is system.brackets is system.squares is None
        with pytest.raises(AssertionError, match="tau constants built"):
            BetheSystem(hp, ctx, INHOMOGENEOUS)

    def test_mode_decides_root_count(self):
        rp, ctx, hp = setup(3, *CRITERION_8)
        system = BetheSystem(hp, ctx, INHOMOGENEOUS)
        assert (system.p, system.p_bar, system.hp.rp) == (3, None, rp)
        with pytest.raises(ModeError, match="candidates"):
            BetheSystem(hp, ctx, HOMOGENEOUS)
        with pytest.raises(ModeError, match="unknown mode"):
            BetheSystem(hp, ctx, "other")

    def test_rho_mismatch_is_a_domain_error(self):
        rp, ctx, hp = setup(2, *CRITERION_8)
        other = DynContext(rep=ctx.rep, rho=1.6)
        with pytest.raises(ParameterDomainError, match="rho"):
            BetheSystem(hp, other, INHOMOGENEOUS)

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_reference_is_the_scalar_maps_at_any_spectral_point(self, N):
        """U_r + U_r^(i) does not depend on u: the reference pass equals the
        u-dependent scalar maps bit for bit."""
        rp, ctx, hp = setup(N, *CRITERION_8)
        system = BetheSystem(hp, ctx, INHOMOGENEOUS)
        for start in seed_starts(system, SolverConfig(starts=16, seed=N))[0].tolist():
            residuals = system.reference(start)[0]
            for u in (2.37 + 0.91j, -3.1 + 0.2j):
                _, u_i = inhomogeneous_terms(u, start, hp)
                assert residuals == [bethe.unwanted_U(r, start, hp) + u_i[r - 1]
                                     for r in range(1, N + 1)]


def assert_identical_lanes(got, want):
    """The same (index, x, converged, iterations) lanes, bit for bit, in the
    same hand-over order."""
    assert [lane[0] for lane in got] == [lane[0] for lane in want]
    for (_, x, ok, its), (_, x1, ok1, its1) in zip(got, want):
        assert x.tobytes() == x1.tobytes() and (ok, its) == (ok1, its1)


def assert_identical_arrays(got, want):
    for a, b in zip(got, want, strict=True):
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()


class TestMatchesPlainKernel:
    """closed_form and newton_lanes give, bit for bit, what the plain kernel
    of tests/reference_kernel.py gives: every F, J and pole mask, and every
    lane in the same hand-over order at the package's WINDOW (and by index
    at the plain kernel's other windows)."""

    @pytest.mark.parametrize("mode, params", [
        *cases(), pytest.param(HOMOGENEOUS, (3, 11, 1, 2, 2 / 5, 0, 3), id="hom-N3-p0")])
    def test_closed_form_on_every_system(self, mode, params):
        rp, ctx, hp = setup(*params)
        system = BetheSystem(hp, ctx, mode)
        rng = np.random.default_rng(7)
        drawn = [random_roots(rng, system.p) for _ in range(6)]
        planted = planted_poles(system, drawn[0]) if system.p else []
        stack = drawn + a1_lane(system, drawn[0]) + planted
        for rows in (stack, stack[:1], stack[-1:]):
            assert_identical_arrays(system.closed_form(rows),
                                    reference_kernel.closed_form(system, rows))
        # every planted row is a pole
        assert system.closed_form(stack)[2][len(stack) - len(planted):].all()

    @staticmethod
    def assert_same_solve_lanes(monkeypatch, system, cfg):
        """solver._lanes, started from seed_starts' pass, and the plain
        kernel's, which evaluates the starts itself, hand over the same
        lanes after the same closed_form passes of trial steps, row for row,
        each lane given solver.MAX_ITER iterations."""
        x, scales, first, _ = seed_starts(system, cfg)
        # the seeding pass at the kept starts is the plain kernel's first pass
        assert_identical_arrays(first, reference_kernel.closed_form(system, x)[:2])
        runs = []
        for owner, lanes in ((BetheSystem, partial(solver._lanes, first=first)),
                             (reference_kernel, partial(reference_kernel.lanes, trials=WINDOW,
                                                        budget=solver.MAX_ITER))):
            passes, closed_form = [], owner.closed_form

            def recording(system, roots, passes=passes, closed_form=closed_form):
                passes.append(np.asarray(roots).tobytes())
                return closed_form(system, roots)
            with monkeypatch.context() as patched:
                patched.setattr(owner, "closed_form", recording)
                runs.append((list(lanes(system, x, scales)), passes))
        (got, passes), (want, want_passes) = runs
        assert_identical_lanes(got, want)
        assert want_passes[0] == x.tobytes() and passes == want_passes[1:]
        return got

    @pytest.mark.parametrize("N, seed", [(2, 0), (3, 1), (4, 0), (4, 2)])
    def test_solve_lanes_at_criterion_8(self, monkeypatch, max_iter, N, seed):
        # at a budget of 50, lanes run to it at N = 3 and 4: one at (3, 1) and
        # (4, 0), nine at (4, 2)
        rp, ctx, hp = setup(N, *CRITERION_8)
        system = BetheSystem(hp, ctx, INHOMOGENEOUS)
        cfg = SolverConfig(starts=64, seed=seed)
        budget = max_iter(50)
        got = self.assert_same_solve_lanes(monkeypatch, system, cfg)
        assert len(got) == 64
        assert sum(its == budget for *_, its in got) == {(2, 0): 0, (3, 1): 1, (4, 0): 1,
                                                         (4, 2): 9}[N, seed]
        # a solve's lanes stop at MAX_ITER: the 1, 6, 18 and 23 lanes that
        # run past it above end there unconverged
        max_iter(MAX_ITER)
        got = self.assert_same_solve_lanes(monkeypatch, system, cfg)
        assert len(got) == 64 and max(its for *_, its in got) == MAX_ITER
        assert sum(its == MAX_ITER and not ok for _, _, ok, its in got) == \
            {(2, 0): 1, (3, 1): 6, (4, 0): 18, (4, 2): 23}[N, seed]

    @pytest.mark.parametrize("params", [*HOMOGENEOUS_SETS, (63, 5, 1, 2, 2 / 7, 0, 3)],
                             ids=lambda params: f"N{params[0]}-rho{params[4]:.3f}")
    def test_solve_lanes_homogeneous(self, monkeypatch, params):
        rp, ctx, hp = setup(*params)
        system = BetheSystem(hp, ctx, HOMOGENEOUS)
        self.assert_same_solve_lanes(monkeypatch, system, SolverConfig(starts=64, seed=3))

    @staticmethod
    def assert_same_run(fj, starts, trials):
        """The package kernel hands over the lanes of the plain kernel that
        sends `trials` trial steps a pass, both at solver.MAX_ITER.  At
        the package's WINDOW both hand them over in the same order after the
        same calls of fj, row for row; at any other window the lanes are the
        same, by index."""
        runs = []
        for kernel in (newton_lanes, partial(reference_kernel.newton_lanes, trials=trials,
                                             budget=solver.MAX_ITER)):
            calls = []

            def recording(X, lanes, calls=calls):
                calls.append((lanes.tolist(), X.tobytes()))
                return fj(X, lanes)
            runs.append((list(kernel(recording, starts)), calls))
        (got, calls), (want, want_calls) = runs
        if trials == WINDOW:
            assert_identical_lanes(got, want)
            assert calls == want_calls
        else:
            assert_identical_lanes(*(sorted(lanes, key=lambda lane: lane[0])
                                     for lanes in (got, want)))
        return got

    @pytest.mark.parametrize("trials", [1, 2, 3, 4, MAX_HALVINGS + 1])
    def test_lanes_that_reach_max_halvings(self, max_iter, trials):
        # F = x with J = 0.75 * 2^-e: the first step that lowers |F| is 2^-e,
        # which takes x to about -x/3.  e grows by one on every odd iteration
        # of a growing lane, so its windows start past k0 + 1 and are cut by
        # MAX_HALVINGS; e >= 30 finds no step, and the lane is spent
        lanes = [(24, True), (26, False), (27, True), (28, True), (29, False), (30, False),
                 (31, True), (25, True)]
        x0 = np.array([[1.0 + 0.5j * i] for i in range(len(lanes))])
        base = np.array([e for e, _ in lanes])
        grows = np.array([g for _, g in lanes])

        def fj(X, idx):
            i = np.rint(np.log(np.abs(x0[idx, 0]) / np.abs(X[:, 0])) / np.log(3)).astype(int)
            e = base[idx] + (grows[idx] & (i % 2 == 1))
            J = np.ldexp(0.75, -e).astype(np.complex128)[:, None, None]
            return X.copy(), J, np.zeros(len(X), dtype=bool)
        budget = max_iter(50)
        got = self.assert_same_run(fj, list(x0), trials)
        spent = [its for _, _, ok, its in got if not ok and its < budget]
        assert len(spent) >= 2 and any(ok for _, _, ok, _ in got)

    @pytest.mark.parametrize("trials", [1, 3, 4])
    def test_lanes_that_reach_max_iter(self, max_iter, trials):
        # F = x with J = c: the full step takes x to (1 - 1/c) x.  With
        # c = 0.52 each step lowers |F| only by the factor 0.923, so the lane
        # takes full steps until MAX_ITER, at 50 or at 5; with c = 1 it
        # converges at once
        c = np.array([0.52, 1.0, 0.52, 1.0])

        def fj(X, lanes):
            J = c[lanes].astype(np.complex128)[:, None, None]
            return X.copy(), J, np.zeros(len(X), dtype=bool)
        starts = [[0.7 + 0j], [0.5 + 0.5j], [-1.3 + 2j], [2 - 1j]]
        for budget in (50, 5):
            max_iter(budget)
            got = self.assert_same_run(fj, starts, trials)
            assert [(index, ok, its) for index, _, ok, its in got] == \
                [(1, True, 1), (3, True, 1), (0, False, budget), (2, False, budget)]

    @pytest.mark.parametrize("trials", [1, 3, 5])
    def test_lanes_on_poles_and_bad_jacobians(self, trials):
        # Newton on tanh, with rows masked as poles or giving NaN or infinite
        # F by a hash of the point, and lanes whose J is zero (cond above
        # COND_LIMIT: lanes 3 and 8) or NaN (lane 4); start 6 is a pole
        roots = np.array([[1.5 - 0.5j, -0.7 + 1.1j], [0.3 + 0.2j, 2.0 - 1.0j]])

        def fj(X, lanes):
            with np.errstate(all="ignore"):
                T = np.tanh(X - roots[lanes % 2])
                tag = np.floor(np.abs(X[:, 0]) * 997) % 13
                T[tag == 1] = np.nan
                T[tag == 2, 1] = np.inf
                J = (1 - T * T)[:, :, None] * np.eye(2)
            J[lanes % 5 == 3] = 0
            J[lanes == 4] = np.nan
            return T, J, (tag == 3) | (np.abs(X[:, 0]) > 50)
        rng = np.random.default_rng(11)
        starts = [list(roots[i % 2] + rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
                  for i in range(12)]
        starts[6] = [60 + 0j, 1 + 0j]
        got = self.assert_same_run(fj, starts, trials)
        assert {index for index, _, _, its in got if its == 0} == {1, 3, 4, 6, 8}
        assert sum(ok for _, _, ok, _ in got) == 4
        assert sum(not ok and its > 0 for _, _, ok, its in got) == 3

    def test_lanes_whose_stacked_svd_fails(self, monkeypatch):
        # an inverse that fails leaves a stack to the SVD, a stacked SVD that
        # fails sends the lanes one by one, and a lane whose own inverse and
        # SVD fail is abandoned; the plain kernel meets the failing SVD alone
        def failing(call):
            def stack(J, **kwargs):
                if (J[:, 0, 0].real < -0.5).any():
                    raise np.linalg.LinAlgError(f"{call.__name__} failed")
                return call(J, **kwargs)
            return stack
        for name in ("inv", "svd"):
            monkeypatch.setattr(np.linalg, name, failing(getattr(np.linalg, name)))
        targets = np.array([4.0, -9.0, 16.0, -2.0, 1.0])

        def fj(X, lanes):
            return X * X - targets[lanes, None], 2 * X[:, :, None], np.zeros(len(X), bool)
        starts = [[3 + 0.5j], [-0.4 + 1j], [5 - 1j], [-0.3 - 0.2j], [0.7 + 0j]]
        got = self.assert_same_run(fj, starts, WINDOW)
        assert any(not ok and its < MAX_ITER for _, _, ok, its in got)


# the seeding filter's problems: solve-inhom's criterion-8 N = 2, 3, 4 and
# solve-wide's size cap (N = 63, one root)
SEEDING_PROBLEMS = [pytest.param(INHOMOGENEOUS, (N,) + CRITERION_8, id=f"inhom-N{N}")
                    for N in (2, 3, 4)] \
    + [pytest.param(HOMOGENEOUS, (63, 5, 1, 2, 2 / 7, 0, 3), id="wide")]
# The stacked pass's scales against reference's: the worst over these
# problems at seeds 0-19 is 1.14e-13, at criterion-8 N = 3, seed 10, where
# a root lies 2e-3 from c = a3 / rho and a3^2 - rho^2 x^2, which the two
# passes round differently (rho^2 (x x) against (rho rho x) x), cancels.
SCALES_RTOL = 1e-12


def plain_kept(system, want):
    """The plain filter's starts as seed_starts gives them: the kept starts
    (K, p), their scales and the count rejected."""
    kept = [(roots, ref[1]) for roots, ref in want if ref is not None]
    x = np.array([roots for roots, _ in kept], dtype=np.complex128).reshape(len(kept), system.p)
    return x, [scales for _, scales in kept], len(want) - len(kept)


class TestSeedsMatchThePlainFilter:
    """seed_starts' one stacked filter gives, bit for bit, the starts of the
    start-by-start filter in tests/reference_kernel.py, redraws included."""

    @pytest.mark.parametrize("mode, params", SEEDING_PROBLEMS)
    def test_starts_are_the_plain_filters(self, mode, params):
        rp, ctx, hp = setup(*params)
        system = BetheSystem(hp, ctx, mode)
        for seed in range(20):
            cfg = SolverConfig(starts=64, seed=seed)
            x, scales, (F, J), rejected = seed_starts(system, cfg)
            want = reference_kernel.seed_starts(system, cfg)
            want_x, want_scales, want_rejected = plain_kept(system, want)
            assert x.tobytes() == want_x.tobytes() and rejected == want_rejected
            assert scales.shape == x.shape
            for row, ref in zip(scales, want_scales, strict=True):
                np.testing.assert_allclose(row, ref, rtol=SCALES_RTOL, atol=0)
            assert F.shape == x.shape and J.shape == F.shape + (system.p,)

    def test_a_missed_start_is_redrawn_in_the_plain_order(self, monkeypatch):
        # criterion-8 N = 2, seed 10: the first draw of start 43 misses the
        # margin, so the next draw is start 43's, not start 44's
        rp, ctx, hp = setup(2, *CRITERION_8)
        system = BetheSystem(hp, ctx, INHOMOGENEOUS)
        cfg = SolverConfig(starts=64, seed=10)
        misses = []
        want = reference_kernel.seed_starts(system, cfg, misses)
        assert [(i, m) for i, m in enumerate(misses) if m] == [(43, 1)]
        rows, closed_form = [], BetheSystem.closed_form

        def recording(self, roots, **kwargs):
            rows.append(len(roots))
            return closed_form(self, roots, **kwargs)
        monkeypatch.setattr(BetheSystem, "closed_form", recording)
        x, scales, (F, J), rejected = seed_starts(system, cfg)
        # 64 draws give 63 starts; one more draw gives start 63
        assert rows == [64, 1]
        assert x.tobytes() == plain_kept(system, want)[0].tobytes()
        assert rejected == 0 and len(x) == len(scales) == len(F) == 64

    def test_vacuum_is_the_one_start(self):
        rp, ctx, hp = setup(3, 11, 1, 2, 2 / 5, 0, 3)  # p_bar = 0
        system = BetheSystem(hp, ctx, HOMOGENEOUS)
        assert system.p == 0
        cfg = SolverConfig(starts=64, seed=0)
        x, scales, (F, J), rejected = seed_starts(system, cfg)
        assert (x.shape, scales.shape, rejected) == ((1, 0), (1, 0), 0)
        assert (F.shape, J.shape) == ((1, 0), (1, 0, 0))
        assert reference_kernel.seed_starts(system, cfg) == [([], ([], []))]


def planted_jacobians(p, rng):
    """Jacobians U diag(s) V^H with cond(J) of about 1, 1e12, 9.9e13,
    1.01e14 and 1e16 (all 1 at p = 1), then an exactly singular J (two
    equal rows; J = 0 at p = 1) and J = 0."""
    def unitary():
        return np.linalg.qr(rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))[0]

    regular = [(unitary() * np.geomspace(1.0, 1.0 / cond, p)) @ unitary().conj().T
               for cond in (1.0, 1e12, 9.9e13, 1.01e14, 1e16)]
    singular = np.zeros((p, p), dtype=np.complex128)
    if p > 1:
        singular = regular[0].copy()
        singular[-1] = singular[0]
    return regular, [singular, np.zeros((p, p), dtype=np.complex128)]


class TestConditionBound:
    """_newton_steps accepts most lanes on the inverse-norm bound, without
    an SVD, yet decides every lane as the SVD rule does and takes the plain
    kernel's steps."""

    @pytest.mark.parametrize("p", range(1, 11))
    def test_ok_mask_is_the_svd_rule(self, monkeypatch, p):
        rng = np.random.default_rng(p)
        regular, singular = planted_jacobians(p, rng)
        svd, sent = np.linalg.svd, []

        def counting(J, **kwargs):
            sent.append(len(J))
            return svd(J, **kwargs)
        stacks = [regular, regular + singular, singular[::-1] + regular[::-1]] \
            + [[J] for J in regular + singular]
        for stack in stacks:
            J = np.array(stack)
            F = rng.standard_normal((len(J), p)) + 1j * rng.standard_normal((len(J), p))
            s = svd(J, compute_uv=False)
            with np.errstate(all="ignore"):
                rule = s[:, 0] / s[:, -1] <= solver.COND_LIMIT
            delta, plain_ok = reference_kernel._newton_steps(J, F)
            sent.clear()
            monkeypatch.setattr(np.linalg, "svd", counting)
            ok, steps = solver._newton_steps(J, F)
            monkeypatch.setattr(np.linalg, "svd", svd)
            assert ok.tolist() == rule.tolist() == plain_ok.tolist()
            assert steps.tobytes() == delta[ok].tobytes()
            if stack is regular:  # the cond = 1 lane never reaches the SVD
                assert sum(sent) <= (len(regular) - 1 if p > 1 else 0)
                assert rule.tolist() == [True] * 5 if p == 1 else [True] * 3 + [False] * 2
        assert rule.tolist() == [False]  # the last stack is J = 0

    def test_well_conditioned_lanes_skip_the_svd(self, monkeypatch):
        # a whole criterion-8 N = 4 solve decides its lanes without an SVD
        def failing(*args, **kwargs):
            raise AssertionError("SVD called")
        rp, ctx, hp = setup(4, *CRITERION_8)
        system = BetheSystem(hp, ctx, INHOMOGENEOUS)
        x, scales, first, _ = seed_starts(system, SolverConfig(starts=64, seed=0))
        want = list(reference_kernel.lanes(system, x, scales, WINDOW))
        monkeypatch.setattr(np.linalg, "svd", failing)
        assert_identical_lanes(list(solver._lanes(system, x, scales, first)), want)
