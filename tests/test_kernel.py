"""The Bethe system's closed-form residual-and-Jacobian pass against its references.

The references are the scalar residual maps in `bethe` (for values), central
finite differences and a sympy derivative (for the Jacobian), and Newton on
a finite-difference Jacobian (for the solver path).
"""

import numpy as np
import pytest
import sympy as sp

from heun_racah import bethe
from heun_racah.bethe import HOMOGENEOUS, INHOMOGENEOUS, BetheSystem, canonical_roots
from heun_racah.dynamical import DynContext
from heun_racah.errors import ModeError, ParameterDomainError
from heun_racah.heun import build_heun_params
from heun_racah.racah import build_params, build_representation
from heun_racah.solver import SolverConfig, newton_refine, seed_starts

from conftest import finite_difference_map

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
    return (lambda x: bethe.homogeneous_residuals(x, hp, ctx),
            lambda x: BetheSystem(hp, ctx, HOMOGENEOUS).reference(x)[1])


def cases():
    for N in range(1, 7):
        yield pytest.param(INHOMOGENEOUS, (N,) + CRITERION_8, id=f"inhom-N{N}")
    for params in HOMOGENEOUS_SETS:
        yield pytest.param(HOMOGENEOUS, params, id=f"hom-N{params[0]}-rho{params[4]:.3f}")


def kernel_for(mode, params):
    rp, ctx, hp = setup(*params)
    system = BetheSystem(hp, ctx, mode)
    return system.closed_form, system.p, hp, rp, ctx


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
    kernel, p, *_ = kernel_for(mode, params)
    assert p == 2
    with pytest.raises(ParameterDomainError):
        kernel(roots)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_newton_agrees_with_finite_difference_jacobian(N):
    """Each criterion-8 start converges to the same roots under both
    Jacobians, or fails under both."""
    rp, ctx, hp = setup(N, *CRITERION_8)
    system = BetheSystem(hp, ctx, INHOMOGENEOUS)
    cfg = SolverConfig(starts=64, seed=2)
    for start, (_, scales) in seed_starts(system, cfg):
        norms = np.array([1 / s for s in scales])

        def scaled(x):
            F, J = system.closed_form(list(x))
            return np.array(F) * norms, np.array(J) * norms[:, None]
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
        for start, (residuals, _) in seed_starts(system, SolverConfig(starts=16, seed=N)):
            for u in (2.37 + 0.91j, -3.1 + 0.2j):
                _, u_i = bethe.inhomogeneous_terms(u, start, hp)
                assert residuals == [bethe.unwanted_U(r, start, hp) + u_i[r - 1]
                                     for r in range(1, N + 1)]
