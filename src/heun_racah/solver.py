"""Multistart Newton solver for the Bethe systems, with oracle certification.

The homogeneous system solves U_r(x_1..x_p_bar) = 0 and the inhomogeneous
one (p = N) solves U_r + U_r^(i) = 0; both are cleared of denominators, so
Newton never meets the removable poles of the equivalent ratio equations.
Newton takes their residuals and closed-form Jacobian from one
bethe.ResidualKernel pass per point.
Converged root sets are deflated modulo the permutation-and-sign symmetry
and certified against the dense eigendecomposition of W, which is entirely
independent of the Bethe machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bethe
from .bethe import (BetheState, HOMOGENEOUS, INHOMOGENEOUS, bethe_vector,
                    canonical_roots, pick_u_aux)
from .core import dense_spectrum
from .dynamical import DynContext
from .errors import ModeError, ParameterDomainError, SolverFailure
from .heun import HeunParams, build_W_parametric, integer_p_bar
from .racah import RacahParams, y_eigenvalue

EIGEN_RESIDUAL_TOL = 1e-8
BETHE_RESIDUAL_TOL = 1e-9
MATCH_TOL = 1e-6
COND_LIMIT = 1e14
MAX_HALVINGS = 30


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 200
    newton_tol: float = 1e-12
    starts: int = 64
    seed: int = 0
    jacobian_step: float = 1e-7
    deflation_tol: float = 1e-6
    pole_margin: float = 1e-3

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        for name in ("newton_tol", "jacobian_step", "deflation_tol", "pole_margin"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class SolveReport:
    mode: str
    states: list[BetheState]
    attempts: int
    converged: int
    distinct: int
    spectrum_coverage: list[tuple[complex, bool]]
    ambiguous_matches: list[complex] = field(default_factory=list)
    seed: int = 0
    p_bar: int | None = None
    diagnostics: dict = field(default_factory=dict)

    def coverage_fraction(self) -> float:
        if not self.spectrum_coverage:
            return 0.0
        return sum(1 for _, ok in self.spectrum_coverage if ok) / len(self.spectrum_coverage)

    def to_json_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "seed": self.seed,
            "attempts": self.attempts,
            "converged": self.converged,
            "distinct": self.distinct,
            "states": [s.to_json_dict() for s in self.states],
            "spectrum_coverage": [
                {"eigenvalue": [ev.real, ev.imag], "matched": bool(ok)}
                for ev, ok in self.spectrum_coverage],
            "ambiguous_matches": [[z.real, z.imag] for z in self.ambiguous_matches],
        }
        if self.p_bar is not None:
            out["p_bar"] = self.p_bar
        if self.diagnostics:
            out["diagnostics"] = self.diagnostics
        return out


def newton_refine(f, x0, cfg: SolverConfig, jac=None):
    """Damped Newton; central finite-difference Jacobian unless jac is given.

    Returns (x, converged, iterations).  A start is abandoned (converged
    False) on a pole at the start point, a Jacobian condition estimate
    above 1e14, or thirty failed step halvings.  Convergence means
    ||f||_inf <= newton_tol * (1 + ||f(x_start)||_inf).
    """
    x = np.asarray(x0, dtype=np.complex128).copy()
    n = x.size
    fx = _try_eval(f, x)
    if fx is None:
        return x, False, 0
    scale = 1.0 + float(np.max(np.abs(fx))) if n else 1.0
    h = cfg.jacobian_step

    for it in range(cfg.max_iter):
        if n == 0 or np.max(np.abs(fx)) <= cfg.newton_tol * scale:
            return x, True, it
        if jac is not None:
            J = np.asarray(jac(x), dtype=np.complex128).reshape(n, n)
        else:
            J = np.empty((n, n), dtype=np.complex128)
            for j in range(n):
                step = np.zeros(n, dtype=np.complex128)
                step[j] = h
                fp = _try_eval(f, x + step)
                fm = _try_eval(f, x - step)
                if fp is None or fm is None:
                    return x, False, it
                J[:, j] = (fp - fm) / (2 * h)
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
            ft = _try_eval(f, xt)
            if ft is not None and float(np.max(np.abs(ft))) < best:
                x, fx = xt, ft
                break
            t *= 0.5
        else:
            return x, False, it
    converged = n == 0 or bool(np.max(np.abs(fx)) <= cfg.newton_tol * scale)
    return x, converged, cfg.max_iter


def _try_eval(f, x):
    try:
        out = np.asarray(f(x), dtype=np.complex128)
    except (ParameterDomainError, ZeroDivisionError, FloatingPointError, OverflowError):
        return None
    if not np.all(np.isfinite(out)):
        return None
    return out


def _xi_zero_guesses(p: int, hp: HeunParams, rp: RacahParams) -> list[complex]:
    """Analytic start guesses: zeros of the vacuum weight at index m_bar - p."""
    N, bt, g, d = rp.N, rp.beta, rp.gamma, rp.delta
    shifted = 2 * (hp.m_bar - p) - g - d
    return [-N + (bt - g + d), -N - (bt - g + d),
            N + 2 + g + d + bt, N + 2 + g + d - bt, shifted]


def _root_margin(roots, p: int, hp: HeunParams, rp: RacahParams) -> float:
    """Pole distance of the cleared residual map at a root configuration."""
    g, d = rp.gamma, rp.delta
    m_shift = d + g - 2 * (hp.m_bar - p) + 2
    vals = []
    for i, x in enumerate(roots):
        vals += [abs(x), abs(x - 1), abs(x + 1),
                 abs(m_shift - x), abs(m_shift + x)]
        for y in roots[:i]:
            vals.append(abs(x * x - y * y))
    return min(vals, default=1.0)


def seed_starts(mode: str, hp: HeunParams, rp: RacahParams,
                cfg: SolverConfig) -> list[list[complex]]:
    """Deterministic multistart seeds: annulus draws mixed with perturbed
    zeros of the vacuum weight, canonicalized and pole-filtered."""
    if mode == HOMOGENEOUS:
        p = integer_p_bar(hp, rp.N)
        if p is None:
            raise ModeError(
                f"no nonnegative integer root count <= N={rp.N}: candidates "
                f"{hp.p_bar_plus} and {hp.p_bar_minus}")
    elif mode == INHOMOGENEOUS:
        p = rp.N
    else:
        raise ModeError(f"unknown mode {mode!r}")

    rng = np.random.default_rng(cfg.seed)
    lam_max = max(abs(y_eigenvalue(x, rp)) for x in range(rp.N + 1))
    rmax = max(1.0, 2.0 * np.sqrt(lam_max))
    guesses = [z for z in _xi_zero_guesses(p, hp, rp) if abs(z) > cfg.pole_margin]

    starts: list[list[complex]] = []
    for _ in range(cfg.starts):
        for _attempt in range(200):
            roots = []
            for _k in range(p):
                if guesses and rng.uniform() < 0.5:
                    z = guesses[int(rng.integers(len(guesses)))]
                    z = z * (1 + 0.05 * (rng.standard_normal() + 1j * rng.standard_normal()))
                else:
                    r = rng.uniform(0.5, rmax)
                    th = rng.uniform(0, 2 * np.pi)
                    z = complex(r * np.cos(th), r * np.sin(th))
                roots.append(z)
            roots = list(canonical_roots(roots))
            if _root_margin(roots, p, hp, rp) >= cfg.pole_margin:
                break
        starts.append(roots)
    return starts


def _match_oracle(value: complex, oracle: np.ndarray):
    """(index of nearest oracle eigenvalue within tolerance, ambiguity flag)."""
    gaps = np.abs(oracle - value)
    order = np.argsort(gaps)
    idx = int(order[0])
    if gaps[idx] > MATCH_TOL * max(1.0, abs(oracle[idx])):
        return None, False
    ambiguous = len(oracle) > 1 and \
        gaps[order[1]] <= MATCH_TOL * max(1.0, abs(oracle[int(order[1])]))
    return idx, ambiguous


def _certify(roots, mode, hp, rp, ctx, cfg, W, W_fro, oracle, u_aux):
    """Certify one converged configuration; returns (state, reason)."""
    roots = list(canonical_roots(roots))
    p = len(roots)
    if _root_margin(roots, p, hp, rp) < cfg.pole_margin:
        return None, "pole_margin"
    for i, x in enumerate(roots):
        for y in roots[:i]:
            if abs(x * x - y * y) < cfg.pole_margin:
                return None, "root_collision"
    try:
        uax = u_aux
        if uax is None or bethe.u_aux_margin(uax, roots, p, hp, rp) < bethe.U_AUX_MARGIN:
            uax = pick_u_aux(roots, p, hp, rp, seed=cfg.seed)
        if mode == HOMOGENEOUS:
            residuals = [bethe.unwanted_U(r, roots, hp, rp, ctx) for r in range(1, p + 1)]
            scales = [bethe.unwanted_scale(r, roots, hp, rp) for r in range(1, p + 1)]
        else:
            residuals = bethe.inhomogeneous_residuals(roots, uax, hp, rp, ctx)
            scales = bethe.inhomogeneous_scales(roots, uax, hp, rp, ctx)
        if any(abs(res) > BETHE_RESIDUAL_TOL * sc for res, sc in zip(residuals, scales)):
            return None, "bethe_residual"
        eigenvalue = bethe.eigenvalue_w(uax, roots, hp, rp, ctx)
        if mode == INHOMOGENEOUS:
            w_i, _ = bethe.inhomogeneous_terms(roots, uax, hp, rp, ctx)
            eigenvalue = eigenvalue + w_i
        vec = bethe_vector(roots, hp.m_bar, ctx)
    except ParameterDomainError:
        return None, "pole"
    vnorm = float(np.linalg.norm(vec))
    if not np.isfinite(vnorm) or vnorm < np.finfo(float).tiny:
        return None, "degenerate_vector"
    eigen_residual = float(np.linalg.norm(W @ vec - eigenvalue * vec) / (W_fro * vnorm))
    if not np.isfinite(eigen_residual) or eigen_residual > EIGEN_RESIDUAL_TOL:
        return None, "eigen_residual"
    idx, _amb = _match_oracle(complex(eigenvalue), oracle)
    if idx is None:
        return None, "no_oracle_match"
    state = BetheState(roots=tuple(roots), mode=mode, u_aux=complex(uax),
                       eigenvalue=complex(eigenvalue),
                       bethe_residuals=tuple(complex(r) for r in residuals),
                       eigen_residual=eigen_residual)
    return state, "ok"


def _is_duplicate(roots, states, tol: float) -> bool:
    arr = np.asarray(roots, dtype=np.complex128)
    for s in states:
        other = np.asarray(s.roots, dtype=np.complex128)
        if other.size == arr.size and \
                (arr.size == 0 or float(np.max(np.abs(arr - other))) < tol):
            return True
    return False


def _scaled_maps(kernel, norms):
    """Residual map and Jacobian with row r scaled by norms[r].

    Newton asks for the Jacobian only at the last point it evaluated, so
    the Jacobian from that one kernel pass is kept and reused.
    """
    last = [None, None]

    def f(x):
        F, J = kernel(x)
        last[:] = x, J
        return [F[r] * norms[r] for r in range(len(norms))]

    def jac(x):
        J = last[1] if last[0] is x else kernel(x)[1]
        return [[v * n for v in row] for row, n in zip(J, norms)]

    return f, jac


def _solve(mode: str, hp: HeunParams, rp: RacahParams, ctx: DynContext,
           cfg: SolverConfig, p: int, u_aux) -> SolveReport:
    W = build_W_parametric(hp, ctx)
    W_fro = float(np.linalg.norm(W))
    oracle = dense_spectrum(W).eigenvalues

    if mode == INHOMOGENEOUS:
        u_for_scales = pick_u_aux([], p, hp, rp, seed=cfg.seed) if u_aux is None else u_aux

    states: list[BetheState] = []
    rejects: dict[str, int] = {}
    attempts = converged = 0

    if p == 0:
        attempts = converged = 1
        state, reason = _certify([], mode, hp, rp, ctx, cfg, W, W_fro, oracle, u_aux)
        if state is not None:
            states.append(state)
        else:
            rejects[reason] = 1
    else:
        kernel = bethe.ResidualKernel(hp, rp, p, mode)
        for start in seed_starts(mode, hp, rp, cfg):
            attempts += 1
            try:
                base_scales = (
                    [bethe.unwanted_scale(r, start, hp, rp) for r in range(1, p + 1)]
                    if mode == HOMOGENEOUS
                    else bethe.inhomogeneous_scales(start, u_for_scales, hp, rp, ctx))
            except ParameterDomainError:
                rejects["pole"] = rejects.get("pole", 0) + 1
                continue
            f, jac = _scaled_maps(kernel, [1.0 / s for s in base_scales])
            roots, ok, _its = newton_refine(f, start, cfg, jac=jac)
            if not ok:
                rejects["newton"] = rejects.get("newton", 0) + 1
                continue
            converged += 1
            state, reason = _certify(list(roots), mode, hp, rp, ctx, cfg,
                                     W, W_fro, oracle, u_aux)
            if state is None:
                rejects[reason] = rejects.get(reason, 0) + 1
                continue
            if _is_duplicate(state.roots, states, cfg.deflation_tol):
                continue
            states.append(state)

    states.sort(key=lambda s: (s.eigenvalue.real, s.eigenvalue.imag,
                               tuple((x.real, x.imag) for x in s.roots)))
    matched = np.zeros(len(oracle), dtype=bool)
    ambiguous: list[complex] = []
    for s in states:
        idx, amb = _match_oracle(s.eigenvalue, oracle)
        if idx is not None:
            matched[idx] = True
        if amb:
            ambiguous.append(s.eigenvalue)
    coverage = [(complex(ev), bool(ok)) for ev, ok in zip(oracle, matched)]

    report = SolveReport(mode=mode, states=states, attempts=attempts,
                         converged=converged, distinct=len(states),
                         spectrum_coverage=coverage, ambiguous_matches=ambiguous,
                         seed=cfg.seed, p_bar=p if mode == HOMOGENEOUS else None,
                         diagnostics={"rejected": rejects} if rejects else {})
    if not states:
        raise SolverFailure(
            f"{mode} solve produced no certifiable state out of {attempts} starts "
            f"({converged} converged; rejections: {rejects})")
    return report


def solve_homogeneous(hp: HeunParams, rp: RacahParams, ctx: DynContext,
                      cfg: SolverConfig | None = None) -> SolveReport:
    """Solve U_r = 0 at the integer root count p_bar and certify against W."""
    cfg = cfg or SolverConfig()
    p_bar = integer_p_bar(hp, rp.N)
    if p_bar is None:
        raise ModeError(
            f"homogeneous mode needs an integer root count in [0, {rp.N}]; "
            f"candidates are {hp.p_bar_plus} and {hp.p_bar_minus}; "
            f"use inhomogeneous mode instead")
    lam, lam_scale = bethe.extension_prefactor(p_bar, hp, rp)
    if abs(lam) > 1e-9 * lam_scale:
        raise ModeError(
            f"extension prefactor does not vanish at p_bar={p_bar}: |{lam}|")
    return _solve(HOMOGENEOUS, hp, rp, ctx, cfg, p_bar, None)


def solve_inhomogeneous(hp: HeunParams, rp: RacahParams, ctx: DynContext,
                        cfg: SolverConfig | None = None,
                        u_aux: complex | None = None) -> SolveReport:
    """Solve U_r + U_r^(i) = 0 with p = N roots and certify against W.

    Partial spectrum coverage is reported, never raised; u_aux only enters
    the reported eigenvalues and must not change them on-shell.
    """
    cfg = cfg or SolverConfig()
    return _solve(INHOMOGENEOUS, hp, rp, ctx, cfg, rp.N, u_aux)
