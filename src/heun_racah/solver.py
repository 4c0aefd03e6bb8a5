"""Multistart Newton solver for the Bethe systems, with oracle certification.

The homogeneous system solves U_r(x_1..x_p_bar) = 0 and the inhomogeneous
one (p = N) solves U_r + U_r^(i) = 0; both are cleared of denominators, so
Newton never meets the removable poles of the equivalent ratio equations.
Each solve builds one bethe.BetheSystem, which fixes the mode, the root
count and the root-independent constants; Newton takes residuals and
closed-form Jacobian from one of its closed_form passes per point.
Converged root sets are deflated modulo the permutation-and-sign symmetry
and certified against the dense eigendecomposition of W, which is entirely
independent of the Bethe machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bethe import (BetheState, BetheSystem, HOMOGENEOUS, INHOMOGENEOUS, bethe_vector,
                    canonical_roots, pick_u_aux)
from .core import dense_spectrum
from .dynamical import DynContext
from .errors import ParameterDomainError, SolverFailure
from .heun import HeunParams, build_W_parametric
from .racah import RacahParams, y_eigenvalue
from .sampling import REJECT_MARGIN, within_margin

EIGEN_RESIDUAL_TOL = 1e-8
BETHE_RESIDUAL_TOL = 1e-9
MATCH_TOL = 1e-6
COND_LIMIT = 1e14
MAX_HALVINGS = 30
MAX_ITER = 200
NEWTON_TOL = 1e-12
JACOBIAN_STEP = 1e-7
DEFLATION_TOL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    starts: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")


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


def newton_refine(f, x0, jac=None):
    """Damped Newton; central finite-difference Jacobian unless jac is given.

    Returns (x, converged, iterations).  A start is abandoned (converged
    False) on a pole at the start point, a Jacobian condition estimate
    above 1e14, or thirty failed step halvings.  Convergence means
    ||f||_inf <= NEWTON_TOL * (1 + ||f(x_start)||_inf).
    """
    x = np.asarray(x0, dtype=np.complex128).copy()
    n = x.size
    fx = _try_eval(f, x)
    if fx is None:
        return x, False, 0
    scale = 1.0 + float(np.max(np.abs(fx))) if n else 1.0

    for it in range(MAX_ITER):
        if n == 0 or np.max(np.abs(fx)) <= NEWTON_TOL * scale:
            return x, True, it
        if jac is not None:
            J = np.asarray(jac(x), dtype=np.complex128).reshape(n, n)
        else:
            J = np.empty((n, n), dtype=np.complex128)
            for j in range(n):
                step = np.zeros(n, dtype=np.complex128)
                step[j] = JACOBIAN_STEP
                fp = _try_eval(f, x + step)
                fm = _try_eval(f, x - step)
                if fp is None or fm is None:
                    return x, False, it
                J[:, j] = (fp - fm) / (2 * JACOBIAN_STEP)
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
    converged = n == 0 or bool(np.max(np.abs(fx)) <= NEWTON_TOL * scale)
    return x, converged, MAX_ITER


def _try_eval(f, x):
    try:
        out = np.asarray(f(x), dtype=np.complex128)
    except (ParameterDomainError, ZeroDivisionError, FloatingPointError, OverflowError):
        return None
    if not np.all(np.isfinite(out)):
        return None
    return out


def _xi_zero_guesses(system: BetheSystem) -> list[complex]:
    """Analytic start guesses: zeros of the vacuum weight at index m_bar - p."""
    rp = system.rp
    N, bt, g, d = rp.N, rp.beta, rp.gamma, rp.delta
    shifted = 2 * (system.hp.m_bar - system.p) - g - d
    return [-N + (bt - g + d), -N - (bt - g + d),
            N + 2 + g + d + bt, N + 2 + g + d - bt, shifted]


def seed_starts(system: BetheSystem, cfg: SolverConfig) -> list[list[complex]]:
    """Deterministic multistart seeds: annulus draws mixed with perturbed
    zeros of the vacuum weight, canonicalized, and redrawn (up to 200 times)
    while the reference residual map does not keep the pole margin there."""
    rp = system.rp
    rng = np.random.default_rng(cfg.seed)
    lam_max = max(abs(y_eigenvalue(x, rp)) for x in range(rp.N + 1))
    rmax = max(1.0, 2.0 * np.sqrt(lam_max))
    guesses = [z for z in _xi_zero_guesses(system) if abs(z) > REJECT_MARGIN]

    starts: list[list[complex]] = []
    for _ in range(cfg.starts):
        for _attempt in range(200):
            roots = []
            for _k in range(system.p):
                if guesses and rng.uniform() < 0.5:
                    z = guesses[int(rng.integers(len(guesses)))]
                    z = z * (1 + 0.05 * (rng.standard_normal() + 1j * rng.standard_normal()))
                else:
                    r = rng.uniform(0.5, rmax)
                    th = rng.uniform(0, 2 * np.pi)
                    z = complex(r * np.cos(th), r * np.sin(th))
                roots.append(z)
            roots = list(canonical_roots(roots))
            if within_margin(system.reference, roots) is not None:
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


def _certify(roots, system: BetheSystem, seed: int, W, W_fro, oracle, u_aux):
    """Certify one converged configuration; returns (state, reason)."""
    roots = list(canonical_roots(roots))
    reference = within_margin(system.reference, roots)
    if reference is None:
        return None, "pole_margin"
    residuals, scales = reference
    if any(abs(res) > BETHE_RESIDUAL_TOL * sc for res, sc in zip(residuals, scales)):
        return None, "bethe_residual"
    try:
        uax, eigenvalue = pick_u_aux(system, roots, seed, u_aux)
    except ParameterDomainError:
        return None, "pole"
    vec = bethe_vector(roots, system.hp.m_bar, system.ctx)
    vnorm = float(np.linalg.norm(vec))
    if not np.isfinite(vnorm) or vnorm < np.finfo(float).tiny:
        return None, "degenerate_vector"
    eigen_residual = float(np.linalg.norm(W @ vec - eigenvalue * vec) / (W_fro * vnorm))
    if not np.isfinite(eigen_residual) or eigen_residual > EIGEN_RESIDUAL_TOL:
        return None, "eigen_residual"
    idx, _amb = _match_oracle(complex(eigenvalue), oracle)
    if idx is None:
        return None, "no_oracle_match"
    state = BetheState(roots=tuple(roots), mode=system.mode, u_aux=complex(uax),
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
    """Residual map and Jacobian with row r scaled by norms[r]; kernel maps
    roots to (F, J), as BetheSystem.closed_form does.

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


def _solve(system: BetheSystem, cfg: SolverConfig, u_aux) -> SolveReport:
    W = build_W_parametric(system.hp, system.ctx)
    W_fro = float(np.linalg.norm(W))
    oracle = dense_spectrum(W).eigenvalues

    states: list[BetheState] = []
    rejects: dict[str, int] = {}
    attempts = converged = 0
    # with no roots to solve for, the vacuum is the one start
    for start in seed_starts(system, cfg) if system.p else [[]]:
        attempts += 1
        try:
            _, base_scales = system.reference(start)
        except ParameterDomainError:
            rejects["pole"] = rejects.get("pole", 0) + 1
            continue
        f, jac = _scaled_maps(system.closed_form, [1.0 / s for s in base_scales])
        roots, ok, _its = newton_refine(f, start, jac=jac)
        if not ok:
            rejects["newton"] = rejects.get("newton", 0) + 1
            continue
        converged += 1
        state, reason = _certify(list(roots), system, cfg.seed, W, W_fro, oracle, u_aux)
        if state is None:
            rejects[reason] = rejects.get(reason, 0) + 1
            continue
        if _is_duplicate(state.roots, states, DEFLATION_TOL):
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

    report = SolveReport(mode=system.mode, states=states, attempts=attempts,
                         converged=converged, distinct=len(states),
                         spectrum_coverage=coverage, ambiguous_matches=ambiguous,
                         seed=cfg.seed, p_bar=system.p_bar,
                         diagnostics={"rejected": rejects} if rejects else {})
    if not states:
        raise SolverFailure(
            f"{system.mode} solve produced no certifiable state out of {attempts} starts "
            f"({converged} converged; rejections: {rejects})")
    return report


def _system(hp: HeunParams, rp: RacahParams, ctx: DynContext, mode: str) -> BetheSystem:
    """The solve's Bethe system; rp must be the parameters ctx was built on."""
    if rp != ctx.rep.params:
        raise ParameterDomainError(
            f"Racah parameters {rp} are not those of the representation, {ctx.rep.params}")
    return BetheSystem(hp, ctx, mode)


def solve_homogeneous(hp: HeunParams, rp: RacahParams, ctx: DynContext,
                      cfg: SolverConfig | None = None) -> SolveReport:
    """Solve U_r = 0 at the integer root count p_bar and certify against W."""
    return _solve(_system(hp, rp, ctx, HOMOGENEOUS), cfg or SolverConfig(), None)


def solve_inhomogeneous(hp: HeunParams, rp: RacahParams, ctx: DynContext,
                        cfg: SolverConfig | None = None,
                        u_aux: complex | None = None) -> SolveReport:
    """Solve U_r + U_r^(i) = 0 with p = N roots and certify against W.

    Partial spectrum coverage is reported, never raised; u_aux only enters
    the reported eigenvalues and must not change them on-shell.
    """
    return _solve(_system(hp, rp, ctx, INHOMOGENEOUS), cfg or SolverConfig(), u_aux)
