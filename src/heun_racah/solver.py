"""Multistart Newton solver for the Bethe systems, with oracle certification.

The homogeneous system solves U_r(x_1..x_p_bar) = 0 and the inhomogeneous
one (p = N) solves U_r + U_r^(i) = 0; both are cleared of denominators, so
Newton never meets the removable poles of the equivalent ratio equations.
Each solve builds one bethe.BetheSystem.  Every start goes through damped
Newton on its closed_form pass (residuals and closed-form Jacobian at once),
whose line search resumes two halvings above the step it last accepted, then
deflation, which drops a root set whose sign orbits {x, -x} repeat a
certified state's, then certification of each new state against the dense
eigendecomposition of W, which is entirely independent of the Bethe machinery.
The starts end early once every dense eigenvalue has a certified state.

The solve API keeps (hp, rp, ctx, cfg), the signature perfbench calls;
rp must be hp.rp, and BetheSystem matches hp with ctx.
"""

from __future__ import annotations

import cmath
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .bethe import (DEFLATION_TOL, BetheState, BetheSystem, HOMOGENEOUS, INHOMOGENEOUS,
                    bethe_vector, canonical_roots, pick_u_aux)
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


@dataclass(frozen=True)
class SolverConfig:
    starts: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class SolveReport:
    """A solve's states and its oracle spectrum, kept as arrays: the dense
    eigenvalues `oracle` and whether a state matched each, `matched`.
    attempts, converged and diagnostics count the starts _solve tried."""
    mode: str
    states: list[BetheState]
    attempts: int
    converged: int
    oracle: np.ndarray
    matched: np.ndarray
    ambiguous_matches: list[complex] = field(default_factory=list)
    seed: int = 0
    p_bar: int | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def distinct(self) -> int:
        """Certified states, each a distinct multiset of sign orbits."""
        return len(self.states)

    @property
    def spectrum_coverage(self) -> list[tuple[complex, bool]]:
        """(oracle eigenvalue, matched) pairs."""
        return [(complex(ev), bool(ok)) for ev, ok in zip(self.oracle, self.matched)]

    def coverage_fraction(self) -> float:
        return np.count_nonzero(self.matched) / self.matched.size if self.matched.size else 0.0

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


def newton_refine(fj, x0):
    """Damped Newton on a map fj(x) -> (F, J), with J = dF/dx at x.

    Returns (x, converged, iterations).  The line search takes the first of the
    steps 2^-k0, 2^-(k0+1), ... that strictly lowers ||F||_inf, with k0 = 0 at
    first and k0 = max(k - 2, 0) after accepting 2^-k.  A start is abandoned
    (converged False) on a pole at the start point, cond(J) = s_max/s_min above
    1e14, a failed SVD or solve, or no decrease down to step 2^-29.  Convergence
    means ||F||_inf (one float per evaluation) <= NEWTON_TOL * (1 + ||F(x0)||_inf).
    """
    x = np.asarray(x0, dtype=np.complex128).copy()
    out = _try_eval(fj, x)
    if out is None:
        return x, False, 0
    F, J, norm = out
    tol = NEWTON_TOL * (1.0 + norm)
    k0 = 0
    for it in range(MAX_ITER):
        if norm <= tol:
            return x, True, it
        J = np.asarray(J, dtype=np.complex128).reshape(x.size, x.size)
        if not np.isfinite(J).all():
            return x, False, it
        try:
            with np.errstate(all="ignore"):  # singular J: inf, or NaN when J = 0
                s = np.linalg.svd(J, compute_uv=False)
                if not s[0] / s[-1] <= COND_LIMIT:
                    return x, False, it
            delta = np.linalg.solve(J, -np.asarray(F, dtype=np.complex128))
        except np.linalg.LinAlgError:
            return x, False, it
        for k in range(k0, MAX_HALVINGS):
            xt = x + 0.5 ** k * delta
            out = _try_eval(fj, xt)
            if out is not None and out[2] < norm:
                x, (F, J, norm) = xt, out
                k0 = max(k - 2, 0)
                break
        else:
            return x, False, it
    return x, norm <= tol, MAX_ITER


def _try_eval(fj, x):
    """(F, J, ||F||_inf), F and J as fj gave them, or None on a pole or a non-finite F."""
    try:
        F, J = fj(x)
    except (ParameterDomainError, ZeroDivisionError, FloatingPointError, OverflowError):
        return None
    if not all(map(cmath.isfinite, F)):  # before max(), which NaN makes order-dependent
        return None
    return F, J, max(map(abs, F), default=0.0)


def _xi_zero_guesses(system: BetheSystem) -> list[complex]:
    """Analytic start guesses: zeros of the vacuum weight at index m_bar - p."""
    rp = system.hp.rp
    N, bt, g, d = rp.N, rp.beta, rp.gamma, rp.delta
    shifted = 2 * (system.hp.m_bar - system.p) - g - d
    return [-N + (bt - g + d), -N - (bt - g + d),
            N + 2 + g + d + bt, N + 2 + g + d - bt, shifted]


def seed_starts(system: BetheSystem, cfg: SolverConfig) -> list[tuple[list, tuple | None]]:
    """Deterministic multistart seeds: annulus draws mixed with perturbed
    zeros of the vacuum weight, canonicalized, each paired with the reference
    pass (residuals, scales) that kept the pole margin there, or with None
    when 200 redraws never did.  With no roots, the vacuum is the one start."""
    rp = system.hp.rp
    rng = np.random.default_rng(cfg.seed)
    lam_max = max(abs(y_eigenvalue(x, rp)) for x in range(rp.N + 1))
    rmax = max(1.0, 2.0 * np.sqrt(lam_max))
    guesses = [z for z in _xi_zero_guesses(system) if abs(z) > REJECT_MARGIN]

    starts = []
    for _ in range(cfg.starts if system.p else 1):
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
            reference = within_margin(system.reference, roots)
            if reference is not None:
                break
        starts.append((roots, reference))
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


def _certify(roots, system: BetheSystem, seed: int, W, W_fro, oracle):
    """Certify one converged configuration; returns (certified, reason), with
    certified (state, oracle index, ambiguity flag) or None when rejected."""
    roots = list(canonical_roots(roots))
    reference = within_margin(system.reference, roots)
    if reference is None:
        return None, "pole_margin"
    residuals, scales = reference
    if any(abs(res) > BETHE_RESIDUAL_TOL * sc for res, sc in zip(residuals, scales)):
        return None, "bethe_residual"
    try:
        uax, eigenvalue = pick_u_aux(system, roots, seed)
    except ParameterDomainError:
        return None, "pole"
    vec = bethe_vector(roots, system.hp.m_bar, system.ctx)
    vnorm = float(np.linalg.norm(vec))
    if not np.isfinite(vnorm) or vnorm < np.finfo(float).tiny:
        return None, "degenerate_vector"
    eigen_residual = float(np.linalg.norm(W @ vec - eigenvalue * vec) / (W_fro * vnorm))
    if not np.isfinite(eigen_residual) or eigen_residual > EIGEN_RESIDUAL_TOL:
        return None, "eigen_residual"
    idx, ambiguous = _match_oracle(complex(eigenvalue), oracle)
    if idx is None:
        return None, "no_oracle_match"
    state = BetheState(roots=tuple(roots), mode=system.mode, u_aux=complex(uax),
                       eigenvalue=complex(eigenvalue),
                       bethe_residuals=tuple(complex(r) for r in residuals),
                       eigen_residual=eigen_residual)
    return (state, idx, ambiguous), "ok"


def _is_duplicate(roots, states) -> bool:
    """Whether roots repeat a state's multiset of sign orbits {x, -x}: they
    match its roots in some order, each to within DEFLATION_TOL up to sign."""
    def same_orbits(other):
        left = list(other)
        for x in roots:
            near = [i for i, y in enumerate(left)
                    if min(abs(x - y), abs(x + y)) < DEFLATION_TOL]
            if not near:
                return False
            del left[near[0]]
        return not left
    return any(same_orbits(s.roots) for s in states)


def _solve(system: BetheSystem, cfg: SolverConfig) -> SolveReport:
    """Run the seeded starts (one when there are no roots) through Newton,
    deflation and certification until every oracle eigenvalue is matched;
    a later start could only repeat a certified orbit set, or give a second
    root set for an eigenvalue whose eigenvector is already certified."""
    W = build_W_parametric(system.hp, system.ctx)
    W_fro = float(np.linalg.norm(W))
    oracle = dense_spectrum(W).eigenvalues

    certified: list[tuple[BetheState, int, bool]] = []
    matched = np.zeros(len(oracle), dtype=bool)
    rejects: Counter = Counter()
    attempts = converged = 0
    for start, reference in seed_starts(system, cfg):
        attempts += 1
        if reference is None:
            rejects["pole_margin"] += 1
            continue
        norms = [1.0 / s for s in reference[1]]

        def fj(x):  # the closed form, row r scaled by norms[r]
            F, J = system.closed_form(x)
            return ([v * n for v, n in zip(F, norms)],
                    [[v * n for v in row] for row, n in zip(J, norms)])

        roots, ok, _its = newton_refine(fj, start)
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
        matched[entry[1]] = True
        if matched.all():
            break

    certified.sort(key=lambda c: (c[0].eigenvalue.real, c[0].eigenvalue.imag,
                                  tuple((x.real, x.imag) for x in c[0].roots)))
    states = [state for state, _, _ in certified]
    ambiguous = [state.eigenvalue for state, _, amb in certified if amb]
    report = SolveReport(mode=system.mode, states=states, attempts=attempts,
                         converged=converged, oracle=oracle, matched=matched,
                         ambiguous_matches=ambiguous,
                         seed=cfg.seed, p_bar=system.p_bar,
                         diagnostics={"rejected": dict(rejects)} if rejects else {})
    if not states:
        raise SolverFailure(
            f"{system.mode} solve produced no certifiable state out of {attempts} starts "
            f"({converged} converged; rejections: {dict(rejects)})")
    return report


def _system(hp: HeunParams, rp: RacahParams, ctx: DynContext, mode: str) -> BetheSystem:
    """The solve's Bethe system; rp must be hp.rp."""
    if rp != hp.rp:
        raise ParameterDomainError(
            f"Racah parameters {rp} are not those of the Heun parameters, {hp.rp}")
    return BetheSystem(hp, ctx, mode)


def solve_homogeneous(hp: HeunParams, rp: RacahParams, ctx: DynContext,
                      cfg: SolverConfig | None = None) -> SolveReport:
    """Solve U_r = 0 at the integer root count p_bar and certify against W."""
    return _solve(_system(hp, rp, ctx, HOMOGENEOUS), cfg or SolverConfig())


def solve_inhomogeneous(hp: HeunParams, rp: RacahParams, ctx: DynContext,
                        cfg: SolverConfig | None = None) -> SolveReport:
    """Solve U_r + U_r^(i) = 0 with p = N roots and certify against W.

    Partial spectrum coverage is reported, never raised.
    """
    return _solve(_system(hp, rp, ctx, INHOMOGENEOUS), cfg or SolverConfig())
