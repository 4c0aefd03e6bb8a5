"""Multistart Newton solver for the Bethe systems, completed by the T-Q
relation, with oracle certification.

The homogeneous system solves U_r(x_1..x_p_bar) = 0 and the inhomogeneous
one (p = N) solves U_r + U_r^(i) = 0; both are cleared of denominators, so
Newton never meets the removable poles of the equivalent ratio equations.
Each solve builds one bethe.BetheSystem, whose closed_form alone runs
before certification: it filters the starts in one pass (seed_starts), and
a bound on cond(J) spares most Newton steps the SVD (_newton_steps).  The
starts run as the lanes of one damped Newton (newton_lanes): each round
takes one stacked closed_form pass (residuals and closed-form Jacobian at
once) over every lane still searching.  Each lane's line search resumes
RESUME = 2 halvings above the step it last accepted, and a pass carries a
window of WINDOW = RESUME + 1 trial steps per lane, so a lane that keeps
accepting the same short step tries 2^-(k-2), 2^-(k-1) and 2^-k in one
pass, not three.  The window decides exactly as the one-step search does, so the
iterates are bit-identical; it only trades calls for rows (the README
gives a round's cost).  Each lane is handed over at the end of the round
it finishes in, then goes through deflation, which drops a root set whose
sign orbits {x, -x} repeat a certified state's, then certification of each
new state against the dense eigendecomposition of W, which is entirely
independent of the Bethe machinery.  Once p + 1 dense eigenvalues have a
certified state, as many as the Bethe ansatz gives (N + 1 in inhomogeneous
mode, p_bar + 1 in homogeneous mode), the solve stops and abandons the
lanes still running; the report's stopped flag says so.

When the lanes run out first, in either mode, the completion (complete)
fits the roots of each unmatched dense eigenvalue from the T-Q relation
(BetheSystem.tq_fits, one stacked pass), polishes them as lanes and
certifies them as above; the report's diagnostics record it under
"completion".  The README says why the fit comes after the lanes, not in
their place.

A SolveReport holds no Python object per state: each certified state is a
row of one structured array (SolveReport.rows: roots, bethe_residuals,
u_aux, eigenvalue, eigen_residual, the matched oracle index and the
ambiguity flag), and the reject counts are flat tuples.  The BetheState
list, the matched mask, the diagnostics dict and the JSON report are built
from them when read, so a report kept after its solve costs about 1.1 KB
in place of 2.9 KB at criterion-8 N = 2, 3, 4.

Every lane, the search's and the polish's, ends unconverged after MAX_ITER
= 16 iterations: the most any lane that certified a state needed at
criterion-8 N = 2, 3, 4 (SolverConfig seeds 0-7: 7, 10 and 16), the range
where the paper proves the reduction identity.  The completion certifies
what a stopped lane could still have reached.

The solve API keeps (hp, rp, ctx, cfg), the signature perfbench calls;
rp must be hp.rp, and BetheSystem matches hp with ctx.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import closing
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .bethe import (DEFLATION_TOL, BetheState, BetheSystem, HOMOGENEOUS, INHOMOGENEOUS,
                    bethe_vector, canonical_roots, pick_u_aux)
from .core import dense_spectrum, pole_margin
from .errors import ParameterDomainError, SolverFailure
from .heun import HeunParams, build_W_parametric
from .racah import DynContext, RacahParams, y_eigenvalue
from .sampling import REJECT_MARGIN, within_margin
from .serialize import scalars_to_pairs

EIGEN_RESIDUAL_TOL = 1e-8
BETHE_RESIDUAL_TOL = 1e-9
MATCH_TOL = 1e-6
COND_LIMIT = 1e14
MAX_HALVINGS = 30
MAX_ITER = 16  # the iteration budget of every lane; the completion follows the search
NEWTON_TOL = 1e-12
RESUME = 2  # a line search resumes RESUME halvings above its last accepted step
WINDOW = RESUME + 1  # the trial steps a searching lane sends in one pass
HALVINGS = np.ldexp(1.0, -np.arange(MAX_HALVINGS))  # the trial step 2^-k at exponent k


@dataclass(frozen=True)
class SolverConfig:
    starts: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@functools.cache
def _row_dtype(p: int) -> np.dtype:
    """The dtype of SolveReport.rows for p roots: one row per certified state."""
    return np.dtype([("roots", np.complex128, (p,)), ("bethe_residuals", np.complex128, (p,)),
                     ("u_aux", np.complex128), ("eigenvalue", np.complex128),
                     ("eigen_residual", np.float64), ("index", np.int32), ("ambiguous", np.bool_)])


def _flat(counts) -> tuple:
    """A {reason: count} mapping as the flat tuple (reason, count, ...)."""
    return tuple(chain.from_iterable(counts.items()))


def _counts(flat) -> dict:
    return dict(zip(flat[::2], flat[1::2]))


@dataclass(slots=True)
class SolveReport:
    """A solve's certified states and its oracle spectrum, laid out as the
    module docstring says: rows, one of _row_dtype(p) per state, sorted by
    eigenvalue then roots; the dense eigenvalues oracle; the lanes' rejects
    as the flat tuple rejected = (reason, count, ...) and, when the
    completion ran, completion = (fitted, certified, reason, count, ...).
    attempts, converged and rejected count the starts _solve tried: the
    pole-margin rejects, and the lanes handed over before it stopped.
    stopped: the solve met its p + 1 goal with lanes still running; it is
    not part of the JSON report."""
    mode: str
    rows: np.ndarray
    attempts: int
    converged: int
    oracle: np.ndarray
    seed: int = 0
    p_bar: int | None = None
    rejected: tuple = ()
    completion: tuple | None = None
    stopped: bool = False

    @classmethod
    def build(cls, system: BetheSystem, seed: int, certified, attempts: int, converged: int,
              oracle, rejected, completion: dict | None = None, stopped: bool = False):
        """The report of a solve of system from its certified (state, oracle
        index, ambiguity flag) triples, in any order, the lanes' rejects
        {reason: count} and complete's entry, when it ran."""
        certified = sorted(certified, key=lambda c: (c[0].eigenvalue.real, c[0].eigenvalue.imag,
                                                     tuple((x.real, x.imag) for x in c[0].roots)))
        rows = np.array([(s.roots, s.bethe_residuals, s.u_aux, s.eigenvalue, s.eigen_residual,
                          index, ambiguous) for s, index, ambiguous in certified],
                        dtype=_row_dtype(system.p))
        if completion is not None:
            completion = (completion["fitted"], completion["certified"],
                          *_flat(completion["rejected"]))
        return cls(mode=system.mode, rows=rows, attempts=attempts, converged=converged,
                   oracle=oracle, seed=seed, p_bar=system.p_bar, rejected=_flat(rejected),
                   completion=completion, stopped=stopped)

    @property
    def states(self) -> list[BetheState]:
        """The certified states, with Python complex scalars."""
        rows = self.rows
        return [BetheState(roots=tuple(roots), mode=self.mode, u_aux=u_aux, eigenvalue=eigenvalue,
                           bethe_residuals=tuple(residuals), eigen_residual=eigen_residual)
                for roots, residuals, u_aux, eigenvalue, eigen_residual in zip(
                    *(rows[name].tolist() for name in ("roots", "bethe_residuals", "u_aux",
                                                       "eigenvalue", "eigen_residual")))]

    @property
    def matched(self) -> np.ndarray:
        """Whether a state matched each oracle eigenvalue."""
        matched = np.zeros(self.oracle.size, dtype=bool)
        matched[self.rows["index"]] = True
        return matched

    @property
    def ambiguous_matches(self) -> list[complex]:
        """The eigenvalues of the states with an ambiguous match."""
        return self.rows["eigenvalue"][self.rows["ambiguous"]].tolist()

    @property
    def distinct(self) -> int:
        """Certified states, each a distinct multiset of sign orbits."""
        return len(self.rows)

    @property
    def spectrum_coverage(self) -> list[tuple[complex, bool]]:
        """(oracle eigenvalue, matched) pairs."""
        return list(zip(self.oracle.tolist(), self.matched.tolist()))

    @property
    def diagnostics(self) -> dict:
        """{"rejected": the lanes' rejects} when there were any, and
        "completion": {"fitted", "certified", "rejected"} when it ran."""
        out = {"rejected": _counts(self.rejected)} if self.rejected else {}
        if self.completion is not None:
            fitted, certified, *rejected = self.completion
            out["completion"] = {"fitted": fitted, "certified": certified,
                                 "rejected": _counts(rejected)}
        return out

    def coverage_fraction(self) -> float:
        return np.count_nonzero(self.matched) / self.oracle.size if self.oracle.size else 0.0

    def to_json_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "seed": self.seed,
            "attempts": self.attempts,
            "converged": self.converged,
            "distinct": self.distinct,
            "states": [s.to_json_dict() for s in self.states],
            "spectrum_coverage": [{"eigenvalue": ev, "matched": ok}
                                  for ev, ok in self.spectrum_coverage],
            "ambiguous_matches": self.ambiguous_matches,
        }
        if self.p_bar is not None:
            out["p_bar"] = self.p_bar
        diagnostics = self.diagnostics
        if diagnostics:
            out["diagnostics"] = diagnostics
        return scalars_to_pairs(out)


def newton_lanes(fj, starts, first=None):
    """Damped Newton from every start at once, one lane per start.

    fj(X, lanes) evaluates the rows X, an (n, p) stack, where lanes[i] is the
    index into starts of row i's lane, and returns F (n, p), J = dF/dx
    (n, p, p) and a pole mask (n,); first, if given, is fj at the starts.
    Lanes keep newton_refine's rules; a lane ends unconverged after MAX_ITER
    iterations.  A round makes one _newton_steps for the lanes at accepted
    points and one fj call for every searching window.

    The window: a searching lane at exponent k sends its next WINDOW trial
    steps 2^-k, ..., 2^-(min(k + WINDOW, MAX_HALVINGS) - 1) in the same
    call, its rows in step order after those of every earlier lane.  It
    accepts the first of its rows, in step order, that strictly lowers its
    ||F||_inf; with none, k advances past the rows it sent.  Every decision
    is the one of the one-step search, so the iterates are bit-identical to
    a search that sends one trial step a call; the window spends
    speculative rows to save calls.

    A generator: it yields (index, x, converged, iterations), the index
    being the lane's place in starts, for each lane at the end of the round
    it finishes in, after that round's call of fj; lanes finishing in one
    round come in index order.  Closing it abandons the lanes still running.
    """
    if not len(starts):
        return
    x = np.array(starts, dtype=np.complex128)
    F, J, norm = _evaluate(fj if first is None else lambda *_: first, x, np.arange(len(x)))
    tol = NEWTON_TOL * (1.0 + norm)
    live = np.isfinite(norm)
    for i in np.flatnonzero(~live):  # a lane whose start is a pole ends at once
        yield int(i), x[i].copy(), False, 0
    at = np.flatnonzero(live)  # the lanes at an accepted point; F and J are theirs
    F, J, left = F[at], J[at], at.size
    its, k = np.zeros(len(x), dtype=int), np.zeros(len(x), dtype=int)  # k: next step 2^-k
    delta = np.zeros_like(x)
    searching = np.zeros(len(x), dtype=bool)
    while left:
        done = []  # the lanes that finish in this round
        if at.size:  # at an accepted point: converged, out of iterations, or a step
            go = (norm[at] > tol[at]) & (its[at] < MAX_ITER) & np.isfinite(J).all(axis=(1, 2))
            if go.any():
                go[go], step = _newton_steps(J[go], F[go])
                stepping = at[go]
                delta[stepping], searching[stepping] = step, True
            if not go.all():
                done.append(at[~go])
        lanes = searching.nonzero()[0]
        at = lanes[:0]  # a lane reaches a new point only in a pass
        if lanes.size:  # one pass over every searching lane's window of trial steps
            kl = k[lanes]
            sent = np.minimum(kl + WINDOW, MAX_HALVINGS) - kl
            rows = lanes.repeat(sent)
            steps = (kl - (sent.cumsum() - sent)).repeat(sent) + np.arange(rows.size)
            k[lanes] = kl + sent
            xt = x[rows] + HALVINGS[steps][:, None] * delta[rows]
            Ft, Jt, nt = _evaluate(fj, xt, rows)
            # rows run in lane order: a lane accepts its first row that lowers the norm
            take = (nt < norm[rows]).nonzero()[0]
            hit = rows[take]
            first = hit != np.concatenate(([-1], hit[:-1]))
            at, take = hit[first], take[first]
            x[at], norm[at], F, J = xt[take], nt[take], Ft[take], Jt[take]
            its[at] += 1
            k[at] = np.maximum(steps[take] - RESUME, 0)
            searching[at] = False
            spent = lanes[k[lanes] >= MAX_HALVINGS]
            searching[spent] = False
            done.append(spent)
        if done:
            done = done[0] if len(done) == 1 else np.sort(np.concatenate(done))
            left -= done.size
            for i in done.tolist():
                yield i, x[i].copy(), bool(norm[i] <= tol[i]), int(its[i])


def _evaluate(fj, X, lanes):
    """fj's F and J at X with each row's ||F||_inf: inf on a masked row, and
    NaN where F holds a NaN, which no comparison puts below a lane's norm."""
    F, J, pole = fj(X, lanes)
    with np.errstate(all="ignore"):
        norm = np.abs(F).max(axis=1, initial=0.0)
    norm[pole] = np.inf
    return F, J, norm


def _newton_steps(J, F):
    """(ok, solve(J, -F) of the ok lanes) for a stack of lanes: ok where
    s_max/s_min of np.linalg.svd is at most COND_LIMIT and no call failed; a
    failed stacked SVD or solve sends the lanes one by one.  The SVD runs
    only where B = ||J||_F ||X||_F, X the computed inv(J), exceeds 1e-2
    COND_LIMIT (or inv fails).  Rounding (Higham, 2nd ed., ch. 14): X's
    columns solve (J + dJ_j) x_j = e_j, ||dJ_j|| <= e ||J||, e about p u
    times the LU growth, so cond_2(J) <= ||J||_F ||J^-1||_F <= B / (1 - e B)
    <= 2e12 if e <= 5e-13, and the SVD's ratio is that within p u 2e12 < 2%."""
    try:  # einsum raises no warning: an overflow or inf * 0 leaves the lane to the SVD
        v, w = (A.reshape(len(A), -1).view(np.float64) for A in (J, np.linalg.inv(J)))
        ok = np.einsum("ij,ij,i->i", v, v, np.einsum("ij,ij->i", w, w)) <= (1e-2 * COND_LIMIT) ** 2
    except np.linalg.LinAlgError:
        ok = np.zeros(len(J), dtype=bool)
    try:
        if not ok.all():
            s = np.linalg.svd(J[~ok], compute_uv=False)
            with np.errstate(all="ignore"):  # singular J: inf, or NaN when J = 0
                ok[~ok] = s[:, 0] / s[:, -1] <= COND_LIMIT
        return ok, np.linalg.solve(J[ok], -F[ok][..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(J) == 1:
            return np.zeros(1, dtype=bool), F[:0]
        steps = [_newton_steps(J[i:i + 1], F[i:i + 1]) for i in range(len(J))]
        return np.concatenate([ok for ok, _ in steps]), np.concatenate([d for _, d in steps])


def newton_refine(fj, x0):
    """Damped Newton from one start on a map fj(x) -> (F, J), with J = dF/dx
    at x: the one-lane view of newton_lanes, which calls fj once for every
    row a pass sends.

    Returns (x, converged, iterations).  The line search takes the first of the
    steps 2^-k0, 2^-(k0+1), ... that strictly lowers ||F||_inf, with k0 = 0 at
    first and k0 = max(k - RESUME, 0) after accepting 2^-k.  A start is
    abandoned (converged False) on a pole at the start point, cond(J) =
    s_max/s_min above 1e14 (_newton_steps), a non-finite J, a failed SVD or
    solve, or no decrease down to step 2^-29.  A map that raises a pole
    error, or gives a non-finite F, has met a pole.  Convergence means
    ||F||_inf <= NEWTON_TOL * (1 + ||F(x0)||_inf).
    """
    x0 = np.asarray(x0, dtype=np.complex128).ravel()
    n = x0.size

    def rows(X, _lanes):
        F = np.zeros((len(X), n), dtype=np.complex128)
        J = np.zeros((len(X), n, n), dtype=np.complex128)
        pole = np.zeros(len(X), dtype=bool)
        for i, x in enumerate(X):
            try:
                F[i], J[i] = fj(x)
            except (ParameterDomainError, ZeroDivisionError, FloatingPointError, OverflowError):
                pole[i] = True
        return F, J, pole

    with closing(newton_lanes(rows, [x0])) as lanes:
        _, x, ok, its = next(lanes)
        return x, ok, its


def seed_starts(system: BetheSystem, cfg: SolverConfig):
    """Deterministic multistart seeds: annulus draws mixed with perturbed
    zeros of the vacuum weight, canonicalized (the vacuum when p = 0).

    Returns (x, scales, (F, J), rejected): the kept starts x (K, p), their
    row scales 1 + |t+| + |t-| (+ |U_r^(i)|) (K, p), closed_form at x, the
    lanes' first evaluation, and the count of starts rejected as
    pole_margin after 200 draws missed the margin.  One closed_form pass
    under the margin filters a stack of draws, each draw after a miss being
    its redraw: the starts of a scalar reference filter, though exact zeros
    of the divisors are masked too."""
    rp = system.hp.rp
    rng = np.random.default_rng(cfg.seed)
    lam_max = max(abs(y_eigenvalue(x, rp)) for x in range(rp.N + 1))
    rmax = max(1.0, 2.0 * np.sqrt(lam_max))
    guesses = [z for z in system.weight.zeros if abs(z) > REJECT_MARGIN]

    def draw():
        roots = []
        for _k in range(system.p):
            # rng.uniform's arithmetic on rng.random(), which costs less per call
            if guesses and rng.random() < 0.5:
                z = guesses[int(rng.integers(len(guesses)))]
                z = z * (1 + 0.05 * (rng.standard_normal() + 1j * rng.standard_normal()))
            else:
                r = 0.5 + (rmax - 0.5) * rng.random()
                th = 2 * np.pi * rng.random()
                z = complex(r * np.cos(th), r * np.sin(th))
            roots.append(z)
        return list(canonical_roots(roots))

    count = cfg.starts if system.p else 1
    found, rejected, misses, passes = 0, 0, 0, []  # misses: the next start's missed draws
    while found < count:  # each draw gives at most one start
        batch = np.array([draw() for _ in range(count - found)], dtype=np.complex128)
        with pole_margin(REJECT_MARGIN):
            F, J, pole, scales = system.closed_form(batch, scales=True)
        for missed in pole.tolist():
            misses = (misses + 1) % 200 if missed else 0  # 200 misses reject a start
            if not misses:
                found += 1
                rejected += missed
        kept = ~pole
        passes.append((batch[kept], scales[kept], F[kept], J[kept]))
    x, scales, F, J = (np.concatenate(arrays) for arrays in zip(*passes))
    return x, scales, (F, J), rejected


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
        return None, "root_margin"
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


def _lanes(system: BetheSystem, x, scales, first):
    """newton_lanes from the kept starts x on the closed form, with the rows
    of every pass, seed_starts' pass (first) included, scaled by their
    lane's start scales.  A lane's index is its row in x."""
    norms = 1.0 / scales

    def scaled(F, J, pole, lanes):
        n = norms[lanes]
        return F * n, J * n[:, :, None], pole
    return newton_lanes(lambda X, lanes: scaled(*system.closed_form(X), lanes), x,
                        first=scaled(*first, np.zeros(len(x), dtype=bool), slice(None)))


def complete(system: BetheSystem, seed: int, W, W_fro, oracle, certified, matched) -> dict:
    """Fit the roots of each unmatched oracle eigenvalue by the T-Q relation
    (BetheSystem.tq_fits, one stacked pass; kappa = 0 in homogeneous mode),
    in index order, and certify them: the fits go through one closed_form
    pass under the REJECT_MARGIN that seed_starts keeps, are polished as
    the lanes of one _lanes, and each lane's last iterate goes to _certify
    whatever Newton's verdict, in fit order.
    Appends to certified and marks matched in place.

    Returns the diagnostics entry {"fitted", "certified", "rejected"}, where
    fitted = certified + the rejects: fit_pole (no fit: a collocation
    point met a pole, or the fit degenerated), pole_margin,
    duplicate (a certified state's orbit set) and _certify's reasons."""
    rejects, targets = Counter(), oracle[~matched]
    try:
        fits = system.tq_fits(targets)
    except ParameterDomainError:  # a collocation point met a pole: no target fits
        fits = [None] * len(targets)
    fits = [canonical_roots(roots) for roots in fits if roots is not None]
    if len(fits) < len(targets):
        rejects["fit_pole"] = len(targets) - len(fits)
    x = np.array(fits, dtype=np.complex128).reshape(len(fits), system.p)
    with pole_margin(REJECT_MARGIN):
        F, J, pole, scales = system.closed_form(x, scales=True)
    if pole.any():
        rejects["pole_margin"] += int(np.count_nonzero(pole))
    kept = ~pole
    added = 0
    for _index, roots, _ok, _its in sorted(_lanes(system, x[kept], scales[kept],
                                                  (F[kept], J[kept])), key=lambda lane: lane[0]):
        if _is_duplicate(roots, (state for state, _, _ in certified)):
            rejects["duplicate"] += 1
            continue
        entry, reason = _certify(list(roots), system, seed, W, W_fro, oracle)
        if entry is None:
            rejects[reason] += 1
            continue
        certified.append(entry)
        matched[entry[1]] = True
        added += 1
    return {"fitted": len(targets), "certified": added, "rejected": dict(rejects)}


def _solve(system: BetheSystem, cfg: SolverConfig) -> SolveReport:
    """Draw every start up front (one when there are no roots) and run them
    all as lanes of one newton_lanes, each lane then through deflation and
    certification in the order it finishes, until p + 1 oracle eigenvalues
    are matched: all N + 1 in inhomogeneous mode, the p_bar + 1 states the
    Bethe ansatz gives in homogeneous mode.  A later lane could only repeat
    a certified orbit set, or give a second root set for a matched eigenvalue.
    When the lanes run out first, complete fits and certifies the rest."""
    W = build_W_parametric(system.hp, system.ctx)
    W_fro = float(np.linalg.norm(W))
    oracle = dense_spectrum(W)

    certified: list[tuple[BetheState, int, bool]] = []
    matched = np.zeros(len(oracle), dtype=bool)
    x, scales, first, rejected = seed_starts(system, cfg)
    rejects = Counter({"pole_margin": rejected} if rejected else {})
    attempts, converged, stopped = rejected, 0, False
    with closing(_lanes(system, x, scales, first)) as lanes:
        for _index, roots, ok, _its in lanes:
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
            matched[entry[1]] = True
            if np.count_nonzero(matched) > system.p:
                stopped = attempts < rejected + len(x)
                break
    completion = None
    if np.count_nonzero(matched) <= system.p:
        completion = complete(system, cfg.seed, W, W_fro, oracle, certified, matched)
    if not certified:
        fits = "" if completion is None else f"; T-Q completion: {completion}"
        raise SolverFailure(
            f"{system.mode} solve produced no certifiable state out of {attempts} starts "
            f"({converged} converged; rejections: {dict(rejects)}{fits})")
    return SolveReport.build(system, cfg.seed, certified, attempts, converged, oracle,
                             rejects, completion, stopped)


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
