"""The benchmark's workloads and the output check applied to every op.

Each workload builds its problem objects once (the set-up that `setup_s`
times), then runs numbered ops through the package's public API.  The
per-op solver or sweep seed is derived from the workload seed and the op
number, so a workload seed fixes every input.

solve-inhom
    One op is one `solve_inhomogeneous` call with 64 starts on the
    acceptance criterion-8 parameters (beta = 2.2+0.4i, gamma = 1.3,
    delta = 0.8, rho = 1.7, s1 = 0.9, s2 = 2.6), N rotating over 2, 3, 4.
    Matrices are at most 5x5, so the time goes to the scalar `bethe`
    residual map called by finite-difference Newton in `solver`.  N = 4
    misses one dense eigenvalue at every seed, so `coverage` can move.
solve-wide
    One op is one `solve_homogeneous` call with 64 starts at the size cap
    N = 63 (dim 64): beta = 5, gamma = 1, delta = 2, rho = 2/7, s1 = 0,
    s2 = 3, which gives one Bethe root.  Newton is cheap; the time goes to
    certification (64x64 B operators, `core.anticommutator`), building W
    and the dense oracle.  A residual-map optimisation should barely move it.
verify-catalog
    One op is one pass of `verify_relation` over all twelve relations with
    50 samples each, on the criterion-8 representation at N = 12 with
    rho = 1.7.  The solver does not run; the time goes to `dynamical`
    operator construction, `bethe_vector` chains and `sampling` rejection.
    N = 12 is the size the project's roadmap names for `verify all`.  It is
    not chosen to avoid the known vacuous MABA_REDUCTION sweep at N = 40,
    which the output check flags and the self-tests feed to it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

CRITERION_8 = {"beta": 2.2 + 0.4j, "gamma": 1.3, "delta": 0.8,
               "rho": 1.7, "s1": 0.9, "s2": 2.6}
WIDE = {"beta": 5.0, "gamma": 1.0, "delta": 2.0,
        "rho": 2 / 7, "s1": 0.0, "s2": 3.0}

STARTS = 64
SAMPLES = 50
EIGEN_RESIDUAL_TOL = 1e-8
MATCH_TOL = 1e-6
# R1-R3 are evaluated once, not sampled, so they never carry a worst tuple.
UNSAMPLED = frozenset({"R1", "R2", "R3"})


def op_seed(seed: int, i: int) -> int:
    """Solver or sweep seed of op i under workload seed `seed`."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Checked:
    """Output-check verdict for one op.

    certified counts distinct certified Bethe states (solve) or relations
    verified (catalog); coverage is the share of the op's expected results
    obtained: dense eigenvalues matched, or relations verified out of twelve.
    """

    certified: int
    coverage: float
    problems: tuple[str, ...]


def check_solve(hr, hp, ctx, report) -> Checked:
    """Recheck every state against a fresh W, Bethe vector and eigvals(W)."""
    W = hr.build_W_parametric(hp, ctx)
    w_fro = float(np.linalg.norm(W))
    eigs = np.linalg.eigvals(W)
    problems = []
    for k, state in enumerate(report.states):
        lam = complex(state.eigenvalue)
        v = hr.bethe_vector(list(state.roots), hp.m_bar, ctx)
        v_norm = float(np.linalg.norm(v))
        res = float(np.linalg.norm(W @ v - lam * v))
        if not res <= EIGEN_RESIDUAL_TOL * w_fro * v_norm:
            problems.append(f"state {k}: ||Wv - lv|| = {res:.3e} exceeds "
                            f"{EIGEN_RESIDUAL_TOL:g} ||W||_F ||v||")
        gap = float(np.min(np.abs(eigs - lam)))
        if not gap <= MATCH_TOL * max(1.0, abs(lam)):
            problems.append(f"state {k}: eigenvalue {lam} is {gap:.3e} "
                            f"from eigvals(W)")
    return Checked(certified=report.distinct,
                   coverage=report.coverage_fraction(),
                   problems=tuple(problems))


def check_catalog(hr, reports) -> Checked:
    """Every residual finite and within tolerance; no sampled sweep vacuous.

    `verify_relation` keeps its worst residual with `res > worst`, which
    drops NaN residuals; a sampled sweep that drew samples yet kept no worst
    tuple therefore checked nothing, and fails here.
    """
    tols = hr.dynamical.DEFAULT_TOLS
    problems = []
    verified = 0
    for r in reports:
        tol = tols[hr.RelationId(r.relation)]
        ok = True
        if not (math.isfinite(r.max_residual) and r.max_residual <= tol):
            problems.append(f"{r.relation}: max_residual {r.max_residual!r} "
                            f"not within {tol:g}")
            ok = False
        if r.relation not in UNSAMPLED and r.samples > 0 and r.worst_tuple is None:
            problems.append(f"{r.relation}: {r.samples} samples but no worst "
                            f"tuple; the sweep checked nothing")
            ok = False
        verified += ok
    return Checked(certified=verified, coverage=verified / len(hr.RelationId),
                   problems=tuple(problems))


@dataclass(frozen=True)
class SolveWorkload:
    """Bethe solves through `solve_inhomogeneous` or `solve_homogeneous`."""

    name: str
    api: str
    sizes: tuple[int, ...]
    params: dict
    tail_pct: float | None

    @property
    def group(self) -> int:
        """Ops per rotation over `sizes`; a run ends on a whole rotation."""
        return len(self.sizes)

    def setup(self, hr):
        p = self.params
        problems = []
        for N in self.sizes:
            rp = hr.build_params(N, p["beta"], p["gamma"], p["delta"])
            ctx = hr.DynContext(rep=hr.build_representation(rp), rho=p["rho"])
            hp = hr.build_heun_params(p["rho"], p["s1"], p["s2"], rp)
            problems.append((hp, rp, ctx))
        return problems

    def run(self, hr, problems, i: int, seed: int):
        hp, rp, ctx = problems[i % self.group]
        cfg = hr.SolverConfig(starts=STARTS, seed=op_seed(seed, i))
        return getattr(hr, self.api)(hp, rp, ctx, cfg)

    def report_json(self, hr, report) -> str:
        return hr.serialize.dump_json(report.to_json_dict())

    def check(self, hr, problems, i: int, report) -> Checked:
        hp, _, ctx = problems[i % self.group]
        return check_solve(hr, hp, ctx, report)


@dataclass(frozen=True)
class CatalogWorkload:
    """One `verify_relation` pass over the whole relation catalog."""

    name: str
    N: int
    params: dict
    tail_pct: float
    group: int = 1

    def setup(self, hr):
        p = self.params
        rp = hr.build_params(self.N, p["beta"], p["gamma"], p["delta"])
        return hr.DynContext(rep=hr.build_representation(rp), rho=p["rho"])

    def run(self, hr, ctx, i: int, seed: int):
        sweep_seed = op_seed(seed, i)
        return [hr.verify_relation(rid, ctx, samples=SAMPLES, seed=sweep_seed)
                for rid in hr.RelationId]

    def report_json(self, hr, reports) -> str:
        return hr.serialize.dump_json({"reports": [r.to_json_dict() for r in reports]})

    def check(self, hr, ctx, i: int, reports) -> Checked:
        return check_catalog(hr, reports)


# tail_pct is the highest of p50/75/90/95/99 that keeps ten ops beyond it
# at 1.5x the op time measured when the benchmark was defined (about 350
# and 100 ops in 35 s).  It is fixed per workload so that the reported
# percentile does not change with the op count.  solve-inhom runs about 30
# ops, ten of each size: too few for any tail of a size, so its op_s.tail
# repeats op_s.p50 (None).
WORKLOADS = {w.name: w for w in (
    SolveWorkload("solve-inhom", "solve_inhomogeneous", (2, 3, 4), CRITERION_8, None),
    SolveWorkload("solve-wide", "solve_homogeneous", (63,), WIDE, 95),
    CatalogWorkload("verify-catalog", 12, CRITERION_8, 75),
)}
