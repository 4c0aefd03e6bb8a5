"""The relation catalog: every identity the package verifies numerically.

sweep is the one seeded residual sweep, which verify_relation (every catalog
residual within its tolerance) and the check-maba command consume.  A
sampled identity runs in two stages (a Sampler):

- per sample, in plain Python: draw the arguments in the catalog's RNG
  order and evaluate every guarded scalar of both sides (operator terms,
  k1/k2, tau, h1) under the pole margin, redrawing until none is within it;
- per chunk of samples, with numpy: build the operator stacks from those
  scalars, apply the products and Bethe chains and take each sample's
  residual.  Every product, sum and norm rounds as the one-sample
  operation does, so a report does not depend on how samples are chunked.

A chunk's operator stacks hold about CHUNK_BYTES; the scalar-only identities
(R1-R3, COMBINATION_IDENTITY, PSI_FACTORED) take their residual in the
first stage.  PSI_FACTORED's is a backward residual, scaled by the
magnitudes of the summed form's summands as MABA_REDUCTION's is.  The
exchange relations checked, with m shifting by one:

    B(u,m+1) B(v,m) = B(v,m+1) B(u,m)
    A(u,m) B(v,m)   = k1(u,v) B(v,m) A(u,m-1)
                      + B(u,m) [k2(u,v,m) A(v,m-1) + k2(u,-v,m) A(-v,m-1)]
    C(v,m) A(u,m)   = k1(u,v) A(u,m-1) C(v,m)
                      + [k2(u,v,m) A(v,m-1) + k2(u,-v,m) A(-v,m-1)] C(u,m)
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bethe import (abv_chunk, abv_terms, f1_W, maba_chunk, maba_terms, psi_residual, vacuum,
                    vacuum_coeffs)
from .core import apply_rows, guard, stack_residuals
from .errors import RelationViolation
from .heun import build_heun_params, h1_scalar, wa_chunk, wa_terms
from .racah import (DynContext, a_terms, check_rho, coeff_k1, coeff_k2, defining_residual,
                    op_B, op_C, stack_A)
# Not called here (A is built from its guarded rows with stack_A); the
# benchmark's tracer (perfbench/tracing.py) resolves op_A by this module's name.
from .racah import op_A  # noqa: F401
from .sampling import draw_complex, draw_until
from .serialize import scalars_to_pairs


def draw_rho(rng: np.random.Generator) -> complex:
    return draw_until(rng, draw_complex, check_rho)


class RelationId(enum.Enum):
    """Every identity the package can verify numerically."""

    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    BB_EXCHANGE = "BB_EXCHANGE"
    AB_EXCHANGE = "AB_EXCHANGE"
    CA_EXCHANGE = "CA_EXCHANGE"
    WA_IDENTITY = "WA_IDENTITY"
    VACUUM_ACTION = "VACUUM_ACTION"
    ABV_ACTION = "ABV_ACTION"
    COMBINATION_IDENTITY = "COMBINATION_IDENTITY"
    PSI_FACTORED = "PSI_FACTORED"
    MABA_REDUCTION = "MABA_REDUCTION"


# The defining relations: their residual does not depend on a draw.
DEFINING = (RelationId.R1, RelationId.R2, RelationId.R3)

DEFAULT_TOLS = {
    RelationId.R1: 1e-10,
    RelationId.R2: 1e-10,
    RelationId.R3: 1e-10,
    RelationId.BB_EXCHANGE: 1e-10,
    RelationId.AB_EXCHANGE: 1e-10,
    RelationId.CA_EXCHANGE: 1e-10,
    RelationId.WA_IDENTITY: 1e-10,
    RelationId.VACUUM_ACTION: 1e-9,
    RelationId.ABV_ACTION: 1e-9,
    RelationId.COMBINATION_IDENTITY: 1e-10,
    RelationId.PSI_FACTORED: 1e-10,
    RelationId.MABA_REDUCTION: 1e-8,
}


# --------------------------------------------------------------------------
# relation catalog

@dataclass(slots=True)
class RelationReport:
    """Outcome of a seeded residual sweep over one relation; slotted, since
    a caller may keep many (about 100 bytes each, against 350 with a dict)."""

    relation: str
    samples: int
    seed: int
    max_residual: float
    worst_tuple: dict | None
    nonfinite: int  # samples whose residual is NaN or inf

    @property
    def evaluations(self) -> int:
        """Residuals the sweep took: one for R1-R3, which take no draw."""
        return 1 if RelationId(self.relation) in DEFINING else self.samples

    @property
    def undecided(self) -> bool:
        """A sweep in which no residual was finite: it checked nothing."""
        return self.nonfinite == self.evaluations

    def to_json_dict(self) -> dict:
        out = {
            "relation": self.relation,
            "samples": self.samples,
            "seed": self.seed,
            "max_residual": self.max_residual,
            "worst_tuple": scalars_to_pairs(self.worst_tuple) if self.worst_tuple else None,
        }
        if self.nonfinite:
            out["nonfinite"] = self.nonfinite
        return out


# The operator stacks of one chunk hold at most about this many bytes, and at
# least one sample: 7 samples of MABA_REDUCTION at N = 12 (a peak of about
# 0.6 MB in all), one at N = 63.  A larger chunk takes less time per sample
# and more memory: at 1 MiB, 4% less and twice the peak.
CHUNK_BYTES = 1 << 19


@dataclass(frozen=True)
class Sampler:
    """One identity's two stages.  sample(rng, ctx) draws one tuple, redrawn
    until its guarded scalars keep the pole margin, and gives (row, tuple);
    chunk(rows, ctx) gives the residuals of a chunk of rows, or is None when
    each row is its residual.  operators(N) bounds the dim x dim operators
    one sample's chunk stage holds, which sizes the chunk."""

    sample: Callable
    chunk: Callable | None = None
    operators: Callable[[int], int] = lambda N: 1


def redrawn(draw, evaluate) -> Callable:
    """A sample(rng, ctx) stage: (row, tuple) = evaluate(t, ctx) for the first
    t = draw(rng, ctx) whose evaluation keeps the pole margin.  draw_until is
    looked up when a sample is drawn, so a tracer that replaces it sees every draw."""
    return lambda rng, ctx: draw_until(rng, lambda r: draw(r, ctx), lambda t: evaluate(t, ctx))


def _defining(relation: RelationId) -> Sampler:
    """One defining relation; its residual takes no draw."""
    return Sampler(lambda rng, ctx: (defining_residual(ctx.rep, relation.value), None))


def _draw_uvm(rng, ctx=None):
    """(u, v, m) for the exchange relations."""
    return draw_complex(rng), draw_complex(rng), draw_complex(rng)


def _sample_bb(rng, ctx):
    u, v, m = _draw_uvm(rng)  # B has no pole: every draw is kept
    return (u, v, m), {"u": u, "v": v, "m": m}


def _bb_chunk(rows, ctx):
    dim = ctx.rep.dim
    B = op_B([x for u, v, _ in rows for x in (u, v, v, u)],
             [x for *_, m in rows for x in (m + 1, m, m + 1, m)], ctx).reshape(-1, 4, dim, dim)
    return stack_residuals(B[:, 0] @ B[:, 1], B[:, 2] @ B[:, 3])


def _exchange_terms(t, ctx):
    """The guarded scalars of the AB and CA exchange relations at (u, v, m): the rows of
    A(u, m), A(u, m-1), A(v, m-1), A(-v, m-1), then k1(u, v), k2(u, v, m), k2(u, -v, m)."""
    u, v, m = t
    rows = [a_terms(a, b, ctx) for a, b in ((u, m), (u, m - 1), (v, m - 1), (-v, m - 1))]
    rho = ctx.rho
    return ((u, v, m, rows, (coeff_k1(u, v), coeff_k2(u, v, m, rho), coeff_k2(u, -v, m, rho))),
            {"u": u, "v": v, "m": m})


def _exchange_stacks(rows, ctx, family):
    """A(u,m), A(u,m-1), A(v,m-1), A(-v,m-1), then family(v, m), family(u, m)
    and the k coefficients as (k, 1, 1) columns, for each row."""
    dim = ctx.rep.dim
    A = stack_A([a for *_, rows_a, _ in rows for a in rows_a], ctx).reshape(-1, 4, dim, dim)
    F = family([x for u, v, *_ in rows for x in (v, u)],
               [x for _, _, m, *_ in rows for x in (m, m)], ctx).reshape(-1, 2, dim, dim)
    k = np.array([r[4] for r in rows], dtype=np.complex128)[:, :, None, None]
    return (*A.transpose(1, 0, 2, 3), *F.transpose(1, 0, 2, 3), *k.transpose(1, 0, 2, 3))


def _ab_chunk(rows, ctx):
    A_um, A_u, A_v, A_mv, B_v, B_u, k1, k2, k2_mv = _exchange_stacks(rows, ctx, op_B)
    rhs = k1 * (B_v @ A_u) + B_u @ (k2 * A_v + k2_mv * A_mv)
    return stack_residuals(A_um @ B_v, rhs)


def _ca_chunk(rows, ctx):
    A_um, A_u, A_v, A_mv, C_v, C_u, k1, k2, k2_mv = _exchange_stacks(rows, ctx, op_C)
    rhs = k1 * (A_u @ C_v) + (k2 * A_v + k2_mv * A_mv) @ C_u
    return stack_residuals(C_v @ A_um, rhs)


def _draw_heun(rng, ctx):
    """Random parametric Heun coefficients (s1, then s2) for this rho; a
    sweep whose formula has the pole 2 m_bar rho = 1 rejects s2 near it."""
    return build_heun_params(ctx.rho, draw_complex(rng), draw_complex(rng), ctx.rep.params)


def _draw_heun_pair(rng, ctx):
    """(hp, u1, u2): Heun coefficients, then two spectral points."""
    return _draw_heun(rng, ctx), draw_complex(rng), draw_complex(rng)


def draw_u_and_roots(rng, n: int):
    """(u, [x_1..x_n]): a spectral point and n roots, drawn in that order."""
    return draw_complex(rng), [draw_complex(rng) for _ in range(n)]


def _wa_terms(t, ctx):
    hp, u1, u2 = t
    return wa_terms(u1, u2, hp, ctx), {"u1": u1, "u2": u2, "s1": hp.s1, "s2": hp.s2}


def _vacuum_terms(t, ctx):
    u, m = t
    vc = vacuum_coeffs(u, m, ctx.rep.params, ctx.rho)
    return (u, m, a_terms(u, m, ctx), vc.xi, vc.zeta), {"u": u, "m": m}


def _vacuum_chunk(rows, ctx):
    # A(u, m)|0> = xi |0> + zeta B(u, m)|0>
    e0 = vacuum(ctx.rep.params.N)[None]
    lhs = apply_rows(stack_A([r[2] for r in rows], ctx), e0)
    coefs = np.array([r[3:] for r in rows], dtype=np.complex128)
    B_e0 = apply_rows(op_B([r[0] for r in rows], [r[1] for r in rows], ctx), e0)
    return stack_residuals(lhs, coefs[:, :1] * e0 + coefs[:, 1:] * B_e0)


def _sample_abv(rng, ctx):
    p = int(rng.integers(0, 4))

    def evaluate(t):
        u, m, roots = t
        return abv_terms(u, m, roots, ctx), {"u": u, "m": m, "p": p, "roots": roots}

    return draw_until(
        rng, lambda r: (draw_complex(r), draw_complex(r), [draw_complex(r) for _ in range(p)]),
        evaluate)


def _combination_residual(t, ctx):
    hp, u, v = t
    rho = ctx.rho
    lhs = (h1_scalar(u, hp) * coeff_k2(u, v, hp.m_bar, rho)
           + h1_scalar(-u, hp) * coeff_k2(-u, v, hp.m_bar, rho))
    rhs = f1_W(v, hp) / (rho * (rho - 1)
                         * guard(u * u - v * v, "combination identity pole: u^2 = v^2"))
    return abs(lhs - rhs) / max(1.0, abs(lhs)), {"u": u, "v": v, "s1": hp.s1, "s2": hp.s2}


def _sample_psi(rng, ctx):
    p = int(rng.integers(0, 4))

    def evaluate(t):
        hp, (u, roots) = t
        return psi_residual(u, p, roots, hp), {"u": u, "p": p, "roots": roots,
                                               "s1": hp.s1, "s2": hp.s2}

    return draw_until(rng, lambda r: (_draw_heun(r, ctx), draw_u_and_roots(r, p)), evaluate)


def _maba_terms(t, ctx):
    hp, (u, roots) = t
    return maba_terms(u, roots, hp, ctx), {"u": u, "roots": roots, "s2": hp.s2}


def maba_sampler(hp) -> Sampler:
    """The reduction identity at fixed Heun coefficients hp: (u, roots) drawn by
    draw_u_and_roots, and each sample's (plain, backward) residuals."""
    return Sampler(redrawn(lambda r, ctx: draw_u_and_roots(r, ctx.rep.params.N),
                           lambda t, ctx: (maba_terms(*t, hp, ctx), None)),
                   maba_chunk, SAMPLERS[RelationId.MABA_REDUCTION].operators)


SAMPLERS = {
    **{relation: _defining(relation) for relation in DEFINING},
    RelationId.BB_EXCHANGE: Sampler(_sample_bb, _bb_chunk, lambda N: 6),
    RelationId.AB_EXCHANGE: Sampler(redrawn(_draw_uvm, _exchange_terms), _ab_chunk, lambda N: 10),
    RelationId.CA_EXCHANGE: Sampler(redrawn(_draw_uvm, _exchange_terms), _ca_chunk, lambda N: 10),
    # the larger of the two W-A residuals of each sample
    RelationId.WA_IDENTITY: Sampler(redrawn(_draw_heun_pair, _wa_terms),
                                    lambda rows, ctx: [max(pair) for pair in wa_chunk(rows, ctx)],
                                    lambda N: 9),
    RelationId.VACUUM_ACTION: Sampler(
        redrawn(lambda r, ctx: (draw_complex(r), draw_complex(r)), _vacuum_terms),
        _vacuum_chunk, lambda N: 2),
    RelationId.ABV_ACTION: Sampler(_sample_abv, abv_chunk, lambda N: 14),
    RelationId.COMBINATION_IDENTITY: Sampler(redrawn(_draw_heun_pair, _combination_residual)),
    RelationId.PSI_FACTORED: Sampler(_sample_psi),
    # backward residuals: the tau-weighted summands can dwarf the result for
    # larger N, so the identity check normalizes by their magnitudes as well
    RelationId.MABA_REDUCTION: Sampler(
        redrawn(lambda r, ctx: (_draw_heun(r, ctx), draw_u_and_roots(r, ctx.rep.params.N)),
                _maba_terms),
        lambda rows, ctx: [backward for _, backward in maba_chunk(rows, ctx)], lambda N: 2 * N + 1),
}


def sweep(sampler: Sampler, ctx: DynContext, count: int, seed: int):
    """(residual, tuple) of each of count seeded samples, in draw order.

    The samples are taken chunk by chunk, CHUNK_BYTES of operators at a
    time: each chunk's draws, every one kept off the poles, then the chunk's
    residuals."""
    rng = np.random.default_rng(seed)
    chunk = max(1, CHUNK_BYTES // (16 * ctx.rep.dim ** 2 * sampler.operators(ctx.rep.params.N)))
    for start in range(0, count, chunk):
        rows, tuples = zip(*(sampler.sample(rng, ctx) for _ in range(min(chunk, count - start))))
        yield from zip(rows if sampler.chunk is None else sampler.chunk(list(rows), ctx), tuples)


def verify_relation(relation: RelationId, ctx: DynContext, samples: int = 50,
                    tol: float | None = None, seed: int = 0) -> RelationReport:
    """Seeded residual sweep over one cataloged identity.

    Sweeps `samples` random tuples (see sweep) and reports the worst
    residual (a NaN residual of a draw is never the worst) and the number of
    non-finite residuals; a sweep with no finite one is undecided.  R1-R3
    take no draw: their one evaluation, with tuple None, is reported as it is.
    Raises RelationViolation when the reported residual exceeds tol, and
    ValueError for samples below 1 or a tol that is not finite and >= 0,
    which would make the check vacuous.  ABV_ACTION checks the slot convention of the Bethe vector itself: the
    swapped root in slot r carries the index m - r + 1.
    """
    relation = RelationId(relation)
    if tol is None:
        tol = DEFAULT_TOLS[relation]
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    worst, worst_tuple, nonfinite = 0.0, None, 0
    for res, tup in sweep(SAMPLERS[relation], ctx, 1 if relation in DEFINING else samples, seed):
        nonfinite += not math.isfinite(res)
        if res > worst or tup is None:
            worst, worst_tuple = res, tup
    if worst > tol:
        raise RelationViolation(relation.value, worst, tol, worst_tuple)
    return RelationReport(relation.value, samples, seed, worst, worst_tuple, nonfinite)
