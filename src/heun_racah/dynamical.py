"""The relation catalog: every identity the package verifies numerically.

Each identity (RelationId) has one sampler, (rng, ctx) -> (residual,
tuple), which draws its arguments and evaluates both sides with the
operator families of racah, the Heun operator of heun and the Bethe
vectors of bethe; verify_relation is the one seeded sweep, where every
catalog residual meets its tolerance.  The exchange relations it checks,
with m shifting by one:

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

import numpy as np

from .bethe import abv_residual, f1_W, maba_identity_residuals, psi, vacuum, vacuum_coeffs
from .core import guard, residual_norm, vector_residual
from .errors import RelationViolation
from .heun import build_heun_params, h1_scalar, wa_residuals
from .racah import (DynContext, check_rho, coeff_k1, coeff_k2, defining_residuals,
                    op_A, op_B, op_C)
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

@dataclass
class RelationReport:
    """Outcome of a seeded residual sweep over one relation."""

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


def _defining(relation: RelationId):
    """Sampler of one defining relation; its residual takes no draw."""
    return lambda rng, ctx: (defining_residuals(ctx.rep)[relation.value], None)


def _draw_uvm(rng):
    """(u, v, m) for the exchange relations."""
    return draw_complex(rng), draw_complex(rng), draw_complex(rng)


def _sample_bb(rng, ctx):
    u, v, m = _draw_uvm(rng)
    B_u1, B_v, B_v1, B_u = op_B([u, v, v, u], [m + 1, m, m + 1, m], ctx)
    return residual_norm(B_u1 @ B_v, B_v1 @ B_u), {"u": u, "v": v, "m": m}


def _sample_ab(rng, ctx):
    rho = ctx.rho

    def evaluate(t):
        u, v, m = t
        A_um, A_u, A_v, A_mv = op_A([u, u, v, -v], [m, m - 1, m - 1, m - 1], ctx)
        B_v, B_u = op_B([v, u], [m, m], ctx)
        rhs = (coeff_k1(u, v) * (B_v @ A_u)
               + B_u @ (coeff_k2(u, v, m, rho) * A_v + coeff_k2(u, -v, m, rho) * A_mv))
        return residual_norm(A_um @ B_v, rhs), {"u": u, "v": v, "m": m}

    return draw_until(rng, _draw_uvm, evaluate)


def _sample_ca(rng, ctx):
    rho = ctx.rho

    def evaluate(t):
        u, v, m = t
        A_um, A_u, A_v, A_mv = op_A([u, u, v, -v], [m, m - 1, m - 1, m - 1], ctx)
        C_v, C_u = op_C([v, u], [m, m], ctx)
        rhs = (coeff_k1(u, v) * (A_u @ C_v)
               + (coeff_k2(u, v, m, rho) * A_v + coeff_k2(u, -v, m, rho) * A_mv) @ C_u)
        return residual_norm(C_v @ A_um, rhs), {"u": u, "v": v, "m": m}

    return draw_until(rng, _draw_uvm, evaluate)


def _draw_heun(rng, ctx):
    """Random parametric Heun coefficients (s1, then s2) for this rho; a
    sweep whose formula has the pole 2 m_bar rho = 1 rejects s2 near it."""
    return build_heun_params(ctx.rho, draw_complex(rng), draw_complex(rng), ctx.rep.params)


def draw_u_and_roots(rng, n: int):
    """(u, [x_1..x_n]): a spectral point and n roots, drawn in that order."""
    return draw_complex(rng), [draw_complex(rng) for _ in range(n)]


def _sample_wa(rng, ctx):

    def evaluate(t):
        hp, u1, u2 = t
        return max(wa_residuals(u1, u2, hp, ctx)), {"u1": u1, "u2": u2, "s1": hp.s1, "s2": hp.s2}

    return draw_until(
        rng, lambda r: (_draw_heun(r, ctx), draw_complex(r), draw_complex(r)), evaluate)


def _sample_vacuum(rng, ctx):
    p = ctx.rep.params

    def evaluate(t):
        u, m = t
        vc = vacuum_coeffs(u, m, p, ctx.rho)
        e0 = vacuum(p.N)
        lhs = op_A(u, m, ctx) @ e0
        rhs = vc.xi * e0 + vc.zeta * (op_B(u, m, ctx) @ e0)
        return vector_residual(lhs, rhs), {"u": u, "m": m}

    return draw_until(rng, lambda r: (draw_complex(r), draw_complex(r)), evaluate)


def _sample_abv(rng, ctx):
    p = int(rng.integers(0, 4))

    def evaluate(t):
        u, m, roots = t
        return abv_residual(u, m, roots, ctx), {"u": u, "m": m, "p": p, "roots": roots}

    return draw_until(
        rng, lambda r: (draw_complex(r), draw_complex(r), [draw_complex(r) for _ in range(p)]),
        evaluate)


def _sample_combination(rng, ctx):
    rho = ctx.rho

    def evaluate(t):
        hp, u, v = t
        lhs = (h1_scalar(u, hp) * coeff_k2(u, v, hp.m_bar, rho)
               + h1_scalar(-u, hp) * coeff_k2(-u, v, hp.m_bar, rho))
        rhs = f1_W(v, hp) / (rho * (rho - 1)
                             * guard(u * u - v * v, "combination identity pole: u^2 = v^2"))
        return abs(lhs - rhs) / max(1.0, abs(lhs)), {"u": u, "v": v, "s1": hp.s1, "s2": hp.s2}

    return draw_until(
        rng, lambda r: (_draw_heun(r, ctx), draw_complex(r), draw_complex(r)), evaluate)


def _sample_psi(rng, ctx):
    p = int(rng.integers(0, 4))

    def evaluate(t):
        hp, (u, roots) = t
        factored, summed = psi(u, p, roots, hp)
        res = abs(factored - summed) / max(1.0, abs(factored))
        return res, {"u": u, "p": p, "roots": roots, "s1": hp.s1, "s2": hp.s2}

    return draw_until(rng, lambda r: (_draw_heun(r, ctx), draw_u_and_roots(r, p)), evaluate)


def _sample_maba(rng, ctx):
    """Backward residual of the reduction identity: the tau-weighted
    summands can dwarf the result for larger N, so the identity check
    normalizes by their magnitudes as well."""

    def evaluate(t):
        hp, (u, roots) = t
        _, backward = maba_identity_residuals(u, roots, hp, ctx)
        return backward, {"u": u, "roots": roots, "s2": hp.s2}

    return draw_until(
        rng, lambda r: (_draw_heun(r, ctx), draw_u_and_roots(r, ctx.rep.params.N)), evaluate)


SAMPLERS = {
    **{relation: _defining(relation) for relation in DEFINING},
    RelationId.BB_EXCHANGE: _sample_bb,
    RelationId.AB_EXCHANGE: _sample_ab,
    RelationId.CA_EXCHANGE: _sample_ca,
    RelationId.WA_IDENTITY: _sample_wa,
    RelationId.VACUUM_ACTION: _sample_vacuum,
    RelationId.ABV_ACTION: _sample_abv,
    RelationId.COMBINATION_IDENTITY: _sample_combination,
    RelationId.PSI_FACTORED: _sample_psi,
    RelationId.MABA_REDUCTION: _sample_maba,
}


def verify_relation(relation: RelationId, ctx: DynContext, samples: int = 50,
                    tol: float | None = None, seed: int = 0) -> RelationReport:
    """Seeded residual sweep over one cataloged identity.

    Draws `samples` random tuples, each redrawn until the evaluation of its
    left and right sides keeps the pole margin, and reports the worst
    residual (a NaN residual of a draw is never the worst) and the number of
    non-finite residuals; a sweep with no finite one is undecided.  R1-R3
    take no draw: their one evaluation, with tuple None, is reported as it is.
    Raises RelationViolation when the reported residual exceeds tol.
    ABV_ACTION checks the slot convention of the Bethe vector itself: the
    swapped root in slot r carries the index m - r + 1.
    """
    relation = RelationId(relation)
    if tol is None:
        tol = DEFAULT_TOLS[relation]
    rng = np.random.default_rng(seed)
    sampler = SAMPLERS[relation]
    worst, worst_tuple, nonfinite = 0.0, None, 0
    for _ in range(1 if relation in DEFINING else samples):
        res, tup = sampler(rng, ctx)
        nonfinite += not math.isfinite(res)
        if res > worst or tup is None:
            worst, worst_tuple = res, tup
    if worst > tol:
        raise RelationViolation(relation.value, worst, tol, worst_tuple)
    return RelationReport(relation.value, samples, seed, worst, worst_tuple, nonfinite)
