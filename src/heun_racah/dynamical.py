"""Dynamical operator families A(u,m), B(u,m), C(u,m) over the Racah algebra.

The families depend on a spectral parameter u and a dynamical parameter m
(both admitted complex) plus one fixed deformation parameter rho, and obey
exchange relations in which m shifts by one:

    B(u,m+1) B(v,m) = B(v,m+1) B(u,m)
    A(u,m) B(v,m)   = k1(u,v) B(v,m) A(u,m-1)
                      + B(u,m) [k2(u,v,m) A(v,m-1) + k2(u,-v,m) A(-v,m-1)]
    C(v,m) A(u,m)   = k1(u,v) A(u,m-1) C(v,m)
                      + [k2(u,v,m) A(v,m-1) + k2(u,-v,m) A(-v,m-1)] C(u,m)

This module also hosts the catalog of all verifiable identities
(RelationId) together with the seeded residual sweep verify_relation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .core import guard, residual_norm, vector_residual
from .errors import RelationViolation
from .racah import Representation, verify_defining_relations
from .sampling import draw_complex, draw_until
from .serialize import scalars_to_pairs


def check_rho(rho) -> complex:
    """rho as a complex number; the families and W divide by rho and rho - 1."""
    rho = complex(rho)
    guard(rho, "deformation parameter pole: rho = 0")
    guard(rho - 1, "deformation parameter pole: rho = 1")
    return rho


def draw_rho(rng: np.random.Generator) -> complex:
    return draw_until(rng, draw_complex, check_rho)


@dataclass(frozen=True)
class DynContext:
    """A representation together with the deformation parameter rho."""

    rep: Representation
    rho: complex

    def __post_init__(self):
        object.__setattr__(self, "rho", check_rho(self.rho))


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
# scalar coefficient functions

def coeff_f0(u, m, p) -> complex:
    return (4 * m * m - 1) * (u * u - 2 * p.b - 1) / 8 - p.d2


def coeff_f1(u, m) -> complex:
    return (4 * m * m - u * u) / 2


def coeff_g0(u, m, p, rho) -> complex:
    """rho f0 + (2 m rho - 1)[(4m - u + 1)(2b + 1 - u^2)/8 - (d1 - d2)/(u - 1)]."""
    return rho * coeff_f0(u, m, p) + (2 * m * rho - 1) * (
        (4 * m - u + 1) * (2 * p.b + 1 - u * u) / 8
        - (p.d1 - p.d2) / guard(u - 1, "coeff_g0 pole: u = 1"))


def coeff_g1(u, m, rho) -> complex:
    return (u - 2 * m) * (2 * m * rho - rho * u - 2) / 2


def coeff_k1(u, v) -> complex:
    """((u-2)^2 - v^2) / (u^2 - v^2)."""
    return ((u - 2) ** 2 - v * v) / guard(u * u - v * v, "coeff_k1 pole: u^2 = v^2")


def coeff_k2(u, v, m, rho) -> complex:
    """(v-1)(rho(u - v - 4m) + 2) / (v (v-u) (2 m rho - 1))."""
    return (v - 1) * (rho * (u - v - 4 * m) + 2) / (
        guard(v, "coeff_k2 pole: v = 0") * guard(v - u, "coeff_k2 pole: v = u")
        * guard(2 * m * rho - 1, "coeff_k2 pole: 2 m rho = 1"))


# --------------------------------------------------------------------------
# operator families

def op_A(u, m, ctx: DynContext) -> np.ndarray:
    """(g0 + g1(u,m) X + g1(-1,m) Y + Z + rho {X,Y}) / (2 m rho - 1)."""
    rho = ctx.rho
    den = guard(2 * m * rho - 1, "op_A pole: 2 m rho = 1")
    rep = ctx.rep
    g0 = coeff_g0(u, m, rep.params, rho)
    return (g0 * rep.I
            + coeff_g1(u, m, rho) * rep.X
            + coeff_g1(-1, m, rho) * rep.Y
            + rep.Z
            + rho * rep.XY) / den


def op_B(u, m, ctx: DynContext) -> np.ndarray:
    """f0 + f1(u,m) X + f1(-1,m) Y + 2m Z + {X,Y}; even in u."""
    rep = ctx.rep
    return (coeff_f0(u, m, rep.params) * rep.I
            + coeff_f1(u, m) * rep.X
            + coeff_f1(-1, m) * rep.Y
            + 2 * m * rep.Z
            + rep.XY)


def op_C(u, m, ctx: DynContext) -> np.ndarray:
    """C(u,m) = B(u, -m + 1/rho)."""
    return op_B(u, -m + 1 / ctx.rho, ctx)


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
    notes: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "relation": self.relation,
            "samples": self.samples,
            "seed": self.seed,
            "max_residual": self.max_residual,
            "worst_tuple": scalars_to_pairs(self.worst_tuple) if self.worst_tuple else None,
        }
        if self.notes:
            out["notes"] = self.notes
        return out


def _draw_uvm(rng):
    """(u, v, m) for the exchange relations."""
    return draw_complex(rng), draw_complex(rng), draw_complex(rng)


def _sample_bb(rng, ctx):
    u, v, m = _draw_uvm(rng)
    lhs = op_B(u, m + 1, ctx) @ op_B(v, m, ctx)
    rhs = op_B(v, m + 1, ctx) @ op_B(u, m, ctx)
    return residual_norm(lhs, rhs), {"u": u, "v": v, "m": m}


def _sample_ab(rng, ctx):
    rho = ctx.rho

    def evaluate(t):
        u, v, m = t
        lhs = op_A(u, m, ctx) @ op_B(v, m, ctx)
        rhs = (coeff_k1(u, v) * (op_B(v, m, ctx) @ op_A(u, m - 1, ctx))
               + op_B(u, m, ctx) @ (coeff_k2(u, v, m, rho) * op_A(v, m - 1, ctx)
                                    + coeff_k2(u, -v, m, rho) * op_A(-v, m - 1, ctx)))
        return residual_norm(lhs, rhs), {"u": u, "v": v, "m": m}

    return draw_until(rng, _draw_uvm, evaluate)


def _sample_ca(rng, ctx):
    rho = ctx.rho

    def evaluate(t):
        u, v, m = t
        lhs = op_C(v, m, ctx) @ op_A(u, m, ctx)
        rhs = (coeff_k1(u, v) * (op_A(u, m - 1, ctx) @ op_C(v, m, ctx))
               + (coeff_k2(u, v, m, rho) * op_A(v, m - 1, ctx)
                  + coeff_k2(u, -v, m, rho) * op_A(-v, m - 1, ctx)) @ op_C(u, m, ctx))
        return residual_norm(lhs, rhs), {"u": u, "v": v, "m": m}

    return draw_until(rng, _draw_uvm, evaluate)


def _draw_heun(rng, ctx):
    """Random parametric Heun coefficients (s1, then s2) for this rho; a
    sweep whose formula has the pole 2 m_bar rho = 1 rejects s2 near it."""
    from .heun import build_heun_params
    return build_heun_params(ctx.rho, draw_complex(rng), draw_complex(rng), ctx.rep.params)


def draw_u_and_roots(rng, n: int):
    """(u, [x_1..x_n]): a spectral point and n roots, drawn in that order."""
    return draw_complex(rng), [draw_complex(rng) for _ in range(n)]


def _sample_wa(rng, ctx):
    from .heun import wa_residuals

    def evaluate(t):
        hp, u1, u2 = t
        return max(wa_residuals(u1, u2, hp, ctx)), {"u1": u1, "u2": u2, "s1": hp.s1, "s2": hp.s2}

    return draw_until(
        rng, lambda r: (_draw_heun(r, ctx), draw_complex(r), draw_complex(r)), evaluate)


def _sample_vacuum(rng, ctx):
    from .bethe import vacuum, vacuum_coeffs
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
    """Both middle-slot index conventions are evaluated; see verify_relation."""
    from .bethe import abv_residuals
    p = int(rng.integers(0, 4))

    def evaluate(t):
        u, m, roots = t
        return abv_residuals(u, m, roots, ctx), {"u": u, "m": m, "p": p, "roots": roots}

    return draw_until(
        rng, lambda r: (draw_complex(r), draw_complex(r), [draw_complex(r) for _ in range(p)]),
        evaluate)


def _sample_combination(rng, ctx):
    from .bethe import f1_W
    from .heun import h1_scalar
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
    from .bethe import psi
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
    from .bethe import maba_identity_residuals

    def evaluate(t):
        hp, (u, roots) = t
        _, backward = maba_identity_residuals(u, roots, hp, ctx)
        return backward, {"u": u, "roots": roots, "s2": hp.s2}

    return draw_until(
        rng, lambda r: (_draw_heun(r, ctx), draw_u_and_roots(r, ctx.rep.params.N)), evaluate)


def verify_relation(relation: RelationId, ctx: DynContext, samples: int = 50,
                    tol: float | None = None, seed: int = 0) -> RelationReport:
    """Seeded residual sweep over one cataloged identity.

    Draws `samples` random tuples, each redrawn until the evaluation of its
    left and right sides keeps the pole margin, and reports the worst
    residual.  Raises RelationViolation when it exceeds tol.  For R1-R3 the
    residual does not depend on the draw, so a single evaluation is reported.

    The ABV_ACTION sweep evaluates the swapped middle factor with both the
    m-r+1 and m-r-1 index conventions and adopts whichever satisfies the
    identity, recording both residuals in the report notes.
    """
    relation = RelationId(relation)
    if tol is None:
        tol = DEFAULT_TOLS[relation]
    rng = np.random.default_rng(seed)

    if relation in (RelationId.R1, RelationId.R2, RelationId.R3):
        residuals = verify_defining_relations(ctx.rep, tol=float("inf"))
        res = residuals[relation.value]
        if res > tol:
            raise RelationViolation(relation.value, res, tol)
        return RelationReport(relation.value, samples, seed, res, None)

    if relation is RelationId.ABV_ACTION:
        worst_plus, worst_minus, worst_tuple = 0.0, 0.0, None
        for _ in range(samples):
            (rp_, rm_), tup = _sample_abv(rng, ctx)
            if rp_ > worst_plus:
                worst_plus, worst_tuple = rp_, tup
            worst_minus = max(worst_minus, rm_)
        adopted = "m-r+1" if worst_plus <= worst_minus else "m-r-1"
        res = min(worst_plus, worst_minus)
        report = RelationReport(
            relation.value, samples, seed, res, worst_tuple,
            notes={"middle_slot_adopted": adopted,
                   "max_residual_m_r_plus_1": worst_plus,
                   "max_residual_m_r_minus_1": worst_minus})
        if res > tol:
            raise RelationViolation(relation.value, res, tol, worst_tuple)
        return report

    samplers = {
        RelationId.BB_EXCHANGE: _sample_bb,
        RelationId.AB_EXCHANGE: _sample_ab,
        RelationId.CA_EXCHANGE: _sample_ca,
        RelationId.WA_IDENTITY: _sample_wa,
        RelationId.VACUUM_ACTION: _sample_vacuum,
        RelationId.COMBINATION_IDENTITY: _sample_combination,
        RelationId.PSI_FACTORED: _sample_psi,
        RelationId.MABA_REDUCTION: _sample_maba,
    }
    sampler = samplers[relation]
    worst, worst_tuple = 0.0, None
    for _ in range(samples):
        res, tup = sampler(rng, ctx)
        if res > worst:
            worst, worst_tuple = res, tup
    if worst > tol:
        raise RelationViolation(relation.value, worst, tol, worst_tuple)
    return RelationReport(relation.value, samples, seed, worst, worst_tuple)
