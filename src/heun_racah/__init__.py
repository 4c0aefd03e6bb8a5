"""Numerics for the Heun-Racah operator and its Bethe-ansatz diagonalization.

Builds the (N+1)-dimensional Racah-algebra representation, realizes the
dynamical operator families and the Heun operator, verifies every operator
identity to machine precision, and solves the homogeneous/inhomogeneous
Bethe equations with certification against a dense eigendecomposition.
"""

from .core import anticommutator, commutator, dense_spectrum, residual_norm
from .errors import (CanonicalizationError, DimensionError, HeunRacahError,
                     ModeError, OracleError, ParameterDomainError,
                     RelationViolation, SolverFailure)
from .racah import (DynContext, RacahParams, Representation, build_params,
                    build_representation, coeff_f0, coeff_f1, coeff_g0, coeff_g1,
                    coeff_k1, coeff_k2, op_A, op_B, op_C)
from .heun import (BilinearParams, HeunParams, build_heun_params,
                   build_W_bilinear, build_W_parametric, canonicalize,
                   h_coeffs, integer_p_bar)
from .bethe import (BetheState, BetheSystem, VacuumCoeffs, bethe_vector, eigenvalue_w,
                    f1_W, inhomogeneous_residuals, maba_reduce, unwanted_U, vacuum,
                    vacuum_coeffs)
from .dynamical import RelationId, RelationReport, verify_relation
from .solver import (SolveReport, SolverConfig, newton_refine, seed_starts,
                     solve_homogeneous, solve_inhomogeneous)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
