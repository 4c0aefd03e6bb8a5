"""Exception types shared across the package."""


class HeunRacahError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(HeunRacahError):
    """Matrix operands have incompatible or out-of-range dimensions."""


class ParameterDomainError(HeunRacahError):
    """A parameter hits a pole or leaves the admissible domain."""


class OracleError(HeunRacahError):
    """The dense eigensolver got a non-finite matrix or did not converge."""


class RelationViolation(HeunRacahError):
    """An operator identity exceeded its residual tolerance."""

    def __init__(self, relation: str, residual: float, tol: float, worst=None):
        self.relation = relation
        self.residual = residual
        self.tol = tol
        self.worst = worst
        msg = f"{relation}: residual {residual:.3e} exceeds tolerance {tol:.3e}"
        if worst is not None:
            msg += f" (worst sample: {worst})"
        super().__init__(msg)


class CanonicalizationError(HeunRacahError):
    """The bilinear operator cannot be mapped to the parametric family."""


class ModeError(HeunRacahError):
    """Requested Bethe mode is incompatible with the parameters."""


class SolverFailure(HeunRacahError):
    """No Newton start and no T-Q fit gave a certifiable Bethe state."""
