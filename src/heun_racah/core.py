"""Dense complex linear-algebra kernel.

Operators are plain numpy arrays of shape (dim, dim), dtype complex128,
with dim capped at 64: this is a desk-scale verification tool, not a
large-scale eigensolver.  The dense eigendecomposition is the
independent oracle against which all Bethe-ansatz results are certified;
a matrix whose imaginary part is exactly zero goes through the real QR
algorithm, which returns its complex eigenvalues in exact conjugate pairs.

Every pole-bearing denominator of the package's rational formulas goes
through guard(), so where a pole lies is stated once, by its formula.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import DimensionError, OracleError, ParameterDomainError

MAX_DIM = 64

# A denominator below this counts as sitting on its pole: the guard is
# against catastrophic precision loss, not only exact zeros.
POLE_FLOOR = 1e-12
_floor = POLE_FLOOR


def guard(den, what: str):
    """den, or ParameterDomainError naming `what` when |den| is below the floor."""
    if abs(den) < _floor:
        raise ParameterDomainError(f"{what}: |denominator| {abs(den):.3g} is below {_floor:g}")
    return den


def guard_each(dens, what: str) -> None:
    """guard(den, what) for each of dens, in order; one pass over their
    magnitudes when none is below the floor (a NaN sends them through guard)."""
    if not all(map(_floor.__le__, map(abs, dens))):
        for den in dens:
            guard(den, what)


def on_pole(den) -> np.ndarray:
    """Where an array of denominators is below the floor: guard() entry by entry."""
    return np.abs(den) < _floor


@contextmanager
def pole_margin(margin: float):
    """Raise the floor of guard() to `margin` inside the block (never lower it).

    Evaluating a formula under the margin tells whether a point keeps that
    distance from every pole the formula divides by.  The floor is module
    state: the package is single-threaded.
    """
    global _floor
    saved = _floor
    _floor = max(saved, margin)
    try:
        yield
    finally:
        _floor = saved


def as_operator(m) -> np.ndarray:
    """Coerce to a square complex128 matrix, validating shape and size."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not 1 <= a.shape[0] <= MAX_DIM:
        raise DimensionError(f"dimension {a.shape[0]} outside [1, {MAX_DIM}]")
    return a


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def _same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


def commutator(a, b) -> np.ndarray:
    """[a, b] = ab - ba."""
    a = as_operator(a)
    b = as_operator(b)
    _same_dim(a, b)
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    """{a, b} = ab + ba."""
    a = as_operator(a)
    b = as_operator(b)
    _same_dim(a, b)
    return a @ b + b @ a


def residual_norm(lhs, rhs) -> float:
    """Relative Frobenius residual ||lhs - rhs||_F / max(1, ||lhs||_F).

    The max(1, .) floor makes the value an absolute residual when lhs is
    near zero, so identities of the form expr == 0 are still meaningful.
    """
    lhs = as_operator(lhs)
    rhs = as_operator(rhs)
    _same_dim(lhs, rhs)
    return float(np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs)))


def apply_rows(F, V) -> np.ndarray:
    """Row k of V multiplied by F, or by F[k] for a stack F (leading axes
    broadcast): one stacked product that rounds each row as the single
    product F[k] @ V[k] does."""
    return (F @ V[..., None])[..., 0]


def norms(a) -> np.ndarray:
    """np.linalg.norm of each slice a[k] of a stack, bit for bit: the same
    two dot products of its real and imaginary parts, one stacked product each."""
    flat = np.ascontiguousarray(a).reshape(len(a), 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0])


def stack_residuals(lhs, rhs) -> list[float]:
    """residual_norm (or vector_residual) of each slice pair of two stacks, bit for bit."""
    err, scale = norms(lhs - rhs), norms(lhs)
    return (err / np.where(scale > 1.0, scale, 1.0)).tolist()


def vector_residual(lhs, rhs) -> float:
    """Same scaling as residual_norm, for vectors."""
    lhs = np.asarray(lhs, dtype=np.complex128)
    rhs = np.asarray(rhs, dtype=np.complex128)
    if lhs.shape != rhs.shape:
        raise DimensionError(f"vector shape mismatch: {lhs.shape} vs {rhs.shape}")
    return float(np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs)))


def dense_spectrum(m) -> np.ndarray:
    """Eigenvalues of a general (non-Hermitian) complex matrix, complex128,
    sorted by (Re, Im).

    A matrix with an exactly zero imaginary part goes to the real QR solver
    (dgeev, not zgeev): faster, and its non-real eigenvalues pair exactly.
    Raises OracleError on a non-finite matrix or if the QR iteration fails
    to converge; results are never silently truncated.
    """
    a = as_operator(m)
    if not np.all(np.isfinite(a)):
        raise OracleError("matrix has non-finite entries; eigensolver input invalid")
    try:
        vals = np.linalg.eigvals(a if a.imag.any() else a.real)
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"eigensolver did not converge: {exc}") from exc
    return vals[np.lexsort((vals.imag, vals.real))].astype(np.complex128, copy=False)
