import numpy as np
import pytest

from heun_racah import build_params, build_representation, solver
from heun_racah.core import pole_margin
from heun_racah.racah import DynContext
from heun_racah.heun import build_heun_params

# Reference parameter set used throughout: N=1, beta=5, gamma=1, delta=2,
# where alpha=-2, b=43, d1=d2=-231/8 and the matrices are small integers
# over 20ths (all hand-checkable).
X0 = np.array([[6.95, -1.8], [-3.2, 5.55]], dtype=complex)
Y0 = np.diag([3.75, 8.75]).astype(complex)
Z0 = np.array([[0.0, -9.0], [16.0, 0.0]], dtype=complex)


@pytest.fixture(scope="session")
def p0():
    return build_params(1, 5, 1, 2)


@pytest.fixture(scope="session")
def rep0(p0):
    return build_representation(p0)


@pytest.fixture(scope="session")
def ctx0(rep0):
    return DynContext(rep=rep0, rho=2)


@pytest.fixture(scope="session")
def hp0(p0):
    return build_heun_params(2, 1, 3, p0)


@pytest.fixture
def max_iter(monkeypatch):
    """A setter of solver.MAX_ITER, every lane's iteration budget, for one
    test; it returns the budget it set."""
    def set_budget(budget):
        monkeypatch.setattr(solver, "MAX_ITER", budget)
        return budget
    return set_budget


def at_margin(margin, evaluate):
    """evaluate, run under pole_margin(margin): a draw_until evaluation that
    keeps a wider margin than the package's."""
    def wrapped(value):
        with pole_margin(margin):
            return evaluate(value)
    return wrapped


def keeping(margin, formula):
    """A draw_until evaluation that returns the draw itself, once
    formula(draw) keeps every guarded denominator margin off its pole."""
    def evaluate(value):
        formula(value)
        return value
    return at_margin(margin, evaluate)


def finite_difference_map(f, step=1e-7):
    """An (F, J) map for newton_refine from a residual map f alone, with J
    from central differences of step `step`: the oracle that closed-form
    Jacobians are checked against."""
    def fj(x):
        x = np.asarray(x, dtype=complex)
        J = np.empty((x.size, x.size), dtype=complex)
        for j in range(x.size):
            e = np.zeros(x.size, dtype=complex)
            e[j] = step
            J[:, j] = (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * step)
        return f(x), J
    return fj
