"""The problem object: hp carries its Racah parameters hp.rp, every Heun
and Bethe formula reads them from hp, and a pair (hp, ctx) whose
representation is built on other parameters is refused where it meets."""

import importlib
import inspect
import pkgutil

import pytest

import heun_racah
from heun_racah.bethe import INHOMOGENEOUS, BetheSystem, maba_identity_residuals
from heun_racah.dynamical import DynContext
from heun_racah.errors import ParameterDomainError
from heun_racah.heun import build_heun_params, build_W_parametric
from heun_racah.racah import build_params, build_representation
from heun_racah.solver import SolverConfig, solve_inhomogeneous

U = 1.9 + 0.3j
ROOTS = [1.1 + 0.2j, 2.3 - 0.4j, 0.7 + 1.9j]


def criterion_8(gamma):
    return build_params(3, 2.2 + 0.4j, gamma, 0.8)


def mismatched_problem():
    """hp built at gamma = 1.3, the representation at gamma = 1.1."""
    hp = build_heun_params(1.7, 0.9, 2.6, criterion_8(1.3))
    ctx = DynContext(rep=build_representation(criterion_8(1.1)), rho=1.7)
    return hp, ctx


def test_hp_carries_its_racah_parameters_out_of_its_repr():
    rp = criterion_8(1.3)
    hp = build_heun_params(1.7, 0.9, 2.6, rp)
    assert hp.rp is rp
    assert "RacahParams" not in repr(hp)


@pytest.mark.parametrize("call", [
    lambda hp, ctx: BetheSystem(hp, ctx, INHOMOGENEOUS),
    lambda hp, ctx: build_W_parametric(hp, ctx),
    lambda hp, ctx: maba_identity_residuals(U, ROOTS, hp, ctx),
    lambda hp, ctx: solve_inhomogeneous(hp, hp.rp, ctx, SolverConfig(starts=4)),
], ids=["BetheSystem", "build_W_parametric", "maba_identity_residuals",
        "solve_inhomogeneous"])
def test_mismatched_racah_parameters_are_a_domain_error(call):
    hp, ctx = mismatched_problem()
    with pytest.raises(ParameterDomainError, match="built on"):
        call(hp, ctx)


def test_matched_problem_evaluates():
    hp = build_heun_params(1.7, 0.9, 2.6, criterion_8(1.3))
    ctx = DynContext(rep=build_representation(criterion_8(1.3)), rho=1.7)
    plain, backward = maba_identity_residuals(U, ROOTS, hp, ctx)
    assert plain <= 1e-8 and backward <= 1e-8


def test_solve_rejects_an_rp_that_is_not_hp_rp():
    hp, ctx = mismatched_problem()
    with pytest.raises(ParameterDomainError, match="not those of the Heun parameters"):
        solve_inhomogeneous(hp, ctx.rep.params, ctx, SolverConfig(starts=4))


# The solve API keeps (hp, rp, ctx, cfg), the signature perfbench calls.
BOTH_ALLOWED = {"solver.solve_homogeneous", "solver.solve_inhomogeneous", "solver._system"}


def _takes(param, type_name, arg_name):
    return param.name == arg_name or type_name in str(param.annotation)


def _functions():
    """(qualified name, function) of every function and method in src/."""
    for info in pkgutil.iter_modules(heun_racah.__path__):
        module = importlib.import_module(f"heun_racah.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


def test_no_formula_takes_both_hp_and_rp():
    both = set()
    for qualified, fn in _functions():
        params = inspect.signature(fn).parameters.values()
        if any(_takes(p, "HeunParams", "hp") for p in params) and \
                any(_takes(p, "RacahParams", "rp") for p in params):
            both.add(qualified)
    assert both == BOTH_ALLOWED


def test_scan_sees_methods():
    names = {q for q, _ in _functions()}
    assert {"bethe.SwapWeight.__init__", "bethe.BetheSystem.eigenvalue",
            "heun.check_same_problem", "solver._system"} <= names
