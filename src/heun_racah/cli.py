"""Command-line driver.

Subcommands: verify (relation residual sweeps), spectrum (dense
eigenvalues of W), solve (Bethe diagonalization), check-maba (the
(N+1)-root reduction identity, proven range and conjecture probing).

Exit codes: 0 success, 1 relation violation (or a verify sweep left
UNDECIDED: no sampled residual was finite), 2 parameter or parse error
(including a count option below 1, a negative --seed, a --tol that is
not a finite number >= 0, an --out or --csv path that cannot be written,
and parameters that leave no admissible random draw), 3 solver failure.
All output is deterministic given (params, flags, seed).  main loads the
parameter file and writes the --out report for every command; each
cmd_* takes the loaded parameters and returns (exit code, report payload).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bethe import INHOMOGENEOUS, BetheSystem
from .core import dense_spectrum, pole_margin
from .dynamical import DEFAULT_TOLS, RelationId, maba_sampler, sweep, verify_relation
from .errors import (CanonicalizationError, DimensionError, ModeError,
                     OracleError, ParameterDomainError, RelationViolation,
                     SolverFailure)
from .heun import (BilinearParams, build_heun_params, build_W_bilinear,
                   build_W_parametric, canonicalize, integer_p_bar)
from .racah import DynContext, build_params, build_representation
from .sampling import REJECT_MARGIN
from .serialize import dump_json, from_pair
from .solver import SolverConfig, solve_homogeneous, solve_inhomogeneous

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_DOMAIN = 2
EXIT_SOLVER = 3

PARAM_KEYS = {"N", "beta", "gamma", "delta", "rho", "s1", "s2"}
BILINEAR_KEYS = {"r0", "r1", "r2", "r3", "r4"}


class ParamFileError(Exception):
    pass


def load_params(path: str) -> dict:
    """Parse and validate the parameter file.

    Schema: {"N": int, "beta": [re,im], "gamma": [re,im], "delta": [re,im],
    "rho": [re,im], "s1": [re,im], "s2": [re,im]} with an optional
    "bilinear": {"r0".."r4"} block that triggers canonicalization first.
    Unknown keys are rejected.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParamFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParamFileError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ParamFileError(f"{path}: top level must be an object")
    unknown = set(raw) - PARAM_KEYS - {"bilinear"}
    if unknown:
        raise ParamFileError(f"{path}: unknown keys {sorted(unknown)}")
    missing = PARAM_KEYS - set(raw)
    if missing:
        raise ParamFileError(f"{path}: missing keys {sorted(missing)}")
    if not isinstance(raw["N"], int) or isinstance(raw["N"], bool):
        raise ParamFileError(f"{path}: N must be an integer")
    out = {"N": raw["N"]}
    for key in sorted(PARAM_KEYS - {"N"}):
        try:
            out[key] = from_pair(raw[key])
        except ValueError as exc:
            raise ParamFileError(f"{path}: bad value for {key}: {exc}") from exc
    if "bilinear" in raw:
        blk = raw["bilinear"]
        if not isinstance(blk, dict) or set(blk) != BILINEAR_KEYS:
            raise ParamFileError(
                f"{path}: bilinear block must have exactly keys {sorted(BILINEAR_KEYS)}")
        try:
            out["bilinear"] = BilinearParams(**{k: from_pair(blk[k]) for k in BILINEAR_KEYS})
        except ValueError as exc:
            raise ParamFileError(f"{path}: bad value in the bilinear block: {exc}") from exc
    return out


def build_problem(params: dict):
    """(hp, ctx, scale, shift): the problem hp, which carries its Racah
    parameters hp.rp, with the matrices ctx built on them; scale/shift are
    non-trivial only when a bilinear block was canonicalized."""
    rp = build_params(params["N"], params["beta"], params["gamma"], params["delta"])
    if "bilinear" in params:
        hp, scale, shift = canonicalize(params["bilinear"], rp)
    else:
        hp = build_heun_params(params["rho"], params["s1"], params["s2"], rp)
        scale, shift = 1.0 + 0.0j, 0.0 + 0.0j
    ctx = DynContext(rep=build_representation(rp), rho=hp.rho)
    return hp, ctx, scale, shift


def positive_int(text: str) -> int:
    """argparse type for counts: a zero count would make a check vacuous."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    """argparse type for --seed: numpy's generators take no negative seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def tolerance(text: str) -> float:
    """argparse type for --tol: NaN would pass every residual, a negative none."""
    value = float(text)
    if not 0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def write_output(path: str, text: str) -> None:
    """Write text and a newline to an --out or --csv file; a path that
    cannot be written exits 2."""
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ParamFileError(f"cannot write {path}: {exc}") from exc


def fmt(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def cmd_verify(args, params):
    _, ctx, _, _ = build_problem(params)
    if args.relations.strip().lower() == "all":
        relations = list(RelationId)
    else:
        try:
            relations = [RelationId(tag.strip())
                         for tag in args.relations.split(",") if tag.strip()]
        except ValueError as exc:
            raise ParamFileError(f"unknown relation: {exc}") from exc
        if not relations:
            raise ParamFileError("no relation given")
    reports, failures = [], []
    print(f"{'relation':<22} {'samples':>7} {'max residual':>16}  status")
    for rel in relations:
        try:
            rep = verify_relation(rel, ctx, samples=args.samples, tol=args.tol,
                                  seed=args.seed)
            # a sweep without a finite residual reports max residual 0
            status = f"{'UNDECIDED' if rep.undecided else 'ok'} ({rep.nonfinite} of " \
                f"{rep.evaluations} non-finite)" if rep.nonfinite else "ok"
        except RelationViolation as exc:
            failures.append(exc)
            print(f"{rel.value:<22} {args.samples:>7} {exc.residual:>16.12g}  VIOLATION")
            continue
        reports.append(rep)
        print(f"{rel.value:<22} {rep.samples:>7} {rep.max_residual:>16.12g}  {status}")
    code = EXIT_VIOLATION if failures or any(r.undecided for r in reports) else EXIT_OK
    return code, {"reports": [r.to_json_dict() for r in reports],
                  "violations": [str(f) for f in failures]}


def cmd_spectrum(args, params):
    hp, ctx, _, _ = build_problem(params)
    W = build_W_bilinear(params["bilinear"], ctx.rep) if "bilinear" in params \
        else build_W_parametric(hp, ctx)
    eigenvalues = dense_spectrum(W)
    print(f"eigenvalues ({len(eigenvalues)}):")
    for ev in eigenvalues:
        print(f"  {fmt(ev)}")
    if args.csv:
        write_output(args.csv, "\n".join(
            ["re,im"] + [f"{float(ev.real)!r},{float(ev.imag)!r}" for ev in eigenvalues]))
    return EXIT_OK, {"eigenvalues": eigenvalues.tolist(), "trace": complex(W.trace())}


def cmd_solve(args, params):
    hp, ctx, scale, shift = build_problem(params)
    mode = args.mode
    if mode == "auto":
        mode = "homogeneous" if integer_p_bar(hp) is not None else "inhomogeneous"
        print(f"auto mode: {mode}")
    solve = solve_homogeneous if mode == "homogeneous" else solve_inhomogeneous
    report = solve(hp, hp.rp, ctx, SolverConfig(starts=args.starts, seed=args.seed))
    reason = "every dense eigenvalue matched" if report.p_bar is None else \
        f"the p_bar + 1 = {report.p_bar + 1} states the Bethe ansatz gives are certified"
    tried = f"{report.attempts} of {args.starts}" if report.stopped else report.attempts
    print(f"{report.mode}: {report.distinct} distinct certified state(s) from {tried} starts "
          f"({report.converged} converged{f'; {reason}' if report.stopped else ''})")
    completion = report.diagnostics.get("completion")
    if completion:
        print(f"T-Q completion: {completion['certified']} state(s) added for the "
              f"{completion['fitted']} eigenvalue(s) the starts left unmatched")
    for s in report.states:
        roots = ", ".join(fmt(x) for x in s.roots) or "(vacuum)"
        print(f"  eigenvalue {fmt(s.eigenvalue)}  roots [{roots}]  "
              f"eigen_residual {s.eigen_residual:.3g}")
    matched = sum(1 for _, ok in report.spectrum_coverage if ok)
    print(f"spectrum coverage: {matched}/{len(report.spectrum_coverage)}")
    for ev, ok in report.spectrum_coverage:
        print(f"  {fmt(ev)}  {'matched' if ok else 'unmatched'}")
    payload = report.to_json_dict()
    if "bilinear" in params:
        payload["bilinear_scale"], payload["bilinear_shift"] = scale, shift
    return EXIT_OK, payload


def cmd_check_maba(args, params):
    N = args.N if args.N is not None else params["N"]
    if N < 1:
        raise ParamFileError("N must be >= 1 for the reduction identity")
    hp, ctx, _, _ = build_problem(dict(params, N=N))
    with pole_margin(REJECT_MARGIN):
        BetheSystem(hp, ctx, INHOMOGENEOUS)  # builds the tau constants
    residuals, backwards = (list(column) for column in zip(
        *(pair for pair, _ in sweep(maba_sampler(hp), ctx, args.draws, args.seed))))
    # np.max propagates NaN; max() would return whatever the draw order gives
    worst, worst_backward = float(np.max(residuals)), float(np.max(backwards))
    mean = sum(residuals) / len(residuals)
    print(f"N={N} draws={args.draws} worst residual {worst:.12g} "
          f"mean {mean:.12g} worst backward {worst_backward:.12g}")
    payload = {"N": N, "draws": args.draws, "seed": args.seed, "precision": "float64",
               "worst_residual": worst, "mean_residual": mean,
               "worst_backward_residual": worst_backward, "residuals": residuals}
    overflowed = sum(1 for a, b in zip(residuals, backwards) if not np.isfinite(a + b))
    if overflowed:  # such a draw checked nothing
        print(f"UNDECIDED: {overflowed} of {args.draws} draws give a non-finite residual "
              "(double precision overflows)")
        return (EXIT_VIOLATION if N <= 4 else EXIT_OK), payload
    tol = DEFAULT_TOLS[RelationId.MABA_REDUCTION]
    if N <= 4:
        if worst > tol:
            print(f"FAIL: residual above {np.format_float_scientific(tol, trim='-', exp_digits=1)} "
                  "in the proven range")
            return EXIT_VIOLATION, payload
        print("ok: proven range")
        return EXIT_OK, payload
    # the backward residual decides the verdict: the summands can exceed the
    # result by many orders, which inflates the plain metric with pure
    # cancellation noise at larger N
    verdict = "SUPPORTED" if worst_backward <= tol else "VIOLATED"
    print(f"CONJECTURE {verdict} in double precision (proven only for N <= 4; "
          f"worst residual {worst:.12g}, worst backward {worst_backward:.12g})")
    return EXIT_OK, payload


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heun-racah",
        description="Racah-algebra representation, Heun operator identities, "
                    "and Bethe-ansatz diagonalization")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="residual sweeps over the relation catalog")
    v.add_argument("--relations", default="all",
                   help="comma-separated relation tags, or 'all'")
    v.add_argument("--params", required=True)
    v.add_argument("--samples", type=positive_int, default=50)
    v.add_argument("--tol", type=tolerance, default=None,
                   help="override the per-relation default tolerance (finite, >= 0)")
    v.add_argument("--seed", type=nonnegative_int, default=0)
    v.add_argument("--out", default=None, help="write a JSON report")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("spectrum", help="dense eigenvalues of the Heun operator")
    s.add_argument("--params", required=True)
    s.add_argument("--out", default=None)
    s.add_argument("--csv", default=None, help="write eigenvalues as re,im CSV")
    s.set_defaults(func=cmd_spectrum)

    so = sub.add_parser("solve", help="diagonalize via the Bethe equations")
    so.add_argument("--mode", choices=["homogeneous", "inhomogeneous", "auto"],
                    default="auto")
    so.add_argument("--params", required=True)
    so.add_argument("--starts", type=positive_int, default=64)
    so.add_argument("--seed", type=nonnegative_int, default=0)
    so.add_argument("--out", default=None)
    so.set_defaults(func=cmd_solve)

    m = sub.add_parser("check-maba", help="probe the (N+1)-root reduction identity")
    m.add_argument("--params", required=True)
    m.add_argument("--N", type=int, default=None)
    m.add_argument("--draws", type=positive_int, default=50)
    m.add_argument("--seed", type=nonnegative_int, default=0)
    m.add_argument("--out", default=None)
    m.set_defaults(func=cmd_check_maba)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        code, payload = args.func(args, load_params(args.params))
        if args.out:
            write_output(args.out, dump_json(payload))
        return code
    except (ParamFileError, ParameterDomainError, CanonicalizationError,
            ModeError, DimensionError, OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
