"""Per-layer tracing from outside the package.

`Instrumentation` replaces chosen functions of `heun_racah` with wrappers
that record spans or counts, in every module namespace that holds them
(a module that did `from .bethe import bethe_vector` holds its own name),
and puts the originals back on exit.  Nothing under `src/` changes.

A span records name, start, end, parent span and op id.  Spans are kept in
compact arrays for the whole run; a span's self time is its duration minus
the durations of its direct children, which never overlap because the
benchmark is single-threaded.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

# Layers timed with a span (calls and busy time).
SPANS = (
    "core.anticommutator", "core.dense_spectrum",
    "racah.build_representation",
    "dynamical.op_A", "dynamical.op_B",
    "heun.build_W_parametric",
    "bethe.bethe_vector", "bethe.inhomogeneous_residuals", "bethe.unwanted_U",
    "solver.seed_starts",
)
# Hot scalar functions that are only counted: a span per call would
# dominate what it measures.
COUNTED = ("bethe.vacuum_coeffs", "bethe.maba_reduce", "bethe.inhomogeneous_scales")
# Reasons `solver` records in SolveReport.diagnostics["rejected"].
REJECT_REASONS = ("pole", "newton", "pole_margin", "root_collision", "bethe_residual",
                  "degenerate_vector", "eigen_residual", "no_oracle_match")
SOLVE_SPAN = "solver.solve"
SETUP_OP = -1


class Tracer:
    """In-memory span and counter store; `clock` is replaceable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[int, Counter] = {}
        self.set_op(SETUP_OP)

    def set_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.current = self.counters.setdefault(op_id, Counter())

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(float("nan"))
        self.start.append(self.clock())
        self._stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def spans(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())

    def op_counts(self, ops) -> list[dict[str, int]]:
        """Per op: span calls by name plus every counter, for the determinism guard."""
        sp = self.spans()
        out = []
        for op in ops:
            names = sp["name"][sp["op"] == op]
            counts = {self.names[k]: int(c) for k, c in
                      zip(*np.unique(names, return_counts=True))}
            counts.update(self.counters.get(op, {}))
            out.append(dict(sorted(counts.items())))
        return out


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its direct children cover."""
    inside = parent >= 0
    covered = np.bincount(parent[inside], weights=duration[inside],
                          minlength=len(duration))
    return duration - covered


def _span(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        idx = tracer.begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    key = name + ".calls"

    def wrapper(*args, **kwargs):
        tracer.current[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _newton(tracer: Tracer, fn):
    nid = tracer.name_id("solver.newton_refine")

    def wrapper(f, *args, **kwargs):
        def counted(x):
            tracer.current["solver.newton.evals"] += 1
            return f(x)
        idx = tracer.begin(nid)
        try:
            x, converged, iterations = fn(counted, *args, **kwargs)
        finally:
            tracer.finish(idx)
        tracer.current["solver.newton.iters"] += iterations
        tracer.current["solver.newton.converged"] += int(converged)
        return x, converged, iterations
    return wrapper


def _draw_until(tracer: Tracer, fn):
    nid = tracer.name_id("sampling.draw_until")

    def wrapper(rng, draw, *args, **kwargs):
        def counted(r):
            tracer.current["sampling.draw_until.draws"] += 1
            return draw(r)
        idx = tracer.begin(nid)
        try:
            return fn(rng, counted, *args, **kwargs)
        finally:
            tracer.finish(idx)
    return wrapper


def _verify_relation(tracer: Tracer, fn):
    def wrapper(relation, *args, **kwargs):
        name = "dynamical.verify_relation." + getattr(relation, "value", str(relation))
        idx = tracer.begin(tracer.name_id(name))
        try:
            return fn(relation, *args, **kwargs)
        finally:
            tracer.finish(idx)
    return wrapper


def _solve(tracer: Tracer, fn):
    nid = tracer.name_id(SOLVE_SPAN)

    def wrapper(*args, **kwargs):
        idx = tracer.begin(nid)
        try:
            report = fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
        tracer.current["solver.states.distinct"] += report.distinct
        for reason, n in report.diagnostics.get("rejected", {}).items():
            key = reason if reason in REJECT_REASONS else "other"
            tracer.current["solver.reject." + key] += n
        return report
    return wrapper


class Instrumentation:
    """Context manager that swaps the traced functions in and out."""

    def __init__(self, tracer: Tracer, package: str = "heun_racah"):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == package or name.startswith(package + ".")}

        def target(qualified):
            mod, attr = qualified.split(".")
            return getattr(modules[f"{package}.{mod}"], attr)

        makers = {q: (lambda fn, q=q: _span(tracer, q, fn)) for q in SPANS}
        makers.update({q: (lambda fn, q=q: _counted(tracer, q, fn)) for q in COUNTED})
        makers["solver.newton_refine"] = lambda fn: _newton(tracer, fn)
        makers["sampling.draw_until"] = lambda fn: _draw_until(tracer, fn)
        makers["dynamical.verify_relation"] = lambda fn: _verify_relation(tracer, fn)
        makers["solver.solve_inhomogeneous"] = lambda fn: _solve(tracer, fn)
        makers["solver.solve_homogeneous"] = lambda fn: _solve(tracer, fn)

        replacement = {}
        for qualified, make in makers.items():
            fn = target(qualified)
            replacement[id(fn)] = (fn, make(fn))
        self.patches = []
        for mod in modules.values():
            for attr, value in vars(mod).items():
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    self.patches.append((mod, attr, value, hit[1]))

    def __enter__(self):
        for mod, attr, _, wrapper in self.patches:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original, _ in self.patches:
            setattr(mod, attr, original)
        return False


def layer_metrics(tracer: Tracer, ops, relations) -> dict[str, tuple[float, str]]:
    """Per-layer metrics averaged over the traced ops `ops`.

    Busy times and call counts are per op, Newton counters per start; the
    representation build time comes from the traced set-up.
    """
    sp = tracer.spans()
    dur = sp["end"] - sp["start"]
    own = self_times(sp["parent"], dur)
    in_ops = np.isin(sp["op"], list(ops))
    n = max(len(ops), 1)
    totals = Counter()
    for op in ops:
        totals.update(tracer.counters.get(op, {}))

    def spans_of(name, where=in_ops):
        if name not in tracer._ids:
            return np.zeros(len(dur), dtype=bool)
        return where & (sp["name"] == tracer._ids[name])

    def calls(name):
        return float(np.count_nonzero(spans_of(name))) / n

    def busy(name):
        return float(dur[spans_of(name)].sum()) / n

    out: dict[str, tuple[float, str]] = {}
    for name in ("bethe.inhomogeneous_residuals", "bethe.unwanted_U",
                 "solver.newton_refine", "core.anticommutator", "dynamical.op_B",
                 "dynamical.op_A", "bethe.bethe_vector", "core.dense_spectrum",
                 "heun.build_W_parametric"):
        out[name + ".calls"] = (calls(name), "calls/op")
        out[name + ".s"] = (busy(name), "s/op")
    for name in COUNTED:
        out[name + ".calls"] = (totals[name + ".calls"] / n, "calls/op")
    out["solver.seed_starts.s"] = (busy("solver.seed_starts"), "s/op")

    starts = np.count_nonzero(spans_of("solver.newton_refine"))
    per_start = (lambda k: totals[k] / starts) if starts else (lambda k: 0.0)
    out["solver.newton.iters_per_start"] = (per_start("solver.newton.iters"), "iters/start")
    out["solver.newton.evals_per_start"] = (per_start("solver.newton.evals"), "evals/start")
    out["solver.newton_refine.converged_ratio"] = (per_start("solver.newton.converged"),
                                                   "ratio")
    out["solver.states.distinct"] = (totals["solver.states.distinct"] / n, "states/op")
    for reason in REJECT_REASONS + ("other",):
        key = "solver.reject." + reason
        out[key] = (totals[key] / n, "rejects/op")
    out["solver.solve.self_s"] = (float(own[spans_of(SOLVE_SPAN)].sum()) / n, "s/op")

    for rel in relations:
        out[f"dynamical.verify_relation.{rel}.s"] = (
            busy("dynamical.verify_relation." + rel), "s/op")
    draws = totals["sampling.draw_until.draws"]
    draw_calls = np.count_nonzero(spans_of("sampling.draw_until"))
    out["sampling.draw_until.calls"] = (draw_calls / n, "calls/op")
    out["sampling.draw_until.draws"] = (draws / n, "draws/op")
    out["sampling.draw_until.accept_ratio"] = (draw_calls / draws if draws else 0.0, "ratio")

    setup = sp["op"] == SETUP_OP
    out["racah.build_representation.s"] = (
        float(dur[spans_of("racah.build_representation", setup)].sum()), "s")
    return out
