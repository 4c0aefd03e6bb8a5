"""Benchmark runner for heun-racah: one workload, one seed, one run.

    python3 perfbench/run.py --workload solve-inhom --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  A run times a set-up (import plus problem objects) several times,
runs one untimed warm-up op, then runs ops for at least `--seconds` and
checks every op's output outside the timed interval.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`.

With `--trace 0` the metrics are the end-to-end ones.  Set-up and op
times, and the rates derived from them, are scaled by the host-speed
factor measured in the same run (see hostspeed.py); the raw wall times
are printed above the JSON line.  `fail_frac` is printed there too: it
is `failed / attempted`, and is left out of the JSON metrics, which must
never read 0.

With `--trace 1` each op runs twice, untraced and then traced, and the
metrics are the per-layer ones from the traced runs, plus the tracing
overhead (traced against untraced op_s.p50).  Both runs of an op must
give the same report digest.

Determinism guard: the warm-up op repeats op 0 and must match it, and
per-op report digests (and, traced, per-op layer counts) are kept under
`.perfbench_state/` in the checkout; a later run of the same code and
seed must agree with them on every op both ran.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench_state"
PACKAGE = "heun_racah"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 15
# At least this many timed ops, so that each size of a three-size rotation
# has ten ops for its median; more when the workload's tail percentile needs it.
MIN_OPS = 30
CALIBRATE_EVERY_S = 0.25


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("solve-inhom", "solve-wide", "verify-catalog"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(np) -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"blas_threads={os.environ[BLAS_VARS[0]]} nproc={os.cpu_count()} "
            f"cpu={cpu}")


def timed_setup(wl, calibrate):
    """Import the package afresh and build the problem objects, SETUP_REPS
    times, each after one run of the host-speed kernel.  Returns the last
    package and problem, the median set-up time and the median kernel time."""
    times, kernel = [], []
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules
                     if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        kernel.append(calibrate())
        t0 = time.perf_counter()
        hr = importlib.import_module(PACKAGE)
        importlib.import_module(PACKAGE + ".serialize")
        problem = wl.setup(hr)
        times.append(time.perf_counter() - t0)
    return hr, problem, statistics.median(times), statistics.median(kernel)


def timed(call):
    """(seconds, result, exception) of one op."""
    t0 = time.perf_counter()
    try:
        result, error = call(), None
    except Exception as exc:  # a failed op is counted, not fatal
        result, error = None, exc
        traceback.print_exc(file=sys.stderr)
    return time.perf_counter() - t0, result, error


def measure(step, seconds: float, group: int, min_ops: int, calibrate=None):
    """Run step(0), step(1), ... until `seconds` have passed, at least
    `min_ops` ops ran and the last rotation of `group` ops is whole.

    With `calibrate`, the host-speed kernel also runs before the first op
    and after every CALIBRATE_EVERY_S of op time, outside the op times.
    Returns the step records and the kernel times.
    """
    records, kernel = [], []
    start = time.perf_counter()
    due = 0.0
    while True:
        if calibrate is not None and due <= 0.0:
            kernel.append(calibrate())
            due = CALIBRATE_EVERY_S
        records.append(step(len(records)))
        if calibrate is not None:
            due -= records[-1][0]
        n = len(records)
        if n % group == 0 and n >= min_ops and time.perf_counter() - start >= seconds:
            return records, kernel


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.joinpath(PACKAGE).glob("*.py"),
                        *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def guard_store(path: Path, code: str, records: dict) -> list[str]:
    """Compare per-op records with those of earlier runs of the same code
    and seed on the ops both ran, then keep the longer record."""
    stored = json.loads(path.read_text()) if path.exists() else {}
    if stored.get("code") != code:
        stored = {"code": code}
    problems = []
    for key, new in records.items():
        old = stored.get(key, [])
        bad = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), None)
        if bad is not None:
            problems.append(f"op {bad}: {key} differ from an earlier run of the same code")
        elif len(new) > len(old):
            stored[key] = old + new[len(old):]
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored))
    os.replace(tmp, path)
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np
    import hostspeed
    import stats
    import tracing
    from workloads import Checked, WORKLOADS, digest

    wl = WORKLOADS[args.workload]
    hr, problem, setup_s, setup_kernel = timed_setup(wl, hostspeed.kernel_seconds)
    if not Path(hr.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported {hr.__file__}, not the checkout's source",
              file=sys.stderr)
        return 2
    print(f"perfbench workload={wl.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print(f"env {environment(np)}")

    def call(i):
        return lambda: wl.run(hr, problem, i, args.seed)

    def verdict(i, rec) -> tuple[Checked, str]:
        _, result, error = rec
        if error is not None:
            text = f"error: {type(error).__name__}: {error}"
            return Checked(0, 0.0, (text,)), digest(text)
        try:
            return wl.check(hr, problem, i, result), digest(wl.report_json(hr, result))
        except Exception as exc:  # a check that cannot run fails the op
            traceback.print_exc(file=sys.stderr)
            text = f"check error: {type(exc).__name__}: {exc}"
            return Checked(0, 0.0, (text,)), digest(text)

    guard = []
    _, warm_digest = verdict(0, timed(call(0)))

    if args.trace:
        tracer = tracing.Tracer()
        instrumented = tracing.Instrumentation(tracer, PACKAGE)
        with instrumented:
            wl.setup(hr)

        def step(i):
            plain = timed(call(i))
            tracer.set_op(i)
            with instrumented:
                return plain, timed(call(i))

        pairs, _ = measure(step, args.seconds, wl.group, wl.group)
        records = [traced for _, traced in pairs]
        plain_digests = [verdict(i, plain)[1] for i, (plain, _) in enumerate(pairs)]
    else:
        least = max(MIN_OPS, stats.min_ops(wl.tail_pct) if wl.tail_pct else 0)
        records, kernel = measure(lambda i: timed(call(i)), args.seconds, wl.group,
                                  least, hostspeed.kernel_seconds)

    checks, digests = zip(*(verdict(i, rec) for i, rec in enumerate(records)))
    if digests[0] != warm_digest:
        guard.append("op 0: report differs from the warm-up run of the same op")
    stored = {"digests": list(digests)}
    if args.trace:
        guard += [f"op {i}: traced report differs from the untraced one"
                  for i, (a, b) in enumerate(zip(plain_digests, digests)) if a != b]
        stored["counts"] = tracer.op_counts(range(len(records)))
    guard += guard_store(STATE_DIR / f"{wl.name}-seed{args.seed}.json", code_hash(), stored)

    problems = [c.problems for c in checks]
    n, n_failed = len(records), stats.failed(problems)
    for i, p in enumerate(problems):
        for text in p:
            print(f"FAIL op {i}: {text}")
    for text in guard:
        print(f"FAIL determinism: {text}")

    if args.trace:
        traced_p50 = stats.p50([r[0] for r in records], wl.group)
        plain_p50 = stats.p50([p[0] for p, _ in pairs], wl.group)
        metrics = tracing.layer_metrics(tracer, range(n), [r.value for r in hr.RelationId])
        metrics["trace.overhead"] = (traced_p50 / plain_p50, "ratio")
        print(f"trace overhead: traced op_s.p50 {traced_p50:.6g} s against "
              f"untraced {plain_p50:.6g} s over {n} ops")
        tracer.save(STATE_DIR / f"spans-{wl.name}-seed{args.seed}.npz")
    else:
        times = [r[0] for r in records]
        busy = sum(times)
        ok = [c for c in checks if not c.problems]
        p50_s = stats.p50(times, wl.group)
        tail_s = stats.tail(times, wl.tail_pct) if wl.tail_pct else p50_s
        scale = hostspeed.REFERENCE_S / statistics.median(kernel)
        metrics = {
            "setup_s": (setup_s * hostspeed.REFERENCE_S / setup_kernel, "s"),
            "op_s.p50": (p50_s * scale, "s"),
            "op_s.tail": (tail_s * scale, "s"),
            "ops_per_s": (len(ok) / (busy * scale), "1/s"),
            "certified_per_s": (sum(c.certified for c in ok) / (busy * scale), "1/s"),
            "coverage": (statistics.fmean(c.coverage for c in checks), "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        tail_note = (f"p{wl.tail_pct:g} of {n} ops, {stats.TAIL_BEYOND} or more beyond it"
                     if wl.tail_pct else f"op_s.p50 again: too few of {n} ops per size")
        print(f"op_s.tail is {tail_note}; set-up is the median of {SETUP_REPS}")
        print(f"host-speed factor {scale:.6g} from {len(kernel)} kernel runs; raw wall: "
              f"setup_s {setup_s:.6g} s, op_s.p50 {p50_s:.6g} s, op_s.tail {tail_s:.6g} s, "
              f"ops_per_s {len(ok) / busy:.6g} 1/s over {busy:.3f} s of ops")
        if wl.group > 1:
            print("op_s.p50 by N: " + ", ".join(
                f"N={N} {statistics.median(times[k::wl.group]):.6g} s"
                for k, N in enumerate(wl.sizes)))
        print(f"{'fail_frac':<40} {n_failed / n:.6g} fraction ({n_failed} of {n} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:.6g} {unit}")

    print(json.dumps({
        "correct": n_failed == 0 and not guard,
        "attempted": n,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
