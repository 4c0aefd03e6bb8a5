"""Print the sha256 digest of each benchmark op's report, as JSON.

    python3 tools/report_digests.py --root DIR --workloads solve-inhom solve-wide \
        --seeds 0 1 --ops 30

For each workload and workload seed, ops 0..ops-1 run as perfbench/run.py
runs them, and each op's `report_json` digest is printed: an op that
raises gets the digest of the error text run.py gives it.  The package is
imported from DIR/src and the workloads from DIR/perfbench/workloads.py,
which is loaded read-only, so two checkouts, say a change and its parent,
can be compared byte for byte by diffing the two outputs.  BLAS runs on
one thread, as in the benchmark.  The output is one JSON object,
{workload: {seed: [digest of op 0, ...]}}.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("solve-inhom", "solve-wide", "verify-catalog")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="the source checkout (default: this one)")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[0])
    ap.add_argument("--ops", type=int, default=30)
    return ap.parse_args(argv)


def load_workloads(root: Path):
    """perfbench/workloads.py of root, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def digests(hr, wl, seed: int, ops: int, digest) -> list[str]:
    problem = wl.setup(hr)
    out = []
    for i in range(ops):
        try:
            result = wl.run(hr, problem, i, seed)
        except Exception as exc:  # run.py's verdict on an op that raises
            out.append(digest(f"error: {type(exc).__name__}: {exc}"))
            continue
        out.append(digest(wl.report_json(hr, result)))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = args.root.resolve()
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    import heun_racah as hr
    if not Path(hr.__file__).resolve().is_relative_to(root / "src"):
        print(f"report_digests: imported {hr.__file__}, not {root / 'src'}", file=sys.stderr)
        return 2
    workloads = load_workloads(root)
    result = {name: {str(seed): digests(hr, workloads.WORKLOADS[name], seed, args.ops,
                                        workloads.digest)
                     for seed in args.seeds}
              for name in args.workloads}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
