"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload solve-inhom --seeds 0 1 2 3 4

Runs `run.py` once per seed, one run at a time, and prints for every
end-to-end metric its median and its interquartile distance as a share of
the median, next to the bound fixed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    ok = True
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, vals in values.items():
        median = statistics.median(vals)
        line = f"{name:<40} median {median:.6g}"
        if len(vals) >= 2 and median:
            line += f"  spread {stats.spread(vals):.4f}"
        if bounds.get(name) is not None:
            line += f"  bound {bounds[name]}"
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
