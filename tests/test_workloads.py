"""Op 0 of every benchmark workload passes the benchmark's own output check.

perfbench/workloads.py is loaded read-only from its file: its problem set-up,
its op and the check it applies to every op's output.  A change to the
package that breaks that check, or the report every op serializes, fails
here, in the tier-1 suite, before a benchmark run.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import heun_racah

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_0_passes_the_output_check(name):
    workload = workloads.WORKLOADS[name]
    problems = workload.setup(heun_racah)
    report = workload.run(heun_racah, problems, 0, 0)
    checked = workload.check(heun_racah, problems, 0, report)
    assert checked.problems == ()
    assert checked.certified > 0 and checked.coverage > 0
    assert workload.report_json(heun_racah, report)


def test_verify_catalog_op_643_at_seed_12_passes_the_output_check():
    # its PSI_FACTORED sweep (seed 3298771751) draws u 0.01 from a root, where
    # the forward residual of the dual forms of psi read 3.1e-10 > 1e-10
    workload = workloads.WORKLOADS["verify-catalog"]
    ctx = workload.setup(heun_racah)
    reports = workload.run(heun_racah, ctx, 643, 12)
    checked = workload.check(heun_racah, ctx, 643, reports)
    assert checked.problems == ()
    assert checked.certified == len(heun_racah.RelationId) and checked.coverage == 1.0


def test_report_digests_prints_each_op_digest():
    # tools/report_digests.py, for one op of each workload at one seed
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "report_digests.py"),
                          "--root", str(ROOT), "--seeds", "3", "--ops", "1"],
                         capture_output=True, text=True, check=True)
    digests = json.loads(run.stdout)
    assert sorted(digests) == sorted(workloads.WORKLOADS)
    for by_seed in digests.values():
        assert list(by_seed) == ["3"] and len(by_seed["3"]) == 1
        assert len(by_seed["3"][0]) == 64 and int(by_seed["3"][0], 16) >= 0
