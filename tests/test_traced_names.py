"""Every function the benchmark's tracer wraps must exist in the package.

perfbench/tracing.py patches functions by qualified name.  Building its
Instrumentation resolves each of them, so a rename or removal fails here
rather than in a traced benchmark run (`perfbench/run.py --trace 1`).
"""

from pathlib import Path

import heun_racah  # noqa: F401  (Instrumentation reads the loaded submodules)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_instrumentation_resolves_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    patches = tracing.Instrumentation(tracing.Tracer()).patches
    patched = {f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}" for mod, attr, _, _ in patches}
    # verify_relation carries the per-relation spans, draw_until the draw counts;
    # the operator families live in racah, so their spans count every build
    # only if each module that holds them is patched
    for name in ("bethe.inhomogeneous_scales", "bethe.unwanted_U",
                 "solver.seed_starts", "solver.build_W_parametric",
                 "solver.newton_refine", "dynamical.verify_relation",
                 "sampling.draw_until", "dynamical.op_A", "dynamical.op_B",
                 "racah.op_A", "bethe.op_B"):
        assert name in patched
