"""The benchmark's reach into the program, checked in the test suite.

perfbench/ wraps program functions by name and calls some that no CLI
verb reaches (identity.build_identity, QQi arithmetic, CanonicalForm's
product, exprs.Pow).  This runs those paths on the tree, so a rename or
a deletion that would break the benchmark fails here first.
"""

import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def test_benchmark_wraps_checks_and_probes_the_program():
    lib = worker.Lib(ROOT, time.monotonic())
    tracer = tracing.Tracer()
    tracer.install(lib)  # every name of tracing.WRAPS must resolve
    try:
        data = worker.symbolic_checks(lib, seed=1)
        probe = worker.run_probe(lib, {"seed": 1})
    finally:
        tracer.uninstall()
    assert checks.check_mutations(data["mutations"]) == []
    assert checks.check_order_invariance(data["orders"]) == []
    assert {"identity.build", "canonical.canonicalize"} <= set(tracing.reduce(tracer.spans))
    assert set(probe) <= set(run.PER_LAYER)
    assert all(math.isfinite(v) and v > 0 for v in probe.values())
