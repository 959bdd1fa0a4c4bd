"""carlemanlab benchmark: one workload per invocation.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 18 --trace 0

Run from a source checkout (``src/carlemanlab`` and ``configs/`` beside
``perfbench/``).  Passes run one at a time, each in a fresh interpreter
(``worker.py``), until ``--seconds`` have gone by and at least two passes
are done, so every run attempts whole passes.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  A human summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
# The parent reads the package's case list; workers import it themselves.
sys.path.insert(0, str(ROOT / "src"))

# A run must end within 180 s; leave room for the checks and the report.
RUN_BUDGET_S = 170.0
# Set-up-only launches after every untraced pass, on top of the pass's
# own set-up, so that set-up is sampled across the whole run.
SETUP_PROBES = 3
# The time of the speed gauge ``worker.calibrate`` on the reference
# machine at its usual speed.  Time metrics are reported at that speed:
# each measured time is multiplied by REF_CALIB_S over the gauge's time
# read next to it in the same interpreter, which removes most of the
# shared host's speed swings (README, "Scaling by the speed gauge").
REF_CALIB_S = 0.020
# Numeric libraries run single-threaded: the machine has two cores and
# passes run one at a time, so a second thread would only add noise.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_geomean_s", "s"),
    ("peak_rss_mb", "MB"),
)

SELF_LAYERS = ("cli", "identity", "canonical", "jetoracle", "simulate", "inverse")
VERBS = ("identity_verify", "identity_steps", "carleman_gl", "inverse_gl",
         "demo_ode", "demo_first_order")

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "exact.mul_int_us": ("us", "lower"),
    "exact.add_int_us": ("us", "lower"),
    "exact.mul_rat_us": ("us", "lower"),
    "identity.build_s": ("s", "lower"),
    "exprs.rhs_n3_nodes": ("count", "lower"),
    "exprs.rhs_n3_distinct_ratio": ("ratio", "higher"),
    "canonical.lhs_n3_s": ("s", "lower"),
    "canonical.rhs_n3_s": ("s", "lower"),
    "canonical.form_mul_ms": ("ms", "lower"),
    "canonical.catalog_s": ("s", "lower"),
    "canonical.monomials": ("count", "lower"),
    "canonical.monomials_per_s": ("1/s", "higher"),
    "jetoracle.assignment_n2_s": ("s", "lower"),
    "jetoracle.eval_many_s": ("s", "lower"),
    "jetoracle.evals": ("count", "higher"),
    "jetoracle.evals_per_s": ("1/s", "higher"),
    "simulate.forward_solves": ("count", "lower"),
    "simulate.forward_solve_s": ("s", "lower"),
    "simulate.path_steps_per_s": ("1/s", "higher"),
    "simulate.gl_check_s": ("s", "lower"),
    "simulate.heat_check_s": ("s", "lower"),
    "simulate.manufacture_s": ("s", "lower"),
    "inverse.brute_force_s": ("s", "lower"),
    "inverse.optimize_s": ("s", "lower"),
    "inverse.stability_s": ("s", "lower"),
    "inverse.probe_s": ("s", "lower"),
    **{f"cli.{verb}_s": ("s", "lower") for verb in VERBS},
    "cli.import_s": ("s", "lower"),
    **{f"self.{layer}_s": ("s", "lower") for layer in SELF_LAYERS},
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


class Launcher:
    """Starts worker interpreters one at a time under one deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_BUDGET_S
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env.update({var: "1" for var in THREAD_VARS})
        env["PYTHONPATH"] = str(ROOT / "src")
        self.env = env

    def __call__(self, job: dict) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the run finished")
        launched = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(ROOT), repr(launched)],
                input=json.dumps(job), capture_output=True, text=True,
                env=self.env, cwd=ROOT, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{job['mode']} worker timed out") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{job['mode']} worker exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.splitlines()[-1])


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def run_passes(launch, ops, seconds, trace_prefix=None):
    """Passes until ``seconds`` have gone by and at least two are done.
    With ``trace_prefix``, passes alternate untraced and traced; without
    it, set-up probes follow every pass."""
    passes, traced, setups = [], [], []
    started = time.monotonic()
    while len(passes) + len(traced) < 2 or time.monotonic() - started < seconds:
        passes.append(launch({"mode": "pass", "ops": ops}))
        if trace_prefix is not None:
            traced.append(launch({"mode": "pass", "ops": ops, "trace": True,
                                  "trace_path": f"{trace_prefix}-{len(traced)}.json"}))
        else:
            setups += [launch({"mode": "setup"}) for _ in range(SETUP_PROBES)]
    return passes, traced, setups


def correctness(workload, ops, seed, passes, launch) -> list:
    outputs = [p["outputs"] for p in passes]
    first = outputs[0]
    problems = checks.check_identical(outputs) + checks.check_reports(ops, first)
    if workload == "oracle":
        return problems + checks.check_oracle(ops, first)
    extra = launch({"mode": "check", "workload": workload, "seed": seed})
    if workload == "symbolic":
        problems += checks.check_mutations(extra["mutations"])
        problems += checks.check_order_invariance(extra["orders"])
    else:
        problems += checks.check_heat(ops, first)
        problems += checks.check_mode_factor(extra)
        problems += checks.check_a3_product(extra)
        cfg = json.loads((ROOT / workloads.CONFIGS["inverse-gl"]).read_text())
        for op, out in zip(ops, first):
            if op[0] == "cli" and op[1][0] == "inverse-gl" and out.get("rc") == 0:
                report = json.loads(out["report"])
                problems += checks.check_tau(report, cfg)
                problems += checks.check_mu_star(report, cfg)
    return problems


def scaled_setup(worker_result) -> float:
    return worker_result["setup_s"] * REF_CALIB_S / worker_result["setup_calib_s"]


def scaled_ops(pass_) -> list:
    """Each operation's time at the reference speed, by the mean of the
    gauge read just before and just after it."""
    c = pass_["calib_s"]
    return [t * 2.0 * REF_CALIB_S / (c[i] + c[i + 1])
            for i, t in enumerate(pass_["op_s"])]


def end_to_end(passes, setups) -> dict:
    # Each operation's fastest time over the passes: a burst of load on
    # the shared machine only ever slows an operation down.
    op_best = [min(times) for times in zip(*(scaled_ops(p) for p in passes))]
    values = {
        "setup_s": statistics.median(scaled_setup(r) for r in setups + passes),
        "wall_s": math.fsum(op_best),
        "op_geomean_s": geomean(op_best),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def unscaled(passes, setups) -> str:
    """The same time metrics without the gauge, for the human summary."""
    op_best = [min(times) for times in zip(*(p["op_s"] for p in passes))]
    gauge = statistics.median(c for p in passes for c in p["calib_s"])
    return (f"unscaled setup_s = {statistics.median(r['setup_s'] for r in setups + passes):.6g} s, "
            f"wall_s = {math.fsum(op_best):.6g} s, "
            f"op_geomean_s = {geomean(op_best):.6g} s; gauge median {gauge * 1e3:.3g} ms "
            f"(reference {REF_CALIB_S * 1e3:.3g} ms)")


def per_layer(traced, untraced, probe) -> dict:
    def stat(p, name, key="total_s"):
        return p["layers"].get(name, {}).get(key, 0)

    def rate(p, name, key):
        busy = stat(p, name)
        return stat(p, name, key) / busy if busy > 0 else 0.0

    rows = {
        "identity.build_s": lambda p: stat(p, "identity.build"),
        "canonical.monomials": lambda p: stat(p, "canonical.canonicalize", "monomials"),
        "canonical.monomials_per_s": lambda p: rate(p, "canonical.canonicalize", "monomials"),
        "jetoracle.eval_many_s": lambda p: stat(p, "jetoracle.eval_jet_many"),
        "jetoracle.evals": lambda p: stat(p, "jetoracle.eval_jet_many", "evals"),
        "jetoracle.evals_per_s": lambda p: rate(p, "jetoracle.eval_jet_many", "evals"),
        "simulate.forward_solves": lambda p: stat(p, "simulate.forward_solve", "calls"),
        "simulate.forward_solve_s": lambda p: stat(p, "simulate.forward_solve"),
        "simulate.path_steps_per_s": lambda p: rate(p, "simulate.forward_solve", "path_steps"),
        "trace.spans": lambda p: p["spans"],
    }
    for short in ("gl_check", "heat_check", "manufacture"):
        rows[f"simulate.{short}_s"] = lambda p, n=f"simulate.{short}": stat(p, n)
    for short in ("brute_force", "optimize", "stability", "probe"):
        rows[f"inverse.{short}_s"] = lambda p, n=f"inverse.{short}": stat(p, n)
    for verb in VERBS:
        rows[f"cli.{verb}_s"] = lambda p, n=f"cli.{verb}": stat(p, n)
    for layer in SELF_LAYERS:
        rows[f"self.{layer}_s"] = lambda p, layer=layer: sum(
            row["self_s"] for name, row in p["layers"].items()
            if name.split(".")[0] == layer)

    values = dict(probe)
    values.update({name: statistics.median(fn(p) for p in traced)
                   for name, fn in rows.items()})
    values["cli.import_s"] = statistics.median(p["import_s"] for p in untraced + traced)
    values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in untraced))
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    launch = Launcher()
    ops = workloads.operations(workload, seed)
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        untraced, traced, setups = run_passes(launch, ops, seconds,
                                              str(OUT_DIR / f"trace-{workload}-{seed}"))
        passes = untraced + traced
        probe = launch({"mode": "probe", "seed": seed})
        del probe["setup_s"], probe["import_s"], probe["setup_calib_s"]
        metrics = per_layer(traced, untraced, probe)
    else:
        passes, _, setups = run_passes(launch, ops, seconds)
        metrics = end_to_end(passes, setups)
        print(f"perfbench: {workload} {unscaled(passes, setups)}", file=sys.stderr)
    keys = ("setup_s", "setup_calib_s", "wall_s", "op_s", "calib_s", "peak_rss_mb")
    (OUT_DIR / f"times-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"ops": [workloads.op_name(op) for op in ops],
                    "setups": [[r["setup_s"], r["setup_calib_s"]] for r in setups],
                    "passes": [{key: p[key] for key in keys} for p in passes]}))
    problems = correctness(workload, ops, seed, passes, launch)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    failed = sum(not ok for p in passes for ok in p["ok"])
    return {"correct": not problems, "attempted": len(ops) * len(passes),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    missing = [path for path in ["src/carlemanlab/__init__.py",
                                 *workloads.CONFIGS.values()]
               if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: not a carlemanlab checkout, missing {missing}",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"perfbench: {args.workload} {name} = {m['value']:.6g} {m['unit']}",
              file=sys.stderr)
    print(f"perfbench: {args.workload} attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
