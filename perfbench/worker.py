"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py ROOT LAUNCH_MONOTONIC < job.json

The parent records ``time.monotonic()`` just before it launches this
process and passes it as LAUNCH_MONOTONIC; CLOCK_MONOTONIC is shared by
all processes, so set-up time here includes interpreter start-up.
The job is a JSON object on stdin; the result is one JSON line on stdout.

Modes
    setup   import the package and load the configs, nothing else
    pass    run the job's operations, timed one by one
    check   compute the program-side values the correctness checks need
    probe   layer measurements on fixed inputs (traced runs only)
"""

import contextlib
import hashlib
import io
import json
import math
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads


def spin(n: int = 100_000) -> int:
    """A fixed pure-Python loop of about 20 ms, the speed gauge."""
    acc = 0
    seen = {}
    for i in range(n):
        acc = (acc * 31 + i) % 1000003
        seen[i & 1023] = acc
    return acc


def calibrate() -> float:
    """Time of one ``spin``.  The shared host runs this interpreter at
    speeds that swing by up to 40% within seconds; the parent scales each
    measured time by the gauge read next to it (``run.REF_CALIB_S``)."""
    t0 = time.perf_counter()
    spin()
    return time.perf_counter() - t0


class Lib:
    """The program's modules, imported once per pass."""

    def __init__(self, root: Path, launched: float):
        started = time.perf_counter()
        import carlemanlab.cli as cli
        self.import_s = time.perf_counter() - started
        package = Path(sys.modules["carlemanlab"].__file__).resolve()
        if root / "src" not in package.parents:
            raise SystemExit(f"carlemanlab was imported from {package}, "
                             f"not from {root / 'src'}")
        from carlemanlab import exprs, identity, inverse, simulate, weights
        from carlemanlab.config import load_config
        self.cli, self.exprs = cli, exprs
        self.identity, self.inverse = identity, inverse
        self.simulate, self.weights = simulate, weights
        self.configs = {verb: load_config(verb, str(root / path))
                        for verb, path in workloads.CONFIGS.items()}
        self.setup_s = time.monotonic() - launched


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def spec_of(lib, target):
    if isinstance(target, str):
        return target
    return lib.identity.OperatorSpec(n=target[0], regime=target[1])


def heat_pairs(lib, seed):
    """The carleman-heat verb's library calls, without its pass/fail
    verdict (which is falsified on some seeds; see CHANGES.md)."""
    cfg, sim, wt = lib.configs["carleman-heat"], lib.simulate, lib.weights
    grid = sim.Grid1D(Nx=cfg.Nx, Nt=cfg.Nt, T=cfg.T)
    w = wt.HeatWeight(psi=wt.psi_1d(cfg.G0), mu=cfg.mu, lam=cfg.lambdas[0],
                      T=cfg.T)
    reps = []
    for i in range(cfg.pairs):
        paths = sim.brownian(cfg.paths, cfg.Nt,
                             workloads.derive(seed, f"paths/{i}"), dt=grid.dt)
        pair = sim.manufacture_heat_pair(grid, paths, cfg.modes,
                                         workloads.derive(seed, f"pair/{i}"))
        if cfg.window is not None:
            pair = sim.windowed_pair(pair, cfg.window[0], cfg.window[1])
        reps.append(sim.carleman_heat_check(pair, w, cfg.lambdas))
    return reps


def run_op(lib, op):
    """Run one operation; returns (succeeded, raw output)."""
    kind = op[0]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = lib.cli.main(list(op[1]))
        return rc == 0, (rc, out.getvalue(), err.getvalue())
    if kind == "oracle":
        _, target, seed, assignments, points, mutated = op
        return True, lib.identity.numeric_residual(
            spec_of(lib, target), seed=seed, assignments=assignments,
            points=points, mutated=mutated)
    if kind == "heat":
        return True, heat_pairs(lib, op[1])
    raise ValueError(f"unknown operation kind {kind!r}")


def encode(op, raw):
    """JSON form of an operation's output, made after the timed region."""
    kind = op[0]
    if kind == "cli":
        rc, report, err = raw
        return {"rc": rc, "report": report, "stderr": "" if rc == 0 else err}
    if kind == "oracle":
        return [[str(q.re), str(q.im)] for v in raw for q in (v.value, v.dt, v.dB)]
    return [{"lhs": r["lhs"], "rhs": r["rhs"], "ratio": r["ratio"]} for r in raw]


# Span around each operation: CLI verbs get one per verb; an oracle
# operation is exactly one wrapped ``numeric_residual`` call.
OP_SPANS = {
    "cli": lambda op: "cli." + workloads.op_name(op),
    "oracle": None,
    "heat": lambda op: "simulate.heat_pairs",
}


def run_pass(lib, job):
    tracer = None
    if job.get("trace"):
        import tracing
        tracer = tracing.Tracer()
        tracer.install(lib)
    times, oks, raws = [], [], []
    calib = [calibrate()]
    for op in job["ops"]:
        span = tracer.begin(OP_SPANS[op[0]](op)) if tracer and OP_SPANS[op[0]] else None
        t0 = time.perf_counter()
        try:
            ok, raw = run_op(lib, op)
        except Exception as exc:  # an operation that raises counts as failed
            ok, raw = False, exc
        times.append(time.perf_counter() - t0)
        if span is not None:
            tracer.end(span)
        oks.append(ok)
        raws.append(raw)
        calib.append(calibrate())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"wall_s": math.fsum(times), "op_s": times, "calib_s": calib,
              "ok": oks, "peak_rss_mb": rss_mb,
              "outputs": [{"error": repr(raw)} if isinstance(raw, Exception)
                          else encode(op, raw)
                          for op, raw in zip(job["ops"], raws)]}
    if tracer:
        tracer.uninstall()
        Path(job["trace_path"]).write_text(json.dumps(tracer.spans))
        result["layers"] = tracing.reduce(tracer.spans)
        result["spans"] = len(tracer.spans)
    return result


# ---------------------------------------------------------------------------
# Program-side values for the correctness checks
# ---------------------------------------------------------------------------


def reverse_adds(lib, e, memo):
    """Rebuild an expression DAG with every Add's terms reversed."""
    ex = lib.exprs
    key = id(e)
    if key in memo:
        return memo[key]
    if isinstance(e, ex.Add):
        out = ex.Add(tuple(reverse_adds(lib, t, memo) for t in reversed(e.terms)))
    elif isinstance(e, ex.Mul):
        out = ex.Mul(tuple(reverse_adds(lib, f, memo) for f in e.factors))
    elif isinstance(e, ex.Pow):
        out = ex.Pow(reverse_adds(lib, e.base, memo), e.exp)
    elif isinstance(e, ex.Dx):
        out = ex.Dx(e.j, reverse_adds(lib, e.arg, memo))
    elif isinstance(e, (ex.Dt, ex.DIto, ex.Conj, ex.RePart, ex.ImPart)):
        out = type(e)(reverse_adds(lib, e.arg, memo))
    else:
        out = e
    memo[key] = out
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def symbolic_checks(lib, seed):
    idn = lib.identity
    mutations = {}
    for case_id in idn.CASE_IDS:
        case = idn.build_case(case_id)
        form = idn.canonicalize(case.lhs - case.mutated_rhs, case.ctx)
        mutations[case_id] = len(form)
    orders = {}
    for n in (1, 2):
        for regime in idn.REGIMES:
            _, rhs, ws = idn.build_identity(idn.OperatorSpec(n=n, regime=regime))
            forward = idn.canonicalize(rhs, ws.ctx).serialize()
            backward = idn.canonicalize(reverse_adds(lib, rhs, {}), ws.ctx).serialize()
            orders[f"n={n},{regime}"] = [digest(forward), digest(backward)]
    return {"mutations": mutations, "orders": orders}


def complex_rows(a):
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def experiment_checks(lib, seed):
    """Forward solves with a closed-form answer: one Dirichlet sine mode."""
    import numpy as np
    sim = lib.simulate
    cfg = lib.configs["carleman-gl"]
    grid = sim.Grid1D(Nx=cfg.Nx, Nt=cfg.Nt, T=cfg.T)
    rng = random.Random(workloads.derive(seed, "checks"))
    b = rng.uniform(-1.0, 1.0)
    c = rng.uniform(0.1, 0.5)

    def mode(x):
        return np.sin(np.pi * x)

    def const_a3(x, t):
        return np.full(len(x), c)

    paths = sim.brownian(4, grid.Nt, workloads.derive(seed, "checks/paths"),
                         dt=grid.dt)
    free = sim.solve_gl_forward(sim.SPDEProblem(b=b, w0=mode), grid, paths)
    noisy = sim.solve_gl_forward(sim.SPDEProblem(b=b, a3=const_a3, w0=mode),
                                 grid, paths)
    steps = list(range(0, grid.Nt + 1, 30)) + [grid.Nt]
    return {
        "b": b, "c": c, "dx": grid.dx, "dt": grid.dt, "Nt": grid.Nt,
        "x": [float(v) for v in grid.x],
        "steps": steps,
        "free": [complex_rows(free.w[:1, m, :])[0] for m in steps],
        "increments": paths.increments.tolist(),
        "noisy_final": complex_rows(noisy.w[:, -1, :]),
    }


def run_check(lib, job):
    if job["workload"] == "symbolic":
        return symbolic_checks(lib, job["seed"])
    return experiment_checks(lib, job["seed"])


# ---------------------------------------------------------------------------
# Layer probes on fixed inputs
# ---------------------------------------------------------------------------


def median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def run_probe(lib, job):
    from carlemanlab.exact import QQi
    idn, ex = lib.identity, lib.exprs
    rng = random.Random(workloads.derive(job["seed"], "probe"))
    count = 20000

    def ints():
        return QQi(rng.randint(-999, 999), rng.randint(-999, 999))

    def rats():
        return QQi(Fraction(rng.randint(-999, 999), rng.randint(2, 999)),
                   Fraction(rng.randint(-999, 999), rng.randint(2, 999)))

    int_pairs = [(ints(), ints()) for _ in range(count)]
    rat_pairs = [(rats(), rats()) for _ in range(count)]

    def mul(pairs):
        return lambda: [a * b for a, b in pairs]

    def add(pairs):
        return lambda: [a + b for a, b in pairs]

    out = {
        "exact.mul_int_us": median_time(mul(int_pairs), 5) / count * 1e6,
        "exact.add_int_us": median_time(add(int_pairs), 5) / count * 1e6,
        "exact.mul_rat_us": median_time(mul(rat_pairs), 5) / count * 1e6,
    }

    lhs, rhs, ws = idn.build_identity(idn.OperatorSpec(n=3, regime="R1"))
    nodes, distinct = dag_sizes(ex, rhs)
    out["exprs.rhs_n3_nodes"] = nodes
    out["exprs.rhs_n3_distinct_ratio"] = distinct / nodes
    t0 = time.perf_counter()
    idn.canonicalize(lhs, ws.ctx)
    out["canonical.lhs_n3_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    idn.canonicalize(rhs, ws.ctx)
    out["canonical.rhs_n3_s"] = time.perf_counter() - t0

    catalog = 0.0
    forms = {}
    for case_id in idn.CASE_IDS:
        case = idn.build_case(case_id)
        t0 = time.perf_counter()
        forms[case_id] = (idn.canonicalize(case.lhs, case.ctx),
                          idn.canonicalize(case.rhs, case.ctx))
        catalog += time.perf_counter() - t0
    out["canonical.catalog_s"] = catalog
    left, right = forms["transport"]
    out["canonical.form_mul_ms"] = median_time(lambda: left * right, 21) * 1e3

    spec = idn.OperatorSpec(n=2, regime="R1")
    seed = workloads.derive(job["seed"], "probe/oracle")
    out["jetoracle.assignment_n2_s"] = median_time(
        lambda: idn.numeric_residual(spec, seed=seed, assignments=1), 3)
    return out


def dag_sizes(ex, root):
    """(nodes by identity, nodes by structure) of an expression DAG."""
    shape_of, by_shape = {}, {}

    def shape(e):
        key = id(e)
        if key in shape_of:
            return shape_of[key]
        kids = tuple(shape(k) for k in children(ex, e))
        if isinstance(e, ex.Const):
            payload = (e.value.re, e.value.im)
        elif isinstance(e, ex.Sym):
            payload = id(e.sym)
        elif isinstance(e, (ex.Pow, ex.Dx)):
            payload = e.exp if isinstance(e, ex.Pow) else e.j
        else:
            payload = None
        s = by_shape.setdefault((type(e).__name__, payload, kids), len(by_shape))
        shape_of[key] = s
        return s

    shape(root)
    return len(shape_of), len(by_shape)


def children(ex, e):
    if isinstance(e, ex.Add):
        return e.terms
    if isinstance(e, ex.Mul):
        return e.factors
    if isinstance(e, ex.Pow):
        return (e.base,)
    if hasattr(e, "arg"):
        return (e.arg,)
    return ()


def main():
    root, launched = Path(sys.argv[1]).resolve(), float(sys.argv[2])
    job = json.loads(sys.stdin.read())
    lib = Lib(root, launched)
    result = {"setup_s": lib.setup_s, "import_s": lib.import_s,
              "setup_calib_s": calibrate()}
    mode = job["mode"]
    if mode == "pass":
        result.update(run_pass(lib, job))
    elif mode == "check":
        result.update(run_check(lib, job))
    elif mode == "probe":
        result.update(run_probe(lib, job))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
