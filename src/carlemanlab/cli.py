"""Batch driver: run verification cases and desk-scale experiments.

Verbs
    identity-verify   canonical residuals of the weighted identity
    identity-steps    derivation-step identities and their reassembly
    carleman-heat     manufactured pairs vs the parabolic inequality
    carleman-gl       forward ensembles vs the time-global inequality
    inverse-gl        interior-from-terminal stability experiment
    demo              growth bound / inward-transport warm-ups

Every run is reproducible from (verb, config, seed).  Reports are JSON
with sorted keys; identical runs produce identical bytes, so wall-clock
timings go to stderr only.  Exit status: 0 when every check passes, 1
when any check is falsified, 2 on a usage or config error (in which
case no report is written).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import identity
from . import inverse as inv
from . import simulate as sim
from . import weights as wt
from .config import CSV_HEADERS, ConfigError, load_config


def _check(case: str, passed, **detail) -> dict:
    return {"case": case, "pass": bool(passed), **detail}


def _residual_check(r: identity.IdentityResidual) -> dict:
    d = r.to_json()
    return _check(d.pop("case"), d.pop("zero"), **d)


def build_report(verb: str, command: str, seed: Optional[int], checks) -> dict:
    """The report of one run, its checks ordered by case id."""
    cases = [c["case"] for c in checks]
    if len(set(cases)) != len(cases):
        raise ValueError("duplicate case ids in report")
    checks = sorted(checks, key=lambda c: c["case"])
    return {
        "verb": verb,
        "command": command,
        "seed": seed,
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }


def report_bytes(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path: Optional[str]) -> None:
    data = report_bytes(report)
    if path is None:
        sys.stdout.write(data)
    else:
        Path(path).write_text(data)


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _oracle_check(target, label: str, seed: int, assignments: int) -> dict:
    values = identity.numeric_residual(target, seed=seed, assignments=assignments)
    zero = all(v.is_zero for v in values)
    return _check(f"oracle({label})", zero, evaluations=len(values))


# ---------------------------------------------------------------------------
# Verb runners: each returns (checks, csv rows)
# ---------------------------------------------------------------------------


def run_identity_verify(args) -> tuple[list, list]:
    checks = []
    if args.case is not None:
        if args.n or args.regime:
            raise ConfigError("--case names one specialization: drop --n and --regime")
        if args.case not in identity.CASE_IDS:
            raise ConfigError(
                f"unknown case '{args.case}' (known: {', '.join(identity.CASE_IDS)})")
        checks.append(_residual_check(identity.verify(identity.build_case(args.case))))
        if args.oracle:
            checks.append(_oracle_check(args.case, args.case, args.seed or 0,
                                        args.oracle))
        return checks, []
    ns = [args.n] if args.n else [1, 2, 3]
    regimes = [args.regime] if args.regime else list(identity.REGIMES)
    for n in ns:
        for regime in regimes:
            spec = identity.OperatorSpec(n=n, regime=regime)
            if regime == "raw":
                cell = identity.verify_raw_cell(spec)
                checks.append(_residual_check(cell.theorem))
                checks.append(_check(
                    f"constraint_pairs(n={n})", cell.clean,
                    surviving_monomials=len(cell.unconstrained.surviving_monomials)))
            else:
                checks.append(_residual_check(identity.verify_identity(spec)))
            if args.oracle:
                checks.append(_oracle_check(
                    spec, f"n={n},regime={regime}", args.seed or 0, args.oracle))
    return checks, []


def run_identity_steps(args) -> tuple[list, list]:
    steps, whole = identity.verify_proof_steps(args.n or 2)
    return [_residual_check(r) for r in steps + [whole]], []


def run_carleman_heat(cfg) -> tuple[list, list]:
    grid = sim.Grid1D(Nx=cfg.Nx, Nt=cfg.Nt, T=cfg.T)
    w = wt.HeatWeight(psi=wt.psi_1d(cfg.G0), mu=cfg.mu, lam=cfg.lambdas[0],
                      T=cfg.T)
    checks, rows = [], []
    streams = np.random.SeedSequence(cfg.seed).spawn(2 * cfg.pairs)
    for i in range(cfg.pairs):
        paths = sim.brownian(cfg.paths, cfg.Nt, streams[2 * i], dt=grid.dt)
        pair = sim.manufacture_heat_pair(grid, paths, cfg.modes,
                                         streams[2 * i + 1])
        if cfg.window is not None:
            pair = sim.windowed_pair(pair, cfg.window[0], cfg.window[1])
        rep = sim.carleman_heat_check(pair, w, cfg.lambdas)
        checks.append(_check(
            f"pair({i:02d})", rep["uniform_ok"] and rep["slope_ok"],
            min_ratio=rep["min_ratio"], uniform_floor=rep["uniform_floor"],
            log_slope=rep["log_slope"],
            min_observation_fraction=min(rep["observation_fraction"])))
        for lam, lhs, rhs, ratio in zip(rep["lambdas"], rep["lhs"],
                                        rep["rhs"], rep["ratio"]):
            rows.append((i, lam, lhs, rhs, ratio))
    return checks, rows


def run_carleman_gl(cfg) -> tuple[list, list]:
    labels = [f"gl(mu={mu:g})" for mu in cfg.mus]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"carleman-gl config: mus {list(cfg.mus)} repeat a "
                          f"report label: {', '.join(labels)}")
    grid = sim.Grid1D(Nx=cfg.Nx, Nt=cfg.Nt, T=cfg.T)
    gws = [wt.GLWeight(mu=mu, T=cfg.T) for mu in cfg.mus]
    streams = np.random.SeedSequence(cfg.seed).spawn(2 * cfg.ensembles)
    # one solve and one check per ensemble serve every mu; reports stay
    # mu-major
    per_member = []
    for i in range(cfg.ensembles):
        problem = sim.make_random_gl_problem(streams[2 * i])
        paths = sim.brownian(cfg.paths, cfg.Nt, streams[2 * i + 1],
                             dt=grid.dt)
        sol = sim.solve_gl_forward(problem, grid, paths)
        per_member.append(sim.carleman_gl_check(sol, gws, cfg.delta))
    checks, rows = [], []
    for mu, label, per_mu in zip(cfg.mus, labels, zip(*per_member)):
        fitted = [rep["fitted_C"] for rep in per_mu]
        zero_members = sum(rep["zero_members"] for rep in per_mu)
        for i, rep in enumerate(per_mu):
            for m, q in enumerate(rep["member_quotients"]):
                rows.append((mu, i, m, q))
        finite = all(np.isfinite(c) and c > 0.0 for c in fitted)
        checks.append(_check(
            label, finite and zero_members == 0,
            fitted_C=max(fitted), zero_members=zero_members))
    return checks, rows


def run_inverse_gl(cfg) -> tuple[list, list]:
    grid = sim.Grid1D(Nx=cfg.Nx, Nt=cfg.Nt, T=cfg.T)
    cut = inv.CutoffSpec(t1=cfg.t1, t2=cfg.t2, t0=cfg.t0, T=cfg.T)
    *streams, optimizer_stream = np.random.SeedSequence(cfg.seed).spawn(
        2 * cfg.ensembles + 1)
    # stream the ensemble: keep each member's norms, and member 0 for the probe
    norms = []
    for i in range(cfg.ensembles):
        problem = sim.make_random_gl_problem(streams[2 * i],
                                             with_coefficients=True,
                                             with_sources=False)
        paths = sim.brownian(cfg.paths, cfg.Nt, streams[2 * i + 1],
                             dt=grid.dt)
        sol = sim.solve_gl_forward(problem, grid, paths)
        norms.append(inv.solution_norms(sol, cut.t0))
        if i == 0:
            first = sol
    rep = inv.stability_experiment(norms, cut, cfg.mu1, cfg.C_ref)
    checks = [
        _check("tau_in_range",
               0.0 < rep.tau < 1.0 and 0.0 < rep.tau_alt < 1.0,
               tau=rep.tau, tau_alt=rep.tau_alt),
        _check("quotient_spread", rep.spread <= 1e3, spread=rep.spread,
               C_fit=rep.C_fit, N1=rep.N1, N2=rep.N2, N3=rep.N3,
               mu_star=rep.mu_star),
        _check("falsifications", not rep.falsifications,
               count=len(rep.falsifications)),
    ]
    probe = inv.backward_uniqueness_probe(first, cut, cfg.mu1,
                                          list(cfg.epsilons), cfg.C_ref)
    checks.append(_check("probe_tampered_flagged",
                         probe["flagged_non_adapted"], slope=probe["slope"]))

    rng = np.random.default_rng(optimizer_stream)
    points = 10000
    cell = (inv.MU_MAX - 1.0) / points
    worst = 0.0
    for _ in range(cfg.optimizer_draws):
        D1 = 10.0 ** rng.uniform(-6.0, 2.0)
        D2 = 10.0 ** rng.uniform(-6.0, 2.0)
        kappa = 10.0 ** rng.uniform(-2.0, 1.0)
        C = 10.0 ** rng.uniform(-1.0, 1.5)
        T = rng.uniform(0.05, 0.5)
        mu_opt = inv.optimize_mu(D1, D2, kappa, C, T)
        mu_grid = inv.brute_force_mu(D1, D2, kappa, C, T, points=points)
        worst = max(worst, abs(mu_opt - mu_grid))
    checks.append(_check("optimizer_grid_match", worst <= cell,
                         worst_gap=worst, cell=cell,
                         draws=cfg.optimizer_draws))
    rows = [(m, q) for m, q in enumerate(rep.quotients)]
    return checks, rows


def run_demo(cfg) -> tuple[list, list]:
    rep = sim.classic_demos(cfg.case, seed=cfg.seed, draws=cfg.draws)
    checks, rows = [], []
    if cfg.case == "ode":
        for i, run in enumerate(rep["runs"]):
            checks.append(_check(
                f"ode({run['name']})", run["holds_every_step"],
                min_margin=run["min_margin"], growth_rate=run["lambda"]))
            rows.append((i, run["lambda"], run["min_margin"]))
    else:
        for i, run in enumerate(rep["runs"]):
            checks.append(_check(
                f"first_order(draw{i:02d})",
                np.isfinite(run["fitted_C"]) and run["fitted_C"] > 0.0,
                fitted_C=run["fitted_C"], support=run["support"]))
            for lam, q in zip(run["lambdas"], run["quotients"]):
                rows.append((i, lam, q))
    return checks, rows


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="carlemanlab",
        description="verification workbench batch driver")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, csv_series=False):
        sp.add_argument("--out", metavar="PATH",
                        help="write the JSON report here (default: stdout)")
        sp.add_argument("--seed", type=int, metavar="U64",
                        help="override the config seed")
        if csv_series:
            sp.add_argument("--csv", metavar="PATH",
                            help="also write the series as CSV")

    sp = sub.add_parser("identity-verify",
                        help="canonical residuals of the weighted identity")
    sp.add_argument("--regime", choices=list(identity.REGIMES))
    sp.add_argument("--n", type=int, choices=[1, 2, 3])
    sp.add_argument("--case", help="verify a single specialization instead")
    sp.add_argument("--oracle", type=int, default=0, metavar="N",
                    help="also spot-check with N exact jet assignments")
    common(sp)

    sp = sub.add_parser("identity-steps",
                        help="derivation-step identities and reassembly")
    sp.add_argument("--n", type=int, choices=[1, 2, 3])
    common(sp)

    for verb, blurb in (("carleman-heat",
                         "manufactured pairs vs the parabolic inequality"),
                        ("carleman-gl",
                         "forward ensembles vs the time-global inequality"),
                        ("inverse-gl",
                         "interior-from-terminal stability experiment"),
                        ("demo", "growth bound / transport warm-ups")):
        sp = sub.add_parser(verb, help=blurb)
        sp.add_argument("--config", metavar="PATH",
                        help="JSON config file (default: documented values)")
        if verb == "demo":
            sp.add_argument("--case", choices=["ode", "first_order"],
                            help="shortcut for the config 'case' field")
        common(sp, csv_series=True)
    return p


_RUNNERS = {
    "carleman-heat": run_carleman_heat,
    "carleman-gl": run_carleman_gl,
    "inverse-gl": run_inverse_gl,
    "demo": run_demo,
}


def _validate_seed(seed: Optional[int]) -> None:
    if seed is not None and not (0 <= seed < 2 ** 64):
        raise ConfigError(f"seed must fit in u64, got {seed}")


def _echo(argv) -> str:
    """Command echo without the output-path plumbing, so a run's bytes
    depend only on (verb, config, seed)."""
    kept, skip = [], False
    for a in argv:
        if skip:
            skip = False
            continue
        if a in ("--out", "--csv"):
            skip = True
            continue
        if a.startswith("--out=") or a.startswith("--csv="):
            continue
        kept.append(a)
    return " ".join(kept)


def run(args) -> dict:
    """Execute one parsed command and assemble its report."""
    _validate_seed(args.seed)
    command = _echo(args.command_echo)
    del args.command_echo
    if args.verb in ("identity-verify", "identity-steps"):
        runner = (run_identity_verify if args.verb == "identity-verify"
                  else run_identity_steps)
        checks, rows = runner(args)
        seed = args.seed
    else:
        cfg = load_config(args.verb, args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.verb == "demo" and args.case is not None:
            cfg = dataclasses.replace(cfg, case=args.case)
        checks, rows = _RUNNERS[args.verb](cfg)
        seed = cfg.seed
        if getattr(args, "csv", None):
            key = f"demo:{cfg.case}" if args.verb == "demo" else args.verb
            write_csv(args.csv, CSV_HEADERS[key], rows)
    return build_report(args.verb, command, seed, checks)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    args.command_echo = argv
    started = time.monotonic()
    try:
        report = run(args)
    except (ConfigError, wt.WeightError, sim.SimError, inv.InverseError,
            identity.SpecError) as exc:
        print(f"carlemanlab: {exc}", file=sys.stderr)
        return 2
    write_report(report, args.out)
    elapsed = time.monotonic() - started
    print(f"carlemanlab: {args.verb} finished in {elapsed:.2f}s "
          f"({'pass' if report['pass'] else 'FALSIFIED'})", file=sys.stderr)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
