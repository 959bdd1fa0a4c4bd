"""Batch driver: run verification cases and desk-scale experiments.

Verbs
    identity-verify   canonical residuals of the weighted identity
    identity-steps    derivation-step identities and their reassembly
    carleman-heat     manufactured pairs vs the parabolic inequality
    carleman-gl       forward ensembles vs the time-global inequality
    inverse-gl        interior-from-terminal stability experiment
    demo              growth bound / inward-transport warm-ups

This module parses the flags, runs the identity verbs, dispatches the
experiment verbs to ``experiments`` (imported only for them, so the
identity verbs load no numpy) and writes the report.  Every run is
reproducible from (verb, config, seed).  Reports are JSON with sorted
keys; identical runs produce identical bytes, so wall-clock timings go
to stderr only.  Exit status: 0 when every check passes, 1 when any
check is falsified, 2 on a usage error or a ``RunError`` (in which case
no report is written).
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

from . import identity
from .config import ConfigError, RunError, check_seed, load_config


def _check(case: str, passed, **detail) -> dict:
    return {"case": case, "pass": bool(passed), **detail}


def _residual_check(r: identity.IdentityResidual) -> dict:
    return _check(r.case, r.zero, lhs_monomials=len(r.lhs), rhs_monomials=len(r.rhs),
                  surviving_monomials=list(r.surviving_monomials))


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
# Identity verb runners: each returns (checks, csv rows)
# ---------------------------------------------------------------------------


def run_identity_verify(args) -> tuple[list, list]:
    checks = []
    if args.case is not None:
        if args.n or args.regime:
            raise ConfigError("--case names one specialization: drop --n and --regime")
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
                    surviving_monomials=len(cell.unconstrained.residual)))
            else:
                checks.append(_residual_check(identity.verify_identity(spec)))
            if args.oracle:
                checks.append(_oracle_check(
                    spec, f"n={n},regime={regime}", args.seed or 0, args.oracle))
    return checks, []


def run_identity_steps(args) -> tuple[list, list]:
    steps, whole = identity.verify_proof_steps(args.n or 2)
    return [_residual_check(r) for r in steps + [whole]], []


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    # no prefixes: an abbreviated --out or --csv would reach the echo
    p = argparse.ArgumentParser(
        prog="carlemanlab", allow_abbrev=False,
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

    sp = sub.add_parser("identity-verify", allow_abbrev=False,
                        help="canonical residuals of the weighted identity")
    sp.add_argument("--regime", choices=list(identity.REGIMES))
    sp.add_argument("--n", type=int, choices=[1, 2, 3])
    sp.add_argument("--case", help="verify a single specialization instead")
    sp.add_argument("--oracle", type=int, default=0, metavar="N",
                    help="also spot-check with N exact jet assignments")
    common(sp)

    sp = sub.add_parser("identity-steps", allow_abbrev=False,
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
        sp = sub.add_parser(verb, allow_abbrev=False, help=blurb)
        sp.add_argument("--config", metavar="PATH",
                        help="JSON config file (default: documented values)")
        if verb == "demo":
            sp.add_argument("--case", choices=["ode", "first_order"],
                            help="shortcut for the config 'case' field")
        common(sp, csv_series=True)
    return p


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
    check_seed(args.seed)
    command = _echo(args.command_echo)
    del args.command_echo
    if args.verb in ("identity-verify", "identity-steps"):
        runner = (run_identity_verify if args.verb == "identity-verify"
                  else run_identity_steps)
        checks, rows = runner(args)
        seed = args.seed
    else:
        from . import experiments
        cfg = load_config(args.verb, args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.verb == "demo" and args.case is not None:
            cfg = dataclasses.replace(cfg, case=args.case)
        checks, rows = experiments.RUNNERS[args.verb](cfg)
        seed = cfg.seed
        if getattr(args, "csv", None):
            key = f"demo:{cfg.case}" if args.verb == "demo" else args.verb
            write_csv(args.csv, experiments.CSV_HEADERS[key], rows)
    return build_report(args.verb, command, seed, checks)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    args.command_echo = argv
    started = time.monotonic()
    try:
        report = run(args)
    except RunError as exc:
        print(f"carlemanlab: {exc}", file=sys.stderr)
        return 2
    write_report(report, args.out)
    elapsed = time.monotonic() - started
    print(f"carlemanlab: {args.verb} finished in {elapsed:.2f}s "
          f"({'pass' if report['pass'] else 'FALSIFIED'})", file=sys.stderr)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
