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
from .config import ConfigError, RunError, check_seed, load_config, report_check
from .exprs import DIMENSIONS


def _residual_check(r: identity.IdentityResidual) -> dict:
    return report_check(r.case, r.zero, lhs_monomials=len(r.lhs), rhs_monomials=len(r.rhs),
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


# ---------------------------------------------------------------------------
# Identity verb runners: each returns its report checks
# ---------------------------------------------------------------------------


def run_identity_verify(args) -> list:
    """Each target's case is built once; both witnesses read it."""
    if args.case is not None:
        if args.n or args.regime:
            raise ConfigError("--case names one specialization: drop --n and --regime")
        targets = [(args.case, args.case)]
    else:
        targets = [(identity.OperatorSpec(n=n, regime=regime), f"n={n},regime={regime}")
                   for n in ([args.n] if args.n else DIMENSIONS)
                   for regime in ([args.regime] if args.regime else identity.REGIMES)]
    checks = []
    for target, label in targets:
        case = identity.build_case(target)
        if isinstance(target, identity.OperatorSpec) and target.regime == "raw":
            cell = identity.verify_raw_cell(case)
            checks.append(_residual_check(cell.theorem))
            checks.append(report_check(
                f"constraint_pairs(n={target.n})", cell.clean,
                surviving_monomials=len(cell.unconstrained.residual)))
        else:
            checks.append(_residual_check(identity.verify(case)))
        if args.oracle:
            values = identity.numeric_residual(case, seed=args.seed or 0,
                                               assignments=args.oracle)
            checks.append(report_check(f"oracle({label})", all(v.is_zero for v in values),
                                       evaluations=len(values)))
    return checks


def run_identity_steps(args) -> list:
    steps, whole = identity.verify_proof_steps(args.n or 2)
    return [_residual_check(r) for r in steps + [whole]]


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
    sp.add_argument("--n", type=int, choices=DIMENSIONS)
    sp.add_argument("--case", help="verify a single specialization instead")
    sp.add_argument("--oracle", type=int, default=0, metavar="N",
                    help="also spot-check with N exact jet assignments")
    common(sp)

    sp = sub.add_parser("identity-steps", allow_abbrev=False,
                        help="derivation-step identities and reassembly")
    sp.add_argument("--n", type=int, choices=DIMENSIONS)
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
        return build_report(args.verb, command, args.seed, runner(args))
    from . import experiments
    cfg = load_config(args.verb, args.config)
    # --seed, and demo's --case, override the config field of that name
    cfg = dataclasses.replace(cfg, **{name: getattr(args, name) for name in ("seed", "case")
                                      if getattr(args, name, None) is not None})
    checks, header, rows = experiments.RUNNERS[args.verb](cfg)
    if args.csv:
        write_csv(args.csv, header, rows)
    return build_report(args.verb, command, cfg.seed, checks)


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
