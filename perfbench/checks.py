"""Correctness checks on a run's outputs.

Every check is a pure function of values the program produced and
returns a list of problems (empty when the check passes).  Expected
values are recomputed here from the inputs, never copied from an
earlier run, and the checks run outside the timed region.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# Relative tolerance of the checks against closed forms.
REL_TOL = 1e-12


def check_reports(ops, outputs) -> list:
    """Every CLI operation exits 0 with every reported check passing."""
    problems = []
    for op, out in zip(ops, outputs):
        if op[0] != "cli" or "error" in out:
            continue
        label = " ".join(op[1])
        if out["rc"] != 0:
            problems.append(f"{label}: exit code {out['rc']}")
            continue
        report = json.loads(out["report"])
        failing = [c["case"] for c in report["checks"] if c["pass"] is not True]
        if report["pass"] is not True or failing or not report["checks"]:
            problems.append(f"{label}: failing checks {failing}")
    return problems


def check_identical(passes) -> list:
    """Each operation's output is the same bytes in every pass."""
    first = [json.dumps(o, sort_keys=True) for o in passes[0]]
    problems = []
    for k, outputs in enumerate(passes[1:], start=1):
        for i, out in enumerate(outputs):
            if json.dumps(out, sort_keys=True) != first[i]:
                problems.append(f"operation {i}: pass {k} differs from pass 0")
    return problems


def check_mutations(sizes: dict) -> list:
    """canonicalize(lhs - mutated_rhs) is nonzero for every catalog case."""
    return [f"{case}: mutated residual canonicalizes to zero"
            for case, monomials in sizes.items() if monomials <= 0]


def check_order_invariance(digests: dict) -> list:
    """The rhs with every Add reversed serializes to the same bytes."""
    return [f"{label}: reversed Add order changes the canonical form"
            for label, (forward, backward) in digests.items()
            if forward != backward]


def _is_zero(component) -> bool:
    return Fraction(component[0]) == 0 and Fraction(component[1]) == 0


def check_oracle(ops, outputs) -> list:
    """Counts, exact zeros when intact, a nonzero value when mutated.

    An output holds three components (value, dt, dB) per jet value, each
    as the exact real and imaginary parts.
    """
    problems = []
    for op, out in zip(ops, outputs):
        if op[0] != "oracle" or isinstance(out, dict):
            continue
        _, target, _, assignments, points, mutated = op
        values = [out[i:i + 3] for i in range(0, len(out), 3)]
        zero = [all(_is_zero(c) for c in v) for v in values]
        if len(out) % 3 or len(values) != assignments * (points + 1):
            problems.append(f"{target}: {len(out) / 3} values, expected "
                            f"{assignments * (points + 1)}")
        elif mutated and all(zero):
            problems.append(f"{target}: mutation not detected")
        elif not mutated and not all(zero):
            problems.append(f"{target}: nonzero residual value")
    return problems


def check_heat(ops, outputs) -> list:
    """Both sides of every heat ratio are positive and finite."""
    problems = []
    for op, out in zip(ops, outputs):
        if op[0] != "heat" or isinstance(out, dict):
            continue
        for i, rep in enumerate(out):
            for lhs, rhs, ratio in zip(rep["lhs"], rep["rhs"], rep["ratio"]):
                if not (0.0 < lhs < math.inf and 0.0 < rhs < math.inf
                        and ratio == rhs / lhs):
                    problems.append(f"heat pair {i}: lhs={lhs} rhs={rhs} "
                                    f"ratio={ratio}")
    return problems


def _mode_step(b: float, dt: float, dx: float) -> complex:
    """Amplification of sin(pi x) over one implicit step."""
    rho = dt / (dx * dx)
    return 1.0 / (1.0 + 4.0 * rho * (1.0 + 1j * b) * math.sin(math.pi * dx / 2.0) ** 2)


def _relative_error(got, want) -> float:
    scale = max(abs(w) for w in want)
    return max(abs(complex(*g) - w) for g, w in zip(got, want)) / scale


def check_mode_factor(data: dict) -> list:
    """w0 = sin(pi x) decays by (1 + 4 rho (1+ib) sin^2(pi dx/2))^(-m)."""
    lam = _mode_step(data["b"], data["dt"], data["dx"])
    problems = []
    for m, row in zip(data["steps"], data["free"]):
        want = [lam ** m * math.sin(math.pi * x) for x in data["x"]]
        err = _relative_error(row, want)
        if not err <= REL_TOL:
            problems.append(f"mode factor at step {m}: relative error {err:.3g}")
    return problems


def check_a3_product(data: dict) -> list:
    """With a3 = c each path's mode is prod_m lam (1 + c dB_m)."""
    lam = _mode_step(data["b"], data["dt"], data["dx"])
    problems = []
    for i, (incs, row) in enumerate(zip(data["increments"], data["noisy_final"])):
        factor = complex(1.0)
        for db in incs:
            factor *= lam * (1.0 + data["c"] * db)
        want = [factor * math.sin(math.pi * x) for x in data["x"]]
        err = _relative_error(row, want)
        if not err <= REL_TOL:
            problems.append(f"a3 path {i}: relative error {err:.3g}")
    return problems


def _check_detail(report: dict, case: str) -> dict:
    return next((c for c in report["checks"] if c["case"] == case), {})


def check_tau(report: dict, cfg: dict) -> list:
    """tau = 2 kappa / (C + 2 kappa), kappa = e^{3 mu1 t0} - e^{3 mu1 t1}."""
    kappa = math.exp(3.0 * cfg["mu1"] * cfg["t0"]) - math.exp(3.0 * cfg["mu1"] * cfg["t1"])
    want = 2.0 * kappa / (cfg["C_ref"] + 2.0 * kappa)
    got = _check_detail(report, "tau_in_range").get("tau")
    if got is None:
        return ["the report has no tau_in_range check with a tau"]
    if not abs(got - want) <= REL_TOL * want:
        return [f"tau = {got!r}, recomputed {want!r}"]
    return []


def log_objective(mu: float, D1: float, D2: float, kappa: float, C: float,
                  T: float) -> float:
    """log(C e^{-2 mu kappa} D1 + C e^{2 mu e^{C mu T}} D2)."""
    a = math.log(C) - 2.0 * mu * kappa + math.log(D1)
    b = math.log(C) + 2.0 * mu * math.exp(C * mu * T) + math.log(D2)
    hi = max(a, b)
    return hi + math.log(math.exp(a - hi) + math.exp(b - hi))


# The optimizer's bracket and the grid cell of its brute-force oracle.
MU_LO, MU_HI, MU_CELL = 1.0 + 1e-9, 10.0, (10.0 - 1.0) / 9999


def check_mu_star(report: dict, cfg: dict) -> list:
    """mu_star is no worse than the points one grid cell either side.

    The objective is the stability bound with D1 = N2^2, D2 = N3^2 and
    kappa = e^{3 mu1 t0} - e^{3 mu1 t2}, as the report's ensemble gives
    them.
    """
    detail = _check_detail(report, "quotient_spread")
    if not {"mu_star", "N2", "N3"} <= detail.keys():
        return ["the report has no quotient_spread check with mu_star, N2, N3"]
    mu = detail["mu_star"]
    kappa = math.exp(3.0 * cfg["mu1"] * cfg["t0"]) - math.exp(3.0 * cfg["mu1"] * cfg["t2"])
    args = (detail["N2"] ** 2, detail["N3"] ** 2, kappa, cfg["C_ref"], cfg["T"])
    f = log_objective(mu, *args)
    problems = []
    for other in (mu - MU_CELL, mu + MU_CELL):
        if MU_LO <= other <= MU_HI and log_objective(other, *args) < f:
            problems.append(f"mu_star = {mu!r} is not a local minimum: "
                            f"F({other!r}) < F(mu_star)")
    if not MU_LO <= mu <= MU_HI:
        problems.append(f"mu_star = {mu!r} outside ({MU_LO}, {MU_HI}]")
    return problems
