"""Negative controls: every correctness check rejects a wrong value.

Run with ``python3 -m pytest perfbench``.  Each check is also shown to
accept the right value, computed from its formula or, for the solver
checks, produced by the program itself.
"""

import json
import math
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _report(pass_=True, checks_=None):
    if checks_ is None:
        checks_ = [{"case": "a", "pass": True}]
    return json.dumps({"pass": pass_, "checks": checks_})


CLI_OP = ["cli", ["carleman-gl", "--seed", "1"]]


def test_reports():
    assert checks.check_reports([CLI_OP], [{"rc": 0, "report": _report()}]) == []
    assert checks.check_reports([CLI_OP], [{"rc": 1, "report": _report(False)}])
    bad = _report(True, [{"case": "a", "pass": False}])
    assert checks.check_reports([CLI_OP], [{"rc": 0, "report": bad}])
    assert checks.check_reports([CLI_OP], [{"rc": 0, "report": _report(True, [])}])


def test_identical():
    assert checks.check_identical([[{"x": 1}], [{"x": 1}]]) == []
    assert checks.check_identical([[{"x": 1}], [{"x": 2}]])


def test_mutations():
    assert checks.check_mutations({"ode": 3}) == []
    assert checks.check_mutations({"ode": 3, "fst": 0})


def test_order_invariance():
    assert checks.check_order_invariance({"n=1,R1": ["ab", "ab"]}) == []
    assert checks.check_order_invariance({"n=1,R1": ["ab", "ac"]})


def _oracle_output(values):
    """values: one bool per jet value, True meaning nonzero."""
    out = []
    for nonzero in values:
        out += [["0", "0"], ["1/3" if nonzero else "0", "0"], ["0", "0"]]
    return out


def test_oracle():
    plain = ["oracle", "ode", 5, 2, 1, False]
    mutated = ["oracle", "ode", 5, 2, 1, True]
    assert checks.check_oracle([plain], [_oracle_output([False] * 4)]) == []
    assert checks.check_oracle([plain], [_oracle_output([False, True, False, False])])
    assert checks.check_oracle([plain], [_oracle_output([False] * 3)])
    assert checks.check_oracle([mutated], [_oracle_output([False, False, True, False])]) == []
    assert checks.check_oracle([mutated], [_oracle_output([False] * 4)])


def test_heat():
    good = [{"lhs": [2.0, 4.0], "rhs": [1.0, 1.0], "ratio": [0.5, 0.25]}]
    assert checks.check_heat([["heat", 1]], [good]) == []
    bad = [{"lhs": [2.0, -4.0], "rhs": [1.0, 1.0], "ratio": [0.5, -0.25]}]
    assert checks.check_heat([["heat", 1]], [bad])
    bad = [{"lhs": [2.0, 4.0], "rhs": [1.0, 1.0], "ratio": [0.5, 0.3]}]
    assert checks.check_heat([["heat", 1]], [bad])


@pytest.fixture(scope="module")
def solver_data():
    lib = worker.Lib(ROOT, time.monotonic())
    return worker.experiment_checks(lib, seed=1)


def _scaled(rows, factor):
    return [[[re * factor, im * factor] for re, im in row] for row in rows]


def test_mode_factor(solver_data):
    assert checks.check_mode_factor(solver_data) == []
    wrong = dict(solver_data, free=_scaled(solver_data["free"], 1.0 + 1e-9))
    assert checks.check_mode_factor(wrong)
    assert checks.check_mode_factor(dict(solver_data, b=solver_data["b"] + 1e-6))


def test_a3_product(solver_data):
    assert checks.check_a3_product(solver_data) == []
    wrong = dict(solver_data, noisy_final=_scaled(solver_data["noisy_final"], 1.0 + 1e-9))
    assert checks.check_a3_product(wrong)
    assert checks.check_a3_product(dict(solver_data, c=solver_data["c"] * 1.001))


INVERSE_CFG = {"mu1": 3.0, "t0": 0.15, "t1": 0.06, "t2": 0.12, "C_ref": 10.0, "T": 0.3}


def _inverse_report(tau=None, mu_star=None, N2=0.8, N3=0.05):
    return {"checks": [{"case": "tau_in_range", "tau": tau},
                       {"case": "quotient_spread", "mu_star": mu_star,
                        "N2": N2, "N3": N3}]}


def test_tau():
    cfg = INVERSE_CFG
    kappa = math.exp(3 * cfg["mu1"] * cfg["t0"]) - math.exp(3 * cfg["mu1"] * cfg["t1"])
    tau = 2 * kappa / (cfg["C_ref"] + 2 * kappa)
    assert checks.check_tau(_inverse_report(tau=tau), cfg) == []
    assert checks.check_tau(_inverse_report(tau=tau * (1 + 1e-9)), cfg)
    assert checks.check_tau({"checks": []}, cfg)


def _argmin(f, lo, hi):
    """Golden-section search, independent of the program's optimizer."""
    g = (math.sqrt(5) - 1) / 2
    while hi - lo > 1e-10:
        a, b = hi - g * (hi - lo), lo + g * (hi - lo)
        if f(a) < f(b):
            hi = b
        else:
            lo = a
    return (lo + hi) / 2


def test_mu_star():
    cfg = INVERSE_CFG
    N2, N3 = 0.8, 0.05
    kappa = math.exp(3 * cfg["mu1"] * cfg["t0"]) - math.exp(3 * cfg["mu1"] * cfg["t2"])
    args = (N2 ** 2, N3 ** 2, kappa, cfg["C_ref"], cfg["T"])
    mu = _argmin(lambda m: checks.log_objective(m, *args), checks.MU_LO, checks.MU_HI)
    assert checks.MU_LO < mu < checks.MU_HI
    assert checks.check_mu_star(_inverse_report(mu_star=mu, N2=N2, N3=N3), cfg) == []
    off = mu + 3 * checks.MU_CELL
    assert checks.check_mu_star(_inverse_report(mu_star=off, N2=N2, N3=N3), cfg)
    assert checks.check_mu_star(_inverse_report(mu_star=11.0, N2=N2, N3=N3), cfg)
    assert checks.check_mu_star({"checks": []}, cfg)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
