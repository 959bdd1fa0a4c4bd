"""Batch driver: determinism contract, exit codes, report and CSV shapes."""

import ast
import collections
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import types

import numpy as np
import pytest

from carlemanlab import cli, identity
from carlemanlab import inverse as inv
from carlemanlab import simulate as sim
from carlemanlab.canonical import canonicalize
from carlemanlab.config import (
    ConfigError,
    DemoConfig,
    GLCarlemanConfig,
    HeatCarlemanConfig,
    InverseConfig,
    RunError,
    load_config,
)
from carlemanlab.exprs import DIMENSIONS, DIMENSIONS_TEXT, DT, Context, ExprError, conj
from carlemanlab.jetoracle import Gauss
from carlemanlab.weights import WeightError

from strategies import FAST_GL, FAST_INV

FAST_HEAT = dict(pairs=2, paths=6, modes=4, Nx=40, Nt=200, T=1.0,
                 lambdas=[20, 40], seed=11)

# The CSV header of each experiment verb, and of each demo case.
CSV_HEADERS = {
    "carleman-heat": ("pair", "lambda", "lhs", "rhs", "ratio"),
    "carleman-gl": ("mu", "ensemble", "member", "quotient"),
    "inverse-gl": ("member", "quotient"),
    "demo:ode": ("draw", "lambda", "min_margin"),
    "demo:first_order": ("draw", "lambda", "quotient"),
}


def write_config(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run_to_file(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    return code, out


def assert_config_rejected(tmp_path, verb, payload):
    """The verb exits 2 on this config text and writes no report or CSV."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(payload)
    out, series = tmp_path / "never.json", tmp_path / "never.csv"
    code = cli.main([verb, "--config", str(cfg), "--out", str(out),
                     "--csv", str(series)])
    assert code == 2, payload
    assert not out.exists() and not series.exists()


# -- golden reports (symbolic content: integers only) ------------------


def test_transport_report_matches_golden(tmp_path, goldens_dir):
    code, out = run_to_file(tmp_path, ["identity-verify", "--case", "transport"])
    assert code == 0
    assert out.read_bytes() == (goldens_dir / "report_identity_transport.json").read_bytes()


def test_steps_report_matches_golden(tmp_path, goldens_dir):
    code, out = run_to_file(tmp_path, ["identity-steps", "--n", "1"])
    assert code == 0
    assert out.read_bytes() == (goldens_dir / "report_steps_n1.json").read_bytes()


def test_default_steps_report_matches_golden(tmp_path, goldens_dir):
    # the default run is n = 2, as the symbolic benchmark runs it
    code, out = run_to_file(tmp_path, ["identity-steps"])
    assert code == 0
    assert out.read_bytes() == (goldens_dir / "report_steps_n2.json").read_bytes()


def test_raw_report_matches_golden(tmp_path, goldens_dir):
    # the three raw theorem checks and the three constraint_pairs checks
    code, out = run_to_file(tmp_path, ["identity-verify", "--regime", "raw"])
    assert code == 0
    assert out.read_bytes() == (goldens_dir / "report_identity_raw.json").read_bytes()


# -- determinism -------------------------------------------------------


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    argv = ["demo", "--case", "ode"]
    code1, a = run_to_file(tmp_path, argv, "a.json")
    code2, b = run_to_file(tmp_path, argv, "b.json")
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()
    # stdout run produces the same bytes as the file run
    capsys.readouterr()
    assert cli.main(argv) == 0
    cap = capsys.readouterr()
    assert cap.out.encode() == a.read_bytes()
    assert "finished in" in cap.err and "finished in" not in cap.out


def test_output_paths_not_echoed_into_report(tmp_path):
    _, a = run_to_file(tmp_path, ["identity-verify", "--case", "ode"], "a.json")
    rep = json.loads(a.read_text())
    assert rep["command"] == "identity-verify --case ode"
    assert "--out" not in rep["command"]


@pytest.mark.parametrize("flag", ["--ou", "--o", "--cs"])
def test_abbreviated_output_flags_are_usage_errors(tmp_path, capsys, flag):
    # each is a unique prefix for demo; accepted, its path would reach the
    # command echo, which strips only the full --out and --csv
    path = tmp_path / "never"
    with pytest.raises(SystemExit) as exc:
        cli.main(["demo", "--case", "ode", flag, str(path)])
    assert exc.value.code == 2
    assert not path.exists() and capsys.readouterr().out == ""


def test_csv_byte_identical_and_headed(tmp_path):
    cfg = write_config(tmp_path, "heat.json", FAST_HEAT)
    csvs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code = cli.main(["carleman-heat", "--config", cfg,
                         "--out", str(tmp_path / "r.json"), "--csv", str(path)])
        assert code == 0
        csvs.append(path.read_bytes())
    assert csvs[0] == csvs[1]
    lines = csvs[0].decode().splitlines()
    assert lines[0] == ",".join(CSV_HEADERS["carleman-heat"])
    assert len(lines) == 1 + FAST_HEAT["pairs"] * len(FAST_HEAT["lambdas"])


@pytest.mark.parametrize("case", ["ode", "first_order"])
def test_demo_flags_override_the_config_fields_they_name(tmp_path, case):
    # --case and --seed replace the config's case and seed, as a config
    # that sets both does
    runs = {}
    cfg = write_config(tmp_path, "demo.json", {"case": case, "seed": 5})
    for label, argv in (("flags", ["demo", "--case", case, "--seed", "5"]),
                        ("config", ["demo", "--config", cfg])):
        series = tmp_path / f"{label}.csv"
        code, out = run_to_file(tmp_path, argv + ["--csv", str(series)], f"{label}.json")
        assert code == 0
        rep = json.loads(out.read_text())
        runs[label] = rep["seed"], rep["checks"], series.read_text()
    assert runs["flags"] == runs["config"]
    seed, _, table = runs["flags"]
    assert seed == 5
    assert table.splitlines()[0] == ",".join(CSV_HEADERS[f"demo:{case}"])


def test_seed_override_lands_in_report_and_echo(tmp_path):
    cfg = write_config(tmp_path, "gl.json", FAST_GL)
    _, out = run_to_file(tmp_path, ["carleman-gl", "--config", cfg,
                                    "--seed", "99"])
    rep = json.loads(out.read_text())
    assert rep["seed"] == 99
    assert "--seed 99" in rep["command"]
    assert "--config" in rep["command"]  # config path stays in the echo


# -- exit codes --------------------------------------------------------


def test_all_experiment_verbs_pass_on_fast_configs(tmp_path):
    for verb, payload, key in (
        ("carleman-heat", FAST_HEAT, "carleman-heat"),
        ("carleman-gl", FAST_GL, "carleman-gl"),
        ("inverse-gl", FAST_INV, "inverse-gl"),
    ):
        cfg = write_config(tmp_path, f"{verb}.json", payload)
        csv_path = tmp_path / f"{verb}.csv"
        code, out = run_to_file(tmp_path, [verb, "--config", cfg,
                                           "--csv", str(csv_path)],
                                f"{verb}.json")
        assert code == 0, verb
        rep = json.loads(out.read_text())
        assert rep["pass"] and rep["verb"] == verb
        header = csv_path.read_text().splitlines()[0]
        assert header == ",".join(CSV_HEADERS[key])


@pytest.mark.parametrize("window, floor", [(None, 0.0), ([0.38, 0.72], 0.5)])
def test_heat_pairs_report_their_observation_share(tmp_path, window, floor):
    # a pair windowed inside G0 = (0.3, 0.8) is observation dominated
    cfg = write_config(tmp_path, "heat.json", dict(FAST_HEAT, window=window))
    code, out = run_to_file(tmp_path, ["carleman-heat", "--config", cfg])
    assert code == 0
    shares = [c["min_observation_fraction"]
              for c in json.loads(out.read_text())["checks"]]
    assert len(shares) == FAST_HEAT["pairs"]
    assert all(floor < s <= 1.0 for s in shares), shares


def test_falsified_run_exits_one_and_still_reports(tmp_path, monkeypatch):
    fake = [{"name": "sin", "lambda": 2.0,
             "holds_every_step": False, "min_margin": -0.5}]
    monkeypatch.setattr(sim, "classic_demos",
                        lambda *a, **k: fake)
    code, out = run_to_file(tmp_path, ["demo", "--case", "ode"])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["pass"] is False
    assert rep["checks"][0]["case"] == "ode(sin)"
    assert rep["checks"][0]["pass"] is False


@pytest.mark.parametrize("argv", [
    ["identity-verify", "--case", "bogus"],
    ["demo", "--seed", "-1"],
    ["demo", "--seed", str(2 ** 64)],
    ["identity-verify", "--case", "ode", "--oracle", "-3"],
    ["identity-verify", "--case", "c02", "--n", "3", "--regime", "R2"],
])
def test_usage_errors_exit_two_without_report(tmp_path, argv):
    out = tmp_path / "never.json"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("payload,detail", [
    ("{not json", "parse"),
    ("[1, 2]", "object"),
    (json.dumps({"pears": 3}), "unknown key"),
    (json.dumps({"pairs": "three"}), "type"),
    (json.dumps({"pairs": 0}), "positive"),
    (json.dumps({"modes": 40}), "budget"),
    (json.dumps({"lambdas": [40, 20]}), "increasing"),
    (json.dumps({"lambdas": [20, 20]}), "strictly increasing"),
    (json.dumps({"window": [0.2]}), "pair shape"),
    (json.dumps({"lambdas": [20, True]}), "element type"),
    (json.dumps({"mu": math.inf, "pairs": 1}), "not finite"),
    (json.dumps({"lambdas": [20, math.inf]}), "element not finite"),
    (json.dumps({"window": [0.9, 0.1]}), "window reversed"),
    (json.dumps({"window": [0.5, 0.5]}), "window empty"),
    (json.dumps({"window": [-0.2, 0.6]}), "window below 0"),
    (json.dumps({"window": [0.2, 1.5]}), "window above 1"),
    (json.dumps({"mu": 1418}), "alpha overflows at t = dt"),
    (json.dumps({"mu": 1500}), "e^(2 mu max psi) overflows"),
    (json.dumps({"mu": 4000}), "e^(mu psi) overflows"),
    (json.dumps({"seed": 2 ** 64}), "seed past u64"),
    (json.dumps({"seed": -1}), "negative seed"),
])
def test_config_errors_exit_two_without_report(tmp_path, payload, detail):
    assert_config_rejected(tmp_path, "carleman-heat", payload)


def test_lhs_underflow_exits_two_without_traceback(tmp_path, capsys):
    # far from G0 theta^2 underflows to 0 on the whole window at lambda =
    # 2000, so the LHS is 0 and no ratio exists
    payload = {"window": [0.02, 0.12], "lambdas": [20, 2000, 20000], "pairs": 1}
    assert_config_rejected(tmp_path, "carleman-heat", json.dumps(payload))
    err = capsys.readouterr().err
    assert "lambda = 2000" in err
    assert "Traceback" not in err


def test_rhs_underflow_exits_two_without_traceback(tmp_path, capsys):
    # at Nx = 8 and lambda = 160 theta^2 survives only on x <= 2/3, which the
    # stencil gradient of y reaches from the window's nodes 7/9 and 8/9:
    # the LHS is positive but f, Y and G0 all see theta^2 = 0, so RHS = 0
    payload = {"Nx": 8, "Nt": 8, "pairs": 1, "paths": 2, "modes": 1,
               "window": [0.75, 1.0]}
    assert_config_rejected(tmp_path, "carleman-heat", json.dumps(payload))
    err = capsys.readouterr().err
    assert "Carleman RHS is 0 at lambda = 160" in err
    assert "Traceback" not in err


def test_a_window_between_two_grid_nodes_exits_two(tmp_path, capsys):
    # at the default Nx = 60 no node lies in (0.5, 0.505), so the window is
    # 0 on the whole grid and no lambda could give a positive LHS
    assert_config_rejected(tmp_path, "carleman-heat",
                           json.dumps({"window": [0.5, 0.505]}))
    err = capsys.readouterr().err
    assert "window [0.5, 0.505] holds no grid node (dx = 0.0163934)" in err
    assert "Carleman LHS" not in err and "Traceback" not in err


@pytest.mark.parametrize("verb,payload", [
    ("carleman-gl", {"T": 1e6}),
    ("carleman-gl", {"mus": [1e6]}),
    ("carleman-heat", {"lambdas": [1e300]}),
], ids=["gl-long-horizon", "gl-huge-mu", "heat-huge-lambda"])
def test_overflowing_configs_exit_two_without_traceback(tmp_path, capsys, verb, payload):
    # e^(3 mu T) and lambda^3 leave the double range here; the guards
    # test them without overflowing themselves and refuse the config
    assert_config_rejected(tmp_path, verb, json.dumps(payload))
    err = capsys.readouterr().err
    assert "overflows" in err
    assert "Traceback" not in err


def test_large_mu_underflows_the_weight_without_warning(tmp_path):
    # at mu = 1407 the exponent 2 lam (alpha - max alpha) overflows to
    # -inf; theta^2 must become its documented 0 without a numpy warning
    cfg = write_config(tmp_path, "heat.json", {"mu": 1407, "pairs": 2})
    code, out = run_to_file(tmp_path, ["carleman-heat", "--config", cfg])
    assert code == 1
    rep = json.loads(out.read_text())
    assert [c["pass"] for c in rep["checks"]] == [True, False]
    assert all(math.isfinite(c["min_ratio"]) for c in rep["checks"])


# -- negative controls: every check kind of these runs can fail --------

# Each run named by a control: the verb's argv and, for the experiment
# verbs, its FAST_* config.
CONTROL_RUNS = {
    "carleman-heat": (["carleman-heat"], FAST_HEAT),
    "carleman-gl": (["carleman-gl"], FAST_GL),
    "inverse-gl": (["inverse-gl"], FAST_INV),
    "demo:ode": (["demo", "--case", "ode"], None),
    "demo:first_order": (["demo", "--case", "first_order"], None),
    "identity-verify:raw": (["identity-verify", "--regime", "raw", "--n", "1"], None),
    "identity-verify:oracle": (["identity-verify", "--regime", "R1", "--n", "1",
                                "--oracle", "1"], None),
    "identity-steps": (["identity-steps", "--n", "1"], None),
}


def _verify_mutated(n, regime):
    """The theorem residual of the cell (n, regime) against mutated_rhs."""
    case = identity.build_case(identity.OperatorSpec(n=n, regime=regime))
    return identity.verify(dataclasses.replace(case, rhs=case.mutated_rhs))


def _mutated_theorem(cell):
    """The raw cell with its theorem residual taken against mutated_rhs."""
    return dataclasses.replace(
        cell, theorem=_verify_mutated(cell.theorem.lhs.ctx.n, "raw"))


def _with_stray_monomial(res):
    """res with z conj(z) dt, which holds no null product, added to its
    right side."""
    ctx = res.lhs.ctx
    z = ctx.sym("z")
    stray = canonicalize(z * conj(z) * DT, ctx)
    return identity.IdentityResidual.of(res.case, res.lhs, res.rhs + stray)


def _stray_verdict(res):
    """res with the residual of _with_stray_monomial(res), its sides kept."""
    return dataclasses.replace(res, residual=_with_stray_monomial(res).residual)


def _stray_monomial(cell):
    """The raw cell with a stray monomial in its unconstrained residual."""
    return dataclasses.replace(cell, unconstrained=_with_stray_monomial(cell.unconstrained))


def _nonzero_oracle_value(values):
    """The oracle values with a nonzero dB part in the first draw."""
    return [dataclasses.replace(values[0], dB=Gauss(1, 0)), *values[1:]]


# control -> (run, library module, library function, tamper): tamper changes
# the function's first result in the fields its check reads.  A control is
# named by the kind of check it falsifies, and by a qualifier in
# parentheses when another control of the same kind exists.
NEGATIVE_CONTROLS = {
    "pair": ("carleman-heat", sim, "carleman_heat_check",
             lambda rep: {**rep, "uniform_ok": False}),
    "gl": ("carleman-gl", sim, "carleman_gl_check",
           lambda reps: [{**reps[0], "zero_members": 1}, *reps[1:]]),
    "tau_in_range": ("inverse-gl", inv, "stability_experiment",
                     lambda rep: dataclasses.replace(rep, tau=1.0)),
    "quotient_spread": ("inverse-gl", inv, "stability_experiment",
                        lambda rep: dataclasses.replace(rep, spread=2e3)),
    "falsifications": ("inverse-gl", inv, "stability_experiment",
                       lambda rep: dataclasses.replace(
                           rep, falsifications=[0])),
    "probe_tampered_flagged": ("inverse-gl", inv, "backward_uniqueness_probe",
                               lambda rep: {**rep, "flagged_non_adapted": False}),
    # not optimize_mu, which stability_experiment also calls
    "optimizer_grid_match": ("inverse-gl", inv, "brute_force_mu",
                             lambda mu: mu + 1.0),
    "ode": ("demo:ode", sim, "classic_demos",
            lambda runs: [{**runs[0], "holds_every_step": False}, *runs[1:]]),
    "first_order": ("demo:first_order", sim, "classic_demos",
                    lambda runs: [{**runs[0], "fitted_C": 0.0}, *runs[1:]]),
    "theorem": ("identity-verify:raw", identity, "verify_raw_cell", _mutated_theorem),
    "theorem(R1)": ("identity-verify:oracle", identity, "verify",
                    lambda res: _verify_mutated(res.lhs.ctx.n, "R1")),
    "constraint_pairs": ("identity-verify:raw", identity, "verify_raw_cell",
                         _stray_monomial),
    "oracle": ("identity-verify:oracle", identity, "numeric_residual",
               _nonzero_oracle_value),
    # the first verify call of identity-steps is proof_step(2); the
    # reassembly reads its forms, so the tamper keeps them
    "proof_step": ("identity-steps", identity, "verify", _stray_verdict),
    "reconstruction": ("identity-steps", identity, "verify_reconstruction",
                       _with_stray_monomial),
}


def _kind(name):
    return name.split("(")[0]


def run_control(tmp_path, run):
    argv, payload = CONTROL_RUNS[run]
    if payload is not None:
        argv = argv + ["--config", write_config(tmp_path, "control.json", payload)]
    code, out = run_to_file(tmp_path, argv, "report.json")
    return code, json.loads(out.read_text())


@pytest.fixture(scope="module")
def untampered(tmp_path_factory):
    """Each control run's report, unpatched."""
    reports = {}
    for run in CONTROL_RUNS:
        code, reports[run] = run_control(tmp_path_factory.mktemp(run.replace(":", "_")), run)
        assert code == 0, run
    return reports


@pytest.mark.parametrize("control", sorted(NEGATIVE_CONTROLS))
def test_negative_control_fails_only_its_check(tmp_path, monkeypatch, untampered,
                                               control):
    """Tampering with the fields a check reads, in the library result it
    reads them from, falsifies that check and leaves every other check as
    it was."""
    run, module, name, tamper = NEGATIVE_CONTROLS[control]
    real, calls = getattr(module, name), 0

    def tampered(*args, **kwargs):
        nonlocal calls
        calls += 1
        out = real(*args, **kwargs)
        return tamper(out) if calls == 1 else out

    monkeypatch.setattr(module, name, tampered)
    code, report = run_control(tmp_path, run)
    assert code == 1 and report["pass"] is False
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [_kind(c["case"]) for c in failed] == [_kind(control)]
    kept = [c for c in report["checks"] if c["pass"]]
    assert kept == [c for c in untampered[run]["checks"]
                    if c["case"] != failed[0]["case"]]


def test_every_experiment_check_kind_has_a_negative_control(untampered):
    emitted = {_kind(c["case"]) for rep in untampered.values() for c in rep["checks"]}
    assert emitted == {_kind(control) for control in NEGATIVE_CONTROLS}


def test_missing_config_file_exits_two(tmp_path):
    out = tmp_path / "never.json"
    code = cli.main(["carleman-heat", "--config", str(tmp_path / "nope.json"),
                     "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("n", [*DIMENSIONS, min(DIMENSIONS) - 1, max(DIMENSIONS) + 1])
def test_context_spec_and_n_flag_share_one_dimension_rule(n, tmp_path, capsys):
    out = tmp_path / "steps.json"
    argv = ["identity-steps", "--n", str(n), "--out", str(out)]
    if n in DIMENSIONS:
        assert Context(n).n == identity.OperatorSpec(n=n).n == n
        assert cli.main(argv) == 0 and json.loads(out.read_text())["pass"]
        return
    refused = f"dimension must be {DIMENSIONS_TEXT}, got {n}$"
    with pytest.raises(ExprError, match=f"^spatial {refused}"):
        Context(n)
    with pytest.raises(identity.SpecError, match=f"^{refused}"):
        identity.OperatorSpec(n=n)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert not out.exists() and capsys.readouterr().out == ""


def test_unknown_verb_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["laplace-verify"])
    assert exc.value.code == 2


RUN_ERRORS = (ConfigError, WeightError, sim.SimError, inv.InverseError,
              identity.SpecError)


@pytest.mark.parametrize("error", RUN_ERRORS, ids=lambda e: e.__name__)
def test_every_run_error_exits_two_without_report(tmp_path, monkeypatch, error):
    assert issubclass(error, RunError) and issubclass(error, ValueError)

    def refusing(args):
        raise error("refused")

    monkeypatch.setattr(cli, "run_identity_steps", refusing)
    code, out = run_to_file(tmp_path, ["identity-steps"])
    assert code == 2 and not out.exists()


@pytest.mark.parametrize("error", [ValueError, ExprError], ids=lambda e: e.__name__)
def test_other_value_errors_propagate(tmp_path, monkeypatch, error):
    # a bare ValueError or an expression-kernel error is a program fault,
    # not a refused input: it ends in a traceback, not in exit code 2
    from carlemanlab import experiments

    def failing(cfg):
        raise error("fault")

    monkeypatch.setitem(experiments.RUNNERS, "demo", failing)
    with pytest.raises(error, match="fault"):
        run_to_file(tmp_path, ["demo"])
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("argv", [["identity-verify", "--n", "1"],
                                  ["identity-steps", "--n", "1"]],
                         ids=lambda argv: argv[0])
def test_identity_verbs_import_no_numerics(tmp_path, argv):
    # the identity verbs are exact algebra: a fresh interpreter running
    # one loads neither numpy, scipy nor the numeric modules
    script = textwrap.dedent(f"""
        import sys
        from carlemanlab import cli
        code = cli.main({argv + ["--out", str(tmp_path / "out.json")]!r})
        print(code, [m for m in ("numpy", "scipy", "carlemanlab.simulate")
                     if m in sys.modules])
    """)
    src = pathlib.Path(cli.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 []"


NUMERIC = {"numpy", "scipy", "simulate", "weights", "inverse", "experiments"}
PACKAGE = pathlib.Path(cli.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _imports(module: str) -> tuple[set, set]:
    """The names a package module imports anywhere in its file, and those
    it imports outside any function: each dotted module path's parts and
    each imported name, so that `from . import weights` yields weights."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    in_functions = {id(node) for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                    for node in ast.walk(fn)}
    anywhere, top = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {*(node.module or "").split("."), *(a.name for a in node.names)}
        elif isinstance(node, ast.Import):
            names = {part for a in node.names for part in a.name.split(".")}
        else:
            continue
        anywhere |= names
        if id(node) not in in_functions:
            top |= names
    return anywhere, top


@pytest.mark.parametrize("module", ["exact", "exprs", "canonical", "jetoracle",
                                    "identity", "config"])
def test_symbolic_modules_import_no_numerics(module):
    # the layering that test_identity_verbs_import_no_numerics samples on
    # two runs, read off every line: not even inside a function
    anywhere, _ = _imports(module)
    assert not anywhere & NUMERIC


SYMBOLIC = {"exact", "exprs", "canonical", "jetoracle", "identity"}


@pytest.mark.parametrize("module", ["simulate", "weights", "inverse", "experiments"])
def test_numeric_modules_import_no_symbolic_modules(module):
    # the converse layering: the numerics read no exact algebra, so an
    # experiment verb loads neither witness
    anywhere, _ = _imports(module)
    assert not anywhere & SYMBOLIC


def test_cli_imports_the_experiments_only_inside_a_function():
    anywhere, top = _imports("cli")
    assert "experiments" in anywhere
    assert not top & NUMERIC


@pytest.mark.parametrize("module", [m for m in MODULES if m != "cli"])
def test_no_package_module_imports_the_driver(module):
    # the driver sits on top: the report-check record lives in config
    anywhere, _ = _imports(module)
    assert "cli" not in anywhere


# names no package code loads, each with the reader that keeps it
UNREAD_BY_THE_LIBRARY = {
    "build_identity",         # perfbench's symbolic checks and spans
    "solve_gl_forward",       # perfbench's mode-factor and a3-product checks
    "verify_identity",        # a public entry point
    "to_expr",                # the property tests and the oracle cross-check
}


def test_every_library_name_is_loaded_by_the_library():
    """Every def and class of the package, and every module-level
    assignment target, is loaded by package code (a Name load, an
    attribute read or an import alias), unless the allowlist names its
    reader.  Docstrings and comments do not count; dunders are skipped."""
    defined, loaded = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined |= {n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.alias):
                loaded.add(node.name)
    unread = {n for n in defined - loaded if not (n.startswith("__") and n.endswith("__"))}
    assert unread == UNREAD_BY_THE_LIBRARY


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # one identity verb and three experiment verbs, each run in a fresh
    # interpreter under two string-hash seeds, write the same bytes
    small = dict(ensembles=2, paths=3, Nx=12, Nt=24)
    runs = {"verify": ["identity-verify", "--case", "transport", "--oracle", "1"],
            "demo": ["demo", "--case", "ode"],
            "gl": ["carleman-gl", "--config", write_config(tmp_path, "gl.json", small)],
            "inverse": ["inverse-gl", "--config",
                        write_config(tmp_path, "inv.json", small)]}
    src = pathlib.Path(cli.__file__).parents[1]
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        out.mkdir()
        script = textwrap.dedent(f"""
            from carlemanlab import cli
            for name, argv in {runs!r}.items():
                cli.main(argv + ["--out", {str(out)!r} + "/" + name + ".json"])
        """)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.append({name: (out / f"{name}.json").read_bytes() for name in runs})
    assert outputs[0] == outputs[1]
    assert all(outputs[0].values())


# -- helpers -----------------------------------------------------------


def test_build_report_rejects_duplicate_case_ids():
    with pytest.raises(ValueError):
        cli.build_report("v", "v", None, [{"case": "a", "pass": True},
                                          {"case": "a", "pass": True}])
    report = cli.build_report("v", "v", None, [{"case": "b", "pass": True},
                                               {"case": "a", "pass": False}])
    assert [c["case"] for c in report["checks"]] == ["a", "b"]
    assert report["pass"] is False


def test_echo_strips_output_plumbing():
    argv = ["carleman-gl", "--config", "c.json", "--out", "r.json",
            "--csv=series.csv", "--seed", "7"]
    assert cli._echo(argv) == "carleman-gl --config c.json --seed 7"


def test_report_bytes_are_sorted_and_newline_terminated():
    data = cli.report_bytes({"b": 1, "a": {"z": 2, "y": 3}})
    assert data.endswith("\n")
    assert data.index('"a"') < data.index('"b"')
    assert data.index('"y"') < data.index('"z"')


# -- config loading ----------------------------------------------------


def test_defaults_used_without_config_path():
    cfg = load_config("carleman-heat", None)
    assert isinstance(cfg, HeatCarlemanConfig)
    assert cfg.pairs == 10 and cfg.lambdas == (20.0, 40.0, 80.0, 160.0)
    assert isinstance(load_config("carleman-gl", None), GLCarlemanConfig)
    assert isinstance(load_config("inverse-gl", None), InverseConfig)
    assert isinstance(load_config("demo", None), DemoConfig)


def test_partial_config_overrides_only_named_fields(tmp_path):
    cfg_path = write_config(tmp_path, "part.json", {"paths": 7})
    cfg = load_config("carleman-heat", cfg_path)
    assert cfg.paths == 7
    assert cfg.pairs == 10  # untouched default


@pytest.mark.parametrize("payload", [
    {"t1": 0.12, "t2": 0.06},                  # ordering: CutoffSpec
    {"t0": 0.4},                               # t0 past T: CutoffSpec
    {"mu1": 2.0},                              # needs mu1 > 2: compute_tau
    {"epsilons": []},                          # empty sweep: config shape
    {"mu1": 2000, "ensembles": 2, "optimizer_draws": 2},  # e^{3 mu1 t0}: compute_tau
    {"C_ref": 1000, "ensembles": 2, "optimizer_draws": 2},  # e^{C mu T}: optimize_mu
    {"epsilons": [0.0, 0.1]},                  # log 0: the probe
    {"epsilons": [0.1]},                       # one point fits no slope: the probe
    {"epsilons": [0.1, 0.1]},                  # nor do repeated ones: the probe
    {"C_ref": math.nan},                       # not finite: config
    # 2 kappa / C_ref > 2^53, so tau rounds to 1: compute_tau
    {"mu1": 100, "ensembles": 2, "optimizer_draws": 2, "paths": 4,
     "Nx": 20, "Nt": 60},
])
def test_inverse_config_validation(tmp_path, payload):
    assert_config_rejected(tmp_path, "inverse-gl",
                           json.dumps({**FAST_INV, **payload}))


def test_gl_config_validation(tmp_path, monkeypatch):
    # delta past T: carleman_gl_check; mu below 2: GLWeight; T not
    # finite: config
    for payload in ({"delta": 0.3}, {"mus": [1.5, 3]}, {"T": math.nan}):
        assert_config_rejected(tmp_path, "carleman-gl",
                               json.dumps({**FAST_GL, **payload}))
    # delta on the last time node (T = 0.3, Nt = 300) leaves one node to
    # integrate over: Grid1D.trapezoid
    assert_config_rejected(tmp_path, "carleman-gl", json.dumps(
        {"delta": 0.2999999999999, "ensembles": 2, "paths": 4}))
    # two mus with one report label gl(mu=3): run_carleman_gl, before
    # any solve
    for name in ("march_gl", "solve_gl_forward"):
        monkeypatch.setattr(sim, name, lambda *args, **kwargs: pytest.fail("solved"))
    for mus in ([3, 3], [3.0, 3.0000001]):
        assert_config_rejected(tmp_path, "carleman-gl",
                               json.dumps({**FAST_GL, "mus": mus}))
    # unknown case: classic_demos; wrong type: config
    for payload in ({"case": "spde"}, {"case": 3}):
        assert_config_rejected(tmp_path, "demo", json.dumps(payload))


def test_every_random_stream_is_distinct(tmp_path, monkeypatch):
    """Every problem, path ensemble, manufactured pair and the optimizer
    draws from a stream of its own.  Streams are told apart by the
    function that opens them and the seed it passes; no two may start
    alike."""
    real = np.random.default_rng
    first = {}

    def recording(seed):
        caller = sys._getframe(1).f_code.co_name
        key = ((seed.entropy, seed.spawn_key)
               if isinstance(seed, np.random.SeedSequence) else seed)
        first[caller, key] = real(seed).random()
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    for verb, payload, callers, streams in (
        ("carleman-heat", FAST_HEAT, {"brownian", "manufacture_heat_pair"},
         2 * FAST_HEAT["pairs"]),
        ("carleman-gl", FAST_GL, {"brownian", "make_random_gl_problem"},
         2 * FAST_GL["ensembles"]),
        ("inverse-gl", FAST_INV,
         {"brownian", "make_random_gl_problem", "run_inverse_gl"},
         2 * FAST_INV["ensembles"] + 1),
    ):
        first.clear()
        cfg = write_config(tmp_path, f"{verb}.json", payload)
        code, _ = run_to_file(tmp_path, [verb, "--config", cfg])
        assert code == 0, verb
        assert {caller for caller, _ in first} == callers, verb
        assert len(first) == len(set(first.values())) == streams, verb


def test_carleman_gl_solves_each_ensemble_once(tmp_path, monkeypatch):
    """Every mu is checked on the same solution: one march solves every
    ensemble member once, keeping no state, and no member is solved
    alone."""
    real = sim.march_gl
    calls = []

    def counting(problems, grid, ensembles, keep=()):
        calls.append((len(problems), len(ensembles), tuple(keep)))
        return real(problems, grid, ensembles, keep)

    monkeypatch.setattr(sim, "march_gl", counting)
    monkeypatch.setattr(sim, "solve_gl_forward",
                        lambda *args, **kwargs: pytest.fail("solved alone"))
    cfg = write_config(tmp_path, "gl.json", FAST_GL)
    code, _ = run_to_file(tmp_path, ["carleman-gl", "--config", cfg])
    assert code == 0
    assert calls == [(FAST_GL["ensembles"], FAST_GL["ensembles"], ())]


# three members, so one solve per member per step is more than one per
# worker
@pytest.mark.parametrize("verb, payload", [("carleman-gl", dict(FAST_GL, ensembles=3)),
                                            ("inverse-gl", FAST_INV)])
def test_gl_verbs_factor_once_and_solve_once_per_step(tmp_path, monkeypatch, verb,
                                                      payload):
    """The members a verb marches in one worker share one block-diagonal
    factorization and one triangular solve per time step; its 3 members
    march in 2 workers."""
    assert payload["ensembles"] == 3
    calls = []
    lapack = sim._flapack

    def counted(name):
        def call(*args, **kwargs):
            calls.append(name)  # one atomic append, from either worker
            return getattr(lapack, name)(*args, **kwargs)

        return call

    monkeypatch.setattr(sim, "_flapack", types.SimpleNamespace(
        zgttrf=counted("zgttrf"), zgttrs=counted("zgttrs")))
    cfg = write_config(tmp_path, "gl.json", payload)
    code, _ = run_to_file(tmp_path, [verb, "--config", cfg])
    assert code == 0
    assert collections.Counter(calls) == {"zgttrf": 2, "zgttrs": 2 * payload["Nt"]}


def _one_member_tampered(monkeypatch, member, **fields):
    """make_random_gl_problem, with the given fields replaced in the
    problem it draws for member (its member-th call)."""
    real, calls = sim.make_random_gl_problem, []

    def drawing(*args, **kwargs):
        calls.append(None)
        p = real(*args, **kwargs)
        return dataclasses.replace(p, **fields) if len(calls) == member + 1 else p

    monkeypatch.setattr(sim, "make_random_gl_problem", drawing)


def _refused_past_double_precision(tmp_path, capsys, verb, payload):
    """The verb exits 2 on the march's overflow guard and writes no
    report or CSV."""
    cfg = write_config(tmp_path, "cfg.json", payload)
    out, series = tmp_path / "never.json", tmp_path / "never.csv"
    code = cli.main([verb, "--config", cfg, "--out", str(out), "--csv", str(series)])
    assert code == 2
    assert "forward solve left double precision" in capsys.readouterr().err
    assert not out.exists() and not series.exists()


def test_one_diverging_member_refuses_the_verb(tmp_path, monkeypatch, capsys):
    # member 1 of three blows up; the other two stay finite
    _one_member_tampered(monkeypatch, 1, a2=lambda x, t: 1e300)
    _refused_past_double_precision(tmp_path, capsys, "inverse-gl", FAST_INV)


def test_a_finite_state_whose_square_overflows_refuses_the_verb(tmp_path, monkeypatch,
                                                                capsys):
    # |w|^2 of member 1 overflows at t = 0, though every state stays finite
    _one_member_tampered(monkeypatch, 1, w0=lambda x: 1e160 * np.sin(np.pi * x))
    _refused_past_double_precision(tmp_path, capsys, "carleman-gl", FAST_GL)


def test_identity_steps_builds_one_workspace(tmp_path, monkeypatch):
    """The nine proof steps share one workspace, and the reassembly reads
    their forms: the only canonicalization beyond the steps' two sides
    is the theorem's right side."""
    calls = {"make_theorem_workspace": 0, "canonicalize": 0}
    for name in calls:
        real = getattr(identity, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(identity, name, counting)
    code, _ = run_to_file(tmp_path, ["identity-steps", "--n", "1"])
    assert code == 0
    assert calls == {"make_theorem_workspace": 1,
                     "canonicalize": 2 * len(identity.PROOF_STEPS) + 1}


def test_identity_verify_builds_each_case_once(tmp_path, monkeypatch):
    """The canonical and the oracle check of a cell read one built case."""
    real, built = identity.make_theorem_workspace, []

    def counting(spec):
        built.append(spec)
        return real(spec)

    monkeypatch.setattr(identity, "make_theorem_workspace", counting)
    code, out = run_to_file(tmp_path, ["identity-verify", "--n", "1", "--oracle", "1"])
    assert code == 0
    assert sorted(built, key=lambda s: s.regime) == [
        identity.OperatorSpec(n=1, regime=r) for r in sorted(identity.REGIMES)]
    assert len(json.loads(out.read_text())["checks"]) == 2 * len(identity.REGIMES) + 1


def test_inverse_gl_streams_its_ensemble(tmp_path, monkeypatch):
    """inverse-gl keeps each member's per-path sums, not its solution: one
    march solves every member and keeps states only at t0, and the probe
    reads them of member 0."""
    real_march, real_probe = sim.march_gl, inv.backward_uniqueness_probe
    runs, probed = [], []

    def marching(*args, **kwargs):
        runs.extend(real_march(*args, **kwargs))
        return list(runs)

    def probing(sol, *args, **kwargs):
        probed.append(sol)
        return real_probe(sol, *args, **kwargs)

    monkeypatch.setattr(sim, "march_gl", marching)
    monkeypatch.setattr(inv, "backward_uniqueness_probe", probing)
    cfg = write_config(tmp_path, "inv.json", FAST_INV)
    code, _ = run_to_file(tmp_path, ["inverse-gl", "--config", cfg])
    assert code == 0
    assert len(runs) == FAST_INV["ensembles"]
    node = round(FAST_INV["t0"] / FAST_INV["T"] * FAST_INV["Nt"])
    shape = (FAST_INV["paths"], 1, FAST_INV["Nx"])
    assert all(run.kept == (node,) and run.w.shape == shape for run in runs)
    assert len(probed) == 1 and probed[0] is runs[0]


def test_inverse_gl_computes_tau_once(tmp_path, monkeypatch):
    """inverse-gl computes the printed tau and the variant tau_alt once
    each, in stability_experiment; the probe reads the printed one from
    its report."""
    real, taus = inv.compute_tau, []

    def counting(*args):
        taus.append(args)
        return real(*args)

    monkeypatch.setattr(inv, "compute_tau", counting)
    cfg = write_config(tmp_path, "inv.json", FAST_INV)
    code, _ = run_to_file(tmp_path, ["inverse-gl", "--config", cfg])
    assert code == 0
    c = load_config("inverse-gl", cfg)
    assert taus == [(c.t0, c.t1, c.mu1, c.C_ref), (c.t0, c.t2, c.mu1, c.C_ref)]
