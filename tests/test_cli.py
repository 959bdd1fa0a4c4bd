"""Batch driver: determinism contract, exit codes, report and CSV shapes."""

import json
import sys
import weakref

import numpy as np
import pytest

from carlemanlab import cli
from carlemanlab.config import (
    CSV_HEADERS,
    DemoConfig,
    GLCarlemanConfig,
    HeatCarlemanConfig,
    InverseConfig,
    load_config,
)

FAST_HEAT = dict(pairs=2, paths=6, modes=4, Nx=40, Nt=200, T=1.0,
                 lambdas=[20, 40], seed=11)
FAST_GL = dict(ensembles=2, paths=4, Nx=30, Nt=120, T=0.3, mus=[2, 3],
               delta=0.05, seed=21)
FAST_INV = dict(ensembles=3, paths=4, Nx=30, Nt=120, T=0.3,
                t1=0.06, t2=0.12, t0=0.15, mu1=3.0, optimizer_draws=5,
                seed=31)


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


def test_falsified_run_exits_one_and_still_reports(tmp_path, monkeypatch):
    fake = {"demo": "ode", "all_hold": False,
            "runs": [{"name": "sin", "lambda": 2.0, "x0": 1.0,
                      "holds_every_step": False, "min_margin": -0.5}]}
    monkeypatch.setattr(cli.sim, "classic_demos",
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
    (json.dumps({"window": [0.2]}), "pair shape"),
    (json.dumps({"lambdas": [20, True]}), "element type"),
])
def test_config_errors_exit_two_without_report(tmp_path, payload, detail):
    assert_config_rejected(tmp_path, "carleman-heat", payload)


def test_missing_config_file_exits_two(tmp_path):
    out = tmp_path / "never.json"
    code = cli.main(["carleman-heat", "--config", str(tmp_path / "nope.json"),
                     "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_unknown_verb_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["laplace-verify"])
    assert exc.value.code == 2


# -- helpers -----------------------------------------------------------


def test_merge_checks_rejects_duplicate_case_ids():
    with pytest.raises(ValueError):
        cli.merge_checks([[{"case": "a", "pass": True}],
                          [{"case": "a", "pass": True}]])
    merged = cli.merge_checks([[{"case": "b", "pass": True}],
                               [{"case": "a", "pass": True}]])
    assert [c["case"] for c in merged] == ["a", "b"]


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
])
def test_inverse_config_validation(tmp_path, payload):
    assert_config_rejected(tmp_path, "inverse-gl",
                           json.dumps({**FAST_INV, **payload}))


def test_gl_config_validation(tmp_path):
    # delta past T: carleman_gl_check; mu below 2: GLWeight
    for payload in ({"delta": 0.3}, {"mus": [1.5, 3]}):
        assert_config_rejected(tmp_path, "carleman-gl",
                               json.dumps({**FAST_GL, **payload}))
    # unknown case: classic_demos; wrong type: config
    for payload in ({"case": "spde"}, {"case": 3}):
        assert_config_rejected(tmp_path, "demo", json.dumps(payload))


def test_every_random_stream_is_distinct(tmp_path, monkeypatch):
    """Every problem, path ensemble, manufactured pair, zero solution and
    the optimizer draws from a stream of its own.  Streams are told apart
    by the function that opens them and the seed it passes; no two may
    start alike."""
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
         2 * FAST_GL["ensembles"] + 1),
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
    """Every mu is checked on the same solution: one forward solve per
    ensemble member plus the zero solution."""
    real = cli.sim.solve_gl_forward
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.sim, "solve_gl_forward", counting)
    cfg = write_config(tmp_path, "gl.json", FAST_GL)
    code, _ = run_to_file(tmp_path, ["carleman-gl", "--config", cfg])
    assert code == 0
    assert len(calls) == FAST_GL["ensembles"] + 1


def test_inverse_gl_streams_its_ensemble(tmp_path, monkeypatch):
    """inverse-gl keeps each member's norms, not its solution: when a member
    is solved and when the probe starts, at most two solutions are alive
    (member 0, which the probe reads, and the member read last)."""
    real_solve = cli.sim.solve_gl_forward
    real_probe = cli.inv.backward_uniqueness_probe
    refs, alive = [], []

    def count_alive():
        alive.append(sum(ref() is not None for ref in refs))

    def solving(*args, **kwargs):
        count_alive()
        sol = real_solve(*args, **kwargs)
        refs.append(weakref.ref(sol))
        return sol

    def probing(*args, **kwargs):
        count_alive()
        return real_probe(*args, **kwargs)

    monkeypatch.setattr(cli.sim, "solve_gl_forward", solving)
    monkeypatch.setattr(cli.inv, "backward_uniqueness_probe", probing)
    cfg = write_config(tmp_path, "inv.json", FAST_INV)
    code, _ = run_to_file(tmp_path, ["inverse-gl", "--config", cfg])
    assert code == 0
    assert max(alive) <= 2, alive
    assert len(refs) == FAST_INV["ensembles"]
    assert len(alive) == FAST_INV["ensembles"] + 1


def test_csv_header_table_is_complete():
    assert set(CSV_HEADERS) == {"carleman-heat", "carleman-gl", "inverse-gl",
                                "demo:ode", "demo:first_order"}
    assert CSV_HEADERS["inverse-gl"] == ("member", "quotient")
