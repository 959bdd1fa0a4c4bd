"""Every config an experiment verb's schema accepts runs or exits 2.

Configs are drawn field by field from each verb's schema in
``config.py``: a field is left at its default or given a value of its
type at or above its lower bound.  Grids, ensembles and draw counts stay
tiny so each run is a few milliseconds; every other number spans many
orders of magnitude, so the overflow and underflow guards are reached.
``cli.main`` must return 0, 1 or 2 and raise nothing; on 0 or 1 every
number in the report and the CSV is finite, and on 2 nothing is written.
"""

import csv
import json
import math
import pathlib
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from carlemanlab import cli

SEEDS = st.integers(min_value=0, max_value=2 ** 64 - 1)
# magnitudes from the smallest lower bound in the schema to far past
# anything double precision can exponentiate
POSITIVE = st.floats(min_value=1e-9, max_value=1e6)
REAL = st.floats(min_value=-1e3, max_value=1e6)
# a weight exponent: mostly where the guards let a run through, or any REAL
EXPONENT = st.floats(min_value=2.0, max_value=8.0) | REAL
UNIT = st.floats(min_value=-0.5, max_value=1.5)
EXAMPLES = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _increasing(elements, max_size):
    return st.lists(elements, min_size=1, max_size=max_size, unique=True).map(sorted)


def _config(draw, sizes, fields):
    """Every size field, and a subset of the other fields, each drawn from
    its strategy; the rest keep their defaults."""
    keep = draw(st.lists(st.sampled_from(sorted(fields)), unique=True))
    return {**{name: draw(s) for name, s in sizes.items()},
            **{name: draw(fields[name]) for name in keep}}


GRID = {"Nx": st.integers(8, 16), "Nt": st.integers(8, 32)}
HORIZON = st.floats(min_value=1e-6, max_value=1e6)


@st.composite
def heat_configs(draw):
    return _config(draw, {
        **GRID, "pairs": st.integers(1, 2), "paths": st.integers(2, 4),
        "modes": st.integers(1, 5),
    }, {
        "T": HORIZON, "mu": st.floats(min_value=1e-6, max_value=1e4),
        "lambdas": _increasing(st.floats(min_value=1e-9, max_value=1e300), 4),
        "G0": st.lists(UNIT, min_size=2, max_size=2),
        "window": st.none() | st.lists(UNIT, min_size=2, max_size=2),
        "seed": SEEDS,
    })


@st.composite
def gl_configs(draw):
    cfg = _config(draw, {
        **GRID, "ensembles": st.integers(1, 2), "paths": st.integers(2, 4),
    }, {
        "T": HORIZON, "mus": st.lists(EXPONENT, min_size=1, max_size=3),
        "seed": SEEDS,
    })
    if not draw(st.booleans()):
        cfg.update(_config(draw, {}, {"delta": st.floats(min_value=-1.0, max_value=2.0)}))
    else:
        # delta on a time node of the drawn grid, so the solve runs
        T, Nt = cfg.get("T", 0.3), cfg["Nt"]
        cfg["delta"] = draw(st.integers(0, Nt)) * (T / Nt)
    return cfg


@st.composite
def inverse_configs(draw):
    cfg = _config(draw, {
        **GRID, "ensembles": st.integers(2, 3), "paths": st.integers(2, 4),
        "optimizer_draws": st.integers(1, 4),
    }, {
        "T": HORIZON, "mu1": EXPONENT,
        "epsilons": st.lists(REAL, min_size=1, max_size=4),
        "C_ref": POSITIVE, "seed": SEEDS,
    })
    if not draw(st.booleans()):
        cfg.update(_config(draw, {}, {"t1": UNIT, "t2": UNIT, "t0": UNIT}))
    else:
        # ordered cutoffs with t0 on a time node of the drawn grid
        T, Nt = cfg.get("T", 0.3), cfg["Nt"]
        t0 = draw(st.integers(1, Nt - 1)) * (T / Nt)
        inside = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
        s1, s2 = sorted(draw(st.lists(inside, min_size=2, max_size=2, unique=True)))
        cfg.update(t0=t0, t1=s1 * t0, t2=s2 * t0)
    return cfg


@st.composite
def demo_configs(draw):
    return _config(draw, {"draws": st.integers(1, 3)}, {
        "case": st.sampled_from(["ode", "first_order"]) | st.text(max_size=4),
        "seed": SEEDS,
    })


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def _csv_numbers(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [float(cell) for row in rows[1:] for cell in row]


def run_config(verb, payload):
    """cli.main on one drawn config: the exit code, and the numbers of the
    report and the CSV (None when the run wrote neither)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        cfg, out, series = tmp / "cfg.json", tmp / "report.json", tmp / "series.csv"
        cfg.write_text(json.dumps(payload))
        code = cli.main([verb, "--config", str(cfg), "--out", str(out),
                         "--csv", str(series)])
        assert code in (0, 1, 2), (code, payload)
        if code == 2:
            assert not out.exists() and not series.exists(), payload
            return code, None
        report = json.loads(out.read_text())
        assert report["pass"] is (code == 0)
        return code, [*_numbers(report), *_csv_numbers(series)]


def assert_runs_or_exits_two(verb, payload):
    code, numbers = run_config(verb, payload)
    if numbers is not None:
        bad = [v for v in numbers if not math.isfinite(v)]
        assert not bad, (verb, payload, code, bad[:5])


@EXAMPLES
@given(heat_configs())
def test_every_heat_config_runs_or_exits_two(payload):
    assert_runs_or_exits_two("carleman-heat", payload)


@EXAMPLES
@given(gl_configs())
def test_every_gl_config_runs_or_exits_two(payload):
    assert_runs_or_exits_two("carleman-gl", payload)


@EXAMPLES
@given(inverse_configs())
def test_every_inverse_config_runs_or_exits_two(payload):
    assert_runs_or_exits_two("inverse-gl", payload)


@EXAMPLES
@given(demo_configs())
def test_every_demo_config_runs_or_exits_two(payload):
    assert_runs_or_exits_two("demo", payload)
