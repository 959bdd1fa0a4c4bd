"""False alarms of the experiment verbs over a fixed list of seeds.

An honest program should pass every check at any seed the schema
accepts.  This test runs ``carleman-heat`` and both ``demo`` cases on
their committed default configs, and ``carleman-gl`` and ``inverse-gl``
on the small configs ``FAST_GL`` and ``FAST_INV`` (40 seeds of the
defaults take about 12 s), through ``cli.main`` in-process at the 40
seeds 1000-1039, and pins the exact set of (verb, seed, failing check).
Each member is a false alarm of its check.  A member leaves the set only
when the ROADMAP item that owns its check reshapes the verdict (item 3
for ``carleman-heat``); do not move seeds, sizes or bounds to empty it.
"""

import json
import pathlib

from carlemanlab import cli

from strategies import FAST_GL, FAST_INV

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
SEEDS = range(1000, 1040)
RUNS = (
    ("carleman-heat", "--config", str(CONFIGS / "carleman_heat.json")),
    ("demo", "--config", str(CONFIGS / "demo.json"), "--case", "ode"),
    ("demo", "--config", str(CONFIGS / "demo.json"), "--case", "first_order"),
)
FAST_RUNS = (("carleman-gl", FAST_GL), ("inverse-gl", FAST_INV))

# The heat verdict's slope gate, log_slope >= -0.05, sits inside the
# draws' spread of the slope: pair(05) reads -0.0505 at seed 1026, and
# pair(06) reads -0.0559 at seed 1034.
FALSE_ALARMS = {
    ("carleman-heat", 1026, "pair(05)"),
    ("carleman-heat", 1034, "pair(06)"),
}


def test_false_alarms_over_forty_seeds_are_pinned(tmp_path):
    out = tmp_path / "report.json"
    runs = list(RUNS)
    for verb, payload in FAST_RUNS:
        config = tmp_path / f"{verb}.json"
        config.write_text(json.dumps(payload))
        runs.append((verb, "--config", str(config)))
    failing = set()
    for argv in runs:
        for seed in SEEDS:
            code = cli.main([*argv, "--seed", str(seed), "--out", str(out)])
            checks = json.loads(out.read_text())["checks"]
            bad = [c for c in checks if not c["pass"]]
            assert code == (1 if bad else 0), (argv, seed, code)
            failing |= {(argv[0], seed, c["case"]) for c in bad}
            # each heat alarm is the slope gate, not the uniform floor
            assert all(c["min_ratio"] >= c["uniform_floor"] and c["log_slope"] < -0.05
                       for c in bad if argv[0] == "carleman-heat"), (seed, bad)
    assert failing == FALSE_ALARMS
