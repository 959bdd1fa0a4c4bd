"""The demo reports and CSVs, pinned.

Maps ``demo --case ode`` and ``demo --case first_order``, at the default
config and at ``--seed`` 1, 7 and 42, to the sha256 of the report's
``checks`` and of the CSV bytes.  Every float in both comes from
``classic_demos``, so this golden catches any change in how a(t) is
sampled, how the ODE is stepped or how the transport quotients are
formed, down to the last bit.

Regenerate, after a deliberate change of the numerics, with
``PYTHONPATH=src python tests/test_demo_golden.py``.
"""

import hashlib
import json
import pathlib
import tempfile

from carlemanlab import cli

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "demo_sha256.json"
CASES = ("ode", "first_order")
SEEDS = (None, 1, 7, 42)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests() -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        report, table = pathlib.Path(tmp, "report.json"), pathlib.Path(tmp, "series.csv")
        for case in CASES:
            for seed in SEEDS:
                argv = ["demo", "--case", case, "--out", str(report), "--csv", str(table)]
                if seed is not None:
                    argv += ["--seed", str(seed)]
                assert cli.main(argv) == 0
                checks = json.loads(report.read_text())["checks"]
                label = f"demo:{case}/{'default' if seed is None else f'seed={seed}'}"
                out[f"{label}/checks"] = _sha(json.dumps(checks, sort_keys=True).encode())
                out[f"{label}/csv"] = _sha(table.read_bytes())
    return out


def test_every_demo_report_and_csv_matches_golden():
    assert run_digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_digests(), indent=1, sort_keys=True) + "\n")
