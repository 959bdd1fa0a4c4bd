"""Every jet-oracle value the package samples, pinned.

Reports record only whether each oracle value is zero, so this golden is
what catches a change in a drawn jet or in the arithmetic on it.  It maps
each of the 12 theorem cells and the 17 catalog cases, intact and
mutated, at seeds 0, 1 and 7, to the sha256 of its ``numeric_residual``
values.  Three assignments of consecutive seeds mix both seed parities,
and so both choices of zeroed null-pair names, in one call.

Regenerate, after a deliberate change of the jet streams, with
``PYTHONPATH=src python tests/test_oracle_golden.py``.
"""

import hashlib
import json
import pathlib

from carlemanlab.identity import CASE_IDS, REGIMES, OperatorSpec, numeric_residual

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "oracle_sha256.json"
SEEDS = (0, 1, 7)


def value_digests() -> dict[str, str]:
    targets = [(f"n={n},{r}", OperatorSpec(n=n, regime=r)) for n in (1, 2, 3) for r in REGIMES]
    targets += [(c, c) for c in CASE_IDS]
    out = {}
    for label, target in targets:
        for mutated in (False, True):
            for seed in SEEDS:
                values = numeric_residual(target, seed=seed, assignments=3, points=2,
                                          mutated=mutated)
                text = json.dumps([[q.re, q.im] for v in values for q in (v.value, v.dt, v.dB)])
                key = f"{label}/{'mutated' if mutated else 'intact'}/seed={seed}"
                out[key] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_every_oracle_value_matches_golden():
    assert value_digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(value_digests(), indent=1, sort_keys=True) + "\n")
