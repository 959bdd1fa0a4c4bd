"""Every jet-oracle value the package samples, pinned.

Reports record only whether each oracle value is zero, so this golden is
what catches a change in a drawn jet or in the arithmetic on it.  It maps
each of the 12 theorem cells and the 17 catalog cases, intact and
mutated, at seeds 0, 1 and 7, to the sha256 of its ``numeric_residual``
values.  Three assignments of consecutive seeds mix both seed parities,
and so both choices of zeroed null-pair names, in one call.

A second golden pins, for the same keys, the sha256 of the first draw's
values alone.  Draw 0 of every call is evaluated in F_p[i] with
p = 2^61 - 1 on its own stream, whatever the other draws of the call, so
this pin holds across any change of how the other draws are carried.

Regenerate, after a deliberate change of the jet streams, with
``PYTHONPATH=src python tests/test_oracle_golden.py``; add ``--draw0`` to
rewrite the first-draw pin too.
"""

import hashlib
import json
import pathlib
import sys

from carlemanlab.identity import CASE_IDS, REGIMES, OperatorSpec, numeric_residual

GOLDENS = pathlib.Path(__file__).parent / "goldens"
GOLDEN = GOLDENS / "oracle_sha256.json"
DRAW0 = GOLDENS / "oracle_draw0_sha256.json"
SEEDS = (0, 1, 7)


def digest(values) -> str:
    text = json.dumps([[q.re, q.im] for v in values for q in (v.value, v.dt, v.dB)])
    return hashlib.sha256(text.encode()).hexdigest()


def value_digests() -> tuple[dict[str, str], dict[str, str]]:
    """The digests of every draw's values and of the first draw's, by key."""
    targets = [(f"n={n},{r}", OperatorSpec(n=n, regime=r)) for n in (1, 2, 3) for r in REGIMES]
    targets += [(c, c) for c in CASE_IDS]
    every, first = {}, {}
    for label, target in targets:
        for mutated in (False, True):
            for seed in SEEDS:
                values = numeric_residual(target, seed=seed, assignments=3, points=2,
                                          mutated=mutated)
                key = f"{label}/{'mutated' if mutated else 'intact'}/seed={seed}"
                every[key], first[key] = digest(values), digest(values[:1])
    return every, first


def test_every_oracle_value_matches_golden():
    every, first = value_digests()
    assert every == json.loads(GOLDEN.read_text())
    assert first == json.loads(DRAW0.read_text())


if __name__ == "__main__":
    every, first = value_digests()
    GOLDEN.write_text(json.dumps(every, indent=1, sort_keys=True) + "\n")
    if "--draw0" in sys.argv[1:]:
        DRAW0.write_text(json.dumps(first, indent=1, sort_keys=True) + "\n")
