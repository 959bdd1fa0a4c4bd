"""Every coefficient of every canonical form the package verifies, pinned.

Reports record monomial counts only, so this golden is what catches a
change in a printed coefficient.  It maps each side (lhs, rhs and
mutated_rhs) of the 12 theorem cells and the 18 catalog cases, which
include the 9 proof steps at n=2, to the sha256 of its serialization.
It also pins lhs and rhs of the raw cells with their null pairs
unapplied, the forms behind the constraint_pairs checks.

Regenerate, after a deliberate change of canonical text, with
``PYTHONPATH=src python tests/test_canonical_golden.py``.
"""

import hashlib
import json
import pathlib

from carlemanlab.canonical import canonicalize
from carlemanlab.identity import (
    CASE_IDS,
    REGIMES,
    OperatorSpec,
    build_case,
    verify_raw_cell,
)

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "canonical_sha256.json"


def form_digests() -> dict[str, str]:
    cases = [build_case(OperatorSpec(n=n, regime=r)) for n in (1, 2, 3) for r in REGIMES]
    cases += [build_case(c) for c in CASE_IDS]
    out = {}
    for case in cases:
        for side in ("lhs", "rhs", "mutated_rhs"):
            text = canonicalize(getattr(case, side), case.ctx).serialize()
            out[f"{case.case_id}/{side}"] = hashlib.sha256(text.encode()).hexdigest()
    for n in (1, 2, 3):
        res = verify_raw_cell(build_case(OperatorSpec(n=n, regime="raw"))).unconstrained
        for side in ("lhs", "rhs"):
            text = getattr(res, side).serialize()
            out[f"{res.case}/{side}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_every_canonical_form_matches_golden():
    assert form_digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(form_digests(), indent=1, sort_keys=True) + "\n")
