"""Workload inputs, generated from the benchmark seed.

An operation is a small JSON-able list whose first item names its kind:

    ["cli", argv]                                    one ``carlemanlab.cli.main`` call
    ["oracle", target, seed, assignments, points, mutated]
                                                     one ``identity.numeric_residual`` call
    ["heat", seed]                                   the heat layer of ``carleman-heat``

``target`` is ``[n, regime]`` for a theorem spec or a catalog case id.
Program seeds are derived from the benchmark seed by hashing, so each
operation gets its own stream and the same benchmark seed always gives
the same operations.
"""

from __future__ import annotations

import hashlib

WORKLOADS = ("symbolic", "oracle", "experiments")
NS = (1, 2, 3)

# Oracle calls evaluate each assignment at ORACLE_POINTS random points
# plus its base point; cost grows with assignments, hardly with points.
# An intact target gets one assignment.  One random assignment can make a
# mutated target's dropped term vanish, so the mutation check needs
# several: in 200 assignments per target this happened 47, 34 and 27
# times for heat_identity, fst and transport, up to 6 times for the other
# catalog cases and the n=1 specs, at most twice for n=2 and never for
# n=3 (24 each).  Those counts set the mutated assignments below, for a
# false alarm about once in 5000 runs; n=2 and n=3 keep criterion 3's two.
ORACLE_POINTS = 2
LEAKY_CASES = ("heat_identity", "fst", "transport")


def mutated_assignments(target) -> int:
    if isinstance(target, str):
        return 8 if target in LEAKY_CASES else 3
    return 3 if target[0] == 1 else 2


CONFIGS = {
    "carleman-heat": "configs/carleman_heat.json",
    "carleman-gl": "configs/carleman_gl.json",
    "inverse-gl": "configs/inverse_gl.json",
    "demo": "configs/demo.json",
}


def derive(seed: int, label: str) -> int:
    """A program seed in [0, 2**31) for one labelled input."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def targets() -> list:
    from carlemanlab.identity import CASE_IDS, REGIMES
    return [[n, r] for n in NS for r in REGIMES] + list(CASE_IDS)


def target_label(target) -> str:
    return target if isinstance(target, str) else f"n={target[0]},{target[1]}"


def operations(workload: str, seed: int) -> list:
    """The operations of one pass of ``workload``, in run order."""
    # Imported here, not at the top, so that a worker's timed set-up
    # includes the whole package import.
    from carlemanlab.identity import CASE_IDS, REGIMES
    if workload == "symbolic":
        ops = [["cli", ["identity-verify", "--n", str(n), "--regime", r,
                        "--seed", str(derive(seed, f"verify/{n}/{r}"))]]
               for n in NS for r in REGIMES]
        ops += [["cli", ["identity-verify", "--case", c,
                         "--seed", str(derive(seed, f"case/{c}"))]]
                for c in CASE_IDS]
        ops.append(["cli", ["identity-steps",
                            "--seed", str(derive(seed, "steps"))]])
        return ops
    if workload == "oracle":
        ops = []
        for mutated in (False, True):
            for t in targets():
                assignments = mutated_assignments(t) if mutated else 1
                s = derive(seed, f"oracle/{mutated}/{target_label(t)}")
                ops.append(["oracle", t, s, assignments, ORACLE_POINTS, mutated])
        return ops
    if workload == "experiments":
        def verb(name, *extra):
            return ["cli", [name, "--config", CONFIGS[name], *extra,
                            "--seed", str(derive(seed, " ".join((name,) + extra)))]]
        return [
            ["heat", derive(seed, "carleman-heat")],
            verb("carleman-gl"),
            verb("inverse-gl"),
            verb("demo", "--case", "ode"),
            verb("demo", "--case", "first_order"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def op_name(op) -> str:
    """Short name of an operation, used for per-verb totals."""
    if op[0] == "cli":
        argv = op[1]
        if argv[0] == "demo":
            return "demo_" + argv[argv.index("--case") + 1]
        return argv[0].replace("-", "_")
    return op[0]
