"""Spans recorded from outside the program.

A wrapper goes on a public function where its callers look it up: the
CLI calls ``simulate.solve_gl_forward`` through the module, so the
wrapper goes on ``simulate``; ``identity`` imports ``canonicalize`` and
``eval_jet_many`` by name, so those wrappers go on ``identity``.
Calls inside a module that bypass the lookup (for instance the
canonicalizer recanonicalizing a rewrite) are not seen.

A span is ``[name, start, end, parent index, counts]``.  Spans are kept
in memory and written when the pass ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


def _monomials(args, out):
    return {"monomials": len(out)}


def _evals(args, out):
    return {"evals": len(out)}


def _path_steps(args, out):
    paths = args[2]
    return {"path_steps": paths.M * paths.Nt}


# (module attribute of Lib, function, span name, counter)
WRAPS = (
    ("identity", "build_identity", "identity.build", None),
    ("identity", "build_case", "identity.build", None),
    ("identity", "numeric_residual", "identity.numeric_residual", None),
    ("identity", "canonicalize", "canonical.canonicalize", _monomials),
    ("identity", "eval_jet_many", "jetoracle.eval_jet_many", _evals),
    ("simulate", "solve_gl_forward", "simulate.forward_solve", _path_steps),
    ("simulate", "carleman_gl_check", "simulate.gl_check", None),
    ("simulate", "carleman_heat_check", "simulate.heat_check", None),
    ("simulate", "manufacture_heat_pair", "simulate.manufacture", None),
    ("inverse", "brute_force_mu", "inverse.brute_force", None),
    ("inverse", "optimize_mu", "inverse.optimize", None),
    ("inverse", "stability_experiment", "inverse.stability", None),
    ("inverse", "backward_uniqueness_probe", "inverse.probe", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._installed = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int, counts=None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        if counts:
            span[4].update(counts)
        self._stack.pop()

    def install(self, lib) -> None:
        for attr, fname, name, counter in WRAPS:
            module = getattr(lib, attr)
            fn = getattr(module, fname)
            setattr(module, fname, self._wrap(fn, name, counter))
            self._installed.append((module, fname, fn))

    def uninstall(self) -> None:
        for module, fname, fn in reversed(self._installed):
            setattr(module, fname, fn)
        self._installed.clear()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            out, counts = None, None
            try:
                out = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(args, out)
                return out
            finally:
                self.end(index, counts)

        return traced


def reduce(spans) -> dict:
    """Per span name: calls, total time, self time and summed counts.

    Self time is a span's duration minus its direct children's; spans of
    one thread nest, so that is the part no child covers.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, _, counts) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
        for key, value in counts.items():
            row[key] = row.get(key, 0) + value
    return out
