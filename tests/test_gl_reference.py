"""The streamed Ginzburg-Landau reductions against whole-array formulas.

``carleman_gl_check``, ``solution_norms`` and ``backward_uniqueness_probe``
read per-path sums over x and the states kept at chosen nodes, which
``march_gl`` streams out of its time loop.  This file keeps the formulas
as they read whole solutions, ``np.abs(w) ** 2`` and ``einsum`` over
``(M, Nt+1, Nx)``, and demands that the streamed results match them to
1e-13 relative: in the two GL verbs at their default configs and
``--seed`` 1, 7 and 42, and over small random grids.  The reordered sums
are why ``tests/goldens/gl_sha256.json`` moved in its last bits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carlemanlab import cli
from carlemanlab import inverse as inv
from carlemanlab import simulate as sim
from carlemanlab.config import load_config
from carlemanlab.weights import GLWeight

RTOL = 1e-13


def reference_gl_check(w, grid, p, gws, delta):
    """carleman_gl_check's per-mu report fields from the whole solution."""
    md = grid.node(delta, "delta")
    dx = grid.dx
    t = grid.t[md:]
    w = w[:, md:, :]
    aw2 = np.abs(w) ** 2
    awx2 = np.abs(sim.grad_dirichlet(w, dx)) ** 2
    tw = grid.trapezoid(md)
    f = sim.sample_field(p.f, grid.x, t)
    g = sim.sample_field(p.g, grid.x, t)
    af2, ag2, agx2 = np.abs(f) ** 2, np.abs(g) ** 2, np.abs(sim.grad_free(g, dx)) ** 2
    wx2_d = np.sum(awx2[:, 0, :], axis=1)
    w2_d = np.sum(aw2[:, 0, :], axis=1)
    w2_T = np.sum(aw2[:, -1, :], axis=1)
    out = []
    for gw in gws:
        mu = gw.mu
        phi = np.exp(3.0 * mu * t)
        wt = np.exp(2.0 * mu * phi) * tw
        lhs_i = (mu * np.einsum("mti,t->m", awx2, wt)
                 + mu ** 3 * np.einsum("mti,t->m", aw2, phi * wt)) * dx
        src = af2 + mu ** 2 * ag2 + agx2
        src_i = np.einsum("ti,t->", src, (1.0 + phi) * wt) * dx
        data_i = (math.exp(2.0 * mu * phi[0]) * wx2_d
                  + mu ** 2 * phi[0] * math.exp(mu * phi[0]) * w2_d
                  + mu ** 2 * phi[-1] * math.exp(2.0 * mu * phi[-1]) * w2_T) * dx
        rhs_i = data_i + src_i
        out.append({"lhs": float(np.mean(lhs_i)), "rhs": float(np.mean(rhs_i)),
                    "member_quotients": list(lhs_i / rhs_i)})
    return out


def reference_norms(w, grid, t0):
    """solution_norms from the whole solution."""
    dx = grid.dx
    N1 = math.sqrt(float(np.mean(sim.l2_norm(w[:, grid.node(t0, "t0"), :], dx) ** 2)))
    tw = grid.trapezoid()
    N2 = math.sqrt(float(np.mean(np.sum(sim.l2_norm(w, dx) ** 2 * tw[None, :], axis=1))))
    wT = w[:, -1, :]
    h1 = sim.l2_norm(wT, dx) ** 2 + sim.l2_norm(sim.grad_dirichlet(wT, dx), dx) ** 2
    return N1, N2, math.sqrt(float(np.mean(h1)))


def reference_probe_slope(w, paths, grid, t0, N3, eps):
    """backward_uniqueness_probe's slope from the whole solution."""
    m0 = grid.node(t0, "t0")
    B = paths.cumulative()
    lift = ((B[:, -1] - B[:, m0]) * 0.5)[:, None] * np.sin(np.pi * grid.x)[None, :]
    interior = [math.sqrt(float(np.mean(sim.l2_norm(e / N3 * w[:, m0, :] + lift,
                                                    grid.dx) ** 2)))
                for e in eps]
    return float(np.polyfit(np.log(eps), np.log(interior), 1)[0])


def assert_gl_reports_match(got, want):
    assert len(got) == len(want)
    for rep, ref in zip(got, want):
        np.testing.assert_allclose([rep["lhs"], rep["rhs"]], [ref["lhs"], ref["rhs"]],
                                   rtol=RTOL, atol=0.0)
        np.testing.assert_allclose(rep["member_quotients"], ref["member_quotients"],
                                   rtol=RTOL, atol=0.0)
        assert rep["zero_members"] == 0


class Recorder:
    """Wraps march_gl and the three readers of its sums on their modules,
    keeping what each call received and returned."""

    def __init__(self, monkeypatch):
        self.marches, self.checks, self.norms, self.probes = [], [], [], []
        for module, name, calls in ((sim, "march_gl", self.marches),
                                    (sim, "carleman_gl_check", self.checks),
                                    (inv, "solution_norms", self.norms),
                                    (inv, "backward_uniqueness_probe", self.probes)):
            monkeypatch.setattr(module, name, self._wrap(getattr(module, name), calls))

    @staticmethod
    def _wrap(fn, calls):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((args, kwargs, out))
            return out

        return wrapped


@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize("verb", ["carleman-gl", "inverse-gl"])
def test_verb_sums_match_whole_array_formulas(tmp_path, monkeypatch, verb, seed):
    rec = Recorder(monkeypatch)
    assert cli.main([verb, "--seed", str(seed), "--out", str(tmp_path / "r.json")]) == 0
    cfg = load_config(verb, None)
    (problems, grid, ensembles, *_), _, runs = rec.marches[0]
    assert len(rec.marches) == 1 and len(runs) == cfg.ensembles
    for i, (p, paths) in enumerate(zip(problems, ensembles)):
        w = sim.solve_gl_forward(p, grid, paths).w
        if verb == "carleman-gl":
            (_, gws, delta), _, got = rec.checks[i]
            assert_gl_reports_match(got, reference_gl_check(w, grid, p, gws, delta))
        else:
            np.testing.assert_allclose(rec.norms[i][2], reference_norms(w, grid, cfg.t0),
                                       rtol=RTOL, atol=0.0)
            if i == 0:
                (sol, N3, *_), _, probe = rec.probes[0]
                assert sol is runs[0]
                want = reference_probe_slope(w, paths, grid, cfg.t0, N3, cfg.epsilons)
                assert probe["slope"] == pytest.approx(want, rel=RTOL, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(Nx=st.integers(8, 16), Nt=st.integers(8, 32), E=st.integers(1, 3),
       M=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       delta_node=st.floats(0.0, 0.9), t0_node=st.floats(0.05, 0.95),
       mus=st.lists(st.floats(2.0, 4.5), min_size=1, max_size=3))
def test_streamed_sums_match_whole_array_formulas(Nx, Nt, E, M, seed, delta_node,
                                                  t0_node, mus):
    grid = sim.Grid1D(Nx=Nx, Nt=Nt, T=0.3)
    streams = np.random.SeedSequence(seed).spawn(3 * E)
    ensembles = [sim.brownian(M, Nt, streams[i], dt=grid.dt) for i in range(E)]
    gws = [GLWeight(mu=mu, T=grid.T) for mu in mus]
    delta = int(delta_node * Nt) * grid.dt
    # carleman_gl_check on pure-source members
    sources = [sim.make_random_gl_problem(streams[E + i]) for i in range(E)]
    for run, p, paths in zip(sim.march_gl(sources, grid, ensembles), sources, ensembles):
        w = sim.solve_gl_forward(p, grid, paths).w
        assert_gl_reports_match(sim.carleman_gl_check(run, gws, delta),
                                reference_gl_check(w, grid, p, gws, delta))
    # the norms and the probe on members with coefficients, t0 inside (0, T)
    m0 = max(1, min(Nt - 1, int(t0_node * Nt)))
    t0 = grid.t[m0]
    coefficients = [sim.make_random_gl_problem(streams[2 * E + i], with_coefficients=True,
                                               with_sources=False) for i in range(E)]
    runs = sim.march_gl(coefficients, grid, ensembles, keep=[m0])
    cut = inv.CutoffSpec(t1=t0 / 3.0, t2=2.0 * t0 / 3.0, t0=t0, T=grid.T)
    eps, tau = [1e-1, 1e-2, 1e-3], inv.compute_tau(t0, cut.t1, 3.0, 10.0)
    for run, p, paths in zip(runs, coefficients, ensembles):
        w = sim.solve_gl_forward(p, grid, paths).w
        norms = inv.solution_norms(run, t0)
        np.testing.assert_allclose(norms, reference_norms(w, grid, t0), rtol=RTOL, atol=0.0)
        assert np.array_equal(run.state(m0), w[:, m0, :])
        slope = inv.backward_uniqueness_probe(run, norms[2], t0, tau, eps)["slope"]
        assert slope == pytest.approx(
            reference_probe_slope(w, paths, grid, t0, norms[2], eps), rel=RTOL, abs=0.0)
