"""Hoelder stability experiment, exponent formula, and mu optimization."""

import dataclasses
import math
import random

import numpy as np
import pytest

from carlemanlab.inverse import (
    MU_LO,
    MU_MAX,
    CutoffSpec,
    InverseError,
    backward_uniqueness_probe,
    brute_force_mu,
    compute_tau,
    optimize_mu,
    solution_norms,
    stability_experiment,
)
from carlemanlab.simulate import (
    Grid1D,
    SimError,
    SPDEProblem,
    brownian,
    carleman_gl_check,
    make_random_gl_problem,
    solve_gl_forward,
)
from carlemanlab.weights import GLWeight
from strategies import zero_paths

CUT = CutoffSpec(t1=0.06, t2=0.12, t0=0.15, T=0.3)
# the printed exponent that stability_experiment reports for CUT at mu1 = 3
TAU = compute_tau(CUT.t0, CUT.t1, 3.0, 10.0)


def member_norms(solutions):
    return [solution_norms(sol, CUT.t0) for sol in solutions]


def solve_members(count, seed0=31, M=8, Nx=40, Nt=150, T=0.3):
    grid = Grid1D(Nx=Nx, Nt=Nt, T=T)
    out = []
    for i in range(count):
        p = make_random_gl_problem(seed0 + i)
        out.append(solve_gl_forward(p, grid, brownian(M, Nt, seed0 + 500 + i, dt=grid.dt)))
    return out


# -- exponent formula -------------------------------------------------


def test_tau_pinned_value():
    # mu1 = 3, t0 = 0.5, t1 = 0.2, C = 10
    kappa = math.exp(4.5) - math.exp(1.8)
    closed = 2.0 * kappa / (10.0 + 2.0 * kappa)
    got = compute_tau(0.5, 0.2, 3.0, 10.0)
    assert got == pytest.approx(closed, rel=1e-15)
    assert got == pytest.approx(0.944, abs=5e-4)


def test_tau_stays_in_unit_interval():
    rng = random.Random(77)
    for _ in range(300):
        t0 = rng.uniform(0.05, 0.95)
        t1 = rng.uniform(0.01, t0 * 0.99)
        mu1 = rng.uniform(2.01, 6.0)
        C = 10.0 ** rng.uniform(-2, 3)
        assert 0.0 < compute_tau(t0, t1, mu1, C) < 1.0


def test_tau_monotonicities():
    base = compute_tau(0.5, 0.2, 3.0, 10.0)
    assert compute_tau(0.6, 0.2, 3.0, 10.0) > base    # increasing in t0
    assert compute_tau(0.5, 0.2, 3.0, 20.0) < base    # decreasing in C
    assert compute_tau(0.5, 0.2, 3.0, 1e-12) > 1.0 - 1e-9
    assert compute_tau(0.5, 0.5 - 1e-9, 3.0, 10.0) < 1e-6


def test_tau_preconditions():
    with pytest.raises(InverseError):
        compute_tau(0.2, 0.5, 3.0, 10.0)
    with pytest.raises(InverseError):
        compute_tau(0.5, 0.2, 2.0, 10.0)
    with pytest.raises(InverseError):
        compute_tau(0.5, 0.2, 3.0, 0.0)
    with pytest.raises(InverseError):
        compute_tau(0.5, 0.2, 1000.0, 10.0)  # e^{3 mu1 t0} overflows
    with pytest.raises(InverseError, match="rounds to 1"):
        compute_tau(0.15, 0.06, 100.0, 10.0)  # 2 kappa / C > 2^53


# -- mu optimization --------------------------------------------------


def random_objective_box(rng):
    return dict(
        D1=10.0 ** rng.uniform(-6, 2),
        D2=10.0 ** rng.uniform(-6, 2),
        kappa=10.0 ** rng.uniform(-2, 1),
        C=10.0 ** rng.uniform(-1, 1.5),
        T=rng.uniform(0.05, 0.5),
    )


def test_search_matches_grid_argmin():
    rng = random.Random(123)
    cell = 9.0 / (10000 - 1)
    for _ in range(25):
        kw = random_objective_box(rng)
        got = optimize_mu(**kw)
        want = brute_force_mu(**kw)
        assert abs(got - want) <= cell + 1e-12


def scalar_log_objective(mu, D1, D2, kappa, C, T):
    a = math.log(C) - 2.0 * mu * kappa + math.log(D1)
    b = math.log(C) + 2.0 * mu * math.exp(C * mu * T) + math.log(D2)
    return max(a, b) + math.log1p(math.exp(-abs(a - b)))


def test_grid_oracle_matches_scalar_loop():
    # numpy's exp and log may differ from math's in the last bit, so the
    # two argmins may split a near-tie between adjacent nodes
    rng = random.Random(321)
    points = 2000
    grid = np.linspace(MU_LO, MU_MAX, points)
    for _ in range(25):
        kw = random_objective_box(rng)
        vals = [scalar_log_objective(float(m), **kw) for m in grid]
        want = float(grid[vals.index(min(vals))])
        got = brute_force_mu(**kw, points=points)
        assert abs(got - want) <= grid[1] - grid[0]


def test_terminal_dominated_objective_pushes_mu_to_one():
    assert optimize_mu(D1=1e-8, D2=1e6, kappa=1.0, C=1.0, T=0.1) < 1.001


def test_zero_terminal_norm_flags_degenerate_optimum():
    mu_star = optimize_mu(D1=1.0, D2=0.0, kappa=1.0, C=1.0, T=0.1)
    assert mu_star == MU_MAX == 10.0


def test_doubling_interior_norm_moves_mu_weakly_up():
    kw = dict(D2=1e-3, kappa=2.0, C=1.0, T=0.2)
    lo = optimize_mu(D1=1.0, **kw)
    hi = optimize_mu(D1=2.0, **kw)
    assert hi >= lo - 1e-6
    assert hi > lo  # interior optimum: the shift is strict


@pytest.mark.parametrize("kwargs", [
    dict(D1=0.0, D2=1.0, kappa=1.0, C=1.0, T=0.1),
    dict(D1=1.0, D2=-1.0, kappa=1.0, C=1.0, T=0.1),
    dict(D1=1.0, D2=1.0, kappa=0.0, C=1.0, T=0.1),
    dict(D1=1.0, D2=1.0, kappa=1.0, C=0.0, T=0.1),
    dict(D1=1.0, D2=1.0, kappa=1.0, C=1.0, T=0.0),
    dict(D1=1.0, D2=1.0, kappa=1.0, C=1000.0, T=0.3),  # e^{C mu T} overflows
])
def test_optimizer_rejects_degenerate_inputs(kwargs):
    with pytest.raises(InverseError):
        optimize_mu(**kwargs)
    with pytest.raises(InverseError):
        brute_force_mu(**kwargs)


# -- cutoff -----------------------------------------------------------


@pytest.mark.parametrize("times", [
    (0.0, 0.12, 0.15, 0.3),
    (0.12, 0.06, 0.15, 0.3),
    (0.06, 0.12, 0.12, 0.3),
    (0.06, 0.12, 0.35, 0.3),
])
def test_cutoff_ordering_enforced(times):
    with pytest.raises(InverseError):
        CutoffSpec(*times)


# -- norms ------------------------------------------------------------


def test_norms_of_zero_solution_vanish():
    grid = Grid1D(Nx=20, Nt=60, T=0.3)
    sol = solve_gl_forward(SPDEProblem(), grid, zero_paths(3, 60, grid.dt))
    assert solution_norms(sol, 0.15) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("caller", ["carleman_gl_check", "solution_norms",
                                    "backward_uniqueness_probe"])
def test_norms_need_a_time_node(caller):
    # every reader of the GL grid places its time by one rule
    sol = solve_members(1)[0]
    off = 0.15 + 1e-4
    run = {
        "carleman_gl_check": lambda: carleman_gl_check(sol, [GLWeight(mu=2.0, T=0.3)], off),
        "solution_norms": lambda: solution_norms(sol, off),
        "backward_uniqueness_probe": lambda: backward_uniqueness_probe(
            sol, 1.0, off, TAU, [0.1, 0.01]),
    }[caller]
    with pytest.raises(SimError, match=f"= {off} must sit on a time node"):
        run()


# -- stability experiment ---------------------------------------------


def test_stability_experiment_fits_uniform_constant():
    rep = stability_experiment(member_norms(solve_members(6)), CUT, mu1=3.0)
    assert 0.0 < rep.tau < 1.0
    assert 0.0 < rep.tau_alt < rep.tau  # t2 > t1 shrinks the exponent
    assert rep.C_fit == max(rep.quotients)
    assert math.isfinite(rep.C_fit) and rep.C_fit > 0.0
    assert rep.spread >= 1.0
    assert rep.falsifications == []
    assert 1.0 < rep.mu_star <= 10.0
    # mu_star balances the bound with the t2 kappa of the derivation
    kappa_t2 = math.exp(9.0 * CUT.t0) - math.exp(9.0 * CUT.t2)
    assert rep.mu_star == optimize_mu(rep.N2 ** 2, rep.N3 ** 2, kappa_t2, 10.0, CUT.T)


def test_quotients_scale_invariant():
    members = solve_members(3, seed0=60)
    rep = stability_experiment(member_norms(members), CUT, mu1=3.0)
    # by linearity, doubling (w0, f, g) doubles the solved state, so it
    # scales the sums of squares by 4, exactly in binary
    scaled = [dataclasses.replace(s, w2=4.0 * s.w2, wx2=4.0 * s.wx2) for s in members]
    rep2 = stability_experiment(member_norms(scaled), CUT, mu1=3.0)
    for q1, q2 in zip(rep.quotients, rep2.quotients):
        assert q2 == pytest.approx(q1, rel=1e-12)


def test_empty_and_degenerate_ensembles_rejected():
    with pytest.raises(InverseError):
        stability_experiment([], CUT, mu1=3.0)
    grid = Grid1D(Nx=20, Nt=60, T=0.3)
    zero = solve_gl_forward(SPDEProblem(), grid, zero_paths(2, 60, grid.dt))
    with pytest.raises(InverseError, match="degenerate"):
        stability_experiment(member_norms([zero]), CUT, mu1=3.0)


def test_zeroed_terminal_slice_is_reported_not_dropped():
    members = solve_members(3, seed0=90)
    members[1].w2[:, -1] = 0.0
    members[1].wx2[:, -1] = 0.0
    norms = member_norms(members)
    rep = stability_experiment(norms, CUT, mu1=3.0)
    assert rep.falsifications == [1]
    assert norms[1][2] == 0.0
    assert norms[1][0] > 0.0
    assert len(rep.quotients) == 2


# -- backward-uniqueness probe ----------------------------------------


def test_probe_flags_non_adapted_tampering():
    sol = solve_members(1, seed0=140, M=12)[0]
    rep = backward_uniqueness_probe(sol, solution_norms(sol, CUT.t0)[2], CUT.t0, TAU,
                                    eps_list=[1e-1, 1e-2, 1e-3, 1e-4])
    assert abs(rep["slope"]) < 0.2
    assert rep["flagged_non_adapted"]


def test_probe_needs_terminal_mass():
    grid = Grid1D(Nx=20, Nt=60, T=0.3)
    zero = solve_gl_forward(SPDEProblem(), grid, zero_paths(2, 60, grid.dt))
    with pytest.raises(InverseError):
        backward_uniqueness_probe(zero, solution_norms(zero, CUT.t0)[2], CUT.t0, TAU,
                                  eps_list=[1e-1, 1e-2])


@pytest.mark.parametrize("eps", [[0.0, 0.1], [-0.1, 0.1], [0.1], [0.1, 0.1],
                                 [float("inf"), 0.1], [],
                                 # distinct, but their logs coincide
                                 [1e-9, 1.0000000000000003e-9],
                                 # distinct logs, a few ulps apart: no slope
                                 [1e-9, 1.00000000000003e-9]])
def test_probe_needs_two_distinct_positive_epsilons(eps):
    sol = solve_members(1, seed0=140, M=4, Nt=60)[0]
    with pytest.raises(InverseError, match="epsilons"):
        backward_uniqueness_probe(sol, 1.0, CUT.t0, TAU, eps_list=eps)
