"""Acceptance gate: one test per top-level claim, at the stated tolerances.

Each criterion gets exactly one test function so a verbose run prints one
pass/fail line per claim.  Tolerances and budgets live next to the
assertions they bound.
"""

import math
import time

import numpy as np
import pytest

from carlemanlab import identity as idn
from carlemanlab.identity import CASE_IDS, OperatorSpec
from carlemanlab.inverse import (
    CutoffSpec,
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
    carleman_heat_check,
    classic_demos,
    heat_decay_report,
    make_random_gl_problem,
    manufacture_heat_pair,
    scaled_solution,
    solve_gl_forward,
    time_refinement_report,
    zero_paths,
)
from carlemanlab.weights import (
    GLWeight,
    HeatWeight,
    leading_order_B_check,
    psi_1d,
)

THEOREM_SPECS = [OperatorSpec(n=n, regime=r)
                 for n in (1, 2, 3) for r in ("R1", "R2", "R3", "raw")]


def test_criterion_1_general_identity_exact_within_budget():
    for spec in THEOREM_SPECS:
        started = time.monotonic()
        res = idn.verify_identity(spec)
        elapsed = time.monotonic() - started
        assert res.zero, (spec, res.surviving_monomials[:5])
        assert elapsed <= 60.0, (spec, elapsed)


def test_criterion_2_every_specialization_and_proof_step_exact():
    for case_id in CASE_IDS:
        res = idn.verify_special(case_id)
        assert res.zero, (case_id, res.surviving_monomials[:5])
    for n in (1, 2):
        assert idn.verify_reconstruction(n).zero


def test_criterion_3_jet_oracle_zero_residuals_and_mutation_detection():
    targets = THEOREM_SPECS + list(CASE_IDS)
    for target in targets:
        values = idn.numeric_residual(target, seed=17, assignments=20, points=5)
        assert len(values) == 20 * 6
        assert all(v.is_zero for v in values), target
    for target in targets:
        mutated = idn.numeric_residual(target, seed=17, assignments=2,
                                       points=3, mutated=True)
        assert any(not v.is_zero for v in mutated), target


def test_criterion_4_zero_order_energy_leading_term():
    # |psi'| >= 0.2 at each point; the full-coefficient ratio must sit
    # within 0.15 of 1 at lam = 1e4 and improve monotonically over the
    # sweep.  The gradient-quartic normalization cannot reach 1 at mu=4;
    # it is asserted to approach its analytic level-off limit instead,
    # and both normalizations are part of the report.
    w = HeatWeight(psi=psi_1d((0.3, 0.8)), mu=4.0, lam=1.0)
    points = [(0.2, 0.5), (0.4, 0.5), (0.7, 0.4), (0.9, 0.6)]
    assert all(abs(w.psi.d1(x)) >= 0.2 - 1e-12 for x, _ in points)
    out = leading_order_B_check(w, points, (1e3, 1e4, 1e5))
    for ratio in out["ratio_cubic"][1e4]:
        assert abs(ratio - 1.0) <= 0.15, out["ratio_cubic"]
    assert out["monotone_cubic"], out["deviation_cubic"]
    assert out["monotone_gradient"], out["deviation_gradient"]
    assert out["cubic_slope_vs_inv_lambda"] > 0.0
    for (x, _), limit, last in zip(points, out["gradient_limit"],
                                   out["ratio_gradient"][1e5]):
        assert limit == 1.0 + w.psi.d2(x) / (w.mu * w.psi.d1(x) ** 2)
        assert last == pytest.approx(limit, abs=0.05), (x, limit, last)


def test_criterion_5_heat_carleman_uniform_over_ten_pairs():
    started = time.monotonic()
    grid = Grid1D(Nx=60, Nt=400, T=1.0)
    w = HeatWeight(psi=psi_1d((0.3, 0.8)), mu=4.0, lam=20.0, T=1.0)
    lams = [20.0, 40.0, 80.0, 160.0]
    for i in range(10):
        paths = brownian(50, grid.Nt, 1000 + i, dt=grid.dt)
        pair = manufacture_heat_pair(grid, paths, K=6, seed=11 + i)
        rep = carleman_heat_check(pair, w, lams)
        assert all(r >= 0.5 * rep["ratio"][0] for r in rep["ratio"]), (i, rep["ratio"])
        assert rep["log_slope"] >= -0.05, (i, rep["log_slope"])
    assert time.monotonic() - started <= 300.0


def test_criterion_6_gl_carleman_single_constant_per_mu():
    grid = Grid1D(Nx=50, Nt=300, T=0.3)
    solutions = []
    for i in range(10):
        problem = make_random_gl_problem(21 + i)
        paths = brownian(20, grid.Nt, 5021 + i, dt=grid.dt)
        solutions.append(solve_gl_forward(problem, grid, paths))
    for mu in (2.0, 3.0, 4.0):
        gw = GLWeight(mu=mu, T=0.3)
        reports = [carleman_gl_check(sol, gw, 0.05) for sol in solutions]
        for rep in reports:
            assert rep["zero_members"] == 0
            assert all(math.isfinite(q) for q in rep["member_quotients"])
        C_mu = max(rep["fitted_C"] for rep in reports)
        assert math.isfinite(C_mu) and C_mu > 0.0
        for rep in reports:
            assert all(q <= C_mu for q in rep["member_quotients"]), mu
    # exact structural checks
    gw = GLWeight(mu=4.0, T=0.3)
    zero = solve_gl_forward(SPDEProblem(), grid, zero_paths(4, grid.Nt, grid.dt))
    zrep = carleman_gl_check(zero, gw, 0.05)
    assert zrep["lhs"] == 0.0 and zrep["rhs"] == 0.0
    base = carleman_gl_check(solutions[0], gw, 0.05)
    double = carleman_gl_check(scaled_solution(solutions[0], 2.0), gw, 0.05)
    assert double["member_quotients"] == base["member_quotients"]


def test_criterion_7_inverse_problem_exponent_optimizer_spread_probe():
    tau = compute_tau(0.5, 0.2, 3.0, 10.0)
    assert 0.0 < tau < 1.0
    assert compute_tau(0.6, 0.2, 3.0, 10.0) > tau
    assert compute_tau(0.5, 0.2, 3.0, 20.0) < tau

    rng = np.random.default_rng(31)
    cell = (10.0 - 1.0) / 10000
    worst = 0.0
    for _ in range(100):
        D1 = 10.0 ** rng.uniform(-6.0, 2.0)
        D2 = 10.0 ** rng.uniform(-6.0, 2.0)
        kappa = 10.0 ** rng.uniform(-2.0, 1.0)
        C = 10.0 ** rng.uniform(-1.0, 1.5)
        T = float(rng.uniform(0.05, 0.5))
        gap = abs(optimize_mu(D1, D2, kappa, C, T).mu_star
                  - brute_force_mu(D1, D2, kappa, C, T, points=10000))
        worst = max(worst, gap)
    assert worst <= cell, worst

    grid = Grid1D(Nx=50, Nt=300, T=0.3)
    cut = CutoffSpec(t1=0.06, t2=0.12, t0=0.15, T=0.3)
    norms = []
    for i in range(20):
        problem = make_random_gl_problem(31 + i, with_coefficients=True,
                                         with_sources=False)
        paths = brownian(16, grid.Nt, 7031 + i, dt=grid.dt)
        sol = solve_gl_forward(problem, grid, paths)
        norms.append(solution_norms(sol, cut.t0))
        if i == 0:
            first = sol
    rep = stability_experiment(norms, cut, mu1=3.0)
    assert 0.0 < rep.tau < 1.0
    assert rep.spread <= 1e3, rep.spread
    assert rep.falsifications == []

    tampered = backward_uniqueness_probe(first, cut, mu1=3.0,
                                         eps_list=[1e-1, 1e-2, 1e-3, 1e-4])
    assert tampered["flagged_non_adapted"]


def test_criterion_8_solver_validation():
    decay = heat_decay_report(Nx=200, Nt=2000, T=0.1)
    assert decay["relative_error"] < 0.02, decay
    refine = time_refinement_report()
    assert abs(refine["ratio"] - 2.0) <= 0.3 * 2.0, refine


def test_criterion_9_first_order_demos():
    ode = classic_demos("ode", seed=0, draws=10)
    assert ode["all_hold"]
    assert sum(r["name"] != "sin" for r in ode["runs"]) == 10
    assert all(r["holds_every_step"] for r in ode["runs"])

    first = classic_demos("first_order", seed=1, draws=10)
    C = first["fitted_C_max"]
    assert math.isfinite(C) and C > 0.0
    for run in first["runs"]:
        assert all(q <= C for q in run["quotients"])
    with pytest.raises(SimError):
        classic_demos("first_order", seed=1, draws=1, flip_gamma_sign=True)
