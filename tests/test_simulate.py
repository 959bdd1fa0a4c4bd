"""Forward solver, manufactured pairs, and Monte-Carlo inequality checks."""

import dataclasses
import math

import numpy as np
import pytest

from carlemanlab.simulate import (
    Grid1D,
    SimError,
    SPDEProblem,
    brownian,
    carleman_gl_check,
    carleman_heat_check,
    classic_demos,
    coarsen,
    euler_residual,
    grad_dirichlet,
    heat_decay_report,
    l2_norm,
    make_random_gl_problem,
    manufacture_heat_pair,
    scaled_solution,
    solve_gl_forward,
    time_refinement_report,
    windowed_pair,
    zero_paths,
)
from carlemanlab.weights import GLWeight, HeatWeight, psi_1d


def heat_weight(mu=4.0, T=1.0):
    return HeatWeight(psi=psi_1d((0.3, 0.8)), mu=mu, lam=1.0, T=T)


# -- grids and paths --------------------------------------------------


def test_grid_spacing():
    g = Grid1D(Nx=9, Nt=4, T=2.0)
    assert g.dx == 0.1
    assert g.dt == 0.5
    assert np.allclose(g.x, np.linspace(0.1, 0.9, 9))
    assert np.allclose(g.t, [0.0, 0.5, 1.0, 1.5, 2.0])


@pytest.mark.parametrize("kwargs", [
    dict(Nx=1, Nt=4, T=1.0), dict(Nx=9, Nt=0, T=1.0), dict(Nx=9, Nt=4, T=0.0),
])
def test_bad_grids(kwargs):
    with pytest.raises(SimError):
        Grid1D(**kwargs)


def test_brownian_moments():
    M, dt = 10_000, 0.01
    paths = brownian(M, 4, seed=7, dt=dt)
    means = paths.increments.mean(axis=0)
    assert np.all(np.abs(means) <= 4.0 * math.sqrt(dt / M))
    var = paths.increments.var(ddof=1)
    assert abs(var - dt) <= 0.1 * dt


def test_brownian_deterministic():
    a = brownian(5, 20, seed=3, dt=0.1)
    b = brownian(5, 20, seed=3, dt=0.1)
    c = brownian(5, 20, seed=4, dt=0.1)
    assert np.array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, c.increments)


def test_cumulative_starts_at_zero():
    paths = brownian(3, 10, seed=1, dt=0.2)
    B = paths.cumulative()
    assert B.shape == (3, 11)
    assert np.all(B[:, 0] == 0.0)
    assert np.allclose(B[:, -1], paths.increments.sum(axis=1))


def test_coarsen_shares_the_path():
    fine = brownian(4, 12, seed=2, dt=0.25)
    coarse = coarsen(fine, 3)
    assert coarse.Nt == 4 and coarse.dt == 0.75
    assert np.allclose(coarse.cumulative(), fine.cumulative()[:, ::3])
    with pytest.raises(SimError):
        coarsen(fine, 5)


# -- forward solver ---------------------------------------------------


def test_heat_decay_matches_exact_rate():
    rep = heat_decay_report(Nx=200, Nt=2000, T=0.1)
    assert rep["relative_error"] < 0.02


def test_time_refinement_is_first_order():
    rep = time_refinement_report()
    assert rep["ratio"] == pytest.approx(2.0, rel=0.3)


def test_zero_data_gives_zero_solution():
    grid = Grid1D(Nx=30, Nt=50, T=0.2)
    sol = solve_gl_forward(SPDEProblem(), grid, brownian(4, 50, 9, dt=grid.dt))
    assert np.all(sol.w == 0.0)


def test_path_grid_mismatch_rejected():
    grid = Grid1D(Nx=30, Nt=50, T=0.2)
    with pytest.raises(SimError):
        solve_gl_forward(SPDEProblem(), grid, brownian(4, 49, 9, dt=grid.dt))
    with pytest.raises(SimError):
        solve_gl_forward(SPDEProblem(), grid, brownian(4, 50, 9, dt=0.9 * grid.dt))


# -- manufactured pairs -----------------------------------------------


def make_pair(seed=0, Nx=60, Nt=400, T=1.0, M=8, K=6):
    grid = Grid1D(Nx=Nx, Nt=Nt, T=T)
    paths = brownian(M, Nt, seed, dt=grid.dt)
    return manufacture_heat_pair(grid, paths, K, seed)


def test_pair_solves_equation_pathwise():
    # f must equal the dt drift of y plus the exact Laplacian, per path
    pair = make_pair(seed=4, M=3)
    k = np.arange(1, pair.K + 1)
    sines = np.sin(np.pi * np.outer(pair.grid.x, k))
    B = pair.paths.cumulative()
    stoch = 1.0 + pair.sigma[None, None, :] * B[:, :, None]
    drift = (pair.modal_ddot[None, :, :] * stoch) @ sines.T
    assert np.allclose(pair.f, drift + pair.laplacian_exact(), atol=1e-10)
    # and the noise coefficient is deterministic in the modal amplitudes
    Y_want = (pair.sigma * pair.modal_d) @ sines.T
    assert np.allclose(pair.Y, Y_want[None, :, :], atol=1e-12)


def test_pair_vanishes_at_boundary():
    pair = make_pair(seed=1, M=2)
    k = np.arange(1, pair.K + 1)
    for xb in (0.0, 1.0):
        sines = np.sin(np.pi * xb * k)
        B = pair.paths.cumulative()
        coef = pair.modal_d[None, :, :] * (1.0 + pair.sigma[None, None, :] * B[:, :, None])
        assert np.max(np.abs(coef @ sines)) < 1e-13


def test_mode_budget_enforced():
    grid = Grid1D(Nx=20, Nt=40, T=0.5)
    with pytest.raises(SimError):
        manufacture_heat_pair(grid, brownian(2, 40, 0, dt=grid.dt), K=6, seed=0)


def test_euler_residual_halves_with_dt():
    for seed in (1, 2):
        fine_grid = Grid1D(Nx=80, Nt=800, T=0.5)
        fine_paths = brownian(8, 800, seed, dt=fine_grid.dt)
        coarse_grid = Grid1D(Nx=80, Nt=400, T=0.5)
        r_coarse = euler_residual(
            manufacture_heat_pair(coarse_grid, coarsen(fine_paths, 2), 5, seed))
        r_fine = euler_residual(manufacture_heat_pair(fine_grid, fine_paths, 5, seed))
        assert 0.4 <= r_fine / r_coarse <= 0.6


# -- parabolic Carleman inequality ------------------------------------


def test_heat_inequality_uniform_over_sweep():
    pair = make_pair(seed=11, M=50)
    rep = carleman_heat_check(pair, heat_weight(), [20, 40, 80, 160])
    assert rep["uniform_ok"] and rep["slope_ok"]
    assert rep["min_ratio"] > 0.0
    assert all(r >= rep["uniform_floor"] for r in rep["ratio"])
    assert rep["log_slope"] >= -0.05
    assert all(se >= 0.0 for se in rep["lhs_se"] + rep["rhs_se"])


def test_windowed_pair_is_observation_dominated():
    pair = make_pair(seed=12, M=20)
    wp = windowed_pair(pair, 0.38, 0.72)
    # support inside G0 = (0.3, 0.8): the window really vanishes outside
    outside = (pair.grid.x < 0.3) | (pair.grid.x > 0.8)
    assert np.all(wp.y[:, :, outside] == 0.0)
    rep = carleman_heat_check(wp, heat_weight(), [20, 40, 80, 160])
    assert rep["uniform_ok"]
    assert min(rep["observation_fraction"]) > 0.5


def test_heat_ratio_scale_invariant():
    pair = make_pair(seed=13, M=10)
    doubled = dataclasses.replace(pair, y=2.0 * pair.y, Y=2.0 * pair.Y,
                                  f=2.0 * pair.f)
    a = carleman_heat_check(pair, heat_weight(), [20, 80])
    b = carleman_heat_check(doubled, heat_weight(), [20, 80])
    assert b["lhs"] == [4.0 * v for v in a["lhs"]]
    assert b["rhs"] == [4.0 * v for v in a["rhs"]]
    assert b["ratio"] == a["ratio"]


def test_heat_weight_horizon_mismatch_rejected():
    pair = make_pair(seed=1, M=2, T=0.5)
    with pytest.raises(SimError):
        carleman_heat_check(pair, heat_weight(T=1.0), [20])


# -- time-global Carleman inequality ----------------------------------


def gl_solution(seed=10, M=20, mu_T=0.3):
    grid = Grid1D(Nx=50, Nt=300, T=mu_T)
    p = make_random_gl_problem(seed)
    return solve_gl_forward(p, grid, brownian(M, 300, seed + 100, dt=grid.dt))


def test_gl_inequality_constants():
    sol = gl_solution()
    reports = {mu: carleman_gl_check(sol, GLWeight(mu=mu, T=0.3), 0.05)
               for mu in (2.0, 3.0, 4.0)}
    for mu, rep in reports.items():
        assert math.isfinite(rep["fitted_C"]) and rep["fitted_C"] > 0.0
        assert rep["zero_members"] == 0
        assert max(rep["member_quotients"]) == rep["fitted_C"]
        assert rep["lhs"] > 0.0 and rep["rhs"] > 0.0


def test_gl_constant_stable_across_path_seeds():
    grid = Grid1D(Nx=50, Nt=300, T=0.3)
    gw = GLWeight(mu=3.0, T=0.3)
    p = make_random_gl_problem(10)
    cs = [
        carleman_gl_check(
            solve_gl_forward(p, grid, brownian(20, 300, s, dt=grid.dt)), gw, 0.05
        )["fitted_C"]
        for s in (7, 8, 9)
    ]
    assert max(cs) / min(cs) < 1.5


def test_gl_zero_solution_is_zero_on_both_sides():
    grid = Grid1D(Nx=30, Nt=60, T=0.3)
    sol = solve_gl_forward(SPDEProblem(), grid, zero_paths(4, 60, grid.dt))
    rep = carleman_gl_check(sol, GLWeight(mu=2.0, T=0.3), 0.05)
    assert rep["lhs"] == 0.0 and rep["rhs"] == 0.0
    assert rep["fitted_C"] == 0.0
    assert rep["zero_members"] == 4


def test_gl_quotients_bitwise_invariant_under_family_scaling():
    sol = gl_solution(seed=21, M=8)
    rep = carleman_gl_check(sol, GLWeight(mu=3.0, T=0.3), 0.05)
    rep2 = carleman_gl_check(scaled_solution(sol, 2.0), GLWeight(mu=3.0, T=0.3), 0.05)
    assert rep2["member_quotients"] == rep["member_quotients"]
    assert rep2["fitted_C"] == rep["fitted_C"]


def test_gl_check_preconditions():
    sol = gl_solution(seed=2, M=2)
    gw = GLWeight(mu=2.0, T=0.3)
    with pytest.raises(SimError):
        carleman_gl_check(sol, gw, 0.3)  # delta = T
    with pytest.raises(SimError):
        carleman_gl_check(sol, gw, 0.05 + 1e-4)  # off the time lattice
    with pytest.raises(SimError):
        carleman_gl_check(sol, GLWeight(mu=2.0, T=0.4), 0.05)
    p = make_random_gl_problem(3, with_coefficients=True)
    grid = Grid1D(Nx=30, Nt=60, T=0.3)
    sol2 = solve_gl_forward(p, grid, brownian(2, 60, 3, dt=grid.dt))
    with pytest.raises(SimError):
        carleman_gl_check(sol2, gw, 0.05)  # coefficient terms not folded in


# -- demos ------------------------------------------------------------


def test_ode_demo_bound_holds():
    rep = classic_demos("ode", seed=0, draws=10)
    assert rep["all_hold"]
    assert len(rep["runs"]) == 11  # pinned sin case plus the draws
    sin_run = rep["runs"][0]
    assert sin_run["name"] == "sin"
    assert sin_run["lambda"] == pytest.approx(2.0, abs=1e-6)
    assert sin_run["min_margin"] > 0.0
    assert all(r["holds_every_step"] for r in rep["runs"])


def test_first_order_demo_fits_one_constant():
    rep = classic_demos("first_order", seed=1, draws=6)
    assert math.isfinite(rep["fitted_C_max"]) and rep["fitted_C_max"] > 0.0
    for run in rep["runs"]:
        assert run["c0"] > 0.0
        assert run["fitted_C"] == max(run["quotients"])
        assert all(q <= rep["fitted_C_max"] for q in run["quotients"])


def test_first_order_demo_rejects_outward_field():
    with pytest.raises(SimError, match="inward condition"):
        classic_demos("first_order", seed=1, draws=1, flip_gamma_sign=True)


def test_unknown_demo_rejected():
    with pytest.raises(SimError):
        classic_demos("parabolic")


def test_gradient_operator_roundtrip():
    # d/dx sin(pi x) = pi cos(pi x) on a Dirichlet slice
    g = Grid1D(Nx=400, Nt=1, T=1.0)
    u = np.sin(np.pi * g.x)
    du = grad_dirichlet(u, g.dx)
    assert np.allclose(du, np.pi * np.cos(np.pi * g.x), atol=1e-4)
    assert float(l2_norm(u, g.dx)) == pytest.approx(math.sqrt(0.5), rel=1e-4)
