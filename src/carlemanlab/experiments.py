"""Experiment verbs of the batch driver: one runner per verb.

Each runner takes its checked config and returns ``(checks, header,
rows)``: the report checks, and the CSV series' column names and rows.
The driver imports this module only to run an experiment verb, so the
identity verbs never load numpy.  Library functions are called through
their modules (``sim.march_gl``), where wrappers placed on the
module attribute see them.
"""

from __future__ import annotations

import numpy as np

from . import inverse as inv
from . import simulate as sim
from . import weights as wt
from .config import ConfigError, report_check


def run_carleman_heat(cfg) -> tuple[list, tuple, list]:
    grid = sim.Grid1D(Nx=cfg.Nx, Nt=cfg.Nt, T=cfg.T)
    w = wt.HeatWeight(psi=wt.psi_1d(cfg.G0), mu=cfg.mu, lam=cfg.lambdas[0],
                      T=cfg.T)
    checks, rows = [], []
    streams = np.random.SeedSequence(cfg.seed).spawn(2 * cfg.pairs)
    for i in range(cfg.pairs):
        paths = sim.brownian(cfg.paths, cfg.Nt, streams[2 * i], dt=grid.dt)
        pair = sim.manufacture_heat_pair(grid, paths, cfg.modes,
                                         streams[2 * i + 1])
        if cfg.window is not None:
            pair = sim.windowed_pair(pair, cfg.window[0], cfg.window[1])
        rep = sim.carleman_heat_check(pair, w, cfg.lambdas)
        checks.append(report_check(
            f"pair({i:02d})", rep["uniform_ok"] and rep["slope_ok"],
            min_ratio=rep["min_ratio"], uniform_floor=rep["uniform_floor"],
            log_slope=rep["log_slope"],
            min_observation_fraction=min(rep["observation_fraction"])))
        for lam, lhs, rhs, ratio in zip(rep["lambdas"], rep["lhs"],
                                        rep["rhs"], rep["ratio"]):
            rows.append((i, lam, lhs, rhs, ratio))
    return checks, ("pair", "lambda", "lhs", "rhs", "ratio"), rows


def _gl_members(cfg, grid, streams, keep=(), **kinds):
    """March the config's GL members in one time loop (sim.march_gl),
    keeping their states at the nodes of keep: member i draws its
    problem, of the given kinds, from streams[2 i] and its paths from
    streams[2 i + 1]."""
    members = range(cfg.ensembles)
    problems = [sim.make_random_gl_problem(streams[2 * i], **kinds) for i in members]
    ensembles = [sim.brownian(cfg.paths, cfg.Nt, streams[2 * i + 1], dt=grid.dt)
                 for i in members]
    return sim.march_gl(problems, grid, ensembles, keep)


def run_carleman_gl(cfg) -> tuple[list, tuple, list]:
    labels = [f"gl(mu={mu:g})" for mu in cfg.mus]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"carleman-gl config: mus {list(cfg.mus)} repeat a "
                          f"report label: {', '.join(labels)}")
    grid = sim.Grid1D(Nx=cfg.Nx, Nt=cfg.Nt, T=cfg.T)
    gws = [wt.GLWeight(mu=mu, T=cfg.T) for mu in cfg.mus]
    streams = np.random.SeedSequence(cfg.seed).spawn(2 * cfg.ensembles)
    # one march and one check per ensemble serve every mu; reports stay
    # mu-major
    per_member = [sim.carleman_gl_check(run, gws, cfg.delta)
                  for run in _gl_members(cfg, grid, streams)]
    checks, rows = [], []
    for mu, label, per_mu in zip(cfg.mus, labels, zip(*per_member)):
        fitted = [rep["fitted_C"] for rep in per_mu]
        zero_members = sum(rep["zero_members"] for rep in per_mu)
        for i, rep in enumerate(per_mu):
            for m, q in enumerate(rep["member_quotients"]):
                rows.append((mu, i, m, q))
        finite = all(np.isfinite(c) and c > 0.0 for c in fitted)
        checks.append(report_check(
            label, finite and zero_members == 0,
            fitted_C=max(fitted), zero_members=zero_members))
    return checks, ("mu", "ensemble", "member", "quotient"), rows


def run_inverse_gl(cfg) -> tuple[list, tuple, list]:
    grid = sim.Grid1D(Nx=cfg.Nx, Nt=cfg.Nt, T=cfg.T)
    cut = inv.CutoffSpec(t1=cfg.t1, t2=cfg.t2, t0=cfg.t0, T=cfg.T)
    *streams, optimizer_stream = np.random.SeedSequence(cfg.seed).spawn(
        2 * cfg.ensembles + 1)
    # the norms read per-path sums; the probe reads member 0's state at t0
    runs = _gl_members(cfg, grid, streams, keep=[grid.node(cut.t0, "t0")],
                       with_coefficients=True, with_sources=False)
    norms = [inv.solution_norms(run, cut.t0) for run in runs]
    rep = inv.stability_experiment(norms, cut, cfg.mu1, cfg.C_ref)
    checks = [
        report_check("tau_in_range",
                     0.0 < rep.tau < 1.0 and 0.0 < rep.tau_alt < 1.0,
                     tau=rep.tau, tau_alt=rep.tau_alt),
        report_check("quotient_spread", rep.spread <= 1e3, spread=rep.spread,
                     C_fit=rep.C_fit, N1=rep.N1, N2=rep.N2, N3=rep.N3,
                     mu_star=rep.mu_star),
        report_check("falsifications", not rep.falsifications,
                     count=len(rep.falsifications)),
    ]
    probe = inv.backward_uniqueness_probe(runs[0], norms[0][2], cut.t0, rep.tau,
                                          list(cfg.epsilons))
    checks.append(report_check("probe_tampered_flagged",
                               probe["flagged_non_adapted"], slope=probe["slope"]))

    rng = np.random.default_rng(optimizer_stream)
    points = 10000
    cell = (inv.MU_MAX - 1.0) / points
    worst = 0.0
    for _ in range(cfg.optimizer_draws):
        D1 = 10.0 ** rng.uniform(-6.0, 2.0)
        D2 = 10.0 ** rng.uniform(-6.0, 2.0)
        kappa = 10.0 ** rng.uniform(-2.0, 1.0)
        C = 10.0 ** rng.uniform(-1.0, 1.5)
        T = rng.uniform(0.05, 0.5)
        mu_opt = inv.optimize_mu(D1, D2, kappa, C, T)
        mu_grid = inv.brute_force_mu(D1, D2, kappa, C, T, points=points)
        worst = max(worst, abs(mu_opt - mu_grid))
    checks.append(report_check("optimizer_grid_match", worst <= cell,
                               worst_gap=worst, cell=cell,
                               draws=cfg.optimizer_draws))
    return checks, ("member", "quotient"), list(enumerate(rep.quotients))


def run_demo(cfg) -> tuple[list, tuple, list]:
    runs = sim.classic_demos(cfg.case, seed=cfg.seed, draws=cfg.draws)
    checks, rows = [], []
    if cfg.case == "ode":
        for i, run in enumerate(runs):
            checks.append(report_check(
                f"ode({run['name']})", run["holds_every_step"],
                min_margin=run["min_margin"], growth_rate=run["lambda"]))
            rows.append((i, run["lambda"], run["min_margin"]))
        return checks, ("draw", "lambda", "min_margin"), rows
    for i, run in enumerate(runs):
        checks.append(report_check(
            f"first_order(draw{i:02d})",
            np.isfinite(run["fitted_C"]) and run["fitted_C"] > 0.0,
            fitted_C=run["fitted_C"], support=run["support"]))
        for lam, q in zip(run["lambdas"], run["quotients"]):
            rows.append((i, lam, q))
    return checks, ("draw", "lambda", "quotient"), rows


RUNNERS = {
    "carleman-heat": run_carleman_heat,
    "carleman-gl": run_carleman_gl,
    "inverse-gl": run_inverse_gl,
    "demo": run_demo,
}
