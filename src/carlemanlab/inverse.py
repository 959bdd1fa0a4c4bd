"""Interior-state determination from terminal data.

For solutions of the stochastic Ginzburg-Landau equation, the interior
state at t0 obeys a conditional Hoelder estimate

    N1 <= C N2^{1-tau} N3^tau,
    N1 = |w(t0)|_{L2},  N2 = |w|_{L2(0,T;L2)},  N3 = |w(T)|_{H1},

with tau in (0,1) built from the time-global weight.  This module
computes the three norms over solved ensembles, the exponent tau in its
two printed variants, the mu that balances the two exponential terms of
the underlying bound, and a backward-uniqueness probe that must flag a
non-adapted family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .simulate import Solution, grad_dirichlet, l2_norm, smoothstep


class InverseError(ValueError):
    """Raised for invalid cutoff times or degenerate optimization data."""


@dataclass(frozen=True)
class CutoffSpec:
    """Times 0 < t1 < t2 < t0 < T and the quintic ramp between t1, t2."""

    t1: float
    t2: float
    t0: float
    T: float

    def __post_init__(self):
        if not (0.0 < self.t1 < self.t2 < self.t0 < self.T):
            raise InverseError(
                f"cutoff times must satisfy 0 < t1 < t2 < t0 < T, got "
                f"({self.t1}, {self.t2}, {self.t0}, {self.T})")

    def rho(self, t: np.ndarray) -> np.ndarray:
        s, _, _ = smoothstep((np.asarray(t, dtype=float) - self.t1) / (self.t2 - self.t1))
        return s

    def rho_dt(self, t: np.ndarray) -> np.ndarray:
        _, ds, _ = smoothstep((np.asarray(t, dtype=float) - self.t1) / (self.t2 - self.t1))
        return ds / (self.t2 - self.t1)


def compute_tau(t0: float, t1: float, mu1: float, C: float) -> float:
    """tau = 2 kappa / (C + 2 kappa) with kappa = e^{3 mu1 t0} - e^{3 mu1 t1}."""
    if t1 >= t0:
        raise InverseError(f"need t1 < t0, got t1 = {t1}, t0 = {t0}")
    if mu1 <= 2:
        raise InverseError("mu1 must exceed 2")
    if C <= 0:
        raise InverseError("C must be positive")
    # largest exponent is 3 mu1 t0; keep e^{3 mu1 t0} and 2 kappa in range
    if 3.0 * mu1 * t0 > 709.0:
        raise InverseError(
            f"e^(3 mu1 t0) overflows double precision for "
            f"(mu1, t0) = ({mu1:g}, {t0:g}); reduce mu1 or t0")
    kappa = math.exp(3.0 * mu1 * t0) - math.exp(3.0 * mu1 * t1)
    return 2.0 * kappa / (C + 2.0 * kappa)


@dataclass(frozen=True)
class MuOptimum:
    mu_star: float
    log_objective: float
    d2_zero: bool


def _log_objective(mu, D1: float, D2: float, kappa: float, C: float,
                   T: float):
    # F(mu) = C e^{-2 mu kappa} D1 + C e^{2 mu e^{C mu T}} D2, kept in logs:
    # the second exponent alone overflows any float for moderate mu.
    # mu may be a float or an array of them.
    a = np.log(C) - 2.0 * mu * kappa + np.log(D1)
    if D2 == 0.0:
        return a
    b = np.log(C) + 2.0 * mu * np.exp(C * mu * T) + np.log(D2)
    return np.logaddexp(a, b)


def _check_objective(D1: float, D2: float, kappa: float, C: float, T: float,
                     mu_max: float) -> None:
    if D1 <= 0 or kappa <= 0 or C <= 0 or T <= 0 or D2 < 0:
        raise InverseError("the mu objective needs D1, kappa, C, T > 0 and D2 >= 0")
    # largest exponent is 2 mu_max e^{C mu_max T}; keep it in range
    if C * mu_max * T + math.log(2.0 * mu_max) > 709.0:
        raise InverseError(
            f"e^(2 mu e^(C mu T)) overflows double precision at mu = {mu_max:g} "
            f"for (C, T) = ({C:g}, {T:g}); reduce C or T")


def optimize_mu(D1: float, D2: float, kappa: float, C: float, T: float,
                mu_max: float = 10.0) -> MuOptimum:
    """Minimize the two-exponential bound over mu in (1, mu_max].

    The log objective is convex (a decreasing linear term log-summed
    with a convex double exponential), so golden-section search is
    exact up to bracketing tolerance.  D2 = 0 degenerates to a monotone
    objective whose infimum sits at the bracket end; that case is
    flagged rather than searched.
    """
    _check_objective(D1, D2, kappa, C, T, mu_max)
    if D2 == 0.0:
        return MuOptimum(mu_star=mu_max,
                         log_objective=float(_log_objective(mu_max, D1, D2, kappa, C, T)),
                         d2_zero=True)
    lo, hi = 1.0 + 1e-9, mu_max
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = _log_objective(c, D1, D2, kappa, C, T)
    fd = _log_objective(d, D1, D2, kappa, C, T)
    while b - a > 1e-7:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = _log_objective(c, D1, D2, kappa, C, T)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = _log_objective(d, D1, D2, kappa, C, T)
    mu = 0.5 * (a + b)
    return MuOptimum(mu_star=mu,
                     log_objective=float(_log_objective(mu, D1, D2, kappa, C, T)),
                     d2_zero=False)


def brute_force_mu(D1: float, D2: float, kappa: float, C: float, T: float,
                   mu_max: float = 10.0, points: int = 10000) -> float:
    """Grid argmin oracle for optimize_mu."""
    _check_objective(D1, D2, kappa, C, T, mu_max)
    grid = np.linspace(1.0 + 1e-9, mu_max, points)
    return float(grid[np.argmin(_log_objective(grid, D1, D2, kappa, C, T))])


def solution_norms(sol: Solution, t0: float) -> tuple[float, float, float]:
    """(N1, N2, N3): interior L2 at t0, space-time L2, terminal H1 —
    each mean-square over the path ensemble."""
    grid = sol.grid
    m0 = int(round(t0 / grid.dt))
    if abs(m0 * grid.dt - t0) > 1e-9 * grid.T or not (0 <= m0 <= grid.Nt):
        raise InverseError(f"t0 = {t0} must sit on a time node")
    dx, dt = grid.dx, grid.dt
    N1 = math.sqrt(float(np.mean(l2_norm(sol.w[:, m0, :], dx) ** 2)))
    tw = np.full(grid.Nt + 1, dt)
    tw[0] *= 0.5
    tw[-1] *= 0.5
    N2 = math.sqrt(float(np.mean(np.sum(l2_norm(sol.w, dx) ** 2 * tw[None, :], axis=1))))
    wT = sol.w[:, -1, :]
    h1 = l2_norm(wT, dx) ** 2 + l2_norm(grad_dirichlet(wT, dx), dx) ** 2
    N3 = math.sqrt(float(np.mean(h1)))
    return N1, N2, N3


@dataclass
class StabilityReport:
    """Ensemble summary of the Hoelder estimate N1 <= C N2^{1-tau} N3^tau."""

    N1: float
    N2: float
    N3: float
    tau: float
    tau_alt: float
    C_fit: float
    quotients: list
    mu_star: float
    mu1: float
    kappa: float
    spread: float
    falsifications: list


def stability_experiment(norms: Sequence[tuple[float, float, float]],
                         cut: CutoffSpec, mu1: float,
                         C_ref: float = 10.0) -> StabilityReport:
    """Fit the smallest uniform constant over an ensemble of solved problems.

    Each member enters through its solution_norms (N1, N2, N3) at cut.t0.
    tau comes from the cutoff times: the printed exponent uses t1, the
    variant from the derivation uses t2; both are reported (they differ,
    and which one was intended is left open).  The quotient of each
    member is N1 / (N2^{1-tau} N3^tau) with the printed tau; a bounded
    spread max/min evidences a uniform C.  Members with N3 = 0 but
    N1 > 0 contradict the estimate outright and are reported as
    falsification candidates, never dropped.
    """
    if not norms:
        raise InverseError("empty ensemble")
    tau = compute_tau(cut.t0, cut.t1, mu1, C_ref)
    tau_alt = compute_tau(cut.t0, cut.t2, mu1, C_ref)
    quotients, falsifications = [], []
    agg = np.zeros(3)
    for i, (N1, N2, N3) in enumerate(norms):
        agg += np.array([N1 * N1, N2 * N2, N3 * N3])
        if N3 == 0.0 and N1 > 0.0:
            falsifications.append({"member": i, "N1": N1, "N2": N2, "N3": N3})
            continue
        if N2 == 0.0 or N3 == 0.0:
            raise InverseError(f"member {i} is degenerate (zero norms); "
                               "the estimate needs nonzero N2 and N3")
        quotients.append(N1 / (N2 ** (1.0 - tau) * N3 ** tau))
    if not quotients:
        raise InverseError("no nondegenerate ensemble members")
    agg = np.sqrt(agg / len(norms))
    kappa = math.exp(3.0 * mu1 * cut.t0) - math.exp(3.0 * mu1 * cut.t2)
    opt = optimize_mu(float(agg[1]) ** 2, float(agg[2]) ** 2, kappa, C_ref, cut.T)
    pos = [q for q in quotients if q > 0]
    spread = (max(pos) / min(pos)) if pos else float("inf")
    return StabilityReport(
        N1=float(agg[0]), N2=float(agg[1]), N3=float(agg[2]),
        tau=tau, tau_alt=tau_alt, C_fit=max(quotients),
        quotients=quotients, mu_star=opt.mu_star, mu1=mu1, kappa=kappa,
        spread=spread, falsifications=falsifications)


def backward_uniqueness_probe(sol: Solution, cut: CutoffSpec, mu1: float,
                              eps_list: Sequence[float],
                              C_ref: float = 10.0) -> dict:
    """Flag a non-adapted family by its interior-from-terminal rate.

    The solved ensemble is scaled to terminal H1 size eps and future
    increments (B(T) - B(t)) / 2 times sin(pi x) are added.  The added
    field vanishes at T, so the terminal data stay those of an adapted
    solution, but it pins the interior norm at t0: log N1(eps) against
    log eps then has a slope near 0, below tau_fit - 0.1, and the family
    is flagged as non-adapted.
    """
    eps = np.asarray(eps_list, dtype=float)
    if not (np.all(np.isfinite(eps) & (eps > 0.0)) and len(np.unique(eps)) >= 2):
        raise InverseError(
            f"probe needs at least two distinct positive epsilons, got {list(eps_list)}")
    grid = sol.grid
    tau_fit = compute_tau(cut.t0, cut.t1, mu1, C_ref)
    _, _, N3 = solution_norms(sol, cut.t0)
    if N3 == 0.0:
        raise InverseError("probe needs a nonzero terminal norm")
    m0 = int(round(cut.t0 / grid.dt))
    B = sol.paths.cumulative()
    future = (B[:, -1] - B[:, m0]) * 0.5
    bump = np.sin(np.pi * grid.x)
    w0, lift = sol.w[:, m0, :], future[:, None] * bump[None, :]
    interior = [math.sqrt(float(np.mean(l2_norm(e / N3 * w0 + lift, grid.dx) ** 2)))
                for e in eps]
    slope = float(np.polyfit(np.log(eps), np.log(np.asarray(interior)), 1)[0])
    return {
        "epsilons": eps.tolist(),
        "interior_norms": interior,
        "slope": slope,
        "tau_fit": tau_fit,
        "flagged_non_adapted": bool(slope < tau_fit - 0.1),
    }
