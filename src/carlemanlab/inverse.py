"""Interior-state determination from terminal data.

For solutions of the stochastic Ginzburg-Landau equation, the interior
state at t0 obeys a conditional Hoelder estimate

    N1 <= C N2^{1-tau} N3^tau,
    N1 = |w(t0)|_{L2},  N2 = |w|_{L2(0,T;L2)},  N3 = |w(T)|_{H1},

with tau in (0,1) built from the time-global weight.  This module
computes the three norms of a marched ensemble member from its per-path
sums (simulate.PathSums), the exponent tau in its two printed variants,
the mu that balances the two exponential terms of the underlying bound,
and a backward-uniqueness probe that must flag a non-adapted family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import RunError
from .simulate import PathSums, l2_norm


class InverseError(RunError):
    """Raised for invalid cutoff times or degenerate optimization data."""


# the mu bracket (1, MU_MAX] of optimize_mu and brute_force_mu
MU_LO, MU_MAX = 1.0 + 1e-9, 10.0


@dataclass(frozen=True)
class CutoffSpec:
    """Cutoff times 0 < t1 < t2 < t0 < T."""

    t1: float
    t2: float
    t0: float
    T: float

    def __post_init__(self):
        if not (0.0 < self.t1 < self.t2 < self.t0 < self.T):
            raise InverseError(
                f"cutoff times must satisfy 0 < t1 < t2 < t0 < T, got "
                f"({self.t1}, {self.t2}, {self.t0}, {self.T})")


def _kappa(t0: float, t: float, mu1: float) -> float:
    return math.exp(3.0 * mu1 * t0) - math.exp(3.0 * mu1 * t)


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
    kappa = _kappa(t0, t1, mu1)
    tau = 2.0 * kappa / (C + 2.0 * kappa)
    if tau >= 1.0:
        raise InverseError(
            f"tau rounds to 1 in double precision for (mu1, t0, t1, C) = "
            f"({mu1:g}, {t0:g}, {t1:g}, {C:g}); reduce mu1 or t0, or raise C")
    return tau


def _log_objective(D1: float, D2: float, kappa: float, C: float, T: float):
    """log F as a function of mu, a float or an array of them, where
    F(mu) = C e^{-2 mu kappa} D1 + C e^{2 mu e^{C mu T}} D2 is kept in
    logs: the second exponent alone overflows any float for moderate mu.
    The logs of C, D1 and D2 are taken once, here, not per mu."""
    log_c, log_d1 = np.log(C), np.log(D1)
    if D2 == 0.0:
        return lambda mu: log_c - 2.0 * mu * kappa + log_d1
    log_d2 = np.log(D2)

    def log_f(mu):
        a = log_c - 2.0 * mu * kappa + log_d1
        b = log_c + 2.0 * mu * np.exp(C * mu * T) + log_d2
        return np.logaddexp(a, b)

    return log_f


def _check_objective(D1: float, D2: float, kappa: float, C: float,
                     T: float) -> None:
    if D1 <= 0 or kappa <= 0 or C <= 0 or T <= 0 or D2 < 0:
        raise InverseError("the mu objective needs D1, kappa, C, T > 0 and D2 >= 0")
    # largest exponent is 2 MU_MAX e^{C MU_MAX T}; keep it in range
    if C * MU_MAX * T + math.log(2.0 * MU_MAX) > 709.0:
        raise InverseError(
            f"e^(2 mu e^(C mu T)) overflows double precision at mu = {MU_MAX:g} "
            f"for (C, T) = ({C:g}, {T:g}); reduce C or T")


def optimize_mu(D1: float, D2: float, kappa: float, C: float, T: float) -> float:
    """Minimize the two-exponential bound over mu in (1, MU_MAX].

    The log objective is convex (a decreasing linear term log-summed
    with a convex double exponential), so golden-section search is
    exact up to bracketing tolerance.  D2 = 0 degenerates to a monotone
    objective whose infimum sits at the bracket end, which is returned
    without a search.
    """
    _check_objective(D1, D2, kappa, C, T)
    if D2 == 0.0:
        return MU_MAX
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = MU_LO, MU_MAX
    log_f = _log_objective(D1, D2, kappa, C, T)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = log_f(c), log_f(d)
    while b - a > 1e-7:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = log_f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = log_f(d)
    return 0.5 * (a + b)


def brute_force_mu(D1: float, D2: float, kappa: float, C: float, T: float,
                   points: int = 10000) -> float:
    """Grid argmin oracle for optimize_mu."""
    _check_objective(D1, D2, kappa, C, T)
    grid = np.linspace(MU_LO, MU_MAX, points)
    return float(grid[np.argmin(_log_objective(D1, D2, kappa, C, T)(grid))])


def solution_norms(sol: PathSums, t0: float) -> tuple[float, float, float]:
    """(N1, N2, N3): interior L2 at t0, space-time L2, terminal H1 —
    each mean-square over the path ensemble, read off the per-path sums
    sol.w2 and sol.wx2."""
    grid, dx = sol.grid, sol.grid.dx
    m0 = grid.node(t0, "t0")
    w2 = sol.w2
    N1 = math.sqrt(float(np.mean(w2[:, m0])) * dx)
    N2 = math.sqrt(float(np.mean(w2 @ grid.trapezoid())) * dx)
    N3 = math.sqrt(float(np.mean(w2[:, -1] + sol.wx2[:, -1])) * dx)
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
    N1 > 0 contradict the estimate outright: falsifications lists their
    indices in norms, and they are never dropped.
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
            falsifications.append(i)
            continue
        if N2 == 0.0 or N3 == 0.0:
            raise InverseError(f"member {i} is degenerate (zero norms); "
                               "the estimate needs nonzero N2 and N3")
        quotients.append(N1 / (N2 ** (1.0 - tau) * N3 ** tau))
    if not quotients:
        raise InverseError("no nondegenerate ensemble members")
    agg = np.sqrt(agg / len(norms))
    mu_star = optimize_mu(float(agg[1]) ** 2, float(agg[2]) ** 2,
                          _kappa(cut.t0, cut.t2, mu1), C_ref, cut.T)
    pos = [q for q in quotients if q > 0]
    spread = (max(pos) / min(pos)) if pos else float("inf")
    return StabilityReport(
        N1=float(agg[0]), N2=float(agg[1]), N3=float(agg[2]),
        tau=tau, tau_alt=tau_alt, C_fit=max(quotients),
        quotients=quotients, mu_star=mu_star,
        spread=spread, falsifications=falsifications)


def backward_uniqueness_probe(sol: PathSums, N3: float, t0: float, tau: float,
                              eps_list: Sequence[float]) -> dict:
    """Flag a non-adapted family by its interior-from-terminal rate.

    N3 is the terminal H1 norm of sol, as solution_norms gives it, and
    tau the printed Hoelder exponent, as stability_experiment reports
    it; of the march, the probe reads only the state at t0, which sol
    must have kept.  The solved ensemble is scaled to terminal H1 size
    eps and future increments (B(T) - B(t)) / 2 times sin(pi x) are
    added.  The added field vanishes at T, so the terminal data stay
    those of an adapted solution, but it pins the interior norm at t0:
    log N1(eps) against log eps then has a slope near 0, below
    tau - 0.1, and the family is flagged as non-adapted.
    """
    eps = np.asarray(eps_list, dtype=float)
    # epsilons whose logs agree to rounding fit no slope: the fit's rank,
    # which depends on log eps alone, says whether two distinct logs remain
    if not (np.all(np.isfinite(eps) & (eps > 0.0)) and eps.size
            and np.polyfit(np.log(eps), np.zeros(eps.size), 1, full=True)[2] == 2):
        raise InverseError(
            f"probe needs positive epsilons with two distinct logs, got {list(eps_list)}")
    grid = sol.grid
    m0 = grid.node(t0, "t0")
    if N3 == 0.0:
        raise InverseError("probe needs a nonzero terminal norm")
    B = sol.paths.cumulative()
    future = (B[:, -1] - B[:, m0]) * 0.5
    bump = np.sin(np.pi * grid.x)
    w0, lift = sol.state(m0), future[:, None] * bump[None, :]
    interior = [math.sqrt(float(np.mean(l2_norm(e / N3 * w0 + lift, grid.dx) ** 2)))
                for e in eps]
    slope = float(np.polyfit(np.log(eps), np.log(np.asarray(interior)), 1)[0])
    return {"slope": slope, "flagged_non_adapted": bool(slope < tau - 0.1)}
