"""Carleman weight bundles and their pointwise evaluation.

Two weight families are used by the numeric checks.  The parabolic
bundle on the unit interval combines a spatial profile psi with a time
singularity gamma:

    gamma(t) = 1 / (t (T - t))
    phi      = e^{mu psi} gamma
    alpha    = (e^{mu psi} - e^{2 mu max psi}) gamma      (alpha <= 0)
    theta    = e^{lam alpha}                              (theta <= 1)

and the weight exponent is ell = lam * alpha.  The time-global bundle
for the complex-coefficient second-order operator is

    phi(t) = e^{3 mu t},  ell = mu phi,  theta = e^{mu phi}.

heat_alpha is the one place gamma and alpha are written; it takes
floats or broadcasting numpy arrays, so the pointwise derivatives below
and the Monte-Carlo heat check share it.  The derivatives of ell are
closed form; the energies on them (A = ell_x^2 - ell_xx in one dimension,
A_x, A_t and B) are read from the verified identity, not written here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from typing import Sequence

import numpy as np

from .canonical import CanonicalForm, canonicalize
from .config import RunError
from .exprs import d_t, d_x
from .identity import heat_workspace


class WeightError(RunError):
    """Raised for invalid weight parameters or evaluation points."""


@dataclass(frozen=True)
class PsiProfile:
    """The 1-d spatial profile psi(x) = x(1-x) and its derivatives."""

    G0: tuple[float, float]

    def value(self, x: float) -> float:
        return x * (1.0 - x)

    def d1(self, x: float) -> float:
        return 1.0 - 2.0 * x

    def d2(self, x: float) -> float:
        return -2.0

    @property
    def max_value(self) -> float:
        return 0.25


def psi_1d(G0: tuple[float, float]) -> PsiProfile:
    """Spatial profile for the parabolic weight on G = (0, 1).

    The critical point of psi sits at 1/2, so the gradient condition
    |psi'| > 0 off the observation region forces G0 to contain 1/2.
    """
    lo, hi = float(G0[0]), float(G0[1])
    if not (0.0 <= lo < hi <= 1.0):
        raise WeightError(f"G0 = {G0} is not a subinterval of (0, 1)")
    if not (lo < 0.5 < hi):
        raise WeightError(
            f"G0 = {G0} must contain the critical point 1/2 of psi(x) = x(1-x)"
        )
    return PsiProfile(G0=(lo, hi))


@dataclass(frozen=True)
class HeatWeight:
    """Parabolic Carleman weight bundle on the unit interval."""

    psi: PsiProfile
    mu: float
    lam: float
    T: float = 1.0

    def __post_init__(self):
        if self.mu <= 0 or self.lam <= 0:
            raise WeightError("mu and lambda must be positive")
        if self.T <= 0:
            raise WeightError("T must be positive")
        # alpha needs e^{2 mu max psi}; keep it in range
        if 2.0 * self.mu * self.psi.max_value > 709.0:
            raise WeightError(
                f"e^(2 mu max psi) overflows double precision for "
                f"mu = {self.mu:g}; reduce mu")


@dataclass(frozen=True)
class WeightValues:
    """All pointwise weight quantities at one (x, t); the derivatives of
    ell carry the identity's atom names, so vars() of a value is a jet."""

    gamma: float
    phi: float
    alpha: float
    theta: float
    ell: float
    ell_x1: float
    ell_x1x1: float
    ell_x1x1x1: float
    ell_t: float
    ell_tt: float
    ell_x1t: float
    ell_x1x1t: float


def heat_alpha(w: HeatWeight, x, t):
    """gamma = 1/(t(T-t)), e^{mu psi} and alpha = (e^{mu psi} - e^{2 mu
    max psi}) gamma, for floats or broadcasting numpy arrays x and t."""
    gamma = 1.0 / (t * (w.T - t))
    emp = np.exp(w.mu * w.psi.value(x))
    alpha = (emp - math.exp(2.0 * w.mu * w.psi.max_value)) * gamma
    return gamma, emp, alpha


def heat_weight_eval(w: HeatWeight, x: float, t: float) -> WeightValues:
    """Evaluate the parabolic bundle and the derivatives of ell = lam alpha."""
    if not (0.0 < t < w.T):
        raise WeightError(f"t = {t} outside (0, {w.T}); clamp before evaluating")
    mu, lam = w.mu, w.lam
    p1 = w.psi.d1(x)
    p2 = w.psi.d2(x)
    gamma, emp, alpha = heat_alpha(w, x, t)
    phi = emp * gamma
    theta = math.exp(lam * alpha)
    # alpha is e^{mu psi} - e^{2 mu max psi} times gamma: spatial derivatives
    # ride on e^{mu psi}, and a time derivative multiplies by gamma'/gamma
    # = -gamma (T - 2t) or gamma''/gamma = 2 gamma (1 + gamma (T - 2t)^2).
    u1 = w.T - 2.0 * t
    r1 = -gamma * u1
    r2 = 2.0 * gamma * (1.0 + gamma * u1 * u1)
    ax = mu * p1 * phi
    axx = mu * (p2 + mu * p1 * p1) * phi
    axxx = mu * mu * p1 * (3.0 * p2 + mu * p1 * p1) * phi
    at = alpha * r1
    att = alpha * r2
    axt = ax * r1
    axxt = axx * r1
    return WeightValues(
        gamma=gamma,
        phi=phi,
        alpha=alpha,
        theta=theta,
        ell=lam * alpha,
        ell_x1=lam * ax,
        ell_x1x1=lam * axx,
        ell_x1x1x1=lam * axxx,
        ell_t=lam * at,
        ell_tt=lam * att,
        ell_x1t=lam * axt,
        ell_x1x1t=lam * axxt,
    )


@cache
def heat_energies() -> dict[str, CanonicalForm]:
    """A, A_x, A_t and the zero-order energy B of the identity's heat
    specialization in one dimension, as canonical forms in the jet of ell."""
    ws = heat_workspace(1)
    return {name: canonicalize(e, ws.ctx) for name, e in
            (("A", ws.A), ("A_x", d_x(ws.A, 1)), ("A_t", d_t(ws.A)), ("B", ws.B_coef()))}


def leading_order_B_check(
    w: HeatWeight,
    points: Sequence[tuple[float, float]],
    lam_sweep: Sequence[float],
) -> dict:
    """Compare heat_energies' B against its large-parameter leading behavior.

    Two normalizations are reported.  The full cubic coefficient of B in
    the large parameter is

        2 lam^3 mu^3 phi^3 psi'^2 (mu psi'^2 + psi''),

    so ratio_cubic = B / that tends to 1 with an O(1/lam) deviation.
    ratio_gradient keeps only the gradient-quartic part of the
    denominator, 2 lam^3 mu^4 phi^3 psi'^4; it levels off at
    1 + psi''/(mu psi'^2) and only approaches 1 once mu psi'^2 dominates
    |psi''|.  deviation_cubic measures distance from 1; deviation_gradient
    measures distance from the per-point level-off limit, which the ratio
    approaches monotonically as the lam^2 terms decay.  Points must avoid
    the critical region (|psi'| bounded below) and the time endpoints;
    the sweep needs two distinct values of lam to fit a slope.
    """
    if not points:
        raise WeightError("no evaluation points supplied")
    if len(set(map(float, lam_sweep))) < 2:
        raise WeightError(f"lambda sweep {tuple(lam_sweep)} needs two distinct values")
    for x, t in points:
        if abs(w.psi.d1(x)) < 1e-9:
            raise WeightError(f"x = {x} has a vanishing psi gradient; excluded")
        if not (0.2 * w.T <= t <= 0.8 * w.T):
            raise WeightError(f"t = {t} outside the interior window [0.2T, 0.8T]")
    grad_ratios: dict[float, list[float]] = {}
    cubic_ratios: dict[float, list[float]] = {}
    for lam in lam_sweep:
        wl = replace(w, lam=float(lam))
        grad_row, cubic_row = [], []
        for x, t in points:
            v = heat_weight_eval(wl, x, t)
            B = heat_energies()["B"].evaluate(vars(v))
            p1, p2 = w.psi.d1(x), w.psi.d2(x)
            base = 2.0 * wl.lam ** 3 * wl.mu ** 3 * v.phi ** 3 * p1 * p1
            grad_row.append(B / (base * wl.mu * p1 * p1))
            cubic_row.append(B / (base * (wl.mu * p1 * p1 + p2)))
        grad_ratios[float(lam)] = grad_row
        cubic_ratios[float(lam)] = cubic_row
    lams = sorted(grad_ratios)
    grad_limits = [
        1.0 + w.psi.d2(x) / (w.mu * w.psi.d1(x) ** 2) for x, _ in points
    ]

    def summarize(ratios, targets):
        dev = [
            max(abs(r - c) for r, c in zip(ratios[lam], targets)) for lam in lams
        ]
        monotone = all(dev[i + 1] <= dev[i] + 1e-12 for i in range(len(dev) - 1))
        return dev, monotone

    grad_dev, grad_mono = summarize(grad_ratios, grad_limits)
    cubic_dev, cubic_mono = summarize(cubic_ratios, [1.0] * len(points))
    # Deviation of the cubic ratio behaves like c/lam; fit c from the sweep ends.
    slope = (cubic_dev[0] - cubic_dev[-1]) / (1.0 / lams[0] - 1.0 / lams[-1])
    return {
        "lambdas": lams,
        "ratio_cubic": {lam: cubic_ratios[lam] for lam in lams},
        "ratio_gradient": {lam: grad_ratios[lam] for lam in lams},
        "deviation_cubic": dict(zip(lams, cubic_dev)),
        "deviation_gradient": dict(zip(lams, grad_dev)),
        "monotone_cubic": cubic_mono,
        "monotone_gradient": grad_mono,
        "cubic_slope_vs_inv_lambda": slope,
        "gradient_limit": grad_limits,
    }


@dataclass(frozen=True)
class GLWeight:
    """Time-global weight bundle: phi = e^{3 mu t}, ell = mu phi."""

    mu: float
    T: float

    def __post_init__(self):
        if self.mu < 2:
            raise WeightError("mu must be at least 2")
        if self.T <= 0:
            raise WeightError("T must be positive")
        # largest exponent used anywhere is 2 mu phi(T); keep it in range,
        # testing its logarithm so that the test itself cannot overflow
        if math.log(2.0 * self.mu) + 3.0 * self.mu * self.T > math.log(709.0):
            raise WeightError(
                f"theta^2 overflows double precision at t = T for "
                f"(mu, T) = ({self.mu:g}, {self.T:g}); reduce mu or T")
