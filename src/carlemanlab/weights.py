"""Carleman weight bundles and their pointwise evaluation.

Two weight families are used by the numeric checks.  The parabolic
bundle on the unit interval combines a spatial profile psi with a time
singularity gamma:

    gamma(t) = 1 / (t (T - t))^k
    phi      = e^{mu psi} gamma
    alpha    = (e^{mu psi} - e^{2 mu max psi}) gamma      (alpha <= 0)
    theta    = e^{lam alpha}                              (theta <= 1)

and the weight exponent is ell = lam * alpha.  The time-global bundle
for the complex-coefficient second-order operator is

    phi(t) = e^{3 mu t},  ell = mu phi,  theta = e^{mu phi}.

Everything here is plain float evaluation with closed-form derivatives;
the symbolic modules provide the cross-check that the derivative
formulas match the canonical quantities (for example A = ell_x^2 -
ell_xx in one dimension).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


class WeightError(ValueError):
    """Raised for invalid weight parameters or evaluation points."""


@dataclass(frozen=True)
class PsiProfile:
    """The 1-d spatial profile psi(x) = x(1-x) and its derivatives."""

    G0: tuple[float, float]
    G1: tuple[float, float]

    def value(self, x: float) -> float:
        return x * (1.0 - x)

    def d1(self, x: float) -> float:
        return 1.0 - 2.0 * x

    def d2(self, x: float) -> float:
        return -2.0

    def d3(self, x: float) -> float:
        return 0.0

    @property
    def max_value(self) -> float:
        return 0.25


def psi_1d(G0: tuple[float, float]) -> PsiProfile:
    """Spatial profile for the parabolic weight on G = (0, 1).

    The critical point of psi sits at 1/2, so the gradient condition
    |psi'| > 0 off the observation region forces G0 to contain 1/2.  G1
    is chosen as a strict interior neighborhood of the critical point.
    """
    lo, hi = float(G0[0]), float(G0[1])
    if not (0.0 <= lo < hi <= 1.0):
        raise WeightError(f"G0 = {G0} is not a subinterval of (0, 1)")
    if not (lo < 0.5 < hi):
        raise WeightError(
            f"G0 = {G0} must contain the critical point 1/2 of psi(x) = x(1-x)"
        )
    margin = 0.25 * min(0.5 - lo, hi - 0.5)
    return PsiProfile(G0=(lo, hi), G1=(0.5 - margin, 0.5 + margin))


@dataclass(frozen=True)
class HeatWeight:
    """Parabolic Carleman weight bundle on the unit interval."""

    psi: PsiProfile
    mu: float
    lam: float
    k: int = 1
    T: float = 1.0

    def __post_init__(self):
        if self.mu <= 0 or self.lam <= 0:
            raise WeightError("mu and lambda must be positive")
        if self.k < 1:
            raise WeightError("k must be a positive integer")
        if self.T <= 0:
            raise WeightError("T must be positive")


@dataclass(frozen=True)
class WeightValues:
    """All pointwise weight quantities at one (x, t)."""

    gamma: float
    phi: float
    alpha: float
    theta: float
    ell: float
    ell_x: float
    ell_xx: float
    ell_xxx: float
    ell_t: float
    ell_tt: float
    ell_xt: float
    ell_xxt: float
    A: float
    A_x: float
    A_t: float


def heat_weight_eval(w: HeatWeight, x: float, t: float) -> WeightValues:
    """Evaluate the parabolic bundle and the derivatives of ell = lam alpha.

    A is the canonical energy density ell_x^2 - ell_xx (one dimension,
    unit metric); A_x and A_t are its exact derivatives, needed by the
    leading-order check on the zero-order energy B.
    """
    if not (0.0 < t < w.T):
        raise WeightError(f"t = {t} outside (0, {w.T}); clamp before evaluating")
    mu, lam, k, T = w.mu, w.lam, w.k, w.T
    p = w.psi.value(x)
    p1 = w.psi.d1(x)
    p2 = w.psi.d2(x)
    p3 = w.psi.d3(x)
    u = t * (T - t)
    u1 = T - 2.0 * t
    gamma = u ** (-k)
    gamma1 = -k * u ** (-k - 1) * u1
    gamma2 = k * (k + 1) * u ** (-k - 2) * u1 * u1 + 2.0 * k * u ** (-k - 1)
    emp = math.exp(mu * p)
    estar = math.exp(2.0 * mu * w.psi.max_value)
    phi = emp * gamma
    alpha = (emp - estar) * gamma
    theta = math.exp(lam * alpha)
    # Spatial derivatives of alpha ride on e^{mu psi}; time derivatives on gamma.
    ax = mu * p1 * emp * gamma
    axx = mu * (p2 + mu * p1 * p1) * emp * gamma
    axxx = mu * (p3 + 3.0 * mu * p1 * p2 + mu * mu * p1 ** 3) * emp * gamma
    at = (emp - estar) * gamma1
    att = (emp - estar) * gamma2
    axt = mu * p1 * emp * gamma1
    axxt = mu * (p2 + mu * p1 * p1) * emp * gamma1
    ell_x = lam * ax
    ell_xx = lam * axx
    ell_xxx = lam * axxx
    ell_t = lam * at
    ell_tt = lam * att
    ell_xt = lam * axt
    ell_xxt = lam * axxt
    A = ell_x * ell_x - ell_xx
    A_x = 2.0 * ell_x * ell_xx - ell_xxx
    A_t = 2.0 * ell_x * ell_xt - ell_xxt
    return WeightValues(
        gamma=gamma,
        phi=phi,
        alpha=alpha,
        theta=theta,
        ell=lam * alpha,
        ell_x=ell_x,
        ell_xx=ell_xx,
        ell_xxx=ell_xxx,
        ell_t=ell_t,
        ell_tt=ell_tt,
        ell_xt=ell_xt,
        ell_xxt=ell_xxt,
        A=A,
        A_x=A_x,
        A_t=A_t,
    )


def zero_order_energy(v: WeightValues) -> float:
    """The zero-order energy density B with the auxiliary field fixed to
    twice the weight Laplacian.

    In one dimension the chain collapses to

        B = 2 A_x ell_x - 2 A ell_xx - A_t + ell_tt - 8 ell_xx^2 + 4 ell_xx ell_t.
    """
    return (
        2.0 * v.A_x * v.ell_x
        - 2.0 * v.A * v.ell_xx
        - v.A_t
        + v.ell_tt
        - 8.0 * v.ell_xx * v.ell_xx
        + 4.0 * v.ell_xx * v.ell_t
    )


def leading_order_B_check(
    w: HeatWeight,
    points: Sequence[tuple[float, float]],
    lam_sweep: Sequence[float],
) -> dict:
    """Compare B against its large-parameter leading behavior.

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
    the critical region (|psi'| bounded below) and the time endpoints.
    """
    if not points:
        raise WeightError("no evaluation points supplied")
    for x, t in points:
        if abs(w.psi.d1(x)) < 1e-9:
            raise WeightError(f"x = {x} has a vanishing psi gradient; excluded")
        if not (0.2 * w.T <= t <= 0.8 * w.T):
            raise WeightError(f"t = {t} outside the interior window [0.2T, 0.8T]")
    grad_ratios: dict[float, list[float]] = {}
    cubic_ratios: dict[float, list[float]] = {}
    for lam in lam_sweep:
        wl = HeatWeight(psi=w.psi, mu=w.mu, lam=float(lam), k=w.k, T=w.T)
        grad_row, cubic_row = [], []
        for x, t in points:
            v = heat_weight_eval(wl, x, t)
            B = zero_order_energy(v)
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
        # largest exponent used anywhere is 2 mu phi(T); keep it in range
        if 2.0 * self.mu * math.exp(3.0 * self.mu * self.T) > 709.0:
            raise WeightError(
                f"theta^2 overflows double precision at t = T for "
                f"(mu, T) = ({self.mu:g}, {self.T:g}); reduce mu or T")

    def phi(self, t: float) -> float:
        return math.exp(3.0 * self.mu * t)

    def ell(self, t: float) -> float:
        return self.mu * self.phi(t)

    def log_theta(self, t: float) -> float:
        # theta = e^{mu phi}; the exponent alone stays in float range.
        return self.mu * self.phi(t)

    def theta(self, t: float) -> float:
        return math.exp(self.log_theta(t))
