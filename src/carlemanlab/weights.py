"""Carleman weight bundles and their parameter guards.

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
floats or broadcasting numpy arrays, for the Monte-Carlo heat check.
The large-parameter behaviour of the heat energies on this weight is not
evaluated here: the lam^3 coefficient of the zero-order energy B is the
exact catalog identity heat_leading_order of identity.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunError


class WeightError(RunError):
    """Raised for invalid weight parameters."""


@dataclass(frozen=True)
class PsiProfile:
    """The 1-d spatial profile psi(x) = x(1-x) and its maximum."""

    G0: tuple[float, float]

    def value(self, x: float) -> float:
        return x * (1.0 - x)

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


def heat_alpha(w: HeatWeight, x, t):
    """gamma = 1/(t(T-t)), e^{mu psi} and alpha = (e^{mu psi} - e^{2 mu
    max psi}) gamma, for floats or broadcasting numpy arrays x and t."""
    gamma = 1.0 / (t * (w.T - t))
    emp = np.exp(w.mu * w.psi.value(x))
    alpha = (emp - math.exp(2.0 * w.mu * w.psi.max_value)) * gamma
    return gamma, emp, alpha


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
