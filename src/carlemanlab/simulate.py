"""Desk-scale numerics for the weighted inequalities.

Pieces: seeded Brownian ensembles, a semi-implicit solver for the 1-d
stochastic complex Ginzburg-Landau equation

    dw - (1+ib) w_xx dt = (a1 w_x + a2 w + f) dt + (a3 w + g) dB,

manufactured solution pairs for the backward heat operator
dy + y_xx dt = f dt + Y dB, Monte-Carlo evaluation of both sides of the
two Carleman inequalities, and two classic first-order demos.

Conventions: the spatial domain is (0, 1) with homogeneous Dirichlet
data; fields live on the Nx interior nodes; the diffusion term is
implicit (one tridiagonal factorization per solve, one pair of
triangular solves per step), everything else explicit at the left time
point.  All randomness flows through numpy's seeded default generator,
so a (seed, config) pair fixes every array bit-for-bit.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .config import RunError
from .weights import GLWeight, HeatWeight, heat_alpha


def _load_flapack(scipy_spec):
    """scipy's f2py LAPACK extension, loaded from scipy_spec's directory
    without importing scipy or scipy.linalg.

    The solver needs only zgttrf and zgttrs, the same wrappers that
    scipy.linalg.get_lapack_funcs returns, and the package import of
    scipy.linalg would cost about 0.3 s of every start.  The module is
    not left in sys.modules.
    """
    roots = scipy_spec.submodule_search_locations if scipy_spec else None
    dirs = [os.path.join(root, "linalg") for root in roots or ()]
    for d in dirs:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(d, "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader("_flapack", path)
                module = loader.create_module(
                    importlib.util.spec_from_loader("_flapack", loader))
                loader.exec_module(module)
                # creating a single-phase extension module registers it
                if sys.modules.get("_flapack") is module:
                    del sys.modules["_flapack"]
                return module
    where = f"in {', '.join(dirs)}" if dirs else "(scipy is not installed)"
    raise ImportError(f"scipy.linalg._flapack not found {where}",
                      name="scipy.linalg._flapack")


_flapack = _load_flapack(importlib.util.find_spec("scipy"))


class SimError(RunError):
    """Raised for invalid grids, ensembles, or violated preconditions."""


Coefficient = Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]]
# anything np.random.default_rng accepts: an integer or a spawned child
Seed = Union[int, np.random.SeedSequence]


@dataclass(frozen=True)
class Grid1D:
    """Interior nodes of (0,1) crossed with uniform steps on [0,T]."""

    Nx: int
    Nt: int
    T: float

    def __post_init__(self):
        if self.Nx < 2 or self.Nt < 1 or self.T <= 0:
            raise SimError("grid needs Nx >= 2, Nt >= 1, T > 0")

    @property
    def dx(self) -> float:
        return 1.0 / (self.Nx + 1)

    @property
    def dt(self) -> float:
        return self.T / self.Nt

    @property
    def x(self) -> np.ndarray:
        return self.dx * np.arange(1, self.Nx + 1)

    @property
    def t(self) -> np.ndarray:
        return self.dt * np.arange(self.Nt + 1)

    def node(self, t: float, name: str) -> int:
        """The index m of the time node m dt at t; SimError off the lattice."""
        m = int(round(t / self.dt))
        if abs(m * self.dt - t) > 1e-9 * self.T or not (0 <= m <= self.Nt):
            raise SimError(f"{name} = {t} must sit on a time node")
        return m

    def trapezoid(self, m: int = 0) -> np.ndarray:
        """Trapezoid weights in time on the nodes m..Nt."""
        tw = np.full(self.Nt + 1 - m, self.dt)
        tw[0] *= 0.5
        tw[-1] *= 0.5
        return tw


@dataclass(frozen=True)
class PathEnsemble:
    """M independent Brownian paths sampled as Normal(0, dt) increments."""

    M: int
    Nt: int
    dt: float
    increments: np.ndarray  # (M, Nt)

    def cumulative(self) -> np.ndarray:
        """Path values B(t_m) at the Nt+1 node times, B(0) = 0."""
        out = np.zeros((self.M, self.Nt + 1))
        np.cumsum(self.increments, axis=1, out=out[:, 1:])
        return out


def brownian(M: int, Nt: int, seed: Seed, *, dt: float) -> PathEnsemble:
    if M < 1 or Nt < 1:
        raise SimError("need at least one path and one step")
    if dt <= 0:
        raise SimError("dt must be positive")
    rng = np.random.default_rng(seed)
    inc = math.sqrt(dt) * rng.standard_normal((M, Nt))
    return PathEnsemble(M=M, Nt=Nt, dt=dt, increments=inc)


def _check_paths(grid: Grid1D, paths: PathEnsemble) -> None:
    """Refuse an ensemble sampled on another time grid than grid."""
    if paths.Nt != grid.Nt or abs(paths.dt - grid.dt) > 1e-15 * grid.dt:
        raise SimError("path ensemble and grid disagree on time stepping")


def grad_dirichlet(u: np.ndarray, dx: float) -> np.ndarray:
    """Central difference on interior nodes of a field vanishing at 0 and 1."""
    padded = np.zeros(u.shape[:-1] + (u.shape[-1] + 2,), dtype=u.dtype)
    padded[..., 1:-1] = u
    return (padded[..., 2:] - padded[..., :-2]) / (2.0 * dx)


def grad_free(u: np.ndarray, dx: float) -> np.ndarray:
    """Central difference with one-sided stencils at the two edge nodes."""
    out = np.empty_like(u)
    out[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * dx)
    out[..., 0] = (u[..., 1] - u[..., 0]) / dx
    out[..., -1] = (u[..., -1] - u[..., -2]) / dx
    return out


def sample_field(fn: Coefficient, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """fn on every time node of t: a (len(t), len(x)) complex array, zero
    for an absent field.

    fn is called once, as fn(x, t[:, None]), with the 1-d nodes x and the
    times as a column; it returns an array that broadcasts to
    (len(t), len(x)), so a field constant in time may return shape
    (len(x),)."""
    out = np.zeros((len(t), len(x)), dtype=complex)
    if fn is not None:
        out[...] = fn(x, t[:, None])
    return out


@dataclass
class SPDEProblem:
    """Coefficients and data for the forward Ginzburg-Landau solve.

    Each Coefficient is None (absent) or a function fn(x, t) of the 1-d
    nodes x and a column t of times, returning an array that broadcasts
    to (len(t), len(x)); see sample_field.  w0(x) gives the initial state.
    """

    b: float = 0.0
    a1: Coefficient = None
    a2: Coefficient = None
    a3: Coefficient = None
    f: Coefficient = None
    g: Coefficient = None
    w0: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def initial(self, x: np.ndarray) -> np.ndarray:
        if self.w0 is None:
            return np.zeros(len(x), dtype=complex)
        return np.asarray(self.w0(x), dtype=complex)


@dataclass
class Solution:
    """Forward-solved ensemble: w[i, m, j] = path i, time node m, x node j."""

    grid: Grid1D
    paths: PathEnsemble
    problem: SPDEProblem
    w: np.ndarray  # (M, Nt+1, Nx) complex


def solve_gl_forward(p: SPDEProblem, grid: Grid1D, paths: PathEnsemble) -> Solution:
    """Semi-implicit Euler step: implicit diffusion, explicit rest.

        (Id - dt (1+ib) D) w^{m+1}
            = w^m + dt (a1 w_x^m + a2 w^m + f^m) + (a3 w^m + g^m) dB_m

    with D the Dirichlet second-difference matrix.  The matrix does not
    depend on time, so it is LU-factored once (LAPACK gttrf); each step
    is one gttrs solve for every path at once.  A state that leaves
    double precision raises SimError.

    The step allocates nothing.  dt a1, dt a2 and dt f are sampled once
    ((dt a)[m] is dt a[m] bit for bit), and the increments are read from
    one transposed copy.  Four (M, .) buffers live for the whole solve:
    rhs, the transpose of a Fortran-ordered (Nx, M) array that gttrs
    solves in place; prod, for one product at a time; grad, for w_x; and
    pad, w^m between two zero edges, on which grad runs grad_dirichlet's
    own stencil.  An absent field's term is skipped, not added as zero.
    """
    _check_paths(grid, paths)
    Nx, Nt, M = grid.Nx, grid.Nt, paths.M
    x, dx, dt = grid.x, grid.dx, grid.dt
    rho = dt * (1.0 + 1j * p.b) / (dx * dx)
    # Re rho > 0 makes the matrix strictly diagonally dominant, so the
    # factorization never meets a zero pivot
    off = np.full(Nx - 1, -rho)
    gttrf, gttrs = _flapack.zgttrf, _flapack.zgttrs
    *lu, _ = gttrf(off, np.full(Nx, 1.0 + 2.0 * rho), off)
    a1, a2, a3, f, g = (None if fn is None else sample_field(fn, x, grid.t[:-1])
                        for fn in (p.a1, p.a2, p.a3, p.f, p.g))
    dta1, dta2, dtf = (None if a is None else dt * a for a in (a1, a2, f))
    dB = paths.increments.T.copy()
    w = np.empty((M, Nt + 1, Nx), dtype=complex)
    w[:, 0, :] = p.initial(x)[None, :]
    rhs = np.empty((Nx, M), dtype=complex, order="F").T
    prod = np.empty((M, Nx), dtype=complex)
    if a1 is not None:
        grad = np.empty((M, Nx), dtype=complex)
        pad = np.zeros((M, Nx + 2), dtype=complex)
    # a blown-up state is refused once, at the end, not warned about per step
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(Nt):
            wm = w[:, m, :]
            rhs[...] = wm
            if a1 is not None:
                pad[:, 1:-1] = wm
                np.subtract(pad[:, 2:], pad[:, :-2], out=grad)
                grad /= 2.0 * dx
                np.multiply(dta1[m], grad, out=prod)
                rhs += prod
            if a2 is not None:
                np.multiply(dta2[m], wm, out=prod)
                rhs += prod
            if f is not None:
                rhs += dtf[m]
            if a3 is not None:
                np.multiply(a3[m], wm, out=prod)
                if g is not None:
                    prod += g[m]
                prod *= dB[m][:, None]
                rhs += prod
            elif g is not None:
                np.multiply(g[m], dB[m][:, None], out=prod)
                rhs += prod
            w[:, m + 1, :] = gttrs(*lu, rhs.T, overwrite_b=True)[0].T
    if not np.all(np.isfinite(w)):
        raise SimError("forward solve left double precision; "
                       "reduce the coefficients or refine the time grid")
    return Solution(grid=grid, paths=paths, problem=p, w=w)


def l2_norm(u: np.ndarray, dx: float) -> np.ndarray:
    """L2(0,1) norm over the trailing axis."""
    return np.sqrt(np.sum(np.abs(u) ** 2, axis=-1) * dx)


# ---------------------------------------------------------------------------
# Manufactured pairs for the backward heat operator.


@dataclass
class ManufacturedPair:
    """Exact solution triple of dy + y_xx dt = f dt + Y dB.

    y = sum_k d_k(t)(1 + sigma_k B(t)) sin(k pi x) with smooth d_k, so

        f = sum_k (d_k' - (k pi)^2 d_k)(1 + sigma_k B(t)) sin(k pi x),
        Y = sum_k sigma_k d_k(t) sin(k pi x)

    solve the equation exactly; no discretization enters the triple.  A
    windowed pair is no such sum, so it carries no modal form (None).
    """

    grid: Grid1D
    paths: PathEnsemble
    K: int
    y: np.ndarray  # (M, Nt+1, Nx)
    Y: np.ndarray  # (Nt+1, Nx): the same on every path
    f: np.ndarray
    modal_d: Optional[np.ndarray] = None     # (Nt+1, K) deterministic amplitudes
    modal_ddot: Optional[np.ndarray] = None  # (Nt+1, K)
    sigma: Optional[np.ndarray] = None       # (K,)


def manufacture_heat_pair(grid: Grid1D, paths: PathEnsemble, K: int, seed: Seed) -> ManufacturedPair:
    if K > grid.Nx // 4:
        raise SimError(f"K = {K} exceeds the resolvable budget Nx/4 = {grid.Nx // 4}")
    _check_paths(grid, paths)
    rng = np.random.default_rng(seed)
    k = np.arange(1, K + 1)
    eta = rng.uniform(0.3, 1.0, size=K) / k
    # slow deterministic amplitudes with solid noise weights
    omega = rng.uniform(0.5, 1.0, size=K) * (2.0 * np.pi / grid.T)
    rho = rng.uniform(0.0, 2.0 * np.pi, size=K)
    sigma = rng.uniform(0.3, 0.8, size=K)
    t = grid.t[:, None]
    d = eta[None, :] * (1.0 + 0.5 * np.sin(omega[None, :] * t + rho[None, :]))
    ddot = eta[None, :] * 0.5 * omega[None, :] * np.cos(omega[None, :] * t + rho[None, :])
    B = paths.cumulative()          # (M, Nt+1)
    stoch = 1.0 + sigma[None, None, :] * B[:, :, None]   # (M, Nt+1, K)
    sines = np.sin(np.pi * np.outer(grid.x, k))          # (Nx, K)
    y = (d[None, :, :] * stoch) @ sines.T
    Y = (sigma * d) @ sines.T
    f_coef = (ddot - (k * np.pi) ** 2 * d)[None, :, :] * stoch
    f = f_coef @ sines.T
    return ManufacturedPair(grid=grid, paths=paths, K=K,
                            y=y, Y=Y, f=f, modal_d=d, modal_ddot=ddot, sigma=sigma)


def smoothstep(xi: np.ndarray):
    """Quintic ramp on [0,1] with S(0)=0, S(1)=1 and two flat derivatives
    at both ends; returns (S, S', S'') with the argument clipped."""
    c = np.clip(xi, 0.0, 1.0)
    s = c ** 3 * (10.0 - 15.0 * c + 6.0 * c * c)
    ds = 30.0 * c ** 2 * (c - 1.0) ** 2
    dds = 60.0 * c * (2.0 * c - 1.0) * (c - 1.0)
    return s, ds, dds


_WINDOW_RAMP = 0.08  # width of each side of the windowed_pair cut-off


def windowed_pair(pair: ManufacturedPair, lo: float, hi: float) -> ManufacturedPair:
    """Multiply the pair by a C^2 window supported in [lo, hi]; the source
    picks up the exact commutator so the triple still solves the equation:

        f_w = chi f + 2 chi' y_x + chi'' y,   Y_w = chi Y,  y_w = chi y.

    y_x is read off the pair's modal form, which the windowed pair does not
    carry, so a windowed pair cannot be windowed again.
    """
    if pair.modal_d is None:
        raise SimError("a windowed pair has no modal form to window again")
    if not (0.0 <= lo < hi <= 1.0):
        raise SimError(f"window [{lo}, {hi}] is not an ordered subinterval of [0, 1]")
    x, ramp = pair.grid.x, _WINDOW_RAMP
    su, dsu, ddsu = smoothstep((x - lo) / ramp)
    sd, dsd, ddsd = smoothstep((hi - x) / ramp)
    chi = su * sd
    dchi = (dsu * sd - su * dsd) / ramp
    ddchi = (ddsu * sd - 2.0 * dsu * dsd + su * ddsd) / (ramp * ramp)
    k = np.arange(1, pair.K + 1)
    B = pair.paths.cumulative()
    coef = pair.modal_d[None, :, :] * (1.0 + pair.sigma[None, None, :] * B[:, :, None])
    cosines = np.cos(np.pi * np.outer(x, k)) * (k * np.pi)[None, :]
    yx = coef @ cosines.T
    return ManufacturedPair(
        grid=pair.grid, paths=pair.paths, K=pair.K,
        y=pair.y * chi,
        Y=pair.Y * chi,
        f=pair.f * chi + 2.0 * yx * dchi + pair.y * ddchi)


# ---------------------------------------------------------------------------
# Carleman inequality evaluation.


def carleman_heat_check(pair: ManufacturedPair, w: HeatWeight,
                        lams: Sequence[float]) -> dict:
    """Monte-Carlo both sides of the backward-heat Carleman inequality.

    LHS  = E int theta^2 (lam^3 gamma^3 y^2 + lam gamma |y_x|^2)
    RHS  = E [ int_{G0} theta^2 lam^3 gamma^3 y^2
               + int theta^2 f^2 + int theta^2 lam^2 gamma^2 Y^2 ]

    reported as ratio(lam) = RHS / LHS, which a uniform constant C >= 1/ratio
    must bound below.  Both sides carry the same weight shift, so ratios
    are shift-free.  Quadrature: node sums, time clamped to [dt, T-dt].
    """
    grid = pair.grid
    if abs(grid.T - w.T) > 1e-12:
        raise SimError("weight bundle and grid disagree on the horizon")
    t = grid.t[1:-1]
    if len(t) == 0:
        raise SimError("grid too coarse for the clamped time window")
    lams = sorted(float(l) for l in lams)
    dx, dt = grid.dx, grid.dt
    lo, hi = w.psi.G0
    mask = (grid.x >= lo) & (grid.x <= hi)
    # Everything but theta^2 is lambda-free and computed once.  The shift
    # by max alpha cancels in every ratio and keeps the otherwise subnormal
    # e^{2 lam alpha} (alpha <= max alpha < 0) inside float range; far from
    # the maximum the weight underflows to exactly 0, which is the
    # documented treatment of negligible quadrature cells.
    with np.errstate(over="ignore"):
        gamma, _, alpha = heat_alpha(w, grid.x[None, :], t[:, None])
    if not np.all(np.isfinite(alpha)):
        raise SimError(f"alpha overflows double precision at t = dt for "
                       f"mu = {w.mu:g}; reduce mu or coarsen the time grid")
    shifted = alpha - float(np.max(alpha))
    # The report reads only path means, and each sum is linear in the
    # path-dependent squares: average them over the M paths once, and fold
    # in the lambda-free powers of gamma.  Y is path-independent.
    y = pair.y[:, 1:-1, :]
    y2g3 = np.mean(y ** 2, axis=0) * gamma ** 3
    gy2g1 = np.mean(grad_dirichlet(y, dx) ** 2, axis=0) * gamma
    f2 = np.mean(pair.f[:, 1:-1, :] ** 2, axis=0)
    Y2g2 = pair.Y[1:-1, :] ** 2 * gamma ** 2
    y2g3_obs = y2g3[:, mask]
    cell = dx * dt
    out = {"lambdas": lams, "lhs": [], "rhs": [], "ratio": [],
           "observation_fraction": []}
    for lam in lams:
        # for a large mu the exponent itself overflows to -inf; theta^2 is
        # then the same documented 0.  lambda^3 is a numpy float, so past
        # the double range it is inf, which the guard below refuses, where
        # a Python float would raise
        with np.errstate(over="ignore", invalid="ignore"):
            theta2 = np.exp(2.0 * lam * shifted)
            lam3 = np.float64(lam) ** 3
            lhs = float(cell * (lam3 * np.vdot(theta2, y2g3)
                                + lam * np.vdot(theta2, gy2g1)))
        if not (math.isfinite(lhs) and lhs > 0.0):
            raise SimError(f"Carleman LHS is {lhs:g} at lambda = {lam:g}: "
                           f"theta^2 underflows where the pair lives, or "
                           f"lambda^3 overflows; lower lambda")
        obs = float(cell * lam3 * np.vdot(theta2[:, mask], y2g3_obs))
        rhs = obs + float(cell * (np.vdot(theta2, f2)
                                  + lam ** 2 * np.vdot(theta2, Y2g2)))
        out["lhs"].append(lhs)
        out["rhs"].append(rhs)
        out["ratio"].append(rhs / lhs)
        out["observation_fraction"].append(obs / rhs)
    r = out["ratio"]
    out["min_ratio"] = min(r)
    out["uniform_floor"] = 0.5 * r[0]
    out["uniform_ok"] = bool(all(v >= 0.5 * r[0] for v in r))
    if len(r) > 1:
        logl = np.log(np.asarray(out["lambdas"]))
        slope = float(np.polyfit(logl, np.log(np.asarray(r)), 1)[0])
    else:
        slope = 0.0
    out["log_slope"] = slope
    out["slope_ok"] = bool(slope >= -0.05)
    return out


def carleman_gl_check(sol: Solution, gws: Sequence[GLWeight],
                      delta: float) -> list[dict]:
    """Evaluate both sides of the Ginzburg-Landau Carleman inequality.

    LHS  = mu E int_d^T int |w_x|^2 theta^2 + mu^3 E int_d^T int phi theta^2 |w|^2
    RHS  = E int [ |theta(d) w_x(d)|^2 + mu^2 phi(d) theta(d) |w(d)|^2
                   + mu^2 phi(T) |theta(T) w(T)|^2 ] dx
         + E int_d^T int (1+phi) theta^2 (|f|^2 + mu^2 |g|^2 + |g_x|^2)

    The single theta power on the middle data term is kept as stated.
    The reported quotient is LHS/RHS; a fitted constant is its maximum
    over ensemble members.  Returns one report per weight of gws, in
    order; every mu-free term is computed once for all of them.
    """
    grid, p = sol.grid, sol.problem
    if any(abs(grid.T - gw.T) > 1e-12 for gw in gws):
        raise SimError("weight bundle and grid disagree on the horizon")
    if p.a1 is not None or p.a2 is not None or p.a3 is not None:
        raise SimError("inequality form expects pure-source problems; "
                       "fold coefficient terms into f and g first")
    if not (0.0 <= delta < grid.T):
        raise SimError(f"delta = {delta} outside [0, T)")
    md = grid.node(delta, "delta")
    dx = grid.dx
    t = grid.t[md:]
    w = sol.w[:, md:, :]
    wx = grad_dirichlet(w, dx)
    aw2 = np.abs(w) ** 2
    awx2 = np.abs(wx) ** 2
    tw = grid.trapezoid(md)
    # the sources do not depend on the path: one reduction serves every member
    f = sample_field(p.f, grid.x, t)
    g = sample_field(p.g, grid.x, t)
    af2, ag2, agx2 = np.abs(f) ** 2, np.abs(g) ** 2, np.abs(grad_free(g, dx)) ** 2
    wx2_d = np.sum(awx2[:, 0, :], axis=1)
    w2_d = np.sum(aw2[:, 0, :], axis=1)
    w2_T = np.sum(aw2[:, -1, :], axis=1)
    out = []
    for gw in gws:
        mu = gw.mu
        phi = np.exp(3.0 * mu * t)
        theta2 = np.exp(2.0 * mu * phi)
        wt = theta2 * tw
        lhs_i = (mu * np.einsum("mti,t->m", awx2, wt)
                 + mu ** 3 * np.einsum("mti,t->m", aw2, phi * wt)) * dx
        src = af2 + mu ** 2 * ag2 + agx2
        src_i = np.einsum("ti,t->", src, (1.0 + phi) * wt) * dx
        th_d2 = math.exp(2.0 * mu * phi[0])
        th_d1 = math.exp(mu * phi[0])
        th_T2 = math.exp(2.0 * mu * phi[-1])
        data_i = (th_d2 * wx2_d + mu ** 2 * phi[0] * th_d1 * w2_d
                  + mu ** 2 * phi[-1] * th_T2 * w2_T) * dx
        rhs_i = data_i + src_i
        lhs, rhs = float(np.mean(lhs_i)), float(np.mean(rhs_i))
        quot = np.divide(lhs_i, rhs_i, out=np.zeros_like(lhs_i), where=rhs_i > 0)
        out.append({
            "mu": mu, "delta": delta,
            "lhs": lhs, "rhs": rhs,
            "member_quotients": [float(q) for q in quot],
            "fitted_C": float(np.max(quot)),
            "zero_members": int(np.sum(rhs_i == 0.0)),
        })
    return out


def make_random_gl_problem(seed: Seed, *, with_coefficients: bool = False,
                           with_sources: bool = True) -> SPDEProblem:
    """Random bounded smooth data: Fourier fields with seeded draws."""
    rng = np.random.default_rng(seed)

    def random_field(scale: float, modes: int = 3):
        cr = rng.normal(0.0, scale, size=(modes, 2))
        ci = rng.normal(0.0, scale, size=(modes, 2))
        om = rng.uniform(0.5, 2.0, size=modes)

        def fn(x, t):
            acc = np.zeros(np.broadcast_shapes(np.shape(t), np.shape(x)), dtype=complex)
            for k in range(modes):
                shape = np.sin((k + 1) * np.pi * x)
                mod = np.cos(om[k] * t)
                acc += ((cr[k, 0] + 1j * ci[k, 0]) + (cr[k, 1] + 1j * ci[k, 1]) * mod) * shape
            return acc

        return fn

    c0 = rng.normal(0.0, 1.0, size=(4, 2))

    def w0(x):
        acc = np.zeros(len(x), dtype=complex)
        for k in range(4):
            acc += (c0[k, 0] + 1j * c0[k, 1]) / (k + 1) * np.sin((k + 1) * np.pi * x)
        return acc

    return SPDEProblem(
        b=float(rng.uniform(-1.0, 1.0)),
        a1=random_field(0.4) if with_coefficients else None,
        a2=random_field(0.4) if with_coefficients else None,
        a3=random_field(0.3) if with_coefficients else None,
        f=random_field(0.5) if with_sources else None,
        g=random_field(0.3) if with_sources else None,
        w0=w0,
    )


# ---------------------------------------------------------------------------
# Classic first-order demos.


def _rk4(a, x0: float, T: float, steps: int):
    """Classic RK4 for x' = a(t) x.  a takes an array of times; it is
    sampled once at the left, middle and right stage times of every step,
    and the steps run on Python floats."""
    ts = np.linspace(0.0, T, steps + 1)
    h = T / steps
    t = ts[:-1]
    x, xs = x0, [x0]
    for a0, ah, a1 in zip(a(t).tolist(), a(t + h / 2).tolist(), a(t + h).tolist()):
        k1 = a0 * x
        k2 = ah * (x + h / 2 * k1)
        k3 = ah * (x + h / 2 * k2)
        k4 = a1 * (x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        xs.append(x)
    return ts, np.array(xs)


def _bump(s0: float, s1: float):
    """sin^3 bump supported on [s0, s1], with closed-form derivative."""
    width = s1 - s0

    def u(x):
        xi = np.clip((x - s0) / width, 0.0, 1.0)
        return np.sin(np.pi * xi) ** 3

    def du(x):
        xi = np.clip((x - s0) / width, 0.0, 1.0)
        return 3.0 * np.pi / width * np.sin(np.pi * xi) ** 2 * np.cos(np.pi * xi)

    return u, du


def classic_demos(which: str, seed: int = 0, draws: int = 10, *,
                  flip_gamma_sign: bool = False) -> dict:
    """Two warm-up estimates driven by the same weighted-identity idea.

    "ode": growth bound |x(t)| <= e^{lam t} |x0| for x' = a(t) x with
    lam = 2 sup|a|, checked at every integrator step for random bounded
    coefficients.

    "first_order": for L u = gamma u' + gamma0 u with inward transport
    field gamma = -(x - x0) and compactly supported u, the weighted bound
    lam int e^{2 lam phi} u^2 <= C int e^{2 lam phi} |Lu|^2 with
    phi = (x - x0)^2 holds across a lam sweep with one fitted C.
    """
    rng = np.random.default_rng(seed)
    if which == "ode":
        T, steps = 2.0, 2000
        runs = []
        tfine = np.linspace(0.0, T, 20001)
        # each a(t) takes an array of times; np.sin matches math.sin bit
        # for bit on these grids (tests/test_simulate.py)
        specs = [("sin", 1.0, np.sin)]
        for i in range(draws):
            c0, c1 = rng.uniform(-1.5, 1.5, size=2)
            om, ph = rng.uniform(0.5, 3.0), rng.uniform(0, 2 * math.pi)
            x0 = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
            specs.append((f"draw{i}", x0,
                          lambda t, c0=c0, c1=c1, om=om, ph=ph: c0 + c1 * np.sin(om * t + ph)))
        for name, x0, a in specs:
            lam = 2.0 * float(np.max(np.abs(a(tfine))))
            ts, xs = _rk4(a, x0, T, steps)
            bound = np.exp(lam * ts) * abs(x0)
            ok = bool(np.all(np.abs(xs) <= bound + 1e-12))
            # t = 0 is an exact tie; the strict margin starts one step in
            margin = float(np.min(bound[1:] - np.abs(xs[1:])))
            runs.append({"name": name, "lambda": lam, "x0": x0,
                         "holds_every_step": ok, "min_margin": margin})
        return {"demo": "ode", "runs": runs,
                "all_hold": bool(all(r["holds_every_step"] for r in runs))}
    if which == "first_order":
        x0 = 0.0
        xs = np.linspace(0.0, 1.0, 4001)
        gamma = (xs - x0) if flip_gamma_sign else -(xs - x0)
        runs = []
        lams = [4.0, 8.0, 16.0, 32.0, 64.0]
        for i in range(draws):
            s0 = float(rng.uniform(0.25, 0.55))
            s1 = float(s0 + rng.uniform(0.25, min(0.4, 0.95 - s0)))
            u, du = _bump(s0, s1)
            supp = (xs >= s0) & (xs <= s1)
            inward = -gamma * (xs - x0)
            c0 = float(np.min(inward[supp]))
            if c0 <= 0.0:
                raise SimError(
                    "transport field violates the inward condition: "
                    f"gamma.(x-x0) = {-c0:+.4f} >= 0 on the support [{s0:.3f}, {s1:.3f}]")
            amp = float(rng.uniform(0.5, 2.0))
            g0c = rng.normal(0.0, 1.0, size=2)
            gamma0 = g0c[0] + g0c[1] * np.cos(2 * np.pi * xs)
            uu = amp * u(xs)
            Lu = gamma * amp * du(xs) + gamma0 * uu
            phi = (xs - x0) ** 2
            quots = []
            for lam in lams:
                wgt = np.exp(2.0 * lam * (phi - float(np.max(phi[supp]))))
                num = lam * np.trapezoid(wgt * uu ** 2, xs)
                den = np.trapezoid(wgt * Lu ** 2, xs)
                quots.append(float(num / den))
            runs.append({"support": [s0, s1], "c0": c0, "lambdas": lams,
                         "quotients": quots, "fitted_C": max(quots)})
        return {"demo": "first_order", "runs": runs,
                "fitted_C_max": max(r["fitted_C"] for r in runs)}
    raise SimError(f"unknown demo '{which}'")
