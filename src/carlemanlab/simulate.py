"""Desk-scale numerics for the weighted inequalities.

Pieces: seeded Brownian ensembles, a semi-implicit solver for the 1-d
stochastic complex Ginzburg-Landau equation

    dw - (1+ib) w_xx dt = (a1 w_x + a2 w + f) dt + (a3 w + g) dB,

manufactured solution pairs for the backward heat operator
dy + y_xx dt = f dt + Y dB, Monte-Carlo evaluation of both sides of the
two Carleman inequalities, and two classic first-order demos.

Conventions: the spatial domain is (0, 1) with homogeneous Dirichlet
data; fields live on the Nx interior nodes; the diffusion term is
implicit (tridiagonal solve per step), everything else explicit at the
left time point.  All randomness flows through numpy's seeded default
generator, so a (seed, config) pair fixes every array bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.linalg import solve_banded

from .weights import GLWeight, HeatWeight


class SimError(ValueError):
    """Raised for invalid grids, ensembles, or violated preconditions."""


Coefficient = Optional[Callable[[np.ndarray, float], np.ndarray]]
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


@dataclass(frozen=True)
class PathEnsemble:
    """M independent Brownian paths sampled as Normal(0, dt) increments."""

    M: int
    Nt: int
    dt: float
    seed: Seed
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
    return PathEnsemble(M=M, Nt=Nt, dt=dt, seed=seed, increments=inc)


def zero_paths(M: int, Nt: int, dt: float) -> PathEnsemble:
    """Degenerate ensemble driving the deterministic special cases."""
    return PathEnsemble(M=M, Nt=Nt, dt=dt, seed=-1, increments=np.zeros((M, Nt)))


def coarsen(paths: PathEnsemble, factor: int) -> PathEnsemble:
    """Sum adjacent increments so both resolutions ride one Brownian path."""
    if paths.Nt % factor:
        raise SimError(f"Nt = {paths.Nt} not divisible by {factor}")
    inc = paths.increments.reshape(paths.M, paths.Nt // factor, factor).sum(axis=2)
    return PathEnsemble(M=paths.M, Nt=paths.Nt // factor, dt=paths.dt * factor,
                        seed=paths.seed, increments=inc)


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
    for an absent field."""
    if fn is None:
        return np.zeros((len(t), len(x)), dtype=complex)
    return np.array([fn(x, tm) for tm in t], dtype=complex)


@dataclass
class SPDEProblem:
    """Coefficients and data for the forward Ginzburg-Landau solve."""

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

    with D the Dirichlet second-difference matrix.  One banded solve per
    step handles every path at once.
    """
    if paths.Nt != grid.Nt or abs(paths.dt - grid.dt) > 1e-15 * grid.dt:
        raise SimError("path ensemble and grid disagree on time stepping")
    Nx, Nt, M = grid.Nx, grid.Nt, paths.M
    x, dx, dt = grid.x, grid.dx, grid.dt
    rho = dt * (1.0 + 1j * p.b) / (dx * dx)
    band = np.zeros((3, Nx), dtype=complex)
    band[0, 1:] = -rho
    band[1, :] = 1.0 + 2.0 * rho
    band[2, :-1] = -rho
    a1, a2, a3, f, g = (sample_field(fn, x, grid.t[:-1])
                        for fn in (p.a1, p.a2, p.a3, p.f, p.g))
    w = np.empty((M, Nt + 1, Nx), dtype=complex)
    w[:, 0, :] = p.initial(x)[None, :]
    for m in range(Nt):
        wm = w[:, m, :]
        drift = wm.copy()
        if p.a1 is not None:
            drift += dt * a1[m] * grad_dirichlet(wm, dx)
        if p.a2 is not None:
            drift += dt * a2[m] * wm
        if p.f is not None:
            drift += dt * f[m]
        noise = np.zeros_like(wm)
        if p.a3 is not None:
            noise += a3[m] * wm
        if p.g is not None:
            noise += g[m]
        rhs = drift + noise * paths.increments[:, m][:, None]
        w[:, m + 1, :] = solve_banded((1, 1), band, rhs.T).T
    return Solution(grid=grid, paths=paths, problem=p, w=w)


def l2_norm(u: np.ndarray, dx: float) -> np.ndarray:
    """L2(0,1) norm over the trailing axis."""
    return np.sqrt(np.sum(np.abs(u) ** 2, axis=-1) * dx)


def heat_decay_report(Nx: int = 200, Nt: int = 2000, T: float = 0.1) -> dict:
    """Pure-heat special case against the exact decay rate e^{-pi^2 t}."""
    grid = Grid1D(Nx=Nx, Nt=Nt, T=T)
    p = SPDEProblem(w0=lambda x: np.sin(np.pi * x))
    sol = solve_gl_forward(p, grid, zero_paths(1, Nt, grid.dt))
    ratio = float(l2_norm(sol.w[0, -1], grid.dx) / l2_norm(sol.w[0, 0], grid.dx))
    exact = math.exp(-math.pi ** 2 * T)
    return {
        "decay_ratio": ratio,
        "exact": exact,
        "relative_error": abs(ratio - exact) / exact,
    }


def time_refinement_report(Nx: int = 200, Nt: int = 250, T: float = 0.1) -> dict:
    """First-order convergence in dt: halving the step should roughly
    halve the final-time error against the exact heat solution."""
    errors = []
    for steps in (Nt, 2 * Nt):
        grid = Grid1D(Nx=Nx, Nt=steps, T=T)
        p = SPDEProblem(w0=lambda x: np.sin(np.pi * x))
        sol = solve_gl_forward(p, grid, zero_paths(1, steps, grid.dt))
        exact = math.exp(-math.pi ** 2 * T) * np.sin(np.pi * grid.x)
        errors.append(float(l2_norm(sol.w[0, -1] - exact, grid.dx)))
    return {"error_coarse": errors[0], "error_fine": errors[1],
            "ratio": errors[0] / errors[1]}


# ---------------------------------------------------------------------------
# Manufactured pairs for the backward heat operator.


@dataclass
class ManufacturedPair:
    """Exact solution triple of dy + y_xx dt = f dt + Y dB.

    y = sum_k d_k(t)(1 + sigma_k B(t)) sin(k pi x) with smooth d_k, so

        f = sum_k (d_k' - (k pi)^2 d_k)(1 + sigma_k B(t)) sin(k pi x),
        Y = sum_k sigma_k d_k(t) sin(k pi x)

    solve the equation exactly; no discretization enters the triple.
    """

    grid: Grid1D
    paths: PathEnsemble
    K: int
    seed: Seed
    y: np.ndarray  # (M, Nt+1, Nx)
    Y: np.ndarray
    f: np.ndarray
    modal_d: np.ndarray       # (Nt+1, K) deterministic amplitudes
    modal_ddot: np.ndarray    # (Nt+1, K)
    sigma: np.ndarray         # (K,)

    def laplacian_exact(self) -> np.ndarray:
        k = np.arange(1, self.K + 1)
        rates = -(k * np.pi) ** 2
        B = self.paths.cumulative()
        coef = self.modal_d[None, :, :] * (1.0 + self.sigma[None, None, :] * B[:, :, None])
        sines = np.sin(np.pi * np.outer(np.arange(1, self.grid.Nx + 1) * self.grid.dx, k))
        return (coef * rates[None, None, :]) @ sines.T


def manufacture_heat_pair(grid: Grid1D, paths: PathEnsemble, K: int, seed: Seed) -> ManufacturedPair:
    if K > grid.Nx // 4:
        raise SimError(f"K = {K} exceeds the resolvable budget Nx/4 = {grid.Nx // 4}")
    if paths.Nt != grid.Nt:
        raise SimError("path ensemble and grid disagree on time stepping")
    rng = np.random.default_rng(seed)
    k = np.arange(1, K + 1)
    eta = rng.uniform(0.3, 1.0, size=K) / k
    # Slow deterministic amplitudes with solid noise weights: the Euler
    # defect is then dominated by its first-order stochastic part.
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
    Y = np.broadcast_to(((sigma * d) @ sines.T)[None, :, :], y.shape).copy()
    f_coef = (ddot - (k * np.pi) ** 2 * d)[None, :, :] * stoch
    f = f_coef @ sines.T
    return ManufacturedPair(grid=grid, paths=paths, K=K, seed=seed,
                            y=y, Y=Y, f=f, modal_d=d, modal_ddot=ddot, sigma=sigma)


def smoothstep(xi: np.ndarray):
    """Quintic ramp on [0,1] with S(0)=0, S(1)=1 and two flat derivatives
    at both ends; returns (S, S', S'') with the argument clipped."""
    c = np.clip(xi, 0.0, 1.0)
    s = c ** 3 * (10.0 - 15.0 * c + 6.0 * c * c)
    ds = 30.0 * c ** 2 * (c - 1.0) ** 2
    dds = 60.0 * c * (2.0 * c - 1.0) * (c - 1.0)
    return s, ds, dds


def windowed_pair(pair: ManufacturedPair, lo: float, hi: float,
                  ramp: float = 0.08) -> ManufacturedPair:
    """Multiply the pair by a C^2 window supported in [lo, hi]; the source
    picks up the exact commutator so the triple still solves the equation:

        f_w = chi f + 2 chi' y_x + chi'' y,   Y_w = chi Y,  y_w = chi y.

    The modal tables are inherited unchanged, so euler_residual and
    laplacian_exact are not meaningful on the windowed pair.
    """
    x = pair.grid.x
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
        grid=pair.grid, paths=pair.paths, K=pair.K, seed=pair.seed,
        y=pair.y * chi,
        Y=pair.Y * chi,
        f=pair.f * chi + 2.0 * yx * dchi + pair.y * ddchi,
        modal_d=pair.modal_d, modal_ddot=pair.modal_ddot, sigma=pair.sigma)


def euler_residual(pair: ManufacturedPair) -> float:
    """RMS over paths of the summed L2 defect of one explicit Euler sweep,
    with the exact Laplacian; the defect shrinks first order in dt."""
    dt = pair.grid.dt
    lap = pair.laplacian_exact()
    dB = pair.paths.increments[:, :, None]
    R = (pair.y[:, 1:, :] - pair.y[:, :-1, :]
         + dt * lap[:, :-1, :]
         - dt * pair.f[:, :-1, :]
         - pair.Y[:, :-1, :] * dB)
    per_path = np.sum(l2_norm(R, pair.grid.dx) ** 2, axis=1)
    return math.sqrt(float(np.mean(per_path)))


# ---------------------------------------------------------------------------
# Carleman inequality evaluation.


def _heat_weight_arrays(w: HeatWeight, grid: Grid1D, lam: float):
    """Vectorized gamma(t), and the shifted squared weight exp(2 lam (alpha
    - max alpha)) on the clamped interior time nodes x space nodes.

    The shift cancels in every ratio and keeps the otherwise subnormal
    e^{2 lam alpha} (alpha <= alpha_max < 0) inside float range; far
    from the maximum the weight underflows to exactly 0, which is the
    documented treatment of negligible quadrature cells.
    """
    t = grid.t[1:-1]
    if len(t) == 0:
        raise SimError("grid too coarse for the clamped time window")
    u = (t * (grid.T - t)) ** w.k
    gamma = 1.0 / u
    emp = np.exp(w.mu * w.psi.value(grid.x))
    estar = math.exp(2.0 * w.mu * w.psi.max_value)
    alpha = (emp[None, :] - estar) * gamma[:, None]
    amax = float(np.max(alpha))
    theta2 = np.exp(2.0 * lam * (alpha - amax))
    return gamma, theta2, amax


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
    lams = sorted(float(l) for l in lams)
    dx, dt = grid.dx, grid.dt
    lo, hi = w.psi.G0
    mask = (grid.x >= lo) & (grid.x <= hi)
    y = pair.y[:, 1:-1, :]
    gy = grad_dirichlet(y, dx)
    f2 = pair.f[:, 1:-1, :] ** 2
    Y2 = pair.Y[:, 1:-1, :] ** 2
    y2 = y ** 2
    out = {"lambdas": lams, "mu": w.mu,
           "lhs": [], "rhs": [], "ratio": [], "observation_fraction": [],
           "lhs_se": [], "rhs_se": [], "shift_exponent": []}
    for lam in lams:
        gamma, theta2, amax = _heat_weight_arrays(w, grid, float(lam))
        g1 = (theta2 * gamma[:, None]) * dx * dt
        g3 = (theta2 * gamma[:, None] ** 3) * dx * dt
        g2 = (theta2 * gamma[:, None] ** 2) * dx * dt
        flat = (theta2) * dx * dt
        lhs_i = (lam ** 3 * np.einsum("mti,ti->m", y2, g3)
                 + lam * np.einsum("mti,ti->m", gy ** 2, g1))
        obs = lam ** 3 * np.einsum("mti,ti->m", y2[:, :, mask], g3[:, mask])
        rhs_i = (obs + np.einsum("mti,ti->m", f2, flat)
                 + lam ** 2 * np.einsum("mti,ti->m", Y2, g2))
        lhs, rhs = float(np.mean(lhs_i)), float(np.mean(rhs_i))
        M = len(lhs_i)
        out["lhs"].append(lhs)
        out["rhs"].append(rhs)
        out["ratio"].append(rhs / lhs)
        out["observation_fraction"].append(float(np.mean(obs)) / rhs)
        out["lhs_se"].append(float(np.std(lhs_i, ddof=1)) / math.sqrt(M) if M > 1 else 0.0)
        out["rhs_se"].append(float(np.std(rhs_i, ddof=1)) / math.sqrt(M) if M > 1 else 0.0)
        out["shift_exponent"].append(2.0 * lam * amax)
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


def carleman_gl_check(sol: Solution, gw: GLWeight, delta: float) -> dict:
    """Evaluate both sides of the Ginzburg-Landau Carleman inequality.

    LHS  = mu E int_d^T int |w_x|^2 theta^2 + mu^3 E int_d^T int phi theta^2 |w|^2
    RHS  = E int [ |theta(d) w_x(d)|^2 + mu^2 phi(d) theta(d) |w(d)|^2
                   + mu^2 phi(T) |theta(T) w(T)|^2 ] dx
         + E int_d^T int (1+phi) theta^2 (|f|^2 + mu^2 |g|^2 + |g_x|^2)

    The single theta power on the middle data term is kept as stated.
    The reported quotient is LHS/RHS; a fitted constant is its maximum
    over ensemble members.
    """
    grid, p = sol.grid, sol.problem
    mu = gw.mu
    if abs(grid.T - gw.T) > 1e-12:
        raise SimError("weight bundle and grid disagree on the horizon")
    if p.a1 is not None or p.a2 is not None or p.a3 is not None:
        raise SimError("inequality form expects pure-source problems; "
                       "fold coefficient terms into f and g first")
    if not (0.0 <= delta < grid.T):
        raise SimError(f"delta = {delta} outside [0, T)")
    md = int(round(delta / grid.dt))
    if abs(md * grid.dt - delta) > 1e-9 * grid.T:
        raise SimError("delta must sit on a time node")
    dx, dt = grid.dx, grid.dt
    t = grid.t[md:]
    phi = np.exp(3.0 * mu * t)
    theta2 = np.exp(2.0 * mu * phi)
    w = sol.w[:, md:, :]
    wx = grad_dirichlet(w, dx)
    aw2 = np.abs(w) ** 2
    awx2 = np.abs(wx) ** 2
    # trapezoid weights in time on [delta, T]
    tw = np.full(len(t), dt)
    tw[0] *= 0.5
    tw[-1] *= 0.5
    wt = theta2 * tw
    lhs_i = (mu * np.einsum("mti,t->m", awx2, wt)
             + mu ** 3 * np.einsum("mti,t->m", aw2, phi * wt)) * dx
    # the sources do not depend on the path: one reduction serves every member
    f = sample_field(p.f, grid.x, t)
    g = sample_field(p.g, grid.x, t)
    src = np.abs(f) ** 2 + mu ** 2 * np.abs(g) ** 2 + np.abs(grad_free(g, dx)) ** 2
    src_i = np.einsum("ti,t->", src, (1.0 + phi) * wt) * dx
    th_d2 = math.exp(2.0 * mu * phi[0])
    th_d1 = math.exp(mu * phi[0])
    th_T2 = math.exp(2.0 * mu * phi[-1])
    data_i = (th_d2 * np.sum(np.abs(wx[:, 0, :]) ** 2, axis=1)
              + mu ** 2 * phi[0] * th_d1 * np.sum(np.abs(w[:, 0, :]) ** 2, axis=1)
              + mu ** 2 * phi[-1] * th_T2 * np.sum(np.abs(w[:, -1, :]) ** 2, axis=1)) * dx
    rhs_i = data_i + src_i
    lhs, rhs = float(np.mean(lhs_i)), float(np.mean(rhs_i))
    quot = np.divide(lhs_i, rhs_i, out=np.zeros_like(lhs_i), where=rhs_i > 0)
    return {
        "mu": mu, "delta": delta,
        "lhs": lhs, "rhs": rhs,
        "member_quotients": [float(q) for q in quot],
        "fitted_C": float(np.max(quot)),
        "zero_members": int(np.sum(rhs_i == 0.0)),
    }


def scaled_solution(sol: Solution, s: float) -> Solution:
    """The family member with (w0, f, g) scaled by s and, by linearity,
    the state too.  With a power-of-two s every stored float scales
    exactly, so weighted quotients are bitwise invariant."""

    def wrap(fn):
        return None if fn is None else (lambda x, t, fn=fn: s * fn(x, t))

    p = sol.problem
    w0 = None if p.w0 is None else (lambda x, w0=p.w0: s * w0(x))
    sp = replace(p, w0=w0, f=wrap(p.f), g=wrap(p.g))
    return replace(sol, problem=sp, w=s * sol.w)


def make_random_gl_problem(seed: Seed, *, with_coefficients: bool = False,
                           with_sources: bool = True) -> SPDEProblem:
    """Random bounded smooth data: Fourier fields with seeded draws."""
    rng = np.random.default_rng(seed)

    def random_field(scale: float, modes: int = 3):
        cr = rng.normal(0.0, scale, size=(modes, 2))
        ci = rng.normal(0.0, scale, size=(modes, 2))
        om = rng.uniform(0.5, 2.0, size=modes)

        def fn(x, t):
            acc = np.zeros(len(x), dtype=complex)
            for k in range(modes):
                shape = np.sin((k + 1) * np.pi * x)
                mod = math.cos(om[k] * t)
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


def _rk4(afun, x0: float, T: float, steps: int):
    ts = np.linspace(0.0, T, steps + 1)
    xs = np.empty(steps + 1)
    xs[0] = x0
    h = T / steps
    for m in range(steps):
        t, x = ts[m], xs[m]
        k1 = afun(t) * x
        k2 = afun(t + h / 2) * (x + h / 2 * k1)
        k3 = afun(t + h / 2) * (x + h / 2 * k2)
        k4 = afun(t + h) * (x + h * k3)
        xs[m + 1] = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return ts, xs


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
        specs = [("sin", 1.0, lambda t: math.sin(t))]
        for i in range(draws):
            c0, c1 = rng.uniform(-1.5, 1.5, size=2)
            om, ph = rng.uniform(0.5, 3.0), rng.uniform(0, 2 * math.pi)
            x0 = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
            specs.append((f"draw{i}", x0,
                          lambda t, c0=c0, c1=c1, om=om, ph=ph: c0 + c1 * math.sin(om * t + ph)))
        for name, x0, afun in specs:
            tfine = np.linspace(0.0, T, 20001)
            lam = 2.0 * float(np.max(np.abs([afun(t) for t in tfine])))
            ts, xs = _rk4(afun, x0, T, steps)
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
