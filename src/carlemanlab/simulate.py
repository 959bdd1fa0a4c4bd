"""Desk-scale numerics for the weighted inequalities.

Pieces: seeded Brownian ensembles, a semi-implicit solver for the 1-d
stochastic complex Ginzburg-Landau equation

    dw - (1+ib) w_xx dt = (a1 w_x + a2 w + f) dt + (a3 w + g) dB,

manufactured solution pairs for the backward heat operator
dy + y_xx dt = f dt + Y dB, Monte-Carlo evaluation of both sides of the
two Carleman inequalities, and two classic first-order demos.

Conventions: the spatial domain is (0, 1) with homogeneous Dirichlet
data; fields live on the Nx interior nodes; the diffusion term is
implicit, everything else explicit at the left time point.  All
members of a Ginzburg-Landau ensemble march in one time loop: one
block-diagonal tridiagonal factorization, one pair of triangular solves
per step, and per-path sums over x streamed out of each step in place
of the states.  All randomness flows through numpy's seeded default
generator, so a (seed, config) pair fixes every array bit-for-bit.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, replace
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
        """Trapezoid weights in time on the nodes m..Nt; SimError for fewer
        than two nodes, which span no interval."""
        if m >= self.Nt:
            raise SimError(f"the trapezoid rule needs two time nodes, got {self.Nt + 1 - m}")
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


def sample_field(fn: Coefficient, x: np.ndarray, t: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """fn on every time node of t: a (len(t), len(x)) complex array, zero
    for an absent field; out, if given, is the slot to fill, and is left
    as it is for an absent field.

    fn is called once, as fn(x, t[:, None]), with the 1-d nodes x and the
    times as a column; it returns an array that broadcasts to
    (len(t), len(x)), so a field constant in time may return shape
    (len(x),)."""
    if out is None:
        out = np.zeros((len(t), len(x)), dtype=complex)
    if fn is not None:
        out[...] = fn(x, t[:, None])
    return out


def sum_squares(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """sum |z|^2 over the trailing axis of a complex array, as one sum of
    the squared real and imaginary parts."""
    v = z.view(np.float64)  # z's trailing axis must be contiguous
    return np.einsum("...i,...i->...", v, v, out=out)


# Time steps per block of march_gl's field buffers.  Shorter blocks hold
# less memory but call each field more often.  Measured at inverse-gl's
# default shape (E = 20, Nx = 50, Nt = 300; fields a1, a2, a3) on a
# 2-core x86-64 host, the experiments benchmark's peak RSS is 61.6 MB
# with whole (Nt, E, Nx) stacks, 52.2 MB at 128 steps, 50.8 MB at 100
# and 49.1 MB at 64, while refilling the blocks takes 20.8 ms per march
# in one block, 24.1 ms in three of 100 steps and 29.7 ms in five of 64.
# Of these, 100 is the longest block that keeps the peak below 52 MB, and
# it splits the default Nt = 300 into three whole blocks.
_MARCH_BLOCK = 100


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
class PathSums:
    """One member of a marched ensemble, streamed into what its checks read.

    w2[i, m] = sum_j |w[i, m, j]|^2 and wx2[i, m] = sum_j |w_x[i, m, j]|^2
    (grad_dirichlet's stencil) per path i and time node m; states[:, k, :]
    is the state w[:, kept[k], :] at the nodes the caller kept.
    """

    grid: Grid1D
    paths: PathEnsemble
    problem: SPDEProblem
    w2: np.ndarray      # (M, Nt+1)
    wx2: np.ndarray     # (M, Nt+1)
    kept: tuple         # time nodes, increasing
    states: np.ndarray  # (M, len(kept), Nx) complex

    def state(self, m: int) -> np.ndarray:
        if m not in self.kept:
            raise SimError(f"the state at time node {m} was not kept")
        return self.states[:, self.kept.index(m), :]


@dataclass
class Solution:
    """Forward-solved ensemble: w[i, m, j] = path i, time node m, x node j.

    It reads as a PathSums that kept every node: w2 and wx2 are summed
    from w when read, so they follow any change made to w.
    """

    grid: Grid1D
    paths: PathEnsemble
    problem: SPDEProblem
    w: np.ndarray  # (M, Nt+1, Nx) complex

    @property
    def w2(self) -> np.ndarray:
        return sum_squares(self.w)

    @property
    def wx2(self) -> np.ndarray:
        return sum_squares(grad_dirichlet(self.w, self.grid.dx))

    def state(self, m: int) -> np.ndarray:
        return self.w[:, m, :]


def march_gl(problems: Sequence[SPDEProblem], grid: Grid1D,
             ensembles: Sequence[PathEnsemble],
             keep: Sequence[int] = ()) -> list[PathSums]:
    """Forward-solve every member in one time loop, one semi-implicit
    Euler step per time step: implicit diffusion, explicit rest,

        (Id - dt (1+ib) D) w^{m+1}
            = w^m + dt (a1 w_x^m + a2 w^m + f^m) + (a3 w^m + g^m) dB_m

    with D the Dirichlet second-difference matrix.  Member e solves
    problems[e] on ensembles[e]; all ensembles have the same path count
    M.  The E matrices do not depend on time, so they are LU-factored
    once, as one block-diagonal matrix with zero couplings between the
    blocks (LAPACK gttrf); each step is one gttrs solve for every path of
    every member.  A zero coupling adds and multiplies only exact zeros,
    so each member's states equal its own solve's bit for bit.

    The states are not kept: each step streams its per-path sums w2 and
    wx2 out (see PathSums), and copies the state only at the time nodes
    of keep.  A state or a sum that leaves double precision raises
    SimError.

    The fields stream through the march in blocks of _MARCH_BLOCK time
    steps, so its working memory grows with the block, not with Nt.  At
    each block start every present field is sampled into one
    (_MARCH_BLOCK, E, Nx) buffer, allocated once, and the block's dB_m
    are copied into one (_MARCH_BLOCK, M, E) buffer; dt a1, dt a2 and
    dt f are scaled in place ((dt a)[m] is dt a[m] bit for bit).  An
    absent member's slot is zeroed once and never written, and a field
    absent from every member is skipped, not added as zero.  Between
    block starts the step allocates nothing.  The state lives in two
    (M, E Nx) buffers, the transposes of the Fortran-ordered (E Nx, M)
    arrays gttrs solves in place: one holds w^m while the other takes
    the right side, and they swap each step.  grad, w_x by
    grad_dirichlet's stencil, serves both wx2 and the a1 term.
    """
    E, Nx, Nt = len(problems), grid.Nx, grid.Nt
    if E == 0 or len(ensembles) != E:
        raise SimError(f"need one path ensemble per problem, got "
                       f"{len(ensembles)} for {E}")
    for paths in ensembles:
        _check_paths(grid, paths)
    M = ensembles[0].M
    if any(paths.M != M for paths in ensembles):
        raise SimError("the members of one march need the same path count")
    kept = tuple(sorted({int(m) for m in keep}))
    if kept and not (0 <= kept[0] and kept[-1] <= Nt):
        raise SimError(f"kept nodes {kept} outside 0..{Nt}")
    x, t, dx, dt = grid.x, grid.t, grid.dx, grid.dt
    # Re rho > 0 makes each block strictly diagonally dominant, so the
    # factorization never meets a zero pivot
    rho = np.repeat([dt * (1.0 + 1j * p.b) / (dx * dx) for p in problems], Nx)
    off = -rho[1:]
    off[Nx - 1::Nx] = 0.0  # no coupling between two members' blocks
    gttrf, gttrs = _flapack.zgttrf, _flapack.zgttrs
    *lu, _ = gttrf(off, 1.0 + 2.0 * rho, off)

    K = min(_MARCH_BLOCK, Nt)
    names = ("a1", "a2", "a3", "f", "g")
    fns = {name: [getattr(p, name) for p in problems] for name in names}
    bufs = {name: np.zeros((K, E, Nx), dtype=complex) for name in names
            if any(fn is not None for fn in fns[name])}
    a1, a2, a3, f, g = map(bufs.get, names)
    dB = np.empty((K, M, E))

    def refill(m0):
        """Sample the fields and copy dB_m for the steps m0 .. m0+n-1."""
        n = min(K, Nt - m0)
        for name, buf in bufs.items():
            for e, fn in enumerate(fns[name]):
                if fn is not None:
                    sample_field(fn, x, t[m0:m0 + n], out=buf[:n, e, :])
            if name in ("a1", "a2", "f"):
                buf[:n] *= dt
        for e, paths in enumerate(ensembles):
            dB[:n, :, e] = paths.increments[:, m0:m0 + n].T

    w, rhs = (np.empty((M, E * Nx), dtype=complex) for _ in range(2))
    for e, p in enumerate(problems):
        w.reshape(M, E, Nx)[:, e, :] = p.initial(x)
    # each member's sums are contiguous (M, Nt+1) rows; step m writes
    # the column m of all of them
    w2, wx2 = np.empty((E, M, Nt + 1)), np.empty((E, M, Nt + 1))
    states = np.empty((M, len(kept), E, Nx), dtype=complex)
    slot = {m: k for k, m in enumerate(kept)}
    prod = np.empty((M, E, Nx), dtype=complex)
    pad = np.zeros((M, E, Nx + 2), dtype=complex)
    diff = np.zeros((M, E, Nx + 2), dtype=complex)
    pad_flat, diff_flat = pad.reshape(-1), diff.reshape(-1)
    grad = diff[..., 1:-1]
    # numpy divides a complex by a real c as a product with 1/c, so this
    # scaling of both parts is grad_dirichlet's division bit for bit
    diff_parts, inv_2dx = diff_flat.view(np.float64), 1.0 / (2.0 * dx)
    # a blown-up state is refused once, at the end, not warned about per step
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(Nt + 1):
            wm = w.reshape(M, E, Nx)
            pad[..., 1:-1] = wm
            # one contiguous difference over all rows: only the row
            # interiors, grad, are read
            np.subtract(pad_flat[2:], pad_flat[:-2], out=diff_flat[1:-1])
            diff_parts *= inv_2dx
            sum_squares(wm, out=w2[..., m].T)
            sum_squares(grad, out=wx2[..., m].T)
            if m in slot:
                states[:, slot[m]] = wm
            if m == Nt:
                break
            k = m % K
            if k == 0:
                refill(m)
            r = rhs.reshape(M, E, Nx)
            # the first term is added to w^m straight into r: the same sum
            # as a copy of w^m plus the term, one pass over r fewer
            acc = wm
            if a1 is not None:
                np.multiply(a1[k], grad, out=prod)
                acc = np.add(acc, prod, out=r)
            if a2 is not None:
                np.multiply(a2[k], wm, out=prod)
                acc = np.add(acc, prod, out=r)
            if f is not None:
                acc = np.add(acc, f[k], out=r)
            if a3 is not None:
                np.multiply(a3[k], wm, out=prod)
                if g is not None:
                    prod += g[k]
                prod *= dB[k][..., None]
                acc = np.add(acc, prod, out=r)
            elif g is not None:
                np.multiply(g[k], dB[k][..., None], out=prod)
                acc = np.add(acc, prod, out=r)
            if acc is wm:  # pure diffusion
                r[...] = wm
            # the solution overwrites rhs; w's buffer takes the next rhs
            w, rhs = gttrs(*lu, rhs.T, overwrite_b=True)[0].T, w
    if not (np.all(np.isfinite(w2)) and np.all(np.isfinite(wx2))):
        raise SimError("forward solve left double precision (a state or its "
                       "sum of squares overflows); reduce the coefficients "
                       "or refine the time grid")
    return [PathSums(grid=grid, paths=paths, problem=p, w2=w2[e], wx2=wx2[e],
                     kept=kept, states=states[:, :, e, :])
            for e, (p, paths) in enumerate(zip(problems, ensembles))]


def solve_gl_forward(p: SPDEProblem, grid: Grid1D, paths: PathEnsemble) -> Solution:
    """One member marched by march_gl, keeping every state: w[:, m, :] is
    the state at time node m.  A state that leaves double precision
    raises SimError."""
    run, = march_gl([p], grid, [paths], keep=range(grid.Nt + 1))
    return Solution(grid=grid, paths=paths, problem=p, w=run.states)


def l2_norm(u: np.ndarray, dx: float) -> np.ndarray:
    """L2(0,1) norm over the trailing axis."""
    return np.sqrt(np.sum(np.abs(u) ** 2, axis=-1) * dx)


# ---------------------------------------------------------------------------
# Manufactured pairs for the backward heat operator.


@dataclass
class ManufacturedPair:
    """Exact solution triple of dy + y_xx dt = f dt + Y dB, in modal form.

    y = sum_k d_k(t)(1 + sigma_k B(t)) sin(k pi x) with smooth d_k, so

        f = sum_k (d_k' - (k pi)^2 d_k)(1 + sigma_k B(t)) sin(k pi x),
        Y = sum_k sigma_k d_k(t) sin(k pi x)

    solve the equation exactly; no discretization enters the triple.  The
    pair keeps no field, only the amplitudes, noise weights and paths, and
    a windowed pair its window's chi, chi' and chi'' on the grid nodes.
    """

    grid: Grid1D
    paths: PathEnsemble
    K: int
    modal_d: np.ndarray     # (Nt+1, K) deterministic amplitudes
    modal_ddot: np.ndarray  # (Nt+1, K)
    sigma: np.ndarray       # (K,)
    window: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None  # chi, chi', chi''


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
    return ManufacturedPair(grid=grid, paths=paths, K=K,
                            modal_d=d, modal_ddot=ddot, sigma=sigma)


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
    """Multiply the pair by a C^2 window chi supported in [lo, hi]; the
    source picks up the exact commutator so the triple still solves the
    equation:

        f_w = chi f + 2 chi' y_x + chi'' y,   Y_w = chi Y,  y_w = chi y.

    Each windowed field is again linear in the factors 1 + sigma_k B, so
    the windowed pair keeps the modal form and adds chi, chi' and chi'' on
    the grid nodes.  A pair is windowed once.  A window must hold a grid
    node; chi is 0 on every node of one that holds none.
    """
    if pair.window is not None:
        raise SimError("a windowed pair is not windowed again")
    if not (0.0 <= lo < hi <= 1.0):
        raise SimError(f"window [{lo}, {hi}] is not an ordered subinterval of [0, 1]")
    x, ramp = pair.grid.x, _WINDOW_RAMP
    su, dsu, ddsu = smoothstep((x - lo) / ramp)
    sd, dsd, ddsd = smoothstep((hi - x) / ramp)
    chi = su * sd
    if not np.any(chi > 0.0):
        raise SimError(f"window [{lo}, {hi}] holds no grid node "
                       f"(dx = {pair.grid.dx:g}); widen it or refine the grid")
    dchi = (dsu * sd - su * dsd) / ramp
    ddchi = (ddsu * sd - 2.0 * dsu * dsd + su * ddsd) / (ramp * ramp)
    return replace(pair, window=(chi, dchi, ddchi))


# ---------------------------------------------------------------------------
# Carleman inequality evaluation.


def _path_mean_square(c: np.ndarray, sigma: np.ndarray, shapes: np.ndarray,
                      mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Mean over the M paths of u^2 on (time, x) nodes, where on each path
    u = sum_j c_j(t)(1 + sigma_j B) shapes_j(x) = a + B b.

    That mean is (a + mean b)^2 + var b^2, with mean and var the paths'
    mean and variance of B at each time node: two terms >= 0, which cannot
    cancel below zero as a^2 + 2 mean a b + mean(B^2) b^2 can.
    """
    a = c @ shapes
    b = (c * sigma) @ shapes
    u = a + mean[:, None] * b
    return u * u + var[:, None] * (b * b)


def carleman_heat_check(pair: ManufacturedPair, w: HeatWeight,
                        lams: Sequence[float]) -> dict:
    """Monte-Carlo both sides of the backward-heat Carleman inequality.

    LHS  = E int theta^2 (lam^3 gamma^3 y^2 + lam gamma |y_x|^2)
    RHS  = E [ int_{G0} theta^2 lam^3 gamma^3 y^2
               + int theta^2 f^2 + int theta^2 lam^2 gamma^2 Y^2 ]

    reported as ratio(lam) = RHS / LHS, which a uniform constant C >= 1/ratio
    must bound below.  Both sides carry the same weight shift, so ratios
    are shift-free.  Quadrature: node sums, time clamped to [dt, T-dt].
    The path means of y^2, |y_x|^2 (central stencil) and f^2 come from the
    pair's modes and the mean and variance of B at each time node, with no
    per-path field.
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
    # Each field is sum_j c_j(t)(1 + sigma_j B) S_j(x).  A window multiplies
    # the shapes S_j (chi = 1 without one), and its commutator in f adds the
    # modes of d with the shapes 2 chi' k pi cos + chi'' sin; the stencil
    # gradient of y has the stencil of each shape as its shape.
    B = pair.paths.cumulative()[:, 1:-1]
    mean = np.mean(B, axis=0)
    var = np.mean((B - mean) ** 2, axis=0)
    chi, dchi, ddchi = pair.window or (1.0, 0.0, 0.0)
    k = np.arange(1, pair.K + 1)
    kx = np.pi * np.outer(k, grid.x)   # (K, Nx)
    sines = np.sin(kx)
    y_shapes = chi * sines
    f_shapes = np.vstack([y_shapes, 2.0 * dchi * np.cos(kx) * (k * np.pi)[:, None]
                          + ddchi * sines])
    d, sigma = pair.modal_d[1:-1], pair.sigma
    f_coef = np.hstack([pair.modal_ddot[1:-1] - (k * np.pi) ** 2 * d, d])
    y2g3 = _path_mean_square(d, sigma, y_shapes, mean, var) * gamma ** 3
    gy2g1 = _path_mean_square(d, sigma, grad_dirichlet(y_shapes, dx), mean, var) * gamma
    f2 = _path_mean_square(f_coef, np.tile(sigma, 2), f_shapes, mean, var)
    Y2g2 = ((sigma * d) @ y_shapes) ** 2 * gamma ** 2
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


def carleman_gl_check(sol: Union[Solution, PathSums], gws: Sequence[GLWeight],
                      delta: float) -> list[dict]:
    """Evaluate both sides of the Ginzburg-Landau Carleman inequality.

    LHS  = mu E int_d^T int |w_x|^2 theta^2 + mu^3 E int_d^T int phi theta^2 |w|^2
    RHS  = E int [ |theta(d) w_x(d)|^2 + mu^2 phi(d) theta(d) |w(d)|^2
                   + mu^2 phi(T) |theta(T) w(T)|^2 ] dx
         + E int_d^T int (1+phi) theta^2 (|f|^2 + mu^2 |g|^2 + |g_x|^2)

    The single theta power on the middle data term is kept as stated.
    The weight depends on t alone, so every term reads only the sums over
    x, sol.w2 and sol.wx2 per path and node: each mu costs dot products
    over t.  The reported quotient is LHS/RHS; a fitted constant is its
    maximum over ensemble members.  Returns one report per weight of
    gws, in order; every mu-free term is computed once for all of them.
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
    w2, wx2 = sol.w2[:, md:], sol.wx2[:, md:]
    tw = grid.trapezoid(md)
    # the sources do not depend on the path: one reduction serves every member
    g = sample_field(p.g, grid.x, t)
    f2, g2, gx2 = (sum_squares(a) for a in
                   (sample_field(p.f, grid.x, t), g, grad_free(g, dx)))
    out = []
    for gw in gws:
        mu = gw.mu
        phi = np.exp(3.0 * mu * t)
        theta2 = np.exp(2.0 * mu * phi)
        wt = theta2 * tw
        lhs_i = (mu * (wx2 @ wt) + mu ** 3 * (w2 @ (phi * wt))) * dx
        src_i = np.dot(f2 + mu ** 2 * g2 + gx2, (1.0 + phi) * wt) * dx
        th_d2 = math.exp(2.0 * mu * phi[0])
        th_d1 = math.exp(mu * phi[0])
        th_T2 = math.exp(2.0 * mu * phi[-1])
        data_i = (th_d2 * wx2[:, 0] + mu ** 2 * phi[0] * th_d1 * w2[:, 0]
                  + mu ** 2 * phi[-1] * th_T2 * w2[:, -1]) * dx
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
