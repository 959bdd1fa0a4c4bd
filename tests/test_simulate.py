"""Forward solver, manufactured pairs, and Monte-Carlo inequality checks."""

import collections
import dataclasses
import importlib.machinery
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import solve_banded

from carlemanlab import simulate
from carlemanlab.simulate import (
    Grid1D,
    SimError,
    SPDEProblem,
    brownian,
    carleman_gl_check,
    carleman_heat_check,
    classic_demos,
    grad_dirichlet,
    l2_norm,
    make_random_gl_problem,
    manufacture_heat_pair,
    march_gl,
    sample_field,
    smoothstep,
    solve_gl_forward,
    windowed_pair,
)
from carlemanlab.weights import GLWeight, HeatWeight, heat_alpha, psi_1d
from strategies import zero_paths


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


# -- forward solver ---------------------------------------------------


def test_zero_data_gives_zero_solution():
    grid = Grid1D(Nx=30, Nt=50, T=0.2)
    sol = solve_gl_forward(SPDEProblem(), grid, brownian(4, 50, 9, dt=grid.dt))
    assert np.all(sol.w == 0.0)


def test_path_grid_mismatch_rejected():
    # a wrong step count, then a wrong step size; the solver and the
    # manufactured pair refuse both
    grid = Grid1D(Nx=30, Nt=50, T=0.2)
    for paths in (brownian(4, 49, 9, dt=grid.dt),
                  brownian(4, 50, 9, dt=0.9 * grid.dt)):
        with pytest.raises(SimError, match="disagree on time stepping"):
            solve_gl_forward(SPDEProblem(), grid, paths)
        with pytest.raises(SimError, match="disagree on time stepping"):
            manufacture_heat_pair(grid, paths, 2, 0)


def _scalar_time_problem(seed, with_coefficients):
    """make_random_gl_problem's draws, with the fields written as closures
    of one scalar time, evaluated with math.cos, as the solver once
    called them: node by node."""
    rng = np.random.default_rng(seed)

    def random_field(scale, modes=3):
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

    rng.normal(0.0, 1.0, size=(4, 2))  # w0
    b = float(rng.uniform(-1.0, 1.0))
    coefs = ([random_field(0.4), random_field(0.4), random_field(0.3)]
             if with_coefficients else [None] * 3)
    return b, dict(zip(("a1", "a2", "a3", "f", "g"),
                       coefs + [random_field(0.5), random_field(0.3)]))


def _per_node(fn, x, t):
    return np.array([fn(x, tm) for tm in t], dtype=complex)


@pytest.mark.parametrize("with_coefficients", [False, True])
@pytest.mark.parametrize("seed", [0, 21, 12345])
def test_random_fields_equal_per_node_closures_bitwise(seed, with_coefficients):
    # relies on np.cos and math.cos agreeing bit for bit, as they do with
    # numpy 2.4 and glibc on x86-64; a platform where they differ fails
    # here first, and then tests/goldens/gl_sha256.json
    grid = Grid1D(Nx=50, Nt=300, T=0.3)
    p = make_random_gl_problem(seed, with_coefficients=with_coefficients)
    b, ref = _scalar_time_problem(seed, with_coefficients)
    assert p.b == b
    for name, fn in ref.items():
        got = sample_field(getattr(p, name), grid.x, grid.t)
        if fn is None:
            assert getattr(p, name) is None
            assert np.all(got == 0.0)
        else:
            assert np.array_equal(got, _per_node(fn, grid.x, grid.t)), name


def test_field_constant_in_time_broadcasts():
    x, t = np.linspace(0.1, 0.9, 9), np.linspace(0.0, 1.0, 5)
    got = sample_field(lambda x, t: np.full(len(x), 0.25), x, t)
    assert got.shape == (5, 9) and np.all(got == 0.25)


def _banded_reference(p, grid, paths):
    """The semi-implicit step with one solve_banded call per step, every
    field sampled node by node and an absent field read as zeros."""
    x, dx, dt = grid.x, grid.dx, grid.dt
    rho = dt * (1.0 + 1j * p.b) / (dx * dx)
    band = np.zeros((3, grid.Nx), dtype=complex)
    band[0, 1:] = -rho
    band[1, :] = 1.0 + 2.0 * rho
    band[2, :-1] = -rho
    a1, a2, a3, f, g = (np.zeros((grid.Nt, grid.Nx), dtype=complex) if fn is None
                        else _per_node(fn, x, grid.t[:-1])
                        for fn in (p.a1, p.a2, p.a3, p.f, p.g))
    w = np.empty((paths.M, grid.Nt + 1, grid.Nx), dtype=complex)
    w[:, 0, :] = p.initial(x)[None, :]
    for m in range(grid.Nt):
        wm = w[:, m, :]
        drift = wm.copy()
        drift += dt * a1[m] * grad_dirichlet(wm, dx)
        drift += dt * a2[m] * wm
        drift += dt * f[m]
        noise = np.zeros_like(wm)
        noise += a3[m] * wm
        noise += g[m]
        rhs = drift + noise * paths.increments[:, m][:, None]
        w[:, m + 1, :] = solve_banded((1, 1), band, rhs.T).T
    return w


GL_FIELDS = ("a1", "a2", "a3", "f", "g")
# every branch of the solver's step: all five fields, each verb's set
# (inverse-gl draws coefficients, carleman-gl sources), a noise term with
# and without the state, and pure diffusion
FIELD_SETS = {"all": GL_FIELDS, "inverse-gl": ("a1", "a2", "a3"),
              "carleman-gl": ("f", "g"), "a3": ("a3",), "g": ("g",), "none": ()}


@pytest.mark.parametrize("fields", FIELD_SETS.values(), ids=FIELD_SETS.keys())
@pytest.mark.parametrize("M", [1, 3])
def test_factored_solver_equals_banded_solve_bitwise(M, fields):
    grid = Grid1D(Nx=40, Nt=120, T=0.3)
    p = make_random_gl_problem(5, with_coefficients=True)
    assert p.b != 0.0
    assert all(getattr(p, name) is not None for name in GL_FIELDS)
    p = dataclasses.replace(p, **{name: None for name in GL_FIELDS if name not in fields})
    paths = brownian(M, grid.Nt, 17, dt=grid.dt)
    sol = solve_gl_forward(p, grid, paths)
    assert np.array_equal(sol.w, _banded_reference(p, grid, paths))


def _members(E, fields, Nx=24, Nt=60, M=3):
    """E members with distinct b, each with the fields named in fields."""
    grid = Grid1D(Nx=Nx, Nt=Nt, T=0.3)
    problems = [dataclasses.replace(
        make_random_gl_problem(40 + e, with_coefficients=True),
        **{name: None for name in GL_FIELDS if name not in fields}) for e in range(E)]
    assert len({p.b for p in problems}) == E
    ensembles = [brownian(M, Nt, 70 + e, dt=grid.dt) for e in range(E)]
    return grid, problems, ensembles


@pytest.mark.parametrize("fields", FIELD_SETS.values(), ids=FIELD_SETS.keys())
# E members marched Nt steps in blocks of the given length: fewer steps
# than one block, then several blocks with a remainder, and whole blocks
@pytest.mark.parametrize("E, Nt, block", [
    pytest.param(1, 60, 64, id="1"),
    pytest.param(2, 60, 64, id="2"),
    pytest.param(3, 60, 64, id="3"),
    pytest.param(3, 60, 16, id="3-blocks-and-remainder"),
    pytest.param(3, 64, 16, id="3-whole-blocks"),
])
def test_ensemble_march_equals_each_members_own_solve_bitwise(E, Nt, block, fields,
                                                              monkeypatch):
    monkeypatch.setattr(simulate, "_MARCH_BLOCK", block)
    grid, problems, ensembles = _members(E, fields, Nt=Nt)
    every = march_gl(problems, grid, ensembles, keep=range(grid.Nt + 1))
    some = march_gl(problems, grid, ensembles, keep=[grid.Nt, 0, grid.Nt // 2, 0])
    for run, part, p, paths in zip(every, some, problems, ensembles):
        own = solve_gl_forward(p, grid, paths).w
        assert run.w.tobytes() == own.tobytes()
        # keeping fewer nodes changes nothing else
        assert part.kept == (0, grid.Nt // 2, grid.Nt)
        assert part.w.tobytes() == own[:, list(part.kept), :].tobytes()
        assert part.w2.tobytes() == run.w2.tobytes()
        assert part.wx2.tobytes() == run.wx2.tobytes()


def test_a_field_on_some_members_only_marches_as_each_members_own_solve(monkeypatch):
    # a member without a field reads zeros from that field's block buffer,
    # which every block's refill must leave zero
    monkeypatch.setattr(simulate, "_MARCH_BLOCK", 16)
    grid, problems, ensembles = _members(4, GL_FIELDS)
    absent = [(), ("a1", "a3", "f"), ("a2", "g"), ("a1", "a2", "a3", "f")]
    problems = [dataclasses.replace(p, **dict.fromkeys(names))
                for p, names in zip(problems, absent)]
    runs = march_gl(problems, grid, ensembles, keep=range(grid.Nt + 1))
    for run, p, paths in zip(runs, problems, ensembles):
        own, = march_gl([p], grid, [paths], keep=range(grid.Nt + 1))
        assert run.w.tobytes() == own.w.tobytes()
        assert run.w2.tobytes() == own.w2.tobytes()
        assert run.wx2.tobytes() == own.wx2.tobytes()


def test_march_holds_a_block_of_each_field_not_every_step():
    # inverse-gl's default shape, with its three fields a1, a2 and a3:
    # one (Nt, E, Nx) stack per field, scaled by dt, would peak at 19 MB
    E, M, Nx, Nt = 20, 16, 50, 300
    grid = Grid1D(Nx=Nx, Nt=Nt, T=0.3)
    problems = [make_random_gl_problem(e, with_coefficients=True, with_sources=False)
                for e in range(E)]
    ensembles = [brownian(M, Nt, 100 + e, dt=grid.dt) for e in range(E)]
    tracemalloc.start()
    try:
        march_gl(problems, grid, ensembles)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * Nt * E * Nx * 16, peak


def test_march_factors_once_and_solves_once_per_step(monkeypatch):
    # one block-diagonal factorization per worker and one solve per step
    # for all of a worker's members, not one per member (E = 3 > 2
    # workers), however many blocks the fields take
    calls = []

    def counted(name):
        real = getattr(simulate._flapack, name)

        def call(*args, **kwargs):
            calls.append(name)  # one atomic append, from either worker
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(simulate, "_flapack", types.SimpleNamespace(
        zgttrf=counted("zgttrf"), zgttrs=counted("zgttrs")))
    monkeypatch.setattr(simulate, "_MARCH_BLOCK", 16)
    for E, workers in ((1, 1), (3, 2)):
        grid, problems, ensembles = _members(E, GL_FIELDS)
        calls.clear()
        march_gl(problems, grid, ensembles)
        assert collections.Counter(calls) == {"zgttrf": workers,
                                              "zgttrs": workers * grid.Nt}


@pytest.mark.parametrize("E", [2, 3, 5])
def test_two_worker_march_equals_one_worker_march_bitwise(E, monkeypatch):
    # the second worker's members [ceil(E/2), E) write their own slices;
    # a3 is present on the even members only, so one worker's a3 buffer
    # holds a zero slot and, for E = 2, the second worker has none at all
    monkeypatch.setattr(simulate, "_MARCH_BLOCK", 16)
    grid, problems, ensembles = _members(E, GL_FIELDS)
    problems = [p if e % 2 == 0 else dataclasses.replace(p, a3=None)
                for e, p in enumerate(problems)]
    runs = march_gl(problems, grid, ensembles, keep=[grid.Nt, 0, 17])
    # one worker for all E members, into buffers laid out as march_gl's
    kept, M = (0, 17, grid.Nt), ensembles[0].M
    w2, wx2 = np.empty((E, M, grid.Nt + 1)), np.empty((E, M, grid.Nt + 1))
    states = np.empty((M, len(kept), E, grid.Nx), dtype=complex)
    simulate._march(problems, grid, ensembles, kept, w2, wx2, states, threading.Lock())
    for e, two in enumerate(runs):
        assert two.kept == kept
        assert two.w.tobytes() == states[:, :, e, :].tobytes()
        assert two.w2.tobytes() == w2[e].tobytes()
        assert two.wx2.tobytes() == wx2[e].tobytes()


def _raised_by_march(problems, grid, ensembles, marcher):
    """What march_gl raises on the members, run in a daemon thread whose
    ident goes to marcher: the call must finish within 60 s and leave no
    thread behind.  The helper thread of march_gl is a daemon too, so a
    hang fails here and the stuck threads do not hold up the
    interpreter's exit."""
    outcome = []

    def run():
        marcher.append(threading.get_ident())
        try:
            march_gl(problems, grid, ensembles)
        except BaseException as exc:
            outcome.append(exc)

    threads = threading.active_count()
    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "march_gl hung"
    assert threading.active_count() == threads
    assert len(outcome) == 1
    return outcome[0]


@pytest.mark.parametrize("member", [0, 2], ids=["first-half", "second-half"])
def test_march_raises_a_workers_field_error_after_both_stop(member):
    grid, problems, ensembles = _members(3, ("f", "g"))
    error = KeyError("field")

    def broken(x, t):
        raise error

    problems[member] = dataclasses.replace(problems[member], f=broken)
    assert _raised_by_march(problems, grid, ensembles, []) is error


@pytest.mark.parametrize("member", [0, 2], ids=["first-half", "second-half"])
def test_march_raises_a_later_blocks_field_error_without_a_hang(member, monkeypatch):
    # the field raises at its second block start, 16 steps in, while the
    # other worker still marches: a worker that raised holding the baton
    # would leave the other waiting for it forever
    monkeypatch.setattr(simulate, "_MARCH_BLOCK", 16)
    grid, problems, ensembles = _members(3, ("f", "g"))
    error, calls, field = KeyError("field"), [], problems[member].f
    raising, marcher = threading.Event(), []

    def later(x, t):
        calls.append(t)
        if len(calls) == 2:
            raising.set()
            raise error
        return field(x, t)

    real = simulate._flapack.zgttrs

    def zgttrs(*args, **kwargs):
        # the other worker waits out of the baton until the field raises,
        # so it is still marching then, however the lock served the two
        if (threading.get_ident() == marcher[0]) != (member == 0):
            raising.wait(timeout=60)
        return real(*args, **kwargs)

    problems[member] = dataclasses.replace(problems[member], f=later)
    monkeypatch.setattr(simulate, "_flapack", types.SimpleNamespace(
        zgttrf=simulate._flapack.zgttrf, zgttrs=zgttrs))
    assert _raised_by_march(problems, grid, ensembles, marcher) is error


def test_march_solves_outside_the_baton(monkeypatch):
    # each worker holds march_gl's one baton over its numpy work, the
    # field calls included, and lets go of it for every solve, so the
    # other worker's numpy work runs during the solve
    batons, solves, fields = [], [], []

    class Baton:
        def __init__(self):
            self.lock, self.owner = threading.Lock(), None
            batons.append(self)

        def acquire(self):
            self.lock.acquire()
            self.owner = threading.get_ident()

        def release(self):
            self.owner = None
            self.lock.release()

        __enter__ = acquire

        def __exit__(self, *exc):
            self.release()

    def holds():
        return [b.owner == threading.get_ident() for b in batons]

    real = simulate._flapack.zgttrs

    def zgttrs(*args, **kwargs):
        solves.append(holds())
        return real(*args, **kwargs)

    monkeypatch.setattr(simulate, "threading", types.SimpleNamespace(
        Lock=Baton, Thread=threading.Thread))
    monkeypatch.setattr(simulate, "_flapack", types.SimpleNamespace(
        zgttrf=simulate._flapack.zgttrf, zgttrs=zgttrs))
    monkeypatch.setattr(simulate, "_MARCH_BLOCK", 16)
    grid, problems, ensembles = _members(3, ("f", "g"))
    for e, p in enumerate(problems):
        def f(x, t, f=p.f):
            fields.append(holds())
            return f(x, t)
        problems[e] = dataclasses.replace(p, f=f)
    march_gl(problems, grid, ensembles)
    assert len(batons) == 1
    assert solves == [[False]] * (2 * grid.Nt)
    assert fields == [[True]] * (3 * 4)  # 3 members, 4 blocks of 60 steps


def test_march_refuses_a_member_diverging_in_the_second_worker():
    # numpy's error state is per thread: the second worker must ignore
    # the overflow itself, or it warns, and a warning turned error
    # escapes in place of the SimError
    grid, problems, ensembles = _members(3, ("f", "g"))
    problems[2] = dataclasses.replace(problems[2], a2=lambda x, t: 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimError, match="left double precision"):
            march_gl(problems, grid, ensembles)


def test_march_refuses_mismatched_members():
    grid, problems, ensembles = _members(2, ("f", "g"))
    with pytest.raises(SimError, match="one path ensemble per problem"):
        march_gl(problems, grid, ensembles[:1])
    with pytest.raises(SimError, match="one path ensemble per problem"):
        march_gl([], grid, [])
    with pytest.raises(SimError, match="same path count"):
        march_gl(problems, grid, [ensembles[0], brownian(2, grid.Nt, 1, dt=grid.dt)])
    with pytest.raises(SimError, match="kept nodes"):
        march_gl(problems, grid, ensembles, keep=[grid.Nt + 1])
    run, _ = march_gl(problems, grid, ensembles, keep=[3])
    with pytest.raises(SimError, match="node 4 was not kept"):
        run.state(4)


def test_march_refuses_one_diverging_member_among_finite_ones():
    grid, problems, ensembles = _members(3, ("f", "g"))
    problems[1] = dataclasses.replace(problems[1], a2=lambda x, t: 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimError, match="left double precision"):
            march_gl(problems, grid, ensembles)
        # the finite members alone march
        march_gl(problems[::2], grid, ensembles[::2])


def test_march_refuses_a_finite_state_whose_square_overflows():
    grid, problems, ensembles = _members(2, ())
    w0 = problems[1].w0
    problems[1] = dataclasses.replace(problems[1], w0=lambda x: 1e160 * w0(x))
    state = problems[1].initial(grid.x)
    assert np.all(np.isfinite(state))
    with np.errstate(over="ignore"):
        assert np.isinf(simulate.sum_squares(state))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimError, match="left double precision"):
            march_gl(problems, grid, ensembles)


def test_carleman_gl_runs_without_importing_scipy_linalg(tmp_path):
    # the solver's zgttrf/zgttrs come from scipy's _flapack extension
    # itself; scipy.linalg's package import would add about 0.3 s per start
    cfg = tmp_path / "gl.json"
    cfg.write_text(json.dumps(dict(ensembles=1, paths=2, Nx=8, Nt=20, T=0.2,
                                   mus=[2.0], delta=0.05, seed=3)))
    script = textwrap.dedent(f"""
        import sys
        from carlemanlab import cli
        code = cli.main(["carleman-gl", "--config", {str(cfg)!r},
                         "--out", {str(tmp_path / "out.json")!r}])
        print(code, [m for m in ("scipy", "scipy.linalg") if m in sys.modules])
    """)
    src = pathlib.Path(simulate.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("scipy_dir", ["absent", "empty"])
def test_flapack_loader_refuses_a_missing_extension(tmp_path, scipy_dir):
    spec = None
    if scipy_dir == "empty":
        (tmp_path / "linalg").mkdir()
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack") as err:
        simulate._load_flapack(spec)
    assert err.value.name == "scipy.linalg._flapack"
    if spec is not None:
        assert str(tmp_path / "linalg") in str(err.value)


def test_forward_solve_refuses_a_state_past_double_precision():
    grid = Grid1D(Nx=30, Nt=60, T=0.3)
    p = SPDEProblem(a2=lambda x, t: 1e300, w0=lambda x: np.sin(np.pi * x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimError):
            solve_gl_forward(p, grid, zero_paths(2, grid.Nt, grid.dt))


# -- manufactured pairs -----------------------------------------------


def make_pair(seed=0, Nx=60, Nt=400, T=1.0, M=8, K=6):
    grid = Grid1D(Nx=Nx, Nt=Nt, T=T)
    paths = brownian(M, Nt, seed, dt=grid.dt)
    return manufacture_heat_pair(grid, paths, K, seed)


def per_path_fields(pair):
    """Reference: the pair's whole fields y, f of shape (M, Nt+1, Nx) and
    Y of shape (Nt+1, Nx), assembled per path from its modal form and, for
    a windowed pair, multiplied by the window with the source's exact
    commutator: f_w = chi f + 2 chi' y_x + chi'' y."""
    grid, K = pair.grid, pair.K
    k = np.arange(1, K + 1)
    B = pair.paths.cumulative()          # (M, Nt+1)
    stoch = 1.0 + pair.sigma[None, None, :] * B[:, :, None]   # (M, Nt+1, K)
    sines = np.sin(np.pi * np.outer(grid.x, k))               # (Nx, K)
    coef = pair.modal_d[None, :, :] * stoch
    y = coef @ sines.T
    Y = (pair.sigma * pair.modal_d) @ sines.T
    f = ((pair.modal_ddot - (k * np.pi) ** 2 * pair.modal_d)[None, :, :] * stoch) @ sines.T
    if pair.window is None:
        return y, f, Y
    chi, dchi, ddchi = pair.window
    cosines = np.cos(np.pi * np.outer(grid.x, k)) * (k * np.pi)[None, :]
    yx = coef @ cosines.T
    return y * chi, f * chi + 2.0 * yx * dchi + y * ddchi, Y * chi


def test_pair_solves_equation_pathwise():
    # f must equal the dt drift of y plus the exact Laplacian, per path
    pair = make_pair(seed=4, M=3)
    _, f, Y = per_path_fields(pair)
    k = np.arange(1, pair.K + 1)
    sines = np.sin(np.pi * np.outer(pair.grid.x, k))
    B = pair.paths.cumulative()
    stoch = 1.0 + pair.sigma[None, None, :] * B[:, :, None]
    drift = (pair.modal_ddot[None, :, :] * stoch) @ sines.T
    laplacian = (pair.modal_d[None, :, :] * stoch * -(k * np.pi) ** 2) @ sines.T
    assert np.allclose(f, drift + laplacian, atol=1e-10)
    # and the noise coefficient is deterministic in the modal amplitudes
    Y_want = (pair.sigma * pair.modal_d) @ sines.T
    assert Y.shape == Y_want.shape
    assert np.allclose(Y, Y_want, atol=1e-12)


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


def test_heat_layer_builds_no_per_path_field():
    # the pair, its window and the check together stay below the bytes of
    # one (M, Nt+1, Nx) float64 field
    M, Nx, Nt = 200, 60, 400
    grid = Grid1D(Nx=Nx, Nt=Nt, T=1.0)
    paths = brownian(M, Nt, 0, dt=grid.dt)
    tracemalloc.start()
    try:
        pair = windowed_pair(manufacture_heat_pair(grid, paths, 6, 0), 0.1, 0.9)
        carleman_heat_check(pair, heat_weight(), [20, 40, 80, 160])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < M * (Nt + 1) * Nx * 8, peak


@st.composite
def path_mean_square_cases(draw):
    """(c, sigma, shapes, B) drawn from a seed: modal coefficients, noise
    weights, spatial shapes and Brownian paths on the time nodes."""
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    M = draw(st.integers(min_value=1, max_value=6))
    T, J, Nx = (draw(st.integers(min_value=1, max_value=n)) for n in (12, 8, 10))
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(T, J))
    sigma = rng.uniform(0.3, 0.8, size=J)
    shapes = rng.normal(size=(J, Nx))
    B = np.cumsum(rng.normal(0.0, 0.1, size=(M, T)), axis=1)
    return c, sigma, shapes, B


def _cancelling_case(M):
    """A case whose field a + B b is 0 on path 0 at one node: a = -B b."""
    rng = np.random.default_rng(M)
    c = rng.normal(size=(5, 3))
    sigma = rng.uniform(0.3, 0.8, size=3)
    shapes = rng.normal(size=(3, 4))
    B = np.cumsum(rng.normal(0.0, 0.1, size=(M, 5)), axis=1)
    # solve node (2, 1) of path 0 for c[2, 0]: sum_j c_j (1 + sigma_j B) S_j = 0
    w = (1.0 + sigma * B[0, 2]) * shapes[:, 1]
    c[2, 0] = -np.dot(c[2, 1:], w[1:]) / w[0]
    return c, sigma, shapes, B


@settings(max_examples=200, deadline=None)
@given(path_mean_square_cases())
@example(_cancelling_case(1))
@example(_cancelling_case(4))
def test_path_mean_square_is_the_mean_over_paths(case):
    c, sigma, shapes, B = case
    a, b = c @ shapes, (c * sigma) @ shapes
    want = np.mean((a[None] + B[:, :, None] * b[None]) ** 2, axis=0)
    mean = np.mean(B, axis=0)
    got = simulate._path_mean_square(c, sigma, shapes, mean,
                                     np.mean((B - mean) ** 2, axis=0))
    assert np.all(got >= 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


# -- parabolic Carleman inequality ------------------------------------


def test_heat_inequality_uniform_over_sweep():
    pair = make_pair(seed=11, M=50)
    rep = carleman_heat_check(pair, heat_weight(), [20, 40, 80, 160])
    assert rep["uniform_ok"] and rep["slope_ok"]
    assert rep["min_ratio"] > 0.0
    assert all(r >= rep["uniform_floor"] for r in rep["ratio"])
    assert rep["log_slope"] >= -0.05


def test_heat_check_evaluates_the_weight_once(monkeypatch):
    # gamma and alpha do not depend on lambda: one evaluation serves the sweep
    calls = []

    def counted(*args):
        calls.append(args)
        return heat_alpha(*args)

    monkeypatch.setattr(simulate, "heat_alpha", counted)
    rep = carleman_heat_check(make_pair(seed=3, M=2), heat_weight(), [20, 40, 80, 160])
    assert len(rep["ratio"]) == 4
    assert len(calls) == 1


def test_lambdas_that_share_a_log_carry_no_slope():
    # the log fit of two lambdas an ulp apart is rank-deficient; as for a
    # single lambda, the slope reads 0, with no warning
    lams = [20.0, math.nextafter(20.0, 21.0)]
    rep = carleman_heat_check(make_pair(seed=3, M=2), heat_weight(), lams)
    assert rep["log_slope"] == 0.0 and rep["slope_ok"]


def test_windowed_pair_is_observation_dominated():
    pair = make_pair(seed=12, M=20)
    wp = windowed_pair(pair, 0.38, 0.72)
    # support inside G0 = (0.3, 0.8): the window really vanishes outside
    outside = (pair.grid.x < 0.3) | (pair.grid.x > 0.8)
    y, _, _ = per_path_fields(wp)
    assert np.all(y[:, :, outside] == 0.0)
    rep = carleman_heat_check(wp, heat_weight(), [20, 40, 80, 160])
    assert rep["uniform_ok"]
    assert min(rep["observation_fraction"]) > 0.5


def modal_y_x(pair):
    """y_x of a manufactured pair, read off its modal form."""
    k = np.arange(1, pair.K + 1)
    cosines = np.cos(np.pi * np.outer(pair.grid.x, k)) * (k * np.pi)
    B = pair.paths.cumulative()
    return (pair.modal_d[None, :, :] * (1.0 + pair.sigma[None, None, :] * B[:, :, None])) @ cosines.T


def window_derivatives(x, lo, hi, h=1e-5):
    """chi, chi' and chi'' of windowed_pair's cut-off, the derivatives by
    central differences of chi."""
    def chi(x):
        up, down = smoothstep((x - lo) / simulate._WINDOW_RAMP), smoothstep(
            (hi - x) / simulate._WINDOW_RAMP)
        return up[0] * down[0]
    left, mid, right = chi(x - h), chi(x), chi(x + h)
    return mid, (right - left) / (2 * h), (right - 2 * mid + left) / (h * h)


@pytest.mark.parametrize("window", [(0.1, 0.9), (0.05, 0.5), (0.38, 0.72)])
def test_windowed_pair_solves_its_equation(window):
    # y_w = chi y solves dy + y_xx dt = f_w dt + Y_w dB with
    # f_w = chi f + 2 chi' y_x + chi'' y and Y_w = chi Y
    pair = make_pair(seed=5, M=3)
    wp = windowed_pair(pair, *window)
    y, f, Y = per_path_fields(pair)
    wy, wf, wY = per_path_fields(wp)
    chi, dchi, ddchi = window_derivatives(pair.grid.x, *window)
    want = chi * f + 2.0 * dchi * modal_y_x(pair) + ddchi * y
    scale = np.max(np.abs(want))
    np.testing.assert_allclose(wf, want, rtol=0.0, atol=1e-6 * scale)
    np.testing.assert_allclose(wy, chi * y, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(wY, chi * Y, rtol=0.0, atol=1e-12)


def test_a_windowed_pair_is_not_windowed_again():
    wp = windowed_pair(make_pair(seed=5, M=3), 0.1, 0.9)
    with pytest.raises(SimError, match="not windowed again"):
        windowed_pair(wp, 0.05, 0.5)


def test_heat_ratio_scale_invariant():
    pair = make_pair(seed=13, M=10)
    doubled = dataclasses.replace(pair, modal_d=2.0 * pair.modal_d,
                                  modal_ddot=2.0 * pair.modal_ddot)
    a = carleman_heat_check(pair, heat_weight(), [20, 80])
    b = carleman_heat_check(doubled, heat_weight(), [20, 80])
    assert b["lhs"] == [4.0 * v for v in a["lhs"]]
    assert b["rhs"] == [4.0 * v for v in a["rhs"]]
    assert b["ratio"] == a["ratio"]


def per_path_heat_sums(pair, w, lams):
    """Reference: both sides per path, one einsum over (M, Nt, Nx) per
    term of the whole fields, then the mean over paths."""
    grid = pair.grid
    dxdt = grid.dx * grid.dt
    t = grid.t[1:-1]
    gamma, _, alpha = heat_alpha(w, grid.x[None, :], t[:, None])
    shifted = alpha - np.max(alpha)
    lo, hi = w.psi.G0
    mask = (grid.x >= lo) & (grid.x <= hi)
    y, f, Y = per_path_fields(pair)
    y = y[:, 1:-1, :]
    y2 = y ** 2
    gy2 = grad_dirichlet(y, grid.dx) ** 2
    f2 = f[:, 1:-1, :] ** 2
    Y2 = np.broadcast_to(Y[1:-1, :] ** 2, y2.shape)
    out = {"lhs": [], "rhs": [], "ratio": [], "observation_fraction": []}
    for lam in lams:
        theta2 = np.exp(2.0 * lam * shifted)
        g3 = theta2 * gamma ** 3 * dxdt
        lhs_i = (lam ** 3 * np.einsum("mti,ti->m", y2, g3)
                 + lam * np.einsum("mti,ti->m", gy2, theta2 * gamma * dxdt))
        obs = lam ** 3 * np.einsum("mti,ti->m", y2[:, :, mask], g3[:, mask])
        rhs_i = (obs + np.einsum("mti,ti->m", f2, theta2 * dxdt)
                 + lam ** 2 * np.einsum("mti,ti->m", Y2, theta2 * gamma ** 2 * dxdt))
        lhs, rhs = np.mean(lhs_i), np.mean(rhs_i)
        out["lhs"].append(lhs)
        out["rhs"].append(rhs)
        out["ratio"].append(rhs / lhs)
        out["observation_fraction"].append(np.mean(obs) / rhs)
    return out


@pytest.mark.parametrize("M", [1, 2, 5])
@pytest.mark.parametrize("window", [None, (0.38, 0.72), (0.1, 0.5)])
def test_heat_check_matches_per_path_sums(M, window):
    pair = make_pair(seed=20 + M, M=M)
    if window is not None:
        pair = windowed_pair(pair, *window)
    lams = [5, 20, 40, 80, 160, 400]
    rep = carleman_heat_check(pair, heat_weight(), lams)
    want = per_path_heat_sums(pair, heat_weight(), lams)
    for key, values in want.items():
        assert all(type(v) is float for v in rep[key])
        np.testing.assert_allclose(rep[key], values, rtol=1e-13, atol=0.0)


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
    mus = (2.0, 3.0, 4.0)
    reports = carleman_gl_check(sol, [GLWeight(mu=mu, T=0.3) for mu in mus], 0.05)
    assert len(reports) == len(mus)
    for rep in reports:
        assert math.isfinite(rep["fitted_C"]) and rep["fitted_C"] > 0.0
        assert rep["zero_members"] == 0
        assert max(rep["member_quotients"]) == rep["fitted_C"]
        assert rep["lhs"] > 0.0 and rep["rhs"] > 0.0


def test_gl_check_of_many_weights_equals_one_call_per_weight():
    sol = gl_solution(seed=4, M=6)
    gws = [GLWeight(mu=mu, T=0.3) for mu in (2.0, 3.5, 4.0)]
    assert carleman_gl_check(sol, gws, 0.05) == [
        carleman_gl_check(sol, [gw], 0.05)[0] for gw in gws]
    assert carleman_gl_check(sol, [], 0.05) == []


def test_gl_constant_stable_across_path_seeds():
    grid = Grid1D(Nx=50, Nt=300, T=0.3)
    gw = GLWeight(mu=3.0, T=0.3)
    p = make_random_gl_problem(10)
    cs = [
        carleman_gl_check(
            solve_gl_forward(p, grid, brownian(20, 300, s, dt=grid.dt)), [gw], 0.05
        )[0]["fitted_C"]
        for s in (7, 8, 9)
    ]
    assert max(cs) / min(cs) < 1.5


def test_gl_zero_solution_is_zero_on_both_sides():
    grid = Grid1D(Nx=30, Nt=60, T=0.3)
    sol = solve_gl_forward(SPDEProblem(), grid, zero_paths(4, 60, grid.dt))
    rep, = carleman_gl_check(sol, [GLWeight(mu=2.0, T=0.3)], 0.05)
    assert rep["lhs"] == 0.0 and rep["rhs"] == 0.0
    assert rep["fitted_C"] == 0.0
    assert rep["zero_members"] == 4


def test_gl_check_preconditions():
    sol = gl_solution(seed=2, M=2)
    gw = GLWeight(mu=2.0, T=0.3)
    with pytest.raises(SimError):
        carleman_gl_check(sol, [gw], 0.3)  # delta = T
    with pytest.raises(SimError):
        carleman_gl_check(sol, [gw], 0.05 + 1e-4)  # off the time lattice
    with pytest.raises(SimError):
        carleman_gl_check(sol, [gw, GLWeight(mu=2.0, T=0.4)], 0.05)
    p = make_random_gl_problem(3, with_coefficients=True)
    grid = Grid1D(Nx=30, Nt=60, T=0.3)
    sol2 = solve_gl_forward(p, grid, brownian(2, 60, 3, dt=grid.dt))
    with pytest.raises(SimError):
        carleman_gl_check(sol2, [gw], 0.05)  # coefficient terms not folded in


# -- demos ------------------------------------------------------------


ODE_T, ODE_STEPS = 2.0, 2000


def _scalar_ode_specs(seed, draws):
    """classic_demos("ode")'s draws as (name, x0, om, ph, a): a(t) a
    closure of one scalar time, evaluated with math.sin, as the demo once
    called it: node by node.  The pinned sin case is om = 1, ph = None."""
    rng = np.random.default_rng(seed)
    specs = [("sin", 1.0, 1.0, None, math.sin)]
    for i in range(draws):
        c0, c1 = rng.uniform(-1.5, 1.5, size=2)
        om, ph = rng.uniform(0.5, 3.0), rng.uniform(0, 2 * math.pi)
        x0 = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
        specs.append((f"draw{i}", x0, om, ph,
                      lambda t, c0=c0, c1=c1, om=om, ph=ph: c0 + c1 * math.sin(om * t + ph)))
    return specs


def _scalar_ode_run(x0, a):
    """The demo's lambda and RK4 trajectory on numpy scalars, one a(t) call
    per node and per stage."""
    tfine = np.linspace(0.0, ODE_T, 20001)
    lam = 2.0 * float(np.max(np.abs([a(t) for t in tfine])))
    ts = np.linspace(0.0, ODE_T, ODE_STEPS + 1)
    xs = np.empty(ODE_STEPS + 1)
    xs[0] = x0
    h = ODE_T / ODE_STEPS
    for m in range(ODE_STEPS):
        t, x = ts[m], xs[m]
        k1 = a(t) * x
        k2 = a(t + h / 2) * (x + h / 2 * k1)
        k3 = a(t + h / 2) * (x + h / 2 * k2)
        k4 = a(t + h) * (x + h * k3)
        xs[m + 1] = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    bound = np.exp(lam * ts) * abs(x0)
    return lam, float(np.min(bound[1:] - np.abs(xs[1:])))


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_ode_demo_sines_equal_scalar_math_sin_bitwise(seed):
    # relies on np.sin and math.sin agreeing bit for bit, as they do with
    # numpy 2.4 and glibc on x86-64; a platform where they differ fails
    # here first, and then tests/goldens/demo_sha256.json
    tfine = np.linspace(0.0, ODE_T, 20001)
    t = np.linspace(0.0, ODE_T, ODE_STEPS + 1)[:-1]
    h = ODE_T / ODE_STEPS
    times = np.concatenate([tfine, t, t + h / 2, t + h])
    specs = _scalar_ode_specs(seed, draws=10)
    for name, _, om, ph, _ in specs:
        arg = times if ph is None else om * times + ph
        assert np.array_equal(np.sin(arg), [math.sin(v) for v in arg.tolist()]), name
    runs = classic_demos("ode", seed=seed, draws=10)
    assert [r["name"] for r in runs] == [s[0] for s in specs]
    for run, (name, x0, _, _, a) in zip(runs, specs):
        assert (run["lambda"], run["min_margin"]) == _scalar_ode_run(x0, a), name


def test_ode_demo_bound_holds():
    runs = classic_demos("ode", seed=0, draws=10)
    assert len(runs) == 11  # pinned sin case plus the draws
    sin_run = runs[0]
    assert sin_run["name"] == "sin"
    assert sin_run["lambda"] == pytest.approx(2.0, abs=1e-6)
    assert sin_run["min_margin"] > 0.0
    assert all(r["holds_every_step"] for r in runs)


def test_first_order_demo_fits_one_constant():
    runs = classic_demos("first_order", seed=1, draws=6)
    C = max(r["fitted_C"] for r in runs)
    assert math.isfinite(C) and C > 0.0
    for run in runs:
        assert run["fitted_C"] == max(run["quotients"])
        assert all(q <= C for q in run["quotients"])


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
