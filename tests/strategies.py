"""Shared generators: a standard context, a context with every construct
the catalog builds, random expression trees over each, and the noise-free
path ensemble of the deterministic solver checks."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from carlemanlab.canonical import canonicalize
from carlemanlab.exact import QQi
from carlemanlab.exprs import (
    Add,
    Conj,
    Const,
    Context,
    DB,
    DT,
    ImPart,
    Mul,
    Pow,
    RePart,
    conj,
    d_t,
    d_x,
    esum,
    ito_d,
)
from carlemanlab.simulate import PathEnsemble


def make_context(n: int = 2) -> Context:
    """One semimartingale, two deterministic fields, one scalar."""
    ctx = Context(n)
    ctx.semimartingale("z")
    ctx.real_field("ell")
    ctx.complex_field("Phi")
    ctx.real_scalar("lam")
    return ctx


def random_qqi(rng: random.Random) -> QQi:
    return QQi(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
               Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def random_plain_expr(ctx: Context, rng: random.Random, depth: int,
                      allow_z: bool = True, scalars=("lam",), leaf=None):
    """Differential-free expression tree of bounded depth and width.

    Leaves are constants, ell, Phi, z and the real scalars named in
    scalars, or else what leaf(allow_z) draws.  Time derivatives only
    apply to deterministic fields, so subtrees under d_t exclude the
    semimartingale.
    """
    if depth <= 0 or rng.random() < 0.3:
        if leaf is not None:
            return leaf(allow_z)
        kind = rng.randrange(3)
        if kind == 0:
            return Const(random_qqi(rng))
        names = ["ell", "Phi", *scalars] + (["z"] if allow_z else [])
        e = ctx.sym(rng.choice(names))
        return Conj(e) if kind == 2 else e
    kind = rng.randrange(8)
    sub = lambda z=allow_z: random_plain_expr(ctx, rng, depth - 1, allow_z=z,
                                              scalars=scalars, leaf=leaf)
    if kind == 0:
        return Add([sub() for _ in range(rng.randint(1, 3))])
    if kind == 1:
        return Mul([sub() for _ in range(rng.randint(1, 3))])
    if kind == 2:
        return Pow(sub(), 2)
    if kind == 3:
        return d_x(sub(), rng.randint(1, ctx.n))
    if kind == 4:
        return d_t(sub(False))
    if kind == 5:
        return Conj(sub())
    if kind == 6:
        return RePart(sub())
    return ImPart(sub())


def random_expr(ctx: Context, rng: random.Random, depth: int, scalars=("lam",)):
    """Plain tree, optionally carrying one top-level differential."""
    e = random_plain_expr(ctx, rng, depth, scalars=scalars)
    roll = rng.random()
    if roll < 0.15:
        return Mul([e, DT])
    if roll < 0.3:
        return Mul([e, DB])
    if roll < 0.45:
        return ito_d(e)
    return e


def make_ruled_context(n: int, rng: random.Random) -> Context:
    """A context with the constructs of the catalog cases:
    - z, a complex semimartingale;
    - phi, real and ruled in every direction: phi_t = 3 lam phi and
      phi_xj = 0, as in ginzburg_landau;
    - eta, complex and ruled in x1 alone: eta_x1 = lam eta, so its atoms
      carry orders in t and the other directions;
    - ell and Phi, plain real and complex fields;
    - lam, and the real scalars a and b, declared a null pair as in the
      raw cells.
    Half the contexts canonicalize derivatives of phi and eta before the
    rules are set, so a rule must replace what was worked out without it.
    """
    ctx = Context(n)
    ctx.semimartingale("z")
    for name in ("ell", "phi"):
        ctx.real_field(name)
    for name in ("Phi", "eta"):
        ctx.complex_field(name)
    for name in ("lam", "a", "b"):
        ctx.real_scalar(name)
    ctx.declare_null_pair("a", "b")
    if rng.random() < 0.5:
        ruled = [ctx.sym("phi"), ctx.sym("eta"), conj(ctx.sym("eta"))]
        canonicalize(esum(f(s) for s in ruled for f in [
            d_t, ito_d, lambda s: d_x(d_t(s), 1),
            *[lambda s, j=j: d_x(s, j) for j in range(1, n + 1)]]), ctx)
    lam, phi = ctx.sym("lam"), ctx.sym("phi")
    ctx.set_rewrite("phi", "t", Const(QQi(3)) * lam * phi)
    for j in range(1, n + 1):
        ctx.set_rewrite("phi", f"x{j}", Const(QQi(0)))
    ctx.set_rewrite("eta", "x1", lam * ctx.sym("eta"))
    return ctx


def ruled_atom(ctx: Context, rng: random.Random):
    """eta two times in three, else phi, conjugated half the time, under one
    to three derivatives in random directions, t and x1 the likeliest:
    mixed derivative orders on ruled atoms."""
    e = ctx.sym("phi" if rng.random() < 1 / 3 else "eta")
    if rng.random() < 0.5:
        e = Conj(e)
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.4:
            e = d_t(e)
        else:
            e = d_x(e, 1 if roll < 0.75 else rng.randint(1, ctx.n))
    return e


def random_ruled_plain_expr(ctx: Context, rng: random.Random, depth: int):
    """Differential-free tree over make_ruled_context; two leaves in five
    are ruled atoms."""
    def leaf(allow_z):
        roll = rng.random()
        if roll < 0.4:
            return ruled_atom(ctx, rng)
        if roll < 0.5:
            return Const(random_qqi(rng))
        names = ["ell", "Phi", "lam", "a", "b"] + (["z"] if allow_z else [])
        e = ctx.sym(rng.choice(names))
        return Conj(e) if roll < 0.65 else e

    return random_plain_expr(ctx, rng, depth, leaf=leaf)


def random_ruled_expr(ctx: Context, rng: random.Random, depth: int):
    """Tree over make_ruled_context with at most one differential: dt, dB,
    d(e), a product of two d() factors, or d_x of a product with a d()
    factor.  Each d() factor's argument is z times a small tree, so its dB
    part is seldom zero."""
    e = random_ruled_plain_expr(ctx, rng, depth)

    def ito():
        return ito_d(ctx.sym("z") * random_ruled_plain_expr(ctx, rng, 1))

    roll = rng.random()
    if roll < 0.1:
        return Mul([e, DT])
    if roll < 0.2:
        return Mul([e, DB])
    if roll < 0.35:
        return ito_d(e)
    if roll < 0.5:
        return Mul([e, ito(), ito()])
    if roll < 0.65:
        return Mul([ito(), ito()])
    if roll < 0.8:
        return d_x(Mul([e, ito()]), rng.randint(1, ctx.n))
    return e


def zero_paths(M: int, Nt: int, dt: float) -> PathEnsemble:
    """M paths with zero increments: the solver's deterministic special
    cases."""
    return PathEnsemble(M=M, Nt=Nt, dt=dt, increments=np.zeros((M, Nt)))
