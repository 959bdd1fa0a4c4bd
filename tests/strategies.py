"""Shared generators: a standard context, random expression trees, and the
noise-free path ensemble of the deterministic solver checks."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

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
    d_t,
    d_x,
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
                      allow_z: bool = True, scalars=("lam",)):
    """Differential-free expression tree of bounded depth and width.

    Leaves are constants, ell, Phi, z and the real scalars named in
    scalars.  Time derivatives only apply to deterministic fields, so
    subtrees under d_t exclude the semimartingale.
    """
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            return Const(random_qqi(rng))
        names = ["ell", "Phi", *scalars] + (["z"] if allow_z else [])
        e = ctx.sym(rng.choice(names))
        return Conj(e) if kind == 2 else e
    kind = rng.randrange(8)
    sub = lambda z=allow_z: random_plain_expr(ctx, rng, depth - 1, allow_z=z,
                                              scalars=scalars)
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


def zero_paths(M: int, Nt: int, dt: float) -> PathEnsemble:
    """M paths with zero increments: the solver's deterministic special
    cases."""
    return PathEnsemble(M=M, Nt=Nt, dt=dt, increments=np.zeros((M, Nt)))
