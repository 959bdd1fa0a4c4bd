"""Independent numeric oracle: expressions evaluated on random dense jets.

Every declared symbol is given a random truncated jet at an implicit base
point: all Taylor coefficients of its expansion in (x1..xn, t) up to the
order the expression needs.  The coefficients live in F_p[i] with
p = 2^61 - 1; since p = 3 mod 4, -1 is not a square mod p and F_p[i] is a
field.  An expression evaluates to three elements of F_p[i] at the base
point: the differential-free part and the dt and dB coefficients.

A residual that is not identically zero is a nonzero polynomial of some
degree D in the drawn coefficients, so by the Schwartz-Zippel lemma one
draw misses it with probability at most D/p.

A field with derivative rewrites gets the coefficients of its ruled
directions from the rules themselves, order by order, so no assignment
is built by hand for a case.  This module never builds canonical forms
and imports nothing from the canonicalizer or its exact arithmetic; it
re-derives the product rules directly on jets, so it is an independent
check of the symbolic pipeline.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Optional

from .exprs import (
    Add,
    Conj,
    Const,
    Context,
    DBAtom,
    DIto,
    DtAtom,
    Dt,
    Dx,
    Expr,
    ExprError,
    FieldSymbol,
    ImPart,
    Mul,
    Pow,
    RePart,
    Sym,
)

P = (1 << 61) - 1

# A jet is a pair (re, im) of coefficient lists in the graded monomial
# order of a _Layout, or None for the zero jet.  A jet computed to order
# k serves every order below k, since that order's coefficients are a
# prefix of the lists.  An Ito triple is (plain, dt, dB) jets.


class _Layout:
    """Graded enumeration of the monomials in m variables up to an order.

    Monomials of degree d precede those of degree d + 1, so the first
    size[k] monomials are those of degree <= k at every order; tables
    built for a higher order extend those for a lower one.
    """

    def __init__(self, m: int, order: int):
        self.order = order
        monos, size = [], []
        for d in range(order + 1):
            monos += sorted((a for a in product(range(d + 1), repeat=m) if sum(a) == d),
                            reverse=True)
            size.append(len(monos))
        self.monos, self.size = monos, size
        self.index = {a: i for i, a in enumerate(monos)}
        self.deg = [sum(a) for a in monos]
        # rows[i][j]: index of monos[i] * monos[j], for deg i + deg j <= order
        self.rows = [
            [self.index[tuple(x + y for x, y in zip(a, b))]
             for b in monos[:size[order - self.deg[i]]]]
            for i, a in enumerate(monos)
        ]
        # d/dx_v: the coefficient at a comes from a + e_v, times a_v + 1
        top = size[order - 1] if order else 0
        self.dsrc = [[self.index[a[:v] + (a[v] + 1,) + a[v + 1:]] for a in monos[:top]]
                     for v in range(m)]
        self.dfac = [[a[v] + 1 for a in monos[:top]] for v in range(m)]


@functools.cache
def _layout(m: int, order: int) -> _Layout:
    return _Layout(m, order)


def _fp(q) -> int:
    """A rational (numerator / denominator) as an element of F_p."""
    return q.numerator * pow(q.denominator, -1, P) % P


def _add(n: int, jets) -> Optional[tuple]:
    re, im, seen = [0] * n, [0] * n, False
    for jet in jets:
        if jet is not None:
            seen = True
            jr, ji = jet
            for i in range(n):
                re[i] += jr[i]
                im[i] += ji[i]
    if not seen:
        return None
    return [x % P for x in re], [x % P for x in im]


def _mul(lay: _Layout, k: int, a, b) -> Optional[tuple]:
    """Product of two jets, truncated at order k."""
    if a is None or b is None:
        return None
    (ar, ai), (br, bi) = a, b
    if k == 0:
        return ([(ar[0] * br[0] - ai[0] * bi[0]) % P],
                [(ar[0] * bi[0] + ai[0] * br[0]) % P])
    n = lay.size[k]
    re, im = [0] * n, [0] * n
    size, deg, rows = lay.size, lay.deg, lay.rows
    for i in range(n):
        xr, xi = ar[i], ai[i]
        if not (xr or xi):
            continue
        row = rows[i]
        for j in range(size[k - deg[i]]):
            yr, yi = br[j], bi[j]
            if yr or yi:
                t = row[j]
                re[t] += xr * yr - xi * yi
                im[t] += xr * yi + xi * yr
    return [x % P for x in re], [x % P for x in im]


def _diff(lay: _Layout, k: int, a, v: int) -> Optional[tuple]:
    """d/dx_v of a jet of order k + 1, as a jet of order k."""
    if a is None:
        return None
    src, fac = lay.dsrc[v], lay.dfac[v]
    ar, ai = a
    n = lay.size[k]
    return ([ar[src[i]] * fac[i] % P for i in range(n)],
            [ai[src[i]] * fac[i] % P for i in range(n)])


def _conj(a):
    return None if a is None else (a[0], [-x % P for x in a[1]])


def _re(a):
    return None if a is None else (a[0], [0] * len(a[0]))


def _im(a):
    return None if a is None else (a[1], [0] * len(a[1]))


def _ito_mul(lay: _Layout, k: int, u, v):
    """(p + qt dt + qb dB)(fp + ft dt + fb dB) with dB dB = dt."""
    p, qt, qb = u
    fp, ft, fb = v
    if qt is None and qb is None and ft is None and fb is None:
        return (_mul(lay, k, p, fp), None, None)
    return (
        _mul(lay, k, p, fp),
        _add(lay.size[k], (_mul(lay, k, p, ft), _mul(lay, k, qt, fp), _mul(lay, k, qb, fb))),
        _add(lay.size[k], (_mul(lay, k, p, fb), _mul(lay, k, qb, fp))),
    )


class Gauss(NamedTuple):
    """An element re + im*i of F_p[i], each part an int in [0, p)."""

    re: int
    im: int


@dataclass(frozen=True)
class JetAssignment:
    """Where the jets of one assignment come from.

    Every symbol of ctx draws its jet from a stream keyed by seed, the
    base point and its name, so fresh interpreters agree.  Each null pair
    of ctx is honoured by giving one of its names the zero jet: the
    second name for an even seed, the first for an odd one.
    """

    ctx: Context
    seed: int


@dataclass(frozen=True)
class JetValue:
    """Exact evaluation result: plain part plus dt and dB coefficients."""

    value: Gauss
    dt: Gauss
    dB: Gauss

    @property
    def is_zero(self) -> bool:
        return not any(self.value + self.dt + self.dB)


class _Eval:
    """One draw: the jets of every symbol at one base point, drawn lazily
    to the order the expression asks for."""

    def __init__(self, assignment: JetAssignment, point):
        self.a = assignment
        self.key = f"{assignment.seed}/{point}/"
        self.n = assignment.ctx.n
        self.zero = {pair[1 - assignment.seed % 2] for pair in assignment.ctx.null_pairs}
        self.lay = _layout(self.n + 1, 4)
        self.jets: dict[str, list] = {}  # name -> [order, re, im, rng]
        self.memo: dict[int, tuple] = {}  # id -> (order, Ito triple)
        self.dmemo: dict[int, tuple] = {}  # id -> (order, (dt, dB))

    def _at(self, k: int) -> _Layout:
        if k > self.lay.order:
            self.lay = _layout(self.n + 1, k + 2)
        return self.lay

    def _const(self, k: int, c: tuple):
        if not (c[0] or c[1]):
            return None
        pad = [0] * (self._at(k).size[k] - 1)
        return [c[0]] + pad, [c[1]] + pad

    # -- symbol jets ----------------------------------------------------

    def symbol(self, sym: FieldSymbol, k: int):
        """The jet of sym to order k.  A ruled direction v fixes the
        coefficient at every a with a_v > 0 as [rule_v]_(a - e_v) / a_v;
        the others are drawn, real for real symbols and constant for real
        scalars."""
        if sym.name in self.zero:
            return None
        st = self.jets.get(sym.name)
        if st is None:
            digest = hashlib.sha256((self.key + sym.name).encode()).digest()
            st = self.jets[sym.name] = [-1, [], [], random.Random(int.from_bytes(digest, "big"))]
        done, re, im, rng = st
        if done >= k:
            return re, im
        lay = self._at(k)
        rules = sorted((self.n if key == ("t",) else key[1] - 1, rw)
                       for key, rw in sym.rewrites.items())
        constant = sym.kind == "real-scalar"
        for d in range(done + 1, k + 1):
            ruled = [(v, self.run(rw, d - 1)[0]) for v, rw in rules] if d else []
            for a in lay.monos[len(re):lay.size[d]]:
                for v, rj in ruled:
                    if a[v]:
                        if rj is None:
                            re.append(0)
                            im.append(0)
                        else:
                            src = lay.index[a[:v] + (a[v] - 1,) + a[v + 1:]]
                            inv = pow(a[v], -1, P)
                            re.append(rj[0][src] * inv % P)
                            im.append(rj[1][src] * inv % P)
                        break
                else:
                    if constant and d:
                        re.append(0)
                        im.append(0)
                    else:
                        re.append(rng.randrange(P))
                        im.append(0 if sym.real else rng.randrange(P))
            st[0] = d
        return re, im

    # -- plain/differential triple ------------------------------------

    def run(self, e: Expr, k: int):
        hit = self.memo.get(id(e))
        if hit is not None and hit[0] >= k:
            return hit[1]
        out = self._run(e, k)
        self.memo[id(e)] = (k, out)
        return out

    def _run(self, e: Expr, k: int):
        lay = self._at(k + 1)
        if isinstance(e, Mul):
            out = self.run(e.factors[0], k)
            for f in e.factors[1:]:
                out = _ito_mul(lay, k, out, self.run(f, k))
            return out
        if isinstance(e, Dx):
            return tuple(_diff(lay, k, c, e.j - 1) for c in self.run(e.arg, k + 1))
        if isinstance(e, Add):
            parts = [self.run(t, k) for t in e.terms]
            return tuple(_add(lay.size[k], [p[c] for p in parts]) for c in range(3))
        if isinstance(e, Sym):
            return (self.symbol(e.sym, k), None, None)
        if isinstance(e, Const):
            return (self._const(k, (_fp(e.value.re), _fp(e.value.im))), None, None)
        if isinstance(e, Dt):
            if _contains_semimartingale(e.arg):
                raise ExprError("time derivative applied over a semimartingale")
            return tuple(_diff(lay, k, c, self.n) for c in self.run(e.arg, k + 1))
        if isinstance(e, Pow):
            out = (self._const(k, (1, 0)), None, None)
            for _ in range(e.exp):
                out = _ito_mul(lay, k, out, self.run(e.base, k))
            return out
        if isinstance(e, DtAtom):
            return (None, self._const(k, (1, 0)), None)
        if isinstance(e, DBAtom):
            return (None, None, self._const(k, (1, 0)))
        if isinstance(e, DIto):
            return (None,) + self.dval(e.arg, k)
        if isinstance(e, Conj):
            return tuple(_conj(c) for c in self.run(e.arg, k))
        if isinstance(e, RePart):
            return tuple(_re(c) for c in self.run(e.arg, k))
        if isinstance(e, ImPart):
            return tuple(_im(c) for c in self.run(e.arg, k))
        raise ExprError(f"cannot evaluate node {type(e).__name__}")

    # -- Ito differential of a differential-free expression -------------

    def dval(self, e: Expr, k: int):
        hit = self.dmemo.get(id(e))
        if hit is not None and hit[0] >= k:
            return hit[1]
        out = self._dval(e, k)
        self.dmemo[id(e)] = (k, out)
        return out

    def _dval(self, e: Expr, k: int):
        lay = self._at(k + 1)
        if isinstance(e, Const):
            return (None, None)
        if isinstance(e, (DtAtom, DBAtom, DIto)):
            raise ExprError("d() applied to an expression already containing dt or dB")
        if isinstance(e, Sym):
            sym = e.sym
            if sym.semimartingale:
                if sym.jets is None:
                    raise ExprError(f"semimartingale {sym.name!r} has no registered jets")
                p, q = sym.jets
                return (self.symbol(p, k), self.symbol(q, k))
            if sym.kind == "real-scalar":
                return (None, None)
            # d f = f_t dt for a plain field
            return (_diff(lay, k, self.symbol(sym, k + 1), self.n), None)
        if isinstance(e, Add):
            parts = [self.dval(t, k) for t in e.terms]
            return tuple(_add(lay.size[k], [p[c] for p in parts]) for c in range(2))
        if isinstance(e, Mul):
            return self._dval_product(list(e.factors), k)
        if isinstance(e, Pow):
            return self._dval_product([e.base] * e.exp, k)
        if isinstance(e, Dx):
            return tuple(_diff(lay, k, c, e.j - 1) for c in self.dval(e.arg, k + 1))
        if isinstance(e, Dt):
            return tuple(_diff(lay, k, c, self.n) for c in self.dval(e.arg, k + 1))
        if isinstance(e, Conj):
            return tuple(_conj(c) for c in self.dval(e.arg, k))
        if isinstance(e, RePart):
            return tuple(_re(c) for c in self.dval(e.arg, k))
        if isinstance(e, ImPart):
            return tuple(_im(c) for c in self.dval(e.arg, k))
        raise ExprError(f"cannot apply d() over node {type(e).__name__}")

    def _dval_product(self, factors: list[Expr], k: int):
        if not factors:
            return (None, None)
        head, rest = factors[0], factors[1:]
        hdt, hdb = self.dval(head, k)
        if not rest:
            return (hdt, hdb)
        lay = self._at(k)
        rdt, rdb = self._dval_product(rest, k)
        hp = self.run(head, k)[0]
        rp = self.run(rest[0], k)[0]
        for f in rest[1:]:
            rp = _mul(lay, k, rp, self.run(f, k)[0])
        # d(uv) = u dv + v du + du dv, with du dv = (dB parts) dt
        n = lay.size[k]
        out_dt = _add(n, (_mul(lay, k, hp, rdt), _mul(lay, k, rp, hdt), _mul(lay, k, hdb, rdb)))
        out_db = _add(n, (_mul(lay, k, hp, rdb), _mul(lay, k, rp, hdb)))
        return (out_dt, out_db)


def _contains_semimartingale(e: Expr) -> bool:
    if isinstance(e, Sym):
        return e.sym.semimartingale
    if isinstance(e, (Add, Mul)):
        kids = e.terms if isinstance(e, Add) else e.factors
        return any(_contains_semimartingale(k) for k in kids)
    if isinstance(e, Pow):
        return _contains_semimartingale(e.base)
    if isinstance(e, (Dx, Dt, DIto, Conj, RePart, ImPart)):
        return _contains_semimartingale(e.arg)
    return False


def eval_jet_many(expr: Expr, assignment: JetAssignment, points) -> list[JetValue]:
    """Evaluate expr once per base point in points.

    Each base point draws every symbol's jet afresh (its stream is keyed
    by the assignment's seed, the point and the symbol's name), so the
    values are independent draws.  Returns the plain value and the dt and
    dB coefficients at each base point; for a verified identity residual
    all three are exactly zero.
    """
    out = []
    for point in points:
        triple = _Eval(assignment, point).run(expr, 0)
        out.append(JetValue(*(Gauss(0, 0) if c is None else Gauss(c[0][0], c[1][0])
                              for c in triple)))
    return out
