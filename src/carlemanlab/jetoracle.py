"""Independent numeric oracle: expressions evaluated on random dense jets.

Every declared symbol is given a random truncated jet at an implicit base
point: all Taylor coefficients of its expansion in (x1..xn, t) up to the
order the expression needs.  The coefficients live in F_p[i] with
p = 2^61 - 1; since p = 3 mod 4, -1 is not a square mod p and F_p[i] is a
field.  An expression evaluates to three elements of F_p[i] at the base
point: the differential-free part and the dt and dB coefficients.

The Ito differential d(e) comes from the same evaluator.  For a
polynomial e, Ito's formula is the Taylor expansion of e(u + du) - e(u)
under dB dB = dt and dt dB = dt dt = 0: the table keeps the first-order
terms and the quadratic variation, and drops every other term.

One call evaluates B draws, each a (seed, base point) pair with jets of
its own, in a single walk of the expression DAG: every jet coefficient
is a list of B ints, one per draw.  The walk's memo is keyed by
structure (hash-consing, Filliatre & Conchon 2006), so equal subtrees
built as separate objects share one entry.  It holds only the subtrees
the walk asks for more than once, each until its last expected read;
the jets of every other node are freed as soon as their parent has used
them.

A residual that is not identically zero is a nonzero polynomial of some
degree D in the drawn coefficients, so by the Schwartz-Zippel lemma one
draw misses it with probability at most D/p.

A field with derivative rewrites gets the coefficients of its ruled
directions from the rules themselves, order by order, so no assignment
is built by hand for a case.  This module never builds canonical forms
and imports nothing from the canonicalizer or its exact arithmetic; it
re-derives the Ito table directly on jets, so it is an independent
check of the symbolic pipeline.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass
from itertools import product, repeat
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
# order of a _Layout, or None when it is zero in every draw.  A
# coefficient is a list of B ints in [0, p), one per draw, or the int 0
# when it is zero in every draw.  A jet computed to order k serves every
# order below k, since that order's coefficients are a prefix of the
# lists.  An Ito triple is (plain, dt, dB) jets.

# Stands in for a coefficient that is zero in every draw inside zip().
_ZERO = repeat(0)


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


def _lane_sum(cs):
    """Sum of coefficients, draw by draw."""
    cs = list(filter(None, cs))
    if len(cs) < 2:
        return cs[0] if cs else 0
    if len(cs) == 2:
        return [(x + y) % P for x, y in zip(*cs)]
    return [sum(xs) % P for xs in zip(*cs)]


def _add(n: int, jets) -> Optional[tuple]:
    jets = [jet for jet in jets if jet is not None]
    if len(jets) < 2:
        return jets[0] if jets else None
    return tuple([_lane_sum(cs) for cs in zip(*[jet[part][:n] for jet in jets])]
                 for part in (0, 1))


def _mac(ur, ui, xr, xi, yr, yi):
    """(ur + i ui) + (xr + i xi)(yr + i yi), draw by draw, unreduced.

    Any argument may be the zero coefficient 0, but not both parts of x
    or both parts of y.
    """
    if not (xi or yi):
        return [u + a * c for u, a, c in zip(ur or _ZERO, xr, yr)], ui
    z = (xr or _ZERO, xi or _ZERO, yr or _ZERO, yi or _ZERO)
    return ([u + a * c - b * d for u, a, b, c, d in zip(ur or _ZERO, *z)],
            [u + a * d + b * c for u, a, b, c, d in zip(ui or _ZERO, *z)])


def _dot(terms):
    """The sum of the products x y over terms (xr, xi, yr, yi), draw by
    draw and reduced.  Most sums have one or two terms, and take one pass
    over the draws per part."""
    if len(terms) > 2:
        re = im = 0
        for xr, xi, yr, yi in terms:
            re, im = _mac(re, im, xr, xi, yr, yi)
        return re and [x % P for x in re], im and [x % P for x in im]
    first, last = terms[0], terms[-1]
    if not (first[1] or first[3] or last[1] or last[3]):
        if len(terms) == 1:
            return [a * c % P for a, c in zip(first[0], first[2])], 0
        return [(a * c + e * g) % P for a, c, e, g in zip(first[0], first[2],
                                                          last[0], last[2])], 0
    z = [v or _ZERO for term in terms for v in term]
    if len(terms) == 1:
        return ([(a * c - b * d) % P for a, b, c, d in zip(*z)],
                [(a * d + b * c) % P for a, b, c, d in zip(*z)])
    return ([(a * c - b * d + e * g - f * h) % P for a, b, c, d, e, f, g, h in zip(*z)],
            [(a * d + b * c + e * h + f * g) % P for a, b, c, d, e, f, g, h in zip(*z)])


def _mul(lay: _Layout, k: int, *pairs) -> Optional[tuple]:
    """The sum of the products a b of the jet pairs (a, b), truncated at
    order k."""
    if k == 0:
        # one coefficient per jet, so every product lands on it
        terms = [(a[0][0], a[1][0], b[0][0], b[1][0]) for a, b in pairs
                 if a is not None and b is not None
                 and (a[0][0] or a[1][0]) and (b[0][0] or b[1][0])]
        if not terms:
            return None
        re, im = _dot(terms)
        return [re], [im]
    n = lay.size[k]
    size, deg, rows = lay.size, lay.deg, lay.rows
    # the nonzero coefficient products that land on each monomial
    terms = [None] * n
    for a, b in pairs:
        if a is None or b is None:
            continue
        (ar, ai), (br, bi) = a, b
        for i in range(n):
            xr, xi = ar[i], ai[i]
            if not (xr or xi):
                continue
            row = rows[i]
            for j in range(size[k - deg[i]]):
                yr, yi = br[j], bi[j]
                if yr or yi:
                    t = row[j]
                    if terms[t] is None:
                        terms[t] = [(xr, xi, yr, yi)]
                    else:
                        terms[t].append((xr, xi, yr, yi))
    if not any(terms):
        return None
    re, im = [0] * n, [0] * n
    for t in range(n):
        if terms[t]:
            re[t], im[t] = _dot(terms[t])
    return re, im


def _diff(lay: _Layout, k: int, a, v: int) -> Optional[tuple]:
    """d/dx_v of a jet of order k + 1, as a jet of order k."""
    if a is None:
        return None
    src, fac = lay.dsrc[v], lay.dfac[v]
    out = []
    for part in a:
        coeffs = []
        for i in range(lay.size[k]):
            c, f = part[src[i]], fac[i]
            coeffs.append(c if f == 1 or not c else [x * f % P for x in c])
        out.append(coeffs)
    return tuple(out)


def _conj(a):
    return None if a is None else (a[0], [c and [-x % P for x in c] for c in a[1]])


def _re(a):
    return None if a is None else (a[0], [0] * len(a[0]))


def _im(a):
    return None if a is None else (a[1], [0] * len(a[1]))


def _ito_mul(lay: _Layout, k: int, u, v):
    """(p + qt dt + qb dB)(fp + ft dt + fb dB) with dB dB = dt."""
    p, qt, qb = u
    fp, ft, fb = v
    if qt is None and qb is None and ft is None and fb is None:
        return (_mul(lay, k, (p, fp)), None, None)
    return (
        _mul(lay, k, (p, fp)),
        _mul(lay, k, (p, ft), (qt, fp), (qb, fb)),
        _mul(lay, k, (p, fb), (qb, fp)),
    )


class Gauss(NamedTuple):
    """An element re + im*i of F_p[i], each part an int in [0, p)."""

    re: int
    im: int


@dataclass(frozen=True)
class JetValue:
    """Exact evaluation result: plain part plus dt and dB coefficients."""

    value: Gauss
    dt: Gauss
    dB: Gauss

    @property
    def is_zero(self) -> bool:
        return not any(self.value + self.dt + self.dB)


def _children(e: Expr) -> tuple:
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Dx, Dt, DIto, Conj, RePart, ImPart)):
        return (e.arg,)
    return ()


def _key(e: Expr, shifted: bool, keys: tuple, sigs: dict, asks: list, todo: list,
         semi: set) -> int:
    """The structural key of e read in the given mode (see _structure).
    A new key counts one ask of each child, and joins semi when its tree
    holds a semimartingale; a time derivative over such a key is refused.
    A new symbol adds its rewrites, and those of its jets, to todo."""
    t = type(e)
    into = shifted or t is DIto
    seen = keys[into]
    kids = [seen[c] if c in seen else _key(c, into, keys, sigs, asks, todo, semi)
            for c in _children(e)]
    if t is Sym:
        payload = e.sym
    elif t is Const:
        payload = (e.value.re, e.value.im)
    elif t is Pow:
        payload = e.exp
    elif t is Dx:
        payload = e.j
    else:
        payload = None
    k = keys[shifted][e] = sigs.setdefault((t, payload, shifted, *kids), len(asks))
    if k == len(asks):
        asks.append(0)
        for c in kids:
            asks[c] += 1
        if t is Sym:
            if e.sym.semimartingale:
                semi.add(k)
            for s in (e.sym, *(e.sym.jets or ())):
                todo.extend(s.rewrites.values())
        elif not semi.isdisjoint(kids):
            if t is Dt:
                raise ExprError("time derivative applied over a semimartingale")
            semi.add(k)
    return k


def _structure(root: Expr) -> tuple:
    """Structural keys for one walk from root, and how often it asks for each.

    The key of a node read in plain or shifted mode is that of (type,
    payload, mode, child keys), so two nodes share a key exactly when
    their trees are equal; a DIto reads its argument in shifted mode.  The
    walk meets the rewrite expressions of every symbol it meets, and of
    its jets; they do not enter the symbol's key, since a rewrite such as
    phi_t = 3 mu phi refers back to phi.  A time derivative over a tree
    that holds a semimartingale is refused here, with ExprError.

    The walk evaluates each key once, at the highest order it asks of the
    key, except the keys a rewrite expression reaches: their symbol's jet
    is extended one order at a time, so they are evaluated at each order
    asked.  It then asks for a key once from root and once per occurrence
    in each distinct parent, and for a rewrite expression once per order
    of its symbol's jet, unboundedly.  Returns, per mode, the keys of the
    nodes whose key the walk asks for more than once, the ask count of
    every key, and the order to evaluate each key at, -1 for the asked
    order.
    """
    keys, sigs, asks, todo, semi = ({}, {}), {}, [], [root], set()
    for e in todo:
        if e not in keys[0]:
            _key(e, False, keys, sigs, asks, todo, semi)
    asks[keys[0][root]] += 1
    top = [0] * len(asks)
    for e in todo[1:]:
        asks[keys[0][e]] = float("inf")
        top[keys[0][e]] = -1
    # A key is numbered after its children, so a sweep from the last key
    # down meets every parent of a key before the key itself.
    for (t, _, _, *kids), k in reversed(sigs.items()):
        if top[k] < 0:
            for c in kids:
                top[c] = -1
            continue
        order = top[k] + (t is Dx or t is Dt)
        for c in kids:
            if top[c] >= 0:
                top[c] = max(top[c], order)
    del sigs
    return tuple({e: k for e, k in mode.items() if asks[k] > 1} for mode in keys), asks, top


class _Eval:
    """One walk of an expression DAG carrying B draws.

    Draw b is a (seed, base point) pair.  Every symbol draws its jet in
    draw b from a stream keyed by that seed and point and its name, so
    fresh interpreters agree, lazily to the order the expression asks
    for.  Each null pair of ctx is honoured draw by draw by giving one of
    its names the zero jet: the second name for an even seed, the first
    for an odd one.

    run(e, k) is the Ito triple of e.  In shifted mode every symbol u
    reads as the triple u + du: (u, P, Q) for a semimartingale du = P dt +
    Q dB, (u, u_t, 0) for a plain field and (u, 0, 0) for a real scalar,
    so the dt and dB parts of run(e, k, True) are those of d(e).  The
    memo holds the value of each structural key (see _structure) that the
    walk asks for more than once, from its first read to its last
    expected one, computed at the order _structure gives the key.
    """

    def __init__(self, ctx: Context, draws, root: Expr):
        self.n = ctx.n
        self.streams = [f"{seed}/{point}/" for seed, point in draws]
        # name -> per-draw flags, True where the draw zeroes the name
        self.zero: dict[str, list] = {}
        for b, (seed, _) in enumerate(draws):
            for pair in ctx.null_pairs:
                self.zero.setdefault(pair[1 - seed % 2], [False] * len(draws))[b] = True
        self.lay = _layout(self.n + 1, 4)
        self.jets: dict[str, list] = {}  # name -> [order, re, im, per-draw rng]
        self.keys, self.left, self.top = _structure(root)
        self.memo: dict[int, tuple] = {}  # key -> (order, Ito triple)

    def _at(self, k: int) -> _Layout:
        if k > self.lay.order:
            self.lay = _layout(self.n + 1, k + 2)
        return self.lay

    def _const(self, k: int, c: tuple):
        if not (c[0] or c[1]):
            return None
        pad = [0] * (self._at(k).size[k] - 1)
        b = len(self.streams)
        return [c[0] and [c[0]] * b] + pad, [c[1] and [c[1]] * b] + pad

    # -- symbol jets ----------------------------------------------------

    def symbol(self, sym: FieldSymbol, k: int):
        """The jet of sym to order k.  A ruled direction v fixes the
        coefficient at every a with a_v > 0 as [rule_v]_(a - e_v) / a_v;
        the others are drawn, real for real symbols and constant for real
        scalars.  A draw that zeroes sym (a real scalar, so ruled in no
        direction) has no stream: every coefficient of sym is 0 there."""
        mask = self.zero.get(sym.name)
        if mask is not None and all(mask):
            return None
        st = self.jets.get(sym.name)
        if st is None:
            rngs = [None if mask and mask[b] else random.Random(int.from_bytes(
                        hashlib.sha256((key + sym.name).encode()).digest(), "big"))
                    for b, key in enumerate(self.streams)]
            st = self.jets[sym.name] = [-1, [], [], rngs]
        done, re, im, rngs = st
        if done >= k:
            return re, im
        lay = self._at(k)
        rules = sorted((self.n if key == ("t",) else key[1] - 1, rw)
                       for key, rw in sym.rewrites.items())
        constant = sym.kind == "real-scalar"

        def draw():
            return [0 if rng is None else rng.randrange(P) for rng in rngs]

        def ruled_coeff(c, inv):
            if not c:
                return 0
            return c if inv == 1 else [x * inv % P for x in c]

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
                            re.append(ruled_coeff(rj[0][src], inv))
                            im.append(ruled_coeff(rj[1][src], inv))
                        break
                else:
                    if constant and d:
                        re.append(0)
                        im.append(0)
                    else:
                        re.append(draw())
                        im.append(0 if sym.real else draw())
            st[0] = d
        return re, im

    # -- plain and shifted triples --------------------------------------

    def run(self, e: Expr, k: int, shifted: bool = False):
        key = self.keys[shifted].get(e)
        if key is None:
            return self._run(e, k, shifted)
        # after the last expected read the entry goes; a later one recomputes
        n = self.left[key] = self.left[key] - 1
        hit = self.memo.get(key) if n > 0 else self.memo.pop(key, None)
        if hit is not None and hit[0] >= k:
            return hit[1]
        k = max(k, self.top[key])
        out = self._run(e, k, shifted)
        if n > 0:
            self.memo[key] = (k, out)
        return out

    def _run(self, e: Expr, k: int, shifted: bool):
        lay = self._at(k + 1)
        if isinstance(e, Mul):
            out = self.run(e.factors[0], k, shifted)
            for f in e.factors[1:]:
                out = _ito_mul(lay, k, out, self.run(f, k, shifted))
            return out
        if isinstance(e, Dx):
            if not 1 <= e.j <= self.n:
                raise ExprError(f"x{e.j} out of range for dimension {self.n}")
            return tuple(_diff(lay, k, c, e.j - 1) for c in self.run(e.arg, k + 1, shifted))
        if isinstance(e, Add):
            # summed four at a time, so that few term jets are alive at once
            n, parts = lay.size[k], []
            for t in e.terms:
                parts.append(self.run(t, k, shifted))
                if len(parts) == 4:
                    parts = [tuple(_add(n, [p[c] for p in parts]) for c in range(3))]
            return tuple(_add(n, [p[c] for p in parts]) for c in range(3))
        if isinstance(e, Sym):
            sym = e.sym
            u = self.symbol(sym, k)
            if not shifted:
                return (u, None, None)
            if sym.semimartingale:
                if sym.jets is None:
                    raise ExprError(f"semimartingale {sym.name!r} has no registered jets")
                p, q = sym.jets
                return (u, self.symbol(p, k), self.symbol(q, k))
            if sym.kind == "real-scalar":
                return (u, None, None)
            # d f = f_t dt for a plain field
            return (u, _diff(lay, k, self.symbol(sym, k + 1), self.n), None)
        if isinstance(e, Const):
            return (self._const(k, (_fp(e.value.re), _fp(e.value.im))), None, None)
        if isinstance(e, Dt):
            return tuple(_diff(lay, k, c, self.n) for c in self.run(e.arg, k + 1, shifted))
        if isinstance(e, Pow):
            if not e.exp:
                return (self._const(k, (1, 0)), None, None)
            base = out = self.run(e.base, k, shifted)
            for _ in range(e.exp - 1):
                out = _ito_mul(lay, k, out, base)
            return out
        if shifted and isinstance(e, (DtAtom, DBAtom, DIto)):
            raise ExprError("d() applied to an expression already containing dt or dB")
        if isinstance(e, DtAtom):
            return (None, self._const(k, (1, 0)), None)
        if isinstance(e, DBAtom):
            return (None, None, self._const(k, (1, 0)))
        if isinstance(e, DIto):
            return (None,) + self.run(e.arg, k, True)[1:]
        if isinstance(e, Conj):
            return tuple(_conj(c) for c in self.run(e.arg, k, shifted))
        if isinstance(e, RePart):
            return tuple(_re(c) for c in self.run(e.arg, k, shifted))
        if isinstance(e, ImPart):
            return tuple(_im(c) for c in self.run(e.arg, k, shifted))
        raise ExprError(f"cannot evaluate node {type(e).__name__}")


def _values(triple, b: int) -> list[JetValue]:
    """The order-0 coefficient of each part of a triple, one value per draw."""
    parts = []
    for c in triple:
        re, im = (None, None) if c is None else (c[0][0], c[1][0])
        parts.append([Gauss(*g) for g in zip(re or [0] * b, im or [0] * b)])
    return [JetValue(*v) for v in zip(*parts)]


def eval_jet_many(expr: Expr, ctx: Context, draws) -> list[JetValue]:
    """Evaluate expr at every (seed, base point) pair of draws.

    Each draw has every symbol's jet of its own, from a stream keyed by
    its seed, its point and the symbol's name, so the values are
    independent draws; all of them are evaluated in one walk of expr.
    Returns, per draw and in the order of draws, the plain value and the
    dt and dB coefficients at the base point; for a verified identity
    residual all three are exactly zero.
    """
    draws = list(draws)
    if not draws:
        return []
    return _values(_Eval(ctx, draws, expr).run(expr, 0), len(draws))
