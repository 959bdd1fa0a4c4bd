"""Independent numeric oracle: expressions evaluated on random dense jets.

Every declared symbol is given a random truncated jet at an implicit base
point: all Taylor coefficients of its expansion in (x1..xn, t) up to the
order the expression needs.  The coefficients of draw b live in
F_{q_b}[i], q_0 = p = 2^61 - 1 and q_1, q_2, ... the next primes = 3 mod 4
below it; since q_b = 3 mod 4, -1 is not a square mod q_b and F_{q_b}[i]
is a field.  An expression evaluates to three elements of F_{q_b}[i] at
the base point: the differential-free part and the dt and dB
coefficients.

The Ito differential d(e) comes from the same evaluator.  For a
polynomial e, Ito's formula is the Taylor expansion of e(u + du) - e(u)
under dB dB = dt and dt dB = dt dt = 0: the table keeps the first-order
terms and the quadratic variation, and drops every other term.

One call evaluates B draws, each a (seed, base point) pair with jets of
its own, in one walk of the expression DAG per chunk of up to _LANES
draws, all chunks reading one key pass.  Draw b of a chunk is lane b:
every jet coefficient is one int mod N = q_0 q_1 ... q_{B-1}, whose
residue mod q_b is the coefficient of draw b (Chinese remainder
theorem; Knuth, TAOCP Vol. 2, 4.3.2), so a product, sum, derivative or
conjugate of coefficients is a few integer operations for all lanes at
once, and a one-draw call is evaluated in F_p[i] alone.  The walk's
memo is keyed by structure (hash-consing, Filliatre & Conchon 2006), so
equal subtrees built as separate objects share one entry.  It holds only
the subtrees the walk asks for more than once, each until its last
expected read; the jets of every other node are freed as soon as their
parent has used them.  Each subtree is evaluated only on its needed set, the Taylor
coefficients its parents read: the root needs its value, and a
derivative in x_v or t needed on a set S of monomials needs S and
S + e_v of its argument (sparse Taylor propagation, Griewank & Walther,
Evaluating Derivatives, 2008).  The arithmetic is exact, so skipping
the coefficients no parent reads changes no value.

A subtree that is zero by its structure, such as a product with a C(0)
factor, gets the zero key and is not walked; as in the canonicalizer, a
product's factors after its first zero one are not even keyed.  The key
pass checks every node it keys, so the oracle refuses a tree, with
ExprError, exactly when a node it keys is ill-formed, whether the walk
would reach that node or not.

A residual that is not identically zero is a nonzero polynomial of some
degree D in the drawn coefficients, so by the Schwartz-Zippel lemma
draw b misses it with probability at most D/q_b.

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
from itertools import product
from math import comb, prod
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

# The lane primes: q_0 = P, then the next primes = 3 mod 4 below it, as
# offsets from P.  Each F_q[i] is a field, and lane b of a chunk of draws
# is evaluated in F_{q_b}[i].
_Q = tuple(P - d for d in (0, 44, 228, 464, 828, 984, 1152, 1280,
                           1424, 1488, 1524, 1532, 1608, 1620, 1668, 1740))

# The lanes of one walk: a call with more draws walks them in chunks.
# Measured on the oracle benchmark and on a 60-draw n = 3 residual, 12,
# 16 and 24 lanes ran alike; 8 and 32 were slower on the 60 draws.
_LANES = len(_Q)

# A jet is a pair (re, im) of coefficient lists in the graded monomial
# order of a _Layout, or None when it is zero in every draw.  A
# coefficient of a walk over B lanes is one int in [0, N), N the product
# of the first B lane primes, whose residue mod q_b is its value in lane
# b (Chinese remainder theorem); it is 0 exactly when it is zero in every
# lane.  A jet computed on a needed set (see below) holds the right
# coefficient at each position of the set, and may hold anything at the
# other positions of its lists; it serves every needed set inside its
# own.  An Ito triple is (plain, dt, dB) jets.


@functools.cache
def _crt(lanes: int) -> tuple:
    """The modulus N of a walk over lanes lanes, and its CRT basis: e_b is
    1 mod q_b and 0 mod every other lane prime."""
    n = prod(_Q[:lanes])
    return n, tuple(n // q * pow(n // q, -1, q) for q in _Q[:lanes])


class _Layout:
    """Graded enumeration of the monomials in m variables up to an order.

    Monomials of degree d precede those of degree d + 1, so the first
    size[k] monomials are those of degree <= k at every order; tables
    built for a higher order extend those for a lower one, and a position
    names the same monomial at every order.
    """

    def __init__(self, m: int, order: int):
        monos, size = [], []
        for d in range(order + 1):
            monos += sorted((a for a in product(range(d + 1), repeat=m) if sum(a) == d),
                            reverse=True)
            size.append(len(monos))
        self.monos, self.size = monos, size
        self.index = {a: i for i, a in enumerate(monos)}
        # d/dx_v: the coefficient at a comes from a + e_v, times a_v + 1
        top = size[order - 1] if order else 0
        self.dsrc = [[self.index[a[:v] + (a[v] + 1,) + a[v + 1:]] for a in monos[:top]]
                     for v in range(m)]
        self.dfac = [[a[v] + 1 for a in monos[:top]] for v in range(m)]


@functools.cache
def _layout(m: int, order: int) -> _Layout:
    return _Layout(m, order)


# A needed set is an int bitmask over the positions of the graded layout
# of m = n + 1 variables: bit i stands for the coefficient of monos[i].
# With a monomial, a needed set holds every monomial that divides it, so
# the coefficients of a product on the set read its factors on the set
# alone.


@functools.cache
def _order(m: int, mask: int) -> int:
    """The highest degree of a position of mask."""
    d, n = 0, mask.bit_length()
    while comb(d + m, m) < n:
        d += 1
    return d


def _full(m: int, k: int) -> int:
    """The needed set of every monomial of degree <= k."""
    return (1 << comb(k + m, m)) - 1


def _span(m: int, mask: int) -> _Layout:
    """A layout that holds mask and its shift by one degree."""
    return _layout(m, _order(m, mask) + 1)


@functools.cache
def _positions(mask: int) -> tuple:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@functools.cache
def _up(m: int, mask: int, v: int) -> int:
    """What d/dx_v on mask needs of its argument: mask and mask + e_v, so
    that the set still holds every divisor of its monomials."""
    src = _span(m, mask).dsrc[v]
    for i in _positions(mask):
        mask |= 1 << src[i]
    return mask


@functools.cache
def _plan(m: int, mask: int) -> tuple:
    """The product plan of mask: for each position i of mask, the pairs
    (j, t) of positions of mask with monos[i] * monos[j] = monos[t]."""
    lay, pos = _span(m, mask), _positions(mask)
    plan = []
    for i in pos:
        row = []
        for j in pos:
            t = lay.index.get(tuple(x + y for x, y in zip(lay.monos[i], lay.monos[j])))
            if t is not None and mask >> t & 1:
                row.append((j, t))
        plan.append((i, tuple(row)))
    return tuple(plan)


def _fp(q, mod: int) -> int:
    """A rational (numerator / denominator) as an int mod mod, the
    product of a walk's lane primes: its residue mod q_b is the rational
    as an element of F_{q_b}."""
    return q.numerator * pow(q.denominator, -1, mod) % mod


def _add(mask: int, mod: int, jets) -> Optional[tuple]:
    jets = [jet for jet in jets if jet is not None]
    if len(jets) < 2:
        return jets[0] if jets else None
    n = mask.bit_length()
    return tuple([sum(cs) % mod if mask >> i & 1 else 0
                  for i, cs in enumerate(zip(*[jet[part][:n] for jet in jets]))]
                 for part in (0, 1))


def _mul(m: int, mask: int, mod: int, *pairs) -> Optional[tuple]:
    """The sum of the products a b of the jet pairs (a, b), on the
    positions of mask.  Each nonzero coefficient product is added
    straight into its target coefficient, reduced once at the end."""
    n, plan = mask.bit_length(), _plan(m, mask)
    re, im = [0] * n, [0] * n
    for a, b in pairs:
        if a is None or b is None:
            continue
        (ar, ai), (br, bi) = a, b
        for i, row in plan:
            xr, xi = ar[i], ai[i]
            if not (xr or xi):
                continue
            for j, t in row:
                yr, yi = br[j], bi[j]
                if yi:
                    if xi:
                        re[t] += xr * yr - xi * yi
                        im[t] += xr * yi + xi * yr
                    else:
                        re[t] += xr * yr
                        im[t] += xr * yi
                elif yr:
                    re[t] += xr * yr
                    if xi:
                        im[t] += xi * yr
    re = [x % mod for x in re]
    im = [x % mod for x in im]
    return (re, im) if any(re) or any(im) else None


def _diff(m: int, mask: int, mod: int, a, v: int) -> Optional[tuple]:
    """d/dx_v, on the positions of mask, of a jet on _up(m, mask, v)."""
    if a is None:
        return None
    lay = _span(m, mask)
    src, fac = lay.dsrc[v], lay.dfac[v]
    out = []
    for part in a:
        coeffs = [0] * mask.bit_length()
        for i in _positions(mask):
            c, f = part[src[i]], fac[i]
            coeffs[i] = c if f == 1 else c * f % mod
        out.append(coeffs)
    return tuple(out)


def _conj(mod: int, a):
    return None if a is None else (a[0], [c and mod - c for c in a[1]])


def _re(a):
    return None if a is None else (a[0], [0] * len(a[0]))


def _im(a):
    return None if a is None else (a[1], [0] * len(a[1]))


def _ito_mul(m: int, mask: int, mod: int, u, v):
    """(p + qt dt + qb dB)(fp + ft dt + fb dB) with dB dB = dt."""
    p, qt, qb = u
    fp, ft, fb = v
    if qt is None and qb is None and ft is None and fb is None:
        return (_mul(m, mask, mod, (p, fp)), None, None)
    return (
        _mul(m, mask, mod, (p, fp)),
        _mul(m, mask, mod, (p, ft), (qt, fp), (qb, fb)),
        _mul(m, mask, mod, (p, fb), (qb, fp)),
    )


class Gauss(NamedTuple):
    """An element re + im*i of F_q[i], q the lane prime q_b of its draw,
    each part an int in [0, q)."""

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


# Key 0, the zero key, stands for every tree that is zero by its
# structure (see _key).  _structure gives it an unbounded ask count, so
# every node with that key stays in the walk's per-mode dicts, and the
# walk returns _NIL, the zero triple, for it without reading its children.
_NIL = (None, None, None)


def _key(e: Expr, shifted: bool, n: int, keys: tuple, sigs: dict, asks: list, todo: list,
         semi: set) -> int:
    """The structural key of e read in the given mode (see _structure).

    The key is 0, the zero key, for a constant 0, for a product with a
    zero factor, whose later factors are not keyed, as the canonicalizer
    skips them, for a sum of zero terms or of none, for a power of
    exponent at least 1 over a zero base, and for a derivative, d(),
    conjugate or real or imaginary part of a zero argument.  Every node
    keyed is checked, so a tree is refused exactly when a node it keys is
    ill-formed.  A new nonzero key counts one ask of each child, and
    joins semi when its tree holds a semimartingale; a time derivative
    over such a key is refused.  A new symbol adds its rewrites, and
    those of its jets, to todo."""
    t = type(e)
    into = shifted or t is DIto
    seen = keys[into]
    kids = []
    for c in _children(e):
        k = seen[c] if c in seen else _key(c, into, n, keys, sigs, asks, todo, semi)
        if not k and t is Mul:
            keys[shifted][e] = 0
            return 0
        kids.append(k)
    if t is Mul:
        payload = zero = None
    elif t is Add:
        payload, zero = None, not any(kids)
    elif t is Sym:
        payload, zero = e.sym, False
        if shifted and e.sym.semimartingale and e.sym.jets is None:
            raise ExprError(f"semimartingale {e.sym.name!r} has no registered jets")
    elif t is Const:
        payload = (e.value.re, e.value.im)
        zero = not (payload[0] or payload[1])
    elif t is Dx:
        if not 1 <= e.j <= n:
            raise ExprError(f"x{e.j} out of range for dimension {n}")
        payload, zero = e.j, not kids[0]
    elif t is Pow:
        payload, zero = e.exp, e.exp and not kids[0]
    elif t is DtAtom or t is DBAtom or t is DIto:
        if shifted:
            raise ExprError("d() applied to an expression already containing dt or dB")
        payload, zero = None, t is DIto and not kids[0]
    elif t is Dt or t is Conj or t is RePart or t is ImPart:
        payload, zero = None, not kids[0]
    else:
        raise ExprError(f"cannot evaluate node {t.__name__}")
    if zero:
        keys[shifted][e] = 0
        return 0
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


def _structure(root: Expr, m: int) -> tuple:
    """Structural keys for one walk from root, how often it asks for each,
    and what it needs of each.

    The key of a node read in plain or shifted mode is that of (type,
    payload, mode, child keys), so two nodes share a key exactly when
    their trees are equal; a DIto reads its argument in shifted mode.  A
    tree that is zero by its structure gets the zero key instead (see
    _key), and the walk reads none of its children.  The walk meets the
    rewrite expressions of every symbol it meets, and of its jets; they
    do not enter the symbol's key, since a rewrite such as
    phi_t = 3 mu phi refers back to phi.  Every node keyed is checked
    here, and an ill-formed one is refused with ExprError: an x_j out of
    range, a time derivative over a tree that holds a semimartingale,
    d() over dt, dB or d(), a semimartingale read in shifted mode that
    has no registered jets, and a node of unknown type.

    The walk evaluates each key once, on its needed set (see _up): the
    root needs its constant term, the argument of a derivative in x_v or
    t over a needed set S needs S and S + e_v, every other child needs S,
    and a key needs the union of what its parents need of it.  The keys a
    rewrite expression reaches are the exception: their symbol's jet is
    extended one order at a time, so they are evaluated on the full
    graded set of each order asked.  The walk then asks for a key once
    from root and once per occurrence in each distinct parent, and for a
    rewrite expression once per order of its symbol's jet, unboundedly.
    Returns, per mode, the keys of the nodes whose key the walk asks for
    more than once or is zero, the ask count of every key, and the
    needed set of every key, -1 for the full graded set of the asked
    order.
    """
    keys, sigs, asks, todo, semi = ({}, {}), {}, [float("inf")], [root], set()
    for e in todo:
        if e not in keys[0]:
            _key(e, False, m - 1, keys, sigs, asks, todo, semi)
    asks[keys[0][root]] += 1
    need = [0] * len(asks)
    need[keys[0][root]] = 1
    for e in todo[1:]:
        asks[keys[0][e]] = float("inf")
        need[keys[0][e]] = -1
    # A key is numbered after its children, so a sweep from the last key
    # down meets every parent of a key before the key itself.  The zero
    # key has no signature, so the sweep hands nothing down from it.
    for (t, j, _, *kids), k in reversed(sigs.items()):
        s = need[k]
        if s < 0:
            for c in kids:
                need[c] = -1
            continue
        if t is Dt or t is Dx:
            s = _up(m, s, j - 1 if t is Dx else m - 1)
        for c in kids:
            if need[c] >= 0:
                need[c] |= s
    del sigs
    return tuple({e: k for e, k in mode.items() if asks[k] > 1} for mode in keys), asks, need


class _Eval:
    """One walk of an expression DAG carrying B <= _LANES draws.

    Draw b is a (seed, base point) pair, evaluated in lane b, so in
    F_{q_b}[i].  Every symbol draws its jet in draw b from a stream keyed
    by that seed and point and its name, so fresh interpreters agree,
    lazily to the order the expression asks for.  Each null pair of ctx
    is honoured draw by draw by giving one of its names the zero jet: the
    second name for an even seed, the first for an odd one.

    run(e, mask) is the Ito triple of e on the needed set mask.  In
    shifted mode every symbol u reads as the triple u + du: (u, P, Q) for
    a semimartingale du = P dt + Q dB, (u, u_t, 0) for a plain field and
    (u, 0, 0) for a real scalar, so the dt and dB parts of
    run(e, mask, True) are those of d(e).  The memo holds the value of
    each structural key (see _structure) that the walk asks for more than
    once, from its first read to its last expected one, computed on the
    needed set _structure gives the key; structure is _structure's result
    for the walk's root, which the walks of every chunk of a call share.
    """

    def __init__(self, ctx: Context, draws, structure: tuple):
        self.n = ctx.n
        self.streams = [f"{seed}/{point}/" for seed, point in draws]
        self.mod = _crt(len(draws))[0]
        # name -> per-draw flags, True where the draw zeroes the name
        self.zero: dict[str, list] = {}
        for b, (seed, _) in enumerate(draws):
            for pair in ctx.null_pairs:
                self.zero.setdefault(pair[1 - seed % 2], [False] * len(draws))[b] = True
        self.m = self.n + 1
        # name -> [order, re, im, per-draw getrandbits of its stream]
        self.jets: dict[str, list] = {}
        self.keys, asks, self.need = structure
        self.left = list(asks)
        self.memo: dict[int, tuple] = {}  # key -> (needed set, Ito triple)

    @staticmethod
    def _const(mask: int, c: tuple):
        if not (c[0] or c[1]):
            return None
        pad = [0] * (mask.bit_length() - 1)
        return [c[0]] + pad, [c[1]] + pad

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
            bits = [None if mask and mask[b] else random.Random(int.from_bytes(
                        hashlib.sha256((key + sym.name).encode()).digest(), "big")).getrandbits
                    for b, key in enumerate(self.streams)]
            st = self.jets[sym.name] = [-1, [], [], bits]
        done, re, im, bits = st
        if done >= k:
            return re, im
        lay = _layout(self.m, k)
        rules = sorted((self.n if key == ("t",) else key[1] - 1, rw)
                       for key, rw in sym.rewrites.items())
        constant, mod = sym.scalar, self.mod
        for d in range(done + 1, k + 1):
            ruled = [(v, self.run(rw, _full(self.m, d - 1))[0])
                     for v, rw in rules] if d else []
            for a in lay.monos[len(re):lay.size[d]]:
                for v, rj in ruled:
                    if a[v]:
                        if rj is None:
                            re.append(0)
                            im.append(0)
                        else:
                            src = lay.index[a[:v] + (a[v] - 1,) + a[v + 1:]]
                            inv = pow(a[v], -1, mod)
                            re.append(rj[0][src] * inv % mod)
                            im.append(rj[1][src] * inv % mod)
                        break
                else:
                    if constant and d:
                        re.append(0)
                        im.append(0)
                    else:
                        re.append(_draw(bits))
                        im.append(0 if sym.real else _draw(bits))
            st[0] = d
        return re, im

    # -- plain and shifted triples --------------------------------------

    def run(self, e: Expr, mask: int, shifted: bool = False):
        key = self.keys[shifted].get(e)
        if not key:
            return _NIL if key == 0 else self._run(e, mask, shifted)
        # after the last expected read the entry goes; a later one recomputes
        n = self.left[key] = self.left[key] - 1
        hit = self.memo.get(key) if n > 0 else self.memo.pop(key, None)
        if hit is not None and not mask & ~hit[0]:
            return hit[1]
        need = self.need[key]
        mask = need if need >= 0 else _full(self.m, _order(self.m, mask))
        out = self._run(e, mask, shifted)
        if n > 0:
            self.memo[key] = (mask, out)
        return out

    def _run(self, e: Expr, mask: int, shifted: bool):
        m, mod = self.m, self.mod
        if isinstance(e, Mul):
            if not e.factors:  # the empty product is the constant 1
                return (self._const(mask, (1, 0)), None, None)
            out = self.run(e.factors[0], mask, shifted)
            for f in e.factors[1:]:
                out = _ito_mul(m, mask, mod, out, self.run(f, mask, shifted))
            return out
        if isinstance(e, Dx):
            v = e.j - 1
            return tuple(_diff(m, mask, mod, c, v)
                         for c in self.run(e.arg, _up(m, mask, v), shifted))
        if isinstance(e, Add):
            # summed four at a time, so that few term jets are alive at once
            parts = []
            for t in e.terms:
                parts.append(self.run(t, mask, shifted))
                if len(parts) == 4:
                    parts = [tuple(_add(mask, mod, [p[c] for p in parts]) for c in range(3))]
            return tuple(_add(mask, mod, [p[c] for p in parts]) for c in range(3))
        if isinstance(e, Sym):
            sym = e.sym
            k = _order(m, mask)
            u = self.symbol(sym, k)
            if not shifted:
                return (u, None, None)
            if sym.semimartingale:
                p, q = sym.jets
                return (u, self.symbol(p, k), self.symbol(q, k))
            if sym.scalar:
                return (u, None, None)
            # d f = f_t dt for a plain field, read off the jet on S + e_t
            return (u, _diff(m, mask, mod, self.symbol(sym, k + 1), self.n), None)
        if isinstance(e, Const):
            return (self._const(mask, (_fp(e.value.re, mod), _fp(e.value.im, mod))), None, None)
        if isinstance(e, Dt):
            return tuple(_diff(m, mask, mod, c, self.n)
                         for c in self.run(e.arg, _up(m, mask, self.n), shifted))
        if isinstance(e, Pow):
            if not e.exp:
                return (self._const(mask, (1, 0)), None, None)
            base = out = self.run(e.base, mask, shifted)
            for _ in range(e.exp - 1):
                out = _ito_mul(m, mask, mod, out, base)
            return out
        if isinstance(e, DtAtom):
            return (None, self._const(mask, (1, 0)), None)
        if isinstance(e, DBAtom):
            return (None, None, self._const(mask, (1, 0)))
        if isinstance(e, DIto):
            return (None,) + self.run(e.arg, mask, True)[1:]
        if isinstance(e, Conj):
            return tuple(_conj(mod, c) for c in self.run(e.arg, mask, shifted))
        if isinstance(e, RePart):
            return tuple(_re(c) for c in self.run(e.arg, mask, shifted))
        # an ImPart: the key pass refuses every node of another type
        return tuple(_im(c) for c in self.run(e.arg, mask, shifted))


def _draw(bits) -> int:
    """One coefficient over the lanes of bits: in lane b, randrange(q_b)
    of its stream, or 0 where the lane has no stream, joined through the
    CRT basis.  It runs randrange's own loop on the stream's getrandbits,
    61 bits drawn again while they reach q_b, so the residues are the ints
    randrange gives, without its per-call checks."""
    mod, basis = _crt(len(bits))
    x = 0
    for g, q, e in zip(bits, _Q, basis):
        if g is not None:
            r = g(61)
            while r >= q:
                r = g(61)
            x += r * e
    return x % mod


def _values(triple, lanes: int) -> list[JetValue]:
    """The order-0 coefficient of each part of a triple, read in each
    lane as its residues mod the lane prime."""
    parts = [(0, 0) if c is None else (c[0][0], c[1][0]) for c in triple]
    return [JetValue(*(Gauss(re % q, im % q) for re, im in parts)) for q in _Q[:lanes]]


def eval_jet_many(expr: Expr, ctx: Context, draws) -> list[JetValue]:
    """Evaluate expr at every (seed, base point) pair of draws.

    Each draw has every symbol's jet of its own, from a stream keyed by
    its seed, its point and the symbol's name, so the values are
    independent draws.  The draws are walked _LANES at a time, each chunk
    in one walk of expr, and every chunk reads the one key pass of expr.
    Returns, per draw and in the order of draws, the plain value and the
    dt and dB coefficients at the base point, draw b of a chunk in
    F_{q_b}[i]; for a verified identity residual all three are exactly
    zero.
    """
    draws = list(draws)
    if not draws:
        return []
    structure = _structure(expr, ctx.n + 1)
    out = []
    for i in range(0, len(draws), _LANES):
        chunk = draws[i:i + _LANES]
        out += _values(_Eval(ctx, chunk, structure).run(expr, 1), len(chunk))
    return out
