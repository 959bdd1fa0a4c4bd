"""Canonical polynomial forms with the Ito multiplication table.

A canonical form maps monomials to exact rational-complex coefficients.
A monomial is a sorted multiset of atoms; an atom is either a derivative
of a declared field (name, spatial multi-index, time order, conjugation
flag) or one of the formal differentials dt, dB.  Products reduce by the
Ito table: dB*dB -> dt, dt*dB -> 0, dt*dt -> 0, so nonzero monomials
carry total differential degree at most one.

Two expressions are equal as identities exactly when their canonical
forms are byte-identical, which is what the verifier relies on.
"""

from __future__ import annotations

import math
from typing import Optional

from .exact import QQi, format_qqi
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
    ImPart,
    Mul,
    Pow,
    RePart,
    Sym,
)

# Atom keys.  Field atoms sort before differentials ("f" < "q").
DT_KEY = ("q", 0)
DB_KEY = ("q", 1)

_ZERO = QQi(0)
_ONE = QQi(1)
_HALF = QQi(0) + QQi(1) / QQi(2)
_MINUS_I_HALF = QQi(0, -1) / QQi(2)

EMPTY_MONO = ()


def _field_key(name: str, mi: tuple, to: int, cj: bool):
    return ("f", name, mi, to, cj)


# ---------------------------------------------------------------------------
# Monomial helpers.  A monomial is a tuple of (atom_key, exponent) pairs
# sorted by atom key.
# ---------------------------------------------------------------------------


def _mono_from_items(items, ctx: Context):
    """Sort, Ito-reduce and null-check a list of (key, exp) pairs.

    Returns the normalized monomial, or None when it reduces to zero.
    """
    counts: dict = {}
    for key, e in items:
        counts[key] = counts.get(key, 0) + e
    ndt = counts.pop(DT_KEY, 0)
    ndb = counts.pop(DB_KEY, 0)
    if ndb >= 3 or ndt >= 2 or (ndt == 1 and ndb >= 1):
        return None
    if ndb == 2:
        ndt, ndb = 1, 0
    names = [k[1] for k in counts if counts[k]]
    if ctx.annihilates(names):
        return None
    out = [(k, e) for k, e in counts.items() if e]
    if ndt:
        out.append((DT_KEY, ndt))
    if ndb:
        out.append((DB_KEY, ndb))
    out.sort(key=lambda p: p[0])
    return tuple(out)


def _mono_mul(m1, m2, ctx: Context):
    if not m1:
        return m2 if m2 is not None else None
    if not m2:
        return m1
    return _mono_from_items(list(m1) + list(m2), ctx)


def _mono_without(mono, key, k=1):
    """Remove k powers of key from mono (which must contain them)."""
    out = []
    for kk, e in mono:
        if kk == key:
            e -= k
            if e < 0:
                raise ExprError("internal: monomial power underflow")
        if e:
            out.append((kk, e))
    return tuple(out)


def _mono_has_differential(mono) -> bool:
    return any(k[0] == "q" for k, _ in mono)


# ---------------------------------------------------------------------------
# Raw canonical-form (dict) algebra
# ---------------------------------------------------------------------------


def _cf_add_inplace(acc: dict, other: dict) -> None:
    for mono, coeff in other.items():
        cur = acc.get(mono)
        new = coeff if cur is None else cur + coeff
        if new.is_zero():
            acc.pop(mono, None)
        else:
            acc[mono] = new


def _cf_scale(cf: dict, coeff: QQi) -> dict:
    if coeff.is_zero():
        return {}
    return {m: c * coeff for m, c in cf.items()}


def _cf_mul(c1: dict, c2: dict, ctx: Context) -> dict:
    out: dict = {}
    if not c1 or not c2:
        return out
    # Iterate over the smaller operand outside for fewer dict rebuilds.
    if len(c1) > len(c2):
        c1, c2 = c2, c1
    for m1, k1 in c1.items():
        for m2, k2 in c2.items():
            mono = _mono_mul(m1, m2, ctx)
            if mono is None:
                continue
            coeff = k1 * k2
            cur = out.get(mono)
            new = coeff if cur is None else cur + coeff
            if new.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = new
    return out


def _cf_pow(cf: dict, k: int, ctx: Context) -> dict:
    out = {EMPTY_MONO: _ONE}
    for _ in range(k):
        out = _cf_mul(out, cf, ctx)
    return out


def _atom_conj(key, ctx: Context):
    if key[0] == "q":
        return key
    _, name, mi, to, cj = key
    if ctx.symbols[name].real:
        return key
    return ("f", name, mi, to, not cj)


def _cf_conj(cf: dict, ctx: Context) -> dict:
    out: dict = {}
    for mono, coeff in cf.items():
        items = [(_atom_conj(k, ctx), e) for k, e in mono]
        items.sort(key=lambda p: p[0])
        out[tuple(items)] = coeff.conj()
    return out


def _atom_diff(key, var, ctx: Context) -> dict:
    """Derivative of a single atom as a canonical form."""
    if key[0] == "q":
        return {}
    _, name, mi, to, cj = key
    sym = ctx.symbols[name]
    if sym.kind == "real-scalar":
        return {}
    if var == ("t",) and sym.semimartingale:
        raise ExprError(f"time derivative of semimartingale {name!r} is not defined")
    rw = sym.rewrites.get(var)
    if rw is None:
        if var[0] == "x":
            j = var[1]
            if not 1 <= j <= ctx.n:
                raise ExprError(f"x{j} out of range for dimension {ctx.n}")
            mi2 = tuple(m + 1 if idx == j - 1 else m for idx, m in enumerate(mi))
            return {((("f", name, mi2, to, cj), 1),): _ONE}
        return {((("f", name, mi, to + 1, cj), 1),): _ONE}
    # Rewrite-bearing direction: differentiate the rewrite by the orders
    # the atom already carries, then conjugate if the atom was conjugated.
    cf = _canon(rw, ctx, {})
    for j, order in enumerate(mi, start=1):
        for _ in range(order):
            cf = _cf_diff(cf, ("x", j), ctx)
    for _ in range(to):
        cf = _cf_diff(cf, ("t",), ctx)
    if cj:
        cf = _cf_conj(cf, ctx)
    return cf


def _cf_diff(cf: dict, var, ctx: Context) -> dict:
    out: dict = {}
    for mono, coeff in cf.items():
        for key, e in mono:
            if key[0] == "q":
                continue  # differentials are constants under derivatives
            datom = _atom_diff(key, var, ctx)
            if not datom:
                continue
            rest = _mono_without(mono, key)
            base = {rest: coeff * QQi(e)}
            _cf_add_inplace(out, _cf_mul(base, datom, ctx))
    return out


def _atom_ito(key, ctx: Context) -> dict:
    """d(atom): jets for semimartingales, (d/dt) dt for deterministic fields."""
    _, name, mi, to, cj = key
    sym = ctx.symbols[name]
    if sym.kind == "real-scalar":
        return {}
    if sym.semimartingale:
        if sym.jets is None:
            raise ExprError(f"semimartingale {name!r} has no registered jets")
        p, q = sym.jets
        pk = _field_key(p.name, mi, to, cj and not p.real)
        qk = _field_key(q.name, mi, to, cj and not q.real)
        return {
            tuple(sorted([(pk, 1), (DT_KEY, 1)])): _ONE,
            tuple(sorted([(qk, 1), (DB_KEY, 1)])): _ONE,
        }
    dtpart = _atom_diff(key, ("t",), ctx)
    return _cf_mul(dtpart, {((DT_KEY, 1),): _ONE}, ctx)


def _cf_ito(cf: dict, ctx: Context) -> dict:
    out: dict = {}
    for mono, coeff in cf.items():
        if _mono_has_differential(mono):
            raise ExprError("d() applied to an expression already containing dt or dB")
        atoms = list(mono)
        # Leibniz first-order part.
        for key, e in atoms:
            datom = _atom_ito(key, ctx)
            if not datom:
                continue
            rest = _mono_without(mono, key)
            base = {rest: coeff * QQi(e)}
            _cf_add_inplace(out, _cf_mul(base, datom, ctx))
        # Quadratic covariation: only semimartingale atoms carry dB.
        sm = [
            (key, e)
            for key, e in atoms
            if key[0] == "f" and ctx.symbols[key[1]].semimartingale
        ]
        for i, (ki, ei) in enumerate(sm):
            for kj, ej in sm[i:]:
                if ki == kj:
                    if ei < 2:
                        continue
                    mult = QQi(math.comb(ei, 2))
                    rest = _mono_without(mono, ki, 2)
                else:
                    mult = QQi(ei * ej)
                    rest = _mono_without(_mono_without(mono, ki), kj)
                cross = _cf_mul(_atom_ito(ki, ctx), _atom_ito(kj, ctx), ctx)
                if not cross:
                    continue
                base = {rest: coeff * mult}
                _cf_add_inplace(out, _cf_mul(base, cross, ctx))
    return out


# ---------------------------------------------------------------------------
# Expression -> canonical form
# ---------------------------------------------------------------------------


def _canon(e: Expr, ctx: Context, memo: dict) -> dict:
    key = id(e)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(e, Const):
        out = {} if e.value.is_zero() else {EMPTY_MONO: e.value}
    elif isinstance(e, Sym):
        name = e.sym.name
        if name not in ctx.symbols or ctx.symbols[name] is not e.sym:
            raise ExprError(f"symbol {name!r} does not belong to this context")
        if e.sym.kind == "real-scalar" and ctx.annihilates([name]):
            out = {}
        else:
            out = {((_field_key(name, (0,) * ctx.n, 0, False), 1),): _ONE}
    elif isinstance(e, DtAtom):
        out = {((DT_KEY, 1),): _ONE}
    elif isinstance(e, DBAtom):
        out = {((DB_KEY, 1),): _ONE}
    elif isinstance(e, Add):
        out = {}
        for t in e.terms:
            _cf_add_inplace(out, _canon(t, ctx, memo))
    elif isinstance(e, Mul):
        out = {EMPTY_MONO: _ONE}
        for f in e.factors:
            out = _cf_mul(out, _canon(f, ctx, memo), ctx)
            if not out:
                break
    elif isinstance(e, Pow):
        out = _cf_pow(_canon(e.base, ctx, memo), e.exp, ctx)
    elif isinstance(e, Dx):
        out = _cf_diff(_canon(e.arg, ctx, memo), ("x", e.j), ctx)
    elif isinstance(e, Dt):
        out = _cf_diff(_canon(e.arg, ctx, memo), ("t",), ctx)
    elif isinstance(e, DIto):
        out = _cf_ito(_canon(e.arg, ctx, memo), ctx)
    elif isinstance(e, Conj):
        out = _cf_conj(_canon(e.arg, ctx, memo), ctx)
    elif isinstance(e, RePart):
        inner = _canon(e.arg, ctx, memo)
        out = {}
        _cf_add_inplace(out, _cf_scale(inner, _HALF))
        _cf_add_inplace(out, _cf_scale(_cf_conj(inner, ctx), _HALF))
    elif isinstance(e, ImPart):
        inner = _canon(e.arg, ctx, memo)
        out = {}
        _cf_add_inplace(out, _cf_scale(inner, _MINUS_I_HALF))
        _cf_add_inplace(out, _cf_scale(_cf_conj(inner, ctx), -_MINUS_I_HALF))
    else:
        raise ExprError(f"cannot canonicalize node {type(e).__name__}")
    memo[key] = out
    return out


# ---------------------------------------------------------------------------
# Public wrapper
# ---------------------------------------------------------------------------


def atom_str(key) -> str:
    """Deterministic text form of one atom (used by serialize and reports)."""
    if key == DT_KEY:
        return "dt"
    if key == DB_KEY:
        return "dB"
    _, name, mi, to, cj = key
    suffix = "".join(f"x{j}" * order for j, order in enumerate(mi, start=1))
    suffix += "t" * to
    base = name if not suffix else f"{name}_{suffix}"
    return f"conj({base})" if cj else base


def mono_str(mono) -> str:
    if not mono:
        return "1"
    parts = []
    for key, e in mono:
        s = atom_str(key)
        parts.append(s if e == 1 else f"{s}^{e}")
    return "*".join(parts)


class CanonicalForm:
    """Immutable-by-convention canonical form bound to its Context."""

    __slots__ = ("_terms", "ctx")

    def __init__(self, terms: dict, ctx: Context):
        self._terms = terms
        self.ctx = ctx

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self):
        return sorted(self._terms.items(), key=lambda p: p[0])

    def coeff(self, mono) -> QQi:
        return self._terms.get(mono, _ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self.terms()))

    def __add__(self, other: "CanonicalForm") -> "CanonicalForm":
        out = dict(self._terms)
        _cf_add_inplace(out, other._terms)
        return CanonicalForm(out, self.ctx)

    def __sub__(self, other: "CanonicalForm") -> "CanonicalForm":
        out = dict(self._terms)
        _cf_add_inplace(out, _cf_scale(other._terms, QQi(-1)))
        return CanonicalForm(out, self.ctx)

    def __mul__(self, other: "CanonicalForm") -> "CanonicalForm":
        return CanonicalForm(_cf_mul(self._terms, other._terms, self.ctx), self.ctx)

    def serialize(self) -> str:
        """Sorted, deterministic text rendering, one monomial per line."""
        lines = [f"{format_qqi(coeff)} * {mono_str(mono)}" for mono, coeff in self.terms()]
        return "\n".join(lines)

    def monomial_strs(self) -> list[str]:
        return [mono_str(mono) for mono, _ in self.terms()]

    def to_expr(self) -> Expr:
        """Rebuild an expression tree; canonicalizing it reproduces self."""
        from .exprs import Const as _Const, Mul as _Mul, Add as _Add, DT, DB, Conj as _Conj, Pow as _Pow

        terms = []
        for mono, coeff in self.terms():
            factors: list[Expr] = [_Const(coeff)]
            for key, e in mono:
                if key == DT_KEY:
                    atom: Expr = DT
                elif key == DB_KEY:
                    atom = DB
                else:
                    _, name, mi, to, cj = key
                    atom = self.ctx.sym(name)
                    for j, order in enumerate(mi, start=1):
                        for _ in range(order):
                            atom = Dx(j, atom)
                    for _ in range(to):
                        atom = Dt(atom)
                    if cj:
                        atom = _Conj(atom)
                factors.append(atom if e == 1 else _Pow(atom, e))
            terms.append(_Mul(factors))
        if not terms:
            return _Const(QQi(0))
        return _Add(terms)


def canonicalize(e: Expr, ctx: Context) -> CanonicalForm:
    """Canonicalize an expression over the given context.

    The result is unique: equal identities produce byte-identical
    serializations regardless of how the input tree was arranged.
    """
    return CanonicalForm(_canon(e, ctx, {}), ctx)
