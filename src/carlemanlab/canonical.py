"""Canonical polynomial forms with the Ito multiplication table.

A canonical form maps monomials to nonzero Gaussian-rational
coefficients.  An atom is either a derivative of a declared field (name,
spatial multi-index, time order, conjugation flag) or one of the formal
differentials dt, dB.  Products reduce by the Ito table: dB*dB -> dt,
dt*dB -> 0, dt*dt -> 0, so nonzero monomials carry total differential
degree at most one.

A monomial is a packed exponent vector (Monagan & Pearce, CASC 2007):
one int whose byte i holds the exponent of atom i in its context's
AtomTable, so a product of monomials is an integer addition.  Atom ids
follow the order atoms were first met, so terms(), serialize, to_expr
and hash read monomials decoded to (atom_key, exponent) pairs sorted by
key.  Two expressions are equal as identities exactly when their
canonical forms are byte-identical, which is what the verifier relies on.

Inside the kernel a coefficient is the bare normalised triple (a, b, d)
of exact.QQi, the value (a + b i) / d; exact.triple_mul and triple_add
hold its arithmetic.  A product of two nonzero coefficients is nonzero,
so only a sum can cancel a monomial.  terms() wraps each triple in a QQi,
so everything outside the kernel sees QQi coefficients.

A context may declare null pairs of real scalars whose product vanishes.
Every derivative of a real scalar is zero, so the monomials holding a
null product form an ideal, closed under products, d_x, d_t, the Ito d
and conjugation.  The algebra below therefore ignores the pairs, and
canonicalize drops those monomials once, from the finished form.
"""

from __future__ import annotations

import math

from .exact import ZERO, _make, format_qqi, triple_add, triple_mul
from .exprs import (
    DB,
    DT,
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

# Coefficient triples (a, b, d), the value (a + b i) / d.
_ONE = (1, 0, 1)
_MINUS_ONE = (-1, 0, 1)
_HALF = (1, 0, 2)
_MINUS_I_HALF = (0, -1, 2)


def _field_key(name: str, mi: tuple, to: int, cj: bool):
    return ("f", name, mi, to, cj)


# ---------------------------------------------------------------------------
# Monomial helpers.  Byte i of a monomial is the exponent of atom i; dt and
# dB are atoms 0 and 1, so the low 16 bits hold the differentials.  The top
# bit of each byte is a guard bit: an exponent that reaches 128 raises
# ExprError instead of carrying into the next atom.
# ---------------------------------------------------------------------------

EMPTY_MONO = 0
DT_MONO = 1
DB_MONO = 1 << 8
DIFFS = 0xFFFF
MAX_ATOMS = 4096
GUARD = int.from_bytes(b"\x80" * MAX_ATOMS, "little")


class AtomTable:
    """The atoms of one context, given byte positions in first-seen order,
    and the derivatives of each atom once computed.  A complex field atom
    and its conjugate take adjacent bytes."""

    __slots__ = ("symbols", "keys", "units", "_swap", "_decoded", "diffs", "itos")

    def __init__(self, symbols: dict):
        self.symbols = symbols
        self.keys = [DT_KEY, DB_KEY]
        self.units = {DT_KEY: DT_MONO, DB_KEY: DB_MONO}
        self._swap = 0  # 0xFF in the byte of every unconjugated complex atom
        self._decoded = {EMPTY_MONO: ()}
        # Each atom's derivative by direction, and its Ito differential, as
        # forms shared by every caller: nothing may change them.  They hold
        # until forget_derivatives, which a new rewrite rule calls.
        self.diffs: dict = {}  # (atom key, direction) -> form
        self.itos: dict = {}  # atom key -> form

    def forget_derivatives(self) -> None:
        self.diffs.clear()
        self.itos.clear()

    def unit(self, key) -> int:
        """The monomial key^1, interning key when it is new."""
        u = self.units.get(key)
        if u is None:
            pair = key[0] == "f" and not self.symbols[key[1]].real
            new = (key[:4] + (False,), key[:4] + (True,)) if pair else (key,)
            i = len(self.keys)
            if i + len(new) > MAX_ATOMS:
                raise ExprError(f"more than {MAX_ATOMS} distinct atoms in one context")
            if pair:
                self._swap |= 0xFF << (8 * i)
            for k in new:
                self.units[k] = 1 << (8 * len(self.keys))
                self.keys.append(k)
            u = self.units[key]
        return u

    def conj(self, mono: int) -> int:
        """mono with each complex atom's byte swapped with its conjugate's."""
        lo = mono & self._swap
        hi = (mono >> 8) & self._swap
        return mono + 255 * (lo - hi)  # lo moves up a byte, hi down

    def decode(self, mono: int) -> tuple:
        """mono as (atom_key, exponent) pairs sorted by atom key."""
        hit = self._decoded.get(mono)
        if hit is None:
            keys = self.keys
            raw = mono.to_bytes((mono.bit_length() + 7) // 8, "little")
            hit = self._decoded[mono] = tuple(sorted((keys[i], e) for i, e in enumerate(raw) if e))
        return hit


def _atoms(ctx: Context) -> AtomTable:
    """The atom table of ctx, made on first use."""
    if ctx.atoms is None:
        ctx.atoms = AtomTable(ctx.symbols)
    return ctx.atoms


def _mono_mul(m1: int, m2: int):
    """Product of two monomials, or None when the Ito table makes it zero.
    A product with 1 returns the other factor as it is."""
    m = m1 + m2
    d = m & DIFFS
    if d > DT_MONO and d != DB_MONO and m1 and m2:
        if d != 2 * DB_MONO:
            return None  # dt*dt, dt*dB
        m += DT_MONO - 2 * DB_MONO  # dB*dB -> dt
    if m & GUARD:
        raise ExprError("an exponent in a monomial reaches 128")
    return m


# ---------------------------------------------------------------------------
# Raw canonical-form (dict) algebra
# ---------------------------------------------------------------------------


def _cf_add_inplace(acc: dict, other: dict) -> None:
    for mono, coeff in other.items():
        cur = acc.get(mono)
        if cur is None:
            acc[mono] = coeff
        else:
            new = triple_add(cur, coeff)
            if new[0] or new[1]:
                acc[mono] = new
            else:
                del acc[mono]


def _cf_addmul(acc: dict, coeff: tuple, mono: int, cf: dict) -> None:
    """acc += coeff * mono * cf for a nonzero coeff, dropping each monomial
    that cancels."""
    for m, k in cf.items():
        m = _mono_mul(mono, m)
        if m is None:
            continue
        k = triple_mul(coeff, k)
        cur = acc.get(m)
        if cur is None:
            acc[m] = k
        else:
            new = triple_add(cur, k)
            if new[0] or new[1]:
                acc[m] = new
            else:
                del acc[m]


def _cf_mul(c1: dict, c2: dict) -> dict:
    out: dict = {}
    # Iterate over the smaller operand outside for fewer dict rebuilds.
    if len(c1) > len(c2):
        c1, c2 = c2, c1
    for m1, k1 in c1.items():
        _cf_addmul(out, k1, m1, c2)
    return out


def _cf_conj(cf: dict, ctx: Context) -> dict:
    conj = _atoms(ctx).conj
    return {conj(mono): (a, -b, d) for mono, (a, b, d) in cf.items()}


def _atom_diff(key, var, ctx: Context) -> dict:
    """Derivative of a single atom as a canonical form."""
    if key[0] == "q":
        return {}  # differentials are constants under derivatives
    _, name, mi, to, cj = key
    sym = ctx.symbols[name]
    if sym.scalar:
        return {}
    if var == ("t",) and sym.semimartingale:
        raise ExprError(f"time derivative of semimartingale {name!r} is not defined")
    rw = sym.rewrites.get(var)
    if rw is None:
        if var == ("t",):
            to += 1
        else:
            mi = tuple(m + 1 if idx == var[1] - 1 else m for idx, m in enumerate(mi))
        return {_atoms(ctx).unit(_field_key(name, mi, to, cj)): _ONE}
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
    atoms = _atoms(ctx)
    diffs = atoms.diffs
    out: dict = {}
    for mono, coeff in cf.items():
        for key, e in atoms.decode(mono):
            datom = diffs.get((key, var))
            if datom is None:
                datom = diffs[key, var] = _atom_diff(key, var, ctx)
            if datom:
                _cf_addmul(out, triple_mul(coeff, (e, 0, 1)), mono - atoms.units[key], datom)
    return out


def _atom_ito(key, ctx: Context) -> dict:
    """d(atom): jets for semimartingales, (d/dt) dt for deterministic fields."""
    _, name, mi, to, cj = key
    sym = ctx.symbols[name]
    if sym.semimartingale:
        if sym.jets is None:
            raise ExprError(f"semimartingale {name!r} has no registered jets")
        p, q = sym.jets
        atoms = _atoms(ctx)
        pk = _field_key(p.name, mi, to, cj and not p.real)
        qk = _field_key(q.name, mi, to, cj and not q.real)
        return {atoms.unit(pk) + DT_MONO: _ONE, atoms.unit(qk) + DB_MONO: _ONE}
    # d f = f_t dt, the time derivative of f dt since dt is a constant
    return _cf_diff({_atoms(ctx).units[key] + DT_MONO: _ONE}, ("t",), ctx)


def _cf_ito(cf: dict, ctx: Context) -> dict:
    atoms = _atoms(ctx)
    units, itos = atoms.units, atoms.itos
    out: dict = {}
    for mono, coeff in cf.items():
        if mono & DIFFS:
            raise ExprError("d() applied to an expression already containing dt or dB")
        items = atoms.decode(mono)
        # Leibniz first-order part; it leaves d(atom) in itos for every atom.
        for key, e in items:
            datom = itos.get(key)
            if datom is None:
                datom = itos[key] = _atom_ito(key, ctx)
            if datom:
                _cf_addmul(out, triple_mul(coeff, (e, 0, 1)), mono - units[key], datom)
        # Quadratic covariation: only semimartingale atoms carry dB.
        sm = [
            (key, e)
            for key, e in items
            if key[0] == "f" and ctx.symbols[key[1]].semimartingale
        ]
        for i, (ki, ei) in enumerate(sm):
            for kj, ej in sm[i:]:
                if ki == kj:
                    if ei < 2:
                        continue
                    mult = math.comb(ei, 2)
                    rest = mono - 2 * units[ki]
                else:
                    mult = ei * ej
                    rest = mono - units[ki] - units[kj]
                cross = _cf_mul(itos[ki], itos[kj])
                if cross:
                    _cf_addmul(out, triple_mul(coeff, (mult, 0, 1)), rest, cross)
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
        v = e.value._v
        out = {EMPTY_MONO: v} if v[0] or v[1] else {}
    elif isinstance(e, Sym):
        name = e.sym.name
        if name not in ctx.symbols or ctx.symbols[name] is not e.sym:
            raise ExprError(f"symbol {name!r} does not belong to this context")
        out = {_atoms(ctx).unit(_field_key(name, (0,) * ctx.n, 0, False)): _ONE}
    elif isinstance(e, DtAtom):
        out = {DT_MONO: _ONE}
    elif isinstance(e, DBAtom):
        out = {DB_MONO: _ONE}
    elif isinstance(e, Add):
        terms = iter(e.terms)
        out = dict(_canon(next(terms), ctx, memo)) if e.terms else {}
        for t in terms:
            _cf_add_inplace(out, _canon(t, ctx, memo))
    elif isinstance(e, Mul):
        factors = iter(e.factors)
        out = _canon(next(factors), ctx, memo) if e.factors else {EMPTY_MONO: _ONE}
        for f in factors:
            if not out:
                break
            out = _cf_mul(out, _canon(f, ctx, memo))
    elif isinstance(e, Pow):
        base, out = _canon(e.base, ctx, memo), {EMPTY_MONO: _ONE}
        for _ in range(e.exp):
            out = _cf_mul(out, base)
    elif isinstance(e, Dx):
        if not 1 <= e.j <= ctx.n:
            raise ExprError(f"x{e.j} out of range for dimension {ctx.n}")
        out = _cf_diff(_canon(e.arg, ctx, memo), ("x", e.j), ctx)
    elif isinstance(e, Dt):
        out = _cf_diff(_canon(e.arg, ctx, memo), ("t",), ctx)
    elif isinstance(e, DIto):
        out = _cf_ito(_canon(e.arg, ctx, memo), ctx)
    elif isinstance(e, Conj):
        out = _cf_conj(_canon(e.arg, ctx, memo), ctx)
    elif isinstance(e, (RePart, ImPart)):
        # Re x = y + conj y with y = x / 2, Im x = y + conj y with y = x / 2i
        w = _HALF if isinstance(e, RePart) else _MINUS_I_HALF
        out = {}
        _cf_addmul(out, w, EMPTY_MONO, _canon(e.arg, ctx, memo))
        _cf_add_inplace(out, _cf_conj(out, ctx))
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
        """(monomial, coeff) pairs, sorted, with monomials decoded and
        coefficients as QQi."""
        decode = _atoms(self.ctx).decode
        return sorted(((decode(mono), _make(coeff)) for mono, coeff in self._terms.items()),
                      key=lambda p: p[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        if other.ctx is not self.ctx:
            return self.terms() == other.terms()
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self.terms()))

    def _same_ctx(self, other: "CanonicalForm") -> dict:
        if other.ctx is not self.ctx:
            raise ExprError("canonical forms of different contexts do not combine")
        return other._terms

    def __add__(self, other: "CanonicalForm") -> "CanonicalForm":
        out = dict(self._terms)
        _cf_add_inplace(out, self._same_ctx(other))
        return CanonicalForm(out, self.ctx)

    def __sub__(self, other: "CanonicalForm") -> "CanonicalForm":
        out = dict(self._terms)
        _cf_addmul(out, _MINUS_ONE, EMPTY_MONO, self._same_ctx(other))
        return CanonicalForm(out, self.ctx)

    def __mul__(self, other: "CanonicalForm") -> "CanonicalForm":
        return CanonicalForm(_cf_mul(self._terms, self._same_ctx(other)),
                             self.ctx).without_null_products()

    def without_null_products(self) -> "CanonicalForm":
        """self without the monomials that hold a null product of its
        context: the only place the canonicalizer reads the null pairs.
        A real scalar has one atom, its underived value, so a pair is two
        byte masks; a pair whose atom the table has not met holds nothing."""
        ctx = self.ctx
        units = _atoms(ctx).units
        partners: dict = {}  # byte mask of a scalar -> bytes of its partners
        for pair in ctx.null_pairs:
            ua, ub = (units.get(_field_key(name, (0,) * ctx.n, 0, False)) for name in pair)
            if ua and ub:
                partners[0xFF * ua] = partners.get(0xFF * ua, 0) | 0xFF * ub
        kept = self._terms
        for ma, mb in partners.items():
            kept = {m: c for m, c in kept.items() if not (m & ma and m & mb)}
        return self if kept is self._terms else CanonicalForm(kept, ctx)

    def evaluate(self, values):
        """sum coeff * prod value^e, each atom's value looked up by its
        atom_str name in values, floats or numpy arrays.  A non-real
        coefficient raises ExprError."""
        total = 0.0
        for mono, coeff in self.terms():
            if coeff.im:
                raise ExprError(f"cannot evaluate the non-real coefficient {format_qqi(coeff)}")
            total = total + math.prod((values[atom_str(key)] ** e for key, e in mono),
                                      start=float(coeff.re))
        return total

    def serialize(self) -> str:
        """Sorted, deterministic text rendering, one monomial per line."""
        lines = [f"{format_qqi(coeff)} * {mono_str(mono)}" for mono, coeff in self.terms()]
        return "\n".join(lines)

    def to_expr(self) -> Expr:
        """Rebuild an expression tree; canonicalizing it reproduces self."""
        terms = []
        for mono, coeff in self.terms():
            factors: list[Expr] = [Const(coeff)]
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
                        atom = Conj(atom)
                factors.append(atom if e == 1 else Pow(atom, e))
            terms.append(Mul(factors))
        if not terms:
            return Const(ZERO)
        return Add(terms)


def canonicalize(e: Expr, ctx: Context) -> CanonicalForm:
    """Canonicalize an expression over the given context.

    The result is unique: equal identities produce byte-identical
    serializations regardless of how the input tree was arranged.  The
    null pairs of ctx are applied once, to the finished form.
    """
    return CanonicalForm(_canon(e, ctx, {}), ctx).without_null_products()
