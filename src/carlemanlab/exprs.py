"""Expression trees over declared field symbols.

An :class:`Expr` is an immutable tree whose leaves are exact constants,
field symbols, or the formal differentials dt and dB.  Interior nodes are
sums, products, integer powers, spatial and time derivatives, the Ito
differential d(.), complex conjugation, and real/imaginary parts.

Symbols are declared on a :class:`Context`, which fixes the spatial
dimension n, knows which symbols are semimartingales and what their jets
are, carries optional derivative rewrites (so weights like e^{3 mu t}
never appear as transcendental atoms, only through their closed
derivative rules), and records pairs of scalar symbols whose product is
declared to vanish.

The rules of the Ito calculus are checked where a node is built: d_t
over a semimartingale, d() over dt, dB, d() or a semimartingale without
jets.  The rules that read a context are Context methods.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Union

from .exact import QQi, _coerce

# The spatial dimensions n the package accepts, and their spelling in the
# messages that refuse any other n
DIMENSIONS = (1, 2, 3)
DIMENSIONS_TEXT = ", ".join(map(str, DIMENSIONS[:-1])) + f" or {DIMENSIONS[-1]}"

# Derivative direction keys: ("x", j) with 1-based j, or ("t",).
VarKey = tuple


class ExprError(ValueError):
    """Raised for ill-formed symbolic operations."""


class FieldSymbol:
    """A declared field. Identity is by name within one Context.  scalar
    marks a real constant, whose every derivative is zero."""

    __slots__ = ("name", "real", "scalar", "semimartingale", "jets", "rewrites")

    def __init__(self, name: str, real: bool, scalar: bool = False,
                 semimartingale: bool = False):
        self.name = name
        self.real = real
        self.scalar = scalar
        self.semimartingale = semimartingale
        self.jets: Optional[tuple["FieldSymbol", "FieldSymbol"]] = None
        self.rewrites: dict[VarKey, "Expr"] = {}

    def __repr__(self):
        return f"FieldSymbol({self.name!r})"


class Context:
    """Symbol table for one verification problem.

    n is the spatial dimension, one of DIMENSIONS.  null_pairs lists, in
    declaration order, the pairs of real-scalar symbol names whose product
    vanishes: canonicalize drops every monomial holding such a product
    from the finished form, and the jet oracle gives one name of each pair
    the zero jet.  A declared pair is never taken back: verify_raw_cell
    reads the form from before that drop.  atoms is the canonicalizer's
    atom table, made the first time it is needed.
    """

    def __init__(self, n: int):
        if n not in DIMENSIONS:
            raise ExprError(f"spatial dimension must be {DIMENSIONS_TEXT}, got {n}")
        self.n = n
        self.symbols: dict[str, FieldSymbol] = {}
        self.null_pairs: list[tuple[str, str]] = []
        self.atoms = None

    # -- declarations ------------------------------------------------

    def _declare(self, sym: FieldSymbol) -> "Expr":
        if sym.name in self.symbols:
            raise ExprError(f"symbol {sym.name!r} already declared")
        if not sym.name.isidentifier():
            raise ExprError(f"symbol name {sym.name!r} is not an identifier")
        self.symbols[sym.name] = sym
        return Sym(sym)

    def complex_field(self, name: str) -> "Expr":
        return self._declare(FieldSymbol(name, real=False))

    def real_field(self, name: str) -> "Expr":
        return self._declare(FieldSymbol(name, real=True))

    def real_scalar(self, name: str) -> "Expr":
        """A real constant: every derivative of it is zero."""
        return self._declare(FieldSymbol(name, real=True, scalar=True))

    def semimartingale(self, name: str, real: bool = False) -> "Expr":
        """Declare a semimartingale name with registered jets Pname and
        Qname, d(name) = Pname dt + Qname dB, and return the field."""
        base = FieldSymbol(name, real=real, semimartingale=True)
        p = FieldSymbol(f"P{name}", real=real, semimartingale=True)
        q = FieldSymbol(f"Q{name}", real=real, semimartingale=True)
        base.jets = (p, q)
        e = self._declare(base)
        self._declare(p)
        self._declare(q)
        return e

    def set_rewrite(self, name: str, var: str, expr) -> None:
        """Rewrite the derivative of a declared field in direction var
        ("x1".."x3" or "t") to a closed expression.

        Directions without a rewrite differentiate normally.  Rewrites
        keep exponential weights polynomial: a field phi standing for
        e^{3 mu t} gets set_rewrite("phi", "t", 3*mu*phi).  Semimartingales
        and real scalars take no rewrite, and a rule is a deterministic
        closed form: it holds no semimartingale, dt, dB or d().
        """
        sym = self.symbols.get(name)
        if sym is None:
            raise ExprError(f"unknown symbol {name!r}")
        if sym.semimartingale:
            raise ExprError("semimartingales cannot carry derivative rewrites")
        if sym.scalar:
            raise ExprError("real scalars are constants: they take no rewrite")
        if var == "t":
            key: VarKey = ("t",)
        elif len(var) == 2 and var[0] == "x" and var[1].isdigit():
            key = ("x", int(var[1]))
            self.check_direction(key[1])
        else:
            raise ExprError(f"unknown derivative direction {var!r}")
        rule = as_expr(expr)
        if stochastic(rule):
            raise ExprError("a derivative rule is a deterministic closed form: "
                            "it cannot hold a semimartingale, dt, dB or d()")
        sym.rewrites[key] = rule
        if self.atoms is not None:
            self.atoms.forget_derivatives()  # they may have read the old rule

    def check_symbol(self, sym: FieldSymbol) -> None:
        """ExprError unless sym is the symbol of its name declared here."""
        if self.symbols.get(sym.name) is not sym:
            raise ExprError(f"symbol {sym.name!r} does not belong to this context")

    def check_direction(self, j: int) -> None:
        """ExprError unless x_j is a direction of this context."""
        if not 1 <= j <= self.n:
            raise ExprError(f"x{j} out of range for dimension {self.n}")

    # -- vanishing products -------------------------------------------

    def declare_null_pair(self, name_a: str, name_b: str) -> None:
        for nm in (name_a, name_b):
            sym = self.symbols.get(nm)
            if sym is None:
                raise ExprError(f"unknown symbol {nm!r}")
            if not sym.scalar:
                raise ExprError("null pairs are only supported for real scalars")
        self.null_pairs.append((name_a, name_b))

    def sym(self, name: str) -> "Expr":
        try:
            return Sym(self.symbols[name])
        except KeyError:
            raise ExprError(f"unknown symbol {name!r}") from None


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------

Number = Union[int, Fraction, QQi]


def as_expr(x) -> "Expr":
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction, QQi)):
        return Const(_coerce(x))
    raise ExprError(f"cannot interpret {type(x).__name__} as an expression")


class Expr:
    __slots__ = ("_bits",)  # the stochastic content, once worked out

    def __add__(self, other):
        return Add((self, as_expr(other)))

    def __sub__(self, other):
        return Add((self, Mul((MINUS_ONE, as_expr(other)))))

    def __neg__(self):
        return Mul((MINUS_ONE, self))

    def __mul__(self, other):
        return Mul((self, as_expr(other)))

    def __rmul__(self, other):
        return Mul((as_expr(other), self))

    def __pow__(self, k):
        return Pow(self, k)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: QQi):
        self.value = value


class Sym(Expr):
    __slots__ = ("sym",)

    def __init__(self, sym: FieldSymbol):
        self.sym = sym


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Expr]):
        self.terms = tuple(terms)


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[Expr]):
        self.factors = tuple(factors)


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base: Expr, exp: int):
        if type(exp) is not int or exp < 0:
            raise ExprError("powers must be nonnegative integers")
        self.base = base
        self.exp = exp


class Dx(Expr):
    __slots__ = ("j", "arg")

    def __init__(self, j: int, arg: Expr):
        if type(j) is not int or j < 1:
            raise ExprError(f"a direction x_j takes an int j >= 1, got {j!r}")
        self.j = j
        self.arg = arg


class Dt(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        if stochastic(arg) & SEMI:
            raise ExprError("time derivative applied over a semimartingale")
        self.arg = arg


class DIto(Expr):
    """Lazy Ito differential d(arg); expanded during canonicalization."""

    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        bits = stochastic(arg)
        if bits & DIFF:
            raise ExprError("d() applied to an expression already containing dt, dB or d()")
        if bits & JETLESS:
            raise ExprError("d() applied over a semimartingale with no registered jets")
        self.arg = arg


class Conj(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg


class RePart(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg


class ImPart(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg


class DtAtom(Expr):
    __slots__ = ()


class DBAtom(Expr):
    __slots__ = ()


DT = DtAtom()
DB = DBAtom()

MINUS_ONE = Const(QQi(-1))
I = Const(QQi(0, 1))


def C(p: Number, q: int = 1) -> Const:
    """Exact rational constant p/q."""
    if isinstance(p, QQi):
        if q != 1:
            raise ExprError("QQi constant takes no denominator")
        return Const(p)
    if q == 1 and type(p) is int:
        return Const(QQi(p))
    return Const(QQi(Fraction(p, q)))


def children(e: Expr) -> tuple:
    """The child nodes of e, in order."""
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Dx, Dt, DIto, Conj, RePart, ImPart)):
        return (e.arg,)
    return ()


SEMI, JETLESS, DIFF = 1, 2, 4  # a semimartingale, one with no jets (Pz), dt/dB/d()


def stochastic(e: Expr) -> int:
    """The bits of what e holds, not of what it cancels to, worked out once
    and kept on the node, so a check visits each distinct subtree once."""
    bits = getattr(e, "_bits", None)
    if bits is None:
        if isinstance(e, Sym):
            bits = SEMI | JETLESS * (e.sym.jets is None) if e.sym.semimartingale else 0
        else:
            bits = DIFF if isinstance(e, (DtAtom, DBAtom, DIto)) else 0
        for c in children(e):
            bits |= stochastic(c)
        e._bits = bits
    return bits


# -- public operation names ------------------------------------------------


def d_x(e: Expr, j: int) -> Expr:
    return Dx(j, as_expr(e))


def d_t(e: Expr) -> Expr:
    return Dt(as_expr(e))


def ito_d(e: Expr) -> Expr:
    """Ito differential d(e); the Ito table is applied on canonicalization."""
    return DIto(as_expr(e))


def conj(e: Expr) -> Expr:
    return Conj(as_expr(e))


def re(e: Expr) -> Expr:
    return RePart(as_expr(e))


def im(e: Expr) -> Expr:
    return ImPart(as_expr(e))


def esum(terms: Iterable[Expr]) -> Expr:
    terms = [as_expr(t) for t in terms]
    if not terms:
        return Const(QQi(0))
    return Add(terms)
