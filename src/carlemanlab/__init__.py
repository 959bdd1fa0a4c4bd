"""carlemanlab: exact symbolic verification of weighted Ito identities for
stochastic PDE operators, plus desk-scale numerical experiments for the
Carleman-type inequalities and the backward Hoelder stability estimate
built on them."""

from .exact import QQi
from .exprs import (
    C,
    Context,
    DB,
    DT,
    Expr,
    ExprError,
    I,
    conj,
    d_t,
    d_x,
    esum,
    im,
    ito_d,
    re,
)
from .canonical import CanonicalForm, canonicalize

__all__ = [
    "QQi",
    "C",
    "Context",
    "DB",
    "DT",
    "Expr",
    "ExprError",
    "I",
    "conj",
    "d_t",
    "d_x",
    "esum",
    "im",
    "ito_d",
    "re",
    "CanonicalForm",
    "canonicalize",
]

__version__ = "0.1.0"
