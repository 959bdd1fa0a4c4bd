"""Expression construction, symbol table rules, and basic calculus."""

import pytest

from carlemanlab.canonical import canonicalize
from carlemanlab.jetoracle import eval_jet_many
from carlemanlab.exprs import (
    C,
    Context,
    I,
    DB,
    DT,
    Dx,
    ExprError,
    Mul,
    Pow,
    conj,
    d_t,
    d_x,
    esum,
    im,
    ito_d,
    re,
)


@pytest.fixture
def ctx():
    c = Context(2)
    c.semimartingale("z")
    c.real_field("ell")
    c.complex_field("Phi")
    c.real_scalar("lam")
    return c


def test_dimension_bounds():
    for bad in (0, 4, -1):
        with pytest.raises(ExprError):
            Context(bad)


def test_duplicate_declaration(ctx):
    with pytest.raises(ExprError):
        ctx.real_field("ell")


def test_unknown_symbol(ctx):
    with pytest.raises(ExprError):
        ctx.sym("missing")


def test_semimartingale_flags(ctx):
    assert ctx.symbols["z"].semimartingale
    assert ctx.symbols["Pz"].semimartingale and ctx.symbols["Qz"].semimartingale
    for name in ("ell", "Phi", "lam"):
        assert not ctx.symbols[name].semimartingale


def test_real_symbols_fixed_by_conjugation(ctx):
    for name in ("ell", "lam"):
        e = ctx.sym(name)
        assert canonicalize(conj(e) - e, ctx).is_zero
    assert not canonicalize(conj(ctx.sym("z")) - ctx.sym("z"), ctx).is_zero
    assert not canonicalize(conj(ctx.sym("Phi")) - ctx.sym("Phi"), ctx).is_zero


def test_derivative_direction_bounds(ctx):
    # n = 2 has neither x0 nor x3; both witnesses refuse them at the Dx
    # node, even where the dense jet would read either one as d_t
    z, ell = ctx.sym("z"), ctx.sym("ell")
    for j in (0, ctx.n + 1):
        for e in (d_x(z, j), d_x(ell, j) - d_t(ell), d_x(C(1), j)):
            with pytest.raises(ExprError, match="out of range"):
                canonicalize(e, ctx)
            with pytest.raises(ExprError, match="out of range"):
                eval_jet_many(e, ctx, [(1, 0)])


def test_chain_rule_on_square(ctx):
    ell = ctx.sym("ell")
    lhs = d_x(ell * ell, 1)
    rhs = C(2) * ell * d_x(ell, 1)
    assert canonicalize(lhs - rhs, ctx).is_zero


def test_exponential_weight_rewrite():
    # theta = e^ell is never an atom: derivatives rewrite through ell
    ctx = Context(1)
    ell = ctx.real_field("ell")
    theta = ctx.real_field("theta")
    ctx.set_rewrite("theta", "x1", d_x(ell, 1) * theta)
    ctx.set_rewrite("theta", "t", d_t(ell) * theta)
    got = canonicalize(d_x(theta, 1) - d_x(ell, 1) * theta, ctx)
    assert got.is_zero
    got_t = canonicalize(d_t(theta) - d_t(ell) * theta, ctx)
    assert got_t.is_zero


def test_rewrites_rejected_on_semimartingales(ctx):
    with pytest.raises(ExprError):
        ctx.set_rewrite("z", "t", ctx.sym("ell"))


def test_rewrites_rejected_on_real_scalars(ctx):
    # a real scalar is a constant: with a rule d_t(lam) = 1 the canonical
    # form would call d_t(lam) zero and the oracle would not
    with pytest.raises(ExprError, match="real scalars"):
        ctx.set_rewrite("lam", "t", C(1))


def test_ito_of_deterministic_field(ctx):
    ell = ctx.sym("ell")
    assert canonicalize(ito_d(ell) - d_t(ell) * DT, ctx).is_zero


def test_ito_jets(ctx):
    z = ctx.sym("z")
    dz = ito_d(z)
    expected = ctx.sym("Pz") * DT + ctx.sym("Qz") * DB
    assert canonicalize(dz - expected, ctx).is_zero


def test_direct_product_construction(ctx):
    # a11 * dx1(z) builds a product node over one derivative atom
    a11 = ctx.real_field("a11")
    e = Mul([a11, Dx(1, ctx.sym("z"))])
    cf = canonicalize(e, ctx)
    assert len(cf) == 1
    (mono, coeff), = cf.terms()
    assert coeff == 1
    assert cf.serialize() == "1 * a11*z_x1"


def test_re_im_decomposition(ctx):
    phi = ctx.sym("Phi")
    recomposed = re(phi) + I * im(phi)
    assert canonicalize(recomposed - phi, ctx).is_zero


def test_null_pair_declaration(ctx):
    a = ctx.real_scalar("a")
    b01 = ctx.real_scalar("b01")
    lam, z = ctx.sym("lam"), ctx.sym("z")
    ctx.declare_null_pair("a", "b01")
    assert canonicalize(a * b01, ctx).is_zero
    assert canonicalize(a ** 2 * z * b01 * lam, ctx).is_zero
    assert canonicalize(a * lam + b01 * z, ctx).serialize() == "1 * a*lam\n1 * b01*z"
    with pytest.raises(ExprError):
        ctx.declare_null_pair("ell", "lam")  # fields cannot be null pairs


def test_pow_exponent_is_validated_at_construction(ctx):
    z = ctx.sym("z")
    for bad in (-1, 1.5):
        with pytest.raises(ExprError, match="nonnegative integers"):
            Pow(z, bad)
        with pytest.raises(ExprError, match="nonnegative integers"):
            z ** bad
    assert canonicalize(Pow(z, 0), ctx).serialize() == "1 * 1"


def test_esum_empty_is_zero(ctx):
    assert canonicalize(esum([]), ctx).is_zero
