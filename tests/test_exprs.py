"""Expression construction, symbol table rules, and basic calculus."""

import random
import re as regex

import pytest
from hypothesis import given, settings, strategies as st

from carlemanlab.canonical import canonicalize
from carlemanlab.jetoracle import eval_jet_many
from carlemanlab.exprs import (
    Add,
    C,
    Context,
    I,
    DB,
    DT,
    Dx,
    ExprError,
    Mul,
    Pow,
    children,
    conj,
    d_t,
    d_x,
    esum,
    im,
    ito_d,
    re,
)

from strategies import (
    make_context,
    make_ruled_context,
    random_expr,
    random_plain_expr,
    random_ruled_expr,
    random_ruled_plain_expr,
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
    # Dx refuses x0 and a direction that is not an int when it is built:
    # canonicalize read d_x(ell, 1.0) as ell_x1 while the oracle raised a
    # TypeError.  n = 2 has no x3, and both witnesses refuse it at the Dx
    # node, even where the dense jet would read it as d_t
    z, ell = ctx.sym("z"), ctx.sym("ell")
    for j in (0, 1.0, True):
        with pytest.raises(ExprError, match="int j >= 1"):
            d_x(ell, j)
    j = ctx.n + 1
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


STOCHASTIC_RULES = {
    # with phi_t = z, canonicalize refused d_t(d_t(phi)) ("time derivative
    # of semimartingale 'z'") while the oracle gave it a nonzero value
    "phi_t = z": ("t", lambda z: z, lambda phi: d_t(d_t(phi))),
    # with phi_x1 = dt, canonicalize refused d(d_x(phi)) while the oracle
    # read it as zero
    "phi_x1 = dt": ("x1", lambda z: DT, lambda phi: ito_d(d_x(phi, 1))),
    "phi_t = dB": ("t", lambda z: DB, lambda phi: d_t(phi)),
    "phi_t = d(2)": ("t", lambda z: ito_d(C(2)), lambda phi: d_t(phi)),
    "phi_x1 = z_x1^2": ("x1", lambda z: Pow(d_x(z, 1), 2), lambda phi: d_x(phi, 1)),
}


@pytest.mark.parametrize("name", sorted(STOCHASTIC_RULES))
def test_rewrite_rules_are_deterministic_closed_forms(name):
    # a rule that holds a semimartingale or a differential is refused, so
    # both witnesses read the tree with phi's derivative left free
    ctx = Context(1)
    z = ctx.semimartingale("z")
    phi = ctx.real_field("phi")
    var, rule, tree = STOCHASTIC_RULES[name]
    with pytest.raises(ExprError, match="deterministic closed form"):
        ctx.set_rewrite("phi", var, rule(z))
    assert ctx.symbols["phi"].rewrites == {}
    form = canonicalize(tree(phi), ctx)
    values = eval_jet_many(tree(phi), ctx, [(3, 0), (3, 1)])
    assert all(v.is_zero for v in values) == form.is_zero


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
    # an exponent is an int checked by type: Pow took True as 1
    z = ctx.sym("z")
    for bad in (-1, 1.5, True):
        with pytest.raises(ExprError, match="nonnegative integers"):
            Pow(z, bad)
        with pytest.raises(ExprError, match="nonnegative integers"):
            z ** bad
    assert canonicalize(Pow(z, 0), ctx).serialize() == "1 * 1"


def test_esum_empty_is_zero(ctx):
    assert canonicalize(esum([]), ctx).is_zero


# The messages of the rules of the Ito calculus, which exprs checks where
# a node is built
D_T_OVER_SEMIMARTINGALE = "time derivative applied over a semimartingale"
D_OVER_DIFFERENTIAL = "d() applied to an expression already containing dt, dB or d()"
D_OVER_JETLESS = "d() applied over a semimartingale with no registered jets"

REFUSED_WHEN_BUILT = {
    # Trees that split the witnesses at n = 2, or that both read as zero
    # behind a C(0) factor, while each witness checked these rules on its
    # own.  A tree is judged by what it holds, not by what it cancels to.
    "d_t(z - z)": (lambda z, pz: d_t(z - z), D_T_OVER_SEMIMARTINGALE),
    "C(0) * d_t(z)": (lambda z, pz: C(0) * d_t(z), D_T_OVER_SEMIMARTINGALE),
    "d(dt - dt)": (lambda z, pz: ito_d(DT - DT), D_OVER_DIFFERENTIAL),
    "d(dt * C(0))": (lambda z, pz: ito_d(DT * C(0)), D_OVER_DIFFERENTIAL),
    "d(d(C(0)))": (lambda z, pz: ito_d(ito_d(C(0))), D_OVER_DIFFERENTIAL),
    "d(dt) * C(0)": (lambda z, pz: ito_d(DT) * C(0), D_OVER_DIFFERENTIAL),
    # Pz, the drift jet of z, has no jets of its own
    "C(0) * d(Pz)": (lambda z, pz: C(0) * ito_d(pz), D_OVER_JETLESS),
    "d(Pz) * C(0)": (lambda z, pz: ito_d(pz) * C(0), D_OVER_JETLESS),
}


@pytest.mark.parametrize("name", sorted(REFUSED_WHEN_BUILT))
def test_refused_when_built(ctx, name):
    build, message = REFUSED_WHEN_BUILT[name]
    with pytest.raises(ExprError, match=regex.escape(message)):
        build(ctx.sym("z"), ctx.sym("Pz"))


def rebuilt(e, edit):
    """e rebuilt bottom-up, each new node passed through edit."""
    kids = [rebuilt(c, edit) for c in children(e)]
    t = type(e)
    if t in (Add, Mul):
        out = t(kids)
    elif t is Pow:
        out = Pow(kids[0], e.exp)
    elif t is Dx:
        out = Dx(e.j, kids[0])
    else:
        out = t(kids[0]) if kids else e
    return edit(out)


def positions(e) -> int:
    return 1 + sum(positions(c) for c in children(e))


def spliced(ctx, rng, e, piece):
    """e rebuilt with piece() added or multiplied in beside one random
    node, under up to three wrappers: a C(0) factor before it, conj, re,
    im or d_x."""
    wrappers = (lambda x: Mul([C(0), x]), conj, re, im,
                lambda x: d_x(x, rng.randint(1, ctx.n)))
    at, count = rng.randrange(positions(e)), [0]

    def edit(node):
        count[0] += 1
        if count[0] - 1 != at:
            return node
        x = piece()
        for _ in range(rng.randint(0, 3)):
            x = rng.choice(wrappers)(x)
        pair = [node, x]
        rng.shuffle(pair)
        return rng.choice((Add, Mul))(pair)

    return rebuilt(e, edit)


# Each ill-formed construct: (outer operation, whether its argument is a
# random differential-free tree or C(1), the leaf spliced into the
# argument, message).  A leaf that a d_t in the random tree may cover
# holds no semimartingale, or that d_t would refuse it first.
ILL_FORMED = {
    "d_t over z": (d_t, True, lambda ctx: ctx.sym("z"), D_T_OVER_SEMIMARTINGALE),
    "d_t over Pz": (d_t, True, lambda ctx: ctx.sym("Pz"), D_T_OVER_SEMIMARTINGALE),
    "d over dt": (ito_d, True, lambda ctx: DT, D_OVER_DIFFERENTIAL),
    "d over dB": (ito_d, True, lambda ctx: DB, D_OVER_DIFFERENTIAL),
    "d over d()": (ito_d, True, lambda ctx: ito_d(ctx.sym("ell")), D_OVER_DIFFERENTIAL),
    "d(Pz)": (ito_d, False, lambda ctx: ctx.sym("Pz"), D_OVER_JETLESS),
}


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=5), st.booleans(), st.sampled_from(sorted(ILL_FORMED)))
def test_ill_formed_constructs_are_refused_wherever_they_sit(seed, n, depth, ruled, name):
    # the construct sits at a random position of a random tree, its
    # offending leaf at a random position of its own argument, each behind
    # a C(0) factor or under conj, re, im or d_x at random; it is refused
    # when it is built, before either witness sees the tree
    rng = random.Random(seed)
    if ruled:
        ctx = make_ruled_context(n, rng)
        outer = random_ruled_expr(ctx, rng, depth)
        plain = lambda: random_ruled_plain_expr(ctx, rng, 2)
    else:
        ctx = make_context(n)
        outer = random_expr(ctx, rng, depth)
        plain = lambda: random_plain_expr(ctx, rng, 2)
    op, random_arg, leaf, message = ILL_FORMED[name]
    construct = lambda: op(spliced(ctx, rng, plain() if random_arg else C(1),
                                   lambda: leaf(ctx)))
    with pytest.raises(ExprError, match=regex.escape(message)):
        spliced(ctx, rng, outer, construct)
