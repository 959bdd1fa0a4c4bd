"""Canonicalizer laws: normal form uniqueness, calculus, and the Ito table."""

import itertools
import math
import operator
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from carlemanlab.canonical import (
    DB_KEY,
    DB_MONO,
    DT_KEY,
    DT_MONO,
    AtomTable,
    _cf_add_inplace,
    _cf_addmul,
    _cf_mul,
    _mono_mul,
    atom_str,
    canonicalize,
)
from carlemanlab.exact import QQi
from carlemanlab.exprs import (
    Add,
    C,
    DB,
    DT,
    Dx,
    ExprError,
    I,
    Mul,
    Pow,
    conj,
    d_t,
    d_x,
    im,
    ito_d,
    re,
)

from strategies import make_context, random_expr, random_plain_expr

SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


def test_ito_table():
    ctx = make_context(1)
    assert canonicalize(DT * DT, ctx).is_zero
    assert canonicalize(DT * DB, ctx).is_zero
    assert canonicalize(DB * DT, ctx).is_zero
    assert canonicalize(DB * DB - DT, ctx).is_zero


def test_bulk_idempotence_and_monomial_invariants():
    # spec-scale bulk check: canonical forms are fixed points and every
    # monomial is reduced with differential degree at most one
    ctx = make_context(2)
    rng = random.Random(987123)
    for _ in range(1000):
        e = random_expr(ctx, rng, depth=rng.randint(1, 8))
        cf = canonicalize(e, ctx)
        again = canonicalize(cf.to_expr(), ctx)
        assert again == cf
        assert again.serialize() == cf.serialize()
        for mono, coeff in cf.terms():
            assert coeff != 0
            assert sum(k for key, k in mono if key in (DT_KEY, DB_KEY)) <= 1


@settings(max_examples=120, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=6))
def test_idempotence(seed, depth):
    ctx = make_context(2)
    e = random_expr(ctx, random.Random(seed), depth)
    cf = canonicalize(e, ctx)
    assert canonicalize(cf.to_expr(), ctx) == cf


@settings(max_examples=120, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=5))
def test_space_time_derivatives_commute(seed, depth):
    ctx = make_context(2)
    e = random_plain_expr(ctx, random.Random(seed), depth, allow_z=False)
    lhs = d_t(d_x(e, 1))
    rhs = d_x(d_t(e), 1)
    assert canonicalize(lhs - rhs, ctx).is_zero


@settings(max_examples=120, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=5))
def test_conjugation_involution(seed, depth):
    ctx = make_context(2)
    e = random_plain_expr(ctx, random.Random(seed), depth)
    assert canonicalize(conj(conj(e)) - e, ctx).is_zero


@settings(max_examples=120, deadline=None)
@given(SEEDS, SEEDS, st.integers(min_value=1, max_value=4))
def test_conjugation_distributes(seed_u, seed_v, depth):
    ctx = make_context(2)
    u = random_plain_expr(ctx, random.Random(seed_u), depth)
    v = random_plain_expr(ctx, random.Random(seed_v), depth)
    assert canonicalize(conj(u * v) - conj(u) * conj(v), ctx).is_zero
    assert canonicalize(conj(u + v) - (conj(u) + conj(v)), ctx).is_zero


@settings(max_examples=120, deadline=None)
@given(SEEDS, SEEDS, st.integers(min_value=1, max_value=4))
def test_ito_product_rule(seed_u, seed_v, depth):
    ctx = make_context(2)
    u = random_plain_expr(ctx, random.Random(seed_u), depth)
    v = random_plain_expr(ctx, random.Random(seed_v), depth)
    defect = ito_d(u * v) - (u * ito_d(v) + v * ito_d(u)
                             + ito_d(u) * ito_d(v))
    assert canonicalize(defect, ctx).is_zero


def test_ito_product_rule_on_jets():
    # d(z zbar) = (P zbar + Pbar z + Q Qbar) dt + (Q zbar + Qbar z) dB
    ctx = make_context(1)
    z, p, q = ctx.sym("z"), ctx.sym("Pz"), ctx.sym("Qz")
    lhs = ito_d(z * conj(z))
    rhs = ((p * conj(z) + conj(p) * z + q * conj(q)) * DT
           + (q * conj(z) + conj(q) * z) * DB)
    assert canonicalize(lhs - rhs, ctx).is_zero


def test_gradient_cross_term_expansion():
    # d of a^{jk}-weighted gradient pairing carries its four-term expansion
    ctx = make_context(2)
    a = ctx.real_field("a11")
    z = ctx.sym("z")
    zj = d_x(z, 1)
    lhs = ito_d(a * zj * conj(zj))
    rhs = (d_t(a) * zj * conj(zj) * DT
           + a * ito_d(zj) * conj(zj)
           + a * zj * ito_d(conj(zj))
           + a * ito_d(zj) * ito_d(conj(zj)))
    assert canonicalize(lhs - rhs, ctx).is_zero


def test_imaginary_pairing_identity():
    # Im(conj(z_xk) dz) = -Im(z_xk d(conj(z)))
    from carlemanlab.exprs import im
    ctx = make_context(2)
    z = ctx.sym("z")
    zk = d_x(z, 2)
    lhs = im(conj(zk) * ito_d(z)) + im(zk * ito_d(conj(z)))
    assert canonicalize(lhs, ctx).is_zero


def test_re_as_half_sum():
    from carlemanlab.exprs import re
    ctx = make_context(1)
    z, phi = ctx.sym("z"), ctx.sym("Phi")
    e = (C(2) * re(conj(phi) * conj(z) * ito_d(z))
         - (conj(phi) * conj(z) * ito_d(z) + phi * z * ito_d(conj(z))))
    assert canonicalize(e, ctx).is_zero


def test_equal_expressions_share_bytes():
    ctx = make_context(2)
    rng = random.Random(5150)
    for _ in range(100):
        terms = [random_plain_expr(ctx, rng, 3) for _ in range(4)]
        shuffled = terms[::-1]
        a = canonicalize(Add(terms), ctx)
        b = canonicalize(Add(shuffled), ctx)
        assert a == b and a.serialize() == b.serialize()


def test_products_reorder_freely():
    ctx = make_context(2)
    rng = random.Random(31337)
    for _ in range(100):
        factors = [random_plain_expr(ctx, rng, 2) for _ in range(3)]
        a = canonicalize(Mul(factors), ctx)
        b = canonicalize(Mul(factors[::-1]), ctx)
        assert a == b


def dict_and_sort_mono_mul(m1, m2):
    """Reference: count atoms in a dict, Ito-reduce, then sort."""
    if not m1:
        return m2
    if not m2:
        return m1
    counts = {}
    for key, e in m1 + m2:
        counts[key] = counts.get(key, 0) + e
    ndt = counts.pop(DT_KEY, 0)
    ndb = counts.pop(DB_KEY, 0)
    if ndb >= 3 or ndt >= 2 or (ndt == 1 and ndb >= 1):
        return None
    if ndb == 2:
        ndt, ndb = 1, 0
    out = list(counts.items())
    if ndt:
        out.append((DT_KEY, ndt))
    if ndb:
        out.append((DB_KEY, ndb))
    return tuple(sorted(out, key=lambda p: p[0]))


MONO_CONTEXT = make_context(2)
MONO_CONTEXT.real_scalar("mu")  # make_context declares the other names below
FIELD_KEYS = [("f", name, mi, to, cj)
              for name in ("Phi", "ell", "lam", "mu", "z")
              for mi in ((0, 0), (1, 0), (0, 2))
              for to in (0, 1)
              for cj in (False, True)]


@st.composite
def monomials(draw):
    keys = draw(st.lists(st.sampled_from(FIELD_KEYS), max_size=5, unique=True))
    items = [(k, draw(st.integers(min_value=1, max_value=3))) for k in sorted(keys)]
    for key in (DT_KEY, DB_KEY):
        e = draw(st.integers(min_value=0, max_value=3))
        if e:
            items.append((key, e))
    return tuple(items)


@settings(max_examples=400, deadline=None)
@given(monomials(), monomials())
def test_mono_mul_matches_dict_and_sort(m1, m2):
    # the packed product, read back through the atom table, is the
    # reference product of the (atom_key, exponent) tuples
    atoms = AtomTable(MONO_CONTEXT.symbols)

    def encode(mono):
        return sum(e * atoms.unit(key) for key, e in mono)

    packed = _mono_mul(encode(m1), encode(m2))
    got = None if packed is None else atoms.decode(packed)
    assert got == dict_and_sort_mono_mul(m1, m2)


# lam pairs with mu and with nu, and kap with itself
NULL_SCALARS = ("lam", "mu", "nu", "kap")
NULL_PAIRS = (("lam", "mu"), ("nu", "lam"), ("kap", "kap"))


def holds_null_pair(mono) -> bool:
    """Whether the field names of a decoded monomial include both names
    of one of NULL_PAIRS."""
    names = {key[1] for key, _ in mono if key[0] == "f"}
    return any(a in names and b in names for a, b in NULL_PAIRS)


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=5))
def test_null_pairs_filter_the_null_free_form(seed, depth):
    # the monomials holding a null product form an ideal closed under
    # every operation, so canonicalizing under the pairs only drops them
    ctx = make_context(2)
    for name in NULL_SCALARS[1:]:
        ctx.real_scalar(name)
    rng = random.Random(seed)
    # a product of two trees, so that more of them hold a null product
    e = (random_expr(ctx, rng, depth, scalars=NULL_SCALARS)
         * random_plain_expr(ctx, rng, depth, scalars=NULL_SCALARS))
    free = canonicalize(e, ctx)
    for pair in NULL_PAIRS:
        ctx.declare_null_pair(*pair)
    kept = [(mono, coeff) for mono, coeff in free.terms() if not holds_null_pair(mono)]
    assert canonicalize(e, ctx).terms() == kept


def _form_after_meeting(names):
    """A fixed expression canonicalized in a fresh context whose atom
    table first met the derivatives of the named fields in that order."""
    ctx = make_context(2)
    for name in names:
        canonicalize(d_x(ctx.sym(name), 1) + conj(ctx.sym(name)), ctx)
    z, phi, ell, lam = (ctx.sym(name) for name in ("z", "Phi", "ell", "lam"))
    e = (ito_d(z * conj(z)) * phi + d_x(phi * ell, 1) * d_t(ell) * DB
         - C(3) * lam * conj(d_x(phi, 2)) * z ** 2)
    return canonicalize(e, ctx)


def test_atom_interning_order_does_not_matter():
    names = ["z", "Pz", "Qz", "Phi", "ell", "lam"]
    a = _form_after_meeting(names)
    b = _form_after_meeting(names[::-1])
    # the packed monomials differ, what a form shows does not
    assert set(a._terms) != set(b._terms)
    assert a.serialize() == b.serialize()
    assert a.terms() == b.terms()
    assert hash(a) == hash(b)
    assert a == b


def test_exponent_guard():
    ctx = make_context(1)
    z = ctx.sym("z")
    assert canonicalize(Pow(z, 127), ctx).serialize() == "1 * z^127"
    # neighbouring bytes at 127 do not carry into each other
    assert (canonicalize(Pow(z, 127) * Pow(conj(z), 127), ctx).serialize()
            == "1 * z^127*conj(z)^127")
    for e in (Pow(z, 128), Pow(z, 64) * Pow(z, 64), Pow(z, 127) * conj(z) * z):
        with pytest.raises(ExprError, match="reaches 128"):
            canonicalize(e, ctx)


def test_forms_of_different_contexts_do_not_combine():
    a = _form_after_meeting(["z", "Phi"])
    b = _form_after_meeting(["Phi", "z"])
    for combine in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ExprError, match="different contexts"):
            combine(a, b)
    # equality across contexts reads the decoded terms
    assert a == b
    assert a != canonicalize(DB, b.ctx)


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=5))
def test_stored_coefficients_are_nonzero_normalised_triples(seed, depth):
    # a new monomial is stored without a zero test, because a product of
    # nonzero Gaussian rationals is nonzero; Re and Im bring in halves
    ctx = make_context(2)
    rng = random.Random(seed)
    x, y = (random_plain_expr(ctx, rng, depth) for _ in range(2))
    f = canonicalize(re(x) * im(y) + random_expr(ctx, rng, depth), ctx)
    g = canonicalize(im(x) + re(y) * conj(x), ctx)
    for form in (f, g, f + g, f - g, f * g, g * g):
        for a, b, d in form._terms.values():
            assert (a, b) != (0, 0)
            assert d > 0 and gcd(a, b, d) == 1
    assert (f - f).is_zero


ONE = (1, 0, 1)
DIFFS = st.sampled_from([(), ((DT_KEY, 1),), ((DB_KEY, 1),)])
PARTS = st.fractions(-4, 4, max_denominator=3)
# nonzero normalised coefficient triples
TRIPLES = st.builds(QQi, PARTS, PARTS).map(lambda q: q._v).filter(lambda v: v[0] or v[1])


@st.composite
def reduced_monomials(draw):
    """A decoded monomial of differential degree at most one."""
    keys = draw(st.lists(st.sampled_from(FIELD_KEYS), max_size=3, unique=True))
    items = [(k, draw(st.integers(min_value=1, max_value=2))) for k in sorted(keys)]
    return tuple(items) + draw(DIFFS)


FORMS = st.lists(st.tuples(reduced_monomials(), TRIPLES), max_size=4)


@settings(max_examples=300, deadline=None)
@given(FORMS, reduced_monomials(), TRIPLES, FORMS, st.booleans())
@example([], ((DT_KEY, 1),), ONE, [(((DT_KEY, 1),), ONE)], False)  # dt dt = 0
@example([], ((DT_KEY, 1),), ONE, [(((DB_KEY, 1),), ONE)], False)  # dt dB = 0
@example([], ((DB_KEY, 1),), ONE, [(((DB_KEY, 1),), ONE)], False)  # dB dB = dt
def test_fused_accumulate_matches_mul_then_add(acc, mono, coeff, form, cancel):
    # acc += coeff * mono * form in one pass equals the product taken as
    # a form of its own and then added, cancellations included
    atoms = AtomTable(MONO_CONTEXT.symbols)

    def encode(m):
        return sum(e * atoms.unit(key) for key, e in m)

    acc = {encode(m): c for m, c in acc}
    mono, form = encode(mono), {encode(m): c for m, c in form}
    if cancel:  # acc holds minus the product, so the sum is the empty form
        acc = _cf_mul({mono: (-coeff[0], -coeff[1], coeff[2])}, form)
    want = dict(acc)
    _cf_add_inplace(want, _cf_mul({mono: coeff}, form))
    _cf_addmul(acc, coeff, mono, form)
    assert acc == want
    assert not (cancel and acc)


def test_fused_accumulate_applies_the_ito_table():
    for mono, form, want in ((DT_MONO, {DT_MONO: ONE}, {}),
                             (DT_MONO, {DB_MONO: ONE}, {}),
                             (DB_MONO, {DB_MONO: ONE}, {DT_MONO: ONE})):
        acc: dict = {}
        _cf_addmul(acc, ONE, mono, form)
        assert acc == want


def rewrite_context(n: int = 2):
    """make_context with derivative rewrites on Phi and ell."""
    ctx = make_context(n)
    phi, ell, lam = (ctx.sym(name) for name in ("Phi", "ell", "lam"))
    ctx.set_rewrite("Phi", "t", lam * phi + ell * conj(phi))
    ctx.set_rewrite("ell", "x1", C(2) * lam * ell * ell)
    return ctx


def reversed_tree(e):
    """e with the terms of every sum and the factors of every product in
    reverse order."""
    if isinstance(e, Add):
        return Add([reversed_tree(t) for t in e.terms[::-1]])
    if isinstance(e, Mul):
        return Mul([reversed_tree(f) for f in e.factors[::-1]])
    if isinstance(e, Pow):
        return Pow(reversed_tree(e.base), e.exp)
    if isinstance(e, Dx):
        return Dx(e.j, reversed_tree(e.arg))
    if hasattr(e, "arg"):
        return type(e)(reversed_tree(e.arg))
    return e


@settings(max_examples=120, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=5))
def test_cached_derivatives_do_not_depend_on_meeting_order(seed, depth):
    # the reversed tree meets sub-expressions, and so atoms and their
    # derivatives, in reverse order: on the same context, where it reads
    # what the first pass cached, and on a twin context that met nothing
    def tree(ctx):
        # every atom of u is differentiated in three directions
        rng = random.Random(seed)
        u = random_plain_expr(ctx, rng, depth, allow_z=False)
        return d_x(u, 1) * d_t(u) + d_x(u, 2) + random_expr(ctx, rng, depth)

    ctx, twin = rewrite_context(), rewrite_context()
    first = canonicalize(tree(ctx), ctx).serialize()
    assert canonicalize(reversed_tree(tree(ctx)), ctx).serialize() == first
    assert canonicalize(reversed_tree(tree(twin)), twin).serialize() == first


def _chained_rewrites(late_rule: bool):
    """d_t d_t a and d_x1 conj(d_t a) for a_t = lam b, canonicalized
    before b_t = 5 a is declared, and again after it when late_rule."""
    ctx = make_context(1)
    a, b = ctx.complex_field("a"), ctx.complex_field("b")
    ctx.set_rewrite("a", "t", ctx.sym("lam") * b)
    e = d_t(d_t(a)) + d_x(conj(d_t(a)), 1) * a
    if not late_rule:
        ctx.set_rewrite("b", "t", C(5) * a)
        return canonicalize(e, ctx).serialize()
    before = canonicalize(e, ctx).serialize()
    ctx.set_rewrite("b", "t", C(5) * a)
    return before, canonicalize(e, ctx).serialize()


def test_a_new_rewrite_applies_after_canonicalizing():
    # set_rewrite drops the cached derivatives, since the derivative of
    # a may read the rule of b
    before, after = _chained_rewrites(late_rule=True)
    assert after == _chained_rewrites(late_rule=False)
    assert after != before
    assert "b_t" in before and "b_t" not in after


def test_shared_forms_are_never_changed():
    # one-factor products and first powers share their operand's form,
    # and rewrite derivatives are cached on the context: arithmetic on
    # the results and canonicalizing again leave every operand as it was
    ctx = rewrite_context(1)
    z, phi, ell = (ctx.sym(name) for name in ("z", "Phi", "ell"))
    exprs = [Mul([phi]), Pow(ell * conj(phi), 1), Mul([Pow(d_t(phi), 1)]),
             d_t(phi) * d_x(ell, 1) + re(d_t(conj(phi))), ito_d(z * phi * ell)]
    forms = [canonicalize(e, ctx) for e in exprs]
    texts = [f.serialize() for f in forms]
    for f, g in itertools.product(forms, repeat=2):
        for combine in (operator.add, operator.sub, operator.mul):
            combine(f, g)
    assert [f.serialize() for f in forms] == texts
    assert [canonicalize(e, ctx).serialize() for e in exprs] == texts


# -- numeric evaluation ----------------------------------------------


def _real_form(ctx, rng, depth):
    """A real, differential-free form: real constants, the real field ell
    and the real scalar lam under random operations."""
    def leaf(allow_z):
        if rng.random() < 0.4:
            return C(rng.randint(-4, 4), rng.randint(1, 3))
        return ctx.sym(rng.choice(["ell", "lam"]))

    return canonicalize(random_plain_expr(ctx, rng, depth, leaf=leaf), ctx)


def _magnitude(form, values):
    """The sum of the magnitudes of form's terms at values: the size that
    a float evaluation's rounding error is relative to."""
    return sum(abs(float(coeff.re)) * math.prod(abs(values[atom_str(key)]) ** e
                                                 for key, e in mono)
               for mono, coeff in form.terms())


@settings(max_examples=150, deadline=None)
@given(SEEDS, SEEDS, st.integers(min_value=1, max_value=4))
def test_evaluation_is_a_ring_homomorphism(seed_f, seed_g, depth):
    ctx = make_context(2)
    f = _real_form(ctx, random.Random(seed_f), depth)
    g = _real_form(ctx, random.Random(seed_g), depth)
    rng = random.Random(seed_f ^ seed_g)
    atoms = {atom_str(key) for form in (f, g) for mono, _ in form.terms() for key, _ in mono}
    values = {name: rng.uniform(-2.0, 2.0) for name in sorted(atoms)}
    ef, eg = f.evaluate(values), g.evaluate(values)
    mf, mg = _magnitude(f, values), _magnitude(g, values)
    # sums can cancel: the tolerance is relative to the terms' size
    assert (f + g).evaluate(values) == pytest.approx(ef + eg, rel=0, abs=1e-12 * (mf + mg))
    assert (f * g).evaluate(values) == pytest.approx(ef * eg, rel=0, abs=1e-12 * mf * mg)


def test_evaluation_on_arrays_is_elementwise():
    ctx = make_context(1)
    ell, lam = ctx.sym("ell"), ctx.sym("lam")
    form = canonicalize(C(3) * d_x(ell, 1) ** 2 * lam - d_t(ell) + C(1, 2), ctx)
    rng = np.random.default_rng(5)
    arrays = {name: rng.uniform(-2.0, 2.0, size=7) for name in ("ell_x1", "ell_t", "lam")}
    got = form.evaluate(arrays)
    assert isinstance(got, np.ndarray) and got.shape == (7,)
    for i in range(7):
        assert got[i] == form.evaluate({name: float(a[i]) for name, a in arrays.items()})


def test_evaluation_refuses_complex_coefficients():
    ctx = make_context(1)
    form = canonicalize(C(2) * ctx.sym("ell") + I * ctx.sym("lam"), ctx)
    with pytest.raises(ExprError, match="non-real coefficient"):
        form.evaluate({"ell": 1.0, "lam": 1.0})


def test_empty_form_evaluates_to_zero():
    ctx = make_context(1)
    assert canonicalize(ctx.sym("ell") - ctx.sym("ell"), ctx).evaluate({}) == 0.0
