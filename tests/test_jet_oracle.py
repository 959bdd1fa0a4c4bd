"""Independent exact evaluation of expressions on dense jets over F_p[i]."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import carlemanlab.jetoracle as jetoracle
from carlemanlab.canonical import canonicalize
from carlemanlab.exact import QQi
from carlemanlab.exprs import (
    DB,
    DT,
    Add,
    C,
    Conj,
    Const,
    Context,
    DIto,
    Dt,
    Dx,
    ExprError,
    I,
    ImPart,
    Mul,
    Pow,
    RePart,
    Sym,
    conj,
    d_t,
    d_x,
    im,
    ito_d,
    re,
)
from carlemanlab.identity import OperatorSpec, build_case
from carlemanlab.jetoracle import P, Gauss, _Eval, _layout, eval_jet_many

from strategies import (
    make_context,
    make_ruled_context,
    random_expr,
    random_plain_expr,
    random_ruled_expr,
)

SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


def gmul(a, b):
    return ((a.re * b.re - a.im * b.im) % P, (a.re * b.im + a.im * b.re) % P)


def pinned_value(expr, ctx, jets, order=4):
    """The value of expr when each named symbol has the given Taylor
    coefficients at the base point ({exponents: (re, im)}, zero elsewhere)."""
    ev = _Eval(ctx, [(0, 0)], expr)
    lay = _layout(ctx.n + 1, order)
    for name, coeffs in jets.items():
        re, im = [0] * lay.size[order], [0] * lay.size[order]
        for exps, (r, i) in coeffs.items():
            re[lay.index[exps]], im[lay.index[exps]] = [r % P], [i % P]
        ev.jets[name] = [order, re, im, None]
    return ev.run(expr, 1)


def value_of(triple):
    # a coefficient is a list with one entry per draw, or 0 in every draw
    return [(0, 0) if c is None else ((c[0][0] or [0])[0], (c[1][0] or [0])[0])
            for c in triple]


def draws(seed, points):
    return [(seed, point) for point in points]


def test_linear_semimartingale_value():
    # z = x + i t at the base point (1, 1): |z|^2 = 2
    ctx = Context(1)
    z = ctx.semimartingale("z")
    jets = {"z": {(0, 0): (1, 1), (1, 0): (1, 0), (0, 1): (0, 1)}}
    value, dt, dB = value_of(pinned_value(z * conj(z), ctx, jets))
    assert value == (2, 0) and dt == (0, 0) and dB == (0, 0)


def test_hand_differentiated_energy_coefficient():
    # ell = x^2 t at (1, 2), in offsets (h, s): (1 + h)^2 (2 + s), so
    # (ell_x)^2 - ell_xx = 16 - 4 = 12
    ctx = Context(1)
    ell = ctx.real_field("ell")
    taylor = {(0, 0): 2, (1, 0): 4, (0, 1): 1, (2, 0): 2, (1, 1): 2, (2, 1): 1}
    jets = {"ell": {e: (c, 0) for e, c in taylor.items()}}
    e = Pow(d_x(ell, 1), 2) - d_x(d_x(ell, 1), 1)
    value, dt, dB = value_of(pinned_value(e, ctx, jets))
    assert value == (12, 0) and dt == (0, 0) and dB == (0, 0)


def test_ito_jets_of_product():
    ctx = make_context(1)
    z, p, q = ctx.sym("z"), ctx.sym("Pz"), ctx.sym("Qz")
    target = ito_d(z * conj(z))
    drift = p * conj(z) + conj(p) * z + q * conj(q)
    noise = q * conj(z) + conj(q) * z
    for seed in (3, 17, 40):
        a = draws(seed, range(3))
        for got, want_dt, want_db in zip(eval_jet_many(target, ctx, a),
                                         eval_jet_many(drift, ctx, a),
                                         eval_jet_many(noise, ctx, a)):
            assert got.value == (0, 0)
            assert (got.dt, got.dB) == (want_dt.value, want_db.value)
            assert got.dt != (0, 0)
    with pytest.raises(ExprError, match="over a semimartingale"):
        eval_jet_many(d_t(z), ctx, draws(3, [0]))


def test_ito_d_of_a_semimartingale_time_derivative_is_refused():
    # z has no time derivative, so neither witness gives d(d_t z) a value
    ctx = make_context(1)
    e = ito_d(d_t(ctx.sym("z")))
    with pytest.raises(ExprError):
        canonicalize(e, ctx)
    with pytest.raises(ExprError, match="over a semimartingale"):
        eval_jet_many(e, ctx, draws(3, [0]))


ZERO_PRODUCTS = {
    # the canonicalizer stops a product at its first zero factor, and the
    # oracle keys none of the factors after it
    "C(0) * d_x(z, 3)": (lambda z, pz: C(0) * d_x(z, 3), True),
    "C(0) * d_t(z)": (lambda z, pz: C(0) * d_t(z), True),
    "C(0) * d(Pz)": (lambda z, pz: C(0) * ito_d(pz), True),
    # every node either witness keys is checked, under a zero or not
    "d_x(z, 3) * C(0)": (lambda z, pz: d_x(z, 3) * C(0), False),
    "d_x(C(0), 3)": (lambda z, pz: d_x(C(0), 3), False),
    "d(dt) * C(0)": (lambda z, pz: ito_d(DT) * C(0), False),
    "d(Pz) * C(0)": (lambda z, pz: ito_d(pz) * C(0), False),
    "d_x(z, 3)^0": (lambda z, pz: Pow(d_x(z, 3), 0), False),
}


@pytest.mark.parametrize("name", sorted(ZERO_PRODUCTS))
def test_witnesses_agree_on_zero_products(name):
    # at n = 2; Pz, the drift jet of z, has no jets of its own
    ctx = make_context(2)
    build, zero = ZERO_PRODUCTS[name]
    e = build(ctx.sym("z"), ctx.sym("Pz"))
    if zero:
        assert canonicalize(e, ctx).is_zero
        assert all(v.is_zero for v in eval_jet_many(e, ctx, draws(3, range(2))))
    else:
        with pytest.raises(ExprError):
            canonicalize(e, ctx)
        with pytest.raises(ExprError):
            eval_jet_many(e, ctx, draws(3, range(2)))


EMPTY_PRODUCTS = {
    "Mul(())": (lambda z: Mul(()), 1),
    "Mul(()) * z": (lambda z: Mul(()) * z, None),
    "d_x(Mul(()), 1)": (lambda z: d_x(Mul(()), 1), 0),
    "d(Mul(()))": (lambda z: ito_d(Mul(())), 0),
}


@pytest.mark.parametrize("name", sorted(EMPTY_PRODUCTS))
def test_witnesses_agree_on_empty_products(name):
    # the empty product is the constant 1 to both witnesses
    ctx = make_context(2)
    build, value = EMPTY_PRODUCTS[name]
    e = build(ctx.sym("z"))
    got = eval_jet_many(e, ctx, draws(3, range(2)))
    assert got == eval_jet_many(canonicalize(e, ctx).to_expr(), ctx, draws(3, range(2)))
    if value is not None:
        assert all(v.value == (value, 0) and v.dt == v.dB == (0, 0) for v in got)


def counted_children(monkeypatch) -> list:
    """A list that gains each node the key pass keys from now on."""
    visits, children = [], jetoracle._children

    def counted(e):
        visits.append(e)
        return children(e)

    monkeypatch.setattr(jetoracle, "_children", counted)
    return visits


def doubled(e, times):
    """e + e, then that sum doubled again, times times: 2^times copies of e
    over times + 1 distinct nodes."""
    for _ in range(times):
        e = e + e
    return e


def test_time_derivative_check_visits_each_distinct_subtree_once(monkeypatch):
    # the semimartingale check rides the key pass, so d_t of a tree that
    # shares 2^22 copies of ell reads each distinct node once, not each path
    ctx = make_context(1)
    ell, z = ctx.sym("ell"), ctx.sym("z")
    visits = counted_children(monkeypatch)
    e = d_t(doubled(ell, 22)) - C(2 ** 22) * d_t(ell)
    assert all(v.is_zero for v in eval_jet_many(e, ctx, draws(3, range(2))))
    assert len(visits) < 100, len(visits)
    visits.clear()
    with pytest.raises(ExprError, match="time derivative applied over a semimartingale"):
        eval_jet_many(d_t(doubled(ell * z, 22)) + ell, ctx, draws(3, [0]))
    assert len(visits) < 100, len(visits)


def test_oracle_agrees_with_the_canonical_form_on_random_trees():
    # the oracle reads d() off e(u + du) under the Ito table; the
    # canonicalizer expands it by Leibniz and quadratic variation, so the
    # two witnesses must agree on every tree, differentials included
    ctx = make_context(2)
    rng = random.Random(5150)
    with_differential = 0
    for i in range(1000):
        e = random_expr(ctx, rng, depth=rng.randint(1, 8))
        a = [(i, 0), (i + 1, 1)]
        got = eval_jet_many(e, ctx, a)
        assert got == eval_jet_many(canonicalize(e, ctx).to_expr(), ctx, a), i
        with_differential += any(v.dt != (0, 0) or v.dB != (0, 0) for v in got)
    assert with_differential > 200


def ruled_orders(cf):
    """The atoms of cf that carry an order in a ruled direction: any order
    of phi, an x1 order of eta."""
    return [key for mono, _ in cf.terms() for key, _ in mono
            if key[0] == "f" and (key[1] == "phi" and (any(key[2]) or key[3])
                                  or key[1] == "eta" and key[2][0])]


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=6))
def test_oracle_agrees_with_the_canonical_form_on_ruled_contexts(seed, n, depth):
    # the catalog's constructs: ruled fields with mixed derivative orders,
    # conjugated ruled atoms, a null pair, rules set after first use,
    # products of two d() and d_x over a d() factor.  A canonical form is
    # reduced by the rules, so none of its atoms carries a ruled order.
    rng = random.Random(seed)
    ctx = make_ruled_context(n, rng)
    e = random_ruled_expr(ctx, rng, depth)
    cf = canonicalize(e, ctx)
    a = [(seed, 0), (seed + 1, 1)]
    assert eval_jet_many(e, ctx, a) == eval_jet_many(cf.to_expr(), ctx, a)
    assert not ruled_orders(cf)


def test_multiplicativity_on_plain_expressions():
    ctx = make_context(2)
    rng = random.Random(71)
    for seed in range(12):
        u = random_plain_expr(ctx, rng, 3)
        v = random_plain_expr(ctx, rng, 3)
        a = draws(100 + seed, [seed])
        (vu,), (vv,), (vp,) = (eval_jet_many(x, ctx, a) for x in (u, v, u * v))
        assert vp.value == gmul(vu.value, vv.value)


def test_linearity():
    ctx = make_context(2)
    rng = random.Random(9)
    u = random_plain_expr(ctx, rng, 4)
    a = draws(5, range(4))
    for single, double in zip(eval_jet_many(u, ctx, a),
                              eval_jet_many(u + u, ctx, a)):
        assert double.value == (2 * single.value.re % P, 2 * single.value.im % P)


def test_conjugation_consistency():
    ctx = make_context(2)
    rng = random.Random(23)
    u = random_plain_expr(ctx, rng, 4)
    a = draws(6, [7])
    (plain,), (conjugate,) = (eval_jet_many(x, ctx, a) for x in (u, conj(u)))
    assert conjugate.value == (plain.value.re, -plain.value.im % P)


def test_random_assignment_deterministic():
    # a draw depends only on the seed, the base point and the names
    ctx = make_context(2)
    e = d_x(ctx.sym("ell"), 1) * ctx.sym("Phi") + ctx.sym("z") * ctx.sym("lam")
    a = eval_jet_many(e, ctx, draws(42, range(3)))
    b = eval_jet_many(e, make_context(2), draws(42, range(3)))
    c = eval_jet_many(e, ctx, draws(43, range(3)))
    assert a == b
    assert a != c
    assert len({v.value for v in a}) == 3


def test_real_symbols_get_real_polynomials():
    ctx = make_context(2)
    for name, sym in ctx.symbols.items():
        s = ctx.sym(name)
        for e in (s, d_x(s, 1), d_x(d_x(s, 2), 1)):
            (v,) = eval_jet_many(e, ctx, draws(12, [0]))
            assert (v.value.im == 0) == sym.real, name
    # scalars are constants
    lam = ctx.sym("lam")
    a = draws(12, range(3))
    assert all(v.is_zero for v in eval_jet_many(d_x(lam, 1) + d_t(lam), ctx, a))
    assert not any(v.is_zero for v in eval_jet_many(lam, ctx, a))


def test_rewrite_field_jet_satisfies_its_rules():
    # phi stands for e^{3 mu t}: its jet comes from phi_t = 3 mu phi and
    # phi_x = 0, at every order the residual asks for
    case = build_case("ginzburg_landau")
    ctx = case.ctx
    phi, mu = ctx.sym("phi"), ctx.sym("mu")
    rules = [
        d_t(phi) - C(3) * mu * phi,
        d_x(phi, 1),
        d_x(d_t(phi), 2),
        d_t(d_t(d_t(phi))) - C(27) * mu * mu * mu * phi,
    ]
    for e in rules:
        assert all(v.is_zero for v in eval_jet_many(e, ctx, draws(8, range(5))))
    assert not any(v.is_zero for v in eval_jet_many(phi, ctx, draws(8, range(5))))


def test_rules_are_what_make_the_ginzburg_landau_residual_vanish():
    # negative control: without phi's rules its jet is a random one and
    # the intact identity no longer holds at the draw
    case = build_case("ginzburg_landau")
    residual = case.lhs - case.rhs
    a = draws(3, range(2))
    assert all(v.is_zero for v in eval_jet_many(residual, case.ctx, a))
    case.ctx.symbols["phi"].rewrites.clear()
    assert not any(v.is_zero for v in eval_jet_many(residual, case.ctx, a))


def test_null_pairs_are_honoured_by_every_assignment():
    # one name of each declared null pair gets the zero jet, so their
    # product vanishes at every draw while their sum does not
    ctx = Context(1)
    p, q = ctx.real_scalar("p"), ctx.real_scalar("q")
    ctx.declare_null_pair("p", "q")
    for seed in range(20):
        a = draws(seed, range(2))
        assert all(v.is_zero for v in eval_jet_many(p * q, ctx, a)), seed
        assert not any(v.is_zero for v in eval_jet_many(p + q, ctx, a)), seed


def test_oracle_imports_nothing_from_the_canonicalizer():
    tree = ast.parse(Path(jetoracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    for name in imported:
        parts = name.split(".")
        assert "exact" not in parts and "canonical" not in parts, name


def test_constants_enter_the_oracle_through_their_parts():
    # the oracle reads a constant only by its re / im Fractions; a
    # denominator of 6 maps to the inverse of 6 in F_p (Fermat)
    value = QQi(Fraction(5, 6), Fraction(-7, 6))
    inv6 = pow(6, P - 2, P)
    want = (5 * inv6 % P, -7 * inv6 % P)
    assert (jetoracle._fp(value.re), jetoracle._fp(value.im)) == want
    (v,) = eval_jet_many(Const(value), Context(1), draws(0, [0]))
    assert v.value == want and v.dt == (0, 0) and v.dB == (0, 0)


# Draws of both seed parities, so each null pair zeroes its first name in
# some draws and its second in others.
MIXED = [(seed, point) for seed in (2, 3, 10, 11) for point in (0, 1)]


def one_at_a_time(expr, ctx, points):
    return [v for point in points for v in eval_jet_many(expr, ctx, [point])]


def test_batched_draws_match_draws_one_at_a_time():
    # lam and s are zeroed in odd-seed draws and mu in even ones, so
    # their coefficients must be masked draw by draw
    ctx = make_context(2)
    mu, s = ctx.real_scalar("mu"), ctx.real_scalar("s")
    ctx.declare_null_pair("lam", "mu")
    ctx.declare_null_pair("s", "mu")
    rng = random.Random(404)
    for _ in range(12):
        u, v, w = (random_plain_expr(ctx, rng, 3) for _ in range(3))
        e = u * v + mu * w + s * u + ito_d(u * s)
        assert eval_jet_many(e, ctx, MIXED) == one_at_a_time(e, ctx, MIXED)
    masked = eval_jet_many(s, ctx, MIXED)
    assert [v.is_zero for v in masked] == [seed % 2 == 1 for seed, _ in MIXED]


@pytest.mark.parametrize("mutated", [False, True])
def test_batched_rule_derived_jets_match_draws_one_at_a_time(mutated):
    # phi's jet comes from its rules, derived order by order for all
    # draws at once
    case = build_case("ginzburg_landau")
    residual = case.lhs - (case.mutated_rhs if mutated else case.rhs)
    batched = eval_jet_many(residual, case.ctx, MIXED)
    assert batched == one_at_a_time(residual, case.ctx, MIXED)
    assert all(v.is_zero for v in batched) != mutated


def test_no_draws_give_no_values():
    ctx = make_context(1)
    assert eval_jet_many(ctx.sym("z") * ctx.sym("ell"), ctx, []) == []


# -- the walk's memo is keyed by structure ------------------------------


def tree_copy(e, edit=lambda node: node):
    """e rebuilt node by node as a tree, each new node passed through edit:
    with no edit, the same structure, and no node object shared between
    two parents."""
    t = type(e)
    if t in (Add, Mul):
        out = t([tree_copy(c, edit) for c in jetoracle._children(e)])
    elif t is Pow:
        out = Pow(tree_copy(e.base, edit), e.exp)
    elif t is Dx:
        out = Dx(e.j, tree_copy(e.arg, edit))
    elif t in (Dt, DIto, Conj, RePart, ImPart):
        out = t(tree_copy(e.arg, edit))
    elif t is Sym:
        out = Sym(e.sym)
    elif t is Const:
        out = Const(e.value)
    else:
        out = t()
    return edit(out)


def node_objects(e) -> int:
    """The number of distinct node objects in e."""
    seen, todo = set(), [e]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(jetoracle._children(node))
    return len(seen)


def near_misses():
    """Pairs of trees that differ only in what a structural key must see."""
    ctx = make_context(2)
    ctx.real_field("m")
    ell, phi = ctx.sym("ell"), ctx.sym("Phi")
    return ctx, {
        "direction": (d_x(ell, 1), d_x(ell, 2)),
        "exponent": (ell ** 2, ell ** 3),
        "constant": (C(2), C(3)),
        "constant part": (C(2), Const(QQi(0, 2))),
        "imaginary part of a constant": (Const(QQi(2, 1)), Const(QQi(2, 3))),
        "constant times i": (C(2), 2 * I),
        "real or imaginary part": (re(phi), im(phi)),
        "conjugate": (phi, conj(phi)),
        "differential": (DT, DB),
        "symbol": (ell, ctx.sym("m")),
    }


def gadd(a: Gauss, b: Gauss) -> Gauss:
    return Gauss((a.re + b.re) % P, (a.im + b.im) % P)


@pytest.mark.parametrize("pair", sorted(near_misses()[1]))
def test_near_miss_subtrees_keep_their_own_values(pair):
    # one walk reads both x and y; a key that confused them would hand y
    # the memoized value of x, making x - y vanish and x + y differ from
    # the sum of the two values taken in walks of their own
    ctx, pairs = near_misses()
    x, y = pairs[pair]
    assert not any(v.is_zero for v in eval_jet_many(x - y, ctx, MIXED))
    apart = zip(eval_jet_many(x, ctx, MIXED), eval_jet_many(y, ctx, MIXED))
    for v, (a, b) in zip(eval_jet_many(Add((x, y)), ctx, MIXED), apart):
        assert (v.value, v.dt, v.dB) == (gadd(a.value, b.value), gadd(a.dt, b.dt),
                                         gadd(a.dB, b.dB))


def counted_runs(monkeypatch) -> list:
    """A list that gains one entry per _Eval._run call from now on."""
    calls, run = [], _Eval._run

    def counted(self, *args):
        calls.append(1)
        return run(self, *args)

    monkeypatch.setattr(_Eval, "_run", counted)
    return calls


@pytest.mark.parametrize("target", [OperatorSpec(n=2, regime="R1"), "ginzburg_landau"])
def test_shared_and_unshared_residuals_walk_and_evaluate_alike(target, monkeypatch):
    # the builders share some subtree objects and repeat equal subtrees as
    # new objects; the tree copy has the same structure and shares no
    # object, so a walk keyed by structure takes the same steps on both
    case = build_case(target)
    calls = counted_runs(monkeypatch)
    for mutated in (False, True):
        residual = case.lhs - (case.mutated_rhs if mutated else case.rhs)
        values, walks = [], []
        for e in (residual, tree_copy(residual)):
            calls.clear()
            values.append(eval_jet_many(e, case.ctx, MIXED))
            walks.append(len(calls))
        assert values[0] == values[1]
        assert walks[0] == walks[1]
        assert all(v.is_zero for v in values[0]) != mutated


def test_walk_evaluates_each_distinct_subtree_once(monkeypatch):
    # the n = 3 R1 theorem residual has 3092 node objects and 1467
    # distinct subtrees; a walk memoized by object identity took 3257
    # _run calls on it, one memoized by structure 1895, counting plain and
    # shifted mode and the orders each subtree is asked at; evaluated once
    # on its needed set, each of its 1537 distinct keys took one.  The
    # off-diagonal entries of its coefficient matrix are C(0), so some of
    # its products are zero by their structure: the walk reads none of
    # them, and takes one call for each of the 1500 keys left
    case = build_case(OperatorSpec(n=3, regime="R1"))
    calls = counted_runs(monkeypatch)
    eval_jet_many(case.lhs - case.rhs, case.ctx, [(0, 0)])
    assert len(calls) == 1500


# -- trees that are zero by their structure are not walked --------------


def zero_factors(rng):
    """An edit that multiplies about one node in six by C(0), at a random
    place among the factors of a product."""
    def splice(node):
        if rng.random() >= 1 / 6:
            return node
        factors = list(node.factors) if type(node) is Mul else [node]
        factors.insert(rng.randint(0, len(factors)), C(0))
        return Mul(factors)

    return splice


def zero_as_p(node):
    """A zero constant as C(p): the walk reads it as 0 mod p, but the key
    pass does not see a zero, so the tree around it is walked in full."""
    if type(node) is Const and not (node.value.re or node.value.im):
        return Const(QQi(P))
    return node


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=6),
       st.booleans())
def test_skipping_zero_trees_changes_no_value(seed, n, depth, ruled):
    rng = random.Random(seed)
    if ruled:
        ctx = make_ruled_context(n, rng)
        e = random_ruled_expr(ctx, rng, depth)
    else:
        ctx = make_context(n)
        e = random_expr(ctx, rng, depth=depth)
    e = tree_copy(e, zero_factors(rng))
    a = [(seed, 0), (seed + 1, 1)]
    assert eval_jet_many(e, ctx, a) == eval_jet_many(tree_copy(e, zero_as_p), ctx, a)


def test_key_pass_skips_the_zero_products_of_the_r3_residual(monkeypatch):
    # R3 puts C(0) in for a and b, so most products of the n = 3 residual
    # hold a zero factor, and the key pass keys none of the factors after
    # it: 687 nodes, counting both modes, of 3094 node objects
    case = build_case(OperatorSpec(n=3, regime="R3"))
    residual, mutated = case.lhs - case.rhs, case.lhs - case.mutated_rhs
    nodes = node_objects(residual)
    visits = counted_children(monkeypatch)
    assert all(v.is_zero for v in eval_jet_many(residual, case.ctx, MIXED))
    assert len(visits) < nodes / 4, (len(visits), nodes)
    assert not any(v.is_zero for v in eval_jet_many(mutated, case.ctx, MIXED))


def test_draws_are_those_of_randrange():
    # a coefficient is drawn by randrange(P)'s own loop on getrandbits(61),
    # so a stream gives the ints randrange gives, a redraw included
    a, b = random.Random(7), random.Random(7)
    assert ([jetoracle._draw([a.getrandbits])[0] for _ in range(10_000)]
            == [b.randrange(P) for _ in range(10_000)])

    class Scripted(random.Random):
        def __init__(self, script):
            super().__init__(0)
            self.script = iter(script)

        def getrandbits(self, k):
            assert k == 61
            return next(self.script)

    script = [P, P, 5, P, 9]
    bits = [Scripted(script).getrandbits, None, Scripted([8]).getrandbits]
    assert jetoracle._draw(bits) == [5, 0, 8]
    assert Scripted(script).randrange(P) == 5


# -- each subtree is evaluated on its needed set ------------------------


def graded(mp):
    """Make every needed set the full graded set of its degree, as in a
    walk that computes each jet to its order: _structure's result fixes
    the sets of the keys the walk memoizes, _up those a derivative hands
    down to an argument it alone reads."""
    structure = jetoracle._structure

    def full(m, mask):
        return mask if mask < 0 else jetoracle._full(m, jetoracle._order(m, mask))

    def graded_structure(root, m):
        keys, asks, need = structure(root, m)
        return keys, asks, [full(m, mask) for mask in need]

    mp.setattr(jetoracle, "_structure", graded_structure)
    mp.setattr(jetoracle, "_up", lambda m, mask, v: jetoracle._full(
        m, jetoracle._order(m, mask) + 1))


def graded_values(e, ctx, a):
    with pytest.MonkeyPatch.context() as mp:
        graded(mp)
        return eval_jet_many(e, ctx, a)


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=6),
       st.booleans())
def test_needed_sets_give_the_values_of_the_graded_walk(seed, n, depth, ruled):
    # skipping the coefficients no parent reads changes no value, on the
    # plain generator's trees and on the catalog's ruled constructs
    rng = random.Random(seed)
    if ruled:
        ctx = make_ruled_context(n, rng)
        e = random_ruled_expr(ctx, rng, depth)
    else:
        ctx = make_context(n)
        e = random_expr(ctx, rng, depth=depth)
    a = [(seed, 0), (seed + 1, 1)]
    assert eval_jet_many(e, ctx, a) == graded_values(e, ctx, a)


def test_needed_sets_give_the_values_of_the_graded_walk_on_the_theorem():
    case = build_case(OperatorSpec(n=2, regime="R1"))
    for e in (case.lhs, case.lhs - case.rhs, case.lhs - case.mutated_rhs):
        assert eval_jet_many(e, case.ctx, MIXED) == graded_values(e, case.ctx, MIXED)


def test_walk_multiplies_only_the_needed_coefficients(monkeypatch):
    # on the n = 3 R1 theorem residual the graded walk hands _dot 6728
    # coefficient products in 4154 calls; on needed sets it handed 3293,
    # and 3279 once the products with a C(0) factor are skipped
    case = build_case(OperatorSpec(n=3, regime="R1"))
    products, dot = [], jetoracle._dot

    def counted(terms):
        products.append(len(terms))
        return dot(terms)

    monkeypatch.setattr(jetoracle, "_dot", counted)
    eval_jet_many(case.lhs - case.rhs, case.ctx, [(0, 0)])
    assert sum(products) == 3279
