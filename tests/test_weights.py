"""Carleman weight bundles: pinned values, parameter guards, and the heat
identity's energies evaluated on the parabolic weight.

The large-parameter behaviour of the heat energies on the parabolic
weight is the exact catalog identity heat_leading_order, pinned by the
acceptance criteria and the canonical and oracle goldens."""

import math

import pytest

from carlemanlab import canonical
from carlemanlab.exprs import Context, d_t, d_x
from carlemanlab.identity import heat_workspace
from carlemanlab.weights import GLWeight, HeatWeight, WeightError, heat_alpha, psi_1d

G0 = (0.3, 0.8)


def default_weight(mu=1.0, lam=1.0, T=1.0):
    return HeatWeight(psi=psi_1d(G0), mu=mu, lam=lam, T=T)


# -- spatial profile -------------------------------------------------


def test_psi_boundary_and_maximum():
    psi = psi_1d(G0)
    assert psi.value(0.0) == 0.0
    assert psi.value(1.0) == 0.0
    assert psi.value(0.5) == psi.max_value == 0.25


def test_observation_region_must_cover_critical_point():
    with pytest.raises(WeightError):
        psi_1d((0.6, 0.9))
    with pytest.raises(WeightError):
        psi_1d((0.3, 1.2))


# -- parabolic bundle ------------------------------------------------


def test_alpha_pinned_value():
    # mu = T = 1 at x = t = 1/2: (e^{1/4} - e^{1/2}) / (1/4)
    _, _, alpha = heat_alpha(default_weight(), 0.5, 0.5)
    closed = (math.exp(0.25) - math.exp(0.5)) / 0.25
    assert alpha == pytest.approx(closed, rel=1e-15)
    assert alpha == pytest.approx(-1.4588, abs=5e-5)


def test_theta_never_exceeds_one():
    w = default_weight(mu=2.0, lam=7.0)
    for x in (0.01, 0.25, 0.5, 0.77, 0.99):
        for t in (0.05, 0.5, 0.95):
            _, _, alpha = heat_alpha(w, x, t)
            assert alpha <= 0.0
            assert 0.0 < math.exp(w.lam * alpha) <= 1.0


@pytest.mark.parametrize("mu,T", [(1.0, 1.0), (4.0, 1.0), (2.5, 0.7)])
def test_algebraic_relations_between_bundle_members(mu, T):
    w = default_weight(mu=mu, T=T)
    estar = math.exp(2.0 * mu * w.psi.max_value)
    for x in (0.1, 0.45, 0.82):
        for frac in (0.2, 0.5, 0.9):
            t = frac * T
            gamma, emp, alpha = heat_alpha(w, x, t)
            u = t * (T - t)
            target = math.exp(mu * w.psi.value(x))
            assert emp == pytest.approx(target, rel=1e-12)
            assert alpha * u + estar == pytest.approx(target, rel=1e-12)
            assert gamma * u == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("kwargs", [
    dict(mu=0.0), dict(mu=-1.0), dict(lam=0.0), dict(mu=1500.0), dict(T=0.0),
])
def test_bad_parabolic_parameters(kwargs):
    with pytest.raises(WeightError):
        default_weight(**kwargs)


def test_mu_bound_keeps_the_alpha_offset_in_float_range():
    # 2 mu max psi = mu / 2 may reach 709 and no further; gamma = 1 at t = T/2
    w = default_weight(mu=1418.0, T=2.0)
    assert math.isfinite(heat_alpha(w, 0.5, 1.0)[2])
    with pytest.raises(WeightError):
        default_weight(mu=1419.0)


# -- the identity's energies on the parabolic weight -----------------


def _heat_jet(w, x, t):
    """The derivatives of ell = lam alpha that the 1-d heat energies read,
    keyed by (x order, t order).  alpha = (E - K) gamma with E = e^{mu psi}
    separates, so each x derivative is E's and each t derivative gamma's:
    gamma' = -(T - 2t) gamma^2 and gamma'' = 2 gamma^2 + 2 (T - 2t)^2 gamma^3."""
    gamma, emp, alpha = heat_alpha(w, x, t)
    mu, lam = w.mu, w.lam
    p1, p2 = 1.0 - 2.0 * x, -2.0  # psi' and psi''; psi''' = 0
    e1 = mu * p1 * emp
    e2 = (mu * p2 + mu**2 * p1**2) * emp
    e3 = (mu**3 * p1**3 + 3.0 * mu**2 * p1 * p2) * emp
    g1 = -(w.T - 2.0 * t) * gamma**2
    g2 = 2.0 * gamma**2 + 2.0 * (w.T - 2.0 * t) ** 2 * gamma**3
    return {
        (0, 0): lam * alpha,
        (1, 0): lam * e1 * gamma, (2, 0): lam * e2 * gamma, (3, 0): lam * e3 * gamma,
        (0, 1): lam * alpha * g1 / gamma, (0, 2): lam * alpha * g2 / gamma,
        (1, 1): lam * e1 * g1, (2, 1): lam * e2 * g1,
    }


def _evaluate(form, jet):
    """A canonical form in the derivatives of one real field ell, at the
    values jet[(x order, t order)]."""
    total = 0.0
    for mono, coeff in form.terms():
        assert coeff.im == 0
        value = float(coeff.re)
        for (_, name, mi, to, _), e in mono:
            assert name == "ell"
            value *= jet[(mi[0], to)] ** e
        total += value
    return total


def _reference_terms(jet):
    """The hand-written 1-d heat energies, as the terms each one sums:
    A = ell_x^2 - ell_xx, its derivatives A_x and A_t, and
    B = 2 A_x ell_x - 2 A ell_xx - A_t + ell_tt - 8 ell_xx^2 + 4 ell_xx ell_t."""
    lx, lxx = jet[(1, 0)], jet[(2, 0)]
    A = [lx * lx, -lxx]
    A_x = [2.0 * lx * lxx, -jet[(3, 0)]]
    A_t = [2.0 * lx * jet[(1, 1)], -jet[(2, 1)]]
    B = [2.0 * sum(A_x) * lx, -2.0 * sum(A) * lxx, -sum(A_t), jet[(0, 2)],
         -8.0 * lxx * lxx, 4.0 * lxx * jet[(0, 1)]]
    return {"A": A, "A_x": A_x, "A_t": A_t, "B": B}


def _heat_energy_forms():
    """Canonical forms of heat_workspace's A, A_x, A_t and B on n = 1."""
    ctx = Context(n=1)
    ws = heat_workspace(ctx, ctx.semimartingale("z", real=True), ctx.real_field("ell"))
    exprs = {"A": ws.A, "A_x": d_x(ws.A, 1), "A_t": d_t(ws.A), "B": ws.B_coef()}
    return {name: canonical.canonicalize(e, ctx) for name, e in exprs.items()}


@pytest.mark.parametrize("mu", [1.0, 4.0])
@pytest.mark.parametrize("lam", [1.0, 1e2, 1e4])
def test_heat_energies_are_the_identitys(mu, lam):
    forms = _heat_energy_forms()
    w = default_weight(mu=mu, lam=lam)
    h_x, h_t = 1e-5, 1e-6
    for x in (0.1, 0.3, 0.5, 0.7, 0.9):
        for t in (0.2, 0.5, 0.8):
            jet = _heat_jet(w, x, t)
            # the jet's first derivatives are heat_alpha's, by central differences
            ell = jet[(0, 0)]
            fd_x = lam * (heat_alpha(w, x + h_x, t)[2] - heat_alpha(w, x - h_x, t)[2]) / (2 * h_x)
            fd_t = lam * (heat_alpha(w, x, t + h_t)[2] - heat_alpha(w, x, t - h_t)[2]) / (2 * h_t)
            assert jet[(1, 0)] == pytest.approx(fd_x, rel=1e-6, abs=1e-6 * abs(ell)), (x, t)
            assert jet[(0, 1)] == pytest.approx(fd_t, rel=1e-6, abs=1e-6 * abs(ell)), (x, t)
            for name, terms in _reference_terms(jet).items():
                got = _evaluate(forms[name], jet)
                # A_t is 0 at t = T/2: the floor is relative to the terms' size
                scale = sum(abs(term) for term in terms)
                assert sum(terms) == pytest.approx(got, rel=1e-12, abs=1e-12 * scale), \
                    (name, x, t)


# -- time-global bundle ----------------------------------------------


def test_gl_weight_basics():
    w = GLWeight(mu=3.0, T=0.3)
    assert (w.mu, w.T) == (3.0, 0.3)


def test_gl_weight_parameter_guards():
    with pytest.raises(WeightError):
        GLWeight(mu=1.5, T=0.3)
    with pytest.raises(WeightError):
        GLWeight(mu=3.0, T=0.0)
    with pytest.raises(WeightError):
        GLWeight(mu=6.0, T=0.3)  # theta^2 would overflow doubles
    GLWeight(mu=4.0, T=0.3)  # in range
