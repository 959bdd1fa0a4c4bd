"""Carleman weight bundles: pinned values, calculus checks, asymptotics."""

import math

import pytest

from carlemanlab.weights import (
    GLWeight,
    HeatWeight,
    WeightError,
    heat_weight_eval,
    leading_order_B_check,
    psi_1d,
)

G0 = (0.3, 0.8)


def default_weight(mu=1.0, lam=1.0, k=1, T=1.0):
    return HeatWeight(psi=psi_1d(G0), mu=mu, lam=lam, k=k, T=T)


# -- spatial profile -------------------------------------------------


def test_psi_boundary_and_maximum():
    psi = psi_1d(G0)
    assert psi.value(0.0) == 0.0
    assert psi.value(1.0) == 0.0
    assert psi.value(0.5) == psi.max_value == 0.25
    assert psi.d1(0.5) == 0.0
    assert psi.d2(0.3) == -2.0 and psi.d3(0.9) == 0.0


def test_psi_gradient_bounded_off_critical_region():
    psi = psi_1d((0.4, 0.6))
    xs = [i / 1000 for i in range(1001)]
    assert all(abs(psi.d1(x)) >= 0.2 - 1e-12 for x in xs if not 0.4 < x < 0.6)


def test_observation_region_must_cover_critical_point():
    with pytest.raises(WeightError):
        psi_1d((0.6, 0.9))
    with pytest.raises(WeightError):
        psi_1d((0.3, 1.2))
    inner = psi_1d((0.3, 0.8)).G1
    assert 0.3 < inner[0] < 0.5 < inner[1] < 0.8


# -- parabolic bundle ------------------------------------------------


def test_alpha_pinned_value():
    # mu = k = T = 1 at x = t = 1/2: (e^{1/4} - e^{1/2}) / (1/4)
    v = heat_weight_eval(default_weight(), 0.5, 0.5)
    closed = (math.exp(0.25) - math.exp(0.5)) / 0.25
    assert v.alpha == pytest.approx(closed, rel=1e-15)
    assert v.alpha == pytest.approx(-1.4588, abs=5e-5)


def test_theta_never_exceeds_one():
    w = default_weight(mu=2.0, lam=7.0)
    for x in (0.01, 0.25, 0.5, 0.77, 0.99):
        for t in (0.05, 0.5, 0.95):
            v = heat_weight_eval(w, x, t)
            assert v.alpha <= 0.0
            assert 0.0 < v.theta <= 1.0


@pytest.mark.parametrize("mu,k,T", [(1.0, 1, 1.0), (4.0, 1, 1.0), (2.5, 2, 0.7)])
def test_algebraic_relations_between_bundle_members(mu, k, T):
    w = default_weight(mu=mu, k=k, T=T)
    estar = math.exp(2.0 * mu * w.psi.max_value)
    for x in (0.1, 0.45, 0.82):
        for frac in (0.2, 0.5, 0.9):
            t = frac * T
            v = heat_weight_eval(w, x, t)
            u = (t * (T - t)) ** k
            target = math.exp(mu * w.psi.value(x))
            assert v.alpha * u + estar == pytest.approx(target, rel=1e-12)
            assert v.phi * u == pytest.approx(target, rel=1e-12)
            assert v.theta == pytest.approx(math.exp(w.lam * v.alpha), rel=1e-12)
            assert v.ell == pytest.approx(w.lam * v.alpha, rel=1e-14)


def test_derivatives_match_finite_differences():
    w = default_weight(mu=3.0, lam=2.0)
    x, t, h = 0.3, 0.6, 1e-6

    def val(name, xx, tt):
        return getattr(heat_weight_eval(w, xx, tt), name)

    for name, dname, wrt in [
        ("ell", "ell_x", "x"), ("ell_x", "ell_xx", "x"),
        ("ell_xx", "ell_xxx", "x"), ("ell", "ell_t", "t"),
        ("ell_t", "ell_tt", "t"), ("ell_x", "ell_xt", "t"),
        ("ell_xx", "ell_xxt", "t"), ("A", "A_x", "x"), ("A", "A_t", "t"),
    ]:
        if wrt == "x":
            fd = (val(name, x + h, t) - val(name, x - h, t)) / (2 * h)
        else:
            fd = (val(name, x, t + h) - val(name, x, t - h)) / (2 * h)
        assert fd == pytest.approx(val(dname, x, t), rel=1e-5), dname


def test_evaluation_outside_time_interval_rejected():
    w = default_weight()
    for t in (0.0, 1.0, -0.2, 3.0):
        with pytest.raises(WeightError):
            heat_weight_eval(w, 0.3, t)


@pytest.mark.parametrize("kwargs", [
    dict(mu=0.0), dict(mu=-1.0), dict(lam=0.0), dict(k=0), dict(T=0.0),
])
def test_bad_parabolic_parameters(kwargs):
    with pytest.raises(WeightError):
        default_weight(**kwargs)


# -- large-parameter behavior ----------------------------------------


def test_energy_density_leading_term():
    # A = ell_x^2 - ell_xx approaches lam^2 mu^2 phi^2 psi'^2 like c/lam
    mu, x, t = 4.0, 0.2, 0.5
    devs = []
    for lam in (1e2, 1e3, 1e4):
        w = default_weight(mu=mu, lam=lam)
        v = heat_weight_eval(w, x, t)
        lead = lam**2 * mu**2 * v.phi**2 * w.psi.d1(x) ** 2
        devs.append(abs(v.A / lead - 1.0))
    assert devs[0] < 0.05
    assert devs[1] <= devs[0] / 5.0
    assert devs[2] <= devs[1] / 5.0
    # the deviation scales like 1/lam: dev * lam is nearly constant
    scaled = [d * lam for d, lam in zip(devs, (1e2, 1e3, 1e4))]
    assert max(scaled) <= 1.5 * min(scaled)


def test_zero_order_energy_leading_term():
    w = default_weight(mu=4.0, lam=1e4)
    points = [(0.2, 0.5), (0.75, 0.4)]
    out = leading_order_B_check(w, points, (1e3, 1e4, 1e5))
    assert all(abs(r - 1.0) <= 0.15 for r in out["ratio_cubic"][1e4])
    assert out["deviation_cubic"][1e5] < out["deviation_cubic"][1e3]
    assert out["monotone_cubic"]
    assert out["monotone_gradient"]
    # the gradient normalization levels off away from 1
    for x_t, limit in zip(points, out["gradient_limit"]):
        x = x_t[0]
        want = 1.0 + w.psi.d2(x) / (w.mu * w.psi.d1(x) ** 2)
        assert limit == pytest.approx(want, rel=1e-12)
        last = out["ratio_gradient"][1e5][points.index(x_t)]
        assert last == pytest.approx(limit, abs=0.05)


def test_zero_order_energy_deviation_scales_like_inverse_lambda():
    w = default_weight(mu=4.0, lam=1.0)
    out = leading_order_B_check(w, [(0.2, 0.5)], (1e3, 1e4, 1e5))
    dev = out["deviation_cubic"]
    assert dev[1e4] == pytest.approx(dev[1e3] / 10.0, rel=0.25)
    assert dev[1e5] == pytest.approx(dev[1e4] / 10.0, rel=0.25)
    assert out["cubic_slope_vs_inv_lambda"] > 0.0


def test_critical_point_and_bad_windows_rejected():
    w = default_weight(mu=4.0)
    with pytest.raises(WeightError):
        leading_order_B_check(w, [(0.5, 0.5)], (1e3,))
    with pytest.raises(WeightError):
        leading_order_B_check(w, [(0.2, 0.05)], (1e3,))
    with pytest.raises(WeightError):
        leading_order_B_check(w, [], (1e3,))


# -- time-global bundle ----------------------------------------------


def test_gl_weight_basics():
    w = GLWeight(mu=3.0, T=0.3)
    assert w.phi(0.0) == 1.0
    assert w.ell(0.1) == pytest.approx(3.0 * math.exp(0.9), rel=1e-15)
    assert w.log_theta(0.2) == pytest.approx(3.0 * math.exp(1.8), rel=1e-15)
    assert w.theta(0.0) == pytest.approx(math.exp(3.0), rel=1e-15)


def test_gl_weight_parameter_guards():
    with pytest.raises(WeightError):
        GLWeight(mu=1.5, T=0.3)
    with pytest.raises(WeightError):
        GLWeight(mu=3.0, T=0.0)
    with pytest.raises(WeightError):
        GLWeight(mu=6.0, T=0.3)  # theta^2 would overflow doubles
    GLWeight(mu=4.0, T=0.3)  # in range
