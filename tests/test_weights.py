"""Weight families, cumulatives, transforms, and exponent bookkeeping."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from supineq.extreal import INF
from supineq.weights import (
    Exponents,
    FuncWeight,
    PiecewisePowerWeight,
    PowerWeight,
    TabulatedWeight,
    conjugate,
    dual_substitute,
    parse_weight,
    phi_weights,
    psi_weights,
    running_sup,
    sigma_p,
    weight_mul,
    weight_pow,
    weight_scale,
)

alpha_st = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
coef_st = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


class TestPowerWeight:
    def test_pointwise_formula(self):
        w = PowerWeight(2.0, 1.5, 0.3, 0.1)
        for t in (0.2, 1.0, 7.0):
            assert w(t) == pytest.approx(2.0 * t**1.5 * math.exp(-0.3 * t - 0.1 / t))

    def test_pure_power_cumulative_exact(self):
        w = PowerWeight(3.0, 2.0)
        # int_0^x 3 t^2 dt = x^3
        assert w.cum_low(2.0) == pytest.approx(8.0, rel=1e-12)
        assert w.cum_up(2.0) == INF

    def test_exponential_cumulative_closed_form(self):
        w = PowerWeight(1.0, 0.0, 1.0)
        assert w.cum_low(1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10)
        assert w.cum_up(1.0) == pytest.approx(math.exp(-1.0), rel=1e-10)
        assert w.total() == pytest.approx(1.0, rel=1e-10)

    def test_gamma_cumulative_matches_quadrature(self):
        w = PowerWeight(1.0, 2.0, 0.5)
        val, _ = integrate.quad(w, 0.0, 3.0)
        assert w.cum_low(3.0) == pytest.approx(val, rel=1e-8)

    def test_nonintegrable_head_and_tail(self):
        assert PowerWeight(1.0, -1.0).cum_low(1.0) == INF
        assert PowerWeight(1.0, -1.0).cum_up(1.0) == INF
        assert PowerWeight(1.0, -2.0).cum_up(1.0) == pytest.approx(1.0, rel=1e-12)

    def test_interval_sup_unimodal(self):
        # t e^{-t} peaks at t = 1 with value e^{-1}
        w = PowerWeight(1.0, 1.0, 1.0)
        assert w.sup_on_interval(0.0, INF) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert w.sup_on_interval(2.0, INF) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)
        assert w.sup_on_interval(0.0, 0.5) == pytest.approx(0.5 * math.exp(-0.5), rel=1e-12)

    @given(coef_st, alpha_st)
    @settings(max_examples=50, deadline=None)
    def test_cumulative_splits(self, c, alpha):
        w = PowerWeight(c, alpha, 1.0, 1.0)
        lo, hi = w.cum_low(1.0), w.cum_up(1.0)
        assert w.total() == pytest.approx(lo + hi, rel=1e-8)

    @given(coef_st, alpha_st, st.floats(min_value=-1.5, max_value=1.5))
    @settings(max_examples=50, deadline=None)
    def test_dual_is_involution(self, c, alpha, e):
        w = PowerWeight(c, alpha, 0.7, 0.2)
        back = w.dual(e).dual(e)
        assert back.c == pytest.approx(w.c)
        assert back.alpha == pytest.approx(w.alpha)
        assert back.lam == pytest.approx(w.lam)
        assert back.mu == pytest.approx(w.mu)

    def test_power_and_scale(self):
        w = PowerWeight(2.0, 1.0, 0.5)
        for t in (0.3, 2.0):
            assert w.power(2.0)(t) == pytest.approx(w(t) ** 2, rel=1e-12)
            assert w.scale(3.0)(t) == pytest.approx(3.0 * w(t), rel=1e-12)


class TestPiecewiseAndTabulated:
    def test_piecewise_evaluation_and_mass(self):
        w = PiecewisePowerWeight(
            knots=(1.0, 2.0),
            segments=(PowerWeight(1.0, 0.0), PowerWeight(2.0, 1.0), PowerWeight(0.0, 0.0)),
        )
        assert w(0.5) == 1.0
        assert w(1.5) == 3.0
        assert w(5.0) == 0.0
        # mass: 1 on (0,1], int_1^2 2t dt = 3, zero tail
        assert w.cum_low(2.0) == pytest.approx(4.0, rel=1e-12)
        assert w.total() == pytest.approx(4.0, rel=1e-12)
        assert w.cum_up(1.0) == pytest.approx(3.0, rel=1e-12)

    def test_tabulated_loglinear_interp(self):
        w = TabulatedWeight(t=(1.0, 100.0), y=(1.0, 100.0))
        assert w(10.0) == pytest.approx(10.0, rel=1e-9)

    def test_tabulated_mass_matches_power_law(self):
        w = TabulatedWeight(t=(1.0, 10.0, 100.0), y=(1.0, 10.0, 100.0))
        # interpolant is y = t on [1, 100]
        assert w.integrate(1.0, 100.0) == pytest.approx((100.0**2 - 1.0) / 2.0, rel=1e-9)

    def test_tabulated_constant_extension(self):
        w = TabulatedWeight(t=(1.0, 2.0), y=(3.0, 3.0))
        assert w(0.1) == pytest.approx(3.0) and w(50.0) == pytest.approx(3.0)
        assert w.cum_up(2.0) == INF


# -- the scalar integrand of the quadrature ------------------------------------

SWEEP = np.concatenate([[0.0], np.geomspace(1e-320, 1e300, 2001)])

SCALAR_WEIGHTS = {
    "power": PowerWeight(2.0, 1.5),
    "power-negative": PowerWeight(0.5, -2.5),
    "constant": PowerWeight(3.0, 0.0),
    "zero": PowerWeight(0.0, 1.0),
    "powerexp": PowerWeight(1.0, 0.7, 2.0),
    "genpower": PowerWeight(1.3, 0.4, 0.8, 0.6),
    "genpower-c0": PowerWeight(0.0, 0.4, 0.8, 0.6),
    "genpower-alpha-neg": PowerWeight(2.0, -2.5, 0.3, 1.5),
    "genpower-large": PowerWeight(5.0, 1.0, 1e3, 1e4),
    "table": TabulatedWeight(t=(0.1, 1.0, 10.0, 100.0), y=(2.0, 0.5, 0.3, 0.01)),
    "table-zeros": TabulatedWeight(t=(0.01, 0.1, 1.0, 10.0, 100.0), y=(0.0, 1.0, 0.0, 0.0, 2.0)),
    "table-zero-ends": TabulatedWeight(t=(1e-3, 1.0, 1e3), y=(0.0, 4.0, 0.0)),
}


def bits(xs):
    return np.asarray(xs, dtype=float).view(np.int64)


class TestScalarIntegrand:
    """``_scalar``, the integrand ``_quad_log`` calls, is ``float(w(t))``."""

    @pytest.mark.parametrize("name", sorted(SCALAR_WEIGHTS))
    def test_bit_equal_on_log_sweep(self, name):
        w = SCALAR_WEIGHTS[name]
        with np.errstate(all="ignore"):
            fast = [w._scalar(t) for t in SWEEP]
        assert all(type(v) is float for v in fast)
        assert np.array_equal(bits(fast), bits([float(w(t)) for t in SWEEP]))

    def test_table_log_arrays_are_built_on_first_use(self):
        w = TabulatedWeight(t=(1.0, 2.0), y=(1.0, 4.0))
        assert "_logs" not in vars(w)
        w(1.5)
        assert "_logs" in vars(w)

    @given(st.floats(min_value=0.0, max_value=1e3), alpha_st,
           st.floats(min_value=0.0, max_value=1e4), st.floats(min_value=0.0, max_value=1e4),
           st.floats(min_value=0.0, max_value=1e300))
    @settings(max_examples=300, deadline=None)
    def test_power_bit_equal(self, c, alpha, lam, mu, t):
        w = PowerWeight(c, alpha, lam, mu)
        with np.errstate(all="ignore"):
            fast = w._scalar(t)
        assert bits(fast) == bits(float(w(t)))

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=6),
           st.floats(min_value=0.0, max_value=1e300))
    @settings(max_examples=200, deadline=None)
    def test_table_bit_equal(self, ys, t):
        w = TabulatedWeight(t=tuple(np.geomspace(1e-2, 1e2, len(ys)).tolist()), y=tuple(ys))
        with np.errstate(all="ignore"):
            fast = w._scalar(t)
        assert bits(fast) == bits(float(w(t)))


class TestTransforms:
    def test_running_sup_up_to_t(self):
        u = PowerWeight(1.0, 1.0, 1.0)  # peaks at 1 with e^{-1}
        ubar = running_sup(u, "up_to_t")
        assert ubar(0.5) == pytest.approx(0.5 * math.exp(-0.5), rel=1e-10)
        assert ubar(2.0) == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_running_sup_from_t(self):
        u = PowerWeight(1.0, 1.0, 1.0)
        utail = running_sup(u, "from_t")
        assert utail(0.5) == pytest.approx(math.exp(-1.0), rel=1e-10)
        assert utail(2.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-10)

    def test_running_sup_tabulated_cummax(self):
        w = TabulatedWeight(t=(1.0, 2.0, 3.0), y=(2.0, 5.0, 1.0))
        up = running_sup(w, "up_to_t")
        assert up(3.0) == pytest.approx(5.0, rel=1e-9)

    def test_dual_substitute_pointwise(self):
        w = PowerWeight(2.0, 1.0, 0.5, 0.0)
        for e in (0.0, 1.0, -0.5):
            d = dual_substitute(w, e)
            for t in (0.25, 1.0, 4.0):
                assert d(t) == pytest.approx(w(1.0 / t) * (1.0 / t**2) ** e, rel=1e-10)

    def test_weight_mul_powerweights_exact(self):
        a = PowerWeight(2.0, 1.0, 0.5)
        b = PowerWeight(3.0, -0.5, 0.25)
        m = weight_mul(a, b)
        assert isinstance(m, PowerWeight)
        for t in (0.5, 2.0):
            assert m(t) == pytest.approx(a(t) * b(t), rel=1e-12)

    def test_weight_pow_and_scale_generic(self):
        w = FuncWeight(lambda t: 1.0 / (1.0 + t), label="test")
        for t in (0.5, 3.0):
            assert weight_pow(w, 2.0)(t) == pytest.approx(w(t) ** 2)
            assert weight_scale(w, 5.0)(t) == pytest.approx(5.0 * w(t))


class TestLevelTransforms:
    def test_phi_power_weight_closed_form(self):
        # v = t, p = 3: int_0^x t^{1-p'} dt = 2 sqrt(x), so the level
        # function is (2 sqrt(x))^{2/5}
        _, Phi = phi_weights(PowerWeight(1.0, 1.0), 3.0)
        for x in (0.5, 1.0, 4.0):
            assert Phi(x) == pytest.approx((2.0 * math.sqrt(x)) ** 0.4, rel=1e-10)

    @pytest.mark.parametrize("alpha,p", [(1.0, 3.0), (0.5, 2.0), (0.0, 1.5)])
    def test_phi_integral_identity(self, alpha, p):
        v = PowerWeight(1.0, alpha)
        phi, Phi = phi_weights(v, p)
        pprime = conjugate(p)
        for x in (0.5, 2.0):
            val, _ = integrate.quad(phi, 0.0, x)
            assert val == pytest.approx((pprime + 1.0) * Phi(x), rel=1e-8)

    @pytest.mark.parametrize("alpha,p", [(3.0, 3.0), (2.5, 2.0)])
    def test_psi_integral_identity(self, alpha, p):
        v = PowerWeight(1.0, alpha)
        psi, Psi = psi_weights(v, p)
        pprime = conjugate(p)
        for x in (0.5, 2.0):
            val, _ = integrate.quad(psi, x, np.inf)
            assert val == pytest.approx((pprime + 1.0) * Psi(x), rel=1e-6)

    def test_phi_rejects_degenerate(self):
        with pytest.raises(ValueError):
            phi_weights(PowerWeight(1.0, 3.0), 2.0)  # head integral diverges


class TestSigmaP:
    def test_p1_is_sup_of_reciprocal(self):
        v = PowerWeight(1.0, 1.0)  # 1/v = 1/t, sup on [a,b] at a
        assert sigma_p(v, 1.0, 0.5, 2.0) == pytest.approx(2.0, rel=1e-10)

    def test_p2_closed_form(self):
        # p=2: p'=2, sigma = (int_a^b t^{-1} dt)^{1/2}
        v = PowerWeight(1.0, 1.0)
        assert sigma_p(v, 2.0, 1.0, math.e) == pytest.approx(1.0, rel=1e-8)

    def test_monotone_in_interval(self):
        v = PowerWeight(1.0, 0.5)
        vals = [sigma_p(v, 2.0, 0.0, b) for b in (1.0, 2.0, 4.0)]
        assert vals[0] <= vals[1] <= vals[2]


class TestExponents:
    def test_conjugate(self):
        assert conjugate(1.0) == INF
        assert conjugate(2.0) == 2.0
        assert conjugate(4.0) == pytest.approx(4.0 / 3.0)

    def test_r_defined_only_when_q_below_p(self):
        e = Exponents(3.0, 1.5)
        assert 1.0 / e.r == pytest.approx(1.0 / 1.5 - 1.0 / 3.0)
        with pytest.raises(ValueError):
            _ = Exponents(1.0, 2.0).r

    def test_regime_labels(self):
        assert Exponents(1.0, 2.0).regime == "p=1,p<=q"
        assert Exponents(2.0, 1.0).regime == "1<p,q<p"
        assert Exponents(0.5, 0.5).regime == "p<1,p<=q"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Exponents(0.0, 1.0)
        with pytest.raises(ValueError):
            Exponents(1.0, -2.0)


class TestParsing:
    def test_round_trip_power(self):
        w = parse_weight({"form": "power", "c": 2.0, "alpha": -0.5})
        assert isinstance(w, PowerWeight)
        again = parse_weight(json.loads(json.dumps(w.to_json())))
        assert again(3.0) == pytest.approx(w(3.0))

    def test_bare_number_is_constant(self):
        w = parse_weight(4.0)
        assert w(0.01) == 4.0 and w(100.0) == 4.0

    def test_piecewise_and_table_forms(self):
        pw = parse_weight({
            "form": "piecewise",
            "knots": [1.0],
            "segments": [{"form": "power", "c": 1.0, "alpha": 0.0},
                         {"form": "power", "c": 1.0, "alpha": -2.0}],
        })
        assert pw(0.5) == 1.0 and pw(2.0) == 0.25
        tw = parse_weight({"form": "table", "t": [1.0, 2.0], "y": [1.0, 2.0]})
        assert tw(1.5) == pytest.approx(1.5, rel=1e-6)

    def test_bad_form_raises(self):
        with pytest.raises((ValueError, KeyError)):
            parse_weight({"form": "nope"})
