"""Extended nonnegative arithmetic: scalar helpers, array helpers, wrapper type."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supineq.extreal import INF, ExtNonneg, adiv, amul, apow, xdiv, xmul, xpow

finite_pos = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False)
nonneg = st.one_of(st.just(0.0), st.just(INF), finite_pos)


class TestScalarConventions:
    def test_zero_times_inf(self):
        assert xmul(0.0, INF) == 0.0
        assert xmul(INF, 0.0) == 0.0

    def test_inf_over_inf(self):
        assert xdiv(INF, INF) == 0.0

    def test_zero_over_zero(self):
        assert xdiv(0.0, 0.0) == 0.0

    def test_positive_over_zero(self):
        assert xdiv(3.0, 0.0) == INF
        assert xdiv(INF, 0.0) == INF

    def test_zero_over_positive(self):
        assert xdiv(0.0, 5.0) == 0.0
        assert xdiv(0.0, INF) == 0.0

    def test_power_overflow_is_inf(self):
        # float ** raises OverflowError; IEEE pow, and so apow, gives +inf
        assert xpow(1e200, 2.0) == INF
        assert xpow(1e-200, -2.0) == INF
        assert xpow(1e300, 1.5) == float(apow(np.array([1e300]), 1.5)[0]) == INF
        assert xpow(1e-200, 2.0) == 0.0
        assert xpow(1e200, 1.5) == 1e200 ** 1.5

    def test_power_conventions(self):
        assert xpow(0.0, 0.0) == 1.0
        assert xpow(INF, 0.0) == 1.0
        assert xpow(0.0, 2.0) == 0.0
        assert xpow(0.0, -1.0) == INF
        assert xpow(INF, 2.0) == INF
        assert xpow(INF, -1.0) == 0.0

    @given(finite_pos, finite_pos)
    def test_finite_agrees_with_float(self, a, b):
        assert xmul(a, b) == a * b
        assert xdiv(a, b) == a / b


class TestArrayHelpers:
    def test_amul_matches_scalar(self):
        a = np.array([0.0, INF, 2.0, 0.0, INF])
        b = np.array([INF, 0.0, 3.0, 0.0, INF])
        out = amul(a, b)
        expect = np.array([xmul(x, y) for x, y in zip(a, b)])
        assert np.array_equal(out, expect)

    def test_adiv_matches_scalar(self):
        a = np.array([0.0, INF, 2.0, 0.0, INF, 1.0])
        b = np.array([0.0, INF, 0.0, 5.0, 2.0, 0.0])
        out = adiv(a, b)
        expect = np.array([xdiv(x, y) for x, y in zip(a, b)])
        assert np.array_equal(out, expect)

    def test_apow_matches_scalar(self):
        a = np.array([0.0, INF, 2.0, 0.0, INF])
        for e in (0.0, 2.0, -1.0, 0.5):
            out = apow(a, e)
            expect = np.array([xpow(x, e) for x in a])
            assert np.array_equal(out, expect)

    @given(st.lists(nonneg, min_size=1, max_size=8), st.lists(nonneg, min_size=1, max_size=8))
    def test_array_scalar_consistency(self, xs, ys):
        n = min(len(xs), len(ys))
        a, b = np.array(xs[:n]), np.array(ys[:n])
        assert np.array_equal(amul(a, b), np.array([xmul(x, y) for x, y in zip(a, b)]))
        assert np.array_equal(adiv(a, b), np.array([xdiv(x, y) for x, y in zip(a, b)]))


class TestExtNonneg:
    def test_rejects_negative_and_nan(self):
        with pytest.raises(ValueError):
            ExtNonneg(-1.0)
        with pytest.raises(ValueError):
            ExtNonneg(math.nan)

    def test_arithmetic(self):
        zero, two, inf = ExtNonneg(0.0), ExtNonneg(2.0), ExtNonneg(INF)
        assert (zero * inf).value == 0.0
        assert (inf / inf).value == 0.0
        assert (two / zero).value == INF
        assert (two + inf).value == INF

    def test_total_order(self):
        vals = [ExtNonneg(x) for x in (INF, 0.0, 3.0, 1.0)]
        ordered = sorted(vals)
        assert [v.value for v in ordered] == [0.0, 1.0, 3.0, INF]

    @given(nonneg, nonneg)
    def test_mul_commutes(self, a, b):
        assert (ExtNonneg(a) * ExtNonneg(b)).value == (ExtNonneg(b) * ExtNonneg(a)).value


def _masked_apow(a, e):
    """The explicit-mask form of ``apow``: the reference for its IEEE fast path."""
    a = np.asarray(a, dtype=float)
    if e == 0.0:
        return np.ones_like(a)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = a ** e
    if e < 0:
        out = np.where(a == 0.0, INF, out)
        return np.where(a == INF, 0.0, out)
    out = np.where(a == 0.0, 0.0, out)
    return np.where(a == INF, INF, out)


EXPONENTS = (-3.0, -2.0, -1.0, -0.5, 1.0 / 3.0, 0.5, 1.0, 2.0, 3.0)
SPECIAL = np.array([0.0, INF, 1e-300, 1e300, 2.5, 3.0, 5e-324, 2.2e-308])


class TestFastPath:
    """The array helpers on the shapes the batched oracle uses, and at the edges."""

    def test_amul_broadcasts_rows_against_measures(self):
        rows = np.array([[0.0, 1.0, INF, 2.0], [INF, 0.0, 3.0, 0.5], [1.0, 1.0, 1.0, 0.0]])
        meas = np.array([INF, INF, 0.0, 4.0])
        out = amul(rows, meas)
        assert out.shape == rows.shape
        expect = np.array([[xmul(x, y) for x, y in zip(r, meas)] for r in rows])
        assert np.array_equal(out, expect)
        assert np.array_equal(amul(meas, rows), expect)

    def test_amul_row_column_broadcast(self):
        col = np.array([[0.0], [INF], [2.0]])
        row = np.array([INF, 0.0, 1e-300])
        expect = np.array([[xmul(c, r) for r in row] for c in col[:, 0]])
        assert np.array_equal(amul(col, row), expect)

    def test_apow_on_rows(self):
        rows = np.tile(SPECIAL, (3, 1))
        for e in EXPONENTS:
            out = apow(rows, e)
            assert out.shape == rows.shape
            assert np.array_equal(out, _masked_apow(rows, e))
            assert np.array_equal(out[1], apow(SPECIAL, e))

    def test_fast_path_equals_masks_bitwise(self):
        for e in EXPONENTS + (0.0,):
            assert np.array_equal(apow(SPECIAL, e), _masked_apow(SPECIAL, e))

    def test_overflow_is_inf(self):
        assert amul(np.array([1e200]), np.array([1e200]))[0] == INF
        out = amul(np.array([1e200, 0.0, 1e200]), np.array([1e200, 1e200, INF]))
        assert np.array_equal(out, [INF, 0.0, INF])
        assert apow(np.array([1e200]), 2.0)[0] == INF
        assert apow(np.array([1e-200]), -2.0)[0] == INF

    def test_subnormals(self):
        tiny = 5e-324
        assert amul(np.array([tiny]), np.array([0.5]))[0] == tiny * 0.5
        assert amul(np.array([tiny]), np.array([INF]))[0] == INF
        assert amul(np.array([tiny, 0.0]), np.array([0.0, tiny]))[1] == 0.0
        assert apow(np.array([tiny]), -1.0)[0] == INF
        assert apow(np.array([tiny]), 2.0)[0] == 0.0
        assert apow(np.array([tiny]), 1.0)[0] == tiny

    def test_unit_exponent_is_identity_copy(self):
        a = np.array([0.0, INF, 1e-300, 2.5])
        out = apow(a, 1.0)
        assert np.array_equal(out, a)
        out[0] = 7.0
        assert a[0] == 0.0

    def test_zero_d_inputs_give_arrays(self):
        assert np.ndim(amul(0.0, INF)) == 0 and float(amul(0.0, INF)) == 0.0
        assert np.ndim(apow(0.0, -1.0)) == 0 and float(apow(0.0, -1.0)) == INF

    def test_nan_inputs_keep_the_masked_result(self):
        # NaN is outside [0, inf]; the fast path still returns what the masks give
        a = np.array([np.nan, np.nan, 0.0, INF])
        b = np.array([0.0, 2.0, INF, 0.0])
        out = amul(a, b)
        assert out[0] == 0.0 and np.isnan(out[1]) and out[2] == 0.0 and out[3] == 0.0

    @given(st.lists(nonneg, min_size=1, max_size=8),
           st.sampled_from([-3.0, -2.0, -1.0, -0.5, -1.0 / 3.0]))
    def test_apow_negative_exponent_array_scalar_consistency(self, xs, e):
        a = np.array(xs)
        out = apow(a, e)
        assert np.array_equal(out, _masked_apow(a, e))
        ref = np.array([xpow(x, e) for x in xs])
        # 0 and inf map exactly; other values agree up to libm rounding, which
        # differs between numpy's vector pow and the C library's scalar pow
        edge = (a == 0.0) | (a == INF)
        assert np.array_equal(out[edge], ref[edge])
        assert np.allclose(out[~edge], ref[~edge], rtol=4e-16, atol=1e-300)
