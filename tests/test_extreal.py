"""Extended nonnegative arithmetic: scalar helpers and array helpers."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from supineq.extreal import INF, _adiv, _amul, _apow, _product, adiv, amul, apow, xdiv, xmul, xpow

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

    def test_outside_the_domain_fmax_gives_zero(self):
        # NaN and negative numbers are outside [0, inf]; ``fmax`` with 0 sends
        # a NaN or negative product or quotient to 0
        a = np.array([np.nan, np.nan, 0.0, INF, -2.0])
        b = np.array([0.0, 2.0, INF, 0.0, 3.0])
        assert amul(a, b).tolist() == [0.0, 0.0, 0.0, 0.0, 0.0]
        assert adiv(a, b).tolist() == [0.0, 0.0, 0.0, INF, 0.0]

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


def _masked_amul(a, b):
    """The masked form of ``amul``: the reference for its one ``fmax``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        out = a * b
    if np.isnan(out).any():
        out = np.where((a == 0.0) | (b == 0.0), 0.0, out)
    return np.asarray(out)


def _masked_adiv(a, b):
    """The four-mask form of ``adiv``: the reference for its one ``fmax``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        out = a / b
    out = np.where(a == 0.0, 0.0, out)
    out = np.where((a != 0.0) & (b == 0.0), INF, out)
    out = np.where(b == INF, np.where(a == INF, 0.0, out), out)
    out = np.where((b == INF) & (a != INF), 0.0, out)
    return out


EDGE = (0.0, INF, 5e-324, 2.5e-310, 1e-300, 1.0, 1e300)
on_half_line = st.one_of(st.sampled_from(EDGE), st.floats(min_value=0.0, allow_nan=False))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestRawProduct:
    """``amul`` and ``adiv``, one ufunc and one ``fmax`` each, equal their
    masked forms bit for bit on [0, inf]; ``_amul``, the engine's product,
    is ``amul`` without the ``np.errstate``."""

    @given(st.lists(st.tuples(on_half_line, on_half_line), min_size=1, max_size=12))
    def test_equals_masks_bitwise(self, pairs):
        a, b = np.array(pairs).T
        assert np.array_equal(_bits(amul(a, b)), _bits(_masked_amul(a, b)))
        assert np.array_equal(_bits(adiv(a, b)), _bits(_masked_adiv(a, b)))

    def test_every_pair_of_edge_values(self):
        a = np.array(EDGE)
        # a column against a row: every pair, as rows are taken against measures
        for op, ref in ((amul, _masked_amul), (adiv, _masked_adiv)):
            assert np.array_equal(_bits(op(a[:, None], a)), _bits(ref(a[:, None], a)))
            # a Python float against an array, as the kernel takes its tail factors
            for x in EDGE:
                assert np.array_equal(_bits(op(a, x)), _bits(ref(a, x)))
                assert np.array_equal(_bits(op(x, a)), _bits(ref(x, a)))
        assert amul(np.array([0.0, INF]), np.array([INF, 0.0])).tolist() == [0.0, 0.0]
        assert amul(np.array([1e300]), np.array([1e300]))[0] == INF

    @given(st.lists(st.tuples(on_half_line, on_half_line), min_size=1, max_size=12))
    def test_engine_product_equals_amul_bitwise(self, pairs):
        a, b = np.array(pairs).T
        with np.errstate(all="ignore"):
            got = _amul(a, b)
        assert np.array_equal(_bits(got), _bits(amul(a, b)))

    def test_engine_product_in_place(self):
        a = np.array([0.0, 2.0, INF])
        with np.errstate(all="ignore"):
            out = _amul(a, np.array([INF, 3.0, 0.0]), out=a)
        assert out is a and a.tolist() == [0.0, 6.0, 0.0]


RAW_EXPONENTS = (0.0, 1.0, 2.0, 0.5, -1.0, 1.0 / 3.0)


class TestRawQuotientAndPower:
    """``_adiv`` and ``_apow``, the raw kernels, equal ``adiv`` and ``apow``
    bit for bit, into a new array and in place; a power by exactly 1 with no
    other ``out`` returns its input."""

    @given(st.lists(st.tuples(on_half_line, on_half_line), min_size=1, max_size=12))
    def test_quotient_equals_adiv_bitwise(self, pairs):
        a, b = np.array(pairs).T
        ref = adiv(a, b)
        with np.errstate(all="ignore"):
            got = _adiv(a, b)
            into_b = _adiv(a, b.copy(), out=b)
        assert np.array_equal(_bits(got), _bits(ref))
        assert into_b is b and np.array_equal(_bits(b), _bits(ref))

    def test_quotient_of_every_pair_of_edge_values(self):
        a = np.array(EDGE)
        with np.errstate(all="ignore"):
            assert np.array_equal(_bits(_adiv(a[:, None], a)), _bits(adiv(a[:, None], a)))
            for x in EDGE:
                assert np.array_equal(_bits(_adiv(x, a)), _bits(adiv(x, a)))
                assert np.array_equal(_bits(_adiv(a, x)), _bits(adiv(a, x)))

    @given(st.lists(on_half_line, min_size=1, max_size=12), st.sampled_from(RAW_EXPONENTS))
    def test_power_equals_apow_bitwise(self, xs, e):
        a = np.array(xs)
        ref = apow(a, e)
        with np.errstate(all="ignore"):
            got = _apow(a, e)
            inplace = a.copy()
            assert _apow(inplace, e, out=inplace) is inplace
        assert np.array_equal(_bits(got), _bits(ref))
        assert np.array_equal(_bits(inplace), _bits(ref))

    def test_power_of_edge_values(self):
        a = np.array(EDGE)
        for e in RAW_EXPONENTS:
            with np.errstate(all="ignore"):
                got = _apow(a, e)
            assert np.array_equal(_bits(got), _bits(apow(a, e))), e
            edge = (a == 0.0) | (a == INF)  # exact conventions, as ``xpow`` states them
            assert got[edge].tolist() == [xpow(x, e) for x in a[edge]], e

    def test_power_by_one_returns_its_input(self):
        a = np.array(EDGE)
        assert _apow(a, 1.0) is a and _apow(a, 1.0, out=a) is a
        out = np.empty_like(a)
        assert _apow(a, 1.0, out=out) is out and np.array_equal(_bits(out), _bits(a))
        # the public helper still makes a new array
        assert apow(a, 1.0) is not a


class TestProductRule:
    """``_product`` skips the ``fmax`` only for a factor whose entries are all
    finite and positive; against rows in [0, inf] that plain product equals
    ``_amul`` bit for bit."""

    def test_decided_from_every_entry(self):
        assert _product(np.array([5e-324, 1.0, 1e308])) is np.multiply
        assert _product(2.0) is np.multiply
        for bad in (0.0, INF, np.nan):
            assert _product(np.array([1.0, bad, 2.0])) is _amul
            assert _product(bad) is _amul

    @given(st.lists(finite_pos, min_size=1, max_size=12),
           st.lists(on_half_line, min_size=1, max_size=12))
    def test_plain_product_equals_the_guarded_one(self, factor, row):
        factor, row = np.array(factor), np.array(row)
        rows = np.resize(row, (3, len(factor)))
        with np.errstate(all="ignore"):
            got = _product(factor)(factor, rows)
            assert np.array_equal(_bits(got), _bits(_amul(factor, rows)))


FAST_EDGE = (-0.0, 0.0, 5e-324, 2.2e-308, 1e154, 1e155, 1e308, INF)


class TestExactFastPowers:
    """``_apow`` sends the exponents 2 and 1/2 to ``np.square`` and
    ``np.sqrt``; both give ``np.power``'s bits on [0, inf], into a new array
    and in place, and ``apow`` still makes a new array."""

    @given(st.lists(st.one_of(st.sampled_from(FAST_EDGE), st.floats(min_value=0.0, allow_nan=False)),
                    min_size=1, max_size=16),
           st.sampled_from((2.0, 0.5)))
    def test_equal_np_power_bitwise(self, xs, e):
        a = np.array(xs)
        with np.errstate(all="ignore"):
            ref = np.power(a, e)
            got = _apow(a, e)
            inplace = a.copy()
            assert _apow(inplace, e, out=inplace) is inplace
        public = apow(a, e)
        for arr in (got, inplace, public):
            assert np.array_equal(_bits(arr), _bits(ref))
        assert got is not a and public is not a and not np.shares_memory(public, a)

    def test_edge_values(self):
        a = np.array(FAST_EDGE)
        for e in (2.0, 0.5):
            with np.errstate(all="ignore"):
                ref = np.power(a, e)
                got = _apow(a, e)
            assert np.array_equal(_bits(got), _bits(ref)), e
            assert np.array_equal(_bits(apow(a, e)), _bits(ref)), e
        with np.errstate(all="ignore"):
            square, root = _apow(a, 2.0), _apow(a, 0.5)
        # squares underflow to 0 below about 1.5e-162 and overflow above 1.3e154
        assert square[:4].tolist() == [0.0] * 4 and np.isinf(square[5:]).all() and 0 < square[4] < INF
        assert root[1] == 0.0 and root[-1] == INF
        # np.power reads (-0)**2 as +0 and (-0)**0.5 as -0 (C's pow gives +0 there), as square and sqrt do
        assert not np.signbit(square[0]) and np.signbit(root[0])
