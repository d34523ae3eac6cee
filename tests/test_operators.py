"""Integral and supremal operators on step functions: exactness and structure.

Each check runs the operator kernel on the region values of one witness (its
knot values in a cone) and reads the output at the knots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supineq.extreal import INF
from supineq.gridfn import make_log_grid, region_values, sample_monotone, sample_nonneg
from supineq.operators import (
    OperatorKernel,
    OperatorKind,
    b_cumulative,
    copson_at_knots,
    hardy_at_knots,
)
from supineq.weights import PowerWeight

GRID = make_log_grid(1e-3, 1e3, 25)
ONE = PowerWeight(1.0, 0.0)
T = PowerWeight(1.0, 1.0)
KNOTS = GRID.array()
LENGTHS = np.concatenate([[KNOTS[0]], np.diff(KNOTS), [INF]])  # of regions R_0..R_n
seed_st = st.integers(min_value=0, max_value=2**31 - 1)


def regions(f, cone):
    """The region values of one witness, as a one-row stack."""
    return region_values(f, cone)[None]


def hardy(f, cone):
    """``hardy_at_knots`` of one witness, inside the errstate it expects."""
    with np.errstate(all="ignore"):
        return hardy_at_knots(regions(f, cone), LENGTHS)


def copson(f, cone):
    """``copson_at_knots`` of one witness, inside the errstate it expects."""
    with np.errstate(all="ignore"):
        return copson_at_knots(regions(f, cone), LENGTHS)


def apply(kind, f, cone):
    """Knot values of the operator's output on ``f``.  A non-decreasing output
    (S) takes out(k_{i-1}) on region R_i, a non-increasing one (S*, T_ub)
    takes out(k_i)."""
    with np.errstate(all="ignore"):
        out = OperatorKernel(kind, cone, GRID).apply(regions(f, cone))[0]
    return out[1:] if kind.base == "S" else out[:-1]


def indicator(j):
    """chi_(0, k_j] as non-increasing knot values."""
    vals = np.zeros(GRID.n)
    vals[: j + 1] = 1.0
    return vals


class TestHardyCopson:
    @given(seed_st)
    @settings(max_examples=30, deadline=None)
    def test_hardy_exact_at_knots(self, seed):
        f = sample_monotone("non_increasing", GRID, seed)
        out = hardy(f, "non_increasing")[0]
        expect = np.cumsum(region_values(f, "non_increasing")[:-1] * LENGTHS[:-1])
        assert np.allclose(out, expect, rtol=1e-12)

    @given(seed_st)
    @settings(max_examples=30, deadline=None)
    def test_copson_exact_at_knots(self, seed):
        # non-increasing input has zero tail, so the upper integral is finite
        f = sample_monotone("non_increasing", GRID, seed)
        out = copson(f, "non_increasing")[0]
        # region (k_j, k_{j+1}] carries f[j+1]
        diffs = -np.diff(out)
        assert np.allclose(diffs, f[1:] * np.diff(KNOTS), rtol=1e-10, atol=1e-300)
        assert out[-1] == pytest.approx(0.0, abs=1e-300)

    def test_hardy_of_indicator(self):
        j = 10
        out = hardy(indicator(j), "non_increasing")[0]
        assert out[j] == pytest.approx(KNOTS[j], rel=1e-12)
        assert out[-1] == pytest.approx(KNOTS[j], rel=1e-12)

    def test_copson_infinite_tail(self):
        # a non-decreasing row keeps its last value, here 1, beyond M
        out = copson(np.ones(GRID.n), "non_decreasing")[0]
        assert out[0] == INF


class TestSupOps:
    def test_s_with_unit_weight_on_decreasing(self):
        f = sample_monotone("non_increasing", GRID, 2)
        out = apply(OperatorKind("S", None, ONE), f, "non_increasing")
        head = region_values(f, "non_increasing")[0]
        assert np.allclose(out, head)

    def test_s_star_with_unit_weight_on_increasing(self):
        f = sample_monotone("non_decreasing", GRID, 3)
        out = apply(OperatorKind("S*", None, ONE), f, "non_decreasing")
        tail_sup = np.max(region_values(f, "non_decreasing"))
        assert out[0] == pytest.approx(tail_sup)

    @given(seed_st, st.sampled_from(["S", "S*"]))
    @settings(max_examples=30, deadline=None)
    def test_output_monotonicity(self, seed, variant):
        f = sample_nonneg(GRID, seed)
        # bounded u for S*: an unbounded weight against a positive tail gives
        # an identically infinite output, where monotonicity is vacuous
        u = PowerWeight(1.0, 0.5) if variant == "S" else PowerWeight(1.0, 0.5, 0.1)
        d = np.diff(apply(OperatorKind(variant, None, u), f, "none"))
        if variant == "S":
            assert np.all(d >= -1e-12)
        else:
            assert np.all(d <= 1e-12)

    @given(seed_st)
    @settings(max_examples=30, deadline=None)
    def test_homogeneity(self, seed):
        f = sample_nonneg(GRID, seed)
        kind = OperatorKind("S", None, PowerWeight(1.0, 1.0, 0.5))
        assert np.allclose(apply(kind, 2.5 * f, "none"), 2.5 * apply(kind, f, "none"), rtol=1e-12)

    @given(seed_st)
    @settings(max_examples=30, deadline=None)
    def test_subadditive(self, seed):
        f = sample_nonneg(GRID, seed)
        g = sample_nonneg(GRID, seed + 1)
        kind = OperatorKind("S*", None, PowerWeight(1.0, 0.5))
        lhs = apply(kind, f + g, "none")
        rhs = apply(kind, f, "none") + apply(kind, g, "none")
        assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-300)

    def test_s_constant_weight_is_running_max(self):
        f = sample_nonneg(GRID, 9)
        out = apply(OperatorKind("S", None, PowerWeight(2.0, 0.0)), f, "none")
        # regions at or below k_j: the head region and [k_{i-1}, k_i) for i <= j
        rv = region_values(f, "none")
        expect = 2.0 * np.maximum.accumulate(rv[:-1])
        assert np.allclose(out, expect, rtol=1e-12)


class TestTub:
    def test_b_cumulative_power(self):
        B = b_cumulative(PowerWeight(2.0, 1.0))
        assert B(3.0) == pytest.approx(9.0, rel=1e-12)

    def test_indicator_closed_form(self):
        # u = t, b = 1: T f(t) = sup_{tau >= t} (1/tau) int_0^tau f * tau
        # for f = indicator of (0, a] this is identically a
        j = 12
        out = apply(OperatorKind("T_ub", None, T, ONE), indicator(j), "non_increasing")
        assert np.allclose(out, KNOTS[j], rtol=1e-12)

    @given(seed_st)
    @settings(max_examples=30, deadline=None)
    def test_output_non_increasing(self, seed):
        f = sample_monotone("non_increasing", GRID, seed)
        out = apply(OperatorKind("T_ub", None, PowerWeight(1.0, 0.5), PowerWeight(2.0, 1.0)), f,
                    "non_increasing")
        assert np.all(np.diff(out) <= 1e-12)

    @pytest.mark.parametrize("u, b", [(T, ONE), (PowerWeight(1.0, 2.0), PowerWeight(2.0, 1.0)),
                                      (PowerWeight(1.0, 0.5), ONE),
                                      (PowerWeight(1.0, -0.5), PowerWeight(2.0, 1.0))],
                             ids=["t-1", "t2-2t", "sqrt-1", "invsqrt-2t"])
    @given(seed=seed_st)
    @settings(max_examples=20, deadline=None)
    def test_dominates_s_star_on_cone(self, u, b, seed):
        # int_0^tau f b >= f(tau) B(tau) for non-increasing f, so
        # T_{u,b} f >= S*_u f at every knot
        f = sample_monotone("non_increasing", GRID, seed)
        t_out = apply(OperatorKind("T_ub", None, u, b), f, "non_increasing")
        s_out = apply(OperatorKind("S*", None, u), f, "non_increasing")
        assert np.all(s_out <= t_out * (1 + 1e-12))

    def test_t_gamma_kind(self):
        kind = OperatorKind.t_gamma(0.5)
        assert kind.base == "T_ub"
        assert kind.u(4.0) == pytest.approx(2.0)
        assert kind.b(7.0) == pytest.approx(1.0)


class TestApplySpec:
    def test_composition_matches_manual(self):
        f = sample_monotone("non_increasing", GRID, 4)
        u = PowerWeight(1.0, 0.5)
        out = OperatorKernel(OperatorKind("S*", "H", u), "non_increasing", GRID).apply(
            regions(f, "non_increasing"))
        # H f is non-decreasing: region R_i takes (H f)(k_{i-1}), R_0 takes 0
        hf = np.concatenate([[[0.0]], hardy(f, "non_increasing")], axis=1)
        manual = OperatorKernel(OperatorKind("S*", None, u), "non_decreasing", GRID).apply(hf)
        assert np.allclose(out, manual, rtol=1e-12)

    def test_composition_with_copson(self):
        f = sample_monotone("non_decreasing", GRID, 6)
        u = PowerWeight(1.0, 0.0, 0.1)
        out = OperatorKernel(OperatorKind("S", "H*", u), "non_decreasing", GRID).apply(
            regions(f, "non_decreasing"))
        # H* f is non-increasing: region R_i takes (H* f)(k_i), R_n takes 0
        hf = np.concatenate([copson(f, "non_decreasing"), [[0.0]]], axis=1)
        manual = OperatorKernel(OperatorKind("S", None, u), "non_increasing", GRID).apply(hf)
        assert np.array_equal(out, manual)

    def test_plain_bases(self):
        # u = t, b = 1 on f = indicator of (0, a]: S f = min(t, a),
        # S* f = a on (0, a] and 0 beyond, and T_ub f = a
        j = 12
        a = KNOTS[j]
        expect = {"S": np.minimum(KNOTS, a), "S*": np.where(KNOTS <= a, a, 0.0),
                  "T_ub": np.full(GRID.n, a)}
        for base, want in expect.items():
            got = apply(OperatorKind(base, None, T, ONE), indicator(j), "non_increasing")
            assert np.allclose(got, want, rtol=1e-12, atol=0.0), base

    def test_invalid_compose_rejected(self):
        with pytest.raises(ValueError):
            OperatorKind(base="T_ub", compose="H")
