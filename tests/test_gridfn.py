"""Knot-value rows on log grids: region semantics, norms, sampling."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from supineq import gridfn
from supineq.extreal import INF, amul, apow, xpow
from supineq.gridfn import (
    Grid,
    make_log_grid,
    region_measures,
    region_values,
    sample_monotone,
    sample_nonneg,
)
from supineq.operators import b_cumulative
from supineq.weights import (
    PiecewisePowerWeight,
    PowerWeight,
    TabulatedWeight,
    _quad_log,
    parse_weight,
)

GRID = make_log_grid(1e-3, 1e3, 13)
LEB = PowerWeight(1.0, 0.0)

cone_st = st.sampled_from(["non_increasing", "non_decreasing", "none"])
seed_st = st.integers(min_value=0, max_value=2**31 - 1)


def norm(values, cone, p, w, grid=GRID):
    """``(int f^p w)^{1/p}`` of the step function with these knot values: an
    exact sum over regions, as the oracle takes it."""
    terms = amul(apow(region_values(values, cone), p), region_measures(grid, w))
    return xpow(float(np.sum(terms)), 1.0 / p)


class TestGrid:
    def test_log_grid_shape(self):
        g = make_log_grid(1e-2, 1e2, 5)
        assert g.n == 5
        assert g.knots[0] == pytest.approx(1e-2)
        assert g.knots[-1] == pytest.approx(1e2)
        assert np.all(np.diff(np.log(g.knots)) > 0)

    def test_degenerate_grids_rejected(self):
        with pytest.raises(ValueError):
            make_log_grid(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            make_log_grid(1e-2, 1e2, 1)
        with pytest.raises(ValueError):
            make_log_grid(0.0, 1e2, 4)

    @pytest.mark.parametrize("knots", [(1.0, math.nan, 3.0), (math.nan, 1.0), (1.0, INF),
                                       (2.0, 1.0), (0.0, 1.0)], ids=repr)
    def test_nan_and_infinite_knots_rejected(self, knots):
        # NaN compares False with everything, so the checks are written to fail on it
        with pytest.raises(ValueError, match="finite"):
            Grid(knots)

    def test_minimal_two_point_grid(self):
        g = make_log_grid(0.5, 2.0, 2)
        assert g.n == 2

    def test_equal_arguments_give_one_grid(self):
        g = make_log_grid(1e-5, 1e5, 96)
        assert make_log_grid(1e-5, 1e5, 96) is g
        assert make_log_grid(eps=1e-5, M=1e5, n=96) is g
        assert make_log_grid(1e-5, 1e5, 97) is not g
        assert make_log_grid(1, 1000, 4) is make_log_grid(1.0, 1000.0, 4)
        assert make_log_grid(1, 1000, 4).knots == tuple(np.geomspace(1.0, 1000.0, 4).tolist())

    @pytest.mark.parametrize("args", [(1.0, 1.0, 4), (1e-2, 1e2, 1), (0.0, 1e2, 4),
                                      (math.nan, 1e2, 4), (1e-2, INF, 4), (2.0, 2.0 + 1e-15, 4096)],
                             ids=repr)
    def test_bad_grid_raises_on_every_call(self, args):
        # a failed build is not memoised: the second call checks again
        for _ in range(2):
            with pytest.raises(ValueError):
                make_log_grid(*args)


class TestGridFunctionSemantics:
    def test_non_increasing_regions(self):
        # values[i] on R_i = (k_{i-1}, k_i], the head region R_0 included; 0 on the tail
        vals = np.linspace(1.0, 0.1, GRID.n)
        rv = region_values(vals, "non_increasing")
        assert np.array_equal(rv[:-1], vals)
        assert rv[-1] == 0.0

    def test_non_decreasing_regions(self):
        # values[i] on R_{i+1}, i.e. on [k_i, k_{i+1}), the tail included; 0 on the head
        vals = np.linspace(0.1, 1.0, GRID.n)
        for cone in ("non_decreasing", "none"):
            rv = region_values(vals, cone)
            assert rv[0] == 0.0
            assert np.array_equal(rv[1:], vals)

    @given(cone_st, seed_st)
    @settings(max_examples=20, deadline=None)
    def test_region_values_length(self, cone, seed):
        # a stack of rows gives n+1 region values per row, each row on its own
        rows = np.array([sample_nonneg(GRID, seed + i) for i in range(3)])
        stacked = region_values(rows, cone)
        assert stacked.shape == (3, GRID.n + 1)
        for row, out in zip(rows, stacked):
            assert np.array_equal(region_values(row, cone), out)


class TestRegionMeasures:
    def test_lebesgue_measures(self):
        m = region_measures(GRID, LEB)
        k = GRID.knots
        assert m[0] == pytest.approx(k[0], rel=1e-12)
        assert m[1] == pytest.approx(k[1] - k[0], rel=1e-10)
        assert m[-1] == INF

    def test_total_mass_splits(self):
        w = PowerWeight(1.0, 0.0, 1.0)
        m = region_measures(GRID, w)
        assert np.sum(m) == pytest.approx(w.cum_up(0.0), rel=1e-8)


# -- region masses against the per-region integrate loop they replace ----------

def old_quad_log(w, a, b):
    """The quadrature of ``w`` as it was: the integrand is ``float(w(t))``."""
    lo = math.log(a) if a > 0.0 else -math.inf
    hi = math.log(b) if b < INF else math.inf

    def g(s):
        if abs(s) > 700.0:
            return 0.0
        t = math.exp(s)
        try:
            v = float(w(t)) * t
        except OverflowError:
            return 0.0
        return v if math.isfinite(v) else 0.0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _err = scipy.integrate.quad(g, lo, hi, epsabs=1e-300, epsrel=1e-10, limit=400)
    return max(val, 0.0)


def old_region_measures(grid, w):
    """One ``integrate`` per region, two cumulatives per interior knot."""
    def integrate(a, b):
        la, lb = w.cum_low(a), w.cum_low(b)
        if lb < INF:
            return max(lb - la, 0.0)
        ua, ub = w.cum_up(a), w.cum_up(b)
        if ua < INF:
            return max(ua - ub, 0.0)
        return old_quad_log(w, a, b)

    ks = grid.array()
    out = np.empty(grid.n + 1)
    out[0] = w.cum_low(ks[0])
    out[1:-1] = np.array([integrate(a, b) for a, b in zip(ks[:-1], ks[1:])])
    out[-1] = w.cum_up(ks[-1])
    return out


# the benchmark's two grid ranges, at the battery's n
BENCH_GRIDS = {"battery": make_log_grid(1e-5, 1e5, 96), "cli": make_log_grid(1e-6, 1e6, 96)}
EXP_TABLE_T = tuple(np.logspace(-4.0, 4.0, 25).tolist())  # 3 samples per decade

MASS_WEIGHTS = {
    "power": PowerWeight(2.0, 0.5),
    "powerexp": PowerWeight(1.0, 1.0, 0.5),
    "genpower": PowerWeight(1.0, 0.5, 0.3, 0.2),
    "piecewise": PiecewisePowerWeight((0.01, 10.0), (PowerWeight(1.0, -0.5), PowerWeight(2.0, 0.0),
                                                      PowerWeight(20.0, -1.0))),
    "table": TabulatedWeight(t=(1e-3, 0.1, 1.0, 30.0, 1e3), y=(3.0, 1.0, 0.4, 0.02, 1e-4)),
    "t^-1 (quadrature)": PowerWeight(1.0, -1.0),
    "t^-2 (upper cumulatives)": PowerWeight(1.0, -2.0),
    "powerexp t^-1.5 (upper quadrature)": PowerWeight(1.0, -1.5, 0.5),
    "B of a table": b_cumulative(TabulatedWeight(t=(1.0, 2.0), y=(1.0, 0.25))),
    # segment (215, 464) falls like t**-323: a**beta underflows, where the
    # table's mass was NaN before it had a closed form per segment
    "e^-t table, steep segment": TabulatedWeight(t=EXP_TABLE_T, y=tuple(math.exp(-t) for t in EXP_TABLE_T)),
}


class TestRegionMeasuresBitIdentical:
    @pytest.mark.parametrize("grid", sorted(BENCH_GRIDS))
    @pytest.mark.parametrize("name", sorted(MASS_WEIGHTS))
    def test_equals_per_region_integrate(self, name, grid):
        g, w = BENCH_GRIDS[grid], MASS_WEIGHTS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            new, old = region_measures(g, w), old_region_measures(g, w)
        assert np.array_equal(new.view(np.int64), old.view(np.int64))

    def test_steep_segment_is_closed_form(self, monkeypatch):
        # the end entries are the table's own cumulatives, with no NaN, no
        # warning and no quadrature; they agree with quadrature of the same
        # ranges, taken per segment (one quadrature across the kinks at the
        # samples is good to about 1e-9 only)
        w = MASS_WEIGHTS["e^-t table, steep segment"]
        ends = [0.0, *(t for t in EXP_TABLE_T if t < 1e3), 1e3]
        want_head = sum(_quad_log(w, a, b) for a, b in zip(ends, ends[1:]))
        want_tail = _quad_log(w, 300.0, EXP_TABLE_T[20]) + _quad_log(w, EXP_TABLE_T[20], INF)
        calls = []
        monkeypatch.setattr(scipy.integrate, "quad", lambda *a, **kw: calls.append(a))
        region_measures.cache_clear()  # another test may have computed these pairs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0.0 < w.cum_low(1000.0) < INF
            m = region_measures(BENCH_GRIDS["battery"], w)
            head = region_measures(make_log_grid(1e3, 1e5, 8), w)
            tail = region_measures(make_log_grid(1e-5, 300.0, 8), w)
        assert not calls
        assert head[0] == w.cum_low(1e3) and tail[-1] == w.cum_up(300.0)
        assert head[0] == pytest.approx(want_head, rel=1e-12)
        assert tail[-1] == pytest.approx(want_tail, rel=2e-13)
        assert not np.any(np.isnan(m))
        assert not np.any(np.isnan(head)) and not np.any(np.isnan(tail))

    def test_genpower_one_quadrature_per_knot(self, monkeypatch):
        calls = []
        quad = scipy.integrate.quad

        def counting(*args, **kw):
            calls.append(1)
            return quad(*args, **kw)

        monkeypatch.setattr(scipy.integrate, "quad", counting)
        g, w = BENCH_GRIDS["battery"], PowerWeight(1.0, 0.5, 0.3, 0.2)
        region_measures.cache_clear()  # another test may have computed this pair
        first = region_measures(g, w)
        assert 0 < len(calls) <= g.n + 1
        calls.clear()
        assert region_measures(g, w) is first and not calls


class TestRegionMeasuresMemo:
    """Masses are memoised per (grid, weight) value and handed out read-only."""

    def test_equal_grids_and_weights_share_one_entry(self):
        a = region_measures(make_log_grid(1e-5, 1e5, 96), parse_weight(
            {"form": "genpower", "c": 1.0, "alpha": 0.5, "lambda": 0.3, "mu": 0.2}))
        b = region_measures(make_log_grid(1e-5, 1e5, 96), PowerWeight(1.0, 0.5, 0.3, 0.2))
        assert a is b

    def test_result_is_read_only(self):
        m = region_measures(GRID, MASS_WEIGHTS["table"])
        with pytest.raises(ValueError):
            m[0] = 1.0


class TestWeightedNorm:
    def test_characteristic_l1_exact(self):
        # indicator of (0, k_j] under Lebesgue measure has L^1 norm k_j
        j = 6
        vals = np.zeros(GRID.n)
        vals[: j + 1] = 1.0
        assert norm(vals, "non_increasing", 1.0, LEB) == pytest.approx(GRID.knots[j], rel=1e-10)

    def test_tail_indicator_infinite_l1(self):
        # a non-decreasing row keeps its last value beyond M
        assert norm(np.ones(GRID.n), "non_decreasing", 1.0, LEB) == INF

    @given(seed_st, st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, seed, p):
        f = sample_monotone("non_increasing", GRID, seed)
        lam = 3.7
        nf = norm(f, "non_increasing", p, LEB)
        ng = norm(lam * f, "non_increasing", p, LEB)
        if np.isfinite(nf) and nf > 0:
            assert ng == pytest.approx(lam * nf, rel=1e-9)

    @given(seed_st)
    @settings(max_examples=40, deadline=None)
    def test_domination(self, seed):
        f = sample_monotone("non_increasing", GRID, seed)
        assert norm(f, "non_increasing", 1.0, LEB) <= norm(2.0 * f + 0.1, "non_increasing", 1.0, LEB)

    def test_refinement_invariance(self):
        # the same step function expressed on a refinement has the same norm
        coarse = make_log_grid(1e-2, 1e2, 5)
        fine = Grid(knots=tuple(np.unique(np.concatenate([
            coarse.knots, np.sqrt(np.asarray(coarse.knots)[:-1] * np.asarray(coarse.knots)[1:])]))))
        vals_c = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        # a fine knot in the coarse region R_i = (k_{i-1}, k_i] takes its value
        idx = np.searchsorted(coarse.array(), fine.array(), side="left")
        vals_f = region_values(vals_c, "non_increasing")[idx]
        for p in (1.0, 2.0):
            assert norm(vals_f, "non_increasing", p, LEB, fine) == pytest.approx(
                norm(vals_c, "non_increasing", p, LEB, coarse), rel=1e-10)


class TestSamplingAndProjection:
    @given(st.sampled_from(["non_increasing", "non_decreasing"]), seed_st)
    @settings(max_examples=60, deadline=None)
    def test_samples_respect_cone(self, cone, seed):
        v = sample_monotone(cone, GRID, seed)
        assert v.shape == (GRID.n,)
        assert np.all(v >= 0)
        if cone == "non_increasing":
            assert np.all(np.diff(v) <= 1e-12)
        else:
            assert np.all(np.diff(v) >= -1e-12)

    def test_sample_monotone_rejects_none_cone(self):
        with pytest.raises(ValueError):
            sample_monotone("none", GRID, 0)

    @given(seed_st)
    @settings(max_examples=30, deadline=None)
    def test_sampling_deterministic(self, seed):
        a = sample_monotone("non_increasing", GRID, seed)
        b = sample_monotone("non_increasing", GRID, seed)
        assert np.array_equal(a, b)

    def test_sample_nonneg_unconstrained(self):
        v = sample_nonneg(GRID, 11)
        assert v.shape == (GRID.n,)
        assert np.all(v >= 0)


def old_sample_monotone(cone, grid, seed):
    """The monotone sampler before its memo: a fresh draw per call."""
    rng = np.random.default_rng(seed)
    n = grid.n
    heavy = rng.random(n) < 0.2
    incs = np.where(heavy, rng.pareto(1.5, n) + 1.0, rng.exponential(1.0, n))
    incs *= rng.random(n) < 0.35
    vals = np.cumsum(incs)
    if cone == "non_increasing":
        vals = vals[::-1].copy()
    m = vals.max()
    if m > 0:
        vals = vals / m
    return vals


def old_sample_nonneg(grid, seed):
    """The nonnegative sampler before its memo."""
    rng = np.random.default_rng(seed)
    n = grid.n
    vals = rng.exponential(1.0, n) * (rng.random(n) < 0.3)
    heavy = rng.random(n) < 0.05
    vals = np.where(heavy, vals * (rng.pareto(1.5, n) + 1.0), vals)
    m = vals.max()
    if m > 0:
        vals = vals / m
    return vals


def memo_entry(row):
    """The memoised array a sample is, or is a view of."""
    return row if row.base is None else row.base


def draw(cone, grid, seed):
    return sample_nonneg(grid, seed) if cone == "none" else sample_monotone(cone, grid, seed)


# the battery's grid, the CLI default's and a small one; the oracle's own
# seeds (seed + 7919 (i + 1)) at the battery seed, then small ones
MEMO_GRIDS = [make_log_grid(1e-3, 1e3, 24), make_log_grid(1e-5, 1e5, 96), make_log_grid(1e-6, 1e6, 512)]
MEMO_SEEDS = [1234 + 7919 * (i + 1) for i in range(120)] + list(range(120))


class TestSampleMemo:
    """Samples are memoised per (grid, seed) value and handed out read-only;
    both monotone cones share one draw."""

    @pytest.mark.parametrize("cone", ["non_increasing", "non_decreasing", "none"])
    @pytest.mark.parametrize("grid", MEMO_GRIDS, ids=lambda g: f"n{g.n}")
    def test_bit_equal_to_a_fresh_draw(self, grid, cone):
        for seed in MEMO_SEEDS:
            want = old_sample_nonneg(grid, seed) if cone == "none" else old_sample_monotone(cone, grid, seed)
            for _ in range(2):  # a cold draw, then a memo hit
                got = draw(cone, grid, seed)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), seed

    @pytest.mark.parametrize("cone", ["non_increasing", "non_decreasing", "none"])
    def test_result_is_read_only(self, cone):
        row = draw(cone, GRID, 5)
        want = row.tobytes()
        with pytest.raises(ValueError):
            row[0] = 1.0
        copy = row.copy()  # a caller that writes copies first
        copy[:] = 1.0
        assert draw(cone, GRID, 5).tobytes() == want

    def test_non_increasing_is_the_reversed_non_decreasing(self):
        for seed in range(20):
            up = sample_monotone("non_decreasing", GRID, seed)
            down = sample_monotone("non_increasing", GRID, seed)
            assert memo_entry(down) is up  # one memo entry serves both cones
            assert down.tobytes() == up[::-1].tobytes()

    def test_none_cone_raises_on_a_warm_entry(self):
        sample_monotone("non_decreasing", GRID, 0)
        with pytest.raises(ValueError):
            sample_monotone("none", GRID, 0)

    def test_equal_grids_share_one_entry(self):
        knots = tuple(np.geomspace(1e-2, 1e2, 17).tolist())
        a, b = Grid(knots), Grid(tuple(np.geomspace(1e-2, 1e2, 17).tolist()))
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash(a.knots)
        gridfn._rising_sample.cache_clear()
        gridfn.sample_nonneg.cache_clear()
        for cone in ("non_decreasing", "none", "non_increasing"):
            assert memo_entry(draw(cone, b, 99)) is memo_entry(draw(cone, a, 99))
        assert gridfn._rising_sample.cache_info().misses == 1
        assert gridfn.sample_nonneg.cache_info().misses == 1
