"""Step functions on log grids: semantics, norms, sampling, cone projection."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from supineq.extreal import INF
from supineq.gridfn import (
    Grid,
    GridFunction,
    make_log_grid,
    project_cone,
    region_measures,
    sample_monotone,
    sample_nonneg,
    weighted_norm,
)
from supineq.operators import b_cumulative
from supineq.weights import PiecewisePowerWeight, PowerWeight, TabulatedWeight

GRID = make_log_grid(1e-3, 1e3, 13)
LEB = PowerWeight(1.0, 0.0)

cone_st = st.sampled_from(["non_increasing", "non_decreasing", "none"])
seed_st = st.integers(min_value=0, max_value=2**31 - 1)


def simple(values, cone="non_increasing", grid=GRID, **kw):
    return GridFunction(grid, np.asarray(values, dtype=float), cone, **kw)


class TestGrid:
    def test_log_grid_shape(self):
        g = make_log_grid(1e-2, 1e2, 5)
        assert g.n == 5
        assert g.eps == pytest.approx(1e-2)
        assert g.M == pytest.approx(1e2)
        assert np.all(np.diff(np.log(g.knots)) > 0)

    def test_degenerate_grids_rejected(self):
        with pytest.raises(ValueError):
            make_log_grid(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            make_log_grid(1e-2, 1e2, 1)
        with pytest.raises(ValueError):
            make_log_grid(0.0, 1e2, 4)

    def test_minimal_two_point_grid(self):
        g = make_log_grid(0.5, 2.0, 2)
        assert g.n == 2


class TestGridFunctionSemantics:
    def test_non_increasing_regions(self):
        k = GRID.knots
        f = simple(np.linspace(1.0, 0.1, GRID.n), cone="non_increasing")
        # value on (k_{i-1}, k_i] is values[i]; head extends values[0]; tail is 0
        assert f(k[3]) == f.values[3]
        assert f(0.5 * (k[2] + k[3])) == f.values[3]
        assert f(k[0] * 0.5) == f.values[0]
        assert f(k[-1] * 2.0) == 0.0

    def test_non_decreasing_regions(self):
        k = GRID.knots
        vals = np.linspace(0.1, 1.0, GRID.n)
        f = simple(vals, cone="non_decreasing")
        # value on [k_i, k_{i+1}) is values[i]; head defaults to 0
        assert f(k[3]) == vals[3]
        assert f(0.5 * (k[3] + k[4])) == vals[3]
        assert f(k[0] * 0.5) == 0.0
        assert f(k[-1] * 2.0) == vals[-1]

    def test_cone_violation_rejected(self):
        with pytest.raises(ValueError):
            simple([0.1, 1.0] + [0.05] * (GRID.n - 2), cone="non_increasing")
        with pytest.raises(ValueError):
            simple([1.0, 0.1] + [2.0] * (GRID.n - 2), cone="non_decreasing")

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            simple([-1.0] * GRID.n, cone="none")

    def test_region_values_length(self):
        f = simple(np.ones(GRID.n), cone="non_increasing", tail=0.5)
        rv = f.region_values()
        assert len(rv) == GRID.n + 1
        assert rv[-1] == 0.5


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
        assert np.sum(m) == pytest.approx(w.total(), rel=1e-8)


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
    # segment (215, 464): a**beta underflows, its mass is NaN and so is every
    # cum_low past it; those regions fall through to quadrature
    "e^-t table, NaN segment": TabulatedWeight(t=EXP_TABLE_T, y=tuple(math.exp(-t) for t in EXP_TABLE_T)),
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

    def test_nan_segment_reaches_quadrature(self):
        w = MASS_WEIGHTS["e^-t table, NaN segment"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert math.isnan(w.cum_low(1000.0))
            m = region_measures(BENCH_GRIDS["battery"], w)
        assert not np.any(np.isnan(m))

    def test_genpower_one_quadrature_per_knot(self, monkeypatch):
        calls = []
        quad = scipy.integrate.quad

        def counting(*args, **kw):
            calls.append(1)
            return quad(*args, **kw)

        monkeypatch.setattr(scipy.integrate, "quad", counting)
        g = BENCH_GRIDS["battery"]
        region_measures(g, PowerWeight(1.0, 0.5, 0.3, 0.2))
        assert 0 < len(calls) <= g.n + 1


class TestWeightedNorm:
    def test_characteristic_l1_exact(self):
        # indicator of (0, k_j] under Lebesgue measure has L^1 norm k_j
        j = 6
        vals = np.zeros(GRID.n)
        vals[: j + 1] = 1.0
        f = simple(vals, cone="non_increasing")
        assert weighted_norm(f, 1.0, LEB) == pytest.approx(GRID.knots[j], rel=1e-10)

    def test_tail_indicator_infinite_l1(self):
        vals = np.ones(GRID.n)
        f = simple(vals, cone="non_decreasing", tail=None)  # extends as 1 beyond M
        assert weighted_norm(f, 1.0, LEB) == INF

    def test_p_inf_norm_is_sup(self):
        vals = np.linspace(1.0, 0.1, GRID.n)
        f = simple(vals, cone="non_increasing")
        assert weighted_norm(f, INF, LEB) == pytest.approx(1.0)

    @given(seed_st, st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, seed, p):
        f = sample_monotone("non_increasing", GRID, seed)
        lam = 3.7
        g = GridFunction(GRID, lam * f.values, f.cone, head=None if f.head is None else lam * f.head,
                         tail=None if f.tail is None else lam * f.tail)
        nf = weighted_norm(f, p, LEB)
        ng = weighted_norm(g, p, LEB)
        if np.isfinite(nf) and nf > 0:
            assert ng == pytest.approx(lam * nf, rel=1e-9)

    @given(seed_st)
    @settings(max_examples=40, deadline=None)
    def test_domination(self, seed):
        f = sample_monotone("non_increasing", GRID, seed)
        g = GridFunction(GRID, 2.0 * f.values + 0.1, f.cone)
        assert weighted_norm(f, 1.0, LEB) <= weighted_norm(g, 1.0, LEB)

    def test_rule_under_below_canonical_below_over(self):
        w = PowerWeight(1.0, 1.0, 1.0)
        f = sample_monotone("non_increasing", GRID, 5)
        for p in (0.5, 1.0, 2.0):
            lo = weighted_norm(f, p, w, rule="under")
            mid = weighted_norm(f, p, w, rule="canonical")
            hi = weighted_norm(f, p, w, rule="over")
            assert lo <= mid * (1 + 1e-12) and mid <= hi * (1 + 1e-12)

    def test_refinement_invariance(self):
        # the same step function expressed on a refinement has the same norm
        coarse = make_log_grid(1e-2, 1e2, 5)
        fine = Grid(knots=tuple(np.unique(np.concatenate([
            coarse.knots, np.sqrt(np.asarray(coarse.knots)[:-1] * np.asarray(coarse.knots)[1:])]))))
        vals_c = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        fc = GridFunction(coarse, vals_c, "non_increasing")
        vals_f = np.array([fc(k) for k in fine.knots])
        ff = GridFunction(fine, vals_f, "non_increasing")
        for p in (1.0, 2.0):
            assert weighted_norm(ff, p, LEB) == pytest.approx(
                weighted_norm(fc, p, LEB), rel=1e-10)


class TestSamplingAndProjection:
    @given(st.sampled_from(["non_increasing", "non_decreasing"]), seed_st)
    @settings(max_examples=60, deadline=None)
    def test_samples_respect_cone(self, cone, seed):
        f = sample_monotone(cone, GRID, seed)
        v = f.values
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
        assert np.array_equal(a.values, b.values)

    def test_sample_nonneg_unconstrained(self):
        f = sample_nonneg(GRID, 11)
        assert f.cone == "none"
        assert np.all(f.values >= 0)

    @given(seed_st, st.sampled_from(["non_increasing", "non_decreasing"]))
    @settings(max_examples=40, deadline=None)
    def test_projection_idempotent_and_monotone(self, seed, cone):
        raw = sample_nonneg(GRID, seed)
        proj = project_cone(raw, cone)
        d = np.diff(proj.values)
        if cone == "non_increasing":
            assert np.all(d <= 1e-12)
        else:
            assert np.all(d >= -1e-12)
        again = project_cone(proj, cone)
        assert np.allclose(again.values, proj.values)

    def test_projection_fixes_monotone_input(self):
        f = sample_monotone("non_increasing", GRID, 3)
        g = project_cone(f, "non_increasing")
        assert np.allclose(f.values, g.values)
