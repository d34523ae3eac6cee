"""Integral and supremal operators on step functions: exactness and structure.

Each check runs the operator kernel on the region values of one witness (its
knot values in a cone) and reads the output at the knots.  The read-off
checks compare whole output rows with a test-local scan of the running
maxima."""

import copy
import functools
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supineq.cli import load_config
from supineq.criteria import InequalitySpec
from supineq.extreal import INF, _amul, adiv, amul
from supineq.gridfn import (
    make_log_grid,
    region_measures,
    region_values,
    sample_monotone,
    sample_nonneg,
)
from supineq.operators import OperatorKernel, OperatorKind, _ratio_weight, b_cumulative
from supineq.oracle import RayleighEngine
from supineq.weights import Exponents, PiecewisePowerWeight, PowerWeight

GRID = make_log_grid(1e-3, 1e3, 25)
ONE = PowerWeight(1.0, 0.0)
T = PowerWeight(1.0, 1.0)
KNOTS = GRID.array()
LENGTHS = np.concatenate([[KNOTS[0]], np.diff(KNOTS), [INF]])  # of regions R_0..R_n
seed_st = st.integers(min_value=0, max_value=2**31 - 1)


def hardy_at_knots(segv, lengths):
    """(H f)(k_j) = int_0^{k_j} f at every knot, row-wise: the running sum of
    the masses of regions R_0..R_j.  Inside ``np.errstate(all="ignore")``."""
    return np.add.accumulate(amul(segv[:, :-1], lengths[:-1]), axis=1)


def copson_at_knots(segv, lengths):
    """(H* f)(k_j) = int_{k_j}^oo f, the mass of regions R_{j+1}..R_n,
    row-wise.  Inside ``np.errstate(all="ignore")``."""
    above = amul(segv[:, 1:], lengths[1:])
    return np.add.accumulate(above[:, ::-1], axis=1)[:, ::-1]


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


class TestTailInput:
    """Beyond the last knot H f reads its value at that knot, so S*oH
    under-reads a row with tail input at the knots too; H* f is +inf there."""

    GRID9 = make_log_grid(1e-2, 1e2, 9)

    @pytest.mark.parametrize("base, compose, want", [("S", "H", 0.0), ("S*", "H", 0.0),
                                                     ("S", "H*", INF), ("S*", "H*", INF)])
    def test_tail_only_row_at_the_knots(self, base, compose, want):
        # on ``none`` the last knot value is the input on R_n alone; with u = 1
        # the true S*oH f and S oH* f and S*oH* f are +inf at every knot, and
        # S oH f is 0 there
        row = np.zeros(self.GRID9.n)
        row[-1] = 1.0
        with np.errstate(all="ignore"):
            out = OperatorKernel(OperatorKind(base, compose, ONE), "none", self.GRID9).apply(
                region_values(row, "none")[None])[0]
        at_knots = out[1:] if base == "S" else out[:-1]
        assert np.array_equal(at_knots, np.full(self.GRID9.n, want))


class TestFoldedKnotTerm:
    """Where g rises, S*'s table entry at knot k_j is max(u(k_j), sup of u on
    R_{j+1}), so the suffix maximum also takes u(k_i) g(k_i) for i > j.  A
    piecewise u that jumps down at a grid knot is larger there than its sup
    on the next region, and the outputs at the earlier knots read it."""

    GRID9 = make_log_grid(1e-2, 1e2, 9)

    def test_jump_down_at_a_grid_knot(self):
        ks = self.GRID9.array()
        # u = 2 on (0, k_4], 1 beyond; f = 1 on R_0..R_4, so H f rises to
        # its value h at k_4 and stays there
        u = PiecewisePowerWeight((float(ks[4]),), (PowerWeight(2.0, 0.0), ONE))
        assert u(ks[4]) == 2.0 and u.sup_on_interval(ks[4], ks[5]) == 1.0
        segv = np.array([[1.0] * 5 + [0.0] * 5])
        with np.errstate(all="ignore"):
            out = OperatorKernel(OperatorKind("S*", "H", u), "none", self.GRID9).apply(segv)[0]
        # sup of u H f on [k_j, oo) is 2 h for j <= 4; the region scan with
        # the knot term at j alone read max(2 H f(k_j), h) = h at k_0..k_3
        h = np.add.accumulate(np.diff(ks, prepend=0.0))[4]
        want = np.array([2.0 * h] * 5 + [h] * 5)
        assert np.array_equal(out, want)


# -- the read-off of monotone products ------------------------------------------

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONES = ("non_increasing", "non_decreasing", "none")
BATTERY_GRID = make_log_grid(1e-5, 1e5, 96)
LENGTHS_96 = np.concatenate([[BATTERY_GRID.knots[0]], np.diff(BATTERY_GRID.array()), [INF]])
EXP = PowerWeight(1.0, 0.0, 1.0)
# the benchmark's known answers (best constant 1), at the battery grid
KNOWN = [
    ("sdown-known", InequalitySpec(OperatorKind("S", None, T), "non_increasing", ONE, EXP,
                                   Exponents(1.0, 1.0))),
    ("tub-known", InequalitySpec(OperatorKind("T_ub", None, T, ONE), "non_increasing", ONE, EXP,
                                 Exponents(1.0, 1.0))),
    ("sup-known", InequalitySpec(OperatorKind("S", None, ONE), "non_decreasing", EXP, EXP,
                                 Exponents(1.0, 1.0))),
]


@functools.lru_cache(maxsize=None)
def scenarios():
    """``(set, id, spec)`` of every battery, candidate and known-answer
    scenario; all of them run at the battery grid."""
    out = []
    for name in ("battery", "candidates"):
        for sc in load_config(os.path.join(ROOT, "configs", f"{name}.json")):
            assert make_log_grid(**sc.grid) == BATTERY_GRID
            out.append((name, sc.id, sc.spec))
    return tuple(out + [("known", sid, spec) for sid, spec in KNOWN])


def kernel(kind, cone):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return OperatorKernel(kind, cone, BATTERY_GRID)


@functools.lru_cache(maxsize=None)
def weight_arrays(kind):
    """What the scan of ``kind`` reads on the battery grid, from its weights:
    u's region suprema, u at the knots and u's liminf at infinity; for T_ub
    b's region masses, u/B at the knots, then its sup on the tail region, and
    its liminf."""
    ks = BATTERY_GRID.array()
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        if kind.base == "T_ub":
            B = b_cumulative(kind.b)
            ratio = _ratio_weight(kind.u, B)
            uB = np.append(adiv(kind.u(ks), B(ks)), ratio.sup_on_interval(ks[-1], INF))
            return region_measures(BATTERY_GRID, kind.b), uB, ratio.limit_inf()
        rsups = kind.u.sup_on_intervals(np.concatenate([[0.0], ks]), np.concatenate([ks, [INF]]))
        return rsups, np.asarray(kind.u(ks), dtype=float), kind.u.limit_inf()


def scanned(kern, segv):
    """The kernel's outputs with every running maximum scanned, written out
    from the weights, and the first argument of the tail minimum of S* and
    T_ub (None for S).  T_ub's inner integral beyond the last knot is its
    value there; S*'s knot term u(k_j) g(k_j) stands on its own."""
    k = kern.kind
    with np.errstate(all="ignore"):
        if k.base == "T_ub":
            dB, uB, uB_liminf = weight_arrays(k)
            inner = hardy_at_knots(segv, dB)
            prods = amul(uB, np.column_stack([inner, inner[:, -1]]))
            vals = np.maximum.accumulate(prods[:, ::-1], axis=1)[:, ::-1][:, :-1]
            first = amul(inner[:, -1], uB_liminf)
        else:
            u_rsups, u_knots, u_liminf = weight_arrays(k)
            zero = np.zeros((len(segv), 1))
            if k.compose == "H":
                g, falling = np.hstack([zero, hardy_at_knots(segv, LENGTHS_96)]), False
            elif k.compose == "H*":
                g, falling = np.hstack([copson_at_knots(segv, LENGTHS_96), zero]), True
            else:
                g, falling = segv, kern.cone == "non_increasing"
            prods = amul(u_rsups, g)
            if k.base == "S":
                return np.hstack([zero, np.maximum.accumulate(prods[:, :-1], axis=1)]), None
            gk = g[:, :-1] if falling else g[:, 1:]
            suffix = np.maximum.accumulate(prods[:, :0:-1], axis=1)[:, ::-1]
            vals = np.maximum(amul(u_knots, gk), suffix)
            first = amul(g[:, -1], u_liminf)
        return np.column_stack([vals, np.minimum(first, vals[:, -1])]), first


def in_cone(rows, cone):
    if cone == "non_increasing":
        return bool((rows[:, 1:] <= rows[:, :-1]).all())
    return cone == "none" or bool((rows[:, 1:] >= rows[:, :-1]).all())


def witness_rows(cone, seed):
    """Rows in ``cone``: all zeros, three samples, a plateau row, an extreme
    ray, a row with +inf entries and one whose products overflow."""
    n = BATTERY_GRID.n
    rng = np.random.default_rng(seed)

    def sample(s):
        return sample_nonneg(BATTERY_GRID, s) if cone == "none" else sample_monotone(cone, BATTERY_GRID, s)

    plateau = rng.choice([0.0, 0.5, 3.0], n)
    j, knots = int(rng.integers(n)), np.arange(n)
    with_inf = sample(seed + 3).copy()
    if cone == "non_increasing":
        plateau, ray = np.sort(plateau)[::-1], (knots <= j).astype(float)
        with_inf[:j] = INF
    elif cone == "non_decreasing":
        plateau, ray = np.sort(plateau), (knots >= j).astype(float)
        with_inf[j:] = INF
    else:
        ray = (knots == j).astype(float)
        with_inf[rng.choice(n, 3)] = INF
    rows = np.array([np.zeros(n), sample(seed), sample(seed + 1), sample(seed + 2), plateau, ray,
                     with_inf, 1e300 * sample(seed + 4)])
    assert in_cone(rows, cone)
    return rows


def off_cone_rows(cone, seed):
    """Rows outside the monotone ``cone``: reversed cone rows and samples
    without a direction."""
    n = BATTERY_GRID.n
    other = "non_decreasing" if cone == "non_increasing" else "non_increasing"
    rows = np.array([sample_monotone(other, BATTERY_GRID, seed), sample_nonneg(BATTERY_GRID, seed),
                     sample_nonneg(BATTERY_GRID, seed + 1), witness_rows(other, seed)[6],
                     np.where(np.arange(n) % 2, 1.0, 0.0)])
    return rows[[not in_cone(r[None], cone) for r in rows]]


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestReadOff:
    """Where the scanned products are monotone, ``apply`` reads their
    running maximum off; on rows in the cone that is the scan, bit for bit."""

    def test_every_kind_on_every_cone_equals_the_scan(self):
        kinds = {spec.kind for _, _, spec in scenarios()}
        read_off = 0
        for i, kind in enumerate(sorted(kinds, key=repr)):
            for cone in CONES:
                kern = kernel(kind, cone)
                read_off += kern.monotone is not None
                segv = region_values(witness_rows(cone, 17 * i), cone)
                with np.errstate(all="ignore"):
                    got = kern.apply(segv)
                want, _ = scanned(kern, segv)
                assert np.array_equal(bits(got), bits(want)), (kind, cone, kern.monotone)
        assert read_off > 0

    def test_where_the_scenarios_read_off(self):
        counts = {}
        for name, _, spec in scenarios():
            n, k = counts.get(name, (0, 0))
            counts[name] = (n + 1, k + (kernel(spec.kind, spec.cone).monotone is not None))
        assert counts == {"battery": (83, 60), "candidates": (686, 347), "known": (3, 2)}

    def test_direction_is_read_from_the_table(self):
        # u = t rises and u = 1/t falls: with a falling g only the second reads off
        for u, want in ((T, None), (PowerWeight(1.0, -1.0), "non_increasing"),
                        (ONE, "non_increasing")):
            assert kernel(OperatorKind("S", None, u), "non_increasing").monotone == want
        assert kernel(OperatorKind("S", "H", T), "none").monotone == "non_decreasing"
        assert kernel(OperatorKind("S*", None, T), "none").monotone is None
        # T_ub needs its table, u/B at the knots with its sup on the tail
        # region folded into the last, to rise: u = t^2, b = 1
        assert kernel(OperatorKind("T_ub", None, PowerWeight(1.0, 2.0), ONE), "none").monotone \
            == "non_decreasing"
        assert kernel(OperatorKind("T_ub", None, PowerWeight(1.0, 0.5), ONE), "none").monotone is None

    def test_apply_returns_an_array_of_its_own(self):
        for kind, cone in ((OperatorKind("S", None, ONE), "non_decreasing"),
                           (OperatorKind("S*", None, ONE), "non_increasing"),
                           (OperatorKind("T_ub", None, T, ONE), "non_increasing")):
            kern = kernel(kind, cone)
            segv = region_values(witness_rows(cone, 3), cone)
            keep = segv.copy()
            with np.errstate(all="ignore"):
                out = kern.apply(segv)
            assert kern.monotone is not None and out.shape == segv.shape
            assert out.flags.owndata and out.flags.writeable
            assert not np.shares_memory(out, segv) and np.array_equal(segv, keep)

    def test_off_cone_rows_never_score_above_the_scan(self):
        # S and S* without a composition read g's direction off the cone; a
        # row off it reads at most the scan, so the quotient stays sound
        checked = 0
        for i, (_, sid, spec) in enumerate(scenarios()):
            if spec.kind.compose is not None or spec.kind.base == "T_ub" or spec.cone == "none":
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                engine = RayleighEngine(spec, BATTERY_GRID)
            kern = engine.kernel
            if kern.monotone is None:
                continue
            rows = off_cone_rows(spec.cone, 31 * i)
            segv = region_values(rows, spec.cone)
            with np.errstate(all="ignore"):
                got = kern.apply(segv)
            assert np.all(got <= scanned(kern, segv)[0]), sid
            scan = copy.copy(engine)
            scan.kernel = copy.copy(kern)
            scan.kernel.monotone = None
            assert np.all(engine.ratios(rows) <= scan.ratios(rows)), sid
            checked += 1
        assert checked > 100


class TestTailMinimum:
    """The tail factor of S* and T_ub is the weight's liminf at infinity
    clamped to ``table[-1]``, the sup on the tail region; on every scenario
    the clamp does not bind, so the tail output is the inner g's tail value
    times that liminf, what the tail ``np.minimum`` of the scan picks."""

    def test_tail_sup_is_at_least_the_liminf(self):
        for _, sid, spec in scenarios():
            if spec.kind.base != "S":
                kern = kernel(spec.kind, spec.cone)
                liminf = weight_arrays(spec.kind)[2]
                assert kern.table[-1] >= liminf and kern.u_liminf == liminf, sid

    def test_tail_output_is_the_first_argument(self):
        kinds = {(spec.kind, spec.cone) for _, _, spec in scenarios() if spec.kind.base != "S"}
        for i, (kind, cone) in enumerate(sorted(kinds, key=repr)):
            kern = kernel(kind, cone)
            segv = region_values(witness_rows(cone, 5 * i), cone)
            with np.errstate(all="ignore"):
                out = kern.apply(segv)
            _, first = scanned(kern, segv)
            assert np.array_equal(bits(out[:, -1]), bits(first)), (kind, cone)


# -- the 0 * inf guard, decided once per factor ----------------------------------


@functools.lru_cache(maxsize=None)
def guard_cases():
    """``(label, kind, cone)`` of every scenario's kernel, and of every kernel
    spec's operator (``tests/test_oracle.py``) on each cone."""
    from test_oracle import KERNEL_SPECS

    cases = {(spec.kind, spec.cone): sid for _, sid, spec in scenarios()}
    for sid, spec in KERNEL_SPECS:
        for cone in CONES:
            cases.setdefault((spec.kind, cone), f"{sid}/{cone}")
    return tuple((label, kind, cone) for (kind, cone), label in cases.items())


def fully_guarded(kern, segv):
    """``kern.apply(segv)`` with every product through ``_amul`` and the tail
    of S* and T_ub through the minimum of the unclamped liminf's product
    and the output at the last knot."""
    ref = copy.copy(kern)
    ref.products = dict.fromkeys(kern.products, _amul)
    with np.errstate(all="ignore"):
        out = ref.apply(segv)
        if kern.kind.base != "S":
            g = ref._inner(segv)
            liminf = weight_arrays(kern.kind)[2]
            np.minimum(_amul(g[:, -1:], liminf), out[:, -2:-1], out=out[:, -1:])
    return out


class TestGuardRule:
    """A product of a row with a fixed factor skips the ``fmax`` that sends
    0 * inf to 0 only where every entry of the factor is finite and positive
    (``extreal._product``), and the tail factor is clamped at construction:
    every kernel equals one with every guard on and the tail minimum, bit
    for bit, on rows in its cone and off it."""

    def test_equals_the_fully_guarded_kernel(self):
        for i, (label, kind, cone) in enumerate(guard_cases()):
            kern = kernel(kind, cone)
            rows = np.vstack([witness_rows(cone, 13 * i), off_cone_rows(cone, 13 * i)])
            segv = region_values(rows, cone)
            with np.errstate(all="ignore"):
                got = kern.apply(segv)
            assert np.array_equal(bits(got), bits(fully_guarded(kern, segv))), label

    def test_guard_free_factors_are_finite_and_positive(self):
        plain = 0
        for label, kind, cone in guard_cases():
            kern = kernel(kind, cone)
            assert set(kern.products) <= {"table", "lengths", "u_knots", "u_liminf"}, label
            for name, times in kern.products.items():
                assert times in (np.multiply, _amul), (label, name)
                if times is np.multiply:
                    factor = np.asarray(getattr(kern, name), dtype=float)
                    if name == "lengths":  # the regions the inner transform sums
                        factor = factor[1:] if kern.inner == "H*" else factor[:-1]
                    assert np.all((factor > 0.0) & (factor < INF)), (label, name)
                    plain += 1
        assert plain > 0

    def test_where_the_scenarios_skip_the_guard(self):
        # per set: kernels, products with a fixed factor, and guard-free ones
        counts = {}
        for name, _, spec in scenarios():
            kern = kernel(spec.kind, spec.cone)
            k, m, f = counts.get(name, (0, 0, 0))
            counts[name] = (k + 1, m + len(kern.products),
                            f + sum(t is np.multiply for t in kern.products.values()))
        assert counts == {"battery": (83, 213, 164), "candidates": (686, 1578, 1051),
                          "known": (3, 5, 5)}
