"""Criterion evaluation: dispatch, scaling laws, hypotheses, reductions."""

import os
import warnings

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from supineq import criteria
from supineq.cli import load_config
from supineq.criteria import (
    CritCtx,
    InequalitySpec,
    IntSet,
    TheoremInapplicable,
    crit_T33_34,
    crit_tub,
    evaluate_criterion,
)
from supineq.extreal import INF, _amul, xdiv
from supineq.operators import OperatorKind
from supineq.weights import Exponents, PiecewisePowerWeight, PowerWeight

from reductions import reduce_spec, reduce_spec_inner

U = PowerWeight(1.0, 0.5)
V = PowerWeight(1.0, 1.0)          # head-integrable: 0 < V(x) < oo
VTAIL = PowerWeight(1.0, 0.0, 1.0)  # tail-integrable: 0 < V*(x) < oo
VROOT = PowerWeight(1.0, 0.5)       # v^{1-p'} head-integrable for p = 2
W = PowerWeight(1.0, 0.0, 1.0)      # e^{-t}
ONE = PowerWeight(1.0, 0.0)
CANDIDATES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs", "candidates.json")


def spec_for(base, cone, u=U, b=ONE, v=V, w=W, p=2.0, q=2.0, compose=None):
    return InequalitySpec(kind=OperatorKind(base=base, compose=compose, u=u, b=b),
                          cone=cone, v=v, w=w, exps=Exponents(p, q))


class TestDispatch:
    @pytest.mark.parametrize("base,cone,compose,v,tid", [
        ("S", "non_increasing", None, V, "T3.3"),
        ("S", "non_decreasing", None, VTAIL, "T3.5"),
        ("S*", "non_decreasing", None, VTAIL, "T3.4"),
        ("S*", "non_increasing", None, V, "T3.6"),
        ("S*", "none", "H", V, "T3.1"),
        ("S", "none", "H*", VTAIL, "T3.2"),
    ])
    def test_sup_and_iterated_routing(self, base, cone, compose, v, tid):
        res = evaluate_criterion(spec_for(base, cone, compose=compose, v=v))
        assert res.theorem_id == tid

    def test_hardy_head_routing_by_p(self):
        r = evaluate_criterion(spec_for("S", "none", compose="H", v=VROOT, p=2.0, q=2.0))
        assert r.theorem_id == "T4.1"
        # p = 1 variant consumes the reciprocal-cumulative weight directly
        nu = PowerWeight(1.0, -1.0)
        r1 = evaluate_criterion(spec_for("S", "none", compose="H", v=nu, p=1.0, q=1.0))
        assert r1.theorem_id == "T4.2"

    def test_tub_routing_by_p(self):
        r = evaluate_criterion(spec_for("T_ub", "non_increasing", p=2.0, q=1.0))
        assert r.theorem_id.startswith("T5.1")
        r2 = evaluate_criterion(spec_for("T_ub", "non_increasing", p=0.5, q=0.5))
        assert r2.theorem_id.startswith("T5.3")

    def test_tub_wrong_cone_rejected(self):
        with pytest.raises(ValueError):
            evaluate_criterion(spec_for("T_ub", "none"))


class TestKnownValues:
    def test_running_sup_criterion_unit_scale(self):
        # S_u on non-increasing inputs, p = q = 1, u = t, v = 1, w = e^{-t}:
        # the criterion equals 1 (smooth check of the full A1 + unit pipeline)
        res = crit_T33_34(CritCtx(), "low", PowerWeight(1.0, 1.0), ONE, W, Exponents(1.0, 1.0))
        assert res.terms["A1"] == pytest.approx(1.0, abs=1e-4)
        assert res.terms["unit"] == 0.0
        assert res.finite

    def test_tub_unit_scale(self):
        res = crit_tub(PowerWeight(1.0, 1.0), ONE, ONE, W, Exponents(1.0, 1.0))
        assert res.theorem_id == "T5.1.ii"
        assert res.terms["A1"] == pytest.approx(1.0, abs=1e-4)
        assert res.terms["A2"] == pytest.approx(1.0, abs=1e-4)


class TestScalingLaws:
    CASES = [
        spec_for("S", "non_increasing"),
        spec_for("S", "non_decreasing", v=VTAIL),
        spec_for("S*", "non_decreasing", v=VTAIL),
        spec_for("S*", "non_increasing"),
        spec_for("S*", "none", compose="H"),
        spec_for("S", "none", compose="H*", v=VTAIL),
        spec_for("S", "none", compose="H", v=VROOT),
        spec_for("T_ub", "non_increasing"),
        spec_for("T_ub", "non_increasing", p=3.0, q=1.5),
        spec_for("T_ub", "non_increasing", p=0.5, q=0.5),
    ]

    @pytest.mark.parametrize("spec", CASES, ids=lambda s: f"{s.kind.base}{s.kind.compose or ''}-{s.cone[:7]}-p{s.exps.p}q{s.exps.q}")
    def test_u_linear(self, spec):
        base = evaluate_criterion(spec)
        lam = 3.0
        scaled = InequalitySpec(
            kind=OperatorKind(base=spec.kind.base, compose=spec.kind.compose,
                              u=spec.kind.u.scale(lam), b=spec.kind.b),
            cone=spec.cone, v=spec.v, w=spec.w, exps=spec.exps)
        res = evaluate_criterion(scaled)
        for name, val in base.terms.items():
            if name == "unit" or not np.isfinite(val) or val == 0.0:
                continue
            assert res.terms[name] == pytest.approx(lam * val, rel=1e-8)

    @pytest.mark.parametrize("spec", CASES[:6], ids=lambda s: f"{s.kind.base}{s.kind.compose or ''}-{s.cone[:7]}")
    def test_w_scales_q_root(self, spec):
        base = evaluate_criterion(spec)
        lam = 5.0
        res = evaluate_criterion(InequalitySpec(
            kind=spec.kind, cone=spec.cone, v=spec.v, w=spec.w.scale(lam), exps=spec.exps))
        q = spec.exps.q
        for name, val in base.terms.items():
            if not np.isfinite(val) or val == 0.0:
                continue
            assert res.terms[name] == pytest.approx(lam ** (1.0 / q) * val, rel=1e-8)

    @pytest.mark.parametrize("spec", [CASES[0], CASES[2], CASES[7]],
                             ids=["S-down", "S*-up", "T_ub"])
    def test_v_scales_inverse_p_root(self, spec):
        base = evaluate_criterion(spec)
        lam = 4.0
        res = evaluate_criterion(InequalitySpec(
            kind=spec.kind, cone=spec.cone, v=spec.v.scale(lam), w=spec.w, exps=spec.exps))
        p = spec.exps.p
        for name, val in base.terms.items():
            if not np.isfinite(val) or val == 0.0:
                continue
            assert res.terms[name] == pytest.approx(lam ** (-1.0 / p) * val, rel=1e-8)


class TestHypotheses:
    def test_failed_hypothesis_raises_with_report(self):
        # v = t^{-2} makes the lower cumulative diverge at every x
        bad = spec_for("S", "non_increasing", v=PowerWeight(1.0, -2.0))
        with pytest.raises(TheoremInapplicable) as exc:
            evaluate_criterion(bad)
        assert any(v is False for v in exc.value.report.values())

    def test_underflowing_tail_still_positive(self):
        # w = e^{-t}: its upper cumulative underflows on the outer grid but is
        # mathematically positive, so the hypothesis must hold
        res = evaluate_criterion(spec_for("S", "non_increasing"))
        assert res.hypothesis_report.get("0<W*<oo", res.hypothesis_report.get("0<W<oo", True))

    def test_verbatim_switch_changes_hypothesis(self):
        # v integrable: default form needs 0<V<oo (holds); the literal printed
        # form of the same criterion needs the mirrored cumulative instead
        s = spec_for("S", "non_increasing", v=PowerWeight(1.0, 0.0, 1.0))
        default = evaluate_criterion(s)
        assert default.finite is not None  # evaluated fine
        verb = evaluate_criterion(s, verbatim=True)
        assert set(default.hypothesis_report) != set(verb.hypothesis_report) or \
            default.hypothesis_report != verb.hypothesis_report

    def test_q_infinite_rejected_for_tub(self):
        with pytest.raises((TheoremInapplicable, ValueError)):
            crit_tub(U, ONE, V, W, Exponents(2.0, INF))


class TestReductions:
    def test_down_cone_reduces_to_upper_integral(self):
        s = spec_for("S*", "non_increasing")
        r = reduce_spec(s)
        assert r.rule == "R2.1"
        assert r.spec.kind.compose == "H*"
        assert r.spec.cone == "none"
        # v = t, p = 2: V = t^2/2, V^p v^{1-p} = t^3/4
        assert r.spec.v(2.0) == pytest.approx(2.0, rel=1e-10)

    def test_up_cone_reduces_to_lower_integral(self):
        s = spec_for("S", "non_decreasing")
        r = reduce_spec(s)
        assert r.rule == "R2.3"
        assert r.spec.kind.compose == "H"
        assert r.spec.cone == "none"

    def test_side_constant_when_total_mass_finite(self):
        # bounded u so the constant-input side term is finite
        s = spec_for("S*", "non_increasing", u=PowerWeight(1.0, 0.0, 1.0),
                     v=PowerWeight(1.0, 0.0, 1.0))
        r = reduce_spec(s)
        assert r.side_constant is not None and np.isfinite(r.side_constant)
        assert r.side_constant > 0

    def test_inner_reduction_rescales_u(self):
        s = spec_for("S*", "non_increasing")
        r = reduce_spec_inner(s)
        assert r.rule == "R2.2"
        assert r.spec.kind.compose == "H"

    def test_hardy_composition_reduces_to_down_cone(self):
        s = spec_for("S", "none", compose="H", v=VROOT, p=2.0)
        r = reduce_spec(s)
        assert r.rule == "R2.5"
        assert r.spec.cone == "non_increasing"
        assert r.spec.kind.compose is None

    def test_nu_monotone_through_a_stretch_of_inf(self):
        # sstarup-144 under R2.4: nu is finite and non-decreasing up to t ~ 716,
        # then +inf, where np.diff reads inf - inf = NaN
        sc = next(sc for sc in load_config(CANDIDATES) if sc.id == "sstarup-144")
        red = reduce_spec_inner(sc.spec)
        assert red.rule == "R2.4" and red.spec.exps.p == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nuv = CritCtx().vals(red.spec.v)
            report = evaluate_criterion(red.spec).hypothesis_report
        assert np.isinf(nuv).sum() > 1 and np.isfinite(nuv).any()
        assert report["nu non-decreasing"] is True

    @pytest.mark.parametrize("side, pieces", [
        ("up", (PowerWeight(INF, 0.0), PowerWeight(1.0, 1.0))),
        ("low", (PowerWeight(1.0, -1.0), PowerWeight(INF, 0.0))),
    ], ids=["down-from-inf", "up-to-inf"])
    def test_nu_step_between_inf_and_finite_is_not_monotone(self, side, pieces):
        # nu is +inf on one side of t = 1 and finite on the other, against the
        # monotonicity the side asks for; a slack relative to +inf would pass it
        nu = PiecewisePowerWeight((1.0,), pieces)
        spec = spec_for("S" if side == "low" else "S*", "none", v=nu, p=1.0, q=1.0,
                        compose="H" if side == "low" else "H*")
        with pytest.raises(TheoremInapplicable) as exc:
            evaluate_criterion(spec)
        assert exc.value.report[{"low": "nu non-increasing", "up": "nu non-decreasing"}[side]] is False


class TestResultShape:
    def test_result_fields(self):
        res = evaluate_criterion(spec_for("S", "non_increasing"))
        assert isinstance(res.terms, dict) and len(res.terms) >= 1
        assert res.regime == "1<p,p<=q"
        assert isinstance(res.flags, tuple)
        assert res.total >= max(v for v in res.terms.values() if np.isfinite(v))

    def test_infinite_criterion_flagged_not_finite(self):
        # u = t grows while w has fat tail t^{-1}: criterion diverges
        s = spec_for("S", "non_increasing", u=PowerWeight(1.0, 2.0),
                     w=PowerWeight(1.0, -1.5), v=ONE, p=1.0, q=1.0)
        res = evaluate_criterion(s)
        assert not res.finite
        assert res.total == INF


class TestOneErrstate:
    """Each criterion function holds one ``np.errstate(all="ignore")`` around
    its arithmetic on the raw ``extreal`` kernels, so no ``RuntimeWarning``
    escapes one, whether it is reached through ``evaluate_criterion``,
    ``reduce_spec`` or called directly."""

    def test_every_candidate_both_ways(self):
        ctx = CritCtx()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sc in load_config(CANDIDATES):
                for verbatim in (False, True):
                    try:
                        evaluate_criterion(sc.spec, ctx=ctx, verbatim=verbatim)
                    except TheoremInapplicable:
                        pass
                k = sc.spec.kind
                if k.base in ("S", "S*") and k.compose is None:  # reduce_spec's side constant
                    reduce_spec(sc.spec, ctx=ctx)

    def test_direct_calls_of_the_duality_pairs(self):
        from test_acceptance import (_pair_iter_copson, _pair_iter_hardy, _pair_iter_p1,
                                     _pair_sup_down, _pair_sup_up)

        ctx = CritCtx()
        rng = np.random.default_rng(20260826)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for make in (_pair_sup_down, _pair_sup_up, _pair_iter_copson, _pair_iter_hardy, _pair_iter_p1):
                for _ in range(8):
                    try:
                        make(ctx, rng)
                    except TheoremInapplicable:
                        pass


# -- the one-pass supremum against the four-pass form it replaced -----------


def four_pass_sup(ctx, vals):
    """``CritCtx.sup`` as it was: an +inf scan, a maximum, a zero test and an
    ``argmax``, then the boundary rule."""
    v = np.asarray(vals, dtype=float)
    if np.any(np.isinf(v)):
        return INF, None
    mval = float(np.max(v))
    if mval == 0.0:
        return 0.0, None
    m = ctx.m
    am = int(np.argmax(v))
    flag = None
    if am <= 2 * m:
        a0, a2 = v[0], v[2 * m]
        if a0 >= mval * (1.0 - 1e-12):
            ratio = xdiv(a0, a2)
            if ratio > 1.5:
                return INF, "sup-divergent-left"
            if ratio > 1.05:
                flag = "sup-uncertain-left"
    if am >= len(v) - 1 - 2 * m:
        a0, a2 = v[-1], v[-1 - 2 * m]
        if a0 >= mval * (1.0 - 1e-12):
            ratio = xdiv(a0, a2)
            if ratio > 1.5:
                return INF, "sup-divergent-right"
            if ratio > 1.05:
                flag = "sup-uncertain-right"
    return mval, flag


SUP_CTX = CritCtx(1e-3, 1e3, 4)  # 25 points, end windows of 2m = 8
SUP_LEVELS = (0.0, 0.5, 1.0, 1.04, 1.2, 1.4, 1.6, 2.0, 1e300, INF)


def sup_cases(n, m):
    """All-zero and +inf arrays, end maxima at ratios above 1.5 and between
    1.05 and 1.5 (and below), an interior maximum, and ties."""
    def put(at):
        v = np.full(n, 0.5)
        v[2 * m] = v[-1 - 2 * m] = 1.0
        for i, x in at.items():
            v[i] = x
        return v

    last = n - 1
    yield np.zeros(n)
    yield np.full(n, INF)
    yield put({3: INF})
    yield put({0: INF, 5: INF})
    for ratio in (2.0, 1.6, 1.4, 1.2, 1.06, 1.04, 1.0):
        yield put({0: ratio})                          # left end
        yield put({last: ratio})                       # right end
        yield put({0: ratio, last: ratio})             # both ends, tied
        yield put({0: ratio, 5: ratio})                # tie inside the left window
        yield put({0: ratio, 5: ratio * (1.0 + 1e-13)})  # the end within 1e-12 of the max
        yield put({0: ratio, 5: ratio * 1.1})          # an end below the max
        yield put({0: ratio, 12: ratio})               # tie with an interior point
    yield put({12: 3.0})                               # interior maximum
    yield put({12: 3.0, 13: 3.0})
    yield put({0: 1e300, 8: 1e-300})                   # a ratio that overflows
    yield put({0: 1e-300, 8: 0.0, last: 0.0})          # a ratio over 0


class TestOnePassSup:
    """``CritCtx.sup`` takes one ``argmax``; on [0, inf] with no NaN it reads
    what the four-pass form read, value and flag, bit for bit."""

    def test_cases(self):
        seen = set()
        for v in sup_cases(len(SUP_CTX.t), SUP_CTX.m):
            got, ref = SUP_CTX.sup(v), four_pass_sup(SUP_CTX, v)
            assert got == ref and np.float64(got[0]).tobytes() == np.float64(ref[0]).tobytes(), v
            seen.add(ref[1])
        assert seen == {None, "sup-divergent-left", "sup-divergent-right",
                        "sup-uncertain-left", "sup-uncertain-right"}

    @given(st.lists(st.sampled_from(SUP_LEVELS), min_size=25, max_size=25))
    def test_levels(self, xs):
        v = np.array(xs)
        assert SUP_CTX.sup(v) == four_pass_sup(SUP_CTX, v)

    def test_default_grid(self):
        ctx = CritCtx()
        n, m = len(ctx.t), ctx.m
        for v in sup_cases(n, m):
            assert ctx.sup(v) == four_pass_sup(ctx, v)
        with np.errstate(all="ignore"):
            for w in (U, V, W, PowerWeight(1.0, -2.0)):
                assert ctx.sup(ctx.vals(w)) == four_pass_sup(ctx, ctx.vals(w))

    def test_mirror_swaps_the_flags(self):
        # one end test for both ends: on distinct values, where the first
        # maximum is the only one, the reversed array reads the same maximum
        # with left and right swapped
        swap = {"left": "right", "right": "left"}
        rng = np.random.default_rng(17)
        n = len(SUP_CTX.t)
        seen = set()
        for _ in range(3000):
            v = rng.uniform(0.0, 1.0, n)
            for end in rng.choice([0, n - 1], rng.integers(0, 3), replace=False):
                # an end maximum, 1 % to 4x above the rest; the two ends differ
                v[end] = v.max() * rng.choice([1.01, 1.1, 1.3, 1.7, 4.0]) * (1.0 + 1e-6 * end)
            val, flag = SUP_CTX.sup(v)
            rval, rflag = SUP_CTX.sup(v[::-1])
            if flag is not None:
                kind, side = flag.rsplit("-", 1)
                flag = f"{kind}-{swap[side]}"
            assert (rval, rflag) == (val, flag), v
            seen.add(rflag)
        assert seen == {None, "sup-divergent-left", "sup-divergent-right",
                        "sup-uncertain-left", "sup-uncertain-right"}


# -- the weight as a measure: w·t kept in the memo --------------------------------


def candidate_weights():
    """Every distinct weight of the committed candidates."""
    seen = {}
    for sc in load_config(CANDIDATES):
        for w in (sc.spec.v, sc.spec.w, sc.spec.kind.u, sc.spec.kind.b):
            if w is not None:
                seen.setdefault(w, None)
    return list(seen)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def held(ctx, fn, w):
    """Whether the memo holds ``fn``'s array of ``w`` (reading it keeps it)."""
    misses = criteria._memo.cache_info().misses
    criteria._memo(ctx.args, fn, w)
    return criteria._memo.cache_info().misses == misses


def assert_int_set_is(got, ref):
    assert (got.div0, got.divinf) == (ref.div0, ref.divinf)
    for side in ("total", "low", "up"):
        assert same_bits(getattr(got, side), getattr(ref, side)), side


class TestMeasureEntry:
    """``int_set`` integrates ``_amul(F, wt)`` with ``wt`` = ``_amul(vals, t)``
    kept read-only in the memo under ``_measure``; ``IntSet.total`` is summed on
    demand, to the bits of head + sum + tail, and before ``settled`` drops
    the masses."""

    def test_int_set_on_every_candidate_weight(self):
        ctx = CritCtx()
        n = len(ctx.t)
        rng = np.random.default_rng(29)
        F = 10.0 ** rng.uniform(-200, 200, n)
        F[rng.integers(0, n, 40)] = 0.0
        F[rng.integers(0, n, 40)] = INF
        weights = candidate_weights()
        with np.errstate(all="ignore"):
            for w in weights:
                wt = _amul(ctx.vals(w), ctx.t)
                assert same_bits(criteria._memo(ctx.args, criteria._measure, w), wt), w
                assert_int_set_is(ctx.int_set(F, w), ctx.integrate(_amul(F, wt)))

    def test_wt_is_read_only(self):
        ctx = CritCtx()
        criteria._memo.cache_clear()
        with np.errstate(all="ignore"):
            ctx.int_w(W)
            ctx.int_set(ctx.vals(U), V)
        for w in (W, V):
            wt = criteria._memo(ctx.args, criteria._measure, w)
            assert not wt.flags.writeable and criteria._memo(ctx.args, criteria._measure, w) is wt
            with pytest.raises(ValueError):
                wt[0] = 1.0

    def test_int_w_alone_keeps_no_wt(self):
        # the integral of a weight that ``int_set`` has not read integrates
        # w·t without keeping it, to the same bits as the kept one
        ctx = CritCtx()
        criteria._memo.cache_clear()
        with np.errstate(all="ignore"):
            alone = ctx.int_w(W)
            assert not held(ctx, criteria._measure, W)
            criteria._memo.cache_clear()
            ctx.int_set(ctx.vals(U), W)
            kept = ctx.int_w(W)
            assert held(ctx, criteria._measure, W)
        assert_int_set_is(alone, kept)

    def test_total_on_demand_and_after_settled(self):
        ctx = CritCtx()
        with np.errstate(all="ignore"):
            for w in (U, V, W, PowerWeight(1.0, -1.0), PowerWeight(1.0, -2.0)):
                for F in (np.ones(len(ctx.t)), ctx.vals(U)):
                    iset = ctx.int_set(F, w)
                    assert isinstance(iset, IntSet) and "total" not in vars(iset)
                    ref = iset._head + float(np.sum(iset._c)) + iset._tail
                    assert same_bits(iset.total, ref)
                    fresh = ctx.int_set(F, w)
                    assert fresh.settled() is fresh and fresh._c is None
                    assert same_bits(fresh.total, ref)
                assert same_bits(ctx.int_w(w).total, ctx.int_set(np.ones(len(ctx.t)), w).total)
