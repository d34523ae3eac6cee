"""Weight families, cumulatives, transforms, and exponent bookkeeping."""

import bisect
import functools
import math
import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special as _sp

from supineq.extreal import INF, adiv
from supineq.gridfn import make_log_grid, region_measures
from supineq.weights import (
    Exponents,
    FuncWeight,
    PiecewisePowerWeight,
    PowerWeight,
    TabulatedWeight,
    Weight,
    _Derived,
    _gammainc,
    _gammaincc,
    _mul,
    _scale,
    conjugate,
    parse_weight,
    _quad_log,
    running_sup,
    weight_mul,
)

from reductions import phi_weights

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
        assert w.cum_up(0.0) == pytest.approx(1.0, rel=1e-10)

    def test_gamma_cumulative_matches_quadrature(self):
        w = PowerWeight(1.0, 2.0, 0.5)
        val, _ = integrate.quad(w, 0.0, 3.0)
        assert w.cum_low(3.0) == pytest.approx(val, rel=1e-8)

    def test_nonintegrable_head_and_tail(self):
        assert PowerWeight(1.0, -1.0).cum_low(1.0) == INF
        assert PowerWeight(1.0, -1.0).cum_up(1.0) == INF
        assert PowerWeight(1.0, -2.0).cum_up(1.0) == pytest.approx(1.0, rel=1e-12)
        # no mass lies beyond oo, even where the tail diverges
        assert PowerWeight(1.0, -1.0).cum_up(INF) == 0.0
        pw = PiecewisePowerWeight((1.0,), (PowerWeight(1.0, 0.0), PowerWeight(1.0, -1.0)))
        assert pw.cum_up(1.0) == INF and pw.cum_up(INF) == 0.0

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
        assert w.cum_up(0.0) == pytest.approx(lo + hi, rel=1e-8)

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
        assert w.cum_up(0.0) == pytest.approx(4.0, rel=1e-12)
        assert w.cum_up(1.0) == pytest.approx(3.0, rel=1e-12)

    def test_tabulated_loglinear_interp(self):
        w = TabulatedWeight(t=(1.0, 100.0), y=(1.0, 100.0))
        assert w(10.0) == pytest.approx(10.0, rel=1e-9)

    def test_tabulated_mass_matches_power_law(self):
        w = TabulatedWeight(t=(1.0, 10.0, 100.0), y=(1.0, 10.0, 100.0))
        # interpolant is y = t on [1, 100]
        # the family's one mass rule, and the difference of cumulatives that
        # region_measures takes for an interior region
        for mass in (w._mass(1.0, 100.0), w.cum_low(100.0) - w.cum_low(1.0)):
            assert mass == pytest.approx((100.0**2 - 1.0) / 2.0, rel=1e-9)

    @pytest.mark.parametrize("t,y", [((1.0, 2.0), (3.0, 3.0)), ((1.0, 2.0, 4.0), (1.0, 0.5, 0.0))])
    def test_tabulated_constant_extension(self, t, y):
        w = TabulatedWeight(t=t, y=y)
        assert w(0.1) == pytest.approx(y[0]) and w(50.0) == pytest.approx(y[-1])
        if y[-1] > 0.0:
            assert w.cum_up(t[-1]) == INF and w.cum_low(INF) == INF
        else:  # a zero extension carries no mass, also out to oo (not 0 * oo)
            assert w.cum_up(t[-1]) == 0.0 and w.cum_low(INF) == w.cum_low(t[-1])
            assert w.cum_low(INF) == pytest.approx(w.cum_up(0.0), rel=1e-12)


# -- one mass rule per power family ----------------------------------------------
#
# A copy of the rules PowerWeight and PiecewisePowerWeight stated separately in
# cum_low, cum_up and total before each family had one ``_mass``.


def _old_power_int(c, alpha, a, b):
    if c == 0.0 or a == b:
        return 0.0
    if alpha == -1.0:
        return c * math.log(b / a)
    e = alpha + 1.0
    return c * (b ** e - a ** e) / e


def _old_power_total(w):
    if w.c == 0.0:
        return 0.0
    if w.lam == 0.0 and w.alpha >= -1.0:
        return INF
    if w.mu == 0.0 and w.alpha <= -1.0:
        return INF
    if w.mu == 0.0:
        a1 = w.alpha + 1.0
        return float(w.c * w.lam ** (-a1) * _sp.gamma(a1))
    return _quad_log(w, 0.0, INF)


def _old_power_cum_low(w, t):
    if w.c == 0.0 or t == 0.0:
        return 0.0
    if t == INF:
        return _old_power_total(w)
    if w.mu == 0.0:
        a1 = w.alpha + 1.0
        if a1 <= 0.0:
            return INF
        if w.lam == 0.0:
            return w.c * t ** a1 / a1
        return float(w.c * w.lam ** (-a1) * _sp.gamma(a1) * _sp.gammainc(a1, w.lam * t))
    return _quad_log(w, 0.0, t)


def _old_power_cum_up(w, t):
    if w.c == 0.0 or t == INF:
        return 0.0
    if w.lam == 0.0 and w.alpha >= -1.0:
        return INF
    if t == 0.0:
        return _old_power_total(w)
    if w.mu == 0.0:
        a1 = w.alpha + 1.0
        if w.lam == 0.0:
            return -w.c * t ** a1 / a1
        if a1 > 0.0:
            return float(w.c * w.lam ** (-a1) * _sp.gamma(a1) * _sp.gammaincc(a1, w.lam * t))
    return _quad_log(w, t, INF)


def _old_piecewise_cum_low(w, t):
    if t == 0.0:
        return 0.0
    first = w.segments[0]
    if first.c > 0.0 and first.alpha <= -1.0:
        return INF
    acc = 0.0
    for i, seg in enumerate(w.segments):
        lo, hi = w._bounds(i)
        if lo >= t:
            break
        b = min(hi, t)
        acc += _old_power_cum_low(seg, b) if i == 0 else _old_power_int(seg.c, seg.alpha, lo, b)
        if b == t:
            break
    return acc


def _old_piecewise_cum_up(w, t):
    last = w.segments[-1]
    if last.c > 0.0 and last.alpha >= -1.0:
        return INF
    acc = 0.0
    for i, seg in enumerate(w.segments):
        lo, hi = w._bounds(i)
        if hi <= t:
            continue
        a = max(lo, t)
        if hi == INF:
            acc += _old_power_cum_up(seg, a)
        elif a == 0.0:
            acc += _old_power_cum_low(seg, hi)
        else:
            acc += _old_power_int(seg.c, seg.alpha, a, hi)
        if acc == INF:
            return INF
    return acc


def _old_piecewise_total(w):
    lo = _old_piecewise_cum_low(w, 1.0)
    return INF if lo == INF else lo + _old_piecewise_cum_up(w, 1.0)


OLD_RULES = {
    PowerWeight: (_old_power_cum_low, _old_power_cum_up, _old_power_total),
    PiecewisePowerWeight: (_old_piecewise_cum_low, _old_piecewise_cum_up, _old_piecewise_total),
}

MASS_C = (0.0, 1.0, 2.5, INF)
MASS_ALPHA = (-3.0, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)
# 1e200 underflows t**(alpha+1) for alpha <= -3, where the old upper cumulative
# read +0.0, and overflows it for alpha >= 1
MASS_T = (0.0, 1e-12, 1e-5, 0.3, 1.0, 7.0, 215.0, 745.0, 1e4, 1e12, 1e200, INF)


def _outcome(f, *args):
    """The exact float ``f`` returns (its bits; any NaN alike), or the error it raises."""
    try:
        x = f(*args)
    except OverflowError:
        return "OverflowError"
    return "nan" if math.isnan(x) else int(bits(x))


def mass_mismatches(weights_and_points):
    """The (weight, method, t, old outcome, new outcome) whose ``cum_low``,
    ``cum_up`` or total differs from the old rules, bit for bit; the total
    is now ``cum_up(0.0)``, as the old ``total()`` is gone, and
    ``cum_up(oo)`` of a piecewise weight, an intended change, is left out."""
    bad = []
    for w, ts in weights_and_points:
        old_low, old_up, old_total = OLD_RULES[type(w)]
        calls = [("total", None, functools.partial(w.cum_up, 0.0), (old_total, w))]
        for t in ts:
            calls.append(("cum_low", t, functools.partial(w.cum_low, t), (old_low, w, t)))
            if not (t == INF and isinstance(w, PiecewisePowerWeight)):
                calls.append(("cum_up", t, functools.partial(w.cum_up, t), (old_up, w, t)))
        for method, t, new_rule, old_rule in calls:
            new, old = _outcome(new_rule), _outcome(*old_rule)
            if new != old:
                bad.append((w, method, t, old, new))
    return bad


def intended_change(mismatch):
    """+inf where the old rules' float ``**`` left the range (they raised
    ``OverflowError``), and +inf on every range of positive length for
    c = oo, where the old rules read NaN or a quadrature's 0."""
    w, _method, _t, old, new = mismatch
    return new == _outcome(lambda: INF) and (old == "OverflowError" or w.c == INF)


def gamma_branch(mismatch):
    """Whether a mismatch is a finite mass of the gamma branch, c Gamma(a)
    lam^-a times P or Q at a = alpha + 1 > 0, read both times."""
    w, _method, _t, old, new = mismatch
    return (isinstance(w, PowerWeight) and 0.0 < w.c < INF and w.lam > 0.0 and w.mu == 0.0
            and w.alpha > -1.0 and isinstance(old, int) and isinstance(new, int))


def random_piecewise(rng, n):
    """``n`` piecewise weights with 1 to 4 knots and segments drawn from the
    power grid; their knots, the ends and a point inside each segment."""
    out = []
    for _ in range(n):
        k = int(rng.integers(1, 5))
        knots = np.sort(10.0 ** rng.uniform(-6.0, 6.0, size=k))
        segs = tuple(PowerWeight(float(rng.choice(MASS_C[:3])), float(rng.choice(MASS_ALPHA)))
                     for _ in range(k + 1))
        w = PiecewisePowerWeight(tuple(knots.tolist()), segs)
        inner = np.sqrt(knots[1:] * knots[:-1]).tolist() + [knots[0] / 2.0, knots[-1] * 2.0]
        out.append((w, [0.0, *w.knots, *inner, INF]))
    return out


class TestMassRule:
    """``cum_low``, ``cum_up`` and the total of both power families read one
    ``_mass`` each and give the old per-method rules' floats, bit for bit,
    but for a piecewise total and the gamma branch.  The old rules read
    ``scipy.special``; the gamma branch now reads ``_gammainc`` and
    ``_gammaincc``, within 2e-13 relative of them."""

    @pytest.fixture(autouse=True)
    def _one_quadrature_per_integral(self, monkeypatch):
        # the old and the new rules integrate the same (w, a, b): once is enough
        import supineq.weights as weights

        monkeypatch.setattr(weights, "_quad_log", functools.lru_cache(None)(weights._quad_log))
        with np.errstate(all="ignore"):  # c = oo meets a gamma factor of 0
            yield

    def test_power_weights_on_the_grid(self):
        grid = [(PowerWeight(c, alpha, lam, mu), MASS_T) for c in MASS_C for alpha in MASS_ALPHA
                for lam in (0.0, 0.5, 1.0, 2.0) for mu in (0.0, 0.1)]
        changes = mass_mismatches(grid)
        moved = [m for m in changes if gamma_branch(m)]
        assert [m for m in changes if not intended_change(m) and m not in moved] == []
        old, new = (np.array(x, dtype=np.int64).view(float) for x in zip(*[m[3:] for m in moved]))
        assert moved and (np.abs(new - old) <= 2e-13 * old).all()
        # the largest move, 145 ulps, is scipy's: 2.5 sqrt(pi) erfc(1) is
        # 2.5 Gamma(1/2) Q(1/2, 1), and the old rule read it 2.6e-14 off
        w, method, t, *_ = max(moved, key=lambda m: abs(m[4] - m[3]))
        assert (w, method, t) == (PowerWeight(2.5, -0.5, 1.0), "cum_up", 1.0)
        exact = 2.5 * math.sqrt(math.pi) * math.erfc(1.0)
        assert abs(w.cum_up(1.0) - exact) < 1e-14 * exact < abs(_old_power_cum_up(w, 1.0) - exact)
        # both intended changes occur on the grid: t**4 at 1e200, and c = oo
        # on a range where the incomplete gamma factor underflows to 0
        kinds = {(w, method, t): old for w, method, t, old, _ in changes}
        assert kinds[(PowerWeight(1.0, 3.0), "cum_low", 1e200)] == "OverflowError"
        assert kinds[(PowerWeight(INF, 1.0, 1.0), "cum_up", 1e4)] == "nan"

    def test_random_piecewise_weights_at_their_knots(self):
        cases = random_piecewise(np.random.default_rng(20), 200)
        # the old total split at 1 into cum_low(1) + cum_up(1); cum_up(0)
        # sums the segments from 0, left to right, which moves some totals
        # by an ulp
        moved = mass_mismatches(cases)
        assert {method for _, method, _, _, _ in moved} <= {"total"}
        assert all(isinstance(old, int) and abs(old - new) <= 1 for *_, old, new in moved)
        assert all(w.cum_up(0.0) == w.cum_low(INF) for w, _ in cases)
        # the one intended change: the mass beyond oo is 0, as for a PowerWeight
        assert all(w.cum_up(INF) == 0.0 for w, _ in cases)
        assert any(_old_piecewise_cum_up(w, INF) == INF for w, _ in cases)


class TestMassRange:
    """Masses where the closed forms leave the float range, with warnings as
    errors: no ``OverflowError``, no NaN and no RuntimeWarning."""

    @pytest.fixture(autouse=True)
    def _warnings_as_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_powers_past_the_float_range_read_inf(self):
        assert PowerWeight(1.0, 3.0).cum_low(1e200) == INF
        assert PowerWeight(1.0, -3.0).cum_up(1e-200) == INF
        assert PowerWeight(1.0, 2.0, 1e-200).cum_up(0.0) == INF  # lam ** -3
        # both ends' powers past the range
        assert PowerWeight(1.0, 3.0)._mass(1e200, 1e250) == INF
        # lam ** -3 past the range times gammainc(3, 1e-200), which is 0:
        # quadrature reads the mass, about 1/3
        assert PowerWeight(1.0, 2.0, 1e-200).cum_low(1.0) == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_finite_masses_past_an_intermediate_range(self):
        # a power, the quotient b/a or lam ** -(alpha + 1) past the float
        # range, and a finite mass: the closed form is taken in logs
        assert PowerWeight(1e-300, 3.0).cum_low(1e100) == pytest.approx(2.5e99, rel=1e-12)
        assert PowerWeight(1.0, 2.0, 1e-200).cum_low(1e100) == pytest.approx(1e300 / 3.0, rel=1e-12)
        assert PowerWeight(1e-300, -3.0).cum_up(1e-200) == pytest.approx(5e99, rel=1e-12)
        assert PowerWeight(1e-300, 3.0)._mass(1e100, 2e100) == pytest.approx(3.75e100, rel=1e-12)
        assert PowerWeight(1e-300, -1.0)._mass(1e-200, 1e200) == pytest.approx(
            400.0 * math.log(10.0) * 1e-300, rel=1e-12)
        # and +inf where the mass itself is past the range
        assert PowerWeight(1.0, 2.0, 1e-200).cum_up(1e100) == INF
        assert PowerWeight(1e307, -1.0)._mass(1e-200, 1e200) == INF

    @pytest.mark.parametrize("w", [PowerWeight(INF, 1.0, 1.0), PowerWeight(INF, -2.0, 1.0, 0.1),
                                   PowerWeight(INF, 0.5)])
    def test_infinite_coefficient_is_inf_on_every_range(self, w):
        # w is +inf on all of (0, oo): +inf on a range of positive length
        for t in (1e-300, 1e-12, 1.0, 1000.0, 1e300):
            assert w.cum_low(t) == INF
            assert w.cum_up(t) == INF
        assert w.cum_up(0.0) == INF
        assert w._mass(1.0, 2.0) == INF
        # and 0 on an empty one
        assert w.cum_low(0.0) == w.cum_up(INF) == w._mass(3.0, 3.0) == 0.0


# -- the regularized incomplete gamma functions ---------------------------------

GAMMA_A = np.geomspace(0.05, 150.0, 23).tolist()
GAMMA_X = np.geomspace(1e-12, 1e3, 31).tolist()


def gamma_grid_worst(reference):
    """The largest relative difference of ``_gammainc`` and ``_gammaincc``
    from ``reference(a, x)``'s (P, Q) on ``GAMMA_A`` x ``GAMMA_X``, where the
    reference value is at least 1e-300."""
    worst = 0.0
    for a in GAMMA_A:
        for x in GAMMA_X:
            for mine, ref in zip((_gammainc(a, x), _gammaincc(a, x)), reference(a, x)):
                if ref >= 1e-300:
                    worst = max(worst, float(abs((mine - ref) / ref)))
    return worst


class TestIncompleteGamma:
    """``_gammainc`` and ``_gammaincc``, P(a, x) and Q(a, x), against their
    closed forms, scipy.special and mpmath."""

    XS = np.geomspace(1e-12, 700.0, 61).tolist() + [0.5, 1.0, 1.1, 2.0]

    def test_closed_forms(self):
        for x in self.XS:
            assert _gammaincc(1.0, x) == pytest.approx(math.exp(-x), rel=1e-13)
            for n in range(2, 7):
                series = math.fsum(x ** k / math.factorial(k) for k in range(n))
                assert _gammaincc(float(n), x) == pytest.approx(math.exp(-x) * series, rel=1e-13)
            assert _gammainc(0.5, x) == pytest.approx(math.erf(math.sqrt(x)), rel=1e-13)
            assert _gammaincc(0.5, x) == pytest.approx(math.erfc(math.sqrt(x)), rel=1e-13)
        # where scipy's Q(1/2, 1) is 2.6e-14 off erfc(1)
        assert abs(_gammaincc(0.5, 1.0) - math.erfc(1.0)) < 5e-15 * math.erfc(1.0)

    def test_against_scipy(self):
        # scipy.special as a reference here only: the package does not import it
        assert gamma_grid_worst(lambda a, x: (_sp.gammainc(a, x), _sp.gammaincc(a, x))) <= 2e-13

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            def exact(a, x):
                p = mpmath.gammainc(a, 0, x, regularized=True)
                return p, (1 - p if p < 0.5 else mpmath.gammainc(a, x, mpmath.inf, regularized=True))

            assert gamma_grid_worst(exact) <= 2e-13

    def test_ends(self):
        for a in (0.05, 0.5, 1.0, 3.0, 150.0, 1e6):
            assert (_gammainc(a, 0.0), _gammaincc(a, 0.0)) == (0.0, 1.0)
            assert (_gammainc(a, INF), _gammaincc(a, INF)) == (1.0, 0.0)
        # the prefactor x^a e^-x / Gamma(a) underflows: 0 in the tail, 1 - 0 before it
        assert (_gammainc(2.0, 800.0), _gammaincc(2.0, 800.0)) == (1.0, 0.0)
        assert (_gammainc(50.0, 1e-12), _gammaincc(50.0, 1e-12)) == (0.0, 1.0)

    def test_masses_at_the_ends(self):
        # lam = oo: all of the mass sits at 0, and none of (0, oo) carries any
        w = PowerWeight(2.0, 0.5, INF)
        assert w.cum_low(1.0) == w.cum_up(1.0) == w.cum_up(0.0) == w.cum_low(INF) == 0.0
        # lam t at 0 and at oo: Q = 1 and P = 1, the total c Gamma(a) lam^-a
        w = PowerWeight(2.0, 0.5, 3.0)
        total = 2.0 * math.gamma(1.5) * 3.0 ** -1.5
        assert w.cum_up(1e-320) == pytest.approx(total, rel=1e-15)
        assert w.cum_low(1e306) == pytest.approx(total, rel=1e-15)
        assert w.cum_up(1e306) == 0.0 and w.cum_low(1e-320) == 0.0

    def test_gamma_past_the_float_range_takes_logs(self):
        # a = 201: Gamma(a) overflows (math.gamma raises past 171.6), and the
        # mass is taken in logs, with lgamma
        w = PowerWeight(1e-300, 200.0, 1.0)
        assert w.cum_up(0.0) == pytest.approx(math.exp(math.lgamma(201.0) - 300.0 * math.log(10.0)),
                                              rel=1e-12)
        assert w.cum_up(150.0) == pytest.approx(
            math.exp(math.log(1e-300) + math.lgamma(201.0) + math.log(_sp.gammaincc(201.0, 150.0))),
            rel=1e-12)
        assert w.cum_low(150.0) == pytest.approx(
            math.exp(math.log(1e-300) + math.lgamma(201.0) + math.log(_sp.gammainc(201.0, 150.0))),
            rel=1e-12)
        # and +inf where the mass itself is past the float range
        assert PowerWeight(1.0, 200.0, 1.0).cum_up(0.0) == INF


# -- one mass rule for every family ---------------------------------------------

EXP_TABLE_T = tuple(np.logspace(-4.0, 4.0, 25).tolist())  # 3 samples per decade
EXP_TABLE = TabulatedWeight(EXP_TABLE_T, tuple(math.exp(-t) for t in EXP_TABLE_T))
# samples past the battery grid's [1e-5, 1e5] at both ends, zeros among them
WIDE_TABLE = TabulatedWeight(tuple(np.geomspace(1e-8, 1e8, 9).tolist()),
                             (2.0, 0.0, 1.0, 3.0, 0.5, 0.0, 0.0, 1e-3, 0.0))
# callables, whose masses are quadratures: 2 t^0.5 times e^{-t}, and weights
# whose mass diverges at oo, at 0, or nowhere.  (Their masses agree to the
# quadrature's tolerance because they are smooth: across the kinks of a
# table one quadrature can be off by a relative 3e-6.)
FUNC_WEIGHTS = [FuncWeight(_Derived(_mul, (PowerWeight(2.0, 0.5), PowerWeight(1.0, 0.0, 1.0)))),
                FuncWeight(_Derived(_scale, (PowerWeight(1.0, 0.5, 0.0, 1.0), 2.0))),
                FuncWeight(_Derived(_scale, (PowerWeight(1.0, -1.5, 2.0), 2.0))),
                FuncWeight(_Derived(_scale, (PowerWeight(1.0, -0.5, 1.0), 3.0)))]

sample_st = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3))
# the ends of the masses the program reads: 0, oo and knots on the span of the
# CLI's default grid.  Farther out, one quadrature over a half-line can miss
# a peaked weight's mass altogether: PowerWeight(1, 0, 2, 0.1).cum_low(1e9)
# reads 0 where cum_up(0) reads 0.32.
point_st = st.one_of(st.just(0.0), st.just(INF), st.floats(min_value=1e-6, max_value=1e6))


@st.composite
def tables(draw):
    ys = draw(st.lists(sample_st, min_size=2, max_size=8))
    lo = draw(st.integers(-6, 2))
    ts = np.geomspace(10.0 ** lo, 10.0 ** (lo + draw(st.integers(1, 6))), len(ys))
    return TabulatedWeight(tuple(ts.tolist()), tuple(ys))


@st.composite
def piecewise_weights(draw):
    knots = sorted(set(draw(st.lists(st.floats(min_value=1e-4, max_value=1e4), min_size=1,
                                     max_size=3))))
    segs = tuple(PowerWeight(draw(coef_st), draw(alpha_st)) for _ in range(len(knots) + 1))
    return PiecewisePowerWeight(tuple(knots), segs)


power_weights = st.builds(PowerWeight, coef_st, alpha_st, st.sampled_from([0.0, 0.5, 2.0]),
                          st.sampled_from([0.0, 0.1]))
all_weights = st.one_of(power_weights, piecewise_weights(), tables(),
                        st.sampled_from([EXP_TABLE, WIDE_TABLE]), st.sampled_from(FUNC_WEIGHTS))


def close(x, y, rel):
    """Equal to a relative ``rel``, or to the quadrature's absolute 1e-300."""
    return x == y or abs(x - y) <= rel * max(abs(x), abs(y)) + 1e-300


def table_pieces(w, a, b):
    """[a, b] cut at the samples, each piece with the interpolant as a power
    law (two positive samples) or a constant (head or tail); pieces shorter
    than a relative 1e-4 are left out, where the quadrature's ends, taken on
    the log axis, lose digits."""
    cuts = [a, *(t for t in w.t if a < t < b), b]
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        i = bisect.bisect_right(w.t, lo) - 1
        if hi <= lo * (1.0 + 1e-4) or hi == INF and w.y[-1] > 0.0:
            continue
        if 0 <= i < len(w.t) - 1 and (w.y[i] == 0.0 or w.y[i + 1] == 0.0):
            continue  # a zero sample: a straight line, not the interpolant
        out.append((lo, hi))
    return out


class TestOneMassRule:
    """Every family's mass is one ``_mass(a, b)``, read by both cumulatives:
    it adds up over adjacent ranges, with no warning, and a table's takes
    no quadrature and equals its interpolant's."""

    @given(all_weights, st.lists(point_st, min_size=3, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_masses_add_up(self, w, points):
        a, b, c = sorted(points)
        with warnings.catch_warnings(), mock.patch.object(integrate, "quad",
                                                          side_effect=integrate.quad) as quad:
            warnings.simplefilter("error")
            ab, bc, ac = w._mass(a, b), w._mass(b, c), w._mass(a, c)
            low, up, total = w.cum_low(b), w.cum_up(b), w.cum_up(0.0)
        if isinstance(w, TabulatedWeight):
            assert quad.call_count == 0
        # closed forms agree to rounding, quadratures to their tolerance
        rel = 1e-12 if quad.call_count == 0 else 1e-9
        for m in (ab, bc, ac, low, up, total):
            assert 0.0 <= m <= INF
        assert close(ab + bc, ac, rel), (ab, bc, ac)
        assert close(low + up, total, rel), (low, up, total)
        assert w.cum_low(0.0) == w.cum_up(INF) == 0.0

    @given(st.one_of(tables(), st.sampled_from([EXP_TABLE, WIDE_TABLE])),
           st.lists(point_st, min_size=2, max_size=2))
    @settings(max_examples=100, deadline=None)
    def test_table_pieces_are_the_interpolant(self, w, points):
        a, b = sorted(points)
        for lo, hi in table_pieces(w, a, b):
            assert close(w._mass(lo, hi), _quad_log(w, lo, hi), 1e-10), (lo, hi)

    def test_steep_segment(self):
        # e^{-t} from 215 to 464 falls like t**-323; its mass is about 1.8e-94
        a, b = EXP_TABLE_T[19], EXP_TABLE_T[20]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mass = EXP_TABLE._mass(a, b)
        assert mass == pytest.approx(_quad_log(EXP_TABLE, a, b), rel=2e-13)
        assert EXP_TABLE.cum_up(a) == mass  # the mass beyond is below its last bit

    def test_zero_sample_segment_is_a_straight_line(self):
        w = TabulatedWeight((1.0, 3.0), (2.0, 0.0))  # the line 3 - t
        assert w._mass(1.0, 3.0) == 0.5 * 2.0 * 2.0
        assert w._mass(2.0, 3.0) == pytest.approx(0.5, rel=1e-15)
        assert w._mass(1.0, 2.0) + w._mass(2.0, 3.0) == pytest.approx(2.0, rel=1e-15)

    def test_wide_table_on_the_battery_grid(self):
        # samples past both ends of the grid: the end regions hold the head
        # and the tail beyond the knots, and the masses add up to the total
        grid = BENCH_GRIDS[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = region_measures(grid, WIDE_TABLE)
        assert m[0] == WIDE_TABLE.cum_low(grid.knots[0]) and m[-1] == WIDE_TABLE.cum_up(grid.knots[-1])
        assert np.sum(m) == pytest.approx(WIDE_TABLE.cum_up(0.0), rel=1e-12)


def _old_func_cum_low(w, t):
    if t == 0.0:
        return 0.0
    p1, p2 = 1e-13, 1e-15
    v1, v2 = float(w(p1)), float(w(p2))
    if v1 > 0.0 and v2 > 0.0:
        slope = math.log(v2 / v1) / math.log(p2 / p1)
        if slope <= -1.0 + 1e-9:
            return INF
    return _quad_log(w, 0.0, t)


def _old_func_cum_up(w, t):
    p1, p2 = 1e13, 1e15
    v1, v2 = float(w(p1)), float(w(p2))
    if v1 > 0.0 and v2 > 0.0:
        slope = math.log(v2 / v1) / math.log(p2 / p1)
        if slope >= -1.0 - 1e-9:
            return INF
    elif v2 > 0.0 and v1 == 0.0:
        return INF
    return _quad_log(w, t, INF)


class TestFuncWeightMass:
    """``FuncWeight._mass`` gives the old ``cum_low``/``cum_up`` floats, bit
    for bit, at every finite positive end (the old ``cum_low(oo)`` summed two
    quadratures, and the old ``cum_up(0)`` did not probe 0)."""

    @pytest.mark.parametrize("k", range(len(FUNC_WEIGHTS)))
    def test_bit_equal_to_the_old_cumulatives(self, k):
        w = FUNC_WEIGHTS[k]
        for t in (1e-12, 1e-5, 0.3, 1.0, 7.0, 215.0, 1e4, 1e12):
            assert bits(w.cum_low(t)) == bits(_old_func_cum_low(w, t)), t
            assert bits(w.cum_up(t)) == bits(_old_func_cum_up(w, t)), t
        assert w.cum_low(0.0) == 0.0

    def test_probes_decide_divergence(self):
        at_inf, at_0, neither = FUNC_WEIGHTS[1:]
        assert at_inf.cum_up(1.0) == INF and at_inf.cum_low(INF) == INF
        assert at_0.cum_low(1.0) == INF and at_0.cum_up(0.0) == INF
        assert 0.0 < neither.cum_up(0.0) < INF and 0.0 < neither.cum_low(INF) < INF
        # 1 beyond 1e14 and below 1e-14, else 0: zero at the first probe and
        # positive at the second reads +inf at oo, and not at 0
        step = FuncWeight(_EndsClosure())
        assert step.cum_up(1.0) == INF and step.cum_low(1.0) == pytest.approx(1e-14)


    def test_a_probe_reading_inf_reads_inf(self):
        # t^{-1/4} e^{t/2} is +inf at both probes past 1e13, where the slope
        # test read log(inf/inf), NaN, and the quadrature read 1.2e162
        grows = PowerWeight(1.0, 0.5, 1.0).power(-0.5)
        assert isinstance(grows, FuncWeight) and grows(1e13) == grows(1e15) == INF
        assert grows.cum_up(1.0) == INF and grows.cum_low(INF) == INF
        # the mirror, t^{1/4} e^{1/(2t)}, at both probes below 1e-13
        assert PowerWeight(1.0, -0.5, 0.0, 1.0).power(-0.5).cum_low(1.0) == INF
        # +inf at the near probe only, where log(finite/inf) raised ValueError
        spike = FuncWeight(_SpikeClosure())
        assert spike.cum_up(1.0) == INF and spike.cum_low(1.0) == INF


@dataclass(frozen=True)
class _EndsClosure:
    def __call__(self, t):
        return np.where((t > 1e14) | (t < 1e-14), 1.0, 0.0)


@dataclass(frozen=True)
class _SpikeClosure:
    """+inf at the probes 1e-13 and 1e13 and near them, 1 elsewhere."""

    def __call__(self, t):
        near = (np.abs(np.log10(t) - 13.0) < 0.5) | (np.abs(np.log10(t) + 13.0) < 0.5)
        return np.where(near, INF, 1.0)


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

    def test_table_masses_keep_nothing_and_take_no_quadrature(self, monkeypatch):
        # a**beta underflows on a table of e^{-t}: its masses are closed
        # forms, read quietly from the samples, with nothing kept on the table
        import supineq.weights as weights

        calls = []
        monkeypatch.setattr(weights, "_quad_log", lambda *a: calls.append(a))
        ts = tuple(np.logspace(-4.0, 4.0, 25).tolist())
        w = TabulatedWeight(t=ts, y=tuple(math.exp(-t) for t in ts))
        kept = dict(vars(w))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            masses = [w.cum_low(5e3), w.cum_up(0.5), w._mass(ts[19], ts[20])]
        assert not calls and vars(w) == kept
        assert all(0.0 < m < INF for m in masses)

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


# the battery grid and the CLI default grid
BENCH_GRIDS = [make_log_grid(1e-5, 1e5, 96), make_log_grid(1e-6, 1e6, 512)]


def sup_rule(w, a, b):
    """The per-interval rule for a unimodal power weight: w at its argmax
    clipped into [a, b], or its limit where the clip lands on 0 or oo; 0 for
    the zero weight and on an empty interval."""
    if w.c == 0.0 or a > b:
        return 0.0
    t = min(max(w.argmax(), a), b)
    if t == 0.0:
        return w.limit0()
    if t == INF:
        return w.limit_inf()
    return float(w(t))


class TestOnePassSuprema:
    """``PowerWeight.sup_on_intervals`` is one array pass of the per-interval
    rule, bit for bit, on the regions of both benchmark grids."""

    @given(st.one_of(st.just(0.0), coef_st), alpha_st,
           st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10.0)),
           st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0)),
           st.sampled_from(range(len(BENCH_GRIDS))))
    @example(0.0, 1.0, 0.0, 0.0, 0)  # the zero weight
    @example(1.0, -0.5, 0.0, 0.0, 1)  # argmax at 0: limit0 is +inf
    @example(2.0, 0.0, 0.0, 0.0, 0)  # constant: argmax at oo, limit_inf is c
    @example(1.0, 1.5, 0.0, 0.0, 1)  # argmax at oo: limit_inf is +inf
    @example(1.0, 1.0, 1.0, 0.0, 0)  # argmax 1, inside a region
    @example(1.0, -2.0, 0.0, 0.5, 1)  # mu > 0, alpha < 0: argmax mu/-alpha
    @example(1.0, -2.0, 3.0, 0.0, 0)  # lam > 0 with argmax at 0
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_per_interval_rule(self, c, alpha, lam, mu, g):
        w = PowerWeight(c, alpha, lam, mu)
        ks = BENCH_GRIDS[g].array()
        lo, hi = np.concatenate([[0.0], ks]), np.concatenate([ks, [INF]])
        want = [sup_rule(w, a, b) for a, b in zip(lo.tolist(), hi.tolist())]
        assert np.array_equal(bits(w.sup_on_intervals(lo, hi)), bits(want))
        # the one-interval case, on the head, a middle and the tail region
        for i in (0, len(ks) // 2, len(ks)):
            assert bits(w.sup_on_interval(lo[i], hi[i])) == bits(want[i])

    def test_empty_interval_reads_zero(self):
        w = PowerWeight(1.0, -1.0)
        assert w.sup_on_intervals(np.array([2.0, 1.0]), np.array([1.0, 2.0])).tolist() == [0.0, 1.0]

    def test_default_loops_over_intervals(self):
        w = PiecewisePowerWeight((1.0,), (PowerWeight(1.0, 1.0), PowerWeight(1.0, -1.0)))
        lo, hi = np.array([0.0, 0.5, 2.0]), np.array([0.5, 2.0, INF])
        assert w.sup_on_intervals(lo, hi).tolist() == [w.sup_on_interval(a, b)
                                                      for a, b in zip(lo, hi)]


class TestTransforms:
    def test_running_sup_low(self):
        u = PowerWeight(1.0, 1.0, 1.0)  # peaks at 1 with e^{-1}
        ubar = running_sup(u, "low")
        assert ubar(0.5) == pytest.approx(0.5 * math.exp(-0.5), rel=1e-10)
        assert ubar(2.0) == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_running_sup_up(self):
        u = PowerWeight(1.0, 1.0, 1.0)
        utail = running_sup(u, "up")
        assert utail(0.5) == pytest.approx(math.exp(-1.0), rel=1e-10)
        assert utail(2.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-10)

    def test_running_sup_tabulated_cummax(self):
        w = TabulatedWeight(t=(1.0, 2.0, 3.0), y=(2.0, 5.0, 1.0))
        up = running_sup(w, "low")
        assert up(3.0) == pytest.approx(5.0, rel=1e-9)

    def test_running_sup_tabulated_between_samples(self):
        # the sup over (0, 3] is the sample 4 at t=1, not the envelope of the
        # samples interpolated up to the sample 8 at t=4
        w = TabulatedWeight(t=(1.0, 2.0, 4.0), y=(4.0, 1.0, 8.0))
        assert running_sup(w, "low")(3.0) == 4.0
        assert running_sup(w, "up")(1.5) == 8.0

    def test_running_sup_rejects_unknown_side(self):
        with pytest.raises(ValueError):
            running_sup(PowerWeight(1.0, 1.0), "left")

    def test_dual_substitute_pointwise(self):
        w = PowerWeight(2.0, 1.0, 0.5, 0.0)
        for e in (0.0, 1.0, -0.5):
            d = w.dual(e)
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
        w = FuncWeight(lambda t: 1.0 / (1.0 + t))
        for t in (0.5, 3.0):
            assert w.power(2.0)(t) == pytest.approx(w(t) ** 2)
            assert w.scale(5.0)(t) == pytest.approx(5.0 * w(t))
        # a FuncWeight is its closure: the table's own power and the generic
        # one build equal weights, with equal hashes, so the memos share them
        tab = TabulatedWeight(t=(1.0, 2.0), y=(1.0, 0.0))
        own, generic = tab.power(-1.0), Weight.power(tab, -1.0)
        assert own == generic and hash(own) == hash(generic)


class TestLevelTransforms:
    def test_phi_power_weight_closed_form(self):
        # v = t, p = 3: int_0^x t^{1-p'} dt = 2 sqrt(x), so the level
        # function is (2 sqrt(x))^{2/5}
        _, Phi = phi_weights(PowerWeight(1.0, 1.0), 3.0, "low")
        for x in (0.5, 1.0, 4.0):
            assert Phi(x) == pytest.approx((2.0 * math.sqrt(x)) ** 0.4, rel=1e-10)

    @pytest.mark.parametrize("alpha,p", [(1.0, 3.0), (0.5, 2.0), (0.0, 1.5)])
    def test_phi_integral_identity(self, alpha, p):
        v = PowerWeight(1.0, alpha)
        phi, Phi = phi_weights(v, p, "low")
        pprime = conjugate(p)
        for x in (0.5, 2.0):
            val, _ = integrate.quad(phi, 0.0, x)
            assert val == pytest.approx((pprime + 1.0) * Phi(x), rel=1e-8)

    @pytest.mark.parametrize("alpha,p", [(3.0, 3.0), (2.5, 2.0)])
    def test_psi_integral_identity(self, alpha, p):
        v = PowerWeight(1.0, alpha)
        psi, Psi = phi_weights(v, p, "up")
        pprime = conjugate(p)
        for x in (0.5, 2.0):
            val, _ = integrate.quad(psi, x, np.inf)
            assert val == pytest.approx((pprime + 1.0) * Psi(x), rel=1e-6)

    def test_phi_rejects_degenerate(self):
        with pytest.raises(ValueError):
            phi_weights(PowerWeight(1.0, 3.0), 2.0, "low")  # head integral diverges


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


NAN = math.nan


class TestDomainChecks:
    """The weight constructors reject NaN parameters, knots and sample points:
    the checks are written so that a NaN, which compares False with
    everything, fails them."""

    @pytest.mark.parametrize("args", [(NAN, 0.0), (1.0, NAN), (1.0, 0.0, NAN), (1.0, 0.0, 0.0, NAN),
                                      (-1.0, 0.0), (1.0, 0.0, -1.0), (1.0, 0.0, 0.0, -1.0)],
                             ids=repr)
    def test_power_weight_rejects_nan_and_negative(self, args):
        with pytest.raises(ValueError):
            PowerWeight(*args)

    def test_power_weight_keeps_infinite_coefficient(self):
        # ``scale`` and ``weight_mul`` may overflow c to +inf; 0 * inf is 0
        big = PowerWeight(1e300, 0.0).scale(1e300)
        assert big.c == INF
        assert weight_mul(big, PowerWeight(0.0, 1.0)).c == 0.0
        assert big.scale(0.0).c == 0.0

    def test_negative_zero_coefficient_gives_positive_zeros(self):
        w = PowerWeight(-0.0, 0.0)
        assert math.copysign(1.0, w.c) == 1.0 and math.copysign(1.0, w(2.0)) == 1.0
        assert adiv(1.0, w(np.array([1.0, 2.0]))).tolist() == [INF, INF]

    @pytest.mark.parametrize("knots", [(NAN,), (1.0, NAN), (1.0, INF), (2.0, 1.0), (0.0,)], ids=repr)
    def test_piecewise_rejects_bad_knots(self, knots):
        segs = tuple(PowerWeight(1.0, 0.0) for _ in range(len(knots) + 1))
        with pytest.raises(ValueError, match="finite"):
            PiecewisePowerWeight(knots, segs)

    @pytest.mark.parametrize("t", [(1.0, NAN), (NAN, 1.0), (1.0, INF), (2.0, 1.0)], ids=repr)
    def test_table_rejects_bad_sample_points(self, t):
        with pytest.raises(ValueError, match="finite"):
            TabulatedWeight(t, (1.0, 1.0))


class TestParsing:
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
