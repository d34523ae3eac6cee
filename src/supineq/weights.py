"""Weight functions on (0, oo) and their exact/numeric calculus.

A *weight* is a measurable function w : (0, oo) -> [0, oo].  This module
provides a small closed family of symbolic forms

  * ``PowerWeight``        c * t**alpha * exp(-lam*t - mu/t)
                           (plain powers: lam = mu = 0; power-exponential:
                           mu = 0)
  * ``PiecewisePowerWeight`` pure power laws between knots
  * ``TabulatedWeight``    log-linear interpolation of samples, constant
                           extension outside the sample range
  * ``FuncWeight``         arbitrary hashable callable; a derived weight's
                           is a module-level function with its arguments
                           (``_Derived``)

together with the operations the inequality criteria need:

  * pointwise evaluation (array-capable),
  * one-sided cumulatives ``int_0^t w`` / ``int_t^oo w`` with +inf as a
    valid, analytically detected answer (each family states this calculus
    once, in ``_mass(a, b)``, which both cumulatives read), and the
    cumulative as a weight (``cumulative``),
  * essential sup / inf over intervals (exact for the symbolic forms),
  * running envelopes as weights (``running_sup``),
  * powers, scalings, products (``weight_mul``) and the substitution
    t -> 1/t with a Jacobian power (``Weight.dual``).

The two derived weights take a side: ``"low"`` is (0, t] and ``"up"`` is
[t, oo).

All scalar results follow the extended arithmetic of :mod:`supineq.extreal`.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .extreal import INF, amul, apow, xmul, xpow

__all__ = [
    "Weight",
    "PowerWeight",
    "PiecewisePowerWeight",
    "TabulatedWeight",
    "FuncWeight",
    "Exponents",
    "conjugate",
    "parse_weight",
    "weight_mul",
    "cumulative",
    "running_sup",
]


def _quad_log(w: "Weight", a: float, b: float) -> float:
    """Adaptive quadrature of ``w`` over (a, b) in (0, oo), on the log axis.

    ``scipy.integrate`` is imported here, on the first quadrature: most runs
    never need it, and importing it (with the ``scipy.special`` it loads)
    takes more than twice as long as importing the package, which loads no
    scipy module."""
    from scipy import integrate

    lo = math.log(a) if a > 0.0 else -math.inf
    hi = math.log(b) if b < INF else math.inf
    scalar = w._scalar

    def g(s: float) -> float:
        if abs(s) > 700.0:  # exp would overflow/underflow the float range
            return 0.0
        t = math.exp(s)
        try:
            v = scalar(t) * t
        except OverflowError:
            return 0.0
        return v if math.isfinite(v) else 0.0

    # one errstate per integral, not one per evaluation of the integrand
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        val, _err = integrate.quad(g, lo, hi, epsabs=1e-300, epsrel=1e-10, limit=400)
    return max(val, 0.0)


def _exp(x: float) -> float:
    """``math.exp``, +inf past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return INF


# -- the regularized incomplete gamma functions P(a, x) and Q(a, x) = 1 - P --
#
# Cephes' igam/igamc (DiDonato & Morris, ACM TOMS 12, 1986) in the branch
# structure scipy.special keeps, without its asymptotic series for a ~ x > 20:
# a power series, a small-x series for Q and Legendre's continued fraction,
# each scaled by x^a e^-x / Gamma(a).  For a > 0 and x >= 0.

_MAXLOG = 709.782712893384  # log of the largest float
_EPS = 2.0 ** -53  # the relative change at which a series or fraction stops
_BIG = 2.0 ** 52  # the fraction's rescaling threshold
_MAXITER = 2000  # Cephes' bound on the fraction's steps


def _gamma(a: float) -> float:
    """Gamma(a) for a > 0, +inf past the float range, where ``math.gamma``
    raises ``OverflowError``."""
    try:
        return math.gamma(a)
    except OverflowError:
        return INF


def _igam_fac(a: float, x: float) -> float:
    """x^a e^-x / Gamma(a), read as 0 where its log is below -_MAXLOG."""
    ax = a * math.log(x) - x - math.lgamma(a)
    return 0.0 if ax < -_MAXLOG else math.exp(ax)


def _igam_series(a: float, x: float) -> float:
    """P(a, x) by its power series; for x <= 1 or x <= a."""
    fac = _igam_fac(a, x)
    if fac == 0.0:
        return 0.0
    r, c, s = a, 1.0, 1.0
    while c > _EPS * s:
        r += 1.0
        c *= x / r
        s += c
    return s * fac / a


def _igamc_series(a: float, x: float) -> float:
    """Q(a, x) for x <= 1.1 and small a: 1 - x^a / Gamma(1 + a), less
    x^a / Gamma(a) times sum_{n>=1} (-x)^n / (n! (a + n))."""
    fac, s, n = 1.0, 0.0, 0
    while True:
        n += 1
        fac *= -x / n
        term = fac / (a + n)
        s += term
        if abs(term) <= _EPS * abs(s):
            break
    logx = math.log(x)
    return -math.expm1(a * logx - math.lgamma(1.0 + a)) - math.exp(a * logx - math.lgamma(a)) * s


def _igamc_fraction(a: float, x: float) -> float:
    """Q(a, x) by Legendre's continued fraction; for x > 1.1 and x >= a.
    The convergents are rescaled by 2^-52 when they pass 2^52; at most
    ``_MAXITER`` steps."""
    fac = _igam_fac(a, x)
    if fac == 0.0:
        return 0.0
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2, qkm2, pkm1, qkm1 = 1.0, x, x + 1.0, z * x
    ans = pkm1 / qkm1
    t = 1.0
    while t > _EPS and c < _MAXITER:  # a NaN change stops it too
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        t = 1.0
        if qk != 0.0:
            r = pk / qk
            t = abs((ans - r) / r) if r != 0.0 else 1.0
            ans = r
        pkm2, pkm1, qkm2, qkm1 = pkm1, pk, qkm1, qk
        if abs(pk) > _BIG:
            pkm2, pkm1, qkm2, qkm1 = pkm2 / _BIG, pkm1 / _BIG, qkm2 / _BIG, qkm1 / _BIG
    return ans * fac


def _gammainc(a: float, x: float) -> float:
    """The regularized lower incomplete gamma function P(a, x), a > 0, x >= 0."""
    if x == 0.0:
        return 0.0
    if x == INF:
        return 1.0
    if x > 1.0 and x > a:
        return 1.0 - _gammaincc(a, x)
    return _igam_series(a, x)


def _gammaincc(a: float, x: float) -> float:
    """The regularized upper incomplete gamma function Q(a, x), a > 0, x >= 0."""
    if x == 0.0:
        return 1.0
    if x == INF:
        return 0.0
    if x > 1.1:
        return 1.0 - _igam_series(a, x) if x < a else _igamc_fraction(a, x)
    if (a <= -0.4 / math.log(x)) if x <= 0.5 else (1.1 * x >= a):
        return _igamc_series(a, x)
    return 1.0 - _igam_series(a, x)


def _power_int(c: float, alpha: float, a: float, b: float) -> float:
    """Exact ``int_a^b c t**alpha dt`` for 0 <= c < oo and 0 <= a <= b <= oo
    where it converges (alpha = -1 ok inside (0, oo)).  Where the direct form
    reads +inf or NaN (a power or the quotient b/a past the float range), the
    same integral is taken in logs, which reads +inf only for a mass past the
    float range: c x^e (1 - (y/x)^e) / |e|, with x the end of the larger
    power.  ``abs`` only turns the -0.0 of an underflowed difference over a
    negative exponent into 0.0."""
    if c == 0.0 or a == b:
        return 0.0
    if alpha == -1.0:
        mass = c * math.log(b / a)
        return mass if mass < INF else c * (math.log(b) - math.log(a))
    e = alpha + 1.0
    diff = xpow(b, e) - xpow(a, e)
    mass = INF if math.isnan(diff) else abs(c * diff / e)
    if mass < INF:
        return mass
    x, y = (b, a) if e > 0.0 else (a, b)
    gap = 1.0 if y == 0.0 else -math.expm1(e * (math.log(y) - math.log(x)))
    return _exp(math.log(c) + e * math.log(x) + math.log(gap) - math.log(abs(e)))


class Weight:
    """Base class; subclasses implement the abstract hooks."""

    # -- evaluation --------------------------------------------------------
    def __call__(self, t):  # pragma: no cover - abstract
        raise NotImplementedError

    # -- limit at oo (in [0, inf]) ------------------------------------------
    def limit_inf(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- cumulatives --------------------------------------------------------
    def cum_low(self, t: float) -> float:
        """``int_0^t w``, +inf when the integral diverges at 0."""
        return self._mass(0.0, t)

    def cum_up(self, t: float) -> float:
        """``int_t^oo w``, +inf when the integral diverges at oo."""
        return self._mass(t, INF)

    def _mass(self, a: float, b: float) -> float:  # pragma: no cover - abstract
        """``int_a^b w`` for 0 <= a <= b <= oo, in [0, inf] and +inf when it
        diverges: the one mass rule of a family, which the cumulatives read."""
        raise NotImplementedError

    def _scalar(self, t: float) -> float:
        """``float(self(t))`` for one float t; the integrand of ``_quad_log``,
        which calls it under ``np.errstate(all="ignore")``."""
        return float(self(t))

    # -- interval extremes ---------------------------------------------------
    def sup_on_interval(self, a: float, b: float) -> float:
        raise NotImplementedError

    def sup_on_intervals(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """``sup_on_interval(lo[i], hi[i])`` for every i, as one array."""
        return np.array([self.sup_on_interval(a, b) for a, b in zip(lo, hi)])

    # -- algebra --------------------------------------------------------------
    def power(self, e: float) -> "Weight":
        return FuncWeight(_Derived(_pow, (self, e)))

    def scale(self, c: float) -> "Weight":
        return FuncWeight(_Derived(_scale, (self, c)))

    def dual(self, jacobian_exponent: float) -> "Weight":
        """The substituted weight ``t -> w(1/t) * (1/t**2)**e``."""
        return FuncWeight(_Derived(_dual, (self, jacobian_exponent)))


# .. derived FuncWeights: a module-level function and its arguments ..........


@dataclass(frozen=True)
class _Derived:
    """t -> ``fn(t, *args)``, with ``fn`` a module-level function (compared
    by identity, pickled by name) and ``args`` the weights and numbers it
    reads (compared by value): equal constructions are equal and hash
    alike, and a derived weight pickles."""

    fn: Callable
    args: tuple

    def __call__(self, t):
        return self.fn(t, *self.args)


def _pow(t, base: "Weight", e: float):
    return apow(base(t), e)


def _scale(t, base: "Weight", c: float):
    return amul(c, base(t))


def _dual(t, base: "Weight", e: float):
    t = np.asarray(t, dtype=float)
    inv = np.where(t > 0.0, 1.0 / t, INF)
    return amul(base(inv), apow(inv, 2.0 * e))


def _mul(t, a: "Weight", b: "Weight"):
    return amul(a(t), b(t))


def _cum(t, w: "Weight", side: str):
    """t -> int_0^t w (side "low") or int_t^oo w (side "up"), one cumulative
    per point."""
    cum = w.cum_low if side == "low" else w.cum_up
    return np.array([cum(x) for x in t])


def _running_sup(t, w: "Weight", side: str):
    """t -> esssup of w over (0, t] (side "low") or [t, oo) (side "up")."""
    if side == "low":
        return w.sup_on_intervals(np.zeros_like(t), t)
    return w.sup_on_intervals(t, np.full_like(t, INF))


@dataclass(frozen=True)
class PowerWeight(Weight):
    """``c * t**alpha * exp(-lam*t - mu/t)`` with c >= 0, lam >= 0, mu >= 0
    (each may be +inf) and alpha not NaN."""

    c: float
    alpha: float
    lam: float = 0.0
    mu: float = 0.0

    def __post_init__(self) -> None:
        # written so that NaN fails: a NaN compares False with everything
        if not (self.c >= 0 and self.lam >= 0 and self.mu >= 0):
            raise ValueError("PowerWeight requires c, lam, mu >= 0")
        if math.isnan(self.alpha):
            raise ValueError("PowerWeight requires alpha to be a number")
        # a -0.0 coefficient would give -0.0 values, and x / -0.0 is not +inf
        object.__setattr__(self, "c", abs(self.c))

    # -- evaluation ---------------------------------------------------------
    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            logv = self.alpha * np.log(t) - self.lam * t - self.mu / np.where(t > 0, t, 1.0)
            out = self.c * np.exp(logv)
        out = np.where(t > 0.0, out, 0.0)
        out = np.where(np.isnan(out), 0.0, out)
        return out if out.ndim else float(out)

    def _scalar(self, t: float) -> float:
        # the ufuncs of __call__ on a float, the rest in Python floats (the
        # same IEEE operations): bit-equal to float(self(t)).  Not math.exp
        # or math.log: they differ from numpy's in the last bit on some inputs.
        if not t > 0.0:
            return 0.0
        out = self.c * float(np.exp(self.alpha * float(np.log(t)) - self.lam * t - self.mu / t))
        return 0.0 if math.isnan(out) else out

    # -- boundary limits ------------------------------------------------------
    def limit0(self) -> float:
        if self.c == 0.0 or self.mu > 0.0:
            return 0.0
        if self.alpha < 0.0:
            return INF
        return self.c if self.alpha == 0.0 else 0.0

    def limit_inf(self) -> float:
        if self.c == 0.0 or self.lam > 0.0:
            return 0.0
        if self.alpha > 0.0:
            return INF
        return self.c if self.alpha == 0.0 else 0.0

    # -- unimodal structure ----------------------------------------------------
    def argmax(self) -> float:
        """Location of the (unique) maximum in [0, oo]; 0/oo mean boundary."""
        a, lam, mu = self.alpha, self.lam, self.mu
        # log-derivative: a/t - lam + mu/t**2; sign change + -> - at the root of
        # lam t**2 - a t - mu = 0.
        if lam > 0.0:
            disc = a * a + 4.0 * lam * mu
            t_star = (a + math.sqrt(disc)) / (2.0 * lam)
            return t_star if t_star > 0.0 else 0.0
        # lam == 0
        if a >= 0.0:
            return INF
        if mu > 0.0:
            return mu / (-a)
        return 0.0

    def sup_on_interval(self, a: float, b: float) -> float:
        return float(self.sup_on_intervals(np.array([a]), np.array([b]))[0])

    def sup_on_intervals(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Unimodal: on each interval the sup is the value at the argmax
        clipped into it, or the limit at 0 or oo where the clip lands there;
        0 on an empty interval (lo > hi).  One array pass."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        t = np.clip(self.argmax(), lo, hi)
        out = np.asarray(self(t), dtype=float)
        out[t == 0.0] = self.limit0()
        out[t == INF] = self.limit_inf()
        out[lo > hi] = 0.0
        return out

    # -- cumulatives --------------------------------------------------------------
    def _mass(self, a: float, b: float) -> float:
        """``int_a^b w``, by the first rule that applies: 0 on an empty range;
        +inf for c = oo, where w is +inf on all of (0, oo); +inf at an open
        end that diverges (at 0 when mu = 0 and alpha <= -1, at oo when lam = 0
        and alpha >= -1); exact for a plain power; the incomplete gamma
        function for a power-exponential with alpha > -1 on (0, b], [a, oo)
        or (0, oo), taken in logs where a factor past the float range makes
        the product +inf or NaN, unless the incomplete gamma factor itself
        underflows to 0; else quadrature."""
        c, alpha, lam, mu = self.c, self.alpha, self.lam, self.mu
        if c == 0.0 or a == b:
            return 0.0
        if c == INF or (a == 0.0 and mu == 0.0 and alpha <= -1.0) or (
                b == INF and lam == 0.0 and alpha >= -1.0):
            return INF
        if lam == 0.0 and mu == 0.0:
            return _power_int(c, alpha, a, b)
        a1 = alpha + 1.0
        if mu == 0.0 and a1 > 0.0 and (a == 0.0 or b == INF):
            # Python floats: inf * 0 is NaN without numpy's warning
            mass = c * xpow(lam, -a1) * _gamma(a1)
            part = 1.0  # the regularized incomplete gamma factor
            if b < INF:
                part = _gammainc(a1, lam * b)
            elif a > 0.0:
                part = _gammaincc(a1, lam * a)
            mass = mass * part
            if mass < INF:
                return mass
            if part > 0.0:
                return _exp(math.log(c) - a1 * math.log(lam) + math.lgamma(a1) + math.log(part))
        return _quad_log(self, a, b)

    # -- algebra --------------------------------------------------------------------
    def power(self, e: float) -> "PowerWeight":
        if self.c == 0.0:
            if e < 0:
                raise ValueError("cannot raise the zero weight to a negative power")
            return PowerWeight(0.0 if e > 0 else 1.0, 0.0)
        if e >= 0:
            return PowerWeight(self.c ** e, self.alpha * e, self.lam * e, self.mu * e)
        # negative power flips the exponential decays into growths, which the
        # family cannot represent unless they vanish
        if self.lam == 0.0 and self.mu == 0.0:
            return PowerWeight(self.c ** e, self.alpha * e)
        return FuncWeight(_Derived(_pow, (self, e)))

    def scale(self, k: float) -> "PowerWeight":
        return PowerWeight(xmul(self.c, k), self.alpha, self.lam, self.mu)

    def dual(self, jacobian_exponent: float) -> "PowerWeight":
        # w(1/t) (1/t^2)^e = c t^{-alpha - 2e} e^{-mu t - lam/t}
        return PowerWeight(
            self.c, -self.alpha - 2.0 * jacobian_exponent, self.mu, self.lam
        )


@dataclass(frozen=True)
class PiecewisePowerWeight(Weight):
    """Pure power laws between knots: segment i applies on (knots[i-1], knots[i]].

    ``len(segments) == len(knots) + 1``; the first segment covers (0, knots[0]],
    the last (knots[-1], oo).  Each segment must be a plain power
    (lam = mu = 0).
    """

    knots: tuple
    segments: tuple

    def __post_init__(self) -> None:
        ks = tuple(float(k) for k in self.knots)
        segs = tuple(self.segments)
        if len(segs) != len(ks) + 1:
            raise ValueError("need len(segments) == len(knots) + 1")
        if not (all(0 < k < INF for k in ks) and all(a < b for a, b in zip(ks, ks[1:]))):
            raise ValueError("knots must be positive, finite and strictly increasing")
        for s in segs:
            if not isinstance(s, PowerWeight) or s.lam != 0.0 or s.mu != 0.0:
                raise ValueError("segments must be plain PowerWeight power laws")
        object.__setattr__(self, "knots", ks)
        object.__setattr__(self, "segments", segs)

    def _seg_index(self, t):
        return np.searchsorted(np.asarray(self.knots), t, side="left")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = self._seg_index(t)
        out = np.zeros_like(t, dtype=float)
        for i, seg in enumerate(self.segments):
            m = idx == i
            if np.any(m):
                out[m] = np.asarray(seg(t[m]), dtype=float)
        out = np.where(t > 0.0, out, 0.0)
        return out if out.ndim else float(out)

    def limit_inf(self) -> float:
        return self.segments[-1].limit_inf()

    def _bounds(self, i: int) -> tuple:
        lo = 0.0 if i == 0 else self.knots[i - 1]
        hi = INF if i == len(self.knots) else self.knots[i]
        return lo, hi

    def _mass(self, a: float, b: float) -> float:
        """Each segment's mass over its overlap with [a, b], summed left to
        right; an end segment's own rule gives +inf where it diverges."""
        acc = 0.0
        for i, seg in enumerate(self.segments):
            lo, hi = self._bounds(i)
            if lo < b and a < hi:
                acc += seg._mass(max(lo, a), min(hi, b))
        return acc

    def sup_on_interval(self, a: float, b: float) -> float:
        best = 0.0
        for i, seg in enumerate(self.segments):
            lo, hi = self._bounds(i)
            aa, bb = max(lo, a), min(hi, b)
            if aa < bb or (aa == bb and lo < aa < hi):
                best = max(best, seg.sup_on_interval(aa, bb))
            if best == INF:
                return INF
        return best

    def power(self, e: float) -> "PiecewisePowerWeight":
        return PiecewisePowerWeight(self.knots, tuple(s.power(e) for s in self.segments))

    def scale(self, k: float) -> "PiecewisePowerWeight":
        return PiecewisePowerWeight(self.knots, tuple(s.scale(k) for s in self.segments))

    def dual(self, jacobian_exponent: float) -> "PiecewisePowerWeight":
        new_knots = tuple(1.0 / k for k in reversed(self.knots))
        new_segs = tuple(s.dual(jacobian_exponent) for s in reversed(self.segments))
        return PiecewisePowerWeight(new_knots, new_segs)


_TINY_LOG = -690.0  # log of ~1e-300, stands in for log(0)


@dataclass(frozen=True)
class TabulatedWeight(Weight):
    """Samples (t_i, y_i); log-linear inside, constant extension outside."""

    t: tuple
    y: tuple

    def __post_init__(self) -> None:
        ts = np.asarray(self.t, dtype=float)
        ys = np.asarray(self.y, dtype=float)
        if ts.ndim != 1 or ts.shape != ys.shape or len(ts) < 2:
            raise ValueError("need matching 1-d t/y arrays with at least 2 samples")
        if not (np.all(ts > 0) and np.all(np.diff(ts) > 0) and ts[-1] < INF):
            raise ValueError("t must be positive, finite and strictly increasing")
        if np.any(ys < 0) or not np.all(np.isfinite(ys)):
            raise ValueError("y must be finite and nonnegative")
        object.__setattr__(self, "t", tuple(ts.tolist()))
        object.__setattr__(self, "y", tuple(ys.tolist()))

    def _arrays(self):
        return np.asarray(self.t), np.asarray(self.y)

    @cached_property
    def _logs(self) -> tuple:
        """``(log t_i, log y_i)`` with log 0 read as ``_TINY_LOG``, built on
        first use."""
        ts, ys = self._arrays()
        logy = np.where(ys > 0, np.log(np.where(ys > 0, ys, 1.0)), _TINY_LOG)
        return np.log(ts), logy

    def __call__(self, t):
        logt, logy = self._logs
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            lt = np.log(np.where(t > 0, t, self.t[0]))
        out = np.exp(np.interp(lt, logt, logy))
        out = np.where(out < 1e-290, 0.0, out)
        out = np.where(t <= 0.0, 0.0, out)
        return out if out.ndim else float(out)

    def limit_inf(self) -> float:
        return float(self.y[-1])

    def _mass(self, a: float, b: float) -> float:
        """``int_a^b w``: the constant head on (0, t_0], each segment and the
        constant tail on (t_last, oo), over their overlaps with [a, b], each
        in closed form and summed left to right.  The tail reads +inf out to
        oo where y_last > 0."""
        if a == b:
            return 0.0
        ts, ys = self.t, self.y
        acc = ys[0] * (min(b, ts[0]) - a) if a < ts[0] else 0.0
        for i in range(max(bisect.bisect_right(ts, a) - 1, 0), len(ts) - 1):
            if ts[i] >= b:
                break
            acc += self._segment(i, max(a, ts[i]), min(b, ts[i + 1]))
        if b > ts[-1]:
            acc += xmul(ys[-1], b - max(a, ts[-1]))
        return acc

    def _segment(self, i: int, lo: float, hi: float) -> float:
        """The mass of segment i over [lo, hi] within it.  Between positive
        samples the interpolant is a power law: w(t) t = y_s t_s (t/t_s)**e,
        e = beta + 1, taken at the sample t_s where t**e is largest.  Its
        mass y_s t_s (x/t_s)**e (1 - (lo/hi)**|e|) / |e|, with x the end of
        [lo, hi] nearer t_s, has both powers in [0, 1]: no NaN and no
        overflow.  A segment with a zero sample carries the straight line
        between its samples, integrated as a trapezoid."""
        ta, tb, ya, yb = self.t[i], self.t[i + 1], self.y[i], self.y[i + 1]
        if ya == 0.0 or yb == 0.0:  # on the whole segment, 0.5 (ya + yb)(tb - ta)
            at_lo = ya + (yb - ya) * ((lo - ta) / (tb - ta))
            at_hi = ya + (yb - ya) * ((hi - ta) / (tb - ta))
            return 0.5 * (at_lo + at_hi) * (hi - lo)
        e = (math.log(yb) - math.log(ya)) / (math.log(tb) - math.log(ta)) + 1.0
        d = math.log1p((hi - lo) / lo)  # log(hi / lo), exact for a short overlap
        spread = d if e == 0.0 else -math.expm1(-abs(e) * d) / abs(e)
        if e > 0.0:
            return xmul(yb * tb, (hi / tb) ** e) * spread
        return xmul(ya * ta, (lo / ta) ** e) * spread

    def sup_on_interval(self, a: float, b: float) -> float:
        ts, ys = self._arrays()
        cands = [float(self(max(a, 1e-300)))] if a > 0 else [float(ys[0])]
        cands.append(float(self(b)) if b < INF else float(ys[-1]))
        inside = (ts >= a) & (ts <= b)
        if np.any(inside):
            cands.append(float(ys[inside].max()))
        return max(cands)

    def power(self, e: float) -> "Weight":
        ys = np.asarray(self.y)
        if e < 0 and np.any(ys == 0.0):
            return FuncWeight(_Derived(_pow, (self, e)))
        return TabulatedWeight(self.t, tuple((ys ** e).tolist()))

    def scale(self, k: float) -> "TabulatedWeight":
        return TabulatedWeight(self.t, tuple((np.asarray(self.y) * k).tolist()))

    def dual(self, jacobian_exponent: float) -> "TabulatedWeight":
        ts, ys = self._arrays()
        new_t = (1.0 / ts)[::-1]
        new_y = (ys * (1.0 / ts) ** (-2.0 * jacobian_exponent))[::-1]
        return TabulatedWeight(tuple(new_t.tolist()), tuple(new_y.tolist()))


@dataclass(frozen=True)
class FuncWeight(Weight):
    """Callable-backed weight for derived quantities (envelopes, transforms).
    ``fn`` must be hashable, as the memos key every weight by its value."""

    fn: Callable

    def __post_init__(self) -> None:
        try:
            hash(self.fn)
        except TypeError:
            raise ValueError(f"FuncWeight needs a hashable callable, got {self.fn!r}") from None

    def __call__(self, t):
        scalar = np.ndim(t) == 0
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.asarray(self.fn(ts), dtype=float)
        if out.shape != ts.shape:
            out = np.array([float(self.fn(x)) for x in ts])
        out = np.where(np.isnan(out), 0.0, np.maximum(out, 0.0))
        return float(out[0]) if scalar else out

    def limit_inf(self) -> float:
        probes = self(np.array([1e12, 1e13, 1e14]))
        if probes[2] > probes[0] * 1.5 and probes[2] > 0:
            return INF
        return float(probes[2])

    def _mass(self, a: float, b: float) -> float:
        """``int_a^b w`` by one quadrature, after a probe at each open end of
        [a, b]: +inf where w reads +inf at either probe; else +inf at 0 where
        w's log-slope from 1e-13 to 1e-15 is at most -1 (w grows like 1/t or
        faster), and at oo where its log-slope from 1e13 to 1e15 is at least
        -1 or it is 0 at 1e13 but positive at 1e15."""
        if a == b:
            return 0.0
        if a == 0.0:
            p1, p2 = 1e-13, 1e-15
            v1, v2 = float(self(p1)), float(self(p2))
            if INF in (v1, v2):
                return INF
            if v1 > 0.0 and v2 > 0.0 and math.log(v2 / v1) / math.log(p2 / p1) <= -1.0 + 1e-9:
                return INF
        if b == INF:
            p1, p2 = 1e13, 1e15
            v1, v2 = float(self(p1)), float(self(p2))
            if INF in (v1, v2):
                return INF
            if v1 > 0.0 and v2 > 0.0:
                if math.log(v2 / v1) / math.log(p2 / p1) >= -1.0 - 1e-9:
                    return INF
            elif v2 > 0.0 and v1 == 0.0:
                return INF
        return _quad_log(self, a, b)

    def _samples(self, a: float, b: float, n: int = 49) -> np.ndarray:
        lo = max(a, 1e-16)
        hi = min(b, 1e16)
        if lo >= hi:
            lo = hi / 2.0
        return np.geomspace(lo, hi, n)

    def sup_on_interval(self, a: float, b: float) -> float:
        ts = self._samples(a, b)
        vals = self(ts)
        m = float(np.max(vals))
        # growth toward an open boundary => +inf
        if a == 0.0 and vals[0] >= m and vals[0] > 1.5 * vals[min(4, len(vals) - 1)] > 0:
            return INF
        if b == INF and vals[-1] >= m and vals[-1] > 1.5 * vals[max(-5, -len(vals))] > 0:
            return INF
        return m


# ---------------------------------------------------------------------------
# constructors / parsing
# ---------------------------------------------------------------------------


def _real(x, name: str) -> float:
    """``x`` as a float, where it is a JSON number: an int or a float, but not
    a bool or a numeric string, which ``float()`` would take."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:  # an integer past the float range
        raise ValueError(f"{name} must be a real number in the float range") from None


def parse_weight(obj) -> Weight:
    """Build a Weight from its JSON literal form."""
    if isinstance(obj, Weight):
        return obj
    if isinstance(obj, (int, float)):  # a bool too, which _real rejects
        return PowerWeight(_real(obj, "a bare-number weight"), 0.0)
    if not isinstance(obj, dict) or "form" not in obj:
        raise ValueError(f"not a weight literal: {obj!r}")
    form = obj["form"]
    if form == "power":
        return PowerWeight(_real(obj["c"], "c"), _real(obj["alpha"], "alpha"))
    if form == "powerexp":
        return PowerWeight(_real(obj["c"], "c"), _real(obj["alpha"], "alpha"),
                           _real(obj["lambda"], "lambda"))
    if form == "genpower":
        return PowerWeight(
            _real(obj["c"], "c"),
            _real(obj["alpha"], "alpha"),
            _real(obj.get("lambda", 0.0), "lambda"),
            _real(obj.get("mu", 0.0), "mu"),
        )
    if form == "piecewise":
        segs = tuple(PowerWeight(_real(s["c"], "c"), _real(s["alpha"], "alpha"))
                     for s in obj["segments"])
        return PiecewisePowerWeight(tuple(_real(k, "a knot") for k in obj["knots"]), segs)
    if form == "table":
        return TabulatedWeight(tuple(_real(x, "a t sample") for x in obj["t"]),
                               tuple(_real(x, "a y sample") for x in obj["y"]))
    raise ValueError(f"unknown weight form: {form!r}")


def weight_mul(a: Weight, b: Weight) -> Weight:
    if isinstance(a, PowerWeight) and isinstance(b, PowerWeight):
        return PowerWeight(xmul(a.c, b.c), a.alpha + b.alpha, a.lam + b.lam, a.mu + b.mu)
    return FuncWeight(_Derived(_mul, (a, b)))


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponents:
    """Lebesgue exponents (p, q) with the derived quantities p' and r."""

    p: float
    q: float

    def __post_init__(self) -> None:
        p, q = float(self.p), float(self.q)
        if not (0.0 < p <= INF) or not (0.0 < q <= INF) or math.isnan(p) or math.isnan(q):
            raise ValueError("exponents must lie in (0, oo]")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def pprime(self) -> float:
        return conjugate(self.p)

    @property
    def r(self) -> float:
        """1/r = 1/q - 1/p, defined for q < p."""
        if self.q >= self.p:
            raise ValueError("r is defined only for q < p")
        return 1.0 / (1.0 / self.q - (0.0 if self.p == INF else 1.0 / self.p))

    @property
    def regime(self) -> str:
        p, q = self.p, self.q
        if p < 1.0:
            band = "p<1"
        elif p == 1.0:
            band = "p=1"
        else:
            band = "1<p"
        order = "p<=q" if p <= q else "q<p"
        return f"{band},{order}"


def conjugate(p: float) -> float:
    """Hoelder conjugate p' with 1/p + 1/p' = 1 (p >= 1; p=1 -> inf)."""
    if p < 1.0:
        raise ValueError("conjugate exponent defined for p >= 1")
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


def _check_side(side: str) -> None:
    if side not in ("low", "up"):
        raise ValueError(f"side must be 'low' or 'up', got {side!r}")


def cumulative(w: Weight, side: str) -> Weight:
    """t -> int_0^t w (side "low") or int_t^oo w (side "up") as a weight:
    ``c/|alpha+1| t**(alpha+1)`` for a plain power whose cumulative is
    finite, else one cumulative of ``w`` per point."""
    _check_side(side)
    if isinstance(w, PowerWeight) and w.lam == 0.0 and w.mu == 0.0:
        a1 = w.alpha + 1.0
        if (a1 > 0.0) if side == "low" else (a1 < 0.0):
            return PowerWeight(w.c / abs(a1), a1)
    return FuncWeight(_Derived(_cum, (w, side)))


def running_sup(w: Weight, side: str) -> Weight:
    """t -> esssup of w over (0, t] (side "low") or [t, oo) (side "up") as a
    weight: ``w.sup_on_intervals`` at the points, one array pass for a
    ``PowerWeight``."""
    _check_side(side)
    return FuncWeight(_Derived(_running_sup, (w, side)))

