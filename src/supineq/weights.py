"""Weight functions on (0, oo) and their exact/numeric calculus.

A *weight* is a measurable function w : (0, oo) -> [0, oo].  This module
provides a small closed family of symbolic forms

  * ``PowerWeight``        c * t**alpha * exp(-lam*t - mu/t)
                           (plain powers: lam = mu = 0; power-exponential:
                           mu = 0)
  * ``PiecewisePowerWeight`` pure power laws between knots
  * ``TabulatedWeight``    log-linear interpolation of samples, constant
                           extension outside the sample range
  * ``FuncWeight``         arbitrary callable (used for derived weights)

together with the operations the inequality criteria need:

  * pointwise evaluation (array-capable),
  * one-sided cumulatives ``int_0^t w`` / ``int_t^oo w`` with +inf as a
    valid, analytically detected answer,
  * essential sup / inf over intervals (exact for the symbolic forms),
  * the conjugate-integral quantity ``sigma_p``,
  * running envelopes (``running_sup``),
  * the substitution t -> 1/t with a Jacobian power (``dual_substitute``),
  * the level/defect transforms ``phi_weights`` / ``psi_weights``.

All scalar results follow the extended arithmetic of :mod:`supineq.extreal`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import integrate as _sint
from scipy import special as _sp

from .extreal import INF, xdiv, xpow

__all__ = [
    "Weight",
    "PowerWeight",
    "PiecewisePowerWeight",
    "TabulatedWeight",
    "FuncWeight",
    "Exponents",
    "conjugate",
    "parse_weight",
    "weight_pow",
    "weight_scale",
    "weight_mul",
    "sigma_p",
    "running_sup",
    "dual_substitute",
    "phi_weights",
    "psi_weights",
]


def _quad_log(w: "Weight", a: float, b: float) -> float:
    """Adaptive quadrature of ``w`` over (a, b) in (0, oo), on the log axis."""
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
        val, _err = _sint.quad(g, lo, hi, epsabs=1e-300, epsrel=1e-10, limit=400)
    return max(val, 0.0)


def _interval_mass(w: "Weight", a: float, b: float, la: float, lb: float) -> float:
    """``int_a^b w`` for 0 < a < b < oo, given ``la``/``lb`` = ``w.cum_low``
    at a and b: the difference of lower cumulatives when ``lb`` is finite
    (a NaN falls through), else of upper ones, else quadrature.  ``w.cum_up``
    is called only on that second branch, at b only when it is finite at a."""
    if lb < INF:
        return max(lb - la, 0.0)
    ua = w.cum_up(a)
    if ua < INF:
        return max(ua - w.cum_up(b), 0.0)
    return _quad_log(w, a, b)


def _power_int(c: float, alpha: float, a: float, b: float) -> float:
    """Exact ``int_a^b c t**alpha dt`` for 0 < a <= b < oo (alpha = -1 ok)."""
    if c == 0.0 or a == b:
        return 0.0
    if alpha == -1.0:
        return c * math.log(b / a)
    e = alpha + 1.0
    return c * (b ** e - a ** e) / e


class Weight:
    """Base class; subclasses implement the abstract hooks."""

    # -- evaluation --------------------------------------------------------
    def __call__(self, t):  # pragma: no cover - abstract
        raise NotImplementedError

    # -- limits at the boundary (in [0, inf]) ------------------------------
    def limit0(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def limit_inf(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- cumulatives --------------------------------------------------------
    def cum_low(self, t: float) -> float:
        """``int_0^t w``, +inf when the integral diverges at 0."""
        raise NotImplementedError

    def cum_up(self, t: float) -> float:
        """``int_t^oo w``, +inf when the integral diverges at oo."""
        raise NotImplementedError

    def total(self) -> float:
        lo = self.cum_low(1.0)
        if lo == INF:
            return INF
        return lo + self.cum_up(1.0)

    def integrate(self, a: float, b: float) -> float:
        """``int_a^b w`` with 0 <= a <= b <= oo (finite for 0 < a <= b < oo)."""
        if a == b:
            return 0.0
        if a == 0.0:
            return self.cum_low(b) if b < INF else self.total()
        if b == INF:
            return self.cum_up(a)
        return _interval_mass(self, a, b, self.cum_low(a), self.cum_low(b))

    def _scalar(self, t: float) -> float:
        """``float(self(t))`` for one float t; the integrand of ``_quad_log``,
        which calls it under ``np.errstate(all="ignore")``."""
        return float(self(t))

    # -- interval extremes ---------------------------------------------------
    def sup_on_interval(self, a: float, b: float) -> float:
        raise NotImplementedError

    def inf_on_interval(self, a: float, b: float) -> float:
        raise NotImplementedError

    # -- algebra --------------------------------------------------------------
    def power(self, e: float) -> "Weight":
        return FuncWeight(_PowClosure(self, e), label=f"({self})**{e}")

    def scale(self, c: float) -> "Weight":
        return FuncWeight(_ScaleClosure(self, c), label=f"{c}*({self})")

    def dual(self, jacobian_exponent: float) -> "Weight":
        """The substituted weight ``t -> w(1/t) * (1/t**2)**e``."""
        return FuncWeight(
            _DualClosure(self, jacobian_exponent),
            label=f"dual[{jacobian_exponent}]({self})",
        )

    def to_json(self) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError


# .. picklable closures for derived FuncWeights ..............................


@dataclass(frozen=True)
class _PowClosure:
    base: Weight
    e: float

    def __call__(self, t):
        from .extreal import apow

        return apow(self.base(t), self.e)


@dataclass(frozen=True)
class _ScaleClosure:
    base: Weight
    c: float

    def __call__(self, t):
        from .extreal import amul

        return amul(self.c, self.base(t))


@dataclass(frozen=True)
class _DualClosure:
    base: Weight
    e: float

    def __call__(self, t):
        from .extreal import amul, apow

        t = np.asarray(t, dtype=float)
        inv = np.where(t > 0.0, 1.0 / t, INF)
        return amul(self.base(inv), apow(inv, 2.0 * self.e))


@dataclass(frozen=True)
class _MulClosure:
    a: Weight
    b: Weight

    def __call__(self, t):
        from .extreal import amul

        return amul(self.a(t), self.b(t))


@dataclass(frozen=True)
class _RunningSupClosure:
    base: Weight
    from_right: bool

    def __call__(self, t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if self.from_right:
            out = np.array([self.base.sup_on_interval(x, INF) for x in ts])
        else:
            out = np.array([self.base.sup_on_interval(0.0, x) for x in ts])
        return out if np.ndim(t) else float(out[0])


@dataclass(frozen=True)
class PowerWeight(Weight):
    """``c * t**alpha * exp(-lam*t - mu/t)`` with c >= 0, lam >= 0, mu >= 0."""

    c: float
    alpha: float
    lam: float = 0.0
    mu: float = 0.0

    def __post_init__(self) -> None:
        if self.c < 0 or self.lam < 0 or self.mu < 0:
            raise ValueError("PowerWeight requires c, lam, mu >= 0")

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
        # the ufuncs of __call__, on a float: bit-equal to float(self(t))
        if not t > 0.0:
            return 0.0
        out = self.c * np.exp(self.alpha * np.log(t) - self.lam * t - self.mu / t)
        return 0.0 if np.isnan(out) else float(out)

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
        if self.c == 0.0 or a > b:
            return 0.0
        t_star = self.argmax()
        t_eval = min(max(t_star, a), b)
        if t_eval == 0.0:
            return self.limit0()
        if t_eval == INF:
            return self.limit_inf()
        return float(self(t_eval))

    def inf_on_interval(self, a: float, b: float) -> float:
        if self.c == 0.0:
            return 0.0
        # unimodal => infimum at an endpoint
        va = self.limit0() if a == 0.0 else float(self(a))
        vb = self.limit_inf() if b == INF else float(self(b))
        return min(va, vb)

    # -- cumulatives --------------------------------------------------------------
    def cum_low(self, t: float) -> float:
        if self.c == 0.0 or t == 0.0:
            return 0.0
        if t == INF:
            return self.total()
        if self.mu == 0.0:
            a1 = self.alpha + 1.0
            if a1 <= 0.0:
                return INF
            if self.lam == 0.0:
                return self.c * t ** a1 / a1
            return float(
                self.c * self.lam ** (-a1) * _sp.gamma(a1) * _sp.gammainc(a1, self.lam * t)
            )
        # mu > 0: always convergent at zero
        return _quad_log(self, 0.0, t)

    def cum_up(self, t: float) -> float:
        if self.c == 0.0 or t == INF:
            return 0.0
        if self.lam == 0.0 and self.alpha >= -1.0:
            return INF
        if t == 0.0:
            return self.total()
        if self.mu == 0.0:
            a1 = self.alpha + 1.0
            if self.lam == 0.0:
                return -self.c * t ** a1 / a1
            if a1 > 0.0:
                return float(
                    self.c * self.lam ** (-a1) * _sp.gamma(a1) * _sp.gammaincc(a1, self.lam * t)
                )
        return _quad_log(self, t, INF)

    def total(self) -> float:
        if self.c == 0.0:
            return 0.0
        if self.lam == 0.0 and self.alpha >= -1.0:
            return INF
        if self.mu == 0.0 and self.alpha <= -1.0:
            return INF
        if self.mu == 0.0:
            a1 = self.alpha + 1.0
            return float(self.c * self.lam ** (-a1) * _sp.gamma(a1))
        return _quad_log(self, 0.0, INF)

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
        return FuncWeight(_PowClosure(self, e), label=f"({self})**{e}")

    def scale(self, k: float) -> "PowerWeight":
        return PowerWeight(self.c * k, self.alpha, self.lam, self.mu)

    def dual(self, jacobian_exponent: float) -> "PowerWeight":
        # w(1/t) (1/t^2)^e = c t^{-alpha - 2e} e^{-mu t - lam/t}
        return PowerWeight(
            self.c, -self.alpha - 2.0 * jacobian_exponent, self.mu, self.lam
        )

    def to_json(self) -> dict:
        if self.mu == 0.0 and self.lam == 0.0:
            return {"form": "power", "c": self.c, "alpha": self.alpha}
        if self.mu == 0.0:
            return {"form": "powerexp", "c": self.c, "alpha": self.alpha, "lambda": self.lam}
        return {
            "form": "genpower",
            "c": self.c,
            "alpha": self.alpha,
            "lambda": self.lam,
            "mu": self.mu,
        }


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
        if any(k <= 0 for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("knots must be positive and strictly increasing")
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

    def limit0(self) -> float:
        return self.segments[0].limit0()

    def limit_inf(self) -> float:
        return self.segments[-1].limit_inf()

    def _bounds(self, i: int) -> tuple:
        lo = 0.0 if i == 0 else self.knots[i - 1]
        hi = INF if i == len(self.knots) else self.knots[i]
        return lo, hi

    def cum_low(self, t: float) -> float:
        if t == 0.0:
            return 0.0
        first = self.segments[0]
        if first.c > 0.0 and first.alpha <= -1.0:
            return INF
        acc = 0.0
        for i, seg in enumerate(self.segments):
            lo, hi = self._bounds(i)
            if lo >= t:
                break
            b = min(hi, t)
            if i == 0:
                acc += seg.cum_low(b)
            else:
                acc += _power_int(seg.c, seg.alpha, lo, b)
            if b == t:
                break
        return acc

    def cum_up(self, t: float) -> float:
        last = self.segments[-1]
        if last.c > 0.0 and last.alpha >= -1.0:
            return INF
        acc = 0.0
        for i, seg in enumerate(self.segments):
            lo, hi = self._bounds(i)
            if hi <= t:
                continue
            a = max(lo, t)
            if hi == INF:
                acc += seg.cum_up(a)
            elif a == 0.0:
                acc += seg.cum_low(hi)
            else:
                acc += _power_int(seg.c, seg.alpha, a, hi)
            if acc == INF:
                return INF
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

    def inf_on_interval(self, a: float, b: float) -> float:
        best = INF
        for i, seg in enumerate(self.segments):
            lo, hi = self._bounds(i)
            aa, bb = max(lo, a), min(hi, b)
            if aa < bb:
                best = min(best, seg.inf_on_interval(aa, bb))
        return best

    def power(self, e: float) -> "PiecewisePowerWeight":
        return PiecewisePowerWeight(self.knots, tuple(s.power(e) for s in self.segments))

    def scale(self, k: float) -> "PiecewisePowerWeight":
        return PiecewisePowerWeight(self.knots, tuple(s.scale(k) for s in self.segments))

    def dual(self, jacobian_exponent: float) -> "PiecewisePowerWeight":
        new_knots = tuple(1.0 / k for k in reversed(self.knots))
        new_segs = tuple(s.dual(jacobian_exponent) for s in reversed(self.segments))
        return PiecewisePowerWeight(new_knots, new_segs)

    def to_json(self) -> dict:
        return {
            "form": "piecewise",
            "knots": list(self.knots),
            "segments": [{"c": s.c, "alpha": s.alpha} for s in self.segments],
        }


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
        if np.any(ts <= 0) or np.any(np.diff(ts) <= 0):
            raise ValueError("t must be positive and strictly increasing")
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

    def _scalar(self, t: float) -> float:
        # the ufuncs of __call__, on a float: bit-equal to float(self(t))
        logt, logy = self._logs
        out = np.exp(np.interp(np.log(t if t > 0 else self.t[0]), logt, logy))
        return 0.0 if out < 1e-290 or t <= 0.0 else float(out)

    def limit0(self) -> float:
        return float(self.y[0])

    def limit_inf(self) -> float:
        return float(self.y[-1])

    def _segment_mass(self) -> np.ndarray:
        ts, ys = self._arrays()
        out = np.zeros(len(ts) - 1)
        for i in range(len(ts) - 1):
            a, b, ya, yb = ts[i], ts[i + 1], ys[i], ys[i + 1]
            if ya == 0.0 and yb == 0.0:
                continue
            if ya == 0.0 or yb == 0.0:
                out[i] = 0.5 * (ya + yb) * (b - a)  # linear fallback through zero
                continue
            beta = math.log(yb / ya) / math.log(b / a)
            out[i] = _power_int(ya / a ** beta, beta, a, b)
        return out

    def cum_low(self, t: float) -> float:
        ts, _ys = self._arrays()
        mass = self._segment_mass()
        if t <= ts[0]:
            return float(self.y[0]) * t
        head = float(self.y[0]) * ts[0]
        idx = int(np.searchsorted(ts, t, side="right")) - 1
        acc = head + float(mass[:idx].sum())
        if idx < len(ts) - 1 and t > ts[idx]:
            acc += _quad_log(self, ts[idx], min(t, ts[idx + 1]))
        elif t > ts[-1]:
            acc += float(self.y[-1]) * (t - ts[-1])
        return acc

    def cum_up(self, t: float) -> float:
        if self.y[-1] > 0.0:
            return INF
        ts, _ys = self._arrays()
        if t >= ts[-1]:
            return 0.0
        total = float(self.y[0]) * ts[0] + float(self._segment_mass().sum())
        return max(total - self.cum_low(t), 0.0)

    def sup_on_interval(self, a: float, b: float) -> float:
        ts, ys = self._arrays()
        cands = [float(self(max(a, 1e-300)))] if a > 0 else [float(ys[0])]
        cands.append(float(self(b)) if b < INF else float(ys[-1]))
        inside = (ts >= a) & (ts <= b)
        if np.any(inside):
            cands.append(float(ys[inside].max()))
        return max(cands)

    def inf_on_interval(self, a: float, b: float) -> float:
        ts, ys = self._arrays()
        cands = [float(self(max(a, 1e-300)))] if a > 0 else [float(ys[0])]
        cands.append(float(self(b)) if b < INF else float(ys[-1]))
        inside = (ts >= a) & (ts <= b)
        if np.any(inside):
            cands.append(float(ys[inside].min()))
        return min(cands)

    def power(self, e: float) -> "Weight":
        ys = np.asarray(self.y)
        if e < 0 and np.any(ys == 0.0):
            return FuncWeight(_PowClosure(self, e), label=f"table**{e}")
        return TabulatedWeight(self.t, tuple((ys ** e).tolist()))

    def scale(self, k: float) -> "TabulatedWeight":
        return TabulatedWeight(self.t, tuple((np.asarray(self.y) * k).tolist()))

    def dual(self, jacobian_exponent: float) -> "TabulatedWeight":
        ts, ys = self._arrays()
        new_t = (1.0 / ts)[::-1]
        new_y = (ys * (1.0 / ts) ** (-2.0 * jacobian_exponent))[::-1]
        return TabulatedWeight(tuple(new_t.tolist()), tuple(new_y.tolist()))

    def to_json(self) -> dict:
        return {"form": "table", "t": list(self.t), "y": list(self.y)}


@dataclass(frozen=True)
class FuncWeight(Weight):
    """Callable-backed weight for derived quantities (envelopes, transforms)."""

    fn: Callable
    label: str = "func"

    def __call__(self, t):
        scalar = np.ndim(t) == 0
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.asarray(self.fn(ts), dtype=float)
        if out.shape != ts.shape:
            out = np.array([float(self.fn(x)) for x in ts])
        out = np.where(np.isnan(out), 0.0, np.maximum(out, 0.0))
        return float(out[0]) if scalar else out

    def limit0(self) -> float:
        probes = self(np.array([1e-14, 1e-13, 1e-12]))
        if probes[0] > probes[2] * 1.5 and probes[0] > 0:
            return INF
        return float(probes[0])

    def limit_inf(self) -> float:
        probes = self(np.array([1e12, 1e13, 1e14]))
        if probes[2] > probes[0] * 1.5 and probes[2] > 0:
            return INF
        return float(probes[2])

    def cum_low(self, t: float) -> float:
        if t == 0.0:
            return 0.0
        p1, p2 = 1e-13, 1e-15
        v1, v2 = float(self(p1)), float(self(p2))
        if v1 > 0.0 and v2 > 0.0:
            slope = math.log(v2 / v1) / math.log(p2 / p1)
            if slope <= -1.0 + 1e-9:
                return INF
        return _quad_log(self, 0.0, min(t, INF)) if t < INF else self.total()

    def cum_up(self, t: float) -> float:
        p1, p2 = 1e13, 1e15
        v1, v2 = float(self(p1)), float(self(p2))
        if v1 > 0.0 and v2 > 0.0:
            slope = math.log(v2 / v1) / math.log(p2 / p1)
            if slope >= -1.0 - 1e-9:
                return INF
        elif v2 > 0.0 and v1 == 0.0:
            return INF
        return _quad_log(self, t, INF)

    def total(self) -> float:
        lo = self.cum_low(1.0)
        return INF if lo == INF else lo + self.cum_up(1.0)

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

    def inf_on_interval(self, a: float, b: float) -> float:
        return float(np.min(self(self._samples(a, b))))

    def to_json(self) -> dict:
        raise TypeError("derived weights have no JSON literal form")


# ---------------------------------------------------------------------------
# constructors / parsing
# ---------------------------------------------------------------------------


def parse_weight(obj) -> Weight:
    """Build a Weight from its JSON literal form."""
    if isinstance(obj, Weight):
        return obj
    if isinstance(obj, (int, float)):
        return PowerWeight(float(obj), 0.0)
    if not isinstance(obj, dict) or "form" not in obj:
        raise ValueError(f"not a weight literal: {obj!r}")
    form = obj["form"]
    if form == "power":
        return PowerWeight(float(obj["c"]), float(obj["alpha"]))
    if form == "powerexp":
        return PowerWeight(float(obj["c"]), float(obj["alpha"]), float(obj["lambda"]))
    if form == "genpower":
        return PowerWeight(
            float(obj["c"]),
            float(obj["alpha"]),
            float(obj.get("lambda", 0.0)),
            float(obj.get("mu", 0.0)),
        )
    if form == "piecewise":
        segs = tuple(PowerWeight(float(s["c"]), float(s["alpha"])) for s in obj["segments"])
        return PiecewisePowerWeight(tuple(float(k) for k in obj["knots"]), segs)
    if form == "table":
        return TabulatedWeight(tuple(obj["t"]), tuple(obj["y"]))
    raise ValueError(f"unknown weight form: {form!r}")


def weight_pow(w: Weight, e: float) -> Weight:
    return w.power(e)


def weight_scale(w: Weight, c: float) -> Weight:
    return w.scale(c)


def weight_mul(a: Weight, b: Weight) -> Weight:
    if isinstance(a, PowerWeight) and isinstance(b, PowerWeight):
        return PowerWeight(a.c * b.c, a.alpha + b.alpha, a.lam + b.lam, a.mu + b.mu)
    return FuncWeight(_MulClosure(a, b), label="product")


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


def sigma_p(v: Weight, p: float, a: float, b: float) -> float:
    """``(int_a^b v^{1-p'})^{1/p'}`` for p > 1, ``esssup_(a,b) 1/v`` for p = 1."""
    if a > b:
        raise ValueError("need a <= b")
    if p == 1.0:
        return xdiv(1.0, v.inf_on_interval(a, b))
    pp = conjugate(p)
    vp = v.power(1.0 - pp)
    return xpow(vp.integrate(a, b), 1.0 / pp)


def running_sup(w: Weight, direction: str) -> Weight:
    """``up_to_t``: t -> esssup_{(0, t]} w; ``from_t``: t -> esssup_{[t, oo)} w."""
    if direction not in ("up_to_t", "from_t"):
        raise ValueError("direction must be 'up_to_t' or 'from_t'")
    if isinstance(w, TabulatedWeight):
        ys = np.asarray(w.y)
        env = np.maximum.accumulate(ys) if direction == "up_to_t" else np.maximum.accumulate(ys[::-1])[::-1]
        return TabulatedWeight(w.t, tuple(env.tolist()))
    return FuncWeight(
        _RunningSupClosure(w, direction == "from_t"),
        label=f"running_sup[{direction}]",
    )


def dual_substitute(w: Weight, jacobian_exponent: float) -> Weight:
    """The weight ``t -> w(1/t) * (1/t**2)**e`` appearing under x -> 1/x."""
    return w.dual(jacobian_exponent)


def phi_weights(v: Weight, p: float):
    """Level transform: returns (phi, Phi) with
    phi(x) = A(x)^{-p'/(p'+1)} v(x)^{1-p'},  Phi(x) = A(x)^{1/(p'+1)},
    where A(x) = int_0^x v^{1-p'}.  Requires A(x) in (0, oo) for all x."""
    if p <= 1.0:
        raise ValueError("phi transform requires p > 1")
    pp = conjugate(p)
    vp = v.power(1.0 - pp)
    if isinstance(vp, PowerWeight) and vp.lam == 0.0 and vp.mu == 0.0:
        a1 = vp.alpha + 1.0
        if a1 <= 0.0 or vp.c == 0.0:
            raise ValueError("level transform undefined: int_0^x v^{1-p'} not in (0, oo)")
        ca, ea = vp.c / a1, a1  # A(x) = ca x^ea
        phi = PowerWeight(ca ** (-pp / (pp + 1.0)) * vp.c, -ea * pp / (pp + 1.0) + vp.alpha)
        Phi = PowerWeight(ca ** (1.0 / (pp + 1.0)), ea / (pp + 1.0))
        return phi, Phi
    probe = vp.cum_low(1.0)
    if probe == INF or probe == 0.0:
        raise ValueError("level transform undefined: int_0^x v^{1-p'} not in (0, oo)")
    phi = FuncWeight(_PhiClosure(vp, pp, False), label="phi")
    Phi = FuncWeight(_PhiClosure(vp, pp, True), label="Phi")
    return phi, Phi


def psi_weights(v: Weight, p: float):
    """Mirror transform: (psi, Psi) with Psi(x) = (int_x^oo v^{1-p'})^{1/(p'+1)}
    and psi(x) = (int_x^oo v^{1-p'})^{-p'/(p'+1)} v(x)^{1-p'}."""
    if p <= 1.0:
        raise ValueError("psi transform requires p > 1")
    pp = conjugate(p)
    vp = v.power(1.0 - pp)
    if isinstance(vp, PowerWeight) and vp.lam == 0.0 and vp.mu == 0.0:
        a1 = vp.alpha + 1.0
        if a1 >= 0.0 or vp.c == 0.0:
            raise ValueError("mirror transform undefined: int_x^oo v^{1-p'} not in (0, oo)")
        ca, ea = -vp.c / a1, a1  # A*(x) = ca x^ea
        psi = PowerWeight(ca ** (-pp / (pp + 1.0)) * vp.c, -ea * pp / (pp + 1.0) + vp.alpha)
        Psi = PowerWeight(ca ** (1.0 / (pp + 1.0)), ea / (pp + 1.0))
        return psi, Psi
    probe = vp.cum_up(1.0)
    if probe == INF or probe == 0.0:
        raise ValueError("mirror transform undefined: int_x^oo v^{1-p'} not in (0, oo)")
    psi = FuncWeight(_PsiClosure(vp, pp, False), label="psi")
    Psi = FuncWeight(_PsiClosure(vp, pp, True), label="Psi")
    return psi, Psi


@dataclass(frozen=True)
class _PhiClosure:
    vp: Weight
    pp: float
    upper_part: bool  # True -> Phi, False -> phi

    def __call__(self, t):
        from .extreal import amul, apow

        ts = np.atleast_1d(np.asarray(t, dtype=float))
        A = np.array([self.vp.cum_low(x) for x in ts])
        if self.upper_part:
            out = apow(A, 1.0 / (self.pp + 1.0))
        else:
            out = amul(apow(A, -self.pp / (self.pp + 1.0)), self.vp(ts))
        return out if np.ndim(t) else float(out[0])


@dataclass(frozen=True)
class _PsiClosure:
    vp: Weight
    pp: float
    upper_part: bool

    def __call__(self, t):
        from .extreal import amul, apow

        ts = np.atleast_1d(np.asarray(t, dtype=float))
        A = np.array([self.vp.cum_up(x) for x in ts])
        if self.upper_part:
            out = apow(A, 1.0 / (self.pp + 1.0))
        else:
            out = amul(apow(A, -self.pp / (self.pp + 1.0)), self.vp(ts))
        return out if np.ndim(t) else float(out[0])
