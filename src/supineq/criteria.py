"""Integral/supremal criteria characterizing the boundedness of the operators.

Each criterion function evaluates, for a concrete choice of weights and
Lebesgue exponents, the finite collection of constants (``A``/``B`` terms
plus possibly a unit term) whose sum is equivalent - with constants
depending only on p and q - to the best constant ``c`` of the corresponding
weighted inequality.  The result records every term, the regime that was
dispatched, the hypothesis checks, and whether the total is finite
(``+inf`` is a meaningful answer: the inequality fails).

Numerics: all terms are computed on a fixed symmetric logarithmic grid
``[1e-12, 1e12]`` via the trapezoid rule in log space; boundary divergence
of integrals and suprema is classified from decade-block trends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from typing import Dict, Optional, Tuple

import numpy as np

from .extreal import INF, _adiv, _amul, _apow, xdiv, xmul, xpow
from .operators import OperatorKind, power_substitution
from .weights import (
    Exponents,
    PiecewisePowerWeight,
    PowerWeight,
    TabulatedWeight,
    Weight,
    conjugate,
    running_sup,
    weight_mul,
)

__all__ = [
    "CritCtx",
    "InequalitySpec",
    "CriterionResult",
    "TheoremInapplicable",
    "evaluate_criterion",
    "crit_tub",
]


class TheoremInapplicable(Exception):
    """Raised when a theorem's hypotheses fail for the given weights."""

    def __init__(self, predicate: str, report: Optional[dict] = None):
        super().__init__(f"hypothesis failed: {predicate}")
        self.predicate = predicate
        self.report = report or {}


@dataclass(frozen=True)
class InequalitySpec:
    """One weighted inequality: operator, input cone, weights, exponents."""

    kind: OperatorKind
    cone: str
    v: Weight
    w: Weight
    exps: Exponents

    def __post_init__(self) -> None:
        if self.cone not in ("non_increasing", "non_decreasing", "none"):
            raise ValueError(f"unknown cone {self.cone!r}")


@dataclass(frozen=True)
class CriterionResult:
    theorem_id: str
    regime: str
    terms: Dict[str, float]
    total: float
    finite: bool
    hypothesis_report: Dict[str, bool]
    flags: Tuple[str, ...] = ()


# the criteria's memo: at most 256 keys of one or two arrays of the grid
# (values, w·t, a derived array, T4.1's Phi with its G, or an integral's two
# sides), 19.7 MB at the default 4,801 knots; a cold criteria-sweep pass with
# its known answers holds 189 keys, a cold pass of the other workloads fewer
_MEMO_SIZE = 256


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _knots(lo: float, hi: float, n: int) -> np.ndarray:
    return _frozen(np.geomspace(lo, hi, n))


@lru_cache(maxsize=_MEMO_SIZE)
def _memo(args: tuple, fn, *key):
    """``fn(CritCtx(*args), *key)``, each array of it read-only and an
    integral settled: the one memo of the criteria, for the whole process,
    keyed by value (weights are frozen dataclasses, hashable by
    construction, so equal constructions hash alike)."""
    out = fn(CritCtx(*args), *key)
    if isinstance(out, IntSet):
        return out.settled()
    for a in out if isinstance(out, tuple) else (out,):
        _frozen(a)
    return out


class IntSet:
    """``int F w`` on the evaluation grid: the boundary divergence flags,
    and the total and the one-sided cumulatives, each summed on first access
    (most integrals are read on one side only), the cumulatives named by
    their side: ``low`` over (0, t], ``up`` over [t, oo)."""

    def __init__(self, c: np.ndarray, head: float, tail: float, div0: bool, divinf: bool):
        self._c, self._head, self._tail = c, head, tail
        self.div0, self.divinf = div0, divinf

    @cached_property
    def total(self) -> float:
        return self._head + float(np.sum(self._c)) + self._tail

    @cached_property
    def low(self) -> np.ndarray:
        """low[i] ~ int_0^{t_i} F w"""
        return self._running(self.div0, self._head, slice(None))

    @cached_property
    def up(self) -> np.ndarray:
        """up[i] ~ int_{t_i}^oo F w"""
        return self._running(self.divinf, self._tail, slice(None, None, -1))

    def _running(self, div: bool, beyond: float, order: slice) -> np.ndarray:
        """The running sum of the trapezoid masses from one end, read in
        ``order`` from it: 0 at that end's knot, plus ``beyond``, the mass
        past that knot; +inf throughout where that end diverges."""
        if div:
            return np.full(len(self._c) + 1, INF)
        out = np.empty(len(self._c) + 1)
        run = out[order]
        run[0] = 0.0
        np.cumsum(self._c[order], out=run[1:])
        out += beyond
        return out

    def settled(self) -> "IntSet":
        """This set with the total and both sides summed, the sides
        read-only, and the trapezoid masses dropped: the form a memo keeps."""
        self.total  # summed before the masses go
        _frozen(self.low)
        _frozen(self.up)
        self._c = None
        return self


class CritCtx:
    """Numerical context: log grid, quadrature, envelopes, suprema.

    Contexts with equal ``(lo, hi, per_decade)`` (``args``) share the
    read-only knot array ``t`` and every array of the criteria's one memo,
    ``_memo``, which keeps the ``_MEMO_SIZE`` most recently used keys
    ``(args, fn, *key)`` for the whole process.  Each key names a function
    of this module and the weights and exponents it reads: a weight's values
    (``vals``, key ``_vals``), the product w·t that ``int_set`` integrates
    (``_measure``), and the integral of the weight alone (``int_w``,
    ``_integral``, which integrates w·t without keeping it); and the arrays
    of the criteria that do not read w (``derived``): T5.1's rho (u, b), eta
    (u, v), g1 (b, v, p) and g2 (v, p), which T5.3 reaches through its power
    substitution, and T4.1/T4.3's Phi with its G (v, side, p).

    ``int_set``, ``int_w``, ``sup`` and ``env_arr`` run in the caller's
    ``np.errstate``, as ``OperatorKernel.apply`` does: each criterion
    function holds one ``np.errstate(all="ignore")`` around all of its
    arithmetic, which uses ``extreal``'s raw kernels (one per convention),
    and enters none per product.  ``int_set`` reads ``F`` and writes into no
    array it is given.

    One side vocabulary runs through this module: ``"low"`` is (0, x] and
    ``"up"`` is [x, oo).  It names the cumulatives of ``IntSet``, the
    envelopes of ``env_arr``/``env_weight``, the hypothesis checks, and the
    side of each mirror-pair criterion: the side where its supremal
    operator looks, "low" for S_u and "up" for S*_u."""

    def __init__(self, lo: float = 1e-12, hi: float = 1e12, per_decade: int = 200):
        n = int(round(math.log10(hi / lo) * per_decade)) + 1
        if n - 1 < 3 * per_decade:
            raise ValueError("the grid must span at least three decades: "
                             "divergence is read from three decade blocks at each end")
        self.args = (lo, hi, per_decade)
        self.t = _knots(lo, hi, n)
        self.h = math.log(hi / lo) / (n - 1)
        self.m = per_decade

    # -- pointwise values ----------------------------------------------------
    def vals(self, w: Weight) -> np.ndarray:
        """``w`` on the grid, read-only; shared by every context on this grid."""
        return _memo(self.args, _vals, w)

    # -- integration ------------------------------------------------------------
    def integrate(self, g: np.ndarray) -> "IntSet":
        """``int g dt/t`` by the trapezoid rule in log t, with the boundary
        divergence read from three decade blocks at each end."""
        c = np.add(g[:-1], g[1:])
        c *= 0.5 * self.h
        m = self.m
        b = c[:3 * m].reshape(3, m).sum(axis=1).tolist()  # decades from 0 outward
        e = c[-3 * m:].reshape(3, m).sum(axis=1)[::-1].tolist()  # decades from oo inward
        div0 = _diverging(b)
        divinf = _diverging(e)
        head = INF if div0 else _geom_tail(b)
        tail = INF if divinf else _geom_tail(e)
        return IntSet(c, head, tail, div0, divinf)

    def int_set(self, F: np.ndarray, w: Weight) -> IntSet:
        """``int F w`` on the grid; ``F`` is read, not written."""
        return self.integrate(_amul(F, _memo(self.args, _measure, w)))

    def int_w(self, w: Weight) -> IntSet:
        """``int_set`` of ``w`` alone (F = 1), both sides summed and
        read-only, kept in the memo."""
        return _memo(self.args, _integral, w)

    # -- suprema with boundary classification --------------------------------------
    def sup(self, vals: np.ndarray) -> Tuple[float, Optional[str]]:
        """The maximum of ``vals`` (in [0, oo], no NaN) and a boundary flag.

        An array holding +inf reads +inf and an all-zero one 0, unflagged.
        Otherwise, where the first maximum lies within 2m points (two
        decades) of an end and that end's value is the maximum to a relative
        1e-12, the end value is divided by the value 2m points inward: a
        ratio above 1.5 reads +inf ("sup-divergent-left"/"-right"), one
        above 1.05 keeps the maximum and flags it
        ("sup-uncertain-left"/"-right").  One ``argmax`` finds the maximum;
        on [0, oo] with no NaN it is +inf exactly where an entry is."""
        v = np.asarray(vals, dtype=float)
        am = int(np.argmax(v))
        mval = float(v[am])
        if mval == INF:
            return INF, None
        if mval == 0.0:
            return 0.0, None
        n, reach = len(v), 2 * self.m
        flag = None
        for side, end, inward in (("left", 0, reach), ("right", n - 1, n - 1 - reach)):
            if abs(am - end) <= reach and v[end] >= mval * (1.0 - 1e-12):
                ratio = xdiv(v[end], v[inward])
                if ratio > 1.5:
                    return INF, "sup-divergent-" + side
                if ratio > 1.05:
                    flag = "sup-uncertain-" + side
        return mval, flag

    # -- envelopes ---------------------------------------------------------------------
    def env_arr(self, vals: np.ndarray, side: str) -> np.ndarray:
        """Running sup of grid values over (0, t] ("low") / [t, oo) ("up")."""
        v = np.asarray(vals, dtype=float)
        if side == "low":
            return np.maximum.accumulate(v)
        return np.maximum.accumulate(v[::-1])[::-1]

    def env_weight(self, w: Weight, side: str) -> np.ndarray:
        """``running_sup(w, side)`` on the grid: sup over (0, t] ("low") /
        [t, oo) ("up"), read-only and memoised like ``vals``."""
        return self.vals(running_sup(w, side))

    # -- w-independent arrays ---------------------------------------------------------
    def derived(self, fn, *key):
        """``fn(ctx, *key)`` on this grid, each array of it read-only and kept
        in the memo under ``fn`` and ``key``: ``key`` holds every weight and
        exponent ``fn`` reads, so equal keys give equal arrays."""
        return _memo(self.args, fn, *key)


def _vals(ctx: CritCtx, w: Weight) -> np.ndarray:
    return np.array(w(ctx.t), dtype=float)


def _measure(ctx: CritCtx, w: Weight) -> np.ndarray:
    """w·t, the weight as a measure on the grid's dt/t."""
    return _amul(ctx.vals(w), ctx.t)


def _integral(ctx: CritCtx, w: Weight) -> IntSet:
    """The integral of ``w`` alone, of a w·t it does not keep."""
    return ctx.integrate(_amul(ctx.vals(w), ctx.t))


def _diverging(blocks) -> bool:
    b0, b1, b2 = blocks
    if not math.isfinite(b0) or not math.isfinite(b1) or not math.isfinite(b2):
        return True
    if b0 <= 0.0:
        return False
    if b1 <= 0.0 or b2 <= 0.0:
        return False
    return min(b0 / b1, b1 / b2) >= 0.98


def _geom_tail(blocks) -> float:
    b0, b1 = blocks[0], blocks[1]
    if b0 <= 0.0:
        return 0.0
    rho = min(b0 / b1 if b1 > 0.0 else 0.0, 0.95)
    return b0 * rho / (1.0 - rho) if rho > 0.0 else 0.0


# ---------------------------------------------------------------------------
# hypothesis predicates
# ---------------------------------------------------------------------------


_OTHER = {"low": "up", "up": "low"}
_STAR = {"low": "", "up": "*"}  # V = int_0^x v, V* = int_x^oo v


def _analytically_positive(w: Weight, side: str) -> Optional[bool]:
    """Whether w is provably positive on a neighbourhood of 0 ("low") / oo ("up")."""
    if isinstance(w, PowerWeight):
        return w.c > 0.0
    if isinstance(w, PiecewisePowerWeight):
        seg = w.segments[0] if side == "low" else w.segments[-1]
        return seg.c > 0.0
    if isinstance(w, TabulatedWeight):
        return (w.y[0] if side == "low" else w.y[-1]) > 0.0
    return None  # derived weight: undetermined


def _check_cum(ctx: CritCtx, weight: Weight, name: str, side: str, report: dict) -> IntSet:
    """Record the predicate ``0 < int weight < oo`` over (0, x] ("low") or
    [x, oo) ("up"), for all x.

    Positivity near the relevant boundary is decided analytically when the
    weight's symbolic form allows it (float underflow would otherwise report
    false zeros for rapidly decaying weights)."""
    iset = ctx.int_w(weight)
    low = side == "low"
    pos = _analytically_positive(weight, side)
    if pos is None:
        pos = bool((iset.low[-1] if low else iset.up[0]) > 0.0)
    report[f"0<{name}<oo"] = bool(not (iset.div0 if low else iset.divinf) and pos)
    return iset


def _require(report: dict) -> None:
    for pred, ok in report.items():
        if not ok:
            raise TheoremInapplicable(pred, report)


def _quiet(crit):
    """``crit`` under one ``np.errstate(all="ignore")``, around all of its
    arithmetic on the extended reals: the raw ``extreal`` kernels and the
    ``CritCtx`` methods inside it enter none of their own."""
    @wraps(crit)
    def run(*args, **kwargs):
        with np.errstate(all="ignore"):
            return crit(*args, **kwargs)
    return run


# ---------------------------------------------------------------------------
# the shared criterion core
# ---------------------------------------------------------------------------


def _core(ctx: CritCtx, w: Weight, p_eff: float, q_eff: float,
          Eq: np.ndarray, G: np.ndarray, side: str):
    """A/B terms shared by the whole criterion family.

    ``side == "low"``: I(x) = int_0^x Eq w,  Wmain = int_x^oo w, envelope over (0, x];
    ``side == "up"``:  I(x) = int_x^oo Eq w, Wmain = int_0^x w,  envelope over [x, oo).

    Returns the terms, the flags and ``int_set(Eq, w)``, whose ``total`` is
    the q-th power of the unit term's norm ||E||_{q,w} where Eq = E**q."""
    flags = []
    main = ctx.int_set(Eq, w)
    I = getattr(main, side)
    Wm = getattr(ctx.int_w(w), _OTHER[side])
    if p_eff <= q_eff:
        obj = _amul(Eq, Wm)
        obj += I
        _amul(_apow(obj, 1.0 / q_eff, out=obj), G, out=obj)
        val, fl = ctx.sup(obj)
        if fl:
            flags.append(fl)
        return {"A1": val}, flags, main
    r_eff = 1.0 / (1.0 / q_eff - 1.0 / p_eff)
    B1 = _b1(ctx, w, I, Eq, G, p_eff, r_eff)
    env = ctx.env_arr(_amul(_apow(Eq, 1.0 / q_eff), G), side)
    b2_igr = _amul(_apow(Wm, r_eff / p_eff), _apow(env, r_eff, out=env), out=env)
    B2 = xpow(ctx.int_set(b2_igr, w).total, 1.0 / r_eff)
    return {"B1": B1, "B2": B2}, flags, main


def _b1(ctx: CritCtx, w: Weight, I: np.ndarray, Eq: np.ndarray, G: np.ndarray,
        p: float, r: float) -> float:
    """The q < p term (int I^{r/p} Eq G^r w)^{1/r}, of ``_core`` and T5.1;
    ``I`` is overwritten."""
    igr = _amul(_apow(I, r / p, out=I), Eq, out=I)
    _amul(igr, _apow(G, r), out=igr)
    return xpow(ctx.int_set(igr, w).total, 1.0 / r)


def _finish(theorem_id: str, e: Exponents, terms: dict, report: dict,
            flags, root: float = 1.0, unit: Optional[float] = None) -> CriterionResult:
    out = {k: xpow(v, root) for k, v in terms.items()}
    if unit is not None:
        out["unit"] = unit
    total = 0.0
    for v in out.values():
        total = INF if v == INF else total + v
    return CriterionResult(
        theorem_id=theorem_id,
        regime=e.regime,
        terms=out,
        total=total,
        finite=total < INF,
        hypothesis_report=dict(report),
        flags=tuple(flags),
    )


def _norm_q(ctx: CritCtx, F: np.ndarray, w: Weight, q: float) -> float:
    return xpow(ctx.int_set(_apow(F, q), w).total, 1.0 / q)


def _sigma_arrays(ctx: CritCtx, v: Weight, p: float, side: str) -> np.ndarray:
    """sigma_p(0, x) (side="low") or sigma_p(x, oo) (side="up") on the grid."""
    if p == 1.0:
        return ctx.env_arr(_adiv(1.0, ctx.vals(v)), side)
    pp = conjugate(p)
    iset = ctx.int_w(v.power(1.0 - pp))
    return _apow(getattr(iset, side), 1.0 / pp)


# ---------------------------------------------------------------------------
# the w-independent arrays, each read through ``CritCtx.derived`` and kept in
# the memo under the weights and exponents it reads
# ---------------------------------------------------------------------------


def _t41_phi(ctx: CritCtx, v: Weight, side: str, p: float) -> tuple:
    """T4.1/T4.3's Phi = (int v^{1-p'} on ``side``)^{1/(p'+1)} and G = Phi^{-1/p}."""
    pp = conjugate(p)
    Phi = _apow(getattr(ctx.int_w(v.power(1.0 - pp)), side), 1.0 / (pp + 1.0))
    return Phi, _apow(Phi, -1.0 / p)


def _t51_rho(ctx: CritCtx, u: Weight, b: Weight) -> np.ndarray:
    """T5.1's rho = sup_{[x, oo)} u/B."""
    return ctx.env_arr(_adiv(ctx.vals(u), ctx.int_w(b).low), "up")


def _t51_eta(ctx: CritCtx, u: Weight, v: Weight) -> np.ndarray:
    """T5.1's eta = sup_{[x, oo)} u/V^2."""
    Vv2 = _apow(ctx.int_w(v).low, 2.0)
    return ctx.env_arr(_adiv(ctx.vals(u), Vv2, out=Vv2), "up")


def _t51_g1(ctx: CritCtx, b: Weight, v: Weight, p: float) -> np.ndarray:
    """T5.1's g1: (int_0^x (B/V)^{p'} v)^{1/p'} for p > 1, and
    sup_{(0, x]} B/V for p = 1."""
    BV = _adiv(ctx.int_w(b).low, ctx.int_w(v).low)
    if p == 1.0:
        return ctx.env_arr(BV, "low")
    pp = conjugate(p)
    g1 = ctx.int_set(_apow(BV, pp, out=BV), v).low
    return _apow(g1, 1.0 / pp, out=g1)


def _t51_g2(ctx: CritCtx, v: Weight, p: float) -> np.ndarray:
    """T5.1's g2 for p > 1: (int_0^x V^{p'} v)^{1/p'} (for p = 1 it is V)."""
    pp = conjugate(p)
    g2 = ctx.int_set(_apow(ctx.int_w(v).low, pp), v).low
    return _apow(g2, 1.0 / pp, out=g2)


# ---------------------------------------------------------------------------
# the mirror pairs: one function per pair, one side per theorem
# ---------------------------------------------------------------------------
#
# Each pair maps onto itself under x -> 1/x.  ``side`` is where the supremal
# operator looks: "low" for S_u, over (0, x], and "up" for S*_u, over
# [x, oo).  In every pair the w-hypothesis sits on the side opposite the
# integral of ``_core``.


@_quiet
def crit_T31_32(ctx: CritCtx, side: str, u: Weight, v: Weight, w: Weight, e: Exponents,
                verbatim: bool = False) -> CriterionResult:
    """T3.1 (side "up"): ||S*_u (int_0^x h)||_{q,w} <= c ||h||_{p,v}, and
    T3.2 (side "low"): ||S_u (int_x^oo h)||_{q,w} <= c ||h||_{p,v}, over
    nonnegative h (p >= 1).

    T3.2's default non-degeneracy condition is the one transported from the
    x -> 1/x substitution that derives it from T3.1:
    ``0 < int_x^oo v(s) s^{-2p} ds < oo``.  The literal printed condition
    ``0 < V* < oo`` (``verbatim=True``) is incompatible with finiteness of
    the tail sigma-term for every weight, so the criterion would be vacuous."""
    if e.p < 1.0:
        raise TheoremInapplicable("p>=1", {"p>=1": False})
    other = _OTHER[side]
    report: dict = {}
    if side == "low" and not verbatim:
        _check_cum(ctx, weight_mul(v, PowerWeight(1.0, -2.0 * e.p)), "V~", other, report)
    else:
        _check_cum(ctx, v, "V" + _STAR[other], other, report)
    _check_cum(ctx, w, "W" + _STAR[other], other, report)
    _require(report)
    Eq = _apow(ctx.env_weight(u, side), e.q)
    G = _sigma_arrays(ctx, v, e.p, other)
    terms, flags, _ = _core(ctx, w, e.p, e.q, Eq, G, side)
    return _finish({"up": "T3.1", "low": "T3.2"}[side], e, terms, report, flags)


@_quiet
def crit_T33_34(ctx: CritCtx, side: str, u: Weight, v: Weight, w: Weight, e: Exponents,
                verbatim: bool = False) -> CriterionResult:
    """T3.3 (side "low"): S_u on non-increasing inputs, and T3.4 (side
    "up"): S*_u on non-decreasing inputs.

    The v-hypothesis is on ``side``; ``verbatim`` checks the printed one, on
    the other side."""
    vside = _OTHER[side] if verbatim else side
    other = _OTHER[side]
    report: dict = {}
    vset = _check_cum(ctx, v, "V" + _STAR[vside], vside, report)
    _check_cum(ctx, w, "W" + _STAR[other], other, report)
    _require(report)
    E = ctx.env_weight(u, side)
    Eq = _apow(E, e.q)
    G = _apow(getattr(vset, side), -1.0 / e.p)
    terms, flags, main = _core(ctx, w, e.p, e.q, Eq, G, side)
    unit = xdiv(xpow(main.total, 1.0 / e.q), xpow(vset.total, 1.0 / e.p))
    return _finish({"low": "T3.3", "up": "T3.4"}[side], e, terms, report, flags, unit=unit)


@_quiet
def crit_T35_36(ctx: CritCtx, side: str, u: Weight, v: Weight, w: Weight, e: Exponents,
                verbatim: bool = False) -> CriterionResult:
    """T3.5 (side "low"): S_u on non-decreasing inputs, and T3.6 (side
    "up"): S*_u on non-increasing inputs.  No printed variant differs, so
    ``verbatim`` changes nothing."""
    other = _OTHER[side]
    report: dict = {}
    vset = _check_cum(ctx, v, "V" + _STAR[other], other, report)
    _check_cum(ctx, w, "W" + _STAR[other], other, report)
    _require(report)
    Vo = getattr(vset, other)
    Vo2 = _apow(Vo, -2.0)
    D = ctx.env_arr(_amul(_apow(ctx.vals(u), e.p), Vo2, out=Vo2), side)
    Eq = _apow(D, e.q / e.p, out=D)
    terms, flags, _ = _core(ctx, w, 1.0, e.q / e.p, Eq, Vo, side)
    unit = xdiv(_norm_q(ctx, ctx.env_weight(u, side), w, e.q), xpow(vset.total, 1.0 / e.p))
    return _finish({"low": "T3.5", "up": "T3.6"}[side], e, terms, report, flags,
                   root=1.0 / e.p, unit=unit)


@_quiet
def crit_T41_43(ctx: CritCtx, side: str, u: Weight, v: Weight, w: Weight, e: Exponents,
                verbatim: bool = False) -> CriterionResult:
    """T4.1 (side "low"): ||S_u (int_0^x h)||_{q,w} <= c ||h||_{p,v}, and
    T4.3 (side "up"): ||S*_u (int_x^oo h)||_{q,w} <= c ||h||_{p,v}, p > 1,
    through the level transform on ``side``.  No printed variant differs, so
    ``verbatim`` changes nothing."""
    if e.p <= 1.0:
        raise TheoremInapplicable("p>1", {"p>1": False})
    pp = e.pprime
    other = _OTHER[side]
    report: dict = {}
    name = ("int_0^x" if side == "low" else "int_x^oo") + " v^{1-p'}"
    aset = _check_cum(ctx, v.power(1.0 - pp), name, side, report)
    _check_cum(ctx, w, "W" + _STAR[other], other, report)
    _require(report)
    Phi, G = ctx.derived(_t41_phi, v, side, e.p)
    Phi2 = _apow(Phi, 2.0)
    Phi1 = ctx.env_arr(_amul(ctx.vals(u), Phi2, out=Phi2), side)
    Eq = _apow(Phi1, e.q)
    terms, flags, main = _core(ctx, w, e.p, e.q, Eq, G, side)
    den = xpow(xmul(pp + 1.0, xpow(aset.total, 1.0 / (pp + 1.0))), 1.0 / e.p)
    unit = xdiv(xpow(main.total, 1.0 / e.q), den)
    return _finish({"low": "T4.1", "up": "T4.3"}[side], e, terms, report, flags, unit=unit)


@_quiet
def crit_T42_44(ctx: CritCtx, side: str, u: Weight, nu: Weight, w: Weight, e: Exponents,
                verbatim: bool = False) -> CriterionResult:
    """The p = 1 variants: T4.2 (side "low"), the Hardy-iterated inequality
    with input weight nu = 1/V, and T4.4 (side "up"), the Copson-iterated one
    with nu = 1/V*.

    T4.4's default is the duality-derived form.  ``verbatim`` follows its
    printed statement instead, which mirrors T4.2's W*/int_0^x shape."""
    if e.p != 1.0:
        raise TheoremInapplicable("p=1", {"p=1": False})
    nuv = ctx.vals(nu)
    s = 1.0 if side == "low" else -1.0  # nu non-increasing / non-decreasing
    shape = "low" if verbatim else side
    other = _OTHER[shape]
    report: dict = {}
    report["nu positive"] = bool(np.all(nuv > 0.0))
    # equal neighbours step by 0, two +inf ones too, where np.diff reads NaN;
    # the slack scales with the smaller neighbour, so a step from +inf fails
    steps = np.subtract(nuv[1:], nuv[:-1], out=np.zeros(len(nuv) - 1), where=nuv[1:] != nuv[:-1])
    report[{"low": "nu non-increasing", "up": "nu non-decreasing"}[side]] = bool(
        np.all(s * steps <= 1e-9 * (1.0 + np.minimum(nuv[1:], nuv[:-1]))))
    _check_cum(ctx, w, "W" + _STAR[other], other, report)
    _require(report)
    V = _adiv(1.0, nuv)
    V2 = _apow(V, 2.0)
    V1 = ctx.env_arr(_amul(ctx.vals(u), V2, out=V2), side)
    Eq = _apow(V1, e.q)
    G = _apow(V, -1.0)
    terms, flags, main = _core(ctx, w, 1.0, e.q, Eq, G, shape)
    vlim, fl = ctx.sup(V)
    if fl:
        flags = list(flags) + [fl]
    unit = xdiv(xpow(main.total, 1.0 / e.q), vlim)
    return _finish({"low": "T4.2", "up": "T4.4"}[side], e, terms, report, flags, unit=unit)


def _crit_T4(ctx: CritCtx, side: str, u: Weight, v: Weight, w: Weight, e: Exponents,
             verbatim: bool = False) -> CriterionResult:
    """S_u o H (side "low") and S*_u o H* (side "up"): T4.1/T4.3 for p > 1,
    T4.2/T4.4 with input weight nu = v otherwise."""
    crit = crit_T41_43 if e.p > 1.0 else crit_T42_44
    return crit(ctx, side, u, v, w, e, verbatim)


# ---------------------------------------------------------------------------
# the combined operator T_{u,b}
# ---------------------------------------------------------------------------


@_quiet
def crit_T51(ctx: CritCtx, u: Weight, b: Weight, v: Weight, w: Weight,
             e: Exponents) -> CriterionResult:
    """T_{u,b} on non-increasing inputs, p >= 1."""
    p, q = e.p, e.q
    if p < 1.0:
        raise TheoremInapplicable("p>=1", {"p>=1": False})
    if q == INF:
        raise ValueError("q = oo is not supported")
    report: dict = {}
    _check_cum(ctx, b, "B", "low", report)
    vset = _check_cum(ctx, v, "V", "low", report)
    _check_cum(ctx, w, "W", "low", report)
    _require(report)
    rho = ctx.derived(_t51_rho, u, b)
    eta = ctx.derived(_t51_eta, u, v)
    g1 = ctx.derived(_t51_g1, b, v, p)
    if p > 1.0:
        g2 = ctx.derived(_t51_g2, v, p)
        case = "i" if p <= q else "iii"
    else:
        g2 = vset.low
        case = "ii" if p <= q else "iv"
    flags: list = []
    terms: dict = {}
    if p <= q:
        for name, base, g in (("A1", rho, g1), ("A2", eta, g2)):
            core, fl, _ = _core(ctx, w, p, q, _apow(base, q), g, "up")
            terms[name] = core["A1"]
            flags += fl
    else:
        r = e.r
        wset = ctx.int_w(w)
        for pre, base, g in (("B1", rho, g1), ("B3", eta, g2)):
            eqv = _apow(base, q)
            terms[pre] = _b1(ctx, w, ctx.int_set(eqv, w).up, eqv, g, p, r)
            bg = _amul(base, g)
            b2_igr = _amul(_apow(wset.low, r / p), _apow(bg, r, out=bg), out=bg)
            nxt = {"B1": "B2", "B3": "B4"}[pre]
            terms[nxt] = xpow(ctx.int_set(b2_igr, w).total, 1.0 / r)
    return _finish(f"T5.1.{case}", e, terms, report, flags)


@_quiet
def crit_T53(ctx: CritCtx, u: Weight, b: Weight, v: Weight, w: Weight,
             e: Exponents) -> CriterionResult:
    """T_{u,b} on non-increasing inputs, p <= 1, via the power substitution."""
    p, q = e.p, e.q
    if p > 1.0:
        raise TheoremInapplicable("p<=1", {"p<=1": False})
    u_hat, b_hat = power_substitution(u, b, p)
    inner = crit_T51(ctx, u_hat, b_hat, v, w, Exponents(1.0, q / p))
    case = "i" if p <= q else "ii"
    return _finish(f"T5.3.{case}", e, inner.terms, inner.hypothesis_report, inner.flags,
                   root=1.0 / p)


# ---------------------------------------------------------------------------
# public wrappers and dispatch
# ---------------------------------------------------------------------------


@_quiet
def crit_tub(u: Weight, b: Weight, v: Weight, w: Weight, e: Exponents,
             ctx: Optional[CritCtx] = None) -> CriterionResult:
    """Criterion for T_{u,b} on non-increasing inputs (all p > 0)."""
    ctx = ctx or CritCtx()
    if e.p >= 1.0:
        return crit_T51(ctx, u, b, v, w, e)
    return crit_T53(ctx, u, b, v, w, e)


# (base, compose, cone) -> (the criterion that characterizes the spec, the
# side of its mirror pair), side None for T_{u,b}
_CRITERIA = {
    ("S", None, "non_increasing"): (crit_T33_34, "low"),
    ("S*", None, "non_decreasing"): (crit_T33_34, "up"),
    ("S", None, "non_decreasing"): (crit_T35_36, "low"),
    ("S*", None, "non_increasing"): (crit_T35_36, "up"),
    ("S*", "H", "none"): (crit_T31_32, "up"),
    ("S", "H*", "none"): (crit_T31_32, "low"),
    ("S", "H", "none"): (_crit_T4, "low"),
    ("S*", "H*", "none"): (_crit_T4, "up"),
    ("T_ub", None, "non_increasing"): (crit_tub, None),
}


def evaluate_criterion(spec: InequalitySpec, ctx: Optional[CritCtx] = None,
                       verbatim: bool = False) -> CriterionResult:
    """Dispatch a spec to the criterion that characterizes it."""
    crit, side = _criterion_of(spec)
    ctx = ctx or CritCtx()
    k = spec.kind
    if side is None:
        return crit(k.u, k.b, spec.v, spec.w, spec.exps, ctx=ctx)
    return crit(ctx, side, k.u, spec.v, spec.w, spec.exps, verbatim)


def _criterion_of(spec: InequalitySpec):
    """The ``_CRITERIA`` row of ``spec``'s operator and cone; ``ValueError``
    if none."""
    k = spec.kind
    row = _CRITERIA.get((k.base, k.compose, spec.cone))
    if row is None:
        raise ValueError(f"no criterion for {k.describe()} on cone {spec.cone}")
    return row

