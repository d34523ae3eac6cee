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
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .extreal import INF, adiv, amul, apow, xdiv, xmul, xpow
from .operators import OperatorKind, b_cumulative
from .weights import (
    Exponents,
    FuncWeight,
    PowerWeight,
    Weight,
    conjugate,
    phi_weights,
    weight_mul,
    weight_pow,
    weight_scale,
)

__all__ = [
    "CritCtx",
    "InequalitySpec",
    "CriterionResult",
    "TheoremInapplicable",
    "evaluate_criterion",
    "crit_restricted_sup",
    "crit_iterated",
    "crit_tub",
    "reduce_spec",
    "ReducedSpec",
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


@dataclass(frozen=True)
class IntSet:
    """One-sided cumulatives of ``int F w`` on the evaluation grid."""

    low: np.ndarray  # low[i] ~ int_0^{t_i} F w
    up: np.ndarray  # up[i]  ~ int_{t_i}^oo F w
    total: float
    div0: bool
    divinf: bool


class CritCtx:
    """Shared numerical context: log grid, quadrature, envelopes, suprema."""

    def __init__(self, lo: float = 1e-12, hi: float = 1e12, per_decade: int = 200):
        ndec = math.log10(hi / lo)
        n = int(round(ndec * per_decade)) + 1
        self.t = np.geomspace(lo, hi, n)
        self.h = math.log(hi / lo) / (n - 1)
        self.m = per_decade
        self.ones = np.ones(n)
        self._vcache: dict = {}

    # -- pointwise values ----------------------------------------------------
    def vals(self, w: Weight) -> np.ndarray:
        key = id(w)
        hit = self._vcache.get(key)
        if hit is None:
            hit = np.asarray(w(self.t), dtype=float)
            self._vcache[key] = (w, hit)  # keep w alive so id stays valid
            return hit
        return hit[1]

    # -- integration ------------------------------------------------------------
    def int_set(self, F: np.ndarray, w: Weight) -> IntSet:
        g = amul(F, amul(self.vals(w), self.t))
        g = np.where(np.isnan(g), 0.0, g)
        with np.errstate(invalid="ignore"):
            c = 0.5 * self.h * (g[:-1] + g[1:])
        c = np.where(np.isnan(c), INF, c)
        m = self.m
        b = [float(np.sum(c[i * m:(i + 1) * m])) for i in range(3)]
        e = [float(np.sum(c[-(i + 1) * m: len(c) - i * m])) for i in range(3)]
        div0 = _diverging(b)
        divinf = _diverging(e)
        head = INF if div0 else _geom_tail(b)
        tail = INF if divinf else _geom_tail(e)
        low = head + np.concatenate([[0.0], np.cumsum(c)])
        up = tail + np.concatenate([np.cumsum(c[::-1])[::-1], [0.0]])
        if div0:
            low = np.full_like(low, INF)
        if divinf:
            up = np.full_like(up, INF)
        total = head + float(np.sum(c)) + tail
        return IntSet(low=low, up=up, total=total, div0=div0, divinf=divinf)

    # -- suprema with boundary classification --------------------------------------
    def sup(self, vals: np.ndarray) -> Tuple[float, Optional[str]]:
        v = np.where(np.isnan(vals), 0.0, np.asarray(vals, dtype=float))
        if np.any(np.isinf(v)):
            return INF, None
        mval = float(np.max(v))
        if mval == 0.0:
            return 0.0, None
        m = self.m
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

    # -- envelopes ---------------------------------------------------------------------
    def env_arr(self, vals: np.ndarray, side: str) -> np.ndarray:
        v = np.where(np.isnan(vals), 0.0, np.asarray(vals, dtype=float))
        if side == "up":
            return np.maximum.accumulate(v)
        return np.maximum.accumulate(v[::-1])[::-1]

    def env_weight(self, w: Weight, side: str) -> np.ndarray:
        """Exact running envelope of a Weight on the grid: sup over (0, t] / [t, oo)."""
        t = self.t
        if isinstance(w, PowerWeight):
            t_star = w.argmax()
            if side == "up":
                if t_star == 0.0:
                    return np.full_like(t, w.limit0())
                if t_star == INF:
                    return self.vals(w)
                return np.asarray(w(np.minimum(t, t_star)), dtype=float)
            if t_star == INF:
                return np.full_like(t, w.limit_inf())
            if t_star == 0.0:
                return self.vals(w)
            return np.asarray(w(np.maximum(t, t_star)), dtype=float)
        # generic: per-segment interval sups, accumulated
        if side == "up":
            segs = [w.sup_on_interval(0.0, t[0])]
            segs += [w.sup_on_interval(a, bnd) for a, bnd in zip(t[:-1], t[1:])]
            return np.maximum.accumulate(np.asarray(segs))
        segs = [w.sup_on_interval(a, bnd) for a, bnd in zip(t[:-1], t[1:])]
        segs.append(w.sup_on_interval(t[-1], INF))
        return np.maximum.accumulate(np.asarray(segs)[::-1])[::-1]


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


_DEFAULT_CTX: Optional[CritCtx] = None


def default_ctx() -> CritCtx:
    global _DEFAULT_CTX
    if _DEFAULT_CTX is None:
        _DEFAULT_CTX = CritCtx()
    return _DEFAULT_CTX


# ---------------------------------------------------------------------------
# hypothesis predicates
# ---------------------------------------------------------------------------


def _analytically_positive(w: Weight, side: str) -> Optional[bool]:
    """Whether w is provably positive on a neighbourhood of 0 ("head") / oo ("tail")."""
    if isinstance(w, PowerWeight):
        return w.c > 0.0
    from .weights import PiecewisePowerWeight, TabulatedWeight

    if isinstance(w, PiecewisePowerWeight):
        seg = w.segments[0] if side == "head" else w.segments[-1]
        return seg.c > 0.0
    if isinstance(w, TabulatedWeight):
        return (w.y[0] if side == "head" else w.y[-1]) > 0.0
    return None  # derived weight: undetermined


def _check_cum(ctx: CritCtx, weight: Weight, name: str, side: str, report: dict) -> IntSet:
    """Record the predicate ``0 < (int_0^x | int_x^oo) weight < oo for all x``.

    Positivity near the relevant boundary is decided analytically when the
    weight's symbolic form allows it (float underflow would otherwise report
    false zeros for rapidly decaying weights)."""
    iset = ctx.int_set(ctx.ones, weight)
    if side == "low":
        pos = _analytically_positive(weight, "head")
        if pos is None:
            pos = bool(iset.low[-1] > 0.0)
        ok = (not iset.div0) and pos
    else:
        pos = _analytically_positive(weight, "tail")
        if pos is None:
            pos = bool(iset.up[0] > 0.0)
        ok = (not iset.divinf) and pos
    report[f"0<{name}<oo"] = bool(ok)
    return iset


def _require(report: dict) -> None:
    for pred, ok in report.items():
        if not ok:
            raise TheoremInapplicable(pred, report)


# ---------------------------------------------------------------------------
# the shared criterion core
# ---------------------------------------------------------------------------


def _core(ctx: CritCtx, w: Weight, p_eff: float, q_eff: float,
          Eq: np.ndarray, G: np.ndarray, shape: str):
    """A/B terms shared by the whole criterion family.

    ``shape == "up"``:   I(x) = int_0^x Eq w,  Wmain = int_x^oo w,  envelope over (0, x];
    ``shape == "down"``: I(x) = int_x^oo Eq w, Wmain = int_0^x w,   envelope over [x, oo).
    """
    flags = []
    iset = ctx.int_set(Eq, w)
    wset = ctx.int_set(ctx.ones, w)
    if shape == "up":
        I, Wm, env_side = iset.low, wset.up, "up"
    else:
        I, Wm, env_side = iset.up, wset.low, "down"
    if p_eff <= q_eff:
        inner = amul(Eq, Wm) + I
        obj = amul(apow(inner, 1.0 / q_eff), G)
        val, fl = ctx.sup(obj)
        if fl:
            flags.append(fl)
        return {"A1": val}, flags
    r_eff = 1.0 / (1.0 / q_eff - 1.0 / p_eff)
    b1_igr = amul(amul(apow(I, r_eff / p_eff), Eq), apow(G, r_eff))
    B1 = xpow(ctx.int_set(b1_igr, w).total, 1.0 / r_eff)
    env = ctx.env_arr(amul(apow(Eq, 1.0 / q_eff), G), env_side)
    b2_igr = amul(apow(Wm, r_eff / p_eff), apow(env, r_eff))
    B2 = xpow(ctx.int_set(b2_igr, w).total, 1.0 / r_eff)
    return {"B1": B1, "B2": B2}, flags


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
    return xpow(ctx.int_set(apow(F, q), w).total, 1.0 / q)


# ---------------------------------------------------------------------------
# iterated-inequality criteria on the full nonnegative cone
# ---------------------------------------------------------------------------


def _sigma_arrays(ctx: CritCtx, v: Weight, p: float, side: str) -> np.ndarray:
    """sigma_p(0, x) (side="low") or sigma_p(x, oo) (side="up") on the grid."""
    if p == 1.0:
        inv = adiv(1.0, ctx.vals(v))
        return ctx.env_arr(inv, "up" if side == "low" else "down")
    pp = conjugate(p)
    vp = weight_pow(v, 1.0 - pp)
    iset = ctx.int_set(ctx.ones, vp)
    return apow(iset.low if side == "low" else iset.up, 1.0 / pp)


def crit_T31(ctx: CritCtx, u: Weight, v: Weight, w: Weight, e: Exponents) -> CriterionResult:
    """||S*_u (int_0^x h)||_{q,w} <= c ||h||_{p,v} over nonnegative h (p >= 1)."""
    if e.p < 1.0:
        raise TheoremInapplicable("p>=1", {"p>=1": False})
    report: dict = {}
    _check_cum(ctx, v, "V", "low", report)
    _check_cum(ctx, w, "W", "low", report)
    _require(report)
    E = ctx.env_weight(u, "down")
    Eq = apow(E, e.q)
    G = _sigma_arrays(ctx, v, e.p, "low")
    terms, flags = _core(ctx, w, e.p, e.q, Eq, G, "down")
    return _finish("T3.1", e, terms, report, flags)


def crit_T32(ctx: CritCtx, u: Weight, v: Weight, w: Weight, e: Exponents,
             verbatim: bool = False) -> CriterionResult:
    """||S_u (int_x^oo h)||_{q,w} <= c ||h||_{p,v} over nonnegative h (p >= 1).

    Default non-degeneracy condition is the one transported from the
    x -> 1/x substitution that derives this criterion from its mirror:
    ``0 < int_x^oo v(s) s^{-2p} ds < oo``.  The literal printed condition
    ``0 < V* < oo`` (``verbatim=True``) is incompatible with finiteness of
    the tail sigma-term for every weight, so the criterion would be vacuous."""
    if e.p < 1.0:
        raise TheoremInapplicable("p>=1", {"p>=1": False})
    report: dict = {}
    if verbatim:
        _check_cum(ctx, v, "V*", "up", report)
    else:
        from .weights import weight_mul

        v_sub = weight_mul(v, PowerWeight(1.0, -2.0 * e.p))
        _check_cum(ctx, v_sub, "V~", "up", report)
    _check_cum(ctx, w, "W*", "up", report)
    _require(report)
    E = ctx.env_weight(u, "up")
    Eq = apow(E, e.q)
    G = _sigma_arrays(ctx, v, e.p, "up")
    terms, flags = _core(ctx, w, e.p, e.q, Eq, G, "up")
    return _finish("T3.2", e, terms, report, flags)


# ---------------------------------------------------------------------------
# restricted supremal criteria on monotone cones
# ---------------------------------------------------------------------------


def crit_T33(ctx: CritCtx, u: Weight, v: Weight, w: Weight, e: Exponents,
             verbatim: bool = False) -> CriterionResult:
    """S_u on non-increasing inputs."""
    report: dict = {}
    vset = _check_cum(ctx, v, "V*" if verbatim else "V", "up" if verbatim else "low", report)
    _check_cum(ctx, w, "W*", "up", report)
    _require(report)
    E = ctx.env_weight(u, "up")
    Eq = apow(E, e.q)
    G = apow(vset.low, -1.0 / e.p)
    terms, flags = _core(ctx, w, e.p, e.q, Eq, G, "up")
    unit = xdiv(_norm_q(ctx, E, w, e.q), xpow(vset.total, 1.0 / e.p))
    return _finish("T3.3", e, terms, report, flags, unit=unit)


def crit_T34(ctx: CritCtx, u: Weight, v: Weight, w: Weight, e: Exponents,
             verbatim: bool = False) -> CriterionResult:
    """S*_u on non-decreasing inputs."""
    report: dict = {}
    vset = _check_cum(ctx, v, "V" if verbatim else "V*", "low" if verbatim else "up", report)
    _check_cum(ctx, w, "W", "low", report)
    _require(report)
    E = ctx.env_weight(u, "down")
    Eq = apow(E, e.q)
    G = apow(vset.up, -1.0 / e.p)
    terms, flags = _core(ctx, w, e.p, e.q, Eq, G, "down")
    unit = xdiv(_norm_q(ctx, E, w, e.q), xpow(vset.total, 1.0 / e.p))
    return _finish("T3.4", e, terms, report, flags, unit=unit)


def crit_T35(ctx: CritCtx, u: Weight, v: Weight, w: Weight, e: Exponents) -> CriterionResult:
    """S_u on non-decreasing inputs."""
    report: dict = {}
    vset = _check_cum(ctx, v, "V*", "up", report)
    _check_cum(ctx, w, "W*", "up", report)
    _require(report)
    Vup = vset.up
    D = ctx.env_arr(amul(apow(ctx.vals(u), e.p), apow(Vup, -2.0)), "up")
    Eq = apow(D, e.q / e.p)
    terms, flags = _core(ctx, w, 1.0, e.q / e.p, Eq, Vup, "up")
    unit = xdiv(_norm_q(ctx, ctx.env_weight(u, "up"), w, e.q), xpow(vset.total, 1.0 / e.p))
    return _finish("T3.5", e, terms, report, flags, root=1.0 / e.p, unit=unit)


def crit_T36(ctx: CritCtx, u: Weight, v: Weight, w: Weight, e: Exponents) -> CriterionResult:
    """S*_u on non-increasing inputs."""
    report: dict = {}
    vset = _check_cum(ctx, v, "V", "low", report)
    _check_cum(ctx, w, "W", "low", report)
    _require(report)
    Vlow = vset.low
    Ee = ctx.env_arr(amul(apow(ctx.vals(u), e.p), apow(Vlow, -2.0)), "down")
    Eq = apow(Ee, e.q / e.p)
    terms, flags = _core(ctx, w, 1.0, e.q / e.p, Eq, Vlow, "down")
    unit = xdiv(_norm_q(ctx, ctx.env_weight(u, "down"), w, e.q), xpow(vset.total, 1.0 / e.p))
    return _finish("T3.6", e, terms, report, flags, root=1.0 / e.p, unit=unit)


# ---------------------------------------------------------------------------
# iterated criteria via the level/defect transforms
# ---------------------------------------------------------------------------


def crit_T41(ctx: CritCtx, u: Weight, v: Weight, w: Weight, e: Exponents) -> CriterionResult:
    """||S_u (int_0^x h)||_{q,w} <= c ||h||_{p,v}, p > 1."""
    if e.p <= 1.0:
        raise TheoremInapplicable("p>1", {"p>1": False})
    pp = e.pprime
    vp = weight_pow(v, 1.0 - pp)
    report: dict = {}
    aset = _check_cum(ctx, vp, "int_0^x v^{1-p'}", "low", report)
    _check_cum(ctx, w, "W*", "up", report)
    _require(report)
    Phi = apow(aset.low, 1.0 / (pp + 1.0))
    Phi1 = ctx.env_arr(amul(ctx.vals(u), apow(Phi, 2.0)), "up")
    Eq = apow(Phi1, e.q)
    G = apow(Phi, -1.0 / e.p)
    terms, flags = _core(ctx, w, e.p, e.q, Eq, G, "up")
    den = xpow(xmul(pp + 1.0, xpow(aset.total, 1.0 / (pp + 1.0))), 1.0 / e.p)
    unit = xdiv(_norm_q(ctx, Phi1, w, e.q), den)
    return _finish("T4.1", e, terms, report, flags, unit=unit)


def crit_T43(ctx: CritCtx, u: Weight, v: Weight, w: Weight, e: Exponents) -> CriterionResult:
    """||S*_u (int_x^oo h)||_{q,w} <= c ||h||_{p,v}, p > 1."""
    if e.p <= 1.0:
        raise TheoremInapplicable("p>1", {"p>1": False})
    pp = e.pprime
    vp = weight_pow(v, 1.0 - pp)
    report: dict = {}
    aset = _check_cum(ctx, vp, "int_x^oo v^{1-p'}", "up", report)
    _check_cum(ctx, w, "W", "low", report)
    _require(report)
    Psi = apow(aset.up, 1.0 / (pp + 1.0))
    Psi1 = ctx.env_arr(amul(ctx.vals(u), apow(Psi, 2.0)), "down")
    Eq = apow(Psi1, e.q)
    G = apow(Psi, -1.0 / e.p)
    terms, flags = _core(ctx, w, e.p, e.q, Eq, G, "down")
    den = xpow(xmul(pp + 1.0, xpow(aset.total, 1.0 / (pp + 1.0))), 1.0 / e.p)
    unit = xdiv(_norm_q(ctx, Psi1, w, e.q), den)
    return _finish("T4.3", e, terms, report, flags, unit=unit)


def crit_T42(ctx: CritCtx, u: Weight, nu: Weight, w: Weight, e: Exponents) -> CriterionResult:
    """p = 1 variant of the Hardy-iterated inequality with input weight nu = 1/V."""
    if e.p != 1.0:
        raise TheoremInapplicable("p=1", {"p=1": False})
    nuv = ctx.vals(nu)
    report: dict = {}
    report["nu positive"] = bool(np.all(nuv > 0.0))
    report["nu non-increasing"] = bool(np.all(np.diff(nuv) <= 1e-9 * (1.0 + nuv[:-1])))
    _check_cum(ctx, w, "W*", "up", report)
    _require(report)
    V = adiv(1.0, nuv)
    V1 = ctx.env_arr(amul(ctx.vals(u), apow(V, 2.0)), "up")
    Eq = apow(V1, e.q)
    G = apow(V, -1.0)
    terms, flags = _core(ctx, w, 1.0, e.q, Eq, G, "up")
    vinf, fl = ctx.sup(V)
    if fl:
        flags = list(flags) + [fl]
    unit = xdiv(_norm_q(ctx, V1, w, e.q), vinf)
    return _finish("T4.2", e, terms, report, flags, unit=unit)


def crit_T44(ctx: CritCtx, u: Weight, nu: Weight, w: Weight, e: Exponents,
             verbatim: bool = False) -> CriterionResult:
    """p = 1 variant of the Copson-iterated inequality with input weight nu = 1/V*.

    Default: the duality-derived form.  ``verbatim`` follows the printed
    statement (which mirrors the Hardy case's W*/int_0^x) instead.
    """
    if e.p != 1.0:
        raise TheoremInapplicable("p=1", {"p=1": False})
    nuv = ctx.vals(nu)
    report: dict = {}
    report["nu positive"] = bool(np.all(nuv > 0.0))
    report["nu non-decreasing"] = bool(np.all(np.diff(nuv) >= -1e-9 * (1.0 + nuv[:-1])))
    _check_cum(ctx, w, "W*" if verbatim else "W", "up" if verbatim else "low", report)
    _require(report)
    Vs = adiv(1.0, nuv)
    V1 = ctx.env_arr(amul(ctx.vals(u), apow(Vs, 2.0)), "down")
    Eq = apow(V1, e.q)
    G = apow(Vs, -1.0)
    shape = "up" if verbatim else "down"
    terms, flags = _core(ctx, w, 1.0, e.q, Eq, G, shape)
    v0, fl = ctx.sup(Vs)
    if fl:
        flags = list(flags) + [fl]
    unit = xdiv(_norm_q(ctx, V1, w, e.q), v0)
    return _finish("T4.4", e, terms, report, flags, unit=unit)


# ---------------------------------------------------------------------------
# the combined operator T_{u,b}
# ---------------------------------------------------------------------------


def crit_T51(ctx: CritCtx, u: Weight, b: Weight, v: Weight, w: Weight,
             e: Exponents) -> CriterionResult:
    """T_{u,b} on non-increasing inputs, p >= 1."""
    p, q = e.p, e.q
    if p < 1.0:
        raise TheoremInapplicable("p>=1", {"p>=1": False})
    if q == INF:
        raise ValueError("q = oo is not supported")
    report: dict = {}
    bset = _check_cum(ctx, b, "B", "low", report)
    vset = _check_cum(ctx, v, "V", "low", report)
    _check_cum(ctx, w, "W", "low", report)
    _require(report)
    Bv, Vv = bset.low, vset.low
    uv = ctx.vals(u)
    rho = ctx.env_arr(adiv(uv, Bv), "down")
    eta = ctx.env_arr(adiv(uv, apow(Vv, 2.0)), "down")
    if p > 1.0:
        pp = e.pprime
        g1 = apow(ctx.int_set(apow(adiv(Bv, Vv), pp), v).low, 1.0 / pp)
        g2 = apow(ctx.int_set(apow(Vv, pp), v).low, 1.0 / pp)
        case = "i" if p <= q else "iii"
    else:
        g1 = ctx.env_arr(adiv(Bv, Vv), "up")
        g2 = Vv
        case = "ii" if p <= q else "iv"
    wset = ctx.int_set(ctx.ones, w)
    flags: list = []
    terms: dict = {}
    if p <= q:
        for name, base, g in (("A1", rho, g1), ("A2", eta, g2)):
            eqv = apow(base, q)
            inner = amul(eqv, wset.low) + ctx.int_set(eqv, w).up
            val, fl = ctx.sup(amul(apow(inner, 1.0 / q), g))
            if fl:
                flags.append(fl)
            terms[name] = val
    else:
        r = e.r
        for pre, base, g in (("B1", rho, g1), ("B3", eta, g2)):
            eqv = apow(base, q)
            Iup = ctx.int_set(eqv, w).up
            b1_igr = amul(amul(apow(Iup, r / p), eqv), apow(g, r))
            terms[pre] = xpow(ctx.int_set(b1_igr, w).total, 1.0 / r)
            b2_igr = amul(apow(wset.low, r / p), apow(amul(base, g), r))
            nxt = {"B1": "B2", "B3": "B4"}[pre]
            terms[nxt] = xpow(ctx.int_set(b2_igr, w).total, 1.0 / r)
    return _finish(f"T5.1.{case}", e, terms, report, flags)


def crit_T53(ctx: CritCtx, u: Weight, b: Weight, v: Weight, w: Weight,
             e: Exponents) -> CriterionResult:
    """T_{u,b} on non-increasing inputs, p <= 1, via the power substitution."""
    p, q = e.p, e.q
    if p > 1.0:
        raise TheoremInapplicable("p<=1", {"p<=1": False})
    B = b_cumulative(b)
    u_hat = weight_scale(weight_pow(u, p), 1.0 / p)
    b_hat = weight_mul(weight_pow(B, p - 1.0), b)
    inner = crit_T51(ctx, u_hat, b_hat, v, w, Exponents(1.0, q / p))
    case = "i" if p <= q else "ii"
    terms = {k: xpow(val, 1.0 / p) for k, val in inner.terms.items()}
    total = 0.0
    for val in terms.values():
        total = INF if val == INF else total + val
    return CriterionResult(
        theorem_id=f"T5.3.{case}",
        regime=e.regime,
        terms=terms,
        total=total,
        finite=total < INF,
        hypothesis_report=inner.hypothesis_report,
        flags=inner.flags,
    )


# ---------------------------------------------------------------------------
# public wrappers and dispatch
# ---------------------------------------------------------------------------


def crit_restricted_sup(which: str, u: Weight, v: Weight, w: Weight, e: Exponents,
                        ctx: Optional[CritCtx] = None, verbatim: bool = False) -> CriterionResult:
    """Restricted supremal criteria: which in S_down / S*_up / S_up / S*_down."""
    ctx = ctx or default_ctx()
    if which == "S_down":
        return crit_T33(ctx, u, v, w, e, verbatim=verbatim)
    if which == "S*_up":
        return crit_T34(ctx, u, v, w, e, verbatim=verbatim)
    if which == "S_up":
        return crit_T35(ctx, u, v, w, e)
    if which == "S*_down":
        return crit_T36(ctx, u, v, w, e)
    raise ValueError(f"unknown restricted form {which!r}")


def crit_iterated(which: str, u: Weight, v: Weight, w: Weight, e: Exponents,
                  ctx: Optional[CritCtx] = None, verbatim: bool = False) -> CriterionResult:
    """Iterated (sup of an integral) criteria: ISI1..ISI4, ISI1_V, ISI3_V."""
    ctx = ctx or default_ctx()
    if which == "ISI1":
        return crit_T41(ctx, u, v, w, e)
    if which == "ISI2":
        return crit_T32(ctx, u, v, w, e, verbatim=verbatim)
    if which == "ISI3":
        return crit_T43(ctx, u, v, w, e)
    if which == "ISI4":
        return crit_T31(ctx, u, v, w, e)
    if which == "ISI1_V":
        return crit_T42(ctx, u, v, w, e)
    if which == "ISI3_V":
        return crit_T44(ctx, u, v, w, e, verbatim=verbatim)
    raise ValueError(f"unknown iterated form {which!r}")


def crit_tub(u: Weight, b: Weight, v: Weight, w: Weight, e: Exponents,
             ctx: Optional[CritCtx] = None) -> CriterionResult:
    """Criterion for T_{u,b} on non-increasing inputs (all p > 0)."""
    ctx = ctx or default_ctx()
    if e.p >= 1.0:
        return crit_T51(ctx, u, b, v, w, e)
    return crit_T53(ctx, u, b, v, w, e)


def evaluate_criterion(spec: InequalitySpec, ctx: Optional[CritCtx] = None,
                       verbatim: bool = False) -> CriterionResult:
    """Dispatch a spec to the criterion that characterizes it."""
    ctx = ctx or default_ctx()
    k, cone, e = spec.kind, spec.cone, spec.exps
    if k.base == "T_ub":
        if cone != "non_increasing":
            raise ValueError("T_ub criteria cover non-increasing inputs")
        return crit_tub(k.u, k.b, spec.v, spec.w, e, ctx=ctx)
    if k.compose is None:
        table = {
            ("S", "non_increasing"): lambda: crit_T33(ctx, k.u, spec.v, spec.w, e, verbatim=verbatim),
            ("S", "non_decreasing"): lambda: crit_T35(ctx, k.u, spec.v, spec.w, e),
            ("S*", "non_decreasing"): lambda: crit_T34(ctx, k.u, spec.v, spec.w, e, verbatim=verbatim),
            ("S*", "non_increasing"): lambda: crit_T36(ctx, k.u, spec.v, spec.w, e),
        }
        try:
            return table[(k.base, cone)]()
        except KeyError:
            raise ValueError(f"no criterion for {k.base} on cone {cone}") from None
    if cone != "none":
        raise ValueError("iterated criteria cover the full nonnegative cone")
    if k.base == "S*" and k.compose == "H":
        return crit_T31(ctx, k.u, spec.v, spec.w, e)
    if k.base == "S" and k.compose == "H*":
        return crit_T32(ctx, k.u, spec.v, spec.w, e, verbatim=verbatim)
    if k.base == "S" and k.compose == "H":
        if e.p > 1.0:
            return crit_T41(ctx, k.u, spec.v, spec.w, e)
        return crit_T42(ctx, k.u, spec.v, spec.w, e)
    if k.base == "S*" and k.compose == "H*":
        if e.p > 1.0:
            return crit_T43(ctx, k.u, spec.v, spec.w, e)
        return crit_T44(ctx, k.u, spec.v, spec.w, e, verbatim=verbatim)
    raise ValueError(f"no criterion for {k.describe()} on cone {cone}")


# ---------------------------------------------------------------------------
# reductions between cones
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReducedSpec:
    """Result of a cone reduction: the new spec and an optional side constant.

    When the reduction attaches a constant-function side condition, the best
    constants satisfy c(original) ~ max(c(reduced), side_constant)."""

    spec: InequalitySpec
    rule: str
    side_constant: Optional[float] = None


def _v_transform(v: Weight, cum: Weight, a: float, p: float) -> Weight:
    """cum**(a*p) * v**(1-p)."""
    return weight_mul(weight_pow(cum, a * p), weight_pow(v, 1.0 - p))


def reduce_spec(spec: InequalitySpec, ctx: Optional[CritCtx] = None) -> ReducedSpec:
    """Rewrite a monotone-cone spec over the full nonnegative cone (or back)."""
    ctx = ctx or default_ctx()
    k, cone, v, w, e = spec.kind, spec.cone, spec.v, spec.w, spec.exps
    p = e.p
    if k.base in ("S", "S*") and k.compose is None and cone == "non_increasing":
        # R2.1: f(t) = int_t^oo h  =>  compose with the Copson transform
        Vw = b_cumulative(v)
        new_v = _v_transform(v, Vw, 1.0, p)
        new = InequalitySpec(OperatorKind(k.base, "H*", k.u), "none", new_v, w, e)
        side = _side_constant(ctx, k, v, w, e)
        return ReducedSpec(new, "R2.1", side)
    if k.base in ("S", "S*") and k.compose is None and cone == "non_decreasing":
        # R2.3: f(t) = int_0^t h  =>  compose with the Hardy transform
        Vs = _upper_cumulative(v)
        new_v = _v_transform(v, Vs, 1.0, p)
        new = InequalitySpec(OperatorKind(k.base, "H", k.u), "none", new_v, w, e)
        return ReducedSpec(new, "R2.3", None)
    if k.base in ("S", "S*") and k.compose == "H" and cone == "none":
        if p > 1.0:
            # R2.5: level-transform back to a non-increasing restricted problem
            phi, Phi = phi_weights(v, p)
            u_new = weight_mul(k.u, weight_pow(Phi, 2.0))
            new = InequalitySpec(OperatorKind(k.base, None, u_new), "non_increasing", phi, w, e)
            return ReducedSpec(new, "R2.5", None)
        if p == 1.0:
            # R2.6: v is the reciprocal cumulative; only power-form v supported
            if not (isinstance(v, PowerWeight) and v.lam == 0.0 and v.mu == 0.0 and v.alpha < 0.0):
                raise ValueError("R2.6 supports only v = Power{c, alpha} with alpha < 0")
            V = PowerWeight(1.0 / v.c, -v.alpha)
            u_new = weight_mul(k.u, weight_pow(V, 2.0))
            v_new = PowerWeight(-v.alpha / v.c, -v.alpha - 1.0)
            new = InequalitySpec(OperatorKind(k.base, None, u_new), "non_increasing", v_new, w, e)
            return ReducedSpec(new, "R2.6", None)
    raise ValueError(f"no reduction for {k.describe()} on cone {cone} with p={p}")


def reduce_spec_inner(spec: InequalitySpec) -> ReducedSpec:
    """R2.2 / R2.4: move the cumulative into the supremal weight instead."""
    k, cone, v, w, e = spec.kind, spec.cone, spec.v, spec.w, spec.exps
    p = e.p
    if k.base in ("S", "S*") and k.compose is None and cone == "non_increasing":
        Vw = b_cumulative(v)
        u_new = weight_mul(k.u, weight_pow(Vw, -2.0))
        new_v = _v_transform(v, Vw, -1.0, p)
        new = InequalitySpec(OperatorKind(k.base, "H", u_new), "none", new_v, w, e)
        return ReducedSpec(new, "R2.2", None)
    if k.base in ("S", "S*") and k.compose is None and cone == "non_decreasing":
        Vs = _upper_cumulative(v)
        u_new = weight_mul(k.u, weight_pow(Vs, -2.0))
        new_v = _v_transform(v, Vs, -1.0, p)
        new = InequalitySpec(OperatorKind(k.base, "H*", u_new), "none", new_v, w, e)
        return ReducedSpec(new, "R2.4", None)
    raise ValueError(f"no inner reduction for {k.describe()} on cone {cone}")


@dataclass(frozen=True)
class _UpperCumClosure:
    v: Weight

    def __call__(self, t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.array([self.v.cum_up(x) for x in ts])
        return out if np.ndim(t) else float(out[0])


def _upper_cumulative(v: Weight) -> Weight:
    if isinstance(v, PowerWeight) and v.lam == 0.0 and v.mu == 0.0 and v.alpha < -1.0:
        a1 = v.alpha + 1.0
        return PowerWeight(-v.c / a1, a1)
    return FuncWeight(_UpperCumClosure(v), label="V*")


def _side_constant(ctx: CritCtx, k: OperatorKind, v: Weight, w: Weight,
                   e: Exponents) -> Optional[float]:
    """||T 1||_{q,w} / ||1||_{p,v} when 0 < int_0^oo v < oo, else None."""
    vtot = ctx.int_set(ctx.ones, v).total
    if not (0.0 < vtot < INF):
        return None
    env_side = "up" if k.base == "S" else "down"
    num = _norm_q(ctx, ctx.env_weight(k.u, env_side), w, e.q)
    return xdiv(num, xpow(vtot, 1.0 / e.p))
