"""Hardy, Copson, supremal and combined operators acting on grid functions.

Every operator takes an exact step function (a :class:`GridFunction`) and
returns a :class:`GridFunction` whose knot values are either exact or
certified under-estimates of the true operator output at the knots; interior
region values then under-estimate the output on each region by the
monotonicity of the output.  This is the soundness contract the oracle
relies on: Rayleigh quotients built from these outputs never exceed the
true quotient of the step witness.

Values may be ``+inf`` (for instance the Copson transform of a function
with positive tail); such outputs carry the flag ``"has-inf"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .extreal import INF, adiv, amul, xmul
from .gridfn import Grid, GridFunction
from .weights import PowerWeight, Weight

__all__ = [
    "OperatorKind",
    "hardy",
    "copson",
    "sup_op",
    "t_ub",
    "double_sup",
    "apply_spec",
    "b_cumulative",
]

ONE = PowerWeight(1.0, 0.0)


@dataclass(frozen=True)
class OperatorKind:
    """A recipe for one of the supported operators.

    ``base``:  "S" (sup over (0, t]), "S*" (sup over [t, oo)),
               "T_ub" (t -> sup_{tau >= t} u(tau)/B(tau) * int_0^tau f b),
               "SS_ub" (t -> sup_{tau >= t} u(tau)/B(tau) * sup_{y <= tau} f(y) B(y)).
    ``compose``: for "S"/"S*" only; None, "H" (inner Hardy transform
               int_0^t) or "H*" (inner Copson transform int_t^oo).
    ``u``:     the multiplying weight of the supremal part (default 1).
    ``b``:     the averaging weight of "T_ub"/"SS_ub" (default 1).
    """

    base: str
    compose: Optional[str] = None
    u: Weight = ONE
    b: Weight = ONE

    def __post_init__(self) -> None:
        if self.base not in ("S", "S*", "T_ub", "SS_ub"):
            raise ValueError(f"unknown operator base {self.base!r}")
        if self.compose not in (None, "H", "H*"):
            raise ValueError(f"unknown composition {self.compose!r}")
        if self.base in ("T_ub", "SS_ub") and self.compose is not None:
            raise ValueError("T_ub/SS_ub do not compose")

    @classmethod
    def t_gamma(cls, gamma_over_n: float) -> "OperatorKind":
        """T_gamma: u(tau) = tau**(gamma/n), b = 1."""
        return cls("T_ub", None, PowerWeight(1.0, float(gamma_over_n)), ONE)

    def describe(self) -> str:
        inner = {"H": "oH", "H*": "oH*", None: ""}[self.compose]
        return f"{self.base}{inner}"


def b_cumulative(b: Weight) -> Weight:
    """B(t) = int_0^t b as a Weight (exact power law when possible)."""
    if isinstance(b, PowerWeight) and b.lam == 0.0 and b.mu == 0.0:
        a1 = b.alpha + 1.0
        if a1 <= 0.0:
            raise ValueError("B(t) = int_0^t b must be finite")
        return PowerWeight(b.c / a1, a1)
    probe = b.cum_low(1.0)
    if probe == INF:
        raise ValueError("B(t) = int_0^t b must be finite")
    from .weights import FuncWeight

    return FuncWeight(_CumClosure(b), label="B", mono="nondecreasing")


@dataclass(frozen=True)
class _CumClosure:
    b: Weight

    def __call__(self, t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.array([self.b.cum_low(x) for x in ts])
        return out if np.ndim(t) else float(out[0])


def _region_bounds(grid: Grid):
    ks = grid.array()
    lo = np.concatenate([[0.0], ks])
    hi = np.concatenate([ks, [INF]])
    return lo, hi


def _region_sups(w: Weight, grid: Grid) -> np.ndarray:
    lo, hi = _region_bounds(grid)
    return np.array([w.sup_on_interval(a, b) for a, b in zip(lo, hi)])


def _flags(values: np.ndarray, tail: float) -> tuple:
    return ("has-inf",) if (np.any(np.isinf(values)) or tail == INF) else ()


def hardy(f: GridFunction) -> GridFunction:
    """(H f)(t) = int_0^t f; exact at knots, non-decreasing output."""
    ks = f.grid.array()
    segv = f.region_values()
    lengths = np.concatenate([[ks[0]], np.diff(ks)])
    cum = np.cumsum(amul(segv[:-1], lengths))  # value at each knot, exact
    tail = cum[-1] if segv[-1] == 0.0 else INF
    return GridFunction(f.grid, cum, "non_decreasing", head=0.0, tail=float(tail))


def copson(f: GridFunction) -> GridFunction:
    """(H* f)(t) = int_t^oo f; exact at knots, non-increasing output."""
    ks = f.grid.array()
    segv = f.region_values()
    lengths = np.concatenate([np.diff(ks), [INF]])
    above = amul(segv[1:], lengths)  # mass of regions R_1..R_n
    rev = np.cumsum(above[::-1])[::-1]  # at knot k_j: regions R_{j+1}..R_n
    vals = rev
    return GridFunction(f.grid, vals, "non_increasing", head=float(vals[0]), tail=0.0)


def sup_op(f: GridFunction, variant: str, u: Weight = ONE) -> GridFunction:
    """S_u f (variant "S") or S*_u f (variant "S*"), exact at knots."""
    usups = _region_sups(u, f.grid)
    segv = f.region_values()
    prods = amul(usups, segv)
    if variant == "S":
        # value at knot k_j = sup over regions R_0..R_j  (tau <= k_j)
        vals = np.maximum.accumulate(prods[:-1])
        tail = max(float(vals[-1]), xmul(usups[-1], segv[-1]))
        return GridFunction(f.grid, vals, "non_decreasing", head=0.0, tail=tail)
    if variant == "S*":
        # value at knot k_j = max(u(k_j) f(k_j), sup over regions R_{j+1}..R_n)
        ks = f.grid.array()
        fk = np.asarray(f(ks), dtype=float)
        uk = np.asarray(u(ks), dtype=float)
        above = np.maximum.accumulate(prods[1:][::-1])[::-1]  # sup over R_{j+1}..R_n at j
        vals = np.maximum(amul(uk, fk), above)
        # tail region: under-estimate S* f there by the limiting sup factor
        tail = xmul(segv[-1], _limit_inf(u)) if segv[-1] > 0 else 0.0
        return GridFunction(f.grid, vals, "non_increasing", head=float(vals[0]),
                            tail=float(min(tail, vals[-1])))
    raise ValueError("variant must be 'S' or 'S*'")


def t_ub(f: GridFunction, u: Weight = ONE, b: Weight = ONE) -> GridFunction:
    """(T_{u,b} f)(t) = sup_{tau >= t} u(tau)/B(tau) int_0^tau f b."""
    B = b_cumulative(b)
    ks = f.grid.array()
    segv = f.region_values()
    Bk = np.asarray(B(ks), dtype=float)
    dB = np.empty(f.grid.n + 1)
    dB[0] = Bk[0]
    dB[1:-1] = np.diff(Bk)
    dB[-1] = INF if b.cum_up(ks[-1]) == INF else b.cum_up(ks[-1])
    cumk = np.cumsum(amul(segv[:-1], dB[:-1]))  # int_0^{k_j} f b, exact
    uB = adiv(np.asarray(u(ks), dtype=float), Bk)
    point = amul(uB, cumk)
    # tail factor: certified under-estimate of sup_{tau > M} u/B via probes
    ratio_w = _ratio_weight(u, B)
    tail_fac = ratio_w.sup_on_interval(ks[-1], INF)
    tail_term = xmul(cumk[-1] if segv[-1] == 0.0 else INF, tail_fac)
    vals = np.maximum.accumulate(np.concatenate([point, [tail_term]])[::-1])[::-1][:-1]
    tail_val = xmul(cumk[-1] if segv[-1] == 0.0 else INF, _limit_inf(ratio_w))
    return GridFunction(f.grid, vals, "non_increasing",
                        head=float(vals[0]), tail=float(min(tail_val, vals[-1])))


def double_sup(f: GridFunction, u: Weight = ONE, b: Weight = ONE) -> GridFunction:
    """t -> sup_{tau >= t} u(tau)/B(tau) * sup_{y <= tau} f(y) B(y)."""
    B = b_cumulative(b)
    ks = f.grid.array()
    segv = f.region_values()
    Bk = np.asarray(B(ks), dtype=float)
    # sup_{y <= k_j} f(y) B(y): region R_i contributes segv_i * sup_{R_i} B = segv_i * B(right)
    inner = np.maximum.accumulate(amul(segv[:-1], Bk))
    uB = adiv(np.asarray(u(ks), dtype=float), Bk)
    point = amul(uB, inner)
    ratio_w = _ratio_weight(u, B)
    tail_fac = ratio_w.sup_on_interval(ks[-1], INF)
    inner_tail = inner[-1] if segv[-1] == 0.0 else INF
    tail_term = xmul(inner_tail, tail_fac)
    vals = np.maximum.accumulate(np.concatenate([point, [tail_term]])[::-1])[::-1][:-1]
    tail_val = xmul(inner_tail, _limit_inf(ratio_w))
    return GridFunction(f.grid, vals, "non_increasing",
                        head=float(vals[0]), tail=float(min(tail_val, vals[-1])))


def _ratio_weight(u: Weight, B: Weight) -> Weight:
    if isinstance(u, PowerWeight) and isinstance(B, PowerWeight):
        return _power_ratio(u, B)
    from .weights import FuncWeight

    return FuncWeight(_RatioClosure(u, B), label="u/B")


def _power_ratio(u: PowerWeight, B: PowerWeight) -> Weight:
    if B.lam == 0.0 and B.mu == 0.0 and B.c > 0.0:
        return PowerWeight(u.c / B.c, u.alpha - B.alpha, u.lam, u.mu)
    from .weights import FuncWeight

    return FuncWeight(_RatioClosure(u, B), label="u/B")


@dataclass(frozen=True)
class _RatioClosure:
    u: Weight
    B: Weight

    def __call__(self, t):
        return adiv(self.u(t), self.B(t))


def _limit_inf(w: Weight) -> float:
    try:
        return w.limit_inf()
    except NotImplementedError:  # pragma: no cover
        return float(w(1e14))


def apply_spec(kind: OperatorKind, f: GridFunction) -> GridFunction:
    """Apply the operator described by ``kind`` to ``f``."""
    if kind.base == "T_ub":
        return t_ub(f, kind.u, kind.b)
    if kind.base == "SS_ub":
        return double_sup(f, kind.u, kind.b)
    if kind.compose == "H":
        inner = hardy(f)
    elif kind.compose == "H*":
        inner = copson(f)
    else:
        inner = f
    return sup_op(inner, kind.base, kind.u)
