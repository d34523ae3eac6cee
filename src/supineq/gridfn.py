"""Step functions on logarithmic grids, with exact weighted norms.

A :class:`GridFunction` is a nonnegative step function determined by its
values at the knots of a :class:`Grid` plus head/tail policies.  The
canonical step semantics depend on the cone:

* ``non_increasing``:  f = values[i] on (k[i-1], k[i]]  (head region
  (0, k[0]] takes values[0], tail region (k[-1], oo) takes tail, default 0);
* ``non_decreasing`` and ``none``: f = values[i] on [k[i], k[i+1])  (head
  region (0, k[0]) takes head, default 0; tail region [k[-1], oo) takes
  values[-1] for the monotone cone, an explicit tail otherwise).

With these semantics the function genuinely belongs to its cone, weighted
norms are exact sums over regions, and sampled continuum functions are
represented by their conservative step minorant/majorant depending on the
``rule`` argument of :func:`weighted_norm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .extreal import INF, amul, apow, xpow
from .weights import Weight, _interval_mass

__all__ = [
    "Grid",
    "GridFunction",
    "make_log_grid",
    "region_measures",
    "weighted_norm",
    "sample_monotone",
    "sample_nonneg",
    "project_cone",
]

CONES = ("non_increasing", "non_decreasing", "none")


@dataclass(frozen=True)
class Grid:
    """Strictly increasing positive knots."""

    knots: tuple

    def __post_init__(self) -> None:
        ks = np.asarray(self.knots, dtype=float)
        if ks.ndim != 1 or len(ks) < 2:
            raise ValueError("grid needs at least 2 knots")
        if np.any(ks <= 0) or np.any(np.diff(ks) <= 0):
            raise ValueError("knots must be positive and strictly increasing")
        object.__setattr__(self, "knots", tuple(ks.tolist()))

    @property
    def eps(self) -> float:
        return self.knots[0]

    @property
    def M(self) -> float:
        return self.knots[-1]

    @property
    def n(self) -> int:
        return len(self.knots)

    def array(self) -> np.ndarray:
        return np.asarray(self.knots)


def make_log_grid(eps: float, M: float, n: int) -> Grid:
    """Log-spaced grid of ``n`` knots from eps to M (inclusive)."""
    if not (0.0 < eps < M < INF):
        raise ValueError("need 0 < eps < M < oo")
    if n < 2:
        raise ValueError("need at least 2 knots")
    return Grid(tuple(np.geomspace(eps, M, int(n)).tolist()))


DEFAULT_GRID = dict(eps=1e-6, M=1e6, n=512)


@dataclass(frozen=True)
class GridFunction:
    """Nonnegative step function on a grid, tagged with its cone."""

    grid: Grid
    values: np.ndarray
    cone: str = "none"
    head: Optional[float] = None
    tail: Optional[float] = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise ValueError("values must match the grid size")
        if np.any(vals < 0) or np.any(np.isnan(vals)):
            raise ValueError("values must be nonnegative")
        if self.cone not in CONES:
            raise ValueError(f"unknown cone {self.cone!r}")
        with np.errstate(invalid="ignore"):  # inf - inf along a plateau is fine
            diffs = np.diff(vals)
        if self.cone == "non_increasing" and np.any(diffs > 1e-12 * (1 + vals[:-1])):
            raise ValueError("values violate the non-increasing cone")
        if self.cone == "non_decreasing" and np.any(diffs < -1e-12 * (1 + vals[:-1])):
            raise ValueError("values violate the non-decreasing cone")
        head = self.head
        tail = self.tail
        if head is None:
            head = float(vals[0]) if self.cone == "non_increasing" else 0.0
        if tail is None:
            tail = float(vals[-1]) if self.cone == "non_decreasing" else 0.0
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "head", float(head))
        object.__setattr__(self, "tail", float(tail))

    # Regions: R_0 = (0, k0], R_i = (k_{i-1}, k_i] (i = 1..n-1), R_n = (k_{n-1}, oo).
    def region_values(self) -> np.ndarray:
        """Step value on each of the n+1 regions under canonical semantics."""
        v = self.values
        if self.cone == "non_increasing":
            return np.concatenate([v, [self.tail]])
        return np.concatenate([[self.head], v])

    def __call__(self, t):
        ks = self.grid.array()
        t = np.asarray(t, dtype=float)
        if self.cone == "non_increasing":
            idx = np.searchsorted(ks, t, side="left")  # region index
        else:
            idx = np.searchsorted(ks, t, side="right")
        rv = self.region_values()
        out = rv[np.clip(idx, 0, len(rv) - 1)]
        return out if out.ndim else float(out)


def region_measures(grid: Grid, w: Weight) -> np.ndarray:
    """``[W(k0), W(k1)-W(k0), ..., W_*(k_{n-1})]`` (length n+1, entries may be +inf).

    Each interior entry is ``w.integrate`` over its region, from one
    ``cum_low`` per knot and ``cum_up`` only at the knots that need it."""
    ks = grid.array()
    low = [w.cum_low(k) for k in ks]
    out = np.empty(grid.n + 1)
    out[0] = low[0]
    out[1:-1] = [_interval_mass(w, a, b, la, lb)
                 for a, b, la, lb in zip(ks[:-1], ks[1:], low[:-1], low[1:])]
    out[-1] = w.cum_up(ks[-1])
    return out


def weighted_norm(f: GridFunction, p: float, w: Weight, rule: str = "canonical",
                  measures: Optional[np.ndarray] = None) -> float:
    """``(int f^p w)^{1/p}`` (p < oo) or ``esssup f w``-style sup norm (p = oo).

    ``rule`` selects the step value representing f on interior regions when the
    values are knot samples of a continuum function:

    * ``canonical`` - the exact step semantics of the cone (equals ``under``);
    * ``under``     - right endpoint for non-increasing f, left for
      non-decreasing (certified minorant);
    * ``over``      - the opposite endpoints (certified majorant on the
      interior regions).
    """
    if rule not in ("canonical", "under", "over"):
        raise ValueError("rule must be canonical/under/over")
    segv = f.region_values().copy()
    if rule == "over" and f.cone in ("non_increasing", "non_decreasing"):
        v = f.values
        if f.cone == "non_increasing":
            segv = np.concatenate([[f.head], v])  # left endpoints
        else:
            segv = np.concatenate([v, [max(f.tail, v[-1])]])  # right endpoints
    if p == INF:
        ks = f.grid.array()
        sups = [w.sup_on_interval(0.0, ks[0])]
        sups += [w.sup_on_interval(a, b) for a, b in zip(ks[:-1], ks[1:])]
        sups.append(w.sup_on_interval(ks[-1], INF))
        return float(np.max(amul(segv, np.asarray(sups))))
    if measures is None:
        measures = region_measures(f.grid, w)
    terms = amul(apow(segv, p), measures)
    return xpow(float(np.sum(terms)), 1.0 / p)


def sample_monotone(cone: str, grid: Grid, seed: int) -> GridFunction:
    """Reproducible random monotone step function with heavy-tailed jumps."""
    if cone not in ("non_increasing", "non_decreasing"):
        raise ValueError("sample_monotone needs a monotone cone")
    rng = np.random.default_rng(seed)
    n = grid.n
    heavy = rng.random(n) < 0.2
    incs = np.where(heavy, rng.pareto(1.5, n) + 1.0, rng.exponential(1.0, n))
    # sparsify so plateaus occur
    incs *= rng.random(n) < 0.35
    vals = np.cumsum(incs)
    if cone == "non_increasing":
        vals = vals[::-1].copy()
    m = vals.max()
    if m > 0:
        vals = vals / m
    return GridFunction(grid, vals, cone)


def sample_nonneg(grid: Grid, seed: int) -> GridFunction:
    """Reproducible random nonnegative step function (no monotonicity)."""
    rng = np.random.default_rng(seed)
    n = grid.n
    vals = rng.exponential(1.0, n) * (rng.random(n) < 0.3)
    heavy = rng.random(n) < 0.05
    vals = np.where(heavy, vals * (rng.pareto(1.5, n) + 1.0), vals)
    m = vals.max()
    if m > 0:
        vals = vals / m
    return GridFunction(grid, vals, "none")


def project_cone(f: GridFunction, cone: str) -> GridFunction:
    """Smallest monotone majorant-style projection onto the cone."""
    vals = np.asarray(f.values, dtype=float)
    if cone == "non_increasing":
        proj = np.maximum.accumulate(vals[::-1])[::-1]
        return GridFunction(f.grid, proj, cone)
    if cone == "non_decreasing":
        proj = np.maximum.accumulate(vals)
        return GridFunction(f.grid, proj, cone)
    if cone == "none":
        return GridFunction(f.grid, vals, cone, head=f.head, tail=f.tail)
    raise ValueError(f"unknown cone {cone!r}")
