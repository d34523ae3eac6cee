"""Step functions on logarithmic grids, as knot-value rows.

A step function on a :class:`Grid` with knots k_0 < ... < k_{n-1} is its
array of n nonnegative values at the knots; an ``(m, n)`` array is a stack
of m of them, one per row.  The knots cut (0, oo) into n+1 regions

    R_0 = (0, k_0],  R_i = (k_{i-1}, k_i]  (i = 1..n-1),  R_n = (k_{n-1}, oo),

and :func:`region_values` states the canonical semantics of each cone on
them.  A non-increasing row takes values[i] on R_i (so on (0, k_0] too) and
0 on R_n.  Any other row takes 0 on R_0 and values[i] on R_{i+1}; pointwise
it is values[i] on [k_i, k_{i+1}), so it keeps its last value on the tail.
With these semantics each row belongs to its cone, and weighted norms are
exact sums of region values against :func:`region_measures`.  The samplers
draw reproducible random rows of a cone, each (grid, seed) once per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .extreal import INF
from .weights import Weight

__all__ = [
    "Grid",
    "make_log_grid",
    "region_values",
    "region_measures",
    "sample_monotone",
    "sample_nonneg",
]


@dataclass(frozen=True)
class Grid:
    """Strictly increasing positive finite knots.  The hash is that of the
    knot tuple, taken once here: every memo keyed by a grid reads it."""

    knots: tuple

    def __post_init__(self) -> None:
        ks = np.asarray(self.knots, dtype=float)
        if ks.ndim != 1 or len(ks) < 2:
            raise ValueError("grid needs at least 2 knots")
        if not (np.all(ks > 0) and np.all(np.diff(ks) > 0) and ks[-1] < INF):
            raise ValueError("knots must be positive, finite and strictly increasing")
        object.__setattr__(self, "knots", tuple(ks.tolist()))
        object.__setattr__(self, "_hash", hash(self.knots))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.knots)

    def array(self) -> np.ndarray:
        return np.asarray(self.knots)


def make_log_grid(eps: float, M: float, n: int) -> Grid:
    """Log-spaced grid of ``n`` knots from eps to M (inclusive).  Equal
    arguments give the same (immutable) grid object."""
    if not (0.0 < eps < M < INF):
        raise ValueError("need 0 < eps < M < oo")
    if n < 2:
        raise ValueError("need at least 2 knots")
    return _log_grid(float(eps), float(M), int(n))


@lru_cache(maxsize=16)
def _log_grid(eps: float, M: float, n: int) -> Grid:
    return Grid(tuple(np.geomspace(eps, M, n).tolist()))


DEFAULT_GRID = dict(eps=1e-6, M=1e6, n=512)


def region_values(F: np.ndarray, cone: str, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Region values of ``(n,)`` or ``(m, n)`` knot values: n+1 per row,
    written into ``out`` if given, else into a new float array.

    Non-increasing: the values on R_0..R_{n-1}, then 0 on R_n.  Otherwise: 0
    on R_0, then the values on R_1..R_n."""
    if out is None:
        out = np.empty(F.shape[:-1] + (F.shape[-1] + 1,))
    if cone == "non_increasing":
        out[..., :-1], out[..., -1] = F, 0.0
    else:
        out[..., 0], out[..., 1:] = 0.0, F
    return out


_MEMO_SIZE = 64  # (grid, weight) mass arrays kept: 64 x 513 floats at n=512, about 0.26 MB


@lru_cache(maxsize=_MEMO_SIZE)
def region_measures(grid: Grid, w: Weight) -> np.ndarray:
    """``[W(k0), W(k1)-W(k0), ..., W_*(k_{n-1})]`` (length n+1, entries in [0, inf]).

    The end entries are ``cum_low`` at the first knot and ``cum_up`` at the
    last.  An interior entry is the difference of ``cum_low`` at its two
    knots, one ``cum_low`` per knot, or ``w._mass`` over the region where
    ``cum_low`` reads +inf (w diverges at 0).  No mass reads NaN: every
    weight family's ``_mass`` is in [0, inf].

    The array is read-only and shared: a process-wide memo of the last 64
    (grid, weight) pairs, keyed by value (grids and weights are frozen
    dataclasses, hashable by construction, so equal constructions hash
    alike), serves every repeat."""
    ks = grid.array()
    low = [w.cum_low(k) for k in ks]
    out = np.empty(grid.n + 1)
    out[0] = low[0]
    out[1:-1] = [max(lb - la, 0.0) if lb < INF else w._mass(a, b)
                 for a, b, la, lb in zip(ks[:-1], ks[1:], low[:-1], low[1:])]
    out[-1] = w.cum_up(ks[-1])
    out.flags.writeable = False
    return out


_SAMPLE_MEMO_SIZE = 1024  # (grid, seed) rows kept per sampler: 1024 x 4.3 KB at n=512, about 4.5 MB


def _normalized(vals: np.ndarray) -> np.ndarray:
    """``vals`` over its maximum where that is positive, made read-only."""
    m = vals.max()
    if m > 0:
        vals = vals / m
    vals.flags.writeable = False
    return vals


@lru_cache(maxsize=_SAMPLE_MEMO_SIZE)
def _rising_sample(grid: Grid, seed: int) -> np.ndarray:
    """The non-decreasing draw of :func:`sample_monotone`; both monotone
    cones are served from it."""
    rng = np.random.default_rng(seed)
    n = grid.n
    heavy = rng.random(n) < 0.2
    incs = np.where(heavy, rng.pareto(1.5, n) + 1.0, rng.exponential(1.0, n))
    # sparsify so plateaus occur
    incs *= rng.random(n) < 0.35
    return _normalized(np.cumsum(incs))


def sample_monotone(cone: str, grid: Grid, seed: int) -> np.ndarray:
    """Knot values of a reproducible random monotone step function with
    heavy-tailed jumps.

    The row is read-only and shared: a process-wide memo of the last 1024
    (grid, seed) draws serves every repeat, and the non-increasing row is the
    reversed view of the non-decreasing one.  A caller that writes copies
    first."""
    if cone not in ("non_increasing", "non_decreasing"):
        raise ValueError("sample_monotone needs a monotone cone")
    vals = _rising_sample(grid, seed)
    return vals[::-1] if cone == "non_increasing" else vals


@lru_cache(maxsize=_SAMPLE_MEMO_SIZE)
def sample_nonneg(grid: Grid, seed: int) -> np.ndarray:
    """Knot values of a reproducible random nonnegative step function (no
    monotonicity).

    The row is read-only and shared, served by a memo like
    :func:`sample_monotone`'s: a caller that writes copies first."""
    rng = np.random.default_rng(seed)
    n = grid.n
    vals = rng.exponential(1.0, n) * (rng.random(n) < 0.3)
    heavy = rng.random(n) < 0.05
    return _normalized(np.where(heavy, vals * (rng.pareto(1.5, n) + 1.0), vals))
