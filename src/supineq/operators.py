"""Supremal, Hardy-type and combined operators on step functions.

:class:`OperatorKind` names an operator: S_u or S*_u, possibly composed with
the Hardy transform H or the Copson transform H*, or T_{u,b}.
:class:`OperatorKernel` is the one implementation of their semantics on a
grid: it maps the region values of step functions to the region values of
the operator's output, row-wise.  Output values at the knots are exact on
rows in the input's cone (but for T_{u,b} on a row with tail input, where
they are under-estimated); off the cone, plain S_u and S*_u may read below
the running-maximum scan (see :class:`OperatorKernel`).  On each region the
output is under-estimated by its monotonicity.  This is the
soundness contract the oracle relies on: Rayleigh quotients built from these
outputs never exceed the true quotient of the step witness.

Values may be ``+inf`` (for instance the Copson transform of a function
with positive tail).

Each supremal operator ends in one row-wise running maximum of products
u_i g_i of a weight table and an inner function (S: from the left; S* and
T_{u,b}: from the right).  The kernel reads it off instead of scanning
where the product is monotone, by this lemma: if two rows in [0, inf] are
both non-decreasing (or both non-increasing), so is their product under
0 * inf = 0, in floats.  Correctly rounded multiplication of nonnegative
floats is monotone in each factor, and an entry 0 * inf forces every entry
on its side to be 0 (the factor that is 0 there is 0 on that whole side),
so it is no smaller than them and no larger than the others.  A running
maximum of a monotone row is the row itself or the entry the scan starts
at, and max is exact, so the read-off equals the scan bit for bit.  The kernel checks the
table's direction in floats; the inner function's direction comes from the
operator (H f rises, H* f falls) or, without a composition, from the cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .extreal import INF, _amul, adiv
from .gridfn import Grid, region_measures
from .weights import FuncWeight, PowerWeight, Weight, cumulative, weight_mul

__all__ = [
    "OperatorKind",
    "OperatorKernel",
    "b_cumulative",
    "power_substitution",
]

ONE = PowerWeight(1.0, 0.0)


@dataclass(frozen=True)
class OperatorKind:
    """A recipe for one of the supported operators.

    ``base``:  "S" (sup over (0, t]), "S*" (sup over [t, oo)),
               "T_ub" (t -> sup_{tau >= t} u(tau)/B(tau) * int_0^tau f b).
    ``compose``: for "S"/"S*" only; None, "H" (inner Hardy transform
               int_0^t) or "H*" (inner Copson transform int_t^oo).
    ``u``:     the multiplying weight of the supremal part (default 1).
    ``b``:     the averaging weight of "T_ub" (default 1).
    """

    base: str
    compose: Optional[str] = None
    u: Weight = ONE
    b: Weight = ONE

    def __post_init__(self) -> None:
        if self.base not in ("S", "S*", "T_ub"):
            raise ValueError(f"unknown operator base {self.base!r}")
        if self.compose not in (None, "H", "H*"):
            raise ValueError(f"unknown composition {self.compose!r}")
        if self.base == "T_ub" and self.compose is not None:
            raise ValueError("T_ub does not compose")

    @classmethod
    def t_gamma(cls, gamma_over_n: float) -> "OperatorKind":
        """T_gamma: u(tau) = tau**(gamma/n), b = 1."""
        return cls("T_ub", None, PowerWeight(1.0, float(gamma_over_n)), ONE)

    def describe(self) -> str:
        inner = {"H": "oH", "H*": "oH*", None: ""}[self.compose]
        return f"{self.base}{inner}"


def b_cumulative(b: Weight) -> Weight:
    """B(t) = int_0^t b as a Weight (exact power law when possible)."""
    if b.cum_low(1.0) == INF:
        raise ValueError("B(t) = int_0^t b must be finite")
    return cumulative(b, "low")


def power_substitution(u: Weight, b: Weight, p: float) -> Tuple[Weight, Weight]:
    """The power substitution for T_{u,b} with p <= 1: ``(u**p / p, B**(p-1) b)``.

    With these weights B^ = B**p / p, and on every indicator chi_(0,a] the
    quotient of T_{u^,b^} at exponents (1, q/p) is Q**p / p, where Q is the
    quotient of T_{u,b} at (p, q).  The two best constants are only
    equivalent: over all non-increasing f the identity becomes a two-sided
    bound, not an equality."""
    B = b_cumulative(b)
    return u.power(p).scale(1.0 / p), weight_mul(B.power(p - 1.0), b)


class OperatorKernel:
    """The step-function semantics of one operator on one grid.

    Built from ``(kind, cone, grid)``, it holds the weight arrays the
    operator reads; ``apply`` maps an ``(m, n+1)`` stack of input region
    values (the canonical semantics of ``cone``) to the output region values,
    row by row.  Outputs are exact at the knots on rows in the cone (off it,
    plain S and S* may read below the scan, see ``monotone`` below), and on
    each region they under-estimate the true output by its monotonicity.  Beyond the last
    knot T_ub reads int_0^tau f b as its value there (f b >= 0, so this
    under-estimates): on a row with tail input its knot outputs do too.

    ``apply`` keeps four properties, row by row and up to rounding:

    (i) subadditive: ``apply(f + g) <= apply(f) + apply(g)``;
    (ii) positively homogeneous: ``apply(c f) = c apply(f)`` for c > 0;
    (iii) monotone: f <= g implies ``apply(f) <= apply(g)``;
    (iv) refinable: a witness scores at most the same step function on the
         grid with a knot inserted between each pair of knots.

    (iv) follows from the soundness contract above, which the oracle's lower
    bounds rest on; (i)-(iii) let a cone's extreme rays bound every quotient
    when p <= 1 <= q.  Each output is a maximum of nonnegative multiples of
    the input's region values or of their running sums, which gives
    (i)-(iii), but for the ``np.minimum`` on the tail region of S* and T_ub.
    Its second argument, the value at the last knot, is at least the tail
    input times the sup of u (of u/B for T_ub) on the tail region, and that
    sup is at least the liminf of the same weight at infinity.  So the
    minimum always picks its first argument, the tail input times that
    liminf, which is linear.
    This holds under 0 * inf = 0 too: a zero tail input makes both products
    0, and an infinite liminf makes the sup infinite.

    ``monotone`` is the direction every scanned product row takes on inputs
    in the cone, or None: the direction of the inner g (non-decreasing under
    H and T_ub's inner integral, non-increasing under H*, the cone's without
    a composition, none on ``none``) when the weight table (``u_rsups[:-1]``
    for S, ``u_rsups[1:]`` for S*, ``uB`` for T_ub: u/B at the knots, then its
    sup on the tail region) runs the same way in floats.  Where it is set,
    ``apply`` reads the running maximum off (module docstring).  Under H, H*
    and T_ub that is exact on every row; for plain S and S* only on rows in
    the cone, which every oracle stage builds.  On a row off the cone each
    output is one of the products the scan takes the maximum of, so it reads
    at most the scanned output and the quotient stays a lower bound."""

    def __init__(self, kind: OperatorKind, cone: str, grid: Grid):
        self.kind = kind
        self.cone = cone
        ks = grid.array()
        if kind.base == "T_ub":
            B = b_cumulative(kind.b)
            self.dB = region_measures(grid, kind.b)
            uB = adiv(np.asarray(kind.u(ks), dtype=float), np.asarray(B(ks), dtype=float))
            ratio_w = _ratio_weight(kind.u, B)
            # u/B at the knots, then its sup on the tail region
            self.uB = np.append(uB, ratio_w.sup_on_interval(ks[-1], INF))
            self.uB_liminf = ratio_w.limit_inf()
            # the inner int_0^tau f b is non-decreasing on every input
            self.monotone = _product_direction(self.uB, "non_decreasing")
        else:
            lo = np.concatenate([[0.0], ks])
            hi = np.concatenate([ks, [INF]])
            self.u_rsups = kind.u.sup_on_intervals(lo, hi)
            self.u_knots = np.asarray(kind.u(ks), dtype=float)
            self.u_liminf = kind.u.limit_inf()
            if kind.compose is not None:
                self.lengths = np.concatenate([[ks[0]], np.diff(ks), [INF]])
            table = self.u_rsups[:-1] if kind.base == "S" else self.u_rsups[1:]
            self.monotone = _product_direction(table, _inner_direction(kind, cone))

    def apply(self, segv: np.ndarray) -> np.ndarray:
        """The output region values of ``segv``, whose entries lie in
        [0, inf], as a new array.  For callers inside
        ``np.errstate(all="ignore")``, as the oracle's engine is.

        Where ``monotone`` is set, the running maximum is read off.  For plain
        S and S* that is exact only on rows in the cone (class docstring); off
        it the outputs read at most the scanned ones, so they stay sound."""
        k = self.kind
        out = np.empty(segv.shape)
        if k.base == "T_ub":
            # g: int_0^{k_j} f b at the knots (``hardy_at_knots`` with b's
            # region masses as lengths) and, beyond the grid, its value at
            # the last knot: the tail region adds nothing.  Built in place,
            # with no copy to append that column.
            g = _amul(segv, self.dB)
            g[:, -1] = 0.0
            np.add.accumulate(g, axis=1, out=g)
            self._running_max(self.uB, g, out, from_right=True)
            np.minimum(_amul(g[:, -1:], self.uB_liminf), out[:, -2:-1], out=out[:, -1:])
            return out
        # supremal (possibly composed) operators act on the inner g's regions
        zeros = np.zeros((segv.shape[0], 1))
        if k.compose == "H":
            gsegv = np.concatenate([zeros, hardy_at_knots(segv, self.lengths)], axis=1)
        elif k.compose == "H*":
            gsegv = np.concatenate([copson_at_knots(segv, self.lengths), zeros], axis=1)
        else:
            gsegv = segv
        if k.base == "S":
            # out(k_j) = sup over regions R_0..R_j; output is non-decreasing, so
            # region R_i takes out(k_{i-1}) and the tail region takes out(k_{n-1})
            out[:, 0] = 0.0
            self._running_max(self.u_rsups[:-1], gsegv[:, :-1], out[:, 1:], from_right=False)
            return out
        # S*: out(k_j) = max(u(k_j) g(k_j), sup over regions R_{j+1}..R_n);
        # output is non-increasing, region R_i takes out(k_i)
        vals = out[:, :-1]
        self._running_max(self.u_rsups[1:], gsegv[:, 1:], vals, from_right=True)
        non_increasing = _inner_direction(k, self.cone) == "non_increasing"
        gk = gsegv[:, :-1] if non_increasing else gsegv[:, 1:]
        np.maximum(_amul(self.u_knots, gk), vals, out=vals)
        np.minimum(_amul(gsegv[:, -1:], self.u_liminf), vals[:, -1:], out=out[:, -1:])
        return out

    def _running_max(self, table: np.ndarray, g: np.ndarray, out: np.ndarray,
                     from_right: bool) -> None:
        """Write the row-wise running maximum of ``table * g`` into ``out``,
        from the left or from the right.  Where the product is monotone it
        is read off: the row itself when its maximum runs along the scan,
        else the entry the scan starts at, broadcast."""
        if self.monotone is None:
            prods = _amul(table, g)
            if from_right:
                np.maximum.accumulate(prods[:, ::-1], axis=1, out=out[:, ::-1])
            else:
                np.maximum.accumulate(prods, axis=1, out=out)
        elif (self.monotone == "non_increasing") == from_right:
            _amul(table, g, out=out)
        else:
            start = slice(-1, None) if from_right else slice(0, 1)
            out[:] = _amul(table[start], g[:, start])


def hardy_at_knots(segv: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(H f)(k_j) = int_0^{k_j} f at every knot, row-wise; exact, non-decreasing.
    For callers inside ``np.errstate(all="ignore")``, as the kernel is."""
    return np.add.accumulate(_amul(segv[:, :-1], lengths[:-1]), axis=1)


def copson_at_knots(segv: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(H* f)(k_j) = int_{k_j}^oo f, the mass of regions R_{j+1}..R_n, row-wise;
    exact, non-increasing.  For callers inside ``np.errstate(all="ignore")``, as
    the kernel is."""
    above = _amul(segv[:, 1:], lengths[1:])
    return np.add.accumulate(above[:, ::-1], axis=1)[:, ::-1]


def _inner_direction(kind: OperatorKind, cone: str) -> str:
    """The direction of the inner g of S or S* on rows in ``cone``: H f is
    non-decreasing and H* f non-increasing on every input, and without a
    composition g is the input, with the cone's direction ("none" has none)."""
    return {"H": "non_decreasing", "H*": "non_increasing"}.get(kind.compose, cone)


def _product_direction(table: np.ndarray, g_direction: str) -> Optional[str]:
    """The direction every row ``_amul(table, g)`` shares with g, for g of
    direction ``g_direction``, or None.  That holds when the table, checked
    in floats, runs the same way (a constant one runs both ways): see the
    module docstring."""
    if g_direction == "non_decreasing":
        steps = table[1:] >= table[:-1]
    elif g_direction == "non_increasing":
        steps = table[1:] <= table[:-1]
    else:
        return None
    return g_direction if steps.all() else None


def _ratio_weight(u: Weight, B: Weight) -> Weight:
    """u/B as a Weight (exact power law when possible)."""
    if (isinstance(u, PowerWeight) and isinstance(B, PowerWeight)
            and B.lam == 0.0 and B.mu == 0.0 and B.c > 0.0):
        return PowerWeight(u.c / B.c, u.alpha - B.alpha, u.lam, u.mu)
    return FuncWeight(_RatioClosure(u, B), label="u/B")


@dataclass(frozen=True)
class _RatioClosure:
    u: Weight
    B: Weight

    def __call__(self, t):
        return adiv(self.u(t), self.B(t))
