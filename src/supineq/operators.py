"""Supremal, Hardy-type and combined operators on step functions.

:class:`OperatorKind` names an operator: S_u or S*_u, possibly composed with
the Hardy transform H or the Copson transform H*, or T_{u,b}, which is
S*_{u/B} composed with H_b f = int_0^. f b.  :class:`OperatorKernel` is the
one implementation of their semantics on a grid: it maps the region values
of step functions to the region values of the operator's output, row-wise.
Output values at the knots are exact on rows in the input's cone, but where
S* reads a rising inner transform (S*oH and T_{u,b}) on a row with tail
input: beyond the last knot H f and H_b f read their value there, so those
knot outputs are under-estimated.  Off the cone, plain S_u and S*_u may
read below the running-maximum scan (see :class:`OperatorKernel`).  On each
region the output is under-estimated by its monotonicity.  This is the
soundness contract the oracle relies on: Rayleigh quotients built from these
outputs never exceed the true quotient of the step witness.

Values may be ``+inf`` (for instance the Copson transform of a function
with positive tail).

Each supremal operator ends in one row-wise running maximum of products
u_i g_i of a weight table and an inner function (S: from the left; S*:
from the right).  The kernel reads it off instead of scanning
where the product is monotone, by this lemma: if two rows in [0, inf] are
both non-decreasing (or both non-increasing), so is their product under
0 * inf = 0, in floats.  Correctly rounded multiplication of nonnegative
floats is monotone in each factor, and an entry 0 * inf forces every entry
on its side to be 0 (the factor that is 0 there is 0 on that whole side),
so it is no smaller than them and no larger than the others.  A running
maximum of a monotone row is the row itself or the entry the scan starts
at, and max is exact, so the read-off equals the scan bit for bit.  The kernel checks the
table's direction in floats; the inner function's direction comes from the
inner transform (H f and H_b f rise, H* f falls) or, without one, from the
cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .extreal import INF, _product, adiv
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
    row by row.  Every operator is S or S* over an inner g: the input itself,
    H f, H* f, or for T_{u,b} the transform H_b f = int_0^. f b, since
    T_{u,b} = S*_{u/B} o H_b.  Outputs are exact at the knots on rows in the
    cone (off it, plain S and S* may read below the scan, see ``monotone``
    below), and on each region they under-estimate the true output by its
    monotonicity.  Beyond the last knot a rising g (H f, H_b f) reads its
    value at that knot (f >= 0, so this under-estimates); under S* (S*oH and
    T_{u,b}) a row with tail input then reads low at the knots too.

    ``table`` is the weight of the running maximum: u's region suprema on
    R_0..R_{n-1} for S; for S* the sup on R_{j+1} at knot j, and where g
    does not fall, u(k_j) folded in as ``max(u(k_j), sup_{R_{j+1}} u)``.
    There g(k_j) is g's value on R_{j+1} (plain S* on ``none`` reads it so
    too), and rounded multiplication of nonnegative floats is monotone, with
    ``fmax`` sending 0 * inf to 0 on both sides, so ``max(a, b) * g`` is the
    larger of the two products, bit for bit.  The suffix maximum then also
    takes u(k_i) g(k_i) for i > j: values of u g on [k_j, oo), as the knot
    term u(k_j) g(k_j) is at j, so the outputs stay exact.  Where u's sup on
    R_{i+1} bounds u(k_i), as for every continuous weight, these terms add
    nothing to the region scan.  A ``PiecewisePowerWeight`` that jumps down
    at a grid knot k_i gives u(k_i) its left segment's value, above that
    sup, and the outputs at the earlier knots then read u(k_i) g(k_i) where
    the region scan read lower.  Where g falls, u(k_j) g(k_j) reads g on
    R_j, and ``u_knots`` keeps it as a term of its own.  For T_{u,b} the
    knot values are u/B and the region suprema are 0 but on the tail
    region, where they are the sup of u/B there.

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
    (i)-(iii).  On the tail region S* reads g's tail value times
    ``u_liminf``: the weight's (u's, or u/B's for T_{u,b}) liminf at
    infinity, clamped at construction to ``table[-1]``.  That entry is at
    least the sup of the weight on the tail region, and the sup is at least
    the liminf, so the clamp does not bind and the tail output is g's tail
    value times the liminf.  Where rounding made it bind, the tail output
    would read lower, a sound under-estimate, and it stays linear.  Either
    way it is at most the output at the last knot, which is at least g's
    tail value times ``table[-1]``; under 0 * inf = 0 too, since a zero tail
    value makes both products 0 and an infinite clamped liminf makes
    ``table[-1]`` infinite.

    ``products`` holds the product ``apply`` takes of a row with each fixed
    factor (``table``, ``lengths`` on the regions the inner transform sums,
    ``u_knots``, ``u_liminf``), decided once here by ``extreal._product``:
    one ``np.multiply`` where every entry of the factor is finite and
    positive, else ``_amul``, which also sends 0 * inf to 0.

    ``monotone`` is the direction every scanned product row takes on inputs
    in the cone, or None: the direction of g (non-decreasing under H and
    H_b, non-increasing under H*, the cone's without a composition, none on
    ``none``) when ``table`` runs the same way in floats.  Where it is set,
    ``apply`` reads the running maximum off (module docstring).  Under H, H*
    and H_b that is exact on every row; for plain S and S* only on rows in
    the cone, which every oracle stage builds.  On a row off the cone each
    output is one of the products the scan takes the maximum of, so it reads
    at most the scanned output and the quotient stays a lower bound.

    ``reach`` is the side of an input region r on which a change of the
    input there can move outputs: ``"above"`` (regions r..n) for S and SoH,
    ``"below"`` (regions 0..r) for S* and S*oH*, None for SoH*, S*oH and
    T_{u,b}, whose outputs it can move anywhere.  It holds bit for bit, on
    every row: ``apply`` writes each output region from g on one side of
    it only, and g on one side of its input.  S writes region i+1 from g
    on R_0..R_i (the scan's prefix, the row itself, or its first entry);
    S* writes region i < n from g on R_i..R_n (the suffix, ``u_knots``
    against g on R_i, or the last entry) and region n from g on R_n.
    Without a composition g is the input.  H f on R_{i+1} is a running sum
    of the input on R_0..R_i, and H* f on R_i one of the input on
    R_{i+1}..R_n, each accumulated from the side it starts at, so its
    earlier entries do not read later ones."""

    u_knots: Optional[np.ndarray] = None  # u at the knots, for S* where g falls
    u_liminf: Optional[float] = None  # the tail factor of S* and T_ub

    def __init__(self, kind: OperatorKind, cone: str, grid: Grid):
        self.kind, self.cone = kind, cone
        ks = grid.array()
        if kind.base == "T_ub":
            B = b_cumulative(kind.b)
            ratio = _ratio_weight(kind.u, B)
            self.inner, self.lengths = "H_b", region_measures(grid, kind.b)
            weight = ratio
            # u/B H_b f is read at the knots and, beyond them, with u/B's sup
            # on the tail region
            uB = adiv(np.asarray(kind.u(ks), dtype=float), np.asarray(B(ks), dtype=float))
            self.table = np.append(uB[:-1], np.maximum(uB[-1], ratio.sup_on_interval(ks[-1], INF)))
        else:
            self.inner = kind.compose
            if self.inner is not None:
                self.lengths = np.diff(ks, prepend=0.0, append=INF)
            u_rsups = kind.u.sup_on_intervals(np.append(0.0, ks), np.append(ks, INF))
            weight = kind.u
            if kind.base == "S":
                self.table = u_rsups[:-1]
            elif _inner_direction(self.inner, cone) == "non_increasing":
                self.table, self.u_knots = u_rsups[1:], np.asarray(kind.u(ks), dtype=float)
            else:
                self.table = np.maximum(np.asarray(kind.u(ks), dtype=float), u_rsups[1:])
        self.monotone = _product_direction(self.table, _inner_direction(self.inner, cone))
        self.products = {"table": _product(self.table)}
        if self.inner is not None:  # the regions the inner transform sums
            self.products["lengths"] = _product(self.lengths[1:] if self.inner == "H*"
                                                else self.lengths[:-1])
        if self.u_knots is not None:
            self.products["u_knots"] = _product(self.u_knots)
        if kind.base != "S":  # the weight's liminf, clamped (class docstring)
            self.u_liminf = min(float(weight.limit_inf()), float(self.table[-1]))
            self.products["u_liminf"] = _product(self.u_liminf)

    @property
    def reach(self) -> Optional[str]:
        """The side of a changed input region the outputs can move on (class docstring)."""
        return _REACH.get((self.kind.base, self.inner))

    def apply(self, segv: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The output region values of ``segv``, whose entries lie in
        [0, inf], written into ``out`` (an array of ``segv``'s shape that
        does not overlap it) if given, else into a new array.  For callers
        inside ``np.errstate(all="ignore")``, as the oracle's engine is.

        Where ``monotone`` is set, the running maximum is read off.  For plain
        S and S* that is exact only on rows in the cone (class docstring); off
        it the outputs read at most the scanned ones, so they stay sound."""
        g = self._inner(segv)
        if out is None:
            out = np.empty(segv.shape)
        if self.kind.base == "S":
            # out(k_j) = sup over regions R_0..R_j; output is non-decreasing, so
            # region R_i takes out(k_{i-1}) and the tail region takes out(k_{n-1})
            out[:, 0] = 0.0
            self._running_max(g[:, :-1], out[:, 1:], from_right=False)
            return out
        # S*: out(k_j) = max(u(k_j) g(k_j), sup over regions R_{j+1}..R_n);
        # output is non-increasing, region R_i takes out(k_i)
        vals = out[:, :-1]
        self._running_max(g[:, 1:], vals, from_right=True)
        if self.u_knots is not None:  # g falls; elsewhere u(k_j) is in ``table``
            np.maximum(self.products["u_knots"](self.u_knots, g[:, :-1]), vals, out=vals)
        # the tail region reads g's tail value times the clamped liminf, which
        # is 0 under 0 * inf = 0 where the liminf is 0 (every T_ub kernel whose
        # u/B vanishes at infinity)
        if self.u_liminf == 0.0:
            out[:, -1] = 0.0
        else:
            self.products["u_liminf"](g[:, -1:], self.u_liminf, out=out[:, -1:])
        return out

    def _inner(self, segv: np.ndarray) -> np.ndarray:
        """The region values of g: ``segv`` itself, or H f, H_b f or H* f at
        the knots, built in one new array.  H f and H_b f rise: region R_{i+1}
        takes their value at k_i and R_0 takes 0.  H* f falls: region R_i
        takes its value at k_i and R_n takes 0.  Each is a running sum of the
        input's region masses, exact at the knots."""
        if self.inner is None:
            return segv
        g = np.empty(segv.shape)
        if self.inner == "H*":  # regions R_n..R_1 summed into knots k_{n-1}..k_0
            g[:, -1], mass, src = 0.0, g[:, -2::-1], slice(None, 0, -1)
        else:  # regions R_0..R_{n-1} summed into knots k_0..k_{n-1}
            g[:, 0], mass, src = 0.0, g[:, 1:], slice(None, -1)
        times = self.products["lengths"]
        np.add.accumulate(times(segv[:, src], self.lengths[src], out=mass), axis=1, out=mass)
        return g

    def _running_max(self, g: np.ndarray, out: np.ndarray, from_right: bool) -> None:
        """Write the row-wise running maximum of ``table * g`` into ``out``,
        from the left or from the right.  Where the product is monotone it
        is read off: the row itself when its maximum runs along the scan,
        else the entry the scan starts at, broadcast."""
        times = self.products["table"]
        if self.monotone is None:
            prods = times(self.table, g)
            if from_right:
                np.maximum.accumulate(prods[:, ::-1], axis=1, out=out[:, ::-1])
            else:
                np.maximum.accumulate(prods, axis=1, out=out)
        elif (self.monotone == "non_increasing") == from_right:
            times(self.table, g, out=out)
        else:
            start = slice(-1, None) if from_right else slice(0, 1)
            out[:] = times(self.table[start], g[:, start])


# the side of its input region each one-sided kernel moves outputs on (class docstring)
_REACH = {("S", None): "above", ("S", "H"): "above", ("S*", None): "below", ("S*", "H*"): "below"}


def _inner_direction(inner: Optional[str], cone: str) -> str:
    """The direction of the inner g on rows in ``cone``: H f and H_b f are
    non-decreasing and H* f non-increasing on every input, and without an
    inner transform g is the input, with the cone's direction ("none" has
    none)."""
    return {"H": "non_decreasing", "H_b": "non_decreasing", "H*": "non_increasing"}.get(inner, cone)


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
    return FuncWeight(_RatioClosure(u, B))


@dataclass(frozen=True)
class _RatioClosure:
    u: Weight
    B: Weight

    def __call__(self, t):
        return adiv(self.u(t), self.B(t))
