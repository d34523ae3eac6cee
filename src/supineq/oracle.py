"""Brute-force lower bounds on best constants, and criterion/oracle comparison.

The oracle maximizes the Rayleigh quotient ``||T f||_{q,w} / ||f||_{p,v}``
over step-function witnesses in the input cone.  Because operator outputs
are computed exactly at knots (or under-estimated inside regions) and the
denominator is exact for step functions, every quotient it reports is a
certified lower bound on the best constant.  It is a *lower-bound oracle*:
it can under-report, never over-report.  ``RayleighEngine.ratios`` reads +inf
only when the numerator has an infinite factor; the bound is then +inf, with
the divergence flag set, and every search stage stops.

Where p <= 1 <= q the third stage is one pass over the cone's extreme rays,
and the best of them is the discrete best constant.  Every cone row is a
nonnegative sum of rays: of chi_(0, k_j] on the non-increasing cone, of
chi_[k_j, oo) on the non-decreasing one and of unit rows on ``none``.  The
kernel is subadditive and positively homogeneous, so with Minkowski (q >= 1)
the numerator of a sum is at most the sum of the rays' numerators, and with
reverse Minkowski (p <= 1) its denominator is at least the sum of theirs.
No row thus scores above the best ray, and a search there finds nothing the
ray pass has not.  The last step divides by each ray's denominator, so it
needs every ray to have positive v-mass.  A ray whose v-mass reads 0 (an
underflowing e^{-t} on the last region, say) scores 0 although its true
quotient may be +inf or huge; then, and for every other (p, q), the third
stage is the coordinate ascent.

The ascent leaves out the steps that provably cannot gain.  A step at knot
j changes the input row on j's region r and, when it rises, on the side
the cone lifts: below r on the non-increasing cone, above it on the
non-decreasing one.  An S or SoH kernel moves outputs only on regions at or
above a changed one, an S* or S*oH* kernel only at or below
(``OperatorKernel.reach``).  Where the cone lifts toward that side, or does
not lift (``none``), and w has no mass (dW exactly 0) on every region on
that side of r, knot j is *rise-dead*.  Every output a step there moves is
multiplied by a w-mass of 0, which reads 0 under 0 * inf = 0, and the +inf
check reads no output there, so the numerator is its base's bit for bit.
A growing step (factor 2 or 1.1, or a step from 0) lowers no region value
of the input, and rounded sums, products and powers of nonnegative floats
are monotone, so its denominator is at least its base's, up to the ulps of
the scalar root.  Its quotient is then at most best * (1 + 1e-12) wherever
best is a normal float, and such steps are not scored.  Where v has no mass
either on every region a step at j can change (r on ``none``, r and the
reach's side of it on the cone), knot j is *dead*: every step there leaves
both norms bit for bit, and with them the quotient.  Each sweep draws its
permutation over all n knots, which keeps the seeded order of the others,
and drops the dead knots from it.  The bound, witness and trace are those
of the ascent that tries every knot and every factor.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .extreal import INF, _amul, _apow, xdiv, xpow
from .gridfn import (
    DEFAULT_GRID,
    Grid,
    make_log_grid,
    region_measures,
    region_values,
    sample_monotone,
    sample_nonneg,
)
from .operators import OperatorKernel
from .criteria import CriterionResult, InequalitySpec

__all__ = [
    "OracleBudget",
    "OracleResult",
    "EquivalenceReport",
    "RayleighEngine",
    "best_constant_lower",
    "equivalence_report",
]


@dataclass(frozen=True)
class OracleBudget:
    """Search effort: characteristic scans, random samples, ascent sweeps."""

    n_char: int = 512
    n_random: int = 200
    n_ascent: int = 50

    def __post_init__(self) -> None:
        if min(self.n_char, self.n_random, self.n_ascent) < 0:
            raise ValueError("budget entries must be nonnegative")
        if self.n_char == 0 and self.n_random == 0:
            raise ValueError("budget must allow a scan or a random sample for the ascent to start")


@dataclass(frozen=True)
class OracleResult:
    lower_bound: float
    witness: np.ndarray  # knot values of the best step function found
    trace: Tuple[float, ...]  # best-so-far after each stage (non-decreasing)
    divergence_flag: bool


@dataclass(frozen=True)
class EquivalenceReport:
    verdict: str  # "consistent" | "inconsistent_finiteness" | "ratio_out_of_band"
    criterion_total: float
    oracle_lower: float
    ratio: float  # criterion / oracle
    band: float
    divergence_flag: bool


class RayleighEngine:
    """Fast evaluation of the Rayleigh quotient for a fixed spec and grid."""

    def __init__(self, spec: InequalitySpec, grid: Optional[Grid] = None):
        # the norms are sums of region values to the p and q; with an
        # infinite exponent that is no L^oo norm
        if INF in (spec.exps.p, spec.exps.q):
            raise ValueError("the oracle needs finite exponents p and q")
        self.spec = spec
        self.grid = grid or make_log_grid(**DEFAULT_GRID)
        self.cone = spec.cone
        self.ks = self.grid.array()
        self.n = self.grid.n
        self.dV = region_measures(self.grid, spec.v)
        self.dW = region_measures(self.grid, spec.w)
        self.kernel = OperatorKernel(spec.kind, spec.cone, self.grid)
        # the masses of both norms, against the two halves of ``ratios``' workspace
        self._dVW = np.stack([self.dV, self.dW])[:, None]
        # per knot, whether an ascent step there reaches no w-mass (module docstring)
        self._rise_dead, self._dead = _quiet_knots(self.kernel.reach, self.cone, self.dV, self.dW)

    # -- the quotient -----------------------------------------------------------
    def ratio(self, values: np.ndarray) -> float:
        return float(self.ratios(np.asarray(values, dtype=float)[None])[0])

    def ratios(self, F: np.ndarray) -> np.ndarray:
        """Quotients of an ``(m, n)`` stack of knot-value rows, one per row.

        Both norms are exact sums over regions, scored in one ``(2, m, n+1)``
        workspace: its first half takes the rows' region values, in the
        canonical step semantics of the cone (``gridfn.region_values``), and
        its second the operator kernel's output region values.  Both halves
        are raised to their exponents by ``extreal._apow`` (in one step when
        p = q; an exponent of 1 is skipped), multiplied by a ``(2, 1, n+1)``
        stack of the v- and w-masses and summed row by row in one reduction,
        all in place.  Every entry of ``F`` must lie in [0, inf]: a NaN or
        negative one raises ``ValueError``.  Rows are meant to lie in the cone, as every stage's
        are: there the kernel's read-off of a monotone running maximum is
        exact, and on a row off the cone it reads at most the scan, so the
        quotient is still a lower bound (``OperatorKernel``).

        Each quotient is certified.  A row reads +inf only when its numerator
        has an infinite factor, an output region value of +inf on positive
        w-mass or a positive one on infinite w-mass (outputs under-estimate);
        one that float overflow alone sends to +inf reads 0, a sound bound."""
        F = np.asarray(F, dtype=float)
        # one reduction checks the rows: their minimum is NaN if an entry is
        if F.size and not F.min() >= 0.0:
            raise ValueError("knot values must lie in [0, inf]")
        p, q = self.spec.exps.p, self.spec.exps.q
        work = np.empty((2, len(F), self.n + 1))
        segv, out_segv = work[0], work[1]
        region_values(F, self.cone, out=segv)
        with np.errstate(all="ignore"):
            self.kernel.apply(segv, out=out_segv)
            # the powers (``_apow`` skips an exponent of 1) and the product,
            # in place on this call's own workspace
            if p == q:
                _apow(work, p, out=work)
            else:
                _apow(segv, p, out=segv)
                _apow(out_segv, q, out=out_segv)
            den_sums, num_sums = np.add.reduce(_amul(work, self._dVW, out=work), axis=2).tolist()
        out = [0.0] * len(den_sums)
        unsure = []  # rows that read +inf
        # scalar finish: np.power differs from float ** on ~5 % of sums at 1/3
        for i, (den_sum, num_sum) in enumerate(zip(den_sums, num_sums)):
            den = xpow(den_sum, 1.0 / p)
            if den != 0.0:
                out[i] = r = xdiv(xpow(num_sum, 1.0 / q), den)
                if r == INF:
                    unsure.append(i)
        if unsure:  # the workspace holds powers now: one more pass, on these rows
            with np.errstate(all="ignore"):
                o = self.kernel.apply(region_values(F[unsure], self.cone))
            inf_factor = ((o == INF) & (self.dW > 0.0)) | ((self.dW == INF) & (o > 0.0))
            for i, inf in zip(unsure, inf_factor.any(axis=1).tolist()):
                out[i] = INF if inf else 0.0
        return np.array(out)


def _quiet_knots(reach: Optional[str], cone: str, dV: np.ndarray, dW: np.ndarray) -> Tuple[list, np.ndarray]:
    """Per knot j of a cone row, whether it is rise-dead (a Python list) and
    whether it is dead (a boolean array), by the rule of the module
    docstring.  Knot j holds region j on the non-increasing cone and region
    j+1 on the others.  Where the cone lifts toward the kernel's ``reach``
    or does not lift (``none``), every region a step at j can change lies
    on the reach's side of j's region, and so do the outputs it can move."""
    n = len(dW) - 1
    if (reach, cone) not in _QUIET_CASES:
        return [False] * n, np.zeros(n, dtype=bool)

    def onward(zero: np.ndarray) -> np.ndarray:
        """Whether ``zero`` holds on every region on the reach's side of each region."""
        if reach == "above":
            return np.logical_and.accumulate(zero[::-1])[::-1]
        return np.logical_and.accumulate(zero)

    region = np.arange(n) + (cone != "non_increasing")
    rise_dead = onward(dW == 0.0)[region]
    # the regions a step can change: its own on ``none``, the reach's side on the cone
    no_v = (dV == 0.0) if cone == "none" else onward(dV == 0.0)
    return rise_dead.tolist(), rise_dead & no_v[region]


# (reach, cone) where every change a step makes lies on the reach's side of its region
_QUIET_CASES = {("above", "non_decreasing"), ("above", "none"),
                ("below", "non_increasing"), ("below", "none")}


def _rays(n: int, cone: str) -> np.ndarray:
    """The extreme rays of ``cone``, row j the ray at knot j: chi_(0, k_j] on
    the non-increasing cone, chi_[k_j, oo) on the non-decreasing one and the
    unit row at j, the indicator of region R_{j+1}, on ``none``.  A read-only
    ``(n, n)`` view of one staircase of 2n - 1 floats, whose row j starts at
    entry n - 1 - j: n ones then n - 1 zeros, n - 1 zeros then n ones, or a
    one between n - 1 zeros on each side."""
    stair = np.zeros(2 * n - 1)
    stair[{"non_increasing": slice(None, n), "non_decreasing": slice(n - 1, None)}.get(cone, n - 1)] = 1.0
    return np.lib.stride_tricks.sliding_window_view(stair, n)[::-1]


def _rays_are_exact(engine: RayleighEngine) -> bool:
    """Whether the best extreme ray is the discrete best constant: p <= 1 <= q
    and every ray has positive v-mass, so that each denominator is exact."""
    if not engine.spec.exps.p <= 1.0 <= engine.spec.exps.q:
        return False
    dV = engine.dV
    if engine.cone == "none":
        return bool((dV[1:] > 0.0).all())
    return bool(dV[0] > 0.0 if engine.cone == "non_increasing" else dV[-1] > 0.0)


def best_constant_lower(
    spec: InequalitySpec,
    budget: OracleBudget = OracleBudget(),
    seed: int = 0,
    grid: Optional[Grid] = None,
) -> OracleResult:
    """Certified lower bound on the best constant of ``spec``'s inequality.

    Three stages, each recorded in ``trace``: the indicator scan, the random
    samples, then a third one that runs when ``n_ascent > 0`` and the bound so
    far is positive and finite.  Where p <= 1 <= q and every extreme ray of
    the cone has positive v-mass, it scores the n rays in calls of at most 48
    rows and keeps the best (on a monotone cone whose scan took every knot,
    the scan has scored them); no cone row beats that ray (module docstring),
    so the bound is then the discrete best constant.  Otherwise it is the
    predicted-path coordinate ascent."""
    engine = RayleighEngine(spec, grid)
    n = engine.n
    cone = spec.cone
    best = 0.0
    best_vals = np.zeros(n)
    trace = []

    def offer(vals: np.ndarray) -> float:
        """Score one witness, keep it if it gains, and return its quotient."""
        nonlocal best, best_vals
        r = engine.ratio(vals)
        if r > best:
            best, best_vals = r, vals
        return r

    # every stage stops once the bound is +inf, which nothing beats; the scans
    # are read only when it ends finite, and then every ratio in them is
    char_scans = []  # (knots scored, their ratios)
    if budget.n_char > 0:
        idxs = np.unique(np.linspace(0, n - 1, min(budget.n_char, n)).astype(int))
        for fam in [cone] if cone != "none" else ["non_increasing", "non_decreasing"]:
            rays = _rays(n, fam)
            rs = [offer(rays[j]) for j in idxs.tolist() if best < INF]
            char_scans.append((engine.ks[idxs[:len(rs)]], np.array(rs)))
    trace.append(best)

    sample = sample_nonneg if cone == "none" else functools.partial(sample_monotone, cone)
    for i in range(budget.n_random):
        if best == INF:
            break
        offer(sample(engine.grid, seed + 7919 * (i + 1)))
    trace.append(best)

    search = budget.n_ascent > 0 and 0.0 < best < INF
    if search and _rays_are_exact(engine):
        # the ray pass: no row scores above the best extreme ray (module
        # docstring), and on a monotone cone a scan of every knot scored them
        if cone == "none" or budget.n_char < n:
            rays = _rays(n, cone)
            for lo in range(0, n, _ASCENT_ROWS):
                rs = engine.ratios(rays[lo:lo + _ASCENT_ROWS])
                i = int(rs.argmax())
                if rs[i] > best:
                    best, best_vals = float(rs[i]), rays[lo + i]
                if best == INF:
                    break
    elif search:
        # predicted-path batches: pred[j] is coordinate j's outcome at its last
        # visit, the index of the factor that gained or -1 for none (below -1
        # between a rescore miss and the visit that resumes it).  A batch
        # scores the next k coordinates of the sweep in one engine call, each
        # from the point reached if every earlier coordinate of the batch met
        # its prediction, and replays the first-gain rule up to the first
        # coordinate that does not.  Every quotient acted on is thus scored
        # from the point the sequential ascent would be at, so the ascent
        # visits the same points as trying one coordinate and one factor at a
        # time.  k doubles after a batch without a miss, up to the cap, and
        # drops to 1 after one.
        cap = min(_ASCENT_BATCH, max(1, _ASCENT_BATCH_KNOTS // n))
        vals = best_vals.copy()
        pred = [-1] * n
        rng = np.random.default_rng(seed + 104729)
        live = ~engine._dead
        for _ in range(budget.n_ascent):
            start = best
            order = rng.permutation(n)
            order = order[live[order]]  # drawn over every knot, then the dead ones dropped
            pos, k = 0, 1
            while pos < len(order) and best < INF:
                done, hit, vals, best = _predicted_batch(engine, vals, best, order[pos:pos + k], pred)
                pos, k = pos + done, (min(2 * k, cap) if hit else 1)
            if best in (start, INF):
                break
        best_vals = vals
    trace.append(best)

    return OracleResult(
        lower_bound=float(best),
        witness=best_vals,
        trace=tuple(trace),
        divergence_flag=best == INF or _divergence_from_char(char_scans),
    )


_ASCENT_FACTORS = (2.0, 0.5, 1.1, 1.0 / 1.1)
# a zero coordinate is moved to fac - 1 by the growing factors and kept at 0
_ASCENT_FROM_ZERO = tuple(f - 1.0 if f > 1.0 else 0.0 for f in _ASCENT_FACTORS)
_GROWS = tuple(f > 1.0 for f in _ASCENT_FACTORS)
_NORMAL = sys.float_info.min  # the least positive normal float
_ASCENT_BATCH = 12  # most coordinates per batch: 48 rows
_ASCENT_ROWS = 4 * _ASCENT_BATCH  # most rows per call of the third stage
# most coordinates x knots per batch, as measured end to end: at n = 512, 8
# coordinates beat 12 or tie with them, and at n = 96, 12 beat 8.  A row does
# not cost more in a larger call at n = 512 (README)
_ASCENT_BATCH_KNOTS = 4096


def _around(base: np.ndarray, j: int, cone: str) -> Tuple[float, float, float]:
    """What a step at knot j of the cone row ``base`` reads, as Python
    floats: b[j]; the neighbour that holds knot j up, b[j+1] on the
    non-increasing cone and b[j-1] on the non-decreasing one (0 on ``none``
    and past either end); and the nearest knot of the side a rise of knot j
    lifts, b[j-1] or b[j+1] (+inf on ``none`` and past either end)."""
    x = float(base[j])
    if cone == "none":
        return x, 0.0, INF
    before = float(base[j - 1]) if j > 0 else None
    after = float(base[j + 1]) if j + 1 < len(base) else None
    if cone == "non_decreasing":
        before, after = after, before
    return x, 0.0 if after is None else after, INF if before is None else before


def _rule(x: float, hold: float, edge: float, f: int) -> Tuple[float, float, bool]:
    """The closed-form ascent step on the floats ``_around`` reads: knot j
    moves from x to y by factor f; the projection onto the cone sets it to
    ``max(y, hold)`` and, where y exceeds ``edge``, raises the knots of the
    lifted side that lie below y to y.  Returns ``(y, value at j, lifts)``.
    The step leaves its base unchanged exactly when the value at j is x."""
    # Python floats: their product overflows to +inf without numpy's warning
    y = x * _ASCENT_FACTORS[f] if x > 0.0 else _ASCENT_FROM_ZERO[f]
    return y, max(y, hold), y > edge


def _step(base: np.ndarray, j: int, f: int, cone: str) -> np.ndarray:
    """``base`` moved at knot j by factor f and projected onto the cone
    (``_rule``), as a new row, or ``base`` itself when the projection takes
    the step back to it.  Max is exact, so the row equals setting the knot
    and taking a row-wide running maximum, bit for bit."""
    x, hold, edge = _around(base, j, cone)
    y, at_j, lifts = _rule(x, hold, edge, f)
    if at_j == x:
        return base
    base = base.copy()
    if lifts:
        _lift(base, j, y, cone)
    base[j] = at_j
    return base


def _lift(row: np.ndarray, j: int, y: float, cone: str) -> None:
    """Raise the knots of ``row`` on the side a rise of knot j to y lifts
    (before j on the non-increasing cone, after j on the non-decreasing one)
    to at least y, in place."""
    side = row[:j] if cone == "non_increasing" else row[j + 1:]
    np.maximum(side, y, out=side)


def _predicted_batch(engine: RayleighEngine, vals: np.ndarray, best: float,
                     coords: np.ndarray, pred: list) -> Tuple[int, bool, np.ndarray, float]:
    """One predicted-path batch of the ascent from ``vals`` at ``best``.

    ``pred[j]`` is f >= 0 when coordinate j is predicted to gain with factor
    f, and -1 - s when it is predicted not to gain, its factors to be tried
    from s on (s = 0 but on the visit after a rescore miss).  A coordinate
    predicted to gain takes the steps of factors 0..f, one predicted not to
    gain those of factors s..3; each is stepped from the point its
    predecessors' predicted outcomes lead to.  Every step is planned on
    Python floats with ``_rule``.  Steps equal to their own base are neither
    built nor scored: their quotient is that base's, which is not above the
    floor.  Nor, when ``best`` is a normal float, are the growing steps
    (factors 2 and 1.1) at a rise-dead knot: their quotient is at most their
    base's up to ulps (module docstring).  The bases are the batch start and
    the point each predicted gain that moves it leads to (``_step``); the
    other rows are one gather from
    them, one in-place maximum on the lifted side of each row that lifts and
    one scatter of the values at the stepped knots.  The sequential
    first-gain rule (a quotient above ``best * (1 + 1e-12)``, the factors of
    one coordinate in order) is replayed on Python lists up to the first
    coordinate whose outcome differs from its prediction, and ``pred`` is
    updated in place.  Returns ``(coordinates settled, whether every
    prediction held, point, best)``.  A coordinate whose predicted factor f
    and the ones before it fail is not settled: the next batch starts at it,
    from the same point, and scores only factors f+1..3 (none when f = 3)."""
    cone = engine.cone
    # best only rises, so a batch that starts at a normal float stays at one
    rise_dead = engine._rise_dead if best >= _NORMAL else None
    bases = [vals]
    plan = []  # per coordinate: j and its fresh steps, (factor, row)
    take, knots, at, lifted = [], [], [], []  # per row: base, knot, value there; (row, j, y)
    for j in coords.tolist():
        f = pred[j]
        x, hold, edge = _around(bases[-1], j, cone)
        steps = []
        skip_growing = rise_dead is not None and rise_dead[j]
        for g in range(f + 1) if f >= 0 else range(-1 - f, len(_ASCENT_FACTORS)):
            if skip_growing and _GROWS[g]:
                continue
            y, at_j, lifts = _rule(x, hold, edge, g)
            if at_j == x:
                continue
            steps.append((g, len(take)))
            if g == f:  # the predicted gain moves the path: its row is the new base
                bases.append(_step(bases[-1], j, f, cone))
            elif lifts:
                lifted.append((len(take), j, y))
            take.append(len(bases) - 1)
            knots.append(j)
            at.append(at_j)
        plan.append((j, steps))
    if take:
        rows = (vals[None] if len(bases) == 1 else np.array(bases))[take]
        for i, j, y in lifted:
            _lift(rows[i], j, y, cone)
        rows[np.arange(len(take)), knots] = at
        scores = engine.ratios(rows).tolist()
    for c, (j, steps) in enumerate(plan):
        floor = best * (1.0 + 1e-12)
        gain = -1
        for g, i in steps:
            if scores[i] > floor:
                vals, best, gain = rows[i].copy(), scores[i], g
                break
        if gain != max(pred[j], -1):
            if gain < 0:
                # factors 0..f failed: the next visit resumes at factor f + 1
                pred[j] = -2 - pred[j]
                return c, False, vals, best
            pred[j] = gain
            return c + 1, False, vals, best
        pred[j] = gain
    return len(coords), True, vals, best


def _divergence_from_char(char_scans) -> bool:
    """Power-law growth of characteristic ratios toward a boundary => divergence."""
    m = 8
    for knots, rs in char_scans:
        if len(rs) < 2 * m:
            continue
        # growth toward 0 is a negative slope, toward oo a positive one
        for sign, sel in ((-1.0, slice(0, m)), (1.0, slice(-m, None))):
            x = np.log(knots[sel])
            y = rs[sel]
            if np.any(y <= 0.0):
                continue
            ly = np.log(y)
            slope, intercept = np.polyfit(x, ly, 1)
            pred = slope * x + intercept
            ss_res = float(np.sum((ly - pred) ** 2))
            ss_tot = float(np.sum((ly - ly.mean()) ** 2))
            r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
            if sign * slope > 0.05 and r2 > 0.99:
                return True
    return False


_SAFETY = 4.0  # slack on the band's upper end, for the oracle's discretization bias


def equivalence_report(
    crit: CriterionResult,
    oracle: OracleResult,
    band: float = 64.0,
) -> EquivalenceReport:
    """Compare a criterion total with an oracle lower bound.

    ``consistent`` requires matching finiteness and, when both are finite,
    ``1/band <= criterion/oracle <= band * _SAFETY`` (the safety factor absorbs
    the oracle's discretization bias, which only ever pushes it down)."""
    if band <= 1.0:
        raise ValueError("band must exceed 1")
    total = crit.total
    lb = oracle.lower_bound
    ratio = xdiv(total, lb)
    crit_inf = not crit.finite
    # a huge finite lower bound is also fine evidence of divergence
    if crit_inf != oracle.divergence_flag and not (crit_inf and lb > 1e6):
        verdict = "inconsistent_finiteness"
    elif crit_inf:
        verdict = "consistent"
    elif total == 0.0 and lb == 0.0:
        verdict, ratio = "consistent", 1.0
    elif 1.0 / band <= ratio <= band * _SAFETY:
        verdict = "consistent"
    else:
        verdict = "ratio_out_of_band"
    return EquivalenceReport(verdict, total, lb, ratio, band, oracle.divergence_flag)
