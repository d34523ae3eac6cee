"""Brute-force lower-bound search: soundness, reproducibility, reporting."""

import functools
import json
import math
import os
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supineq.cli import load_config
from supineq.criteria import CriterionResult, InequalitySpec
from supineq.extreal import INF, _amul, _apow, adiv, amul, apow, xdiv, xmul, xpow
from supineq.gridfn import (
    DEFAULT_GRID,
    Grid,
    make_log_grid,
    region_measures,
    region_values,
    sample_monotone,
    sample_nonneg,
)
from supineq.operators import OperatorKernel, OperatorKind, _ratio_weight, b_cumulative
from supineq import gridfn, oracle
from supineq.oracle import (
    OracleBudget,
    OracleResult,
    RayleighEngine,
    best_constant_lower,
    equivalence_report,
)
from supineq.weights import (
    Exponents,
    PiecewisePowerWeight,
    PowerWeight,
    TabulatedWeight,
    Weight,
    _quad_log,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BATTERY = os.path.join(ROOT, "configs", "battery.json")
GRID = make_log_grid(1e-4, 1e4, 49)
ONE = PowerWeight(1.0, 0.0)
EXP = PowerWeight(1.0, 0.0, 1.0)


def down_spec(p=1.0, q=1.0):
    return InequalitySpec(kind=OperatorKind(base="S", u=PowerWeight(1.0, 1.0)),
                          cone="non_increasing", v=ONE, w=EXP, exps=Exponents(p, q))


def tub_spec(p=1.0, q=1.0):
    return InequalitySpec(kind=OperatorKind(base="T_ub", u=PowerWeight(1.0, 1.0), b=ONE),
                          cone="non_increasing", v=ONE, w=EXP, exps=Exponents(p, q))


class TestSoundness:
    @pytest.mark.parametrize("spec", [down_spec(), down_spec(2.0, 2.0), tub_spec(),
                                      tub_spec(0.5, 0.5)],
                             ids=["S-p1", "S-p2", "Tub-p1", "Tub-p.5"])
    def test_witness_reproduces_bound(self, spec):
        orc = best_constant_lower(spec, OracleBudget(128, 40, 10), seed=7, grid=GRID)
        eng = RayleighEngine(spec, GRID)
        assert eng.ratio(orc.witness) == pytest.approx(orc.lower_bound, rel=1e-10)

    def test_trace_is_non_decreasing(self):
        orc = best_constant_lower(down_spec(), OracleBudget(64, 30, 5), seed=11, grid=GRID)
        t = np.asarray(orc.trace)
        assert np.all(np.diff(t) >= 0)
        assert t[-1] == orc.lower_bound

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_deterministic_given_seed(self, seed):
        a = best_constant_lower(down_spec(), OracleBudget(32, 10, 3), seed=seed, grid=GRID)
        b = best_constant_lower(down_spec(), OracleBudget(32, 10, 3), seed=seed, grid=GRID)
        assert a.lower_bound == b.lower_bound
        assert np.array_equal(a.witness, b.witness)

    def test_budget_monotone(self):
        small = best_constant_lower(down_spec(2.0, 2.0), OracleBudget(16, 5, 2),
                                    seed=5, grid=GRID)
        big = best_constant_lower(down_spec(2.0, 2.0), OracleBudget(128, 40, 10),
                                  seed=5, grid=GRID)
        assert big.lower_bound >= small.lower_bound * (1 - 1e-12)

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            OracleBudget(0, 0, 0)
        # the third stage starts only from a positive bound, which nothing
        # before it would have found
        with pytest.raises(ValueError):
            OracleBudget(0, 0, 5)

    # T_ub with p = oo and S with q = oo: a sum of f^oo and its 0-th root is
    # no L^oo norm, and the search read 4.4e25 and 1.1e19 on GRID
    @pytest.mark.parametrize("spec", [tub_spec(INF, 1.0), down_spec(1.0, INF)],
                             ids=["Tub-p-inf", "S-q-inf"])
    def test_infinite_exponent_rejected(self, spec):
        with pytest.raises(ValueError):
            RayleighEngine(spec, GRID)
        with pytest.raises(ValueError):
            best_constant_lower(spec, grid=GRID)

    def test_ratio_never_exceeds_true_constant(self):
        # u = t, v = 1, w = e^{-t}, p = q = 1 on the non-increasing cone has
        # best constant exactly 1 (characteristic functions are extremal)
        orc = best_constant_lower(down_spec(), OracleBudget(256, 100, 20), seed=123, grid=GRID)
        assert orc.lower_bound <= 1.0 + 1e-9
        assert orc.lower_bound >= 0.99

    def test_tub_tail_input_is_not_read_as_unbounded(self):
        # T_ub with u = e^{-t}, b = 1, v = w = e^{-t}, p = q = 1 on the
        # non-decreasing cone: (1/tau) int_0^tau f <= f(tau) and
        # e^{-tau} f(tau) <= int_tau^oo f e^{-s} ds <= ||f||_{1,v}, so
        # ||T f||_{1,w} <= ||f||_{1,v} and the best constant is at most 1,
        # though every witness puts positive input on the tail region
        spec = InequalitySpec(OperatorKind("T_ub", None, EXP, ONE), "non_decreasing", EXP, EXP,
                              Exponents(1.0, 1.0))
        grid = make_log_grid(1e-2, 10, 30)
        engine = RayleighEngine(spec, grid)
        assert 0.0 < engine.ratio(np.ones(30)) < 1.0
        orc = best_constant_lower(spec, seed=0, grid=grid)
        assert 0.0 < orc.lower_bound <= 1.0 and not orc.divergence_flag


class TestFloatRange:
    def test_overflowing_norm_does_not_raise(self):
        # the 1/p-th and 1/q-th roots of norms beyond the float range read as
        # +inf; the quotient stays a lower bound of the scale-invariant value
        engine = RayleighEngine(tub_spec(p=0.5, q=0.25), make_log_grid(1e-5, 1e5, 40))
        huge = engine.ratio(np.full(40, 1e300))
        assert 0.0 <= huge <= engine.ratio(np.ones(40))
        assert np.array_equal(engine.ratios(np.full((2, 40), 1e300)), [huge, huge])

    def test_overflow_raises_no_warning(self):
        # 1e300 overflows T_ub's running integral (an accumulate) and the row
        # sums of the norms (a reduce); both run inside the engine's errstate
        sc = next(sc for sc in load_config(BATTERY) if sc.id == "tubsub1-655")
        engine = RayleighEngine(sc.spec, make_log_grid(**sc.grid))
        huge = np.full(sc.grid["n"], 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = engine.ratio(huge)
            rs = engine.ratios(np.stack([huge, huge]))
            with np.errstate(all="ignore"):
                out = engine.kernel.apply(region_values(huge, sc.spec.cone)[None])
        assert np.array_equal(rs, [r, r]) and r >= 0.0
        assert out[0, 1] == INF


class TestDivergenceDetection:
    def test_flags_unbounded_constant(self):
        # u = t^2 against w = t^{-1.5}: the weighted sup grows without
        # bound, so characteristic scans diverge toward the right edge
        spec = InequalitySpec(kind=OperatorKind(base="S", u=PowerWeight(1.0, 2.0)),
                              cone="non_increasing", v=ONE,
                              w=PowerWeight(1.0, -1.5), exps=Exponents(1.0, 1.0))
        orc = best_constant_lower(spec, OracleBudget(256, 20, 5), seed=2, grid=GRID)
        assert orc.divergence_flag

    def test_no_flag_on_bounded_problem(self):
        orc = best_constant_lower(down_spec(), OracleBudget(256, 20, 5), seed=2, grid=GRID)
        assert not orc.divergence_flag


class TestEquivalenceReport:
    def mkcrit(self, total, finite=True):
        return CriterionResult(theorem_id="X", regime="p=1,p<=q",
                               terms={"A1": total}, total=total,
                               finite=finite, hypothesis_report={}, flags=())

    def mkorc(self, lb, div=False):
        return OracleResult(lower_bound=lb, witness=np.zeros(1), trace=(lb,),
                            divergence_flag=div)

    def test_matching_finite_values_consistent(self):
        rep = equivalence_report(self.mkcrit(2.0), self.mkorc(1.9), band=64.0)
        assert rep.verdict == "consistent"
        assert rep.ratio == pytest.approx(2.0 / 1.9)

    def test_band_violation_inconsistent(self):
        rep = equivalence_report(self.mkcrit(1000.0), self.mkorc(1.0), band=4.0)
        assert rep.verdict == "ratio_out_of_band"

    def test_oracle_above_criterion_band_inconsistent(self):
        rep = equivalence_report(self.mkcrit(1.0), self.mkorc(500.0), band=4.0)
        assert rep.verdict == "ratio_out_of_band"

    def test_infinite_criterion_needs_divergence_evidence(self):
        inf_crit = self.mkcrit(INF, finite=False)
        assert equivalence_report(inf_crit, self.mkorc(3.0, div=True)).verdict == "consistent"
        assert equivalence_report(inf_crit, self.mkorc(3.0, div=False)).verdict == "inconsistent_finiteness"

    def test_zero_zero_consistent(self):
        rep = equivalence_report(self.mkcrit(0.0), self.mkorc(0.0))
        assert rep.verdict == "consistent"

    def test_band_recorded(self):
        rep = equivalence_report(self.mkcrit(1.0), self.mkorc(1.0), band=32.0)
        assert rep.band == 32.0


class TestHelpers:
    def test_engines_on_one_grid_share_region_masses(self):
        # the v- and b-masses are memoised per (grid, weight), across specs
        a = RayleighEngine(tub_spec(1.0, 2.0), make_log_grid(1e-4, 1e4, 49))
        b = RayleighEngine(down_spec(2.0, 1.0), GRID)
        assert b.dV is a.dV and b.dW is a.dW and a.kernel.lengths is a.dV


# -- the batched kernel against the per-row wrapper and a step-function reference --

# A step function with head and tail values, and the operators on it, one
# function per operator: an independent statement of the step semantics that
# the engine (``gridfn.region_values`` and the operator kernel) must
# reproduce bit for bit.

@dataclass(frozen=True)
class StepFunction:
    """Knot values on a grid, tagged with their cone.  Regions:
    R_0 = (0, k_0], R_i = (k_{i-1}, k_i], R_n = (k_{n-1}, oo)."""

    grid: Grid
    values: np.ndarray
    cone: str = "none"
    head: Optional[float] = None
    tail: Optional[float] = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        head, tail = self.head, self.tail
        if head is None:
            head = float(vals[0]) if self.cone == "non_increasing" else 0.0
        if tail is None:
            tail = float(vals[-1]) if self.cone == "non_decreasing" else 0.0
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "head", float(head))
        object.__setattr__(self, "tail", float(tail))

    def region_values(self) -> np.ndarray:
        """Non-increasing: values[i] on R_i, the tail on R_n.  Otherwise:
        the head on R_0, values[i] on R_{i+1}."""
        v = self.values
        if self.cone == "non_increasing":
            return np.concatenate([v, [self.tail]])
        return np.concatenate([[self.head], v])

    def __call__(self, t):
        ks = self.grid.array()
        side = "left" if self.cone == "non_increasing" else "right"
        return self.region_values()[np.searchsorted(ks, t, side=side)]


def norm(f: StepFunction, p: float, measures: np.ndarray) -> float:
    """``(int f^p w)^{1/p}``, given w's mass on each region."""
    return xpow(float(np.sum(amul(apow(f.region_values(), p), measures))), 1.0 / p)


def _region_bounds(grid: Grid):
    ks = grid.array()
    lo = np.concatenate([[0.0], ks])
    hi = np.concatenate([ks, [INF]])
    return lo, hi


def _region_sups(w: Weight, grid: Grid) -> np.ndarray:
    lo, hi = _region_bounds(grid)
    return np.array([w.sup_on_interval(a, b) for a, b in zip(lo, hi)])


def hardy(f: StepFunction) -> StepFunction:
    """(H f)(t) = int_0^t f; exact at knots, non-decreasing output."""
    ks = f.grid.array()
    segv = f.region_values()
    lengths = np.concatenate([[ks[0]], np.diff(ks)])
    cum = np.cumsum(amul(segv[:-1], lengths))  # value at each knot, exact
    tail = cum[-1] if segv[-1] == 0.0 else INF
    return StepFunction(f.grid, cum, "non_decreasing", head=0.0, tail=float(tail))


def copson(f: StepFunction) -> StepFunction:
    """(H* f)(t) = int_t^oo f; exact at knots, non-increasing output."""
    ks = f.grid.array()
    segv = f.region_values()
    lengths = np.concatenate([np.diff(ks), [INF]])
    above = amul(segv[1:], lengths)  # mass of regions R_1..R_n
    rev = np.cumsum(above[::-1])[::-1]  # at knot k_j: regions R_{j+1}..R_n
    vals = rev
    return StepFunction(f.grid, vals, "non_increasing", head=float(vals[0]), tail=0.0)


def sup_op(f: StepFunction, variant: str, u: Weight = ONE) -> StepFunction:
    """S_u f (variant "S") or S*_u f (variant "S*"), exact at knots."""
    usups = _region_sups(u, f.grid)
    segv = f.region_values()
    prods = amul(usups, segv)
    if variant == "S":
        # value at knot k_j = sup over regions R_0..R_j  (tau <= k_j)
        vals = np.maximum.accumulate(prods[:-1])
        tail = max(float(vals[-1]), xmul(usups[-1], segv[-1]))
        return StepFunction(f.grid, vals, "non_decreasing", head=0.0, tail=tail)
    if variant == "S*":
        # value at knot k_j = max(u(k_j) f(k_j), sup over regions R_{j+1}..R_n)
        ks = f.grid.array()
        fk = np.asarray(f(ks), dtype=float)
        uk = np.asarray(u(ks), dtype=float)
        above = np.maximum.accumulate(prods[1:][::-1])[::-1]  # sup over R_{j+1}..R_n at j
        vals = np.maximum(amul(uk, fk), above)
        # tail region: under-estimate S* f there by the limiting sup factor
        tail = xmul(segv[-1], u.limit_inf()) if segv[-1] > 0 else 0.0
        return StepFunction(f.grid, vals, "non_increasing", head=float(vals[0]),
                            tail=float(min(tail, vals[-1])))
    raise ValueError("variant must be 'S' or 'S*'")


def t_ub(f: StepFunction, u: Weight = ONE, b: Weight = ONE) -> StepFunction:
    """(T_{u,b} f)(t) = sup_{tau >= t} u(tau)/B(tau) int_0^tau f b."""
    B = b_cumulative(b)
    ks = f.grid.array()
    segv = f.region_values()
    Bk = np.asarray(B(ks), dtype=float)
    dB = region_measures(f.grid, b)  # b's mass on each region, as the engine takes it
    cumk = np.cumsum(amul(segv[:-1], dB[:-1]))  # int_0^{k_j} f b, exact
    uB = adiv(np.asarray(u(ks), dtype=float), Bk)
    point = amul(uB, cumk)
    # beyond the grid the integral is read as its value at the last knot, an
    # under-estimate where f b has mass on the tail region
    inner_tail = cumk[-1]
    # tail factor: certified under-estimate of sup_{tau > M} u/B via probes
    ratio_w = _ratio_weight(u, B)
    tail_fac = ratio_w.sup_on_interval(ks[-1], INF)
    tail_term = xmul(inner_tail, tail_fac)
    vals = np.maximum.accumulate(np.concatenate([point, [tail_term]])[::-1])[::-1][:-1]
    tail_val = xmul(inner_tail, ratio_w.limit_inf())
    return StepFunction(f.grid, vals, "non_increasing",
                        head=float(vals[0]), tail=float(min(tail_val, vals[-1])))


def apply_spec(kind: OperatorKind, f: StepFunction) -> StepFunction:
    """Apply the operator described by ``kind`` to ``f``."""
    if kind.base == "T_ub":
        return t_ub(f, kind.u, kind.b)
    if kind.compose == "H":
        inner = hardy(f)
    elif kind.compose == "H*":
        inner = copson(f)
    else:
        inner = f
    return sup_op(inner, kind.base, kind.u)


KERNEL_GRID = make_log_grid(1e-5, 1e5, 40)  # the battery's range at n = 40
CLI_GRID = make_log_grid(**DEFAULT_GRID)  # n = 512

B2T = PowerWeight(2.0, 1.0)  # b = 2t
U_TABLE = TabulatedWeight((1e-3, 1e-1, 10.0, 1e3), (0.5, 2.0, 1.0, 3.0))
U_PIECEWISE = PiecewisePowerWeight((1.0, 100.0), (PowerWeight(1.0, 0.5), PowerWeight(1.0, -0.5),
                                                  PowerWeight(0.01, 0.5)))
# b = 1 on (0, 100] and 0 beyond: no b-mass on the tail region, so T_ub's
# reading of int_0^tau f b there, its value at the last knot, is exact
B_CUT = PiecewisePowerWeight((100.0,), (ONE, PowerWeight(0.0, 0.0)))

KERNEL_SPECS = [(sc.id, sc.spec) for sc in load_config(BATTERY)] + [
    ("tub-b2t", InequalitySpec(OperatorKind("T_ub", None, PowerWeight(1.0, 2.0), B2T),
                               "non_increasing", ONE, EXP, Exponents(2.0, 1.0))),
    ("tub-cut-b", InequalitySpec(OperatorKind("T_ub", None, ONE, B_CUT), "none",
                                 ONE, EXP, Exponents(2.0, 1.0))),
    ("s-table", InequalitySpec(OperatorKind("S", None, U_TABLE), "non_increasing",
                               ONE, EXP, Exponents(2.0, 2.0))),
    ("sstar-table", InequalitySpec(OperatorKind("S*", None, U_TABLE), "non_decreasing",
                                   EXP, EXP, Exponents(1.0, 2.0))),
    ("sstaroh-table", InequalitySpec(OperatorKind("S*", "H", U_TABLE), "none",
                                     PowerWeight(1.0, 1.0), EXP, Exponents(2.0, 2.0))),
    ("sstar-piecewise", InequalitySpec(OperatorKind("S*", None, U_PIECEWISE), "non_increasing",
                                       ONE, EXP, Exponents(2.0, 1.0))),
    ("soh*-piecewise", InequalitySpec(OperatorKind("S", "H*", U_PIECEWISE), "none",
                                      PowerWeight(1.0, 1.0), EXP, Exponents(2.0, 1.0))),
]


def indicator(n, j, fam):
    """chi_(0, k_j] for the non-increasing family, chi_[k_j, oo) for the non-decreasing one."""
    vals = np.zeros(n)
    if fam == "non_decreasing":
        vals[j:] = 1.0
    else:
        vals[: j + 1] = 1.0
    return vals


def indicator_families(cone):
    return [cone] if cone != "none" else ["non_increasing", "non_decreasing"]


def kernel_inputs(spec, grid):
    """Five random witnesses of the spec's cone, then every indicator witness."""
    if spec.cone == "none":
        rand = [sample_nonneg(grid, 17 + i) for i in range(5)]
    else:
        rand = [sample_monotone(spec.cone, grid, 17 + i) for i in range(5)]
    ind = [indicator(grid.n, j, fam) for fam in indicator_families(spec.cone) for j in range(grid.n)]
    return np.array(rand + ind)


def reference(engine, values):
    """The quotient and the output region values of ``values``, through
    ``apply_spec`` on a StepFunction witness."""
    spec = engine.spec
    f = StepFunction(engine.grid, values, spec.cone)
    out = apply_spec(spec.kind, f)
    den = norm(f, spec.exps.p, engine.dV)
    ratio = 0.0 if den == 0.0 else xdiv(norm(out, spec.exps.q, engine.dW), den)
    return ratio, out.region_values()


class TestKernel:
    @pytest.mark.parametrize("spec", [spec for _, spec in KERNEL_SPECS],
                             ids=[sid for sid, _ in KERNEL_SPECS])
    def test_batched_kernel_agrees(self, spec):
        engine = RayleighEngine(spec, KERNEL_GRID)
        stack = kernel_inputs(spec, KERNEL_GRID)
        batched = engine.ratios(stack)
        # rows of a batch never interact: bit-for-bit the one-row wrapper
        single = np.array([engine.ratio(row) for row in stack])
        assert np.array_equal(batched, single)
        # and the StepFunction reference, region value by region value too:
        # every w here decays like e^{-t}, so the quotients give the tail
        # region no weight
        ref, ref_out = zip(*(reference(engine, row) for row in stack))
        assert np.array_equal(batched, np.array(ref))
        with np.errstate(all="ignore"):
            out = engine.kernel.apply(region_values(stack, spec.cone))
        assert np.array_equal(out, np.array(ref_out))

    @pytest.mark.parametrize("spec", [spec for _, spec in KERNEL_SPECS],
                             ids=[sid for sid, _ in KERNEL_SPECS])
    def test_rows_never_interact_at_the_cli_grid(self, spec):
        # an ascent call at n = 512 carries up to 32 rows: every factor step
        # at 8 knots of a sampled witness, scored in one call, in calls of 8
        # and one row a call, bit for bit alike
        engine = RayleighEngine(spec, CLI_GRID)
        base = (sample_nonneg(CLI_GRID, 17) if spec.cone == "none"
                else sample_monotone(spec.cone, CLI_GRID, 17))
        knots = np.random.default_rng(17).choice(CLI_GRID.n, 8, replace=False).tolist()
        stack = np.array([oracle._step(base, j, f, spec.cone) for j in knots
                          for f in range(len(ASCENT_FACTORS))])
        single = np.array([engine.ratio(row) for row in stack])
        assert np.array_equal(engine.ratios(stack), single)
        assert np.array_equal(np.concatenate([engine.ratios(stack[lo:lo + 8]) for lo in range(0, 32, 8)]),
                              single)


# -- the kernel contract: the properties the oracle's certificates rest on --

CONES = ("non_increasing", "non_decreasing", "none")
# every kernel spec's operator on every cone, not only the one its criterion
# takes: the properties hold for any rows of region values
CONTRACT_CASES = [(sid, spec, cone) for sid, spec in KERNEL_SPECS for cone in CONES]
CONTRACT_IDS = [f"{sid}-{cone}" for sid, _, cone in CONTRACT_CASES]
RTOL = 1e-12  # rounding only


def halved(grid):
    """``grid`` with the geometric midpoint of each pair of neighbouring knots
    inserted: every region of ``grid`` is the union of two of its regions."""
    ks = grid.array()
    return Grid(tuple(np.insert(ks, np.arange(1, len(ks)), np.sqrt(ks[:-1] * ks[1:])).tolist()))


def carried_over(F, cone):
    """Knot values on ``halved(grid)`` of the same step functions as the rows
    of ``F``.  A non-increasing row holds values[i] on (k_{i-1}, k_i], so a new
    knot takes the value of the knot to its right; a row of the other two
    cones holds values[i] on [k_i, k_{i+1}), so a new knot takes the value of
    the knot to its left."""
    out = np.empty((F.shape[0], 2 * F.shape[1] - 1))
    out[:, ::2] = F
    out[:, 1::2] = F[:, 1:] if cone == "non_increasing" else F[:, :-1]
    return out


@functools.lru_cache(maxsize=None)
def contract_engine(case, refined=False):
    """The engine of contract case ``case`` on ``KERNEL_GRID`` or its halving."""
    _, spec, cone = CONTRACT_CASES[case]
    grid = halved(KERNEL_GRID) if refined else KERNEL_GRID
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return RayleighEngine(replace(spec, cone=cone), grid)


def kernel_out(engine, F):
    """The kernel's output region values for the knot-value rows ``F``."""
    with np.errstate(all="ignore"):
        return engine.kernel.apply(region_values(F, engine.cone))


def witnesses(cone, rng, m=3):
    """An ``(m, n)`` stack of rows of ``cone`` on ``KERNEL_GRID``, drawn with
    ``rng``: sampled rows and indicators, each scaled by a power of ten."""
    n, fams = KERNEL_GRID.n, indicator_families(cone)
    rows = []
    for _ in range(m):
        seed = int(rng.integers(2**31))
        if rng.random() < 0.5:
            row = (sample_nonneg(KERNEL_GRID, seed) if cone == "none"
                   else sample_monotone(cone, KERNEL_GRID, seed))
        else:
            row = indicator(n, seed % n, fams[seed % len(fams)])
        rows.append(row * 10.0 ** int(rng.integers(-30, 31)))
    return np.array(rows)


class TestKernelContract:
    """The four properties ``OperatorKernel`` states, row by row at relative
    tolerance ``RTOL``: (i) subadditive, (ii) positively homogeneous, (iii)
    monotone, and (iv) a witness scores at most its carried-over copy on the
    halved grid.  Each example checks every kernel spec's operator on every
    cone, with witnesses drawn from its seed."""

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_subadditive(self, seed):
        rng = np.random.default_rng(seed)
        for case, cid in enumerate(CONTRACT_IDS):
            engine = contract_engine(case)
            F, G = witnesses(engine.cone, rng), witnesses(engine.cone, rng)
            rhs = kernel_out(engine, F) + kernel_out(engine, G)
            assert np.all(kernel_out(engine, F + G) <= rhs * (1.0 + RTOL)), cid

    @given(seed=st.integers(0, 2**31 - 1), c=st.floats(1e-3, 1e3))
    @settings(max_examples=5, deadline=None)
    def test_positively_homogeneous(self, seed, c):
        rng = np.random.default_rng(seed)
        for case, cid in enumerate(CONTRACT_IDS):
            engine = contract_engine(case)
            F = witnesses(engine.cone, rng)
            assert np.allclose(kernel_out(engine, c * F), c * kernel_out(engine, F),
                               rtol=RTOL, atol=0.0), cid

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_monotone(self, seed):
        # F <= F + G, and both lie in the cone
        rng = np.random.default_rng(seed)
        for case, cid in enumerate(CONTRACT_IDS):
            engine = contract_engine(case)
            F, G = witnesses(engine.cone, rng), witnesses(engine.cone, rng)
            assert np.all(kernel_out(engine, F) <= kernel_out(engine, F + G) * (1.0 + RTOL)), cid

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_refinement_never_lowers_the_quotient(self, seed):
        # the same step function, with outputs exact at more knots
        rng = np.random.default_rng(seed)
        for case, cid in enumerate(CONTRACT_IDS):
            engine, fine = contract_engine(case), contract_engine(case, refined=True)
            F = witnesses(engine.cone, rng)
            fine_rs = fine.ratios(carried_over(F, engine.cone))
            assert np.all(engine.ratios(F) <= fine_rs * (1.0 + RTOL)), cid


# e^{-t} sampled 3 per decade on [1e-4, 1e4]: its segment (215, 464) falls
# like t**-323, where the table's mass was NaN before it had a closed form per
# segment, so on a grid that ends below it the tail region's v-mass dV[-1]
# was NaN
EXP_TABLE_T = tuple(np.logspace(-4.0, 4.0, 25).tolist())
NAN_TAIL_V = TabulatedWeight(EXP_TABLE_T, tuple(math.exp(-t) for t in EXP_TABLE_T))
NAN_TAIL_GRID = make_log_grid(1e-5, 300.0, 96)


class TestNaNFactors:
    """Every factor of the quotient lies in [0, inf]: a steep table's tail
    cumulative at the grid's end is its closed form, and a NaN or negative
    row entry is rejected."""

    @pytest.mark.parametrize("cone, want", [("non_increasing", 1.024478270500566),
                                            ("non_decreasing", 1.0244826285262907),
                                            ("none", 1.0244826285262907)])
    def test_steep_tail_cumulative_is_closed_form(self, cone, want):
        # the non-increasing cone puts 0 on the tail region, the other cones 1;
        # the tail's v-mass is about 6e-141, so it leaves the quotient as it is
        spec = InequalitySpec(OperatorKind("S", None, ONE), cone, NAN_TAIL_V, EXP,
                              Exponents(2.0, 2.0))
        end = NAN_TAIL_GRID.knots[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = RayleighEngine(spec, NAN_TAIL_GRID)
        assert engine.dV[-1] == NAN_TAIL_V.cum_up(end)
        assert engine.dV[-1] == pytest.approx(_quad_log(NAN_TAIL_V, end, INF), rel=2e-13)
        assert not np.isnan(engine.dV).any()
        assert engine.ratio(np.ones(96)) == want

    @pytest.mark.parametrize("spec", [spec for _, spec in KERNEL_SPECS],
                             ids=[sid for sid, _ in KERNEL_SPECS])
    def test_nan_or_negative_row_entry_raises(self, spec):
        engine = RayleighEngine(spec, KERNEL_GRID)
        clean = kernel_inputs(spec, KERNEL_GRID)[0]
        for bad in (math.nan, -1e-300):
            row = clean.copy()
            row[KERNEL_GRID.n // 2] = bad
            with pytest.raises(ValueError, match=r"\[0, inf\]"):
                engine.ratio(row)
            with pytest.raises(ValueError, match=r"\[0, inf\]"):
                engine.ratios(np.stack([clean, row, clean]))
        assert engine.ratios(np.zeros((0, KERNEL_GRID.n))).shape == (0,)


CANDIDATES = os.path.join(ROOT, "configs", "candidates.json")


def factor_arrays(engine):
    """``dV``, ``dW`` and every weight array and tail factor of the kernel
    (all of its attributes but its recipe, its inner transform, its read-off
    direction and the product it takes with each factor)."""
    kernel = {k: v for k, v in vars(engine.kernel).items()
              if k not in ("kind", "cone", "inner", "monotone", "products")}
    return {"dV": engine.dV, "dW": engine.dW, **kernel}


class TestFactorDomain:
    """The invariant that lets every product be one multiply, and one ``fmax``
    where a factor has a zero or infinite entry: each factor of the quotient
    lies in [0, inf] and holds no NaN."""

    @staticmethod
    def assert_in_domain(engine, sid):
        for name, arr in factor_arrays(engine).items():
            arr = np.asarray(arr, dtype=float)
            assert not np.isnan(arr).any() and (arr >= 0.0).all(), (sid, name)

    def test_battery_and_candidates(self):
        scenarios = load_config(BATTERY) + load_config(CANDIDATES)
        assert len(scenarios) == 83 + 686
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for sc in scenarios:
                self.assert_in_domain(RayleighEngine(sc.spec, make_log_grid(**sc.grid)), sc.id)

    @pytest.mark.parametrize("cone", ["non_increasing", "non_decreasing", "none"])
    def test_nan_tail_table(self, cone):
        # S reads no tail factor; S* reads one
        for base, tail in (("S", set()), ("S*", {"u_liminf"})):
            spec = InequalitySpec(OperatorKind(base, "H", NAN_TAIL_V), cone, NAN_TAIL_V,
                                  NAN_TAIL_V, Exponents(2.0, 2.0))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                engine = RayleighEngine(spec, NAN_TAIL_GRID)
            assert set(factor_arrays(engine)) == {"dV", "dW", "table", "lengths"} | tail
            self.assert_in_domain(engine, (base, cone))
        tub = InequalitySpec(OperatorKind("T_ub", None, NAN_TAIL_V, NAN_TAIL_V), cone,
                             NAN_TAIL_V, NAN_TAIL_V, Exponents(2.0, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self.assert_in_domain(RayleighEngine(tub, NAN_TAIL_GRID), cone)


def certifies(engine, row):
    """The +inf rule: the numerator has an infinite factor, an output region
    value of +inf on a region of positive w-mass or a positive output on a
    region of infinite w-mass."""
    with np.errstate(all="ignore"):
        out = engine.kernel.apply(region_values(row[None], engine.cone))[0]
    dW = engine.dW
    return bool((((out == INF) & (dW > 0.0)) | ((dW == INF) & (out > 0.0))).any())


class TestInfiniteQuotients:
    """``ratios`` reads +inf only where the numerator has an infinite factor;
    a row that float overflow alone sends to +inf reads 0.  The search
    stages compare these certified quotients and stop at +inf."""

    def test_overflow_only_row_reads_zero(self, monkeypatch):
        # S with u = 1, v = 1, w = e^{-t}, p = 1, q = 2: the quotient is
        # 0-homogeneous, but (1e200)^2 overflows the numerator's norm
        spec = InequalitySpec(OperatorKind("S", None, ONE), "non_increasing", ONE, EXP,
                              Exponents(1.0, 2.0))
        grid = make_log_grid(1e-3, 1e3, 40)
        engine = RayleighEngine(spec, grid)
        huge, ones = np.full(40, 1e200), np.ones(40)
        assert not certifies(engine, huge)
        assert engine.ratio(huge) == 0.0
        assert engine.ratio(ones) == pytest.approx(1.0e-3, rel=1e-3)
        assert np.array_equal(engine.ratios(np.stack([huge, ones, huge])),
                              [0.0, engine.ratio(ones), 0.0])
        # offered by the random stage, the overflowing row is passed over
        monkeypatch.setattr(oracle, "sample_monotone", lambda cone, grid, seed: huge)
        orc = best_constant_lower(spec, OracleBudget(16, 4, 2), seed=1, grid=grid)
        assert 0.0 < orc.lower_bound < INF
        assert all(t < INF for t in orc.trace)

    @pytest.mark.parametrize("sid", ["sstarup-176", "isi4-312"])
    def test_certified_inf_is_kept_with_the_flag(self, sid):
        sc = next(sc for sc in load_config(CANDIDATES) if sc.id == sid)
        grid = make_log_grid(**sc.grid)
        orc = best_constant_lower(sc.spec, sc.budget, sc.seed, grid)
        assert orc.lower_bound == INF and orc.divergence_flag
        engine = RayleighEngine(sc.spec, grid)
        assert certifies(engine, orc.witness)
        assert engine.ratio(orc.witness) == INF
        assert np.array_equal(engine.ratios(np.stack([orc.witness, orc.witness])), [INF, INF])

    @pytest.mark.parametrize("spec", [spec for _, spec in KERNEL_SPECS],
                             ids=[sid for sid, _ in KERNEL_SPECS])
    def test_inf_exactly_where_certified(self, spec):
        # the kernel inputs and the same rows scaled by 1e200, whose norms
        # overflow wherever p or q exceeds 1: a raw quotient of +inf stays
        # +inf where the rule certifies it and reads 0 elsewhere
        engine = RayleighEngine(spec, KERNEL_GRID)
        stack = kernel_inputs(spec, KERNEL_GRID)
        rows = np.concatenate([stack, 1e200 * stack])
        with np.errstate(all="ignore"):
            raw = np.array([reference(engine, row)[0] for row in rows])
        cert = np.array([certifies(engine, row) for row in rows])
        want = np.where(raw < INF, raw, np.where(cert, INF, 0.0))
        assert np.array_equal(engine.ratios(rows), want)

    def test_no_call_after_the_first_inf(self, monkeypatch):
        # sstarup-176 reaches +inf at its first indicator: every stage stops
        sc = next(sc for sc in load_config(CANDIDATES) if sc.id == "sstarup-176")
        calls = []
        ratio = RayleighEngine.ratio

        def spy_ratio(engine, values):
            calls.append(ratio(engine, values))
            return calls[-1]

        monkeypatch.setattr(RayleighEngine, "ratio", spy_ratio)
        orc = best_constant_lower(sc.spec, sc.budget, sc.seed, make_log_grid(**sc.grid))
        assert orc.lower_bound == INF and orc.divergence_flag
        assert calls[-1] == INF and INF not in calls[:-1]
        assert len(calls) == 1

    def test_ascent_that_reaches_inf_stops(self, monkeypatch):
        # S o H* on the full cone, v = w = e^{-t}: a positive value on the tail
        # region has a finite v-norm and an infinite Copson transform.  The one
        # random sample is 0 there; an ascent step that lifts it is +inf.
        spec = InequalitySpec(OperatorKind("S", "H*", ONE), "none", EXP, EXP, Exponents(1.0, 1.0))
        bests = []
        batch = oracle._predicted_batch

        def spy_batch(engine, vals, best, coords, pred):
            out = batch(engine, vals, best, coords, pred)
            bests.append(out[3])
            return out

        monkeypatch.setattr(oracle, "_predicted_batch", spy_batch)
        orc = best_constant_lower(spec, OracleBudget(0, 1, 5), seed=0,
                                  grid=make_log_grid(1e-3, 1e3, 40))
        assert 0.0 < orc.trace[1] < INF
        assert orc.lower_bound == orc.trace[2] == INF and orc.divergence_flag
        # no batch runs after the one that reached +inf
        assert bests[-1] == INF and INF not in bests[:-1]


# -- the one workspace of ``ratios`` against the two-array norms it replaced --

def two_array_ratios(engine, F):
    """``RayleighEngine.ratios`` with each norm in an array of its own: the
    rows' region values (concatenated with a zero column) and the kernel's
    outputs (a new array) apart, each raised to its exponent (an exponent of
    1 skipped), weighted and summed on its own, then the scalar roots and
    quotient, and the +inf rule on the rows that read +inf."""
    F = np.asarray(F, dtype=float)
    zeros = np.zeros((len(F), 1))
    segv = np.concatenate([F, zeros] if engine.cone == "non_increasing" else [zeros, F], axis=1)
    p, q = engine.spec.exps.p, engine.spec.exps.q
    with np.errstate(all="ignore"):
        out_segv = engine.kernel.apply(segv)
        if p != 1.0:
            segv **= p
        if q != 1.0:
            out_segv **= q
        den_sums = np.add.reduce(_amul(segv, engine.dV, out=segv), axis=1).tolist()
        num_sums = np.add.reduce(_amul(out_segv, engine.dW, out=out_segv), axis=1).tolist()
    out = []
    for row, den_sum, num_sum in zip(F, den_sums, num_sums):
        den = xpow(den_sum, 1.0 / p)
        r = 0.0 if den == 0.0 else xdiv(xpow(num_sum, 1.0 / q), den)
        out.append(r if r < INF or certifies(engine, row) else 0.0)
    return np.array(out)


def workspace_rows(spec, grid=KERNEL_GRID):
    """``kernel_inputs`` of the spec's cone, then a zero row, the sampled rows
    with +inf at their end knot (the first on the non-increasing cone, else
    the last) and with +inf at every positive entry, and every row scaled by
    1e200, whose norms overflow wherever p or q exceeds 1."""
    stack = kernel_inputs(spec, grid)
    sampled = stack[:5]
    end = sampled.copy()
    end[:, 0 if spec.cone == "non_increasing" else -1] = INF
    return np.concatenate([stack, np.zeros((1, grid.n)), end,
                           np.where(sampled > 0.0, INF, 0.0), 1e200 * stack])


# 1 on (0, 1e-2], 0 on (1e-2, 1e2] and t^-2 beyond: no w-mass on the middle regions
DEAD_W = PiecewisePowerWeight((1e-2, 1e2), (ONE, PowerWeight(0.0, 0.0), PowerWeight(1.0, -2.0)))


class TestWorkspace:
    """``ratios`` scores both norms in one ``(2, m, n+1)`` workspace; its
    quotients equal the two-array norms byte for byte, for every kernel
    spec's operator on every cone, at equal and unequal exponents, on rows
    of zeros, +inf entries and overflowing norms, with the spec's own w and
    with one that has regions of no mass."""

    @pytest.mark.parametrize("w", ["own", "dead"])
    @pytest.mark.parametrize("p, q", [(1.0, 1.0), (2.0, 2.0), (2.0, 3.0), (3.0, 1.5), (0.5, 0.25)])
    def test_equals_the_two_array_norms(self, p, q, w):
        for case, cid in enumerate(CONTRACT_IDS):
            _, spec, cone = CONTRACT_CASES[case]
            spec = replace(spec, cone=cone, exps=Exponents(p, q), w=spec.w if w == "own" else DEAD_W)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                engine = RayleighEngine(spec, KERNEL_GRID)
            if w == "dead":
                assert (engine.dW == 0.0).any() and (engine.dW > 0.0).any()
            rows = workspace_rows(spec)
            assert engine.ratios(rows).tobytes() == two_array_ratios(engine, rows).tobytes(), cid

    def test_apow_is_the_in_place_power_on_the_battery(self):
        # ``ratios`` raises its workspace with ``extreal._apow``, where it
        # once took ``**=``: the same bits, on each half of every battery
        # engine's workspace and on the quotients
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for sc in load_config(BATTERY):
                engine = RayleighEngine(sc.spec, make_log_grid(**sc.grid))
                rows = workspace_rows(sc.spec, engine.grid)
                segv = region_values(rows, engine.cone)
                halves = (segv, engine.kernel.apply(segv))
                for half, e in zip(halves, (sc.spec.exps.p, sc.spec.exps.q)):
                    power, mine = half.copy(), half.copy()
                    with np.errstate(all="ignore"):
                        power **= e
                        assert _apow(mine, e, out=mine).tobytes() == power.tobytes(), sc.id
                assert engine.ratios(rows).tobytes() == two_array_ratios(engine, rows).tobytes(), sc.id


# -- the calls of the indicator scan and the random stage --

class TestScanCalls:
    """The indicator scan and the random stage score one row per
    ``RayleighEngine.ratio`` call: one per scanned knot of each family, in
    knot order, then one per random sample.  perfbench's tracer attributes
    its stages on these calls
    (``test_tracer_attributes_ratio_calls_to_stages``); a change that
    batches these stages changes that test with this one, in the benchmark
    change of ROADMAP item 11."""

    N_CHAR, N_RANDOM, SEED = 16, 7, 5

    @staticmethod
    def spec(cone):
        """S with u = t and v = w = e^{-t}: every quotient on GRID is finite,
        and some scan ray scores above 0 on each cone."""
        return replace(down_spec(), cone=cone, v=EXP)

    def spied(self, monkeypatch, spec, budget):
        calls = []  # (row, score) per ``ratio`` call
        ratio = RayleighEngine.ratio

        def spy_ratio(engine, values):
            calls.append((np.array(values), ratio(engine, values)))
            return calls[-1][1]

        monkeypatch.setattr(RayleighEngine, "ratio", spy_ratio)
        return best_constant_lower(spec, budget, seed=self.SEED, grid=GRID), calls

    def scan_rows(self, cone):
        n = GRID.n
        idxs = np.unique(np.linspace(0, n - 1, min(self.N_CHAR, n)).astype(int))
        return [oracle._rays(n, fam)[j] for fam in indicator_families(cone) for j in idxs]

    @pytest.mark.parametrize("cone", CONES)
    def test_one_call_per_scanned_knot_then_per_sample(self, cone, monkeypatch):
        orc, calls = self.spied(monkeypatch, self.spec(cone), OracleBudget(self.N_CHAR, self.N_RANDOM, 0))
        assert orc.lower_bound < INF
        scan = self.scan_rows(cone)
        assert len(calls) == len(scan) + self.N_RANDOM, "see ROADMAP item 11"
        for (row, _), ray in zip(calls, scan):
            assert row.tobytes() == ray.tobytes()
        for i, (row, _) in enumerate(calls[len(scan):]):
            seed = self.SEED + 7919 * (i + 1)
            want = sample_nonneg(GRID, seed) if cone == "none" else sample_monotone(cone, GRID, seed)
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cone", CONES)
    def test_witness_of_a_winning_scan_ray_is_its_ray(self, cone, monkeypatch):
        orc, calls = self.spied(monkeypatch, self.spec(cone), OracleBudget(self.N_CHAR, 0, 0))
        scores = [r for _, r in calls]
        win = scores.index(max(scores))  # the first ray to reach the best score keeps it
        assert orc.lower_bound == scores[win] > 0.0
        assert orc.witness.tobytes() == self.scan_rows(cone)[win].tobytes()


class TestWarmSampleMemo:
    """The samplers' memo changes no call the oracle makes: a run on a warm
    memo makes the cold run's sequence of public sampler and ``ratio``
    calls, one sampler call right before each random-stage ``ratio`` (the
    order perfbench's tracer reads its stages from), and returns the same
    result bit for bit."""

    BUDGET, SEED = OracleBudget(16, 7, 2), 5

    def spied(self, monkeypatch):
        """Record each sampler call as ("sample", seed) and each ``ratio``
        call as ("ratio", row bytes, score) into the returned list."""
        events = []
        ratio = RayleighEngine.ratio

        def spy_ratio(engine, values):
            r = ratio(engine, values)
            events.append(("ratio", np.array(values).tobytes(), r))
            return r

        def spy(fn):
            def sampler(*args):
                events.append(("sample", args[-1]))
                return fn(*args)
            return sampler

        monkeypatch.setattr(RayleighEngine, "ratio", spy_ratio)
        monkeypatch.setattr(oracle, "sample_monotone", spy(sample_monotone))
        monkeypatch.setattr(oracle, "sample_nonneg", spy(sample_nonneg))
        return events

    @pytest.mark.parametrize("cone", CONES)
    def test_warm_run_repeats_the_cold_one(self, cone, monkeypatch):
        spec = TestScanCalls.spec(cone)
        memo = gridfn.sample_nonneg if cone == "none" else gridfn._rising_sample
        events = self.spied(monkeypatch)
        memo.cache_clear()
        cold = best_constant_lower(spec, self.BUDGET, seed=self.SEED, grid=GRID)
        cold_events, misses = events[:], memo.cache_info().misses
        events.clear()
        warm = best_constant_lower(spec, self.BUDGET, seed=self.SEED, grid=GRID)
        warm_events = events
        assert misses == self.BUDGET.n_random and memo.cache_info().misses == misses
        assert warm_events == cold_events
        kinds = "".join(e[0][0] for e in cold_events)
        n_scan = kinds.index("s")
        assert n_scan > 0
        assert kinds[n_scan:n_scan + 2 * self.BUDGET.n_random] == "sr" * self.BUDGET.n_random
        assert "s" not in kinds[n_scan + 2 * self.BUDGET.n_random:]
        seeds = [e[1] for e in cold_events if e[0] == "sample"]
        assert seeds == [self.SEED + 7919 * (i + 1) for i in range(self.BUDGET.n_random)]
        assert (warm.lower_bound, warm.trace, warm.divergence_flag) == \
            (cold.lower_bound, cold.trace, cold.divergence_flag)
        assert warm.witness.tobytes() == cold.witness.tobytes()


# -- the batched ascent against the sequential one-factor-at-a-time ascent --

def sequential_best_constant_lower(spec, budget, seed, grid):
    """The oracle's search with one ``ratio`` call per ascent factor, tried in
    turn: the reference the batched ascent must reproduce exactly."""
    engine = RayleighEngine(spec, grid)
    n, cone = engine.n, spec.cone
    best, best_vals, trace = 0.0, np.zeros(n), []
    idxs = np.unique(np.linspace(0, n - 1, min(budget.n_char, n)).astype(int))
    for fam in indicator_families(cone):
        for j in idxs:
            vals = indicator(n, j, fam)
            r = engine.ratio(vals)
            if np.isfinite(r) and r > best:
                best, best_vals = r, vals
    trace.append(best)
    for i in range(budget.n_random):
        if cone == "none":
            f = sample_nonneg(engine.grid, seed + 7919 * (i + 1))
        else:
            f = sample_monotone(cone, engine.grid, seed + 7919 * (i + 1))
        r = engine.ratio(f)
        if np.isfinite(r) and r > best:
            best, best_vals = r, f.copy()
    trace.append(best)
    if budget.n_ascent > 0 and best > 0.0:
        vals = best_vals.copy()
        rng = np.random.default_rng(seed + 104729)
        for _ in range(budget.n_ascent):
            improved = False
            for j in rng.permutation(n):
                for fac in (2.0, 0.5, 1.1, 1.0 / 1.1):
                    cand = vals.copy()
                    cand[j] = cand[j] * fac if cand[j] > 0 else fac - 1.0 if fac > 1 else 0.0
                    if cone == "non_increasing":
                        cand = np.maximum.accumulate(cand[::-1])[::-1]
                    elif cone == "non_decreasing":
                        cand = np.maximum.accumulate(cand)
                    else:
                        cand = np.maximum(cand, 0.0)
                    r = engine.ratio(cand)
                    if np.isfinite(r) and r > best * (1.0 + 1e-12):
                        best, vals, improved = r, cand, True
                        break
            if not improved:
                break
        best_vals = vals
    trace.append(best)
    return best, best_vals, tuple(trace)


T = PowerWeight(1.0, 1.0)
SQRT = PowerWeight(1.0, 0.5)
ASCENT_SPECS = {
    "S": InequalitySpec(OperatorKind("S", None, ONE), "non_decreasing", EXP,
                        PowerWeight(1.0, 1.0, 1.0), Exponents(2.0, 1.0)),
    "S*": InequalitySpec(OperatorKind("S*", None, ONE), "non_increasing", ONE, EXP,
                         Exponents(2.0, 1.0)),
    "SoH": InequalitySpec(OperatorKind("S", "H", ONE), "none", SQRT, EXP, Exponents(2.0, 2.0)),
    "S*oH": InequalitySpec(OperatorKind("S*", "H", ONE), "none", T, EXP, Exponents(2.0, 2.0)),
    "SoH*": InequalitySpec(OperatorKind("S", "H*", ONE), "none", T, EXP, Exponents(2.0, 1.0)),
    "S*oH*": InequalitySpec(OperatorKind("S*", "H*", ONE), "none", ONE, EXP, Exponents(2.0, 2.0)),
    "T_ub": InequalitySpec(OperatorKind("T_ub", None, ONE, ONE), "non_increasing", ONE, EXP,
                           Exponents(2.0, 2.0)),
    # unbounded: the quotient keeps doubling, sweep after sweep
    "S*-up-unbounded": InequalitySpec(OperatorKind("S*", None, ONE), "non_decreasing", EXP, EXP,
                                      Exponents(1.0, 1.0)),
    # u = t, v = 1, w = e^{-t}, p = 1, q = 1/2: the best indicator is a local
    # maximum, so no ascent step gains and the ascent ends after one sweep
    # (q < 1 keeps it off the ray pass, which p = q = 1 would take)
    "S-no-gain": down_spec(1.0, 0.5),
}
ASCENT_GRID = make_log_grid(1e-4, 1e4, 200)
ASCENT_BUDGET = OracleBudget(64, 20, 8)
ASCENT_SEED = 3
ASCENT_FACTORS = (2.0, 0.5, 1.1, 1.0 / 1.1)
BATCH_CAP = 12  # most coordinates per ascent call at 200 knots
ROW_CAP = 48  # BATCH_CAP coordinates of four factor steps


def ascent_steps(base, j, factors, cone):
    """The steps of ``factors`` at coordinate ``j`` from ``base``, each
    projected onto the cone, as the sequential ascent builds them."""
    rows = []
    for fac in factors:
        cand = base.copy()
        cand[j] = cand[j] * fac if cand[j] > 0 else fac - 1.0 if fac > 1 else 0.0
        if cone == "non_increasing":
            cand = np.maximum.accumulate(cand[::-1])[::-1]
        elif cone == "non_decreasing":
            cand = np.maximum.accumulate(cand)
        else:
            cand = np.maximum(cand, 0.0)
        rows.append(cand)
    return rows


# cone rows with plateaus, zeros, subnormal-scale, huge and +inf entries
STEP_VALUES = st.sampled_from([0.0, 0.0, 5e-324, 0.5, 1.0, 1.0, 1.1, 2.0, 1e300, INF])


@st.composite
def cone_rows(draw):
    cone = draw(st.sampled_from(["non_increasing", "non_decreasing", "none"]))
    n = draw(st.integers(3, 12))
    rows = np.array(draw(st.lists(st.lists(STEP_VALUES, min_size=n, max_size=n),
                                  min_size=1, max_size=3)))
    if cone != "none":
        rows = np.sort(rows, axis=1)
        if cone == "non_increasing":
            rows = rows[:, ::-1].copy()
    return cone, rows


class TestAscentStep:
    """The closed-form step of the ascent (``_around`` and ``_rule``, on
    floats, and ``_step``) against 'set knot j, then project onto the cone
    with a running maximum' (``ascent_steps``)."""

    @given(cone_rows(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_closed_form_step_is_the_projected_step(self, case, data):
        cone, bases = case
        m, n = bases.shape
        # every row takes all four factors at its first, last and an interior knot
        knots = [0, n - 1, data.draw(st.integers(1, n - 2))]
        steps = [(b, j, f) for b in range(m) for j in knots for f in range(len(ASCENT_FACTORS))]
        with np.errstate(over="ignore"):  # 2 x 1e300
            want = [ascent_steps(bases[b], j, ASCENT_FACTORS[f:f + 1], cone)[0] for b, j, f in steps]
        for w, (b, j, f) in zip(want, steps):
            base = bases[b]
            x, hold, edge = oracle._around(base, j, cone)
            y, at_j, lifts = oracle._rule(x, hold, edge, f)
            fresh = bool((w != base).any())
            # the plan decides, on floats alone, whether the step is fresh,
            # its value at j and whether it lifts a knot of the other side
            assert (at_j != x) == fresh
            assert np.float64(at_j).tobytes() == w[j].tobytes()
            side = slice(0, j) if cone == "non_increasing" else slice(j + 1, n)
            assert lifts == (cone != "none" and bool((w[side] != base[side]).any()))
            # the one-step form returns its base itself when the step leaves it
            row = oracle._step(base, j, f, cone)
            assert row.tobytes() == w.tobytes()
            assert np.shares_memory(row, bases) == (not fresh)

    @pytest.mark.parametrize("cone", CONES)
    def test_overflowing_step_is_inf_without_a_warning(self, cone):
        # factor 2 takes a knot of 1e308 past the float range: the step reads
        # +inf, and the library emits no overflow warning
        base = np.full(5, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, at_j, _ = oracle._rule(*oracle._around(base, 2, cone), 0)
            single = oracle._step(base, 2, 0, cone)
        assert y == at_j == single[2] == INF
        with np.errstate(over="ignore"):
            assert single.tobytes() == ascent_steps(base, 2, ASCENT_FACTORS[:1], cone)[0].tobytes()


class RowsEngine:
    """A stand-in for ``RayleighEngine`` in one ``_predicted_batch``: it
    records the rows of each ``ratios`` call and scores every row 0.  Its
    knots flagged ``rise_dead`` are those whose growing steps the batch
    leaves out at a normal ``best``."""

    def __init__(self, cone, rise_dead):
        self.cone = cone
        self._rise_dead = list(rise_dead)
        self.calls = []

    def ratios(self, F):
        self.calls.append(np.array(F))
        return np.zeros(len(F))


@st.composite
def predicted_batches(draw):
    """A cone row, a batch of its coordinates and a prediction for each, of
    which at least two are predicted gains (f >= 0); -1 - s is 'no gain,
    factors from s on', s = 0..4.  Each knot is flagged rise-dead or not,
    and the best so far is a normal float or a subnormal one."""
    cone, rows = draw(cone_rows())
    vals = rows[0]
    n = len(vals)
    coords = draw(st.permutations(range(n)).flatmap(
        lambda order: st.integers(2, n).map(lambda k: order[:k])))
    preds = draw(st.lists(st.integers(-5, 3), min_size=len(coords), max_size=len(coords))
                 .filter(lambda ps: sum(f >= 0 for f in ps) >= 2))
    pred = [-1] * n
    for j, f in zip(coords, preds):
        pred[j] = f
    rise_dead = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    best = draw(st.sampled_from([1.0, 1e-310]))
    return cone, vals, coords, pred, rise_dead, best


def left_out(rise_dead, j, f, best):
    """Whether the ascent leaves out the step of factor index f at knot j
    unscored for reaching no w-mass: a growing step at a rise-dead knot,
    while the best so far is a normal float."""
    return best >= 2.0 ** -1022 and rise_dead[j] and ASCENT_FACTORS[f] > 1.0


class TestPredictedBatch:
    @given(predicted_batches())
    @settings(max_examples=300, deadline=None)
    def test_scores_the_steps_from_the_model_bases(self, case):
        cone, vals, coords, pred, rise_dead, start = case
        # the model: each coordinate's steps from the point the earlier
        # predicted gains lead to, without the steps equal to their base and
        # those left out; a predicted gain left out does not move the point
        expected, base = [], vals
        for j in coords:
            f = pred[j]
            first = 0 if f >= 0 else -1 - f
            rows = ascent_steps(base, j, ASCENT_FACTORS[first:f + 1 if f >= 0 else None], cone)
            expected += [row for g, row in enumerate(rows, first)
                         if not (np.array_equal(row, base) or left_out(rise_dead, j, g, start))]
            if f >= 0 and not left_out(rise_dead, j, f, start):
                base = rows[-1]
        engine, before = RowsEngine(cone, rise_dead), list(pred)
        done, hit, point, best = oracle._predicted_batch(engine, vals, start, np.array(coords), pred)
        if expected:
            assert len(engine.calls) == 1
            assert engine.calls[0].tobytes() == np.array(expected).tobytes()
        else:
            assert engine.calls == []
        # every row scores 0: the first predicted gain is a rescore miss, at
        # the point the batch started from
        c = next(c for c, j in enumerate(coords) if before[j] >= 0)
        assert (done, hit, best) == (c, False, start)
        assert point is vals
        assert [pred[j] for j in coords[:c + 1]] == [-1] * c + [-2 - before[coords[c]]]


# the side of a changed input region on which each one-sided operator's
# outputs can move: S and SoH at or above it, S* and S*oH* at or below it
REACH = {("S", None): "above", ("S", "H"): "above", ("S*", None): "below", ("S*", "H*"): "below"}
# the side a rising knot lifts the other knots to
LIFTS = {"non_increasing": "below", "non_decreasing": "above"}


def quiet_knots(engine):
    """Per knot, (rise-dead, dead), read knot by knot off the operator, the
    cone and the engine's masses.  A knot is rise-dead where the cone lifts
    only toward the operator's reach, or not at all, and every region the
    reach of its own region touches has no w-mass; it is dead where, too,
    every region a step there can change (its own, and on a monotone cone
    the lifted side) has no v-mass."""
    spec, dV, dW = engine.spec, engine.dV.tolist(), engine.dW.tolist()
    reach = REACH.get((spec.kind.base, spec.kind.compose))  # T_ub has none
    n = engine.n
    flags = []
    for j in range(n):
        r = j if spec.cone == "non_increasing" else j + 1
        if reach is None or LIFTS.get(spec.cone, reach) != reach:
            flags.append((False, False))
            continue
        side = range(r, n + 1) if reach == "above" else range(r + 1)
        changed = [r] if spec.cone == "none" else side
        rise = all(dW[i] == 0.0 for i in side)
        flags.append((rise, rise and all(dV[i] == 0.0 for i in changed)))
    return flags


class PredictedPathSpy:
    """Wraps ``RayleighEngine.ratio``/``ratios`` and replays the oracle's
    acceptance rules on what it scores.  ``ratio`` calls (indicator scan,
    random samples) take any finite gain.  The ascent is modelled on its own:
    each sweep visits a permutation of the coordinates; ``pred[j]`` is the
    outcome of coordinate j's last visit (the index of the factor that
    gained, or -1); a batch of k coordinates takes factors 0..pred[j], or all
    four when pred[j] = -1, each stepped from the point the earlier
    coordinates' predicted outcomes lead to; steps equal to their own base
    are not scored, nor, while the best so far is a normal float, growing
    steps at rise-dead knots, and a batch without a row to score makes no
    call.  A sweep's permutation is drawn over every knot, then its dead
    knots are dropped; both flags come from ``quiet_knots``.  The
    first-gain rule is replayed up to the first coordinate whose outcome is
    not its prediction (a miss); k doubles up to ``BATCH_CAP`` after a batch
    without one and drops to 1 after one.  After a rescore miss (factors
    0..f failed) the next batch starts at that coordinate and takes only
    factors f+1..3, none when f = 3.  Each ascent call must score exactly
    the model's rows, within the row cap."""

    MISS_KINDS = ("earlier", "rescore", "unpredicted")

    def __init__(self, monkeypatch, n, seed):
        self.n = n
        self.point, self.best = None, 0.0
        self.calls = []  # rows per ascent call
        self.sweeps = 0
        self.misses = dict.fromkeys(self.MISS_KINDS, 0)
        self.pred = [-1] * n
        self.resume = {}  # coordinate -> first factor of its next visit, after a rescore miss
        self.rng = np.random.default_rng(seed + 104729)
        self.order, self.pos, self.k, self.sweep_start = [], 0, 1, None
        self.visits = 0  # knots in the sweeps' orders
        self.cone, self.rise_dead, self.dead = None, None, None
        self._single = False
        ratios, ratio = RayleighEngine.ratios, RayleighEngine.ratio
        spy = self

        def spy_ratio(engine, values):
            spy._single = True
            try:
                return ratio(engine, values)
            finally:
                spy._single = False

        def spy_ratios(engine, F):
            F = np.array(F, dtype=float)
            rs = ratios(engine, F)
            if spy._single:
                if np.isfinite(rs[0]) and rs[0] > spy.best:
                    spy.point, spy.best = F[0], float(rs[0])
            else:
                spy.cone = engine.cone
                spy.rise_dead, spy.dead = zip(*quiet_knots(engine))
                spy.ascent_call(F, rs)
            return rs

        monkeypatch.setattr(RayleighEngine, "ratio", spy_ratio)
        monkeypatch.setattr(RayleighEngine, "ratios", spy_ratios)

    def next_batch(self):
        """The model's next batch: ``(coords, firsts, blocks, fresh)``, the
        first factor of each coordinate's steps, one block of step rows per
        coordinate and a mask per block of the rows scored."""
        if self.pos >= len(self.order):
            assert self.sweep_start is None or self.best > self.sweep_start, "sweep without a gain"
            order = self.rng.permutation(self.n).tolist()
            self.order, self.pos, self.k = [j for j in order if not self.dead[j]], 0, 1
            self.sweep_start = self.best
            self.sweeps += 1
            self.visits += len(self.order)
        coords = self.order[self.pos:self.pos + self.k]
        firsts, blocks, fresh, base = [], [], [], self.point
        for j in coords:
            f = self.pred[j]
            first = 0 if f >= 0 else self.resume.get(j, 0)
            rows = ascent_steps(base, j, ASCENT_FACTORS[first:f + 1 if f >= 0 else None], self.cone)
            firsts.append(first)
            blocks.append(rows)
            fresh.append([not (np.array_equal(row, base) or left_out(self.rise_dead, j, g, self.best))
                          for g, row in enumerate(rows, first)])
            if f >= 0 and not left_out(self.rise_dead, j, f, self.best):
                base = rows[f]
        return coords, firsts, blocks, fresh

    def replay(self, coords, firsts, blocks, scores):
        """Replay the first-gain rule on a batch; ``scores`` holds one list
        per block, 0.0 for a row not scored."""
        for c, (j, first, rows, rs) in enumerate(zip(coords, firsts, blocks, scores)):
            floor = self.best * (1.0 + 1e-12)
            gain = next((i for i, r in enumerate(rs) if np.isfinite(r) and r > floor), -1)
            if gain >= 0:
                self.point, self.best = rows[gain], float(rs[gain])
                gain += first
            self.resume.pop(j, None)
            if gain == self.pred[j]:
                continue
            if gain < 0:
                self.misses["rescore"] += 1
                self.resume[j] = self.pred[j] + 1
                self.pred[j], self.pos, self.k = -1, self.pos + c, 1
            else:
                self.misses["earlier" if self.pred[j] >= 0 else "unpredicted"] += 1
                self.pred[j], self.pos, self.k = gain, self.pos + c + 1, 1
            return
        self.pos, self.k = self.pos + len(coords), min(2 * self.k, BATCH_CAP)

    def ascent_call(self, F, rs):
        assert len(F) <= ROW_CAP
        while True:
            coords, firsts, blocks, fresh = self.next_batch()
            if any(map(any, fresh)):
                break
            self.replay(coords, firsts, blocks, [[0.0] * len(rows) for rows in blocks])
        # the call scores the model's rows: no step equal to its own base
        expected = [row for rows, keep in zip(blocks, fresh) for row, k in zip(rows, keep) if k]
        assert np.array_equal(F, np.array(expected))
        self.calls.append(len(F))
        it = iter(rs.tolist())
        self.replay(coords, firsts, blocks, [[next(it) if k else 0.0 for k in keep] for keep in fresh])

    @property
    def rows(self):
        return sum(self.calls)


class TestBatchedAscent:
    @pytest.mark.parametrize("name", list(ASCENT_SPECS))
    def test_matches_sequential_ascent(self, name):
        spec = ASCENT_SPECS[name]
        got = best_constant_lower(spec, ASCENT_BUDGET, seed=3, grid=ASCENT_GRID)
        best, witness, trace = sequential_best_constant_lower(spec, ASCENT_BUDGET, 3, ASCENT_GRID)
        assert got.lower_bound == best
        assert np.array_equal(got.witness, witness)
        assert got.trace == trace
        if name == "S-no-gain":
            assert trace[-1] == trace[1]
        else:
            assert trace[-1] > trace[1]  # the ascent did move
        if name == "S*-up-unbounded":
            assert trace[-1] > 1e5 * trace[1]

    @pytest.mark.parametrize("name", list(ASCENT_SPECS))
    def test_scores_no_current_point_within_row_cap(self, name, monkeypatch):
        spy = PredictedPathSpy(monkeypatch, ASCENT_GRID.n, ASCENT_SEED)
        got = best_constant_lower(ASCENT_SPECS[name], ASCENT_BUDGET, seed=ASCENT_SEED, grid=ASCENT_GRID)
        # the replayed acceptances end where the oracle does
        assert spy.best == got.lower_bound
        assert np.array_equal(spy.point, got.witness)
        if name == "S-no-gain":
            # batches grow past one coordinate: the one sweep takes far fewer
            # calls than it has coordinates
            assert max(spy.calls) > 4
            assert len(spy.calls) < ASCENT_GRID.n // 4

    # (spec, seed) whose ascent takes each kind of miss: an earlier factor
    # gains than the one predicted; the predicted factor and those before it
    # fail, so the later ones are scored on a second visit; a coordinate
    # predicted not to gain gains
    MISS_CASES = {"earlier": ("S*oH", 5), "rescore": ("SoH", 11), "unpredicted": ("T_ub", 5)}

    @pytest.mark.parametrize("kind", PredictedPathSpy.MISS_KINDS)
    def test_miss_resumes_on_the_sequential_path(self, kind, monkeypatch):
        name, seed = self.MISS_CASES[kind]
        spec = ASCENT_SPECS[name]
        best, witness, trace = sequential_best_constant_lower(spec, ASCENT_BUDGET, seed, ASCENT_GRID)
        spy = PredictedPathSpy(monkeypatch, ASCENT_GRID.n, seed)
        got = best_constant_lower(spec, ASCENT_BUDGET, seed=seed, grid=ASCENT_GRID)
        assert spy.misses[kind] > 0
        assert got.lower_bound == best == spy.best
        assert np.array_equal(got.witness, witness)
        assert got.trace == trace

    def test_cost_on_unbounded_spec(self, monkeypatch):
        spy = PredictedPathSpy(monkeypatch, ASCENT_GRID.n, ASCENT_SEED)
        best_constant_lower(ASCENT_SPECS["S*-up-unbounded"], ASCENT_BUDGET, seed=ASCENT_SEED,
                            grid=ASCENT_GRID)
        # every sweep gains, so all eight run, over every knot (S* on the
        # non-decreasing cone has no dead knot): 1,600 coordinate visits
        visits = spy.visits
        assert visits == ASCENT_BUDGET.n_ascent * ASCENT_GRID.n
        # 202 calls and 2.15 rows per visit when pinned; resetting the batch
        # to one coordinate at every gain takes about 1,600 calls, and scoring
        # every factor about 4 rows per visit
        assert len(spy.calls) <= 240
        assert spy.rows <= 2.5 * visits

    @pytest.mark.parametrize("n, cap", [(96, 12), (512, 8), (1024, 4)])
    def test_batch_cap_shrinks_on_large_grids(self, n, cap, monkeypatch):
        sizes = []
        batch = oracle._predicted_batch

        def spy_batch(engine, vals, best, coords, pred):
            sizes.append(len(coords))
            return batch(engine, vals, best, coords, pred)

        monkeypatch.setattr(oracle, "_predicted_batch", spy_batch)
        got = best_constant_lower(ASCENT_SPECS["S-no-gain"], OracleBudget(16, 0, 1), seed=ASCENT_SEED,
                                  grid=make_log_grid(1e-4, 1e4, n))
        assert got.trace[-1] == got.trace[0]  # one sweep without a gain
        assert sum(sizes) == n
        assert max(sizes) == cap


# -- ascent steps whose change reaches no w-mass --

ZERO = PowerWeight(0.0, 0.0)
# 0 on (0, 1e-2], 1 on (1e-2, 1e2] and 0 beyond: no mass on the regions at
# either end of ``KERNEL_GRID``, which the reach of S and SoH (above) and of
# S* and S*oH* (below) can touch alone
QUIET_W = PiecewisePowerWeight((1e-2, 1e2), (ZERO, ONE, ZERO))
# 1 but on (1e-3, 1e-2] and (1e2, 1e3): there, where QUIET_W has no mass
# either, a knot's own region has no v-mass, but a rise there lifts knots of
# regions with v-mass on a monotone cone
GAP_V = PiecewisePowerWeight((1e-3, 1e-2, 1e2, 1e3), (ONE, ZERO, ONE, ZERO, ONE))
# each one-sided operator, with u = 1, t, a table and a piecewise power, on
# the cones where a knot can be flagged: its reach's lifting cone and ``none``
QUIET_US = {"1": ONE, "t": T, "table": U_TABLE, "piecewise": U_PIECEWISE}
QUIET_CASES = {f"{kind.describe()}-u{name}-{cone}": (kind, cone)
               for (base, compose), reach in REACH.items() for name, u in QUIET_US.items()
               for kind in [OperatorKind(base, compose, u)]
               for cone in ("none", "non_decreasing" if reach == "above" else "non_increasing")}


def norm_terms(engine, row):
    """The denominator's and the numerator's terms of ``row``: region values
    and kernel outputs raised to p and q, times the v- and w-masses."""
    p, q = engine.spec.exps.p, engine.spec.exps.q
    segv = region_values(row[None], engine.cone)
    with np.errstate(all="ignore"):
        out = engine.kernel.apply(segv)
        return _amul(segv ** p, engine.dV)[0], _amul(out ** q, engine.dW)[0]


class TestQuietKnots:
    """The ascent leaves out the steps whose change reaches no w-mass
    (``oracle``'s module docstring): the kernel's one-sided reach, the
    engine's flags against ``quiet_knots``, the norms' terms of every step
    at a flagged knot, and the ascent on the CLI grid."""

    @pytest.mark.parametrize("cone", CONES)
    def test_reach_is_one_sided(self, cone):
        # a change of one input region, on any row, moves no output on the
        # other side of it, bit for bit
        rng = np.random.default_rng(11)
        n = KERNEL_GRID.n
        for kind in dict.fromkeys(kind for kind, _ in QUIET_CASES.values()):
            kernel = OperatorKernel(kind, cone, KERNEL_GRID)
            assert kernel.reach == REACH[kind.base, kind.compose]
            segv = region_values(witnesses(cone, rng), cone)
            for r in range(n + 1):
                for moved_to in (0.0, 3.0, INF):
                    moved = segv.copy()
                    moved[:, r] = moved_to
                    with np.errstate(all="ignore"):
                        before, after = kernel.apply(segv), kernel.apply(moved)
                    keep = slice(0, r) if kernel.reach == "above" else slice(r + 1, n + 1)
                    assert before[:, keep].tobytes() == after[:, keep].tobytes(), (kind, r)

    @pytest.mark.parametrize("kind", [OperatorKind("S", "H*"), OperatorKind("S*", "H"),
                                      OperatorKind("T_ub")], ids=["SoH*", "S*oH", "T_ub"])
    def test_two_sided_kernels_flag_no_knot(self, kind):
        for cone in CONES:
            engine = RayleighEngine(InequalitySpec(kind, cone, QUIET_W, QUIET_W, Exponents(2.0, 3.0)),
                                    KERNEL_GRID)
            assert engine.kernel.reach is None
            assert not any(engine._rise_dead) and not engine._dead.any()

    @pytest.mark.parametrize("v", ["one", "quiet", "gap"])
    @pytest.mark.parametrize("case", list(QUIET_CASES))
    def test_steps_at_flagged_knots(self, case, v):
        # every step at a flagged knot leaves each numerator term bit for
        # bit; at a dead knot each denominator term too, and at a rise-dead
        # one a growing step lowers no denominator term
        kind, cone = QUIET_CASES[case]
        spec = InequalitySpec(kind, cone, {"one": ONE, "quiet": QUIET_W, "gap": GAP_V}[v], QUIET_W,
                              Exponents(2.0, 3.0))
        engine = RayleighEngine(spec, KERNEL_GRID)
        flags = quiet_knots(engine)
        assert engine._rise_dead == [rise for rise, _ in flags]
        assert engine._dead.tolist() == [dead for _, dead in flags]
        assert any(engine._rise_dead)
        # a gap in v makes dead knots only where a rise lifts no other knot
        assert engine._dead.any() == (v == "quiet" or (v == "gap" and cone == "none"))
        rows = witnesses(cone, np.random.default_rng(list(QUIET_CASES).index(case)), m=6)
        for base in np.concatenate([rows, np.zeros((1, KERNEL_GRID.n))]):
            den, num = norm_terms(engine, base)
            for j, (rise, dead) in enumerate(flags):
                if not rise:
                    continue
                for f in range(len(ASCENT_FACTORS)):
                    step_den, step_num = norm_terms(engine, oracle._step(base, j, f, cone))
                    assert step_num.tobytes() == num.tobytes(), (j, f)
                    if dead:
                        assert step_den.tobytes() == den.tobytes(), (j, f)
                    elif ASCENT_FACTORS[f] > 1.0:
                        assert (step_den >= den).all() and step_den.sum() >= den.sum(), (j, f)

    def test_sup_189_at_the_cli_grid(self, monkeypatch):
        # S with u = t^{1/2}, v = e^{-t}, w = t e^{-t}, p = q = 2 on the
        # non-decreasing cone: v and w have no mass past t of about 745, so
        # 187 of the 512 knots are dead; no sweep visits them, and the ascent
        # ends where the one that tries every knot and factor does
        spec = candidate("sup-189").spec
        budget = OracleBudget(64, 8, 3)
        dead = np.array([d for _, d in quiet_knots(RayleighEngine(spec, CLI_GRID))])
        assert dead.sum() == 187
        visited, settled = set(), []
        batch = oracle._predicted_batch

        def spy_batch(engine, vals, best, coords, pred):
            visited.update(coords.tolist())
            out = batch(engine, vals, best, coords, pred)
            settled.append(out[0])
            return out

        monkeypatch.setattr(oracle, "_predicted_batch", spy_batch)
        got = best_constant_lower(spec, budget, seed=1, grid=CLI_GRID)
        best, witness, trace = sequential_best_constant_lower(spec, budget, 1, CLI_GRID)
        assert got.lower_bound == best and got.trace == trace
        assert got.witness.tobytes() == witness.tobytes()
        assert trace[2] > trace[1]  # the ascent gained
        assert visited == set(np.flatnonzero(~dead).tolist())
        assert sum(settled) % (512 - 187) == 0


# -- the ray pass: the third stage where p <= 1 <= q --

def on_ray_path(engine):
    """p <= 1 <= q, and every extreme ray of the cone has positive v-mass:
    chi_(0, k_0] (region R_0) on the non-increasing cone, chi_[k_{n-1}, oo)
    (region R_n) on the non-decreasing one and each unit row on ``none``."""
    spec = engine.spec
    if not spec.exps.p <= 1.0 <= spec.exps.q:
        return False
    mass = {"non_increasing": engine.dV[:1], "non_decreasing": engine.dV[-1:], "none": engine.dV[1:]}
    return bool((mass[spec.cone] > 0.0).all())


def all_rays(n, cone):
    """The cone's n extreme rays, one row each, in knot order."""
    if cone == "none":
        return np.eye(n)
    return np.tril(np.ones((n, n))) if cone == "non_increasing" else np.triu(np.ones((n, n)))


def candidate(sid):
    return next(sc for sc in load_config(CANDIDATES) if sc.id == sid)


class TestRays:
    """``_rays(n, cone)``: row j is the cone's extreme ray at knot j, and the
    rows are one read-only view of a staircase of 2n - 1 floats."""

    @pytest.mark.parametrize("n", [2, 3, 96])
    @pytest.mark.parametrize("cone", CONES)
    def test_rows_are_the_rays(self, cone, n):
        rays = oracle._rays(n, cone)
        j, k = np.arange(n)[:, None], np.arange(n)
        want = {"non_increasing": k <= j, "non_decreasing": k >= j, "none": k == j}[cone]
        assert rays.dtype == float and np.array_equal(rays, want)

    @pytest.mark.parametrize("n", [2, 3, 96])
    @pytest.mark.parametrize("cone", CONES)
    def test_one_read_only_staircase(self, cone, n):
        rays = oracle._rays(n, cone)
        assert not rays.flags.writeable and not rays[n - 1].flags.writeable
        with pytest.raises(ValueError):
            rays[0, 0] = 2.0
        # numpy < 2 has byte_bounds at the top level
        lo, hi = getattr(np.lib, "array_utils", np).byte_bounds(rays)
        assert hi - lo == (2 * n - 1) * rays.itemsize


# S with u = t, v = t^{-2}, w = e^{-t}, p = q = 1 on the non-decreasing cone:
# chi_[a, oo) scores a (a + 1) e^{-a}, and every ray has positive v-mass
S_UP_RAYS = InequalitySpec(OperatorKind("S", None, T), "non_decreasing", PowerWeight(1.0, -2.0), EXP,
                           Exponents(1.0, 1.0))
RAY_GRID = make_log_grid(1e-5, 1e5, 200)  # four calls of 48 rays and one of 8
# (spec, n_char): unit rows on ``none``; monotone cones whose scan skipped
# knots; a monotone cone whose scan took every knot and so scored the rays
RAY_CASES = {
    "isi1v-444": (lambda: candidate("isi1v-444").spec, 128),
    "sdown-036": (lambda: candidate("sdown-036").spec, 64),
    "S-up": (lambda: S_UP_RAYS, 64),
    "S-up-full-scan": (lambda: S_UP_RAYS, RAY_GRID.n),
}


class TestRayPass:
    """Where p <= 1 <= q and every extreme ray has positive v-mass, the third
    stage scores the cone's extreme rays and runs no ascent; any other spec
    runs the ascent."""

    def test_no_row_beats_the_best_ray(self, monkeypatch):
        # the rows of a short sequential search, random samples and ascent
        # steps alike, on every battery scenario and candidate on the ray path
        scored = []
        ratio = RayleighEngine.ratio

        def spy_ratio(engine, values):
            scored.append(ratio(engine, values))
            return scored[-1]

        monkeypatch.setattr(RayleighEngine, "ratio", spy_ratio)
        on_path = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for sc in load_config(BATTERY) + load_config(CANDIDATES):
                engine = RayleighEngine(sc.spec, make_log_grid(**sc.grid))
                assert oracle._rays_are_exact(engine) == on_ray_path(engine), sc.id
                if not on_ray_path(engine):
                    continue
                on_path += 1
                top = engine.ratios(all_rays(engine.n, sc.spec.cone)).max()
                scored.clear()
                sequential_best_constant_lower(sc.spec, OracleBudget(8, 8, 1), sc.seed, engine.grid)
                assert max(scored) <= top * (1.0 + 1e-12), sc.id
        assert on_path == 31 + 186

    def test_zero_v_mass_ray_falls_back_to_the_ascent(self, monkeypatch):
        # S* with u = 1, v = w = e^{-t}, p = q = 1 on the non-decreasing cone:
        # chi_[k_95, oo) has v-mass 0 (e^{-1e5} underflows), so it reads 0
        # while its true quotient is about e^{1e5}, and the best ray, 3.9e14,
        # is no bound on the constant; the ascent keeps the pinned 1.6e21
        sc = candidate("sstarup-144")
        grid = make_log_grid(**sc.grid)
        engine = RayleighEngine(sc.spec, grid)
        assert sc.spec.exps.p <= 1.0 <= sc.spec.exps.q and engine.dV[-1] == 0.0
        top = engine.ratios(all_rays(engine.n, sc.spec.cone)).max()
        batches = []
        batch = oracle._predicted_batch

        def spy_batch(engine, vals, best, coords, pred):
            batches.append(len(coords))
            return batch(engine, vals, best, coords, pred)

        monkeypatch.setattr(oracle, "_predicted_batch", spy_batch)
        orc = best_constant_lower(sc.spec, sc.budget, sc.seed, grid)
        with open(os.path.join(ROOT, "tests", "data", "candidate_oracle_golden.json")) as fh:
            pinned = json.load(fh)["sstarup-144"]["oracle_lower"]
        assert batches
        assert orc.lower_bound == pinned > 1e21 and top < 1e15

    @pytest.mark.parametrize("name", list(RAY_CASES))
    def test_scores_the_rays_in_calls_of_at_most_48_rows(self, name, monkeypatch):
        make, n_char = RAY_CASES[name]
        spec = make()
        calls, batches = [], []
        ratios = RayleighEngine.ratios

        def spy_ratios(engine, F):
            calls.append(len(F))
            return ratios(engine, F)

        monkeypatch.setattr(RayleighEngine, "ratios", spy_ratios)
        monkeypatch.setattr(oracle, "_predicted_batch", lambda *args: batches.append(args))
        best_constant_lower(spec, OracleBudget(n_char, 8, 50), seed=1, grid=RAY_GRID)
        assert not batches
        # one row per indicator and sample, then the rays unless the scan took them
        rays = [48, 48, 48, 48, 8] if spec.cone == "none" or n_char < RAY_GRID.n else []
        assert calls == [1] * (len(calls) - len(rays)) + rays

    @pytest.mark.parametrize("name", list(RAY_CASES))
    def test_bound_is_the_best_ray(self, name):
        make, n_char = RAY_CASES[name]
        spec = make()
        orc = best_constant_lower(spec, OracleBudget(n_char, 8, 50), seed=1, grid=RAY_GRID)
        engine = RayleighEngine(spec, RAY_GRID)
        rays = all_rays(RAY_GRID.n, spec.cone)
        rs = engine.ratios(rays)  # one n-row call
        assert orc.lower_bound == orc.trace[2] == max(orc.trace[1], rs.max())
        if rs.max() > orc.trace[1]:
            assert np.array_equal(orc.witness, rays[rs.argmax()])
