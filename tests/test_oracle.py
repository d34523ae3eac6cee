"""Brute-force lower-bound search: soundness, reproducibility, reporting."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supineq.cli import load_config
from supineq.criteria import CriterionResult, InequalitySpec
from supineq.extreal import INF, xdiv
from supineq.gridfn import (
    GridFunction,
    make_log_grid,
    sample_monotone,
    sample_nonneg,
    weighted_norm,
)
from supineq.operators import OperatorKind, apply_spec
from supineq.oracle import (
    OracleBudget,
    OracleResult,
    RayleighEngine,
    best_constant_lower,
    down_dual_constant,
    equivalence_report,
    verify_three_way,
)
from supineq.weights import Exponents, PowerWeight

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

    def test_ratio_never_exceeds_true_constant(self):
        # u = t, v = 1, w = e^{-t}, p = q = 1 on the non-increasing cone has
        # best constant exactly 1 (characteristic functions are extremal)
        orc = best_constant_lower(down_spec(), OracleBudget(256, 100, 20), seed=123, grid=GRID)
        assert orc.lower_bound <= 1.0 + 1e-9
        assert orc.lower_bound >= 0.99


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
                            divergence_flag=div, tail_side=None)

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
    def test_down_dual_constant_matches_ratio(self):
        # g = V for v = 1, p = 1: the quotient G(t) V(t)^{-1} is exactly 1
        g = PowerWeight(1.0, 1.0)
        val = down_dual_constant(g, ONE, 1.0, grid=GRID)
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_verify_three_way_structure(self):
        out = verify_three_way(PowerWeight(1.0, 1.0), ONE, ONE, EXP,
                               Exponents(0.5, 0.5),
                               budget=OracleBudget(64, 10, 3), seed=4, grid=GRID)
        assert set(out["lower_bounds"]) == {"direct", "powered", "double_sup"}
        for v in out["lower_bounds"].values():
            assert v >= 0.0
        assert "ratios" in out and "divergence_flags" in out


# -- the batched kernel against the per-row wrapper and the operator module --

KERNEL_GRID = make_log_grid(1e-5, 1e5, 40)  # the battery's range at n = 40


KERNEL_SPECS = [(sc.id, sc.spec) for sc in load_config(BATTERY)] + [
    ("ss_ub", InequalitySpec(OperatorKind("SS_ub", None, PowerWeight(1.0, 1.0), ONE),
                             "non_increasing", ONE, EXP, Exponents(0.5, 0.5)))]


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
        rand = [sample_nonneg(grid, 17 + i).values for i in range(5)]
    else:
        rand = [sample_monotone(spec.cone, grid, 17 + i).values for i in range(5)]
    ind = [indicator(grid.n, j, fam) for fam in indicator_families(spec.cone) for j in range(grid.n)]
    return np.array(rand + ind)


def operator_module_ratio(engine, values):
    """The same quotient through ``apply_spec`` on a GridFunction witness."""
    spec = engine.spec
    f = GridFunction(engine.grid, values, spec.cone)
    den = weighted_norm(f, spec.exps.p, spec.v, measures=engine.dV)
    if den == 0.0:
        return 0.0
    out = apply_spec(spec.kind, f)
    return xdiv(weighted_norm(out, spec.exps.q, spec.w, measures=engine.dW), den)


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
        # and the operator module's GridFunction path
        ref = np.array([operator_module_ratio(engine, row) for row in stack])
        if spec.kind.base != "T_ub":
            assert np.array_equal(batched, ref)
            return
        # t_ub takes b's region masses as differences of B at the knots, the
        # engine integrates b over each region: a few ulps apart, and the
        # 1/p-th root of the norm (p >= 1/2 here) doubles that at most
        exact = ~np.isfinite(ref) | (ref == 0.0)
        assert np.array_equal(batched[exact], ref[exact])
        assert np.allclose(batched[~exact], ref[~exact], rtol=4e-15, atol=0.0)


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
        r = engine.ratio(f.values)
        if np.isfinite(r) and r > best:
            best, best_vals = r, np.asarray(f.values, dtype=float).copy()
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
    "SS_ub": InequalitySpec(OperatorKind("SS_ub", None, ONE, ONE), "non_increasing", T, EXP,
                            Exponents(3.0, 1.5)),
    # unbounded: the quotient keeps doubling, sweep after sweep
    "S*-up-unbounded": InequalitySpec(OperatorKind("S*", None, ONE), "non_decreasing", EXP, EXP,
                                      Exponents(1.0, 1.0)),
}


class TestBatchedAscent:
    @pytest.mark.parametrize("name", list(ASCENT_SPECS))
    def test_matches_sequential_ascent(self, name):
        spec = ASCENT_SPECS[name]
        budget = OracleBudget(64, 20, 8)
        got = best_constant_lower(spec, budget, seed=3, grid=GRID)
        best, witness, trace = sequential_best_constant_lower(spec, budget, 3, GRID)
        assert got.lower_bound == best
        assert np.array_equal(got.witness, witness)
        assert got.trace == trace
        assert trace[-1] > trace[1]  # the ascent did move
        if name == "S*-up-unbounded":
            assert trace[-1] > 1e5 * trace[1]
