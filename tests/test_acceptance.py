"""End-to-end acceptance suite.

Each test states its tolerance inline.  The suite exercises the full stack:
closed-form criterion values, the scenario battery, duality identities,
the cumulative/supremal sandwich, the power substitution of the combined
operator, cone reductions, and report determinism.
"""

import functools
import itertools
import json
import os
import time

import numpy as np
import pytest

from supineq.cli import emit_report, load_config, main, run_batch
from supineq.criteria import (
    CritCtx,
    InequalitySpec,
    TheoremInapplicable,
    crit_T31_32,
    crit_T33_34,
    crit_T35_36,
    crit_T41_43,
    crit_T42_44,
    crit_tub,
    evaluate_criterion,
)
from supineq.extreal import INF
from supineq.gridfn import make_log_grid, sample_monotone
from supineq.operators import OperatorKind, b_cumulative, power_substitution
from supineq.oracle import (
    OracleBudget,
    RayleighEngine,
    best_constant_lower,
    equivalence_report,
)
from supineq.weights import Exponents, PowerWeight, weight_mul

from reductions import reduce_spec, reduce_spec_inner

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BATTERY = os.path.join(ROOT, "configs", "battery.json")
CANDIDATES = os.path.join(ROOT, "configs", "candidates.json")
VERDICTS = os.path.join(ROOT, "configs", "candidate_verdicts.json")

ONE = PowerWeight(1.0, 0.0)
T = PowerWeight(1.0, 1.0)
TWO_T = PowerWeight(2.0, 1.0)
SQRT = PowerWeight(1.0, 0.5)
E_T = PowerWeight(1.0, 0.0, 1.0)
TE_T = PowerWeight(1.0, 1.0, 1.0)

GRID = make_log_grid(1e-4, 1e4, 49)
BUDGET = OracleBudget(n_char=64, n_random=20, n_ascent=4)


# -- 1. closed-form check: running sup of t*f over non-increasing f ----------


def test_sup_closed_form_unit_constant():
    t0 = time.monotonic()
    spec = InequalitySpec(
        OperatorKind("S", None, T), "non_increasing", ONE, E_T, Exponents(1.0, 1.0)
    )
    crit = evaluate_criterion(spec)
    assert crit.terms["A1"] == pytest.approx(1.0, abs=1e-4)
    assert crit.terms["unit"] == 0.0
    orc = best_constant_lower(spec, OracleBudget(n_char=128, n_random=40, n_ascent=6), seed=0)
    assert orc.lower_bound >= 0.99
    assert crit.total / orc.lower_bound <= 1.02
    assert time.monotonic() - t0 < 5.0


# -- 2. combined-operator collapse: u = t, b = 1 gives the Hardy case --------


def test_tub_collapse_to_hardy():
    e = Exponents(1.0, 1.0)
    crit = crit_tub(T, ONE, ONE, E_T, e)
    assert crit.total == pytest.approx(2.0, abs=1e-3)
    assert crit.terms["A1"] == pytest.approx(1.0, abs=1e-3)
    assert crit.terms["A2"] == pytest.approx(1.0, abs=1e-3)
    spec = InequalitySpec(
        OperatorKind("T_ub", None, T, ONE), "non_increasing", ONE, E_T, e
    )
    orc = best_constant_lower(spec, OracleBudget(n_char=128, n_random=40, n_ascent=6), seed=0)
    assert orc.lower_bound == pytest.approx(1.0, rel=0.01)
    rep = equivalence_report(crit, orc, band=64.0)
    assert rep.verdict == "consistent"


# -- 3. scenario battery ------------------------------------------------------


def test_battery_is_pinned_consistent_candidates():
    # every battery scenario is a candidate with the same fields and the same
    # defaults, and pinned consistent; ``tests/test_candidates.py`` runs the
    # candidates and pins their verdicts and oracle outcomes, so the battery
    # needs no run of its own
    with open(BATTERY) as fh:
        battery = json.load(fh)
    with open(CANDIDATES) as fh:
        candidates = json.load(fh)
    with open(VERDICTS) as fh:
        verdicts = json.load(fh)
    assert battery["defaults"] == candidates["defaults"]
    by_id = {sc["id"]: sc for sc in candidates["scenarios"]}
    assert len(battery["scenarios"]) == 83
    for sc in battery["scenarios"]:
        assert sc == by_id[sc["id"]], sc["id"]
        assert verdicts[sc["id"]] == "consistent", sc["id"]


# -- 4. duality identities ----------------------------------------------------
#
# Each mirrored criterion pair must agree after the x -> 1/x substitution:
# restricted pairs transport (u, v, w) -> (dual(u,0), dual(v,1), dual(w,1)),
# iterated pairs transport v with the Jacobian of the inner integral,
# (u, v, w) -> (dual(u,0), dual(v,1-p), dual(w,1)).


def _rand_w(rng):
    return PowerWeight(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0), rng.uniform(0.5, 1.5))


def _pair_sup_down(ctx, rng):
    p, q = rng.uniform(0.9, 2.5), rng.uniform(0.9, 2.5)
    e = Exponents(p, q)
    av = rng.uniform(-0.5, 1.5)
    v = PowerWeight(rng.uniform(0.5, 2.0), av)
    u = PowerWeight(rng.uniform(0.5, 2.0), max((av + 1.0) / p, 0.0) + rng.uniform(0.2, 1.0))
    w = _rand_w(rng)
    return (
        crit_T33_34(ctx, "low", u, v, w, e),
        crit_T33_34(ctx, "up", u.dual(0.0), v.dual(1.0), w.dual(1.0), e),
    )


def _pair_sup_up(ctx, rng):
    p, q = rng.uniform(0.9, 2.5), rng.uniform(0.9, 2.5)
    e = Exponents(p, q)
    lv = rng.uniform(0.1, 0.5)
    v = PowerWeight(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0), lv)
    u = PowerWeight(rng.uniform(0.5, 2.0), 0.0, 2.0 * lv / p + rng.uniform(0.5, 1.5))
    w = _rand_w(rng)
    return (
        crit_T35_36(ctx, "low", u, v, w, e),
        crit_T35_36(ctx, "up", u.dual(0.0), v.dual(1.0), w.dual(1.0), e),
    )


def _pair_iter_copson(ctx, rng):
    p, q = rng.uniform(1.3, 2.5), rng.uniform(0.9, 2.5)
    e = Exponents(p, q)
    v = PowerWeight(rng.uniform(0.5, 2.0), rng.uniform(-0.5, p - 1.2))
    u = PowerWeight(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0), rng.uniform(0.5, 1.5))
    w = _rand_w(rng)
    return (
        crit_T31_32(ctx, "up", u, v, w, e),
        crit_T31_32(ctx, "low", u.dual(0.0), v.dual(1.0 - p), w.dual(1.0), e),
    )


def _pair_iter_hardy(ctx, rng):
    p, q = rng.uniform(1.3, 2.2), rng.uniform(0.9, 2.5)
    e = Exponents(p, q)
    v = PowerWeight(rng.uniform(0.5, 2.0), rng.uniform(-0.5, p - 1.2))
    u = PowerWeight(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0))
    w = _rand_w(rng)
    return (
        crit_T41_43(ctx, "low", u, v, w, e),
        crit_T41_43(ctx, "up", u.dual(0.0), v.dual(1.0 - p), w.dual(1.0), e),
    )


def _pair_iter_p1(ctx, rng):
    e = Exponents(1.0, rng.uniform(0.9, 2.0))
    nu = PowerWeight(rng.uniform(0.5, 2.0), -rng.uniform(0.3, 1.0))
    u = PowerWeight(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0))
    w = _rand_w(rng)
    return (
        crit_T42_44(ctx, "low", u, nu, w, e),
        crit_T42_44(ctx, "up", u.dual(0.0), nu.dual(0.0), w.dual(1.0), e),
    )


def test_duality_identities():
    ctx = CritCtx()
    rng = np.random.default_rng(20260826)
    pairs = [_pair_sup_down, _pair_sup_up, _pair_iter_copson, _pair_iter_hardy, _pair_iter_p1]
    compared = 0
    for make in pairs:
        got, tries = 0, 0
        while got < 4 and tries < 40:
            tries += 1
            try:
                a, b = make(ctx, rng)
            except TheoremInapplicable:
                continue
            if not (a.finite and b.finite and a.total > 0.0 and b.total > 0.0):
                continue
            assert b.total == pytest.approx(a.total, rel=1e-3)
            got += 1
        assert got == 4, f"{make.__name__}: only {got} finite samples in {tries} tries"
        compared += got
    assert compared == 20


# -- 5. sandwich between the running sup of f*B and the cumulative of f*b ----


@pytest.mark.parametrize("b", [ONE, TWO_T], ids=["b=1", "b=2t"])
def test_sandwich_pointwise(b):
    grid = make_log_grid(1e-3, 1e3, 41)
    ks = grid.array()
    B = b_cumulative(b)
    Bk = np.array([B(t) for t in ks])
    dB = np.diff(np.concatenate([[0.0], Bk]))
    for i in range(50):
        vals = sample_monotone("non_increasing", grid, seed=1000 + i)
        lhs = np.maximum.accumulate(vals * Bk)  # sup_{tau<=t} f(tau) B(tau)
        rhs = np.cumsum(vals * dB)  # int_0^t f b
        assert np.all(lhs <= rhs * (1.0 + 1e-12) + 1e-300)


@pytest.mark.parametrize("p", [0.5, 1.0])
@pytest.mark.parametrize("b", [ONE, TWO_T], ids=["b=1", "b=2t"])
def test_sandwich_characteristic_identity(p, b):
    # on f = 1_(0,a]:  (int_0^a f^p B^{p-1} b)^{1/p} = p^{-1/p} int_0^a f b
    B = b_cumulative(b)
    gw = weight_mul(B.power(p - 1.0), b)
    for a in np.geomspace(1e-3, 1e3, 25):
        lhs = gw.cum_low(a) ** (1.0 / p)
        rhs = p ** (-1.0 / p) * b.cum_low(a)
        assert lhs == pytest.approx(rhs, rel=1e-6)


# -- 6. the power substitution on indicators (p <= 1) -------------------------

BATTERY_GRID = make_log_grid(1e-5, 1e5, 96)


@pytest.mark.parametrize("p, q", [(0.25, 0.5), (0.5, 0.5), (0.5, 1.0), (0.75, 0.25)])
def test_power_substitution_on_indicators(p, q):
    # u^ = u^p / p and b^ = B^{p-1} b, so B^ = B^p / p and, on chi = chi_(0,a],
    # T_{u^,b^} chi = (T_{u,b} chi)^p / p and ||chi||_{1,v} = ||chi||_{p,v}^p:
    # the quotient at exponents (1, q/p) is Q^p / p, Q the one at (p, q).  The
    # best constants are only equivalent, so this identity is what crit_T53
    # rests on.
    n = BATTERY_GRID.n
    rows = np.array([np.arange(n) <= j for j in np.linspace(0, n - 1, 20).astype(int)], dtype=float)
    for u, b, v in itertools.product((T, SQRT, TE_T), (ONE, TWO_T), (ONE, T)):
        u_hat, b_hat = power_substitution(u, b, p)
        direct = RayleighEngine(InequalitySpec(OperatorKind("T_ub", None, u, b), "non_increasing",
                                               v, E_T, Exponents(p, q)), BATTERY_GRID)
        powered = RayleighEngine(InequalitySpec(OperatorKind("T_ub", None, u_hat, b_hat),
                                                "non_increasing", v, E_T, Exponents(1.0, q / p)),
                                 BATTERY_GRID)
        Q = direct.ratios(rows)
        assert np.all((0.0 < Q) & (Q < INF))
        assert powered.ratios(rows) == pytest.approx(Q ** p / p, rel=1e-13)


# -- 7. reduction invariance --------------------------------------------------

UDEC = PowerWeight(1.0, 0.5, 0.5)

REDUCTION_SPECS = [
    # running-sup operators on non-increasing inputs; the first and third carry
    # the constant-function side condition (0 < total v-mass < oo)
    InequalitySpec(OperatorKind("S", None, T), "non_increasing", E_T, E_T, Exponents(1.0, 1.0)),
    InequalitySpec(OperatorKind("S", None, T), "non_increasing", ONE, E_T, Exponents(2.0, 2.0)),
    InequalitySpec(OperatorKind("S*", None, UDEC), "non_increasing", E_T, E_T, Exponents(1.0, 1.0)),
    InequalitySpec(OperatorKind("S*", None, UDEC), "non_increasing", ONE, E_T, Exponents(2.0, 2.0)),
    # non-decreasing inputs
    InequalitySpec(OperatorKind("S", None, E_T), "non_decreasing", E_T, E_T, Exponents(1.0, 1.0)),
    InequalitySpec(OperatorKind("S*", None, E_T), "non_decreasing", E_T, E_T, Exponents(1.0, 1.0)),
    InequalitySpec(OperatorKind("S", None, E_T), "non_decreasing", TE_T, E_T, Exponents(2.0, 1.5)),
    # sup-of-cumulative on the full cone, reduced back to a restricted problem
    InequalitySpec(OperatorKind("S", "H", T), "none", ONE, E_T, Exponents(2.0, 2.0)),
    InequalitySpec(OperatorKind("S", "H", SQRT), "none", SQRT, E_T, Exponents(2.0, 1.0)),
    InequalitySpec(OperatorKind("S", "H", T), "none", PowerWeight(1.0, -0.5), E_T, Exponents(1.0, 1.0)),
]


@pytest.mark.parametrize("case", range(len(REDUCTION_SPECS)))
def test_reduction_invariance(case):
    spec = REDUCTION_SPECS[case]
    red = reduce_spec(spec)
    lb0 = best_constant_lower(spec, BUDGET, seed=11, grid=GRID).lower_bound
    lb1 = best_constant_lower(red.spec, BUDGET, seed=11, grid=GRID).lower_bound
    eff = max(lb1, red.side_constant or 0.0)
    assert np.isfinite(lb0) and np.isfinite(eff) and eff > 0.0
    assert 1.0 / 64.0 <= lb0 / eff <= 64.0


def test_reduction_side_constant_branch_present():
    red = reduce_spec(REDUCTION_SPECS[0])
    assert red.rule == "R2.1"
    assert red.side_constant is not None and np.isfinite(red.side_constant)
    # total v-mass is infinite here, so no side condition attaches
    assert reduce_spec(REDUCTION_SPECS[1]).side_constant is None


# Candidates whose direct criterion reads +inf while the reduced criterion and
# the side constant are finite, by rule; ROADMAP item 6 (float range and grid
# cuts of the criteria) is to empty the list.  Under R2.3 the direct side is
# wrong: V* underflows, and sup-149's best constant is 1.  Under R2.4 (about
# 9e50) and R2.5 (4e11 to 1e16) the direct verdict is consistent and the
# reduced criterion is cut by the grid.
REDUCTION_FINITENESS_MISMATCHES = {
    "R2.3": ["sup-149", "sup-157", "sup-165", "sup-173", "sup-181", "sup-189", "sup-197",
             "sup-205", "sup-213", "sup-221", "sup-229", "sup-237"],
    "R2.4": ["sstarup-148", "sstarup-150", "sstarup-156", "sstarup-158", "sstarup-164",
             "sstarup-166", "sstarup-172", "sstarup-174", "sstarup-180", "sstarup-182",
             "sstarup-188", "sstarup-190", "sstarup-196", "sstarup-198", "sstarup-204",
             "sstarup-206", "sstarup-212", "sstarup-214", "sstarup-220", "sstarup-222",
             "sstarup-228", "sstarup-230", "sstarup-236", "sstarup-238"],
    "R2.5": ["isi4-316", "isi4-317", "isi4-322", "isi4-323", "isi4-329", "isi4-335",
             "isi4-340", "isi4-341", "isi4-346", "isi4-347", "isi4-353", "isi4-359"],
}


def test_reduction_finiteness_agrees_on_candidates():
    # wherever a reduction applies and both criteria are applicable, the
    # direct criterion is finite exactly when max(reduced criterion, side
    # constant) is, except for the pinned mismatches
    ctx = CritCtx()
    checked, mismatches = 0, {}
    for sc in load_config(CANDIDATES):
        for reduce in (functools.partial(reduce_spec, ctx=ctx), reduce_spec_inner):
            try:
                red = reduce(sc.spec)
            except ValueError:  # no such reduction for the spec
                continue
            try:
                direct = evaluate_criterion(sc.spec, ctx, sc.verbatim_paper)
                reduced = evaluate_criterion(red.spec, ctx, sc.verbatim_paper)
            except TheoremInapplicable:
                continue
            checked += 1
            if direct.finite != (max(reduced.total, red.side_constant or 0.0) < INF):
                assert not direct.finite, sc.id
                mismatches.setdefault(red.rule, []).append(sc.id)
    assert checked == 426
    assert mismatches == REDUCTION_FINITENESS_MISMATCHES


# -- 8. determinism -----------------------------------------------------------


def test_reports_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "defaults": {
            "grid": {"eps": 1e-4, "M": 1e4, "n": 48},
            "budget": {"n_char": 48, "n_random": 10, "n_ascent": 3},
            "seed": 42,
        },
        "scenarios": [
            {
                "id": "sup-down-unit",
                "operator": {"base": "S", "u": {"form": "power", "c": 1.0, "alpha": 1.0}},
                "cone": "non_increasing",
                "v": {"form": "power", "c": 1.0, "alpha": 0.0},
                "w": {"form": "powerexp", "c": 1.0, "alpha": 0.0, "lambda": 1.0},
                "p": 1.0,
                "q": 1.0,
            }
        ],
    }))
    outs = []
    for run in range(2):
        out = tmp_path / f"report{run}.json"
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    records, _ = run_batch(load_config(str(cfg)))
    assert emit_report(records).encode() == outs[0]

