"""The criterion context: one shared knot array per grid, the criteria's
one memo (the values of each weight and, once read, its w·t and the integral
of the weight alone, and the criteria's w-independent arrays), and
``int_set`` against the eager form it replaced."""

import importlib.util
import json
import os
import pickle
import random
import sys
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import pytest

from supineq import criteria
from supineq.cli import load_config
from supineq.criteria import CritCtx, evaluate_criterion
from supineq.extreal import INF, amul
from supineq.operators import _ratio_weight, b_cumulative, power_substitution
from supineq.weights import (
    FuncWeight,
    PiecewisePowerWeight,
    PowerWeight,
    TabulatedWeight,
    parse_weight,
    running_sup,
    weight_mul,
)

from reductions import phi_weights

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BATTERY = os.path.join(ROOT, "configs", "battery.json")

LITERALS = [
    2.5,
    {"form": "power", "c": 1.0, "alpha": -0.5},
    {"form": "powerexp", "c": 1.0, "alpha": 1.0, "lambda": 0.5},
    {"form": "genpower", "c": 2.0, "alpha": 0.5, "lambda": 1.0, "mu": 0.25},
    {"form": "piecewise", "knots": [0.5, 4.0],
     "segments": [{"c": 1.0, "alpha": 0.5}, {"c": 2.0, "alpha": -0.5}, {"c": 8.0, "alpha": -2.0}]},
    {"form": "table", "t": [0.01, 0.1, 1.0, 10.0, 100.0], "y": [0.0, 0.5, 1.0, 0.25, 0.0]},
]


SMALL = (1e-2, 1e2, 2)  # 9 points: the derived weights evaluate by quadrature per point


def memo():
    """The criteria's one memo, for every grid."""
    return criteria._memo


def bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


@dataclass
class Doubling:
    """The callable t -> k t, with ``eq`` but not ``frozen``: not hashable."""

    k: float

    def __call__(self, t):
        return self.k * np.asarray(t)


class Unhashable:
    """A mutable callable, e^{-t}, that opts out of hashing."""

    __hash__ = None

    def __call__(self, t):
        return np.exp(-np.asarray(t))


# -- the memo keys ----------------------------------------------------------


def algebra(lit):
    """Every weight the criteria build from one literal; a fresh construction
    on each call."""
    w = parse_weight(lit)
    # v^{1-p'} is not a plain power: the FuncWeight transforms.  On the "up"
    # side, v = t^2 e^{-1/t}, whose v^{1-p'} = t^{-2} e^{1/t} has a finite
    # mass on [x, oo); e^{-t}'s, e^t, has none
    v = PowerWeight(1.0, 0.0, 1.0)
    v_up = PowerWeight(1.0, 2.0, 0.0, 1.0)
    B = b_cumulative(w)
    u_hat, b_hat = power_substitution(w, PowerWeight(2.0, 1.0), 0.5)
    return {
        "literal": w,
        "power": w.power(-1.0),
        "scale": w.scale(3.0),
        "dual": w.dual(1.0),
        "weight_mul": weight_mul(w, PowerWeight(1.0, 2.0)),
        "running_sup low": running_sup(w, "low"),
        "running_sup up": running_sup(w, "up"),
        "phi": phi_weights(v, 2.0, "low")[0],
        "Phi": phi_weights(v, 2.0, "low")[1],
        "psi": phi_weights(v_up, 2.0, "up")[0],
        "Psi": phi_weights(v_up, 2.0, "up")[1],
        "b_cumulative": B,
        "power_substitution u": u_hat,
        "power_substitution b": b_hat,
        "u/B": _ratio_weight(PowerWeight(1.0, 1.0, 1.0), B),
    }


class TestMemoKeys:
    @pytest.mark.parametrize("lit", LITERALS, ids=lambda x: x["form"] if isinstance(x, dict) else "number")
    def test_equal_constructions_hash_alike(self, lit):
        first, second = algebra(lit), algebra(lit)
        for name, a in first.items():
            b = second[name]
            assert a is not b, name
            assert a == b, name
            assert hash(a) == hash(b), name

    @pytest.mark.parametrize("lit", LITERALS, ids=lambda x: x["form"] if isinstance(x, dict) else "number")
    def test_pickle_round_trip(self, lit):
        # ``--jobs`` workers receive the weights pickled: each comes back
        # equal, hashing alike, with bit-equal values
        t = CritCtx(*SMALL).t
        for name, a in algebra(lit).items():
            b = pickle.loads(pickle.dumps(a))
            assert b is not a and b == a and hash(b) == hash(a), name
            assert bits(b(t)) == bits(a(t)), name

    @pytest.mark.parametrize("lit", LITERALS, ids=lambda x: x["form"] if isinstance(x, dict) else "number")
    def test_equal_constructions_share_memo_values(self, lit):
        ctx = CritCtx(*SMALL)
        memo().cache_clear()
        for name, a in algebra(lit).items():
            assert bits(ctx.vals(a)) == bits(a(ctx.t)), name
        for name, b in algebra(lit).items():
            assert CritCtx(*SMALL).vals(b) is ctx.vals(b), name

    def test_int_and_float_coefficients_give_bit_equal_arrays(self):
        t = CritCtx().t
        pairs = [
            (PowerWeight(1, 2), PowerWeight(1.0, 2.0)),
            (PowerWeight(3, -1, 1, 2), PowerWeight(3.0, -1.0, 1.0, 2.0)),
            (PiecewisePowerWeight((1,), (PowerWeight(1, 0), PowerWeight(2, -2))),
             PiecewisePowerWeight((1.0,), (PowerWeight(1.0, 0.0), PowerWeight(2.0, -2.0)))),
            (TabulatedWeight((1, 10), (1, 2)), TabulatedWeight((1.0, 10.0), (1.0, 2.0))),
            (PowerWeight(1.0, 0.5).power(2), PowerWeight(1.0, 0.5).power(2.0)),
            (PowerWeight(1.0, 0.0, 1.0).scale(3), PowerWeight(1.0, 0.0, 1.0).scale(3.0)),
            (PowerWeight(1.0, 0.0, 1.0).dual(1), PowerWeight(1.0, 0.0, 1.0).dual(1.0)),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
            assert bits(a(t)) == bits(b(t))

    def test_memo_arrays_are_read_only(self):
        ctx = CritCtx()
        for arr in (ctx.vals(PowerWeight(1.0, 1.0)), ctx.t):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_memo_is_bounded(self):
        ctx = CritCtx()
        memo().cache_clear()
        size = criteria._MEMO_SIZE
        weights = [PowerWeight(1.0, 0.01 * k) for k in range(size + 1)]
        for w in weights:
            ctx.vals(w)
        assert memo().cache_info().currsize <= size
        hits = memo().cache_info().hits
        ctx.vals(weights[0])  # least recently used: evicted
        assert memo().cache_info().hits == hits
        ctx.vals(weights[-1])
        assert memo().cache_info().hits == hits + 1

    @pytest.mark.parametrize("fn", [Doubling(2.0), Unhashable()], ids=["eq-not-frozen", "hash-none"])
    def test_func_weight_rejects_unhashable_callable(self, fn):
        with pytest.raises(TypeError):
            hash(fn)
        with pytest.raises(ValueError, match="hashable"):
            FuncWeight(fn)

    def test_contexts_share_one_grid_per_key(self):
        a, b = CritCtx(), CritCtx(1e-12, 1e12, 200)
        assert a is not b
        assert a.t is b.t and a.h == b.h
        assert a.int_w(PowerWeight(1.0, 1.0)) is b.int_w(PowerWeight(1.0, 1.0))
        c = CritCtx(1e-6, 1e6, 50)
        assert len(c.t) == 601 and c.t is not a.t
        assert c.vals(PowerWeight(1.0, 1.0)).shape == (601,)

    def test_grid_under_three_decades_rejected(self):
        with pytest.raises(ValueError):
            CritCtx(1.0, 100.0, 50)


# -- integrals of a weight alone, in the same memo ---------------------------


def assert_same_sets(got, ref):
    assert (got.div0, got.divinf) == (ref.div0, ref.divinf)
    assert bits(got.total) == bits(ref.total)
    assert bits(got.low) == bits(ref.low)
    assert bits(got.up) == bits(ref.up)


class TestIntegralMemo:
    @pytest.mark.parametrize("lit", LITERALS, ids=lambda x: x["form"] if isinstance(x, dict) else "number")
    def test_equals_int_set_of_ones(self, lit):
        ctx, small = CritCtx(), CritCtx(*SMALL)
        w = parse_weight(lit)
        with np.errstate(all="ignore"):
            assert_same_sets(ctx.int_w(w), ctx.int_set(np.ones(len(ctx.t)), w))
            for a in algebra(lit).values():
                assert_same_sets(small.int_w(a), small.int_set(np.ones(len(small.t)), a))

    def test_sides_are_summed_read_only_and_masses_dropped(self):
        ctx = CritCtx()
        memo().cache_clear()
        iset = ctx.int_w(PowerWeight(1.0, 0.0, 1.0))
        assert "low" in vars(iset) and "up" in vars(iset)
        assert iset._c is None
        for arr in (iset.low, iset.up):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert ctx.int_w(PowerWeight(1.0, 0.0, 1.0)) is iset

    def test_vals_and_int_w_share_one_entry(self):
        # one memo holds both: a weight's integral is one key and the values
        # it reads another, and the memo stays within its bound
        ctx = CritCtx()
        memo().cache_clear()
        size = criteria._MEMO_SIZE
        weights = [PowerWeight(1.0, 0.01 * k) for k in range(size // 2 + 1)]
        for w in weights[:size // 2]:
            ctx.int_w(w)
        assert memo().cache_info().currsize == size
        hits = memo().cache_info().hits
        assert ctx.vals(weights[1]) is memo()(ctx.args, criteria._vals, weights[1])
        assert ctx.int_w(weights[1]) is memo()(ctx.args, criteria._integral, weights[1])
        assert memo().cache_info().hits == hits + 4
        ctx.vals(weights[-1])
        assert memo().cache_info().currsize == size

    def test_evicted_weight_loses_its_integral(self):
        ctx = CritCtx()
        memo().cache_clear()
        w = PowerWeight(1.0, 0.0, 1.0)
        iset = ctx.int_w(w)
        assert ctx.int_w(w) is iset
        for k in range(criteria._MEMO_SIZE):
            ctx.vals(PowerWeight(1.0, 0.01 * k))
        again = ctx.int_w(w)
        assert again is not iset
        assert again is ctx.int_w(w)
        assert_same_sets(again, iset)


# -- int_set against the eager reference -------------------------------------


@dataclass(frozen=True)
class EagerIntSet:
    low: np.ndarray
    up: np.ndarray
    total: float
    div0: bool
    divinf: bool


def eager_int_set(ctx, F, w):
    """``CritCtx.int_set`` as it was: both cumulatives summed on every call,
    the decade blocks summed one slice at a time."""
    with np.errstate(all="ignore"):
        return _eager_int_set(ctx, F, w)


def _eager_int_set(ctx, F, w):
    g = amul(F, amul(np.asarray(w(ctx.t), dtype=float), ctx.t))
    g = np.where(np.isnan(g), 0.0, g)
    c = 0.5 * ctx.h * (g[:-1] + g[1:])
    c = np.where(np.isnan(c), INF, c)
    m = ctx.m
    b = [float(np.sum(c[i * m:(i + 1) * m])) for i in range(3)]
    e = [float(np.sum(c[-(i + 1) * m: len(c) - i * m])) for i in range(3)]
    div0 = criteria._diverging(b)
    divinf = criteria._diverging(e)
    head = INF if div0 else criteria._geom_tail(b)
    tail = INF if divinf else criteria._geom_tail(e)
    low = head + np.concatenate([[0.0], np.cumsum(c)])
    up = tail + np.concatenate([np.cumsum(c[::-1])[::-1], [0.0]])
    if div0:
        low = np.full_like(low, INF)
    if divinf:
        up = np.full_like(up, INF)
    total = head + float(np.sum(c)) + tail
    return EagerIntSet(low=low, up=up, total=total, div0=div0, divinf=divinf)


def assert_same(ctx, F, w):
    ref = eager_int_set(ctx, F, w)
    with np.errstate(all="ignore"):
        got = ctx.int_set(F, w)
        low, up = got.low, got.up
    assert (got.div0, got.divinf) == (ref.div0, ref.divinf)
    assert bits(got.total) == bits(ref.total)
    assert bits(low) == bits(ref.low)
    assert bits(up) == bits(ref.up)
    return ref


WEIGHTS = [
    PowerWeight(1.0, -0.5),           # integrable at 0, diverges at oo
    PowerWeight(1.0, -1.0),           # diverges at both ends
    PowerWeight(1.0, -2.0),           # diverges at 0, integrable at oo
    PowerWeight(1.0, 0.0, 1.0),       # e^{-t}
    PowerWeight(2.0, 0.5, 1.0, 0.25),
    parse_weight(LITERALS[4]),
    parse_weight(LITERALS[5]),
]


class TestIntSetBitIdentical:
    @pytest.mark.parametrize("w", WEIGHTS, ids=repr)
    def test_ones(self, w):
        ctx = CritCtx()
        assert_same(ctx, np.ones(len(ctx.t)), w)

    def test_nan_and_inf_integrands(self):
        ctx = CritCtx()
        n = len(ctx.t)
        rng = np.random.default_rng(7)
        cases = []
        for _ in range(40):
            F = 10.0 ** rng.uniform(-300, 300, n)
            F[rng.integers(0, n, 20)] = np.nan
            F[rng.integers(0, n, 5)] = INF
            cases.append(F)
        head_inf = np.ones(n)
        head_inf[3] = INF
        tail_inf = np.ones(n)
        tail_inf[-3] = INF
        cases += [head_inf, tail_inf, np.full(n, np.nan), np.zeros(n), np.full(n, 1e300)]
        flags = set()
        for F in cases:
            for w in WEIGHTS[:4]:
                ref = assert_same(ctx, F, w)
                flags.add((ref.div0, ref.divinf))
        assert flags == {(False, False), (True, False), (False, True), (True, True)}

    def test_signed_spreads(self):
        # the decade-block sums as one reshaped reduction, on values of both
        # signs spread over the float range
        ctx = CritCtx()
        n = len(ctx.t)
        rng = np.random.default_rng(11)
        for _ in range(100):
            F = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
            assert_same(ctx, F, PowerWeight(1.0, 0.0))

    def test_sides_are_summed_on_first_access_only(self):
        # an integrand other than the weight alone, whose sides ``int_w`` sums
        # when it memoises them
        ctx = CritCtx()
        iset = ctx.int_set(ctx.vals(PowerWeight(1.0, 0.5)), PowerWeight(1.0, 0.0, 1.0))
        assert "low" not in vars(iset) and "up" not in vars(iset)
        assert iset.low is iset.low
        assert "up" not in vars(iset)


# -- env_weight against the two bodies it replaced --------------------------


def parent_env_weight(ctx, w, side):
    """``CritCtx.env_weight`` as it was: the argmax clamp for a PowerWeight,
    else the sups of the grid cells, accumulated."""
    t = ctx.t
    if isinstance(w, PowerWeight):
        t_star = w.argmax()
        if side == "low":
            if t_star == 0.0:
                return np.full_like(t, w.limit0())
            if t_star == INF:
                return ctx.vals(w)
            return np.asarray(w(np.minimum(t, t_star)), dtype=float)
        if t_star == INF:
            return np.full_like(t, w.limit_inf())
        if t_star == 0.0:
            return ctx.vals(w)
        return np.asarray(w(np.maximum(t, t_star)), dtype=float)
    if side == "low":
        segs = [w.sup_on_interval(0.0, t[0])]
        segs += [w.sup_on_interval(a, bnd) for a, bnd in zip(t[:-1], t[1:])]
        return np.maximum.accumulate(np.asarray(segs))
    segs = [w.sup_on_interval(a, bnd) for a, bnd in zip(t[:-1], t[1:])]
    segs.append(w.sup_on_interval(t[-1], INF))
    return np.maximum.accumulate(np.asarray(segs)[::-1])[::-1]


ENV_EXACT = [
    PowerWeight(1.0, 1.0, 1.0),         # interior argmax
    PowerWeight(1.0, -0.5),             # argmax at 0, +inf there
    PowerWeight(1.0, 2.0),              # argmax at oo, +inf there
    PowerWeight(3.0, 0.0),              # constant
    PowerWeight(0.0, 1.0),              # zero
    PowerWeight(2.0, 0.5, 1.0, 0.25),   # genpower
    PowerWeight(1.0, -1.0, 0.0, 2.0),   # argmax mu/(-alpha) without decay at oo
    PowerWeight(1.0, 0.0, 0.0, 1.0),    # argmax at oo, finite limit there
    parse_weight(LITERALS[4]),
    PiecewisePowerWeight((1e-3, 1.0, 1e3), (PowerWeight(1.0, -1.0), PowerWeight(1e-3, 0.0),
                                            PowerWeight(5.0, 1.0), PowerWeight(1.0, -0.5))),
]

ENV_TABLES = [
    parse_weight(LITERALS[5]),
    TabulatedWeight(t=(1e-6, 1e-3, 1.0, 1e3, 1e6), y=(3.0, 0.5, 7.0, 0.1, 2.0)),  # dips
    TabulatedWeight(t=(1.0, 2.0, 4.0), y=(4.0, 1.0, 8.0)),
]


class TestEnvWeight:
    @pytest.mark.parametrize("side", ["low", "up"])
    @pytest.mark.parametrize("w", ENV_EXACT, ids=repr)
    def test_bit_identical_on_power_genpower_piecewise(self, w, side):
        ctx = CritCtx()
        assert bits(ctx.env_weight(w, side)) == bits(parent_env_weight(ctx, w, side))

    @pytest.mark.parametrize("side", ["low", "up"])
    @pytest.mark.parametrize("w", ENV_TABLES, ids=repr)
    def test_within_one_ulp_on_tables(self, w, side):
        # the cell sups read the interpolant at every knot, which may round
        # one ulp above the samples it lies between
        ctx = CritCtx()
        np.testing.assert_array_max_ulp(ctx.env_weight(w, side), parent_env_weight(ctx, w, side), 1)


# -- evaluate_criterion with a cold and a warm memo -------------------------


def _specs(tmp_path):
    """``(key, spec, verbatim_paper)`` for every battery spec and every fifth
    686-candidate spec of ``scripts/make_battery.py``, then every tenth of
    these again with w rewritten into the table and the piecewise form."""
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    try:
        import make_battery
    finally:
        sys.path.pop(0)
    cfg = tmp_path / "candidates.json"
    cfg.write_text(json.dumps({"defaults": make_battery.DEFAULTS,
                               "scenarios": make_battery.candidates()[::5]}))
    specs = [(f"{name}:{sc.id}", sc.spec, sc.verbatim_paper)
             for name, path in (("battery", BATTERY), ("candidates", str(cfg)))
             for sc in load_config(path)]
    table, piecewise = parse_weight(LITERALS[5]), parse_weight(LITERALS[4])
    for key, spec, _ in specs[::10]:
        specs += [(f"{key}+w=table", replace(spec, w=table), False),
                  (f"{key}+w=piecewise", replace(spec, w=piecewise), False)]
    return specs


def outcome(spec, verbatim):
    """Everything a criterion reports, floats as hex; the hypothesis report
    keeps its insertion order, which decides the failed hypothesis."""
    try:
        r = evaluate_criterion(spec, ctx=CritCtx(), verbatim=verbatim)
    except criteria.TheoremInapplicable as exc:
        return ["inapplicable", exc.predicate, list(exc.report.items())]
    except ValueError as exc:
        return ["error", str(exc)]
    return [r.theorem_id, r.regime, sorted((k, float(v).hex()) for k, v in r.terms.items()),
            float(r.total).hex(), r.finite, list(r.hypothesis_report.items()), list(r.flags)]


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    return _specs(tmp_path_factory.mktemp("specs"))


@pytest.fixture(scope="module")
def cold(specs):
    """Each spec's outcome on an empty memo: no weight and no derived array kept."""
    out = []
    for _, spec, verbatim in specs:
        memo().cache_clear()
        out.append(outcome(spec, verbatim))
    return out


def outcomes_in(specs, order):
    """The outcomes of ``specs``, evaluated in ``order``, listed in spec order."""
    out = [None] * len(specs)
    for i in order:
        _, spec, verbatim = specs[i]
        out[i] = outcome(spec, verbatim)
    return out


def test_cold_and_warm_memo_agree(specs, cold):
    assert len(specs) > 200
    memo().cache_clear()
    n = len(specs)
    assert outcomes_in(specs, range(n)) == cold
    assert outcomes_in(specs, reversed(range(n))) == cold
    shuffled = list(range(n))
    random.Random(31).shuffle(shuffled)
    assert outcomes_in(specs, shuffled) == cold
    assert sum(o[0] not in ("inapplicable", "error") for o in cold) > 100


def test_one_entry_derived_memo_agrees(specs, cold, monkeypatch):
    # each derived lookup evicts the key before it: what a key's arrays hold
    # must not depend on which other keys are kept.  The weights' keys stay
    # in the memo; every other key goes through a memo of one entry
    weights_memo = criteria._memo
    one = lru_cache(maxsize=1)(weights_memo.__wrapped__)
    per_weight = (criteria._vals, criteria._measure, criteria._integral)
    monkeypatch.setattr(criteria, "_memo", lambda args, fn, *key: (
        weights_memo if fn in per_weight else one)(args, fn, *key))
    assert outcomes_in(specs, range(len(specs))) == cold
    info = one.cache_info()
    assert info.currsize == 1 and info.misses > 100


def workload_criteria_specs(name, tmp_path):
    """``(spec, verbatim_paper)`` of a cold criteria pass over one perfbench
    workload at seed 1: its config's scenarios, then the known answers, each
    generated config written into ``tmp_path``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    def written(doc, stem):
        path = tmp_path / f"{stem}.json"
        path.write_text(workloads.config_text(doc))
        return str(path)

    main = BATTERY if name == "battery" else written(workloads.GENERATORS[name](1), name)
    scenarios = load_config(main, {"seed": 1}) + load_config(written(workloads.known_answers(1), "known"))
    return [(sc.spec, sc.verbatim_paper) for sc in scenarios]


class TestDerivedMemo:
    """``CritCtx.derived``: one read-only result per key, in the one memo of
    at most ``_MEMO_SIZE`` keys, least recently used out first."""

    U, B, V = PowerWeight(1.0, 1.0, 1.0), PowerWeight(1.0, 0.5), PowerWeight(2.0, -0.5)
    KEYS = [(criteria._t51_rho, U, B), (criteria._t51_eta, U, V), (criteria._t51_g1, B, V, 2.0),
            (criteria._t51_g1, B, V, 1.0), (criteria._t51_g2, V, 3.0),
            (criteria._t41_phi, V, "low", 2.0), (criteria._t41_phi, V, "up", 3.0)]

    @pytest.mark.parametrize("key", KEYS, ids=lambda k: f"{k[0].__name__}{k[1:]}")
    def test_read_only_shared_and_bit_equal_to_a_fresh_build(self, key):
        fn, *args = key
        memo().cache_clear()
        with np.errstate(all="ignore"):
            got = CritCtx().derived(fn, *args)
            fresh = fn(CritCtx(), *args)
        assert CritCtx().derived(fn, *args) is got
        for a, ref in zip(got if isinstance(got, tuple) else (got,),
                          fresh if isinstance(fresh, tuple) else (fresh,)):
            assert bits(a) == bits(ref)
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_bounded_least_recently_used_out_first(self):
        # g2 of v reads three keys of v (its values, w·t and integral), all
        # used before g2 itself: they leave the full memo before g2 does
        ctx = CritCtx()
        memo().cache_clear()
        size = criteria._MEMO_SIZE
        v = PowerWeight(1.0, -0.5)
        others = iter([PowerWeight(1.0, 0.01 * k) for k in range(2 * size)])
        with np.errstate(all="ignore"):
            first = ctx.derived(criteria._t51_g2, v, 2.0)
            assert memo().cache_info().currsize == 4
            for _ in range(size - 4):
                ctx.vals(next(others))
            assert memo().cache_info().currsize == size
            assert ctx.derived(criteria._t51_g2, v, 2.0) is first
            for _ in range(4):
                ctx.vals(next(others))
            assert ctx.derived(criteria._t51_g2, v, 2.0) is first
            for _ in range(size):
                ctx.vals(next(others))
            assert memo().cache_info().currsize == size
            again = ctx.derived(criteria._t51_g2, v, 2.0)
            assert again is not first and bits(again) == bits(first)
            hits = memo().cache_info().hits
            ctx.derived(criteria._t51_g2, v, 2.0)
        assert memo().cache_info().hits == hits + 1
        assert memo().cache_info().currsize == size

    def test_a_criteria_pass_stays_within_the_bound(self, tmp_path):
        # a cold pass over each workload, as perfbench runs it, evicts nothing
        for name in ("battery", "cli-default", "weight-forms", "criteria-sweep"):
            specs = workload_criteria_specs(name, tmp_path)
            memo().cache_clear()
            for spec, verbatim in specs:
                outcome(spec, verbatim)
            info = memo().cache_info()
            assert info.misses == info.currsize < criteria._MEMO_SIZE, (name, info)
            assert info.hits > info.misses, (name, info)


# -- evaluate_criterion against the recorded outcomes ------------------------


GOLDEN = os.path.join(ROOT, "tests", "data", "criteria_golden.json")


def golden_outcomes(tmp_path):
    """The outcome of every ``_specs`` spec under both values of ``verbatim``,
    keyed by scenario."""
    return {key: {f"verbatim={v}": outcome(spec, v) for v in (False, True)}
            for key, spec, _ in _specs(tmp_path)}


def test_outcomes_match_golden(tmp_path):
    # the golden file holds JSON round-trips of ``outcome``; rewrite it with
    # ``python tests/test_critctx.py`` when a change to the criteria is meant
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = json.loads(json.dumps(golden_outcomes(tmp_path)))
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outs = golden_outcomes(pathlib.Path(tmp))
    with open(GOLDEN, "w") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in outs.items()) + "\n}\n")
