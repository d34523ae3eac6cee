"""``scripts/ab_passes.py`` on a tiny config, with this checkout on both sides.

Both sides load this tree's ``src/supineq`` under their own package names,
in this process; no subprocess runs."""

import importlib.util
import json
import os
import sys
import tracemalloc
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ab_passes():
    spec = importlib.util.spec_from_file_location(
        "ab_passes", os.path.join(ROOT, "scripts", "ab_passes.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


AB = ab_passes()


@pytest.fixture
def tiny_config(tmp_path):
    """Two battery scenarios (S* on the non-increasing cone, and T_ub) on a
    16-knot grid with a small oracle budget."""
    with open(os.path.join(ROOT, "configs", "battery.json")) as fh:
        battery = json.load(fh)
    picks = [sc for sc in battery["scenarios"] if sc["id"] in ("sstardown-240", "tub-457")]
    doc = {"defaults": {"grid": {"eps": 1e-3, "M": 1e3, "n": 16}, "band": 64.0, "seed": 5,
                        "budget": {"n_char": 8, "n_random": 4, "n_ascent": 2}},
           "scenarios": picks}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    return str(path)


def assert_spread(s):
    for side in AB.SIDES:
        assert 0.0 < s[side]["min"] <= s[side]["median"]
    r = s["ratio"]
    assert 0.0 < r["min"] <= r["q1"] <= r["median"] <= r["q3"]


class TestSameTreeTwice:
    def test_passes_and_apply_timings(self, tiny_config, monkeypatch):
        monkeypatch.setattr(AB, "CALLS", 5)
        doc = AB.run(ROOT, ROOT, tiny_config, seed=3, rounds=2, with_kinds=True)
        assert (doc["scenarios"], doc["rounds"], doc["seed"]) == (2, 2, 3)
        passes = doc["passes"]
        assert passes["digest_equal"] and passes["digests"]["parent"] == passes["digests"]["change"]
        assert_spread(passes)
        assert "criteria_memos" not in passes  # read under criteria-sweep only
        # both specs take the ray pass (p = 1 <= q): no ascent runs
        assert passes["ascent"] == {side: dict.fromkeys(("visits", "misses", "ratios_calls", "rows"), 0)
                                    for side in AB.SIDES}
        assert sorted(doc["apply_us"]) == ["sstardown", "tub"] and doc["apply_calls_per_timing"] == 5
        for s in doc["apply_us"].values():
            assert_spread(s)
        # each side ran its own copy of the package
        assert sys.modules["ab_parent.operators"] is not sys.modules["ab_change.operators"]

    def test_main_prints_the_report(self, tiny_config, capsys):
        assert AB.main(["--parent", ROOT, "--config", tiny_config, "--rounds", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"] == tiny_config and "apply_us" not in doc
        assert doc["passes"]["digest_equal"]

    def test_a_workload_runs_at_one_seed(self, monkeypatch, capsys):
        # without --seed a workload's config and its oracle both take seed 1
        seen = []

        def run(parent, change, config, seed, *rest):
            seen.append(seed)
            return {}

        monkeypatch.setattr(AB, "run", run)
        assert AB.main(["--parent", ROOT, "--workload", "battery"]) == 0
        assert seen == [1] and json.loads(capsys.readouterr().out) == {"config": "battery"}

    def test_criteria_passes(self, tiny_config):
        doc = AB.run(ROOT, ROOT, tiny_config, seed=3, rounds=2, criteria_only=True)
        passes = doc["passes"]
        assert passes["digest_equal"] and "apply_us" not in doc and "ascent" not in passes
        assert_spread(passes)
        # each side's one memo after its cold pass, which filled it: the
        # sstardown spec reads weights, the tub spec derived arrays too
        for side in AB.SIDES:
            memos = passes["criteria_memos"][side]
            assert sorted(memos) == ["memo"]
            assert memos["memo"]["misses"] == memos["memo"]["currsize"] > 0

    def test_memo_info_without_a_derived_memo(self):
        # a checkout from before the derived memo reports its weights alone
        memo = lru_cache(maxsize=4)(abs)
        memo(-1.0), memo(-1.0)
        pkg = SimpleNamespace(criteria=SimpleNamespace(
            CritCtx=lambda: SimpleNamespace(_grid=SimpleNamespace(memo=memo))))
        assert AB.memo_info(pkg) == {"weights": {"hits": 1, "misses": 1, "maxsize": 4, "currsize": 1}}

    def test_memo_info_of_each_layout(self):
        # a checkout with a memo of weights and one of derived arrays per
        # grid reports both; one with a single memo for the criteria, that one
        weights, derived = lru_cache(maxsize=4)(abs), lru_cache(maxsize=2)(abs)
        weights(-1.0), weights(-1.0), derived(-2.0)
        two = SimpleNamespace(criteria=SimpleNamespace(
            CritCtx=lambda: SimpleNamespace(_grid=SimpleNamespace(memo=weights, derived=derived))))
        assert AB.memo_info(two) == {"weights": {"hits": 1, "misses": 1, "maxsize": 4, "currsize": 1},
                                     "derived": {"hits": 0, "misses": 1, "maxsize": 2, "currsize": 1}}
        one = SimpleNamespace(criteria=SimpleNamespace(_memo=derived))
        assert AB.memo_info(one) == {"memo": {"hits": 0, "misses": 1, "maxsize": 2, "currsize": 1}}

    def test_criteria_sweep_workload_runs_the_criteria_alone(self, monkeypatch, capsys):
        seen = []

        def run(parent, change, config, seed, rounds, with_kinds, criteria_only):
            seen.append((seed, criteria_only))
            return {}

        monkeypatch.setattr(AB, "run", run)
        assert AB.main(["--parent", ROOT, "--workload", "criteria-sweep"]) == 0
        assert AB.main(["--parent", ROOT, "--workload", "battery"]) == 0
        assert seen == [(1, True), (1, False)]
        capsys.readouterr()

    def test_cold_passes_report_their_memory_peak(self, tiny_config):
        doc = AB.run(ROOT, ROOT, tiny_config, seed=3, rounds=2, criteria_only=True)
        peaks = doc["passes"]["cold_peak_mb"]
        assert sorted(peaks) == sorted(AB.SIDES) and all(mb > 0.0 for mb in peaks.values())

    def test_cold_pass_peak_and_digest(self):
        def one(pkg, scenarios):
            block = np.ones(2**19)  # 4 MB, freed before the pass returns
            return 0.0, f"{pkg}:{len(scenarios)}:{block.size}"

        digest, peak = AB.cold_pass(one, "pkg", [1, 2])
        assert digest == "pkg:2:524288" and 4.0 <= peak < 5.0
        assert not tracemalloc.is_tracing()

    def test_cold_passes_count_the_ascent(self, tmp_path):
        # S with u = t, v = 1, w = e^{-t} at p = q = 2 runs the ascent; both
        # sides count the same work, and the wrapper is gone afterwards
        doc = {"defaults": {"grid": {"eps": 1e-3, "M": 1e3, "n": 16}, "band": 64.0, "seed": 5,
                            "budget": {"n_char": 8, "n_random": 4, "n_ascent": 2}},
               "scenarios": [{"id": "sdown-p2", "operator": {"base": "S", "u": {"form": "power", "c": 1, "alpha": 1}},
                              "cone": "non_increasing", "v": {"form": "power", "c": 1, "alpha": 0},
                              "w": {"form": "powerexp", "c": 1, "alpha": 0, "lambda": 1},
                              "p": 2.0, "q": 2.0}]}
        path = tmp_path / "ascent.json"
        path.write_text(json.dumps(doc))
        ascent = AB.run(ROOT, ROOT, str(path), seed=3, rounds=2)["passes"]["ascent"]
        assert ascent["parent"] == ascent["change"]
        counts = ascent["change"]
        # at least one sweep of the 16 knots, each call at most 48 rows
        assert counts["visits"] >= 16 and counts["misses"] <= counts["ratios_calls"]
        assert 0 < counts["ratios_calls"] <= counts["rows"] <= 48 * counts["ratios_calls"]
        oracle = sys.modules["ab_change.oracle"]
        assert oracle._predicted_batch.__qualname__ == "_predicted_batch"

    def test_counting_ascent(self):
        # two batches: the first settles 3 coordinates in calls of 4 and 8
        # rows and meets every prediction, the second misses at its first
        class Engine:
            def ratios(self, F):
                return np.zeros(len(F))

        engine = Engine()
        results = iter([(3, True), (0, False)])

        def batch(engine, vals, best, coords, pred):
            engine.ratios(np.zeros((4, 2)))
            engine.ratios(np.zeros((8, 2)))
            return next(results) + (vals, best)

        pkg = SimpleNamespace(oracle=SimpleNamespace(_predicted_batch=batch))
        with AB.counting_ascent(pkg) as counts:
            for _ in range(2):
                pkg.oracle._predicted_batch(engine, None, 1.0, np.arange(3), [])
        assert counts == {"visits": 3, "misses": 1, "ratios_calls": 4, "rows": 24}
        # the class's ``ratios`` is the engine's again
        assert pkg.oracle._predicted_batch is batch and "ratios" not in vars(engine)

    def test_one_round_is_refused(self, tiny_config):
        with pytest.raises(ValueError, match="two rounds"):
            AB.run(ROOT, ROOT, tiny_config, rounds=1)


class TestOutcome:
    """The criteria digest covers each outcome: the theorem id, the terms as
    float hex and the flags, or the failed predicate."""

    def test_evaluated_and_inapplicable(self):
        from supineq import criteria
        from supineq.cli import load_config

        by_id = {sc.id: sc for sc in load_config(os.path.join(ROOT, "configs", "candidates.json"))}
        sc = by_id["tub-457"]
        res = criteria.evaluate_criterion(sc.spec, ctx=criteria.CritCtx(), verbatim=sc.verbatim_paper)
        sid, tid, terms, flags = AB.outcome(criteria, sc)
        assert (sid, tid, flags) == ("tub-457", res.theorem_id, list(res.flags))
        assert terms == sorted((k, float(v).hex()) for k, v in res.terms.items()) and terms
        sid, verdict, predicate = AB.outcome(criteria, by_id["isi3-413"])
        assert (sid, verdict) == ("isi3-413", "inapplicable") and isinstance(predicate, str)
