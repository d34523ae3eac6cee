"""Tests of the benchmark itself: smoke runs, output checks, generator, tracer."""

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import checks, metrics, run, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from supineq import cli, oracle  # noqa: E402

TINY_GRID = {"eps": 1e-3, "M": 1e3, "n": 24}
TINY_BUDGET = {"n_char": 24, "n_random": 4, "n_ascent": 2}


def tiny(doc, keep):
    return {"defaults": dict(doc["defaults"], grid=TINY_GRID, budget=TINY_BUDGET),
            "scenarios": doc["scenarios"][:keep]}


@pytest.fixture
def small_workloads(tmp_path, monkeypatch):
    """Every workload cut to a few scenarios on a coarse grid."""
    battery = tmp_path / "battery.json"
    with open(os.path.join(ROOT, workloads.BATTERY_PATH)) as fh:
        battery.write_text(json.dumps(tiny(json.load(fh), 2)))
    gens = {name: (lambda seed, gen=gen: tiny(gen(seed), 3)) for name, gen in workloads.GENERATORS.items()}
    gens["criteria-sweep"] = lambda seed: tiny(workloads.criteria_sweep(seed), 40)
    known = workloads.known_answers
    monkeypatch.setattr(workloads, "BATTERY_PATH", str(battery))
    monkeypatch.setattr(workloads, "GENERATORS", gens)
    monkeypatch.setattr(workloads, "known_answers", lambda seed: tiny(known(seed), 3))
    monkeypatch.setattr(run, "OUT", str(tmp_path / "out"))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric_with_unit(small_workloads, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    out = last_json(capsys)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 3
    want = metrics.per_layer_units() if trace else {n: u for n, u, _, _ in metrics.END_TO_END}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_repeated_run_with_same_seed_keeps_digest(small_workloads, capsys):
    argv = ["--workload", "weight-forms", "--seed", "5", "--seconds", "0.01"]
    run.main(argv)
    run.main(argv)
    assert last_json(capsys)["correct"] is True
    assert run.check_digest("k", "a") == []
    assert run.check_digest("k", "b") != []


def test_benchmark_json_matches_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.per_layer_units()


@pytest.fixture(scope="module")
def known_records(tmp_path_factory):
    path = tmp_path_factory.mktemp("known") / "known.json"
    path.write_text(workloads.config_text(tiny(workloads.known_answers(1), 3)))
    return [cli.run_scenario(sc) for sc in cli.load_config(str(path))]


def test_output_check_passes_real_records(known_records):
    assert checks.check_records(known_records, workloads.KNOWN_IDS) == []


def test_output_check_trips_on_nan(known_records):
    rec = json.loads(json.dumps(known_records[0]))
    rec["terms"]["A1"] = float("nan")
    assert any("NaN" in v for v in checks.check_record(rec, workloads.KNOWN_IDS))


def test_output_check_trips_on_overreported_known_answer(known_records):
    rec = dict(known_records[0], oracle_lower=1.0 + 1e-6)
    assert any("over-reported" in v for v in checks.check_record(rec, workloads.KNOWN_IDS))
    assert checks.check_record(dict(rec, oracle_lower=1.0 + 1e-12), workloads.KNOWN_IDS) == []


def test_output_check_trips_on_bad_trace_bound_and_verdict(known_records):
    rec = dict(known_records[0], oracle_trace=[0.5, 0.4, 0.6], oracle_lower=-1.0, verdict="maybe")
    found = " ".join(checks.check_record(rec))
    assert "trace decreases" in found and "< 0" in found and "not allowed" in found


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_seeded(name):
    gen = workloads.GENERATORS[name]
    assert workloads.config_text(gen(11)) == workloads.config_text(gen(11))
    assert workloads.config_text(gen(11)) != workloads.config_text(gen(12))


def test_generator_keeps_unfiltered_candidate_space():
    cands = workloads.candidates()
    assert len(cands) == 686 and len(workloads.families()) == 13
    assert len(workloads.criteria_sweep(0)["scenarios"]) == 4 * len(cands)
    assert {workloads.family(s["id"]) for s in workloads.cli_default(0)["scenarios"]} == set(workloads.families())
    forms = [s["w"]["form"] for s in workloads.weight_forms(0)["scenarios"]]
    assert forms.count("genpower") == forms.count("piecewise") == forms.count("table") == 13


def test_piecewise_rewrite_is_exact_for_pure_powers():
    lit = {"form": "power", "c": 2.0, "alpha": 0.5}
    pw = workloads.to_piecewise(lit, (0.1, 1.0, 10.0))
    assert all(seg["alpha"] == pytest.approx(0.5) and seg["c"] == pytest.approx(2.0) for seg in pw["segments"])


def test_tracer_attributes_ratio_calls_to_stages(tmp_path):
    path = tmp_path / "known.json"
    path.write_text(workloads.config_text(tiny(workloads.known_answers(1), 3)))
    scs = cli.load_config(str(path))
    plain = [cli.run_scenario(sc) for sc in scs]
    original = oracle.RayleighEngine.ratio
    tracer = Tracer()
    with tracer.installed():
        traced = [cli.run_scenario(sc) for sc in scs]
    assert oracle.RayleighEngine.ratio is original
    assert traced == plain
    n, n_char = TINY_GRID["n"], TINY_BUDGET["n_char"]
    char = len(np.unique(np.linspace(0, n - 1, min(n_char, n)).astype(int)))
    assert tracer.stage_calls["oracle.char"] == char * len(scs)
    assert tracer.stage_calls["oracle.random"] == TINY_BUDGET["n_random"] * len(scs)
    assert sum(tracer.stage_calls.values()) == tracer.ratio_calls == tracer.stats["oracle.ratio"][0]
    assert tracer.stats["cli.run_scenario"][0] == len(scs)
    values = metrics.per_layer(tracer, 0.0)
    assert set(values) == set(metrics.per_layer_units())
    assert 0.0 <= values["oracle.ascent.useful_frac"] <= 1.0
    for name in ("oracle.ratio", "criteria.evaluate_criterion"):
        assert 0.0 < tracer.stats[name][2] <= tracer.stats[name][1]
    out = tmp_path / "spans.npz"
    tracer.write_spans(str(out))
    spans = np.load(out)
    assert len(spans["id"]) == len(spans["end"]) > 0 and np.all(spans["end"] >= spans["start"])
