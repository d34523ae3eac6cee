"""Batch CLI: config parsing, exit codes, deterministic reports."""

import concurrent.futures
import json
import math
import os
import subprocess
import sys

import pytest

from supineq.cli import ConfigError, emit_report, load_config, main, run_batch

GOOD_SCENARIO = {
    "id": "s-down-unit",
    "operator": {"base": "S", "u": {"form": "power", "c": 1, "alpha": 1}},
    "cone": "non_increasing",
    "v": {"form": "power", "c": 1, "alpha": 0},
    "w": {"form": "powerexp", "c": 1, "alpha": 0, "lambda": 1},
    "p": 1, "q": 1,
}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAST = {"grid": {"eps": 1e-4, "M": 1e4, "n": 48},
        "budget": {"n_char": 48, "n_random": 10, "n_ascent": 3}}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoadConfig:
    def test_defaults_merge(self, tmp_path):
        doc = {"defaults": {"seed": 99, "grid": {"n": 32}},
               "scenarios": [GOOD_SCENARIO]}
        scs = load_config(write_config(tmp_path, doc))
        assert scs[0].seed == 99
        assert scs[0].grid["n"] == 32
        assert scs[0].grid["eps"] == 1e-6  # untouched default survives

    def test_cli_override_beats_file(self, tmp_path):
        doc = {"defaults": {"seed": 99}, "scenarios": [GOOD_SCENARIO]}
        scs = load_config(write_config(tmp_path, doc), {"seed": 1})
        assert scs[0].seed == 1

    def test_cli_flags_beat_scenario_entries(self, tmp_path):
        sc = dict(GOOD_SCENARIO, seed=5, band=8.0, verbatim_paper=False, grid={"n": 8.5, "eps": 1e-3})
        doc = {"defaults": {"seed": 7, "band": 4.0}, "scenarios": [sc]}
        flags = {"seed": 99, "band": 16.0, "verbatim_paper": True, "grid": {"n": 40, "M": None}}
        got = load_config(write_config(tmp_path, doc), flags)[0]
        assert (got.seed, got.band, got.verbatim_paper) == (99, 16.0, True)
        assert got.grid == {"eps": 1e-3, "M": 1e6, "n": 40}

    def test_unset_flags_leave_scenario_entries(self, tmp_path):
        sc = dict(GOOD_SCENARIO, seed=5, band=8.0)
        doc = {"defaults": {"seed": 7, "grid": {"n": 64}}, "scenarios": [sc]}
        flags = {"seed": None, "band": None, "verbatim_paper": None, "grid": {"n": None}}
        got = load_config(write_config(tmp_path, doc), flags)[0]
        assert (got.seed, got.band, got.verbatim_paper, got.grid["n"]) == (5, 8.0, False, 64)

    def test_duplicate_ids_rejected(self, tmp_path):
        doc = {"scenarios": [GOOD_SCENARIO, GOOD_SCENARIO]}
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(write_config(tmp_path, doc))

    def test_empty_scenarios_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, {"scenarios": []}))

    def test_missing_field_diagnostic_names_scenario(self, tmp_path):
        bad = {k: v for k, v in GOOD_SCENARIO.items() if k != "w"}
        doc = {"scenarios": [bad]}
        with pytest.raises(ConfigError, match=r"scenarios\[0\]"):
            load_config(write_config(tmp_path, doc))

    def test_malformed_json_diagnostic(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"scenarios": [')
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_t_gamma_operator_form(self, tmp_path):
        sc = dict(GOOD_SCENARIO, id="tg",
                  operator={"base": "T_gamma", "gamma_over_n": 0.5})
        scs = load_config(write_config(tmp_path, {"scenarios": [sc]}))
        assert scs[0].spec.kind.base == "T_ub"
        assert scs[0].spec.kind.u(4.0) == pytest.approx(2.0)


    def test_equal_weights_are_one_object(self):
        # load_config interns every weight by value; the memos key weights by
        # value, so this changes no number
        scs = load_config(os.path.join(ROOT, "configs", "battery.json"))
        ws = [x for sc in scs for x in (sc.spec.v, sc.spec.w, sc.spec.kind.u, sc.spec.kind.b)]
        assert len({id(x) for x in ws}) == len(set(ws)) < len(ws)


class TestRunBatch:
    def test_consistent_scenario_exit_zero(self, tmp_path):
        doc = {"defaults": FAST, "scenarios": [GOOD_SCENARIO]}
        records, code = run_batch(load_config(write_config(tmp_path, doc)))
        assert code == 0
        assert records[0]["verdict"] == "consistent"
        assert "runtime_ms" not in records[0]

    def test_inapplicable_scenario_exit_one(self, tmp_path):
        bad = dict(GOOD_SCENARIO, id="bad-v",
                   v={"form": "power", "c": 1, "alpha": -2})
        doc = {"defaults": FAST, "scenarios": [bad]}
        records, code = run_batch(load_config(write_config(tmp_path, doc)))
        assert code == 1
        assert records[0]["verdict"] == "inapplicable"
        assert records[0]["failed_hypothesis"]

    def test_timing_adds_runtime(self, tmp_path):
        doc = {"defaults": FAST, "scenarios": [GOOD_SCENARIO]}
        records, _ = run_batch(load_config(write_config(tmp_path, doc)), timing=True)
        assert records[0]["runtime_ms"] >= 0

    def test_parallel_matches_serial(self, tmp_path):
        second = dict(GOOD_SCENARIO, id="second", p=2, q=2)
        doc = {"defaults": FAST, "scenarios": [GOOD_SCENARIO, second]}
        serial, c1 = run_batch(load_config(write_config(tmp_path, doc)), jobs=1)
        par, c2 = run_batch(load_config(write_config(tmp_path, doc)), jobs=2)
        assert c1 == c2
        assert emit_report(serial) == emit_report(par)

    @pytest.mark.parametrize("jobs, scenarios, cpus, workers", [
        (10**6, 3, 8, 3),  # one worker per scenario
        (10**6, 5, 2, 2),  # one worker per CPU
        (2, 5, 8, 2),
        (10**6, 1, 8, None),  # one scenario runs in this process
        (4, 3, None, None),  # an unknown CPU count counts as one
    ])
    def test_worker_count_clamped(self, tmp_path, monkeypatch, jobs, scenarios, cpus, workers):
        started = []

        class RecordingExecutor:
            """Records ``max_workers`` and maps in this process: no worker starts."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        doc = {"defaults": FAST,
               "scenarios": [dict(GOOD_SCENARIO, id=f"s{i}") for i in range(scenarios)]}
        records, code = run_batch(load_config(write_config(tmp_path, doc)), jobs=jobs)
        assert started == ([] if workers is None else [workers])
        assert len(records) == scenarios and code == 0


# Run in a new interpreter: records the scipy modules loaded after the import,
# on the first import of scipy (with the functions on the stack), and after
# each scenario of the config named by argv[1].
FRESH_SCRIPT = """
import json, sys, traceback

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = {}

class FirstScipyImport:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" and "first_import" not in out:
            out["first_import"] = [frame.name for frame in traceback.extract_stack()]

sys.meta_path.insert(0, FirstScipyImport())
import supineq
from supineq import cli

out["import"] = scipy_modules()
for sc in cli.load_config(sys.argv[1]):
    cli.run_scenario(sc)
    out[sc.id] = scipy_modules()
print(json.dumps(out))
"""


class TestFreshInterpreter:
    def test_scipy_loads_on_the_first_quadrature(self, tmp_path):
        # a power-exponential's masses are closed forms: no scipy module; a
        # genpower weight's need quadrature, which imports scipy.integrate
        genpower = dict(GOOD_SCENARIO, id="genpower",
                        w={"form": "genpower", "c": 1, "alpha": 0, "lambda": 1, "mu": 0.1})
        path = write_config(tmp_path, {"defaults": FAST, "scenarios": [GOOD_SCENARIO, genpower]})
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(ROOT, "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        run = subprocess.run([sys.executable, "-c", FRESH_SCRIPT, path], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        out = json.loads(run.stdout)
        assert out["import"] == out["s-down-unit"] == []
        assert "scipy.integrate" in out["genpower"]
        assert "_quad_log" in out["first_import"]


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        good = write_config(tmp_path, {"defaults": FAST, "scenarios": [GOOD_SCENARIO]}, "good.json")
        assert main(["--config", good, "--out", str(tmp_path / "r.json")]) == 0
        bad = write_config(tmp_path, {"scenarios": []}, "bad.json")
        assert main(["--config", bad]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        {"seed": "abc"},
        {"band": "wide"},
        {"band": 0.5},
        {"budget": {"n_char": 8.5}},
        {"budget": {"n_char": 0, "n_random": 0}},
        {"verbatim_paper": "false"},
        {"grid": {"n": 8.5}},
        {"grid": {"eps": "small"}},
        {"grid": {"M": True}},
        {"grid": 40},
        # no criterion for the operator on the cone
        {"operator": {"base": "S", "compose": "H"}},
        # an unknown operator base
        {"operator": {"base": "SS_ub"}},
        # the oracle's norms need finite exponents
        {"operator": {"base": "T_ub"}, "q": "inf"},
        {"p": "inf"},
        {"p": math.inf},
        {"seed": -10000},
        # a bool or a numeric string is not a number, though float() takes it
        {"p": True},
        {"p": "2"},
        {"q": True},
        {"v": True},
        {"v": "2"},
        {"v": {"form": "power", "c": True, "alpha": 0}},
        {"v": {"form": "power", "c": 1, "alpha": "0.5"}},
        {"w": {"form": "powerexp", "c": 1, "alpha": 0, "lambda": True}},
        {"w": {"form": "genpower", "c": 1, "alpha": 0, "lambda": 1, "mu": "0"}},
        {"v": {"form": "piecewise", "knots": ["1"],
               "segments": [{"form": "power", "c": 1, "alpha": 0}] * 2}},
        {"w": {"form": "table", "t": [1, "2"], "y": [1, 1]}},
        {"w": {"form": "table", "t": [1, 2], "y": [True, 1]}},
        {"operator": {"base": "T_gamma", "gamma_over_n": True}},
        {"operator": {"base": "T_gamma", "gamma_over_n": "0.5"}},
        # an operator that is not an object
        {"operator": 5},
        {"operator": None},
        # an integer past the float range, where float() raises OverflowError
        pytest.param({"p": 10**400}, id="{'p': <400 digits>}"),
        pytest.param({"v": {"form": "power", "c": 10**400, "alpha": 0}},
                     id="{'v': {'form': 'power', 'c': <400 digits>, 'alpha': 0}}"),
        pytest.param({"operator": {"base": "T_gamma", "gamma_over_n": 10**400}},
                     id="{'operator': {'base': 'T_gamma', 'gamma_over_n': <400 digits>}}"),
        pytest.param({"band": 10**400}, id="{'band': <400 digits>}"),
    ], ids=lambda e: repr(e))
    def test_bad_entry_exits_two_with_anchor(self, tmp_path, capsys, entry):
        sc = dict(GOOD_SCENARIO, **entry)
        cfg = write_config(tmp_path, {"defaults": FAST, "scenarios": [sc]})
        assert main(["--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
        assert "scenarios[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        # not UTF-8
        b'{"scenarios": [{"id": "caf\xe9"}]}',
        # an integer literal past int()'s 4,300-digit limit (or, where int()
        # has none, past the float range)
        b'{"scenarios": [{"id": "x", "p": 1' + b"0" * 4400 + b'}]}',
        # a scenarios entry that is not an array
        b'{"scenarios": 5}',
        b'{"scenarios": null}',
    ], ids=["latin-1", "4401-digits", "scenarios-5", "scenarios-null"])
    def test_malformed_file_exits_two_with_path(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match="bad.json"):
            load_config(str(path))
        assert main(["--config", str(path)]) == 2
        assert f"config error: {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["c", "alpha"])
    def test_nan_coefficient_exits_two(self, tmp_path, capsys, field):
        # ``json`` reads the non-standard literal NaN as a float NaN
        sc = dict(GOOD_SCENARIO, v={"form": "power", "c": 1, "alpha": 0, field: math.nan})
        cfg = write_config(tmp_path, {"defaults": FAST, "scenarios": [sc]})
        assert "NaN" in open(cfg).read()
        with pytest.raises(ConfigError, match="scenarios\\[0\\]"):
            load_config(cfg)
        assert main(["--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
        assert "scenarios[0]" in capsys.readouterr().err

    def test_report_bytes_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, {"defaults": FAST, "scenarios": [GOOD_SCENARIO]})
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["--config", cfg, "--out", out1]) == 0
        assert main(["--config", cfg, "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_report_is_valid_json_with_inf_strings(self, tmp_path):
        inf_sc = dict(GOOD_SCENARIO, id="divergent",
                      u={"form": "power", "c": 1, "alpha": 2},
                      w={"form": "power", "c": 1, "alpha": -1.5})
        cfg = write_config(tmp_path, {"defaults": FAST, "scenarios": [inf_sc]})
        out = str(tmp_path / "r.json")
        main(["--config", cfg, "--out", out])
        doc = json.loads(open(out).read())
        assert doc["records"][0]["criterion_total"] == "inf"

    def test_text_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"defaults": FAST, "scenarios": [GOOD_SCENARIO]})
        main(["--config", cfg, "--format", "text"])
        out = capsys.readouterr().out
        assert "s-down-unit" in out and "consistent" in out

    def test_seed_override_changes_nothing_for_char_optimum(self, tmp_path):
        # the optimum here is found by the deterministic characteristic scan,
        # so different seeds agree on the bound
        cfg = write_config(tmp_path, {"defaults": FAST, "scenarios": [GOOD_SCENARIO]})
        o1, o2 = str(tmp_path / "s1.json"), str(tmp_path / "s2.json")
        main(["--config", cfg, "--seed", "1", "--out", o1])
        main(["--config", cfg, "--seed", "2", "--out", o2])
        r1 = json.load(open(o1))["records"][0]
        r2 = json.load(open(o2))["records"][0]
        assert r1["oracle_lower"] == pytest.approx(r2["oracle_lower"], rel=1e-6)
