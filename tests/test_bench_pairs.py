"""``scripts/bench_pairs.py``'s summary and claim rule, on synthetic pairs.

No benchmark runs here: each pair is written by hand in the shape
``main`` builds from two runs."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


BP = bench_pairs()
# ten parent times with quartiles 1.01 and 1.03 (IQR 0.02)
PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.00, 1.01, 1.02, 1.03, 1.04]


def make_pairs(parent, change, metric="wall_s"):
    """Sound pairs: both runs correct, equal digests, no failed operation."""
    return [{"pair": i, "seed": 600 + i, "parent": {metric: a}, "change": {metric: b},
             "digest_equal": True, "correct": True, "failed": {"parent": 0, "change": 0}}
            for i, (a, b) in enumerate(zip(parent, change), start=1)]


def claim(pairs, metric="wall_s", better="lower"):
    return BP.claim_met(pairs, BP.summarise(pairs, metric, better, None), better)


class TestParseSeeds:
    def test_range_is_inclusive(self):
        assert BP.parse_seeds("601-610") == list(range(601, 611))
        assert BP.parse_seeds("5-6") == [5, 6]

    @pytest.mark.parametrize("text", ["601-601", "610-601", "601", "a-b"])
    def test_fewer_than_two_seeds_or_no_range_is_refused(self, text):
        with pytest.raises(ValueError):
            BP.parse_seeds(text)


class TestSummarise:
    def test_wins_losses_and_ties(self):
        pairs = make_pairs([1.0, 1.0, 1.0, 1.0], [0.9, 1.1, 1.0, 0.8])
        s = BP.summarise(pairs, "wall_s", "lower", 0.25)
        assert (s["runs"], s["change_better_pairs"], s["change_worse_pairs"]) == (4, 2, 1)
        assert s["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
        assert s["change"]["median"] == pytest.approx(0.95)
        assert s["median_change_rel"] == pytest.approx(-0.05)
        assert s["parent_iqr"] == 0.0 and s["median_gap_exceeds_parent_iqr"]
        assert s["bound"] == 0.25 and s["within_bound"]

    def test_bound_reads_the_better_direction(self):
        # a 30 % drop is worse by 0.3 where higher is better, better where lower is
        pairs = make_pairs([1.0, 1.0], [0.7, 0.7], metric="bound_geomean")
        higher = BP.summarise(pairs, "bound_geomean", "higher", 0.25)
        lower = BP.summarise(pairs, "bound_geomean", "lower", 0.25)
        assert (higher["change_worse_pairs"], higher["within_bound"]) == (2, False)
        assert (lower["change_better_pairs"], lower["within_bound"]) == (2, True)

    def test_no_bound_for_per_layer_metrics(self):
        s = BP.summarise(make_pairs([1.0, 2.0], [1.0, 2.0]), "wall_s", "lower", None)
        assert "bound" not in s and "within_bound" not in s
        assert s["median_change_rel"] == 0.0 and not s["median_gap_exceeds_parent_iqr"]


class TestClaimMet:
    def test_every_pair_won_by_more_than_the_iqr(self):
        assert claim(make_pairs(PARENT, [x - 0.2 for x in PARENT]))

    def test_one_lost_pair_of_ten_is_allowed_two_are_not(self):
        change = [x - 0.2 for x in PARENT]
        change[3] = PARENT[3] + 0.1
        assert claim(make_pairs(PARENT, change))
        change[7] = PARENT[7] + 0.1
        assert not claim(make_pairs(PARENT, change))

    def test_changed_digest_fails_the_claim(self):
        pairs = make_pairs(PARENT, [x - 0.2 for x in PARENT])
        pairs[4]["digest_equal"] = False
        assert not claim(pairs)

    def test_incorrect_pair_fails_the_claim(self):
        pairs = make_pairs(PARENT, [x - 0.2 for x in PARENT])
        pairs[0]["correct"] = False
        assert not claim(pairs)

    def test_more_failed_operations_fail_the_claim(self):
        pairs = make_pairs(PARENT, [x - 0.2 for x in PARENT])
        pairs[2]["failed"] = {"parent": 1, "change": 2}
        assert not claim(pairs)
        pairs[2]["failed"] = {"parent": 2, "change": 2}
        assert claim(pairs)

    def test_gap_inside_the_parent_iqr_fails_the_claim(self):
        # every pair won, but the medians lie 0.01 apart and the IQR is 0.02
        pairs = make_pairs(PARENT, [x - 0.01 for x in PARENT])
        s = BP.summarise(pairs, "wall_s", "lower", None)
        assert s["change_better_pairs"] == 10 and not s["median_gap_exceeds_parent_iqr"]
        assert not claim(pairs)

    def test_gain_in_the_wrong_direction_is_no_claim(self):
        # the medians lie far apart, but the change is slower
        assert not claim(make_pairs(PARENT, [x + 0.2 for x in PARENT]))
        # where higher is better, the same numbers win
        pairs = make_pairs(PARENT, [x + 0.2 for x in PARENT], metric="bound_geomean")
        assert claim(pairs, metric="bound_geomean", better="higher")


class Ran(Exception):
    """Raised by the stand-in for a benchmark run."""


class TestClaimChecked:
    """A claim is checked against the ``--workload`` flags and the metrics of
    the chosen ``--trace`` mode at argument parsing, before any run."""

    @staticmethod
    def call_main(tmp_path, monkeypatch, extra):
        def no_run(*args, **kw):
            raise Ran
        monkeypatch.setattr(BP, "run_once", no_run)
        monkeypatch.setattr(BP.subprocess, "run", no_run)
        BP.main(["--parent", str(tmp_path), "--change", ROOT, "--workload", "battery",
                 "--seeds", "1-2", "--out", str(tmp_path / "bench.json")] + extra)

    @pytest.mark.parametrize("extra", [
        ["--claim", "cli-default:wall_s"],  # a workload not run
        ["--claim", "battery:oracle.ratio.calls"],  # a per-layer metric without tracing
        ["--claim", "battery:wall_s", "--trace", "1"],  # an end-to-end metric with it
        ["--claim", "battery"],  # no metric
    ], ids=["workload", "per-layer", "end-to-end", "no-metric"])
    def test_bad_claim_is_refused_before_any_run(self, extra, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            self.call_main(tmp_path, monkeypatch, extra)
        assert exc.value.code == 2 and "--claim" in capsys.readouterr().err
        assert not (tmp_path / "bench.json").exists()

    @pytest.mark.parametrize("extra", [
        ["--claim", "battery:wall_s"],
        ["--claim", "battery:oracle.ratio.calls", "--trace", "1"],
    ], ids=["end-to-end", "per-layer"])
    def test_good_claim_reaches_the_runs(self, extra, tmp_path, monkeypatch):
        with pytest.raises(Ran):
            self.call_main(tmp_path, monkeypatch, extra)
