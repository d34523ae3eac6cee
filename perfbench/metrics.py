"""Metric names, units and their computation from one workload's results.

``BENCHMARK.json`` lists the same names; a test keeps the two in step.
"""

from __future__ import annotations

import math
import statistics

from perfbench.workloads import families

# (name, unit, better, bound)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("ok_frac", "frac", "higher", 0.02),
    ("bound_geomean", "1", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

TIMED = [
    "oracle.ratio", "oracle.char", "oracle.random", "oracle.ascent",
    "oracle.RayleighEngine.init", "extreal.amul", "extreal.apow",
    "gridfn.region_measures", "gridfn.sample", "weights.quad", "weights.sup_on_interval",
    "criteria.evaluate_criterion", "criteria.CritCtx.int_set", "criteria.CritCtx.env_weight",
    "cli.load_config", "cli.emit_report",
]
COUNTED = [
    "oracle.ratio", "oracle.char", "oracle.random", "oracle.ascent", "extreal.amul",
    "extreal.apow", "gridfn.region_measures", "gridfn.sample", "weights.quad",
    "weights.sup_on_interval", "criteria.evaluate_criterion", "criteria.CritCtx.int_set",
]
FORMS = ("power", "powerexp", "genpower", "piecewise", "table")


def per_layer_units() -> dict:
    units = {}
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
    for name in TIMED:
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units["oracle.ratio.us_per_call"] = "us"
    for fam in families():
        units[f"oracle.ratio.us_per_call.{fam}"] = "us"
    units["oracle.ratio.nonfinite_frac"] = "frac"
    units["oracle.ascent.useful_frac"] = "frac"
    for form in FORMS:
        units[f"gridfn.region_measures.{form}.s"] = "s"
    units["trace.overhead_frac"] = "frac"
    return units


def _share(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tracer, overhead_frac: float) -> dict:
    """Per-layer values from a finished traced pass (0 for unused layers)."""
    vals = {}
    for name in COUNTED:
        vals[f"{name}.calls"] = tracer.stats.get(name, [0])[0]
    for stage, calls in tracer.stage_calls.items():
        vals[f"{stage}.calls"] = calls
    for name in TIMED:
        st = tracer.stats.get(name, [0, 0.0, 0.0])
        vals[f"{name}.s"] = st[1]
        vals[f"{name}.self_s"] = st[2]
    calls, secs = tracer.ratio_calls, tracer.stats.get("oracle.ratio", [0, 0.0])[1]
    vals["oracle.ratio.us_per_call"] = 1e6 * _share(secs, calls)
    for fam in families():
        n, s = tracer.ratio_by_family.get(fam, (0, 0.0))
        vals[f"oracle.ratio.us_per_call.{fam}"] = 1e6 * _share(s, n)
    vals["oracle.ratio.nonfinite_frac"] = _share(tracer.ratio_nonfinite, calls)
    vals["oracle.ascent.useful_frac"] = _share(tracer.ascent_useful, tracer.stage_calls["oracle.ascent"])
    for form in FORMS:
        vals[f"gridfn.region_measures.{form}.s"] = tracer.form_s.get(form, 0.0)
    vals["trace.overhead_frac"] = overhead_frac
    return vals


BOUND_CLIP = 1e6


def bound_geomean(bounds) -> float:
    """Geometric mean of the oracle bounds, each clipped to [1e-6, 1e6].

    A bound above 1e6 is the program's own evidence of an infinite constant
    (``equivalence_report``), and how far above 1e6 it gets varies by decades
    with the oracle seed; ``None`` (no bound) counts as the floor."""
    logs = []
    for b in bounds:
        b = 0.0 if b is None else math.inf if b == "inf" else float(b)
        logs.append(math.log10(min(max(b, 1.0 / BOUND_CLIP), BOUND_CLIP)))
    return 10.0 ** statistics.fmean(logs)
