"""The oracle's over-report gate.

The oracle's bound is certified only if its region masses are.  This file
re-runs the oracle on the committed battery, on perfbench's weight-forms
workload at seed 1 and on cli-default's ``sup-189`` at seed 1, and scores
each witness again: the same region values and kernel outputs, against
region masses from an independent route.  The two end regions keep the
package's closed forms (``cum_low`` at the first knot, ``cum_up`` at the
last); every interior region is integrated here, with
``scipy.integrate.quad`` on the log axis at epsrel 1e-10 and epsabs 0, split
at the weight's ``argmax()``, at piecewise knots and at table samples, so
that each piece is one smooth expression.  The integrand of a piece is that
expression: ``PowerWeight._scalar`` for a power weight or a piecewise
segment, and the log-linear power law between two table samples (a
constant outside them), so no mass is read from ``region_measures`` or a
cumulative.

The bound must be at most the re-scored quotient times 1 + 1e-9.  The
records that break this are pinned in ``OVER_REPORTS`` by id, with the side
that is wrong and the re-scored quotient; any other record that breaks it,
or a pinned one that no longer does, fails the gate.  Each pin traces to
interior masses that ``region_measures`` misreads: differences of
``cum_low`` past a weight's mode, which round to noise, and quadrature
masses near the bottom of the float range.
"""

import bisect
import functools
import importlib.util
import math
import os
import warnings

import numpy as np
import pytest
import scipy.integrate

from supineq.cli import load_config
from supineq.extreal import _amul, _apow, xdiv, xpow
from supineq.gridfn import make_log_grid, region_measures, region_values
from supineq.oracle import RayleighEngine, best_constant_lower
from supineq.weights import PiecewisePowerWeight, PowerWeight, TabulatedWeight

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BATTERY = os.path.join(ROOT, "configs", "battery.json")
SLACK = 1e-9

# "workload/id" -> (the side that is wrong, the re-scored quotient)
OVER_REPORTS = {
    "cli-default/sup-189": ("oracle", 14.165355059274155),
    "battery/sstarup-144": ("oracle", 1.4861361230110017e21),
    "battery/sstarup-146": ("oracle", 1.4861361230110017e21),
    "battery/sstarup-148": ("oracle", 8073919155433.031),
    "battery/sstarup-150": ("oracle", 8073919155433.027),
    "battery/sstarup-152": ("oracle", 1.4861361230110017e21),
    "battery/sstarup-154": ("oracle", 1.4861361230110017e21),
    "battery/sstarup-156": ("oracle", 8073919155433.031),
    "battery/sstarup-158": ("oracle", 8073919155433.027),
    "weight-forms/sup-199-genpower": ("oracle", 0.0),
    "weight-forms/sup-185-piecewise": ("oracle", 214185409579.30612),
    "weight-forms/sstarup-156-piecewise": ("oracle", 340384735.0786045),
    "weight-forms/isi1v-448-genpower": ("oracle", 1.5715705481895562e308),
    "weight-forms/isi1-432-genpower": ("oracle", 8.661579780080538e144),
    "weight-forms/isi2-390-table": ("oracle", 417102001089.6952),
}


def log_quad(f, a, b):
    """``int_a^b f`` by quadrature in s = log t."""
    def g(s):
        t = math.exp(s)
        return f(t) * t

    val, _err = scipy.integrate.quad(g, math.log(a), math.log(b), epsabs=0.0, epsrel=1e-10, limit=200)
    return val


def table_piece(w, lo, hi):
    """The tabulated weight on [lo, hi], which holds no sample inside: its
    end value outside the samples, else the log-linear interpolant between
    the two samples around it, with a zero sample at log y = -690 and values
    below 1e-290 read as 0, as ``TabulatedWeight`` evaluates."""
    ts, ys = w.t, w.y
    if hi <= ts[0] or lo >= ts[-1]:
        y = ys[0] if hi <= ts[0] else ys[-1]
        return lambda t: y
    i = bisect.bisect_right(ts, lo) - 1
    la, lb = (math.log(y) if y > 0.0 else -690.0 for y in ys[i:i + 2])
    lt = math.log(ts[i])
    slope = (lb - la) / (math.log(ts[i + 1]) - lt)

    def f(t):
        y = math.exp(la + (math.log(t) - lt) * slope)
        return y if y >= 1e-290 else 0.0

    return f


def pieces(w, a, b):
    """(lo, hi, integrand) pieces of (a, b), on each of which ``w`` is one
    smooth expression."""
    if isinstance(w, PowerWeight):
        mode = w.argmax()
        cuts = [mode] if a < mode < b else []
        expr = lambda lo, hi: w._scalar
    elif isinstance(w, PiecewisePowerWeight):
        cuts = [k for k in w.knots if a < k < b]
        expr = lambda lo, hi: w.segments[bisect.bisect_left(w.knots, hi)]._scalar
    else:
        assert isinstance(w, TabulatedWeight)
        cuts = [t for t in w.t if a < t < b]
        expr = functools.partial(table_piece, w)
    ends = [a, *cuts, b]
    return [(lo, hi, expr(lo, hi)) for lo, hi in zip(ends, ends[1:])]


@functools.lru_cache(maxsize=None)
def interior_masses(grid, w):
    """The mass of ``w`` on each interior region of ``grid``."""
    ks = grid.knots
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quad's IntegrationWarning near underflow
        return np.array([sum(log_quad(f, lo, hi) for lo, hi, f in pieces(w, a, b))
                         for a, b in zip(ks[:-1], ks[1:])])


def rescored(engine, witness):
    """The quotient of ``witness``: the engine's region values and kernel
    outputs, against the end masses of the engine and the interior masses of
    ``interior_masses``."""
    dV, dW = engine.dV.copy(), engine.dW.copy()
    dV[1:-1] = interior_masses(engine.grid, engine.spec.v)
    dW[1:-1] = interior_masses(engine.grid, engine.spec.w)
    p, q = engine.spec.exps.p, engine.spec.exps.q
    segv = region_values(np.asarray(witness, dtype=float)[None], engine.cone)
    with np.errstate(all="ignore"):
        out = engine.kernel.apply(segv)
        num = float(np.sum(_amul(_apow(out[0], q), dW)))
        den = xpow(float(np.sum(_amul(_apow(segv[0], p), dV))), 1.0 / p)
    return 0.0 if den == 0.0 else xdiv(xpow(num, 1.0 / q), den)


def workload_scenarios(tmp_path):
    """``(workload, scenario)`` for the battery, weight-forms at seed 1 and
    cli-default's ``sup-189`` at seed 1, each generated config written into
    ``tmp_path``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    def load(name):
        path = tmp_path / f"{name}.json"
        path.write_text(workloads.config_text(workloads.GENERATORS[name](1)))
        return load_config(str(path), {"seed": 1})

    out = [("battery", sc) for sc in load_config(BATTERY)]
    out += [("weight-forms", sc) for sc in load("weight-forms")]
    out += [("cli-default", sc) for sc in load("cli-default") if sc.id == "sup-189"]
    return out


@pytest.fixture(scope="module")
def scores(tmp_path_factory):
    """"workload/id" -> (the oracle's bound, its witness re-scored)."""
    out = {}
    for name, sc in workload_scenarios(tmp_path_factory.mktemp("over_report")):
        grid = make_log_grid(**sc.grid)
        orc = best_constant_lower(sc.spec, sc.budget, sc.seed, grid)
        out[f"{name}/{sc.id}"] = orc.lower_bound, rescored(RayleighEngine(sc.spec, grid), orc.witness)
    return out


def over_reports(scores):
    return {key for key, (bound, again) in scores.items() if not bound <= again * (1.0 + SLACK)}


class TestOverReportGate:
    def test_every_record_is_scored(self, scores):
        assert len(scores) == 83 + 39 + 1
        assert set(OVER_REPORTS) <= set(scores)

    def test_only_the_pinned_records_over_report(self, scores):
        assert over_reports(scores) == set(OVER_REPORTS)

    @pytest.mark.parametrize("key", sorted(OVER_REPORTS))
    def test_pinned_over_report(self, key, scores):
        side, value = OVER_REPORTS[key]
        bound, again = scores[key]
        assert side == "oracle" and bound > again * (1.0 + SLACK)
        assert again == pytest.approx(value, rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("w", [
        PowerWeight(2.0, 0.5),
        PowerWeight(1.0, -2.0),
        PowerWeight(1.0, 1.0, 0.5),
        PiecewisePowerWeight((0.1, 10.0), (PowerWeight(1.0, 0.5), PowerWeight(2.0, 0.2),
                                           PowerWeight(20.0, -0.8))),
        TabulatedWeight(t=(1e-3, 0.1, 1.0, 30.0), y=(1e-3, 0.1, 1.0, 30.0)),
    ], ids=["power", "t^-2", "powerexp", "piecewise", "table"])
    def test_independent_masses_agree_where_the_package_is_exact(self, w):
        # before a mode, and for closed forms, the package's masses do not
        # cancel: the independent route reads them to quadrature accuracy
        grid = make_log_grid(1e-4, 2.0, 40)
        np.testing.assert_allclose(interior_masses(grid, w), region_measures(grid, w)[1:-1],
                                   rtol=1e-11, atol=0.0)
