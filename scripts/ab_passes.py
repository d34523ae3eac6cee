"""Interleaved in-process A/B of two checkouts: warm whole passes, and optionally
the operator kernel's ``apply`` per scenario family.

    python3 scripts/ab_passes.py --parent ../parent --change . --workload battery \
        --seed 1 --rounds 16 --kinds
    python3 scripts/ab_passes.py --parent ../parent --workload criteria-sweep --rounds 20

Each checkout's ``src/supineq`` is imported under a package name of its own
(``ab_parent``, ``ab_change``), so both run in one process on the same
config.  The config is ``--config PATH``, or a benchmark workload
(``battery``, ``cli-default``, ``weight-forms``, ``criteria-sweep``)
generated from the change's ``perfbench/workloads.py`` at ``--seed``.  One
pass runs every scenario through its side's ``cli.run_scenario``; under
``criteria-sweep`` it runs only ``criteria.evaluate_criterion``, on a new
``CritCtx`` per spec, as perfbench's criteria runner does (without the
known-answer oracle runs that workload adds).  Each side first runs one
untimed pass, which warms its memos and gives the digest: the sha256 of its
JSON report, or under ``criteria-sweep`` of every outcome (theorem id,
terms as float hex and flags, or the failed predicate).  That cold pass runs
under ``tracemalloc``, whose peak (the memos it fills and the pass's
transient arrays) is reported per side, so a memo's memory is read beside
its time; ``scipy.integrate`` is imported first, so neither peak holds an
import.  Outside ``criteria-sweep`` the cold pass also counts the coordinate
ascent's work per side: coordinate visits (the coordinates its batches
settle), misses (batches that stopped at a prediction that failed), and the
``ratios`` calls and rows its batches score.  perfbench's tracer does not
wrap ``ratios``, so these are the per-layer read of the ascent.  Under
``criteria-sweep`` each side's criteria memos are read after its cold pass,
as the checkout has them: the ``cache_info()`` of its one memo
(``criteria._memo``), or of the weights' memo on the default ``CritCtx``
grid and, where there is one, of the derived arrays' memo on it.  Then the
rounds alternate which side goes first.  A pass is
timed in CPU time of this process.

Each side's import cost is read too, in ``IMPORT_RUNS`` fresh interpreters
per side, the sides alternating: the median wall seconds of ``import
supineq`` from the checkout's ``src``, the median resident MB after it (the
interpreter's own peak, ``VmHWM`` in ``/proc/self/status``: Linux counts
the forking process's peak in a child's ``ru_maxrss``), and whether any
``scipy`` module was loaded.

With ``--kinds`` each scenario family (the id up to its first ``-``) is timed
too: the kernel of its first scenario, on one sampled row of its cone (the
indicator scan and the random stage score one row a call) at that
scenario's grid and seed, for ``CALLS`` calls of ``apply`` per side and
round, again alternating.

The report is JSON on stdout: each side's import cost, its cold-pass peak in MB (and under
``criteria-sweep`` its memos, else its ascent counts), each side's minimum and median, and the
minimum, quartiles and median of the paired ratio change / parent.  It states no verdict; a gain is claimed from
``scripts/bench_pairs.py`` pairs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import scipy.integrate  # noqa: F401  (the weights import it lazily; here, before any cold pass)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
CALLS = 2000  # apply calls per timing with --kinds
IMPORT_RUNS = 5  # fresh interpreters per side for the import cost

# prints the wall seconds of ``import supineq``, the resident MB after it and
# whether a scipy module is loaded
IMPORT_PROBE = """
import sys, time
t = time.perf_counter()
import supineq
t = time.perf_counter() - t
with open("/proc/self/status") as fh:
    mb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
print(t, mb, any(m == "scipy" or m.startswith("scipy.") for m in sys.modules))
"""


def load(checkout: str, name: str):
    """``checkout``'s ``src/supineq`` imported fresh as package ``name``, with its cli."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    src = os.path.join(os.path.abspath(checkout), "src", "supineq")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"), submodule_search_locations=[src])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    importlib.import_module(f"{name}.cli")
    return pkg


def config_path(change: str, workload: str, seed: int, tmp: str) -> str:
    """The battery's committed config, or a workload config generated by the
    change's ``perfbench/workloads.py`` into ``tmp``."""
    if workload == "battery":
        return os.path.join(change, "configs", "battery.json")
    spec = importlib.util.spec_from_file_location(
        "ab_workloads", os.path.join(change, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    path = os.path.join(tmp, f"{workload}.json")
    with open(path, "w") as fh:
        fh.write(workloads.config_text(workloads.GENERATORS[workload](seed)))
    return path


def one_pass(pkg, scenarios) -> tuple:
    """CPU seconds of one pass over ``scenarios``, and its report's sha256."""
    cli = pkg.cli
    t = time.process_time()
    records = [cli.run_scenario(sc) for sc in scenarios]
    t = time.process_time() - t
    return t, hashlib.sha256(cli.emit_report(records, "json").encode()).hexdigest()


def outcome(criteria, sc) -> list:
    """What ``evaluate_criterion`` gives ``sc`` on a new ``CritCtx``: its
    theorem id, terms as float hex and flags, or the failed predicate, or
    the error."""
    try:
        res = criteria.evaluate_criterion(sc.spec, ctx=criteria.CritCtx(), verbatim=sc.verbatim_paper)
    except criteria.TheoremInapplicable as exc:
        return [sc.id, "inapplicable", exc.predicate]
    except Exception as exc:  # a failed spec is an outcome, as in perfbench's runner
        return [sc.id, "error", f"{type(exc).__name__}: {exc}"]
    return [sc.id, res.theorem_id, sorted((k, float(v).hex()) for k, v in res.terms.items()),
            list(res.flags)]


def criteria_pass(pkg, scenarios) -> tuple:
    """CPU seconds of one pass of ``outcome`` over ``scenarios``, and the
    sha256 of the outcomes."""
    t = time.process_time()
    outcomes = [outcome(pkg.criteria, sc) for sc in scenarios]
    t = time.process_time() - t
    return t, hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


def summary(times: dict) -> dict:
    """Each side's minimum and median, and the paired ratio's spread."""
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    out = {side: {"min": min(ts), "median": statistics.median(ts)} for side, ts in times.items()}
    out["ratio"] = {"min": min(ratios), "q1": q1, "median": median, "q3": q3}
    out["ratio_of_minima"] = min(times["change"]) / min(times["parent"])
    return out


def interleaved(rounds: int, timers: dict) -> dict:
    """``rounds`` timings of each side's timer, the parent first on even rounds."""
    times = {side: [] for side in SIDES}
    for r in range(rounds):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            times[side].append(timers[side]())
    return times


def cold_pass(one, pkg, scenarios) -> tuple:
    """The digest of ``one`` pass over ``scenarios``, and the ``tracemalloc``
    peak over it in MB."""
    tracemalloc.start()
    try:
        digest = one(pkg, scenarios)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return digest, peak / 2**20


@contextlib.contextmanager
def counting_ascent(pkg):
    """Count the coordinate ascent's work on ``pkg`` while the block runs, by
    wrapping its oracle's ``_predicted_batch`` and, within each batch, the
    engine's ``ratios``.  Yields the counts: ``visits`` (the coordinates the
    batches settle), ``misses`` (batches that ended at a failed prediction),
    ``ratios_calls`` and ``rows``."""
    oracle = pkg.oracle
    batch = oracle._predicted_batch
    counts = dict.fromkeys(("visits", "misses", "ratios_calls", "rows"), 0)

    def counted_batch(engine, vals, best, coords, pred):
        ratios = engine.ratios

        def counted_ratios(F):
            counts["ratios_calls"] += 1
            counts["rows"] += len(F)
            return ratios(F)

        engine.ratios = counted_ratios  # shadows the method on this engine alone
        try:
            out = batch(engine, vals, best, coords, pred)
        finally:
            del engine.ratios
        counts["visits"] += out[0]
        counts["misses"] += not out[1]
        return out

    oracle._predicted_batch = counted_batch
    try:
        yield counts
    finally:
        oracle._predicted_batch = batch


def memo_info(pkg) -> dict:
    """``cache_info()`` of the criteria memos: ``memo`` where the checkout has
    one memo for the criteria, else those on the default ``CritCtx`` grid,
    ``weights`` and, where the checkout has that memo, ``derived``."""
    if hasattr(pkg.criteria, "_memo"):
        return {"memo": pkg.criteria._memo.cache_info()._asdict()}
    grid = pkg.criteria.CritCtx()._grid
    out = {"weights": grid.memo.cache_info()._asdict()}
    if hasattr(grid, "derived"):
        out["derived"] = grid.derived.cache_info()._asdict()
    return out


def passes(pkgs: dict, scenarios: dict, rounds: int, one=one_pass) -> dict:
    cold, ascent = {}, {}
    for side in SIDES:
        with counting_ascent(pkgs[side]) as ascent[side]:
            cold[side] = cold_pass(one, pkgs[side], scenarios[side])
    digests = {side: cold[side][0] for side in SIDES}
    out = {"digest_equal": digests["parent"] == digests["change"], "digests": digests,
           "cold_peak_mb": {side: round(cold[side][1], 3) for side in SIDES}}
    if one is criteria_pass:
        out["criteria_memos"] = {side: memo_info(pkgs[side]) for side in SIDES}
    else:
        out["ascent"] = ascent
    times = interleaved(rounds, {side: (lambda s=side: one(pkgs[s], scenarios[s])[0])
                                 for side in SIDES})
    return {**out, **summary(times)}


def import_probe(checkout: str) -> tuple:
    """One fresh interpreter's ``IMPORT_PROBE`` of ``checkout``'s ``src``:
    seconds, resident MB and whether scipy was loaded."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    return float(out[0]), float(out[1]), out[2] == "True"


def import_costs(checkouts: dict) -> dict:
    """Per side, the median seconds and resident MB of ``import supineq``
    over ``IMPORT_RUNS`` fresh interpreters, and whether any of them loaded
    a scipy module."""
    runs = interleaved(IMPORT_RUNS, {side: (lambda s=side: import_probe(checkouts[s]))
                                     for side in SIDES})
    return {side: {"import_s": statistics.median(r[0] for r in rs),
                   "rss_mb": statistics.median(r[1] for r in rs),
                   "scipy_loaded": any(r[2] for r in rs)} for side, rs in runs.items()}


def apply_timer(pkg, sc):
    """A timer of ``CALLS`` calls of ``sc``'s kernel ``apply`` on one sampled
    row of its cone, in microseconds per call."""
    gridfn = pkg.gridfn
    engine = pkg.oracle.RayleighEngine(sc.spec, gridfn.make_log_grid(**sc.grid))
    cone, grid = sc.spec.cone, engine.grid
    row = (gridfn.sample_nonneg(grid, sc.seed) if cone == "none"
           else gridfn.sample_monotone(cone, grid, sc.seed))
    segv = gridfn.region_values(row[None], cone)
    out = np.empty_like(segv)
    apply, calls = engine.kernel.apply, CALLS

    def timer():
        with np.errstate(all="ignore"):
            t = time.process_time()
            for _ in range(calls):
                apply(segv, out=out)
            return 1e6 * (time.process_time() - t) / calls

    return timer


def kinds(pkgs: dict, scenarios: dict, rounds: int) -> dict:
    """Per family, ``summary`` of the microseconds per ``apply`` call."""
    first = {}
    for i, sc in enumerate(scenarios["change"]):
        first.setdefault(sc.id.split("-", 1)[0], i)
    out = {}
    for family, i in sorted(first.items()):
        timers = {side: apply_timer(pkgs[side], scenarios[side][i]) for side in SIDES}
        out[family] = summary(interleaved(rounds, timers))
    return out


def run(parent: str, change: str, config: str, seed=None, rounds: int = 8,
        with_kinds: bool = False, criteria_only: bool = False) -> dict:
    """The A/B report of ``config`` (its oracle seed overridden by ``seed``);
    with ``criteria_only`` a pass runs the criteria alone (``criteria_pass``)."""
    if rounds < 2:
        raise ValueError("quartiles need at least two rounds")
    checkouts = {"parent": parent, "change": change}
    pkgs = {side: load(checkouts[side], f"ab_{side}") for side in SIDES}
    scenarios = {side: pkgs[side].cli.load_config(config, {"seed": seed}) for side in SIDES}
    doc = {"config": config, "seed": seed, "rounds": rounds, "scenarios": len(scenarios["change"]),
           "import": import_costs(checkouts), "time": "CPU seconds per warm pass",
           "passes": passes(pkgs, scenarios, rounds, criteria_pass if criteria_only else one_pass)}
    if with_kinds:
        doc["apply_us"] = kinds(pkgs, scenarios, rounds)
        doc["apply_calls_per_timing"] = CALLS
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", default=ROOT, help="checkout of the change (default: this one)")
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--config", help="a config file")
    what.add_argument("--workload", choices=("battery", "cli-default", "weight-forms", "criteria-sweep"))
    ap.add_argument("--seed", type=int, default=None,
                    help="the oracle seed, and the workload's (default 1 with --workload; "
                         "with --config, the config's own)")
    ap.add_argument("--rounds", type=int, default=8)
    ap.add_argument("--kinds", action="store_true", help="also time apply per family")
    args = ap.parse_args(argv)
    # a workload runs at one seed, its config's and the oracle's, as perfbench/run.py does
    seed = 1 if args.seed is None and args.workload else args.seed
    with tempfile.TemporaryDirectory() as tmp:
        config = args.config or config_path(args.change, args.workload, seed, tmp)
        doc = run(args.parent, args.change, config, seed, args.rounds, args.kinds,
                  args.workload == "criteria-sweep")
    doc["config"] = args.config or args.workload
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
