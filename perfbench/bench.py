"""Run one workload in this process and write its measurements as JSON.

    python3 perfbench/bench.py --workload battery --config configs/battery.json \\
        --known perfbench/out/battery-1/known.json --seed 1 --seconds 10 \\
        --trace 0 --out perfbench/out/result.json

Set-up is ``import supineq`` (numpy and scipy included) plus
``load_config`` of the workload files; ``--setup-only`` stops there.
Without tracing, the scenarios are run in order, again and again, until
``--seconds`` have passed and every scenario has run at least once;
``wall_s`` is the sum over scenarios of each one's median time at
reference machine speed (``perfbench/speed.py``).  A repeated
scenario must give the same record, and the known answers are always run a
second time after the timed passes.  With tracing, every scenario runs once
untraced and then once traced, so operation counts are exact and the
tracer's overhead is the ratio of the two sums; the spans are written next
to ``--out`` as ``spans-<workload>.npz``.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import checks, metrics  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import KNOWN_IDS, family  # noqa: E402


def _jsonable(x):
    x = float(x)
    if math.isnan(x):
        return "nan"
    return "inf" if math.isinf(x) else x


def oracle_runner(cli):
    def run(sc):
        try:
            return cli.run_scenario(sc)
        except Exception as exc:  # a failed scenario is counted, not fatal
            return {"id": sc.id, "verdict": "error", "error": f"{type(exc).__name__}: {exc}"}

    return run


def criteria_runner(criteria):
    def run(sc):
        rec = {"id": sc.id}
        try:
            res = criteria.evaluate_criterion(sc.spec, ctx=criteria.CritCtx(), verbatim=sc.verbatim_paper)
        except criteria.TheoremInapplicable as exc:
            rec.update(verdict="inapplicable", failed_hypothesis=exc.predicate)
            return rec
        except Exception as exc:  # a failed spec is counted, not fatal
            rec.update(verdict="error", error=f"{type(exc).__name__}: {exc}")
            return rec
        terms = {k: _jsonable(v) for k, v in sorted(res.terms.items())}
        total = _jsonable(res.total)
        nan = total == "nan" or "nan" in terms.values()
        rec.update(verdict="nan_term" if nan else "evaluated", theorem_id=res.theorem_id,
                   terms=terms, total=total, finite=bool(res.finite), flags=list(res.flags))
        return rec

    return run


def timed(run, sc):
    t = perf_counter()
    rec = run(sc)
    return rec, perf_counter() - t


def measure(jobs, seconds, probe):
    """Cycle through ``jobs`` until ``seconds`` have passed (at least one full
    pass), sampling machine speed between jobs.  Returns first-pass records,
    per-job times, the number of full passes and the ids whose repeated
    record differed from the first one."""
    deadline = perf_counter() + seconds
    records, times = [], []
    for run, sc in jobs:
        rec, t = timed(run, sc)
        records.append(rec)
        times.append([t])
        probe.poll()
    canon = [_canon(r) for r in records]
    changed = set()
    passes = 1
    while perf_counter() < deadline:
        for i, (run, sc) in enumerate(jobs):
            if perf_counter() >= deadline:
                break
            rec, t = timed(run, sc)
            probe.poll()
            times[i].append(t)
            if _canon(rec) != canon[i]:
                changed.add(sc.id)
        else:
            passes += 1
    return records, times, passes, sorted(changed)


def traced_pass(args, cli, jobs, tracer, probe):
    """Run every job untraced and then traced, back to back, so that drift in
    machine speed hits both sides of the tracer's overhead alike."""
    with tracer.installed():
        cli.load_config(args.config, {"seed": args.seed})
        cli.load_config(args.known)
    records, traced_records, times, traced_times = [], [], [], []
    for run, sc in jobs:
        rec, t = timed(run, sc)
        records.append(rec)
        times.append(t)
        probe.poll()
        tracer.family = family(sc.id)
        with tracer.installed():
            rec, t = timed(run, sc)
        traced_records.append(rec)
        traced_times.append(t)
    with tracer.installed():
        report = cli.emit_report(traced_records, "json")
    return records, traced_records, times, traced_times, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True, help="the workload's config")
    ap.add_argument("--known", required=True, help="config of the known-answer cases")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t = perf_counter()
    from supineq import cli, criteria

    configs = (cli.load_config(args.config, {"seed": args.seed}), cli.load_config(args.known))
    setup_s = perf_counter() - t
    from perfbench.speed import SpeedProbe, kernel, speed_scale  # imports numpy: not before set-up

    scale = speed_scale([kernel() for _ in range(20)])
    result = {"setup_raw_s": setup_s, "setup_s": setup_s * scale}
    if not args.setup_only:
        result.update(run_workload(args, cli, criteria, configs, SpeedProbe()))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def make_jobs(workload, cli, criteria, configs):
    """(runner, scenario) pairs: the workload's scenarios, then the known answers."""
    main, known = configs
    first = criteria_runner(criteria) if workload == "criteria-sweep" else oracle_runner(cli)
    return [(first, sc) for sc in main] + [(oracle_runner(cli), sc) for sc in known]


def _canon(rec):
    return json.dumps(rec, sort_keys=True)


def run_workload(args, cli, criteria, configs, probe):
    jobs = make_jobs(args.workload, cli, criteria, configs)
    out = {"scenarios": len(jobs)}
    if args.trace:
        tracer = Tracer()
        records, traced_records, untraced, traced, report = traced_pass(args, cli, jobs, tracer, probe)
        times = [[t] for t in untraced]
        out["per_layer"] = metrics.per_layer(tracer, sum(traced) / sum(untraced) - 1.0)
        out["traced_wall_s"] = sum(traced)
        out["passes"] = 1
        changed = [a["id"] for a, b in zip(records, traced_records) if _canon(a) != _canon(b)]
        tracer.write_spans(os.path.join(os.path.dirname(args.out), f"spans-{args.workload}.npz"))
    else:
        records, times, out["passes"], changed = measure(jobs, args.seconds, probe)
        known = len(configs[1])  # the known answers are the last jobs
        changed = sorted(set(changed).union(
            sc.id for (run, sc), rec in zip(jobs[-known:], records[-known:]) if _canon(run(sc)) != _canon(rec)))
        report = cli.emit_report(records, "json")
    out["wall_raw_s"] = sum(statistics.median(ts) for ts in times)
    out["speed_scale"] = probe.scale()
    out["wall_s"] = out["wall_raw_s"] * out["speed_scale"]
    out["digest"] = checks.digest(report)
    out["violations"] = checks.check_records(records, KNOWN_IDS) + [
        f"{rid}: repeated run gave another record" for rid in changed]
    out["errors"] = sum(r.get("verdict") == "error" for r in records)
    out["fails"] = sum(checks.is_failure(r) for r in records)
    oracle_records = records[len(configs[0]):] if args.workload == "criteria-sweep" else records
    out["bounds"] = [r.get("oracle_lower") for r in oracle_records]
    out["known"] = {r["id"]: r.get("oracle_lower") for r in records if r["id"] in KNOWN_IDS}
    return out


if __name__ == "__main__":
    sys.exit(main())
