"""Alternating parent/change pairs of the benchmark, summarised as one JSON file.

    python3 scripts/bench_pairs.py --parent ../parent --change ../change \
        --workload cli-default --workload battery --seeds 601-610 \
        --out BENCH_21.json --what "..." --claim cli-default:wall_s

``--parent`` and ``--change`` are two checkouts of the repository (for
example ``git archive`` of each commit, unpacked).  For every workload and
seed the script runs ``perfbench/run.py`` once in each checkout, back to
back, the parent first on odd pairs and the change first on even ones, for
the ``run_seconds`` of the change's ``BENCHMARK.json``.  The end-to-end
metrics and bounds are those of the same file;
with ``--trace 1`` the per-layer metrics are summarised instead, without
bounds.  Each side gets the median and quartiles of its runs, each metric the
pairs the change won and lost (ties count for neither), the relative change
of the medians, the parent's IQR and whether the gap between the medians
exceeds it.  A claim counts as met only if, on its workload, every pair is
correct with equal report digests and the change fails no more operations
than the parent.  A claim whose workload is not among the ``--workload``
flags, or whose metric is not among those summarised, is refused before
any run.  Every run made is listed under ``pairs``.  Nothing in either
checkout changes but the benchmark's own output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``checkout``: its details line and its metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    details, result = (json.loads(line) for line in res.stdout.strip().splitlines()[-2:])
    return {"details": details, "correct": result["correct"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(xs: list) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": round(q1, 5), "median": round(median, 5), "q3": round(q3, 5)}


def summarise(pairs: list, metric: str, better: str, bound) -> dict:
    parent = [p["parent"][metric] for p in pairs]
    change = [p["change"][metric] for p in pairs]
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (a - b) for a, b in zip(parent, change)]
    pq, cq = quartiles(parent), quartiles(change)
    rel = (cq["median"] - pq["median"]) / pq["median"] if pq["median"] else 0.0
    iqr = pq["q3"] - pq["q1"]
    out = {
        "runs": len(pairs), "parent": pq, "change": cq,
        "change_better_pairs": sum(g > 0 for g in gains),
        "change_worse_pairs": sum(g < 0 for g in gains),
        "median_change_rel": round(rel, 4),
        "parent_iqr": round(iqr, 5),
        "median_gap_exceeds_parent_iqr": abs(cq["median"] - pq["median"]) > iqr,
    }
    if bound is not None:
        out["bound"] = bound
        out["within_bound"] = sign * rel <= bound
    return out


def parse_seeds(text: str) -> list:
    lo, hi = (int(x) for x in text.split("-"))
    if hi <= lo:
        raise ValueError(f"--seeds {text}: quartiles need at least two pairs")
    return list(range(lo, hi + 1))


def claim_met(pairs: list, s: dict, better: str) -> bool:
    """At least 9 of 10 pairs won, the medians further apart than the parent's
    IQR, in the better direction, with no pair incorrect, no digest changed
    and no more failed operations than the parent."""
    sign = 1.0 if better == "lower" else -1.0
    sound = (all(p["correct"] and p["digest_equal"] for p in pairs)
             and sum(p["failed"]["change"] for p in pairs) <= sum(p["failed"]["parent"] for p in pairs))
    return (sound and s["change_better_pairs"] >= 0.9 * s["runs"]
            and s["median_gap_exceeds_parent_iqr"] and sign * s["median_change_rel"] < 0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, help="'601-610': one pair per seed, at least two")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--what", default="", help="what the change does")
    ap.add_argument("--claim", default=None, help="'workload:metric' the change claims, if any")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    if args.trace:
        metrics = {m["name"]: (m["better"], None) for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    key = "per_layer" if args.trace else "end_to_end"
    if args.claim:
        # checked before any run: a bad claim would otherwise fail after every pair
        workload, _, metric = args.claim.partition(":")
        if workload not in args.workload or metric not in metrics:
            ap.error(f"--claim {args.claim}: the workload must be one of the --workload flags "
                     f"and the metric one of BENCHMARK.json's {key} metrics")
    sides = {"parent": args.parent, "change": args.change}
    doc = {"what": args.what, "claim": None, "method": {
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds:g} "
                   f"--trace {args.trace}",
        "seeds": f"pair i uses seed {seeds[0]}+i-1 on both sides ({args.seeds})",
        "order": "parent first on odd pairs, change first on even pairs; both sides of one "
                 "workload and seed back to back; workloads in the order given",
        "checkouts": "the parent commit and the change, each in its own directory",
    }, "machine": None, key: {}, "pairs": {}}
    if args.claim:
        doc["claim"] = {"workload": workload, "metric": metric}
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(seeds, start=1):
            order = ["parent", "change"] if i % 2 else ["change", "parent"]
            runs = {side: run_once(sides[side], workload, seed, seconds, args.trace)
                    for side in order}
            doc["machine"] = doc["machine"] or runs["change"]["details"]["fingerprint"]
            pairs.append({
                "pair": i, "seed": seed, "first": order[0],
                "parent": runs["parent"]["metrics"], "change": runs["change"]["metrics"],
                "digest_equal": runs["parent"]["details"]["digest"] == runs["change"]["details"]["digest"],
                "correct": runs["parent"]["correct"] and runs["change"]["correct"],
                "failed": {side: runs[side]["failed"] for side in sides},
            })
            print(f"{workload} pair {i} seed {seed}: " + ", ".join(
                f"{side} {runs[side]['metrics'].get('wall_s', '')}" for side in order), file=sys.stderr)
        doc[key][workload] = {m: summarise(pairs, m, better, bound)
                              for m, (better, bound) in metrics.items()}
        doc["pairs"][workload] = pairs
    if doc["claim"]:
        c = doc["claim"]
        c["met"] = claim_met(doc["pairs"][c["workload"]], doc[key][c["workload"]][c["metric"]],
                             metrics[c["metric"]][0])
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
