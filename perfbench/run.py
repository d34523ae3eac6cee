"""Benchmark of the criterion -> oracle -> verdict pipeline.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload config is generated from the
seed (the battery's is ``configs/battery.json`` with the seed as oracle
seed) and written under ``perfbench/out/``.  Set-up is measured in
``SETUP_SAMPLES`` fresh processes and the workload runs in one more, so the
peak memory is that workload's alone; every child gets BLAS/OpenMP thread
counts of 1.  The output checks run on every record, and the report digest
must match any earlier run of the same code, workload and seed.

The last line of standard output is one JSON object: ``correct``,
``attempted`` (scenarios), ``failed`` (scenarios that raised) and
``metrics`` -- the end-to-end metrics, or with ``--trace 1`` the per-layer
ones.  Lines before it give the environment fingerprint and the details.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import metrics, workloads  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def fingerprint() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def code_hash() -> str:
    """Hash of the program's sources, its committed configs and this benchmark."""
    h = hashlib.sha256()
    for sub in ("src", "configs", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, sub)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("__pycache__", "out"))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def write_configs(workload: str, seed: int) -> tuple:
    """Paths of the workload config and the known-answer config."""
    work = os.path.join(OUT, f"{workload}-{seed}")
    os.makedirs(work, exist_ok=True)
    docs = {"known.json": workloads.known_answers(seed)}
    if workload == "battery":
        main = os.path.join(ROOT, workloads.BATTERY_PATH)
    else:
        main = os.path.join(work, "workload.json")
        docs["workload.json"] = workloads.GENERATORS[workload](seed)
    for name, doc in docs.items():
        with open(os.path.join(work, name), "w") as fh:
            fh.write(workloads.config_text(doc))
    return main, os.path.join(work, "known.json")


def child(args, main_cfg, known_cfg, extra, out_path, env, deadline):
    """Run bench.py; its standard error (the program's warnings) goes to a log."""
    cmd = [sys.executable, os.path.join(HERE, "bench.py"), "--workload", args.workload,
           "--config", main_cfg, "--known", known_cfg, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_path] + extra
    with open(out_path + ".stderr", "w") as log:
        subprocess.run(cmd, env=env, stderr=log, check=True,
                       timeout=max(1.0, deadline - perf_counter()))
    with open(out_path) as fh:
        return json.load(fh)


def check_digest(key: str, digest: str) -> list:
    """Record the report digest; a different one for the same key is an error."""
    path = os.path.join(OUT, "digests.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as fh:
            seen = json.load(fh)
    old = seen.setdefault(key, digest)
    with open(path, "w") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    return [] if old == digest else [f"report digest {digest} differs from earlier run's {old}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    for need in ("src/supineq/cli.py", workloads.BATTERY_PATH):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found; run from the root of a supineq checkout",
                  file=sys.stderr)
            return 2
    os.makedirs(OUT, exist_ok=True)
    os.environ.update({v: "1" for v in THREAD_VARS})
    env = dict(os.environ)
    main_cfg, known_cfg = write_configs(args.workload, args.seed)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    out_path = os.path.join(OUT, f"{tag}.child.json")

    try:
        setups = [child(args, main_cfg, known_cfg, ["--setup-only"], out_path, env, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        res = child(args, main_cfg, known_cfg, [], out_path, env, deadline)
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: workload process failed: {exc}; see {out_path}.stderr", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    key = f"{args.workload} seed={args.seed} code={code_hash()}"
    violations = res["violations"] + check_digest(key, res["digest"])
    n = res["scenarios"]
    if args.trace:
        units = metrics.per_layer_units()
        values = res["per_layer"]
    else:
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
        values = {
            "wall_s": res["wall_s"],
            "setup_s": statistics.median(setups),
            "ok_frac": (n - res["fails"]) / n,
            "bound_geomean": metrics.bound_geomean(res["bounds"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fingerprint": fingerprint(), "digest": res["digest"], "code": key.rsplit("=", 1)[1],
        "scenarios": n, "fails": res["fails"], "fail_frac": res["fails"] / n,
        "errors": res["errors"], "passes": res["passes"], "wall_s": res["wall_s"],
        "wall_raw_s": res["wall_raw_s"],
        "speed_scale": res["speed_scale"], "setup_samples": setups,
        "known_answers": res["known"], "violations": violations,
    }
    if args.trace:
        details["traced_wall_s"] = res["traced_wall_s"]
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(dict(details, metrics=values), fh, indent=1, sort_keys=True)
    for v in violations:
        print(f"perfbench: check failed: {v}", file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not violations,
        "attempted": n,
        "failed": res["errors"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
