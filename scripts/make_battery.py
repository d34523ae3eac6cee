#!/usr/bin/env python3
"""Generate the frozen battery config.

Enumerates the candidate scenarios across every operator family and
exponent regime (``perfbench.workloads.candidates``, the benchmark's
candidate space), runs each one through the criterion + oracle pipeline,
and keeps those whose verdict is ``consistent``.  The survivors are written to
``configs/battery.json`` so the acceptance suite replays a fixed, fast,
all-green batch.

Usage: python3 scripts/make_battery.py [--out configs/battery.json]
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)  # the candidate space lives in perfbench.workloads

from perfbench.workloads import BATTERY_BUDGET, BATTERY_GRID, candidates  # noqa: E402
from supineq.cli import run_scenario, load_config  # noqa: E402

DEFAULTS = {
    "grid": dict(BATTERY_GRID),
    "budget": dict(BATTERY_BUDGET),
    "band": 64.0,
    "seed": 1234,
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=os.path.join(ROOT, "configs", "battery.json"))
    ap.add_argument("--limit-per-family", type=int, default=8)
    args = ap.parse_args()

    import tempfile

    cands = candidates()
    doc = {"defaults": DEFAULTS, "scenarios": cands}
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(doc, fh)
        tmp = fh.name
    scenarios = load_config(tmp)
    os.unlink(tmp)

    kept, per_family = [], {}
    for sc, raw in zip(scenarios, cands):
        fam = raw["id"].rsplit("-", 1)[0]
        if per_family.get(fam, 0) >= args.limit_per_family:
            continue
        rec = run_scenario(sc)
        ok = rec["verdict"] == "consistent"
        print(f"{raw['id']:16s} {rec.get('theorem_id', '?'):8s} {rec['verdict']:24s}"
              f" ratio={rec.get('ratio')}", file=sys.stderr)
        if ok:
            kept.append(raw)
            per_family[fam] = per_family.get(fam, 0) + 1

    out_doc = {"defaults": DEFAULTS, "scenarios": kept}
    with open(args.out, "w") as fh:
        json.dump(out_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    fams = sorted(per_family)
    print(f"kept {len(kept)} scenarios across {len(fams)} families: {fams}", file=sys.stderr)


if __name__ == "__main__":
    main()
