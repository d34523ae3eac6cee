"""The unfiltered candidate set of ``scripts/make_battery.py`` and its verdicts.

``configs/candidates.json`` holds every candidate the battery generator
enumerates, at its ``DEFAULTS``, with none dropped for its outcome;
``configs/candidate_verdicts.json`` maps each id to the verdict it gets, and
``tests/data/candidate_oracle_golden.json`` to its oracle outcome (bound,
trace and divergence flag, as ``oracle_outcomes`` reads them),
so a change meant to keep reports byte-identical is checked on all 686.  A
change that moves a verdict or an outcome rewrites the three files with
``python tests/test_candidates.py`` and says which ids moved and which side
(criterion or oracle) was wrong.
"""

import collections
import importlib.util
import json
import os

from supineq.cli import emit_report, load_config, run_batch
from supineq.gridfn import make_log_grid
from supineq.oracle import RayleighEngine, _rays_are_exact

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CANDIDATES = os.path.join(ROOT, "configs", "candidates.json")
VERDICTS = os.path.join(ROOT, "configs", "candidate_verdicts.json")
ORACLE_GOLDEN = os.path.join(ROOT, "tests", "data", "candidate_oracle_golden.json")


def make_battery():
    spec = importlib.util.spec_from_file_location(
        "make_battery", os.path.join(ROOT, "scripts", "make_battery.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def candidate_doc() -> dict:
    """The generator's candidates at its defaults, as a config document."""
    mb = make_battery()
    return {"defaults": mb.DEFAULTS, "scenarios": mb.candidates()}


def family(sid: str) -> str:
    return sid.rsplit("-", 1)[0]


def not_consistent(verdicts: dict) -> str:
    """The non-consistent count and its per-family split, as one line."""
    bad = collections.Counter(family(k) for k, v in verdicts.items() if v != "consistent")
    return (f"not consistent: {sum(bad.values())} of {len(verdicts)}; "
            + ", ".join(f"{fam} {n}" for fam, n in sorted(bad.items())))


def third_stages(records) -> str:
    """Where p <= 1 <= q, the candidates reaching the oracle whose third stage
    is the ray pass and those whose third stage is the ascent, with their
    per-family split, as one line."""
    ran = {r["id"] for r in records if "oracle_lower" in r}
    paths = {"rays": collections.Counter(), "ascent": collections.Counter()}
    for sc in load_config(CANDIDATES):
        if sc.id in ran and sc.spec.exps.p <= 1.0 <= sc.spec.exps.q:
            engine = RayleighEngine(sc.spec, make_log_grid(**sc.grid))
            paths["rays" if _rays_are_exact(engine) else "ascent"][family(sc.id)] += 1
    return "third stage where p <= 1 <= q: " + "; ".join(
        f"{path} {sum(c.values())} (" + ", ".join(f"{fam} {n}" for fam, n in sorted(c.items())) + ")"
        for path, c in paths.items())


def oracle_outcomes(records):
    """The oracle's part of each record that has one (an inapplicable
    criterion skips the oracle), keyed by scenario."""
    return {r["id"]: {k: r[k] for k in ("oracle_lower", "oracle_trace", "divergence_flag")}
            for r in records if "oracle_lower" in r}


def sweep():
    """Records of every committed candidate, two processes."""
    records, _ = run_batch(load_config(CANDIDATES), jobs=2)
    return records


def test_candidates_file_is_the_generator_output():
    with open(CANDIDATES) as fh:
        assert json.load(fh) == json.loads(json.dumps(candidate_doc()))


def test_verdicts_match_the_committed_file():
    with open(VERDICTS) as fh:
        want = json.load(fh)
    with open(ORACLE_GOLDEN) as fh:
        want_outcomes = json.load(fh)
    records = sweep()
    got = {r["id"]: r["verdict"] for r in records}
    print("\n" + not_consistent(got) + "\n" + third_stages(records))
    assert sorted(got) == sorted(want)
    moved = {k: (want[k], got[k]) for k in want if got[k] != want[k]}
    assert not moved, f"verdicts moved (expected, got): {moved}"
    # the golden file holds JSON round-trips of ``oracle_outcomes``, exactly
    outcomes = json.loads(json.dumps(oracle_outcomes(records)))
    assert sorted(outcomes) == sorted(want_outcomes)
    moved = [k for k in want_outcomes if outcomes[k] != want_outcomes[k]]
    assert not moved, f"oracle outcomes moved: {moved}"


def _write_lines(path: str, head: str, items, tail: str) -> None:
    with open(path, "w") as fh:
        fh.write(head + ",\n".join(items) + tail)


if __name__ == "__main__":
    import hashlib

    with open(VERDICTS) as fh:
        old = json.load(fh)
    doc = candidate_doc()
    _write_lines(CANDIDATES, '{"defaults": ' + json.dumps(doc["defaults"], sort_keys=True)
                 + ',\n"scenarios": [\n',
                 (json.dumps(sc, sort_keys=True) for sc in doc["scenarios"]), "\n]}\n")
    records = sweep()
    got = {r["id"]: r["verdict"] for r in records}
    # the verdicts that moved, and the split, before the old file is overwritten
    for sid in dict.fromkeys([*old, *got]):
        if old.get(sid) != got.get(sid):
            print(f"{sid}: {old.get(sid)} -> {got.get(sid)}")
    print(not_consistent(got))
    print(third_stages(records))
    _write_lines(VERDICTS, "{\n",
                 (f"{json.dumps(r['id'])}: {json.dumps(r['verdict'])}" for r in records), "\n}\n")
    _write_lines(ORACLE_GOLDEN, "{\n",
                 (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in oracle_outcomes(records).items()),
                 "\n}\n")
    digest = hashlib.sha256(emit_report(records, "json").encode()).hexdigest()
    print(f"report sha256 {digest}")
