"""Output checks on report records, and the per-workload failure rule."""

from __future__ import annotations

import hashlib
import math

# run_scenario's verdicts, and those of a bare evaluate_criterion call; "error"
# marks a scenario that raised.
VERDICTS = frozenset({"consistent", "ratio_out_of_band", "inconsistent_finiteness",
                      "inapplicable", "evaluated", "nan_term", "error"})
KNOWN_ANSWER = 1.0
KNOWN_TOL = 1e-9


def number(x) -> float:
    """A report number; reports spell infinity as the string ``"inf"``."""
    return math.inf if x == "inf" else float(x)


def _nan_paths(x, path="record"):
    if isinstance(x, float) and math.isnan(x):
        yield path
    elif isinstance(x, dict):
        for k, v in x.items():
            yield from _nan_paths(v, f"{path}.{k}")
    elif isinstance(x, (list, tuple)):
        for i, v in enumerate(x):
            yield from _nan_paths(v, f"{path}[{i}]")


def check_record(rec: dict, known_ids=frozenset()) -> list:
    """Violations in one record: an unknown verdict, any NaN, a
    decreasing oracle trace, a negative bound, or a known answer (best
    constant exactly 1) over-reported by the lower-bound oracle."""
    rid = rec.get("id", "?")
    out = [f"{rid}: NaN at {p}" for p in _nan_paths(rec)]
    if rec.get("verdict") not in VERDICTS:
        out.append(f"{rid}: verdict {rec.get('verdict')!r} not allowed")
    if "oracle_lower" in rec:
        lb = number(rec["oracle_lower"])
        trace = [number(x) for x in rec.get("oracle_trace", [])]
        if not lb >= 0.0:
            out.append(f"{rid}: oracle bound {lb!r} < 0")
        if any(not b >= a for a, b in zip(trace, trace[1:])):
            out.append(f"{rid}: oracle trace decreases: {trace}")
        if rid in known_ids and not lb <= KNOWN_ANSWER * (1.0 + KNOWN_TOL):
            out.append(f"{rid}: known answer 1 over-reported as {lb!r}")
    return out


def check_records(records: list, known_ids=frozenset()) -> list:
    return [v for rec in records for v in check_record(rec, known_ids)]


def is_failure(rec: dict) -> bool:
    """No usable answer: an oracle verdict other than ``consistent``, a
    criterion that was inapplicable or had a NaN term, or an exception."""
    return rec.get("verdict") not in ("consistent", "evaluated")


def digest(report_text: str) -> str:
    return hashlib.sha256(report_text.encode()).hexdigest()
