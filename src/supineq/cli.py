"""Batch runner: evaluate criterion/oracle consistency for configured scenarios.

Config file (JSON): one document with an optional ``defaults`` block and a
``scenarios`` array.  Every scenario describes one weighted inequality::

    {
      "defaults": {"band": 64, "seed": 1234,
                   "grid": {"eps": 1e-6, "M": 1e6, "n": 512},
                   "budget": {"n_char": 512, "n_random": 200, "n_ascent": 50}},
      "scenarios": [
        {"id": "example",
         "operator": {"base": "S", "compose": null,
                      "u": {"form": "power", "c": 1, "alpha": 1}},
         "cone": "non_increasing",
         "v": {"form": "power", "c": 1, "alpha": 0},
         "w": {"form": "powerexp", "c": 1, "alpha": 0, "lambda": 1},
         "p": 1, "q": 1}
      ]
    }

Exit codes: 0 - every scenario consistent; 1 - at least one scenario
inconsistent (or inapplicable); 2 - malformed configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from typing import List, Optional

from .criteria import (
    CritCtx,
    InequalitySpec,
    TheoremInapplicable,
    _criterion_of,
    evaluate_criterion,
)
from .extreal import INF
from .gridfn import DEFAULT_GRID, make_log_grid
from .operators import OperatorKind
from .oracle import OracleBudget, best_constant_lower, equivalence_report
from .weights import Exponents, _real, parse_weight

__all__ = ["ScenarioConfig", "load_config", "run_batch", "emit_report", "main"]


class ConfigError(Exception):
    """Malformed configuration; message carries the scenario anchor."""


@dataclass(frozen=True)
class ScenarioConfig:
    id: str
    spec: InequalitySpec
    grid: dict
    budget: OracleBudget
    band: float
    seed: int
    verbatim_paper: bool


_DEFAULTS = {
    "grid": dict(DEFAULT_GRID),
    "budget": asdict(OracleBudget()),
    "band": 64.0,
    "seed": 1234,
    "verbatim_paper": False,
}


def _build_kind(obj: dict, anchor: str, weight) -> OperatorKind:
    """The operator of a scenario; ``weight`` turns a weight literal (or a
    Weight) into the Weight to use."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{anchor}: operator must be an object, got {obj!r}")
    base = obj.get("base")
    if base == "T_gamma":
        if "gamma_over_n" not in obj:
            raise ConfigError(f"{anchor}: T_gamma needs 'gamma_over_n'")
        kind = OperatorKind.t_gamma(_real(obj["gamma_over_n"], "gamma_over_n"))
        return replace(kind, u=weight(kind.u), b=weight(kind.b))
    one = {"form": "power", "c": 1, "alpha": 0}
    u = weight(obj.get("u", one))
    b = weight(obj.get("b", one))
    try:
        return OperatorKind(base, obj.get("compose"), u, b)
    except ValueError as exc:
        raise ConfigError(f"{anchor}: {exc}") from None


def _integer(x, name: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return x


def _layer(base: dict, top: dict, skip_none: bool = False) -> dict:
    """The settings of ``top`` over those of ``base``; ``grid`` and ``budget``
    merge entry by entry.  ``skip_none`` passes over unset (None) entries, as
    the CLI flags leave them."""
    out = dict(base)
    for k, v in top.items():
        if k not in base or (skip_none and v is None):
            continue
        if k in ("grid", "budget"):
            if not isinstance(v, dict):
                raise TypeError(f"{k} must be an object, got {v!r}")
            v = {**base[k], **{kk: vv for kk, vv in v.items() if not (skip_none and vv is None)}}
        out[k] = v
    return out


def load_config(path: str, overrides: Optional[dict] = None) -> List[ScenarioConfig]:
    """The scenarios of a config file.  Each setting is layered: built-in
    defaults, then the file's ``defaults``, then the scenario's own entry,
    then ``overrides`` (the CLI flags; None entries are unset)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None
    # a ValueError here is a file that is not UTF-8 or an integer past int()'s digit limit
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("scenarios"), list):
        raise ConfigError(f"{path}: config must be an object with a 'scenarios' array")
    try:
        defaults = _layer(_DEFAULTS, doc.get("defaults", {}))
    except (AttributeError, TypeError) as exc:
        raise ConfigError(f"{path}: defaults: {exc}") from None
    out: List[ScenarioConfig] = []
    seen = set()
    weights: dict = {}  # every parsed weight, keyed by value: equal ones are one object

    def weight(lit):
        w = parse_weight(lit)
        return weights.setdefault(w, w)

    for i, sc in enumerate(doc["scenarios"]):
        anchor = f"{path}: scenarios[{i}]"
        if not isinstance(sc, dict):
            raise ConfigError(f"{anchor}: scenario must be an object")
        sid = sc.get("id")
        if not sid or not isinstance(sid, str):
            raise ConfigError(f"{anchor}: missing string 'id'")
        if sid in seen:
            raise ConfigError(f"{anchor}: duplicate id {sid!r}")
        seen.add(sid)
        try:
            kind = _build_kind(sc.get("operator", {}), anchor, weight)
            v = weight(sc["v"])
            w = weight(sc["w"])
            exps = Exponents(_real(sc["p"], "p"), _real(sc["q"], "q"))
            if INF in (exps.p, exps.q):
                # the oracle's norms are sums of f^p and (T f)^q over regions
                raise ValueError("p and q must be finite")
            spec = InequalitySpec(kind, sc.get("cone", "non_increasing"), v, w, exps)
            _criterion_of(spec)  # ValueError for an operator without one on its cone
        except ConfigError:
            raise
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"{anchor} (id={sid!r}): {exc}") from None
        try:
            eff = _layer(_layer(defaults, sc), overrides or {}, skip_none=True)
            grid = dict(eff["grid"])
            for k, x in grid.items():
                (_integer if k == "n" else _real)(x, f"grid entry {k!r}")
            make_log_grid(**grid)
            budget = OracleBudget(**{k: _integer(x, f"budget entry {k!r}")
                                     for k, x in eff["budget"].items()})
            band = _real(eff["band"], "band")
            if not band > 1.0:
                raise ValueError(f"band must be above 1, got {band!r}")
            seed = _integer(eff["seed"], "seed")
            if seed < 0:
                # the oracle seeds numpy generators with seed plus offsets
                raise ValueError(f"seed must be nonnegative, got {seed}")
            verbatim = eff["verbatim_paper"]
            if not isinstance(verbatim, bool):
                raise ValueError(f"verbatim_paper must be true or false, got {verbatim!r}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{anchor} (id={sid!r}): {exc}") from None
        out.append(
            ScenarioConfig(
                id=sid,
                spec=spec,
                grid=grid,
                budget=budget,
                band=band,
                seed=seed,
                verbatim_paper=verbatim,
            )
        )
    if not out:
        raise ConfigError(f"{path}: empty 'scenarios' array")
    return out


def _jsonable(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return x
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def run_scenario(sc: ScenarioConfig, timing: bool = False) -> dict:
    """Evaluate one scenario: hypothesis check -> criterion -> oracle -> verdict."""
    t0 = time.monotonic()
    ctx = CritCtx()
    record = {"id": sc.id, "seed": sc.seed, "band": sc.band}
    try:
        crit = evaluate_criterion(sc.spec, ctx=ctx, verbatim=sc.verbatim_paper)
    except TheoremInapplicable as exc:
        record.update(
            verdict="inapplicable",
            failed_hypothesis=exc.predicate,
            hypothesis_report=_jsonable(exc.report),
        )
        if timing:
            record["runtime_ms"] = round(1000.0 * (time.monotonic() - t0), 3)
        return record
    grid = make_log_grid(**sc.grid)
    orc = best_constant_lower(sc.spec, sc.budget, sc.seed, grid)
    rep = equivalence_report(crit, orc, band=sc.band)
    record.update(
        theorem_id=crit.theorem_id,
        regime=crit.regime,
        terms=_jsonable(dict(sorted(crit.terms.items()))),
        criterion_total=_jsonable(crit.total),
        finite=crit.finite,
        flags=list(crit.flags),
        hypothesis_report=_jsonable(crit.hypothesis_report),
        oracle_lower=_jsonable(orc.lower_bound),
        oracle_trace=_jsonable(list(orc.trace)),
        divergence_flag=orc.divergence_flag,
        ratio=_jsonable(rep.ratio),
        verdict=rep.verdict,
    )
    if timing:
        record["runtime_ms"] = round(1000.0 * (time.monotonic() - t0), 3)
    return record


def run_batch(scenarios: List[ScenarioConfig], jobs: int = 1, timing: bool = False):
    """Run all scenarios; returns (records, exit_code).  At most one worker
    process per scenario and per CPU is started, whatever ``jobs`` asks for."""
    jobs = min(jobs, len(scenarios), os.cpu_count() or 1)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_one, [(sc, timing) for sc in scenarios]))
    else:
        records = [run_scenario(sc, timing) for sc in scenarios]
    ok = all(r.get("verdict") == "consistent" for r in records)
    return records, (0 if ok else 1)


def _run_one(args):
    sc, timing = args
    return run_scenario(sc, timing)


def _sort_key(rec: dict):
    bad = 0 if rec.get("verdict") != "consistent" else 1
    ratio = rec.get("ratio", 0.0)
    rnum = INF if ratio == "inf" else (ratio if isinstance(ratio, (int, float)) else 0.0)
    return (bad, -rnum if rnum < INF else -1e308, rec.get("id", ""))


def emit_report(records: List[dict], fmt: str = "json") -> str:
    """Render records; text output lists inconsistent scenarios first."""
    if fmt == "json":
        return json.dumps({"records": records}, sort_keys=True, indent=2) + "\n"
    if fmt != "text":
        raise ValueError("format must be 'json' or 'text'")
    rows = sorted(records, key=_sort_key)
    header = f"{'id':<28} {'theorem':<9} {'verdict':<24} {'criterion':>12} {'oracle':>12} {'ratio':>10}"
    lines = [header, "-" * len(header)]
    for r in rows:
        crit = r.get("criterion_total", "-")
        orc = r.get("oracle_lower", "-")
        ratio = r.get("ratio", "-")
        lines.append(
            f"{r.get('id',''):<28} {r.get('theorem_id','-'):<9} {r.get('verdict',''):<24} "
            f"{_fmtnum(crit):>12} {_fmtnum(orc):>12} {_fmtnum(ratio):>10}"
        )
    n_bad = sum(1 for r in records if r.get("verdict") != "consistent")
    lines.append(f"{len(records)} scenarios, {n_bad} not consistent")
    return "\n".join(lines) + "\n"


def _fmtnum(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, float)):
        if isinstance(x, float) and math.isinf(x):
            return "inf"
        return f"{x:.4g}"
    return str(x)


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="supineq",
        description="Certify weighted-inequality criteria against a brute-force "
        "best-constant oracle.",
    )
    ap.add_argument("--config", required=True, help="JSON config with a scenarios array")
    ap.add_argument("--out", default=None, help="output path (default: stdout)")
    ap.add_argument("--format", choices=("json", "text"), default="json")
    ap.add_argument("--seed", type=int, default=None, help="override the oracle seed")
    ap.add_argument("--band", type=float, default=None, help="override the equivalence band K")
    ap.add_argument("--grid-eps", type=float, default=None)
    ap.add_argument("--grid-max", type=float, default=None)
    ap.add_argument("--grid-n", type=int, default=None)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--verbatim-paper", action="store_true", default=None,
                    help="use the literal printed criterion variants")
    ap.add_argument("--timing", action="store_true",
                    help="include runtime_ms per scenario (breaks byte-determinism)")
    args = ap.parse_args(argv)
    overrides = {
        "seed": args.seed,
        "band": args.band,
        "verbatim_paper": args.verbatim_paper,
        "grid": {"eps": args.grid_eps, "M": args.grid_max, "n": args.grid_n},
    }
    try:
        scenarios = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    records, code = run_batch(scenarios, jobs=max(1, args.jobs), timing=args.timing)
    text = emit_report(records, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
