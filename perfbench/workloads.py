"""Seeded workload configs for the benchmark.

The candidate space and its weight/exponent menus are copied from the
battery generator on purpose: regenerating the committed battery must never
change a benchmark workload.  Every config is written as canonical JSON, so
one seed gives byte-identical files; no draw looks at an outcome.
"""

from __future__ import annotations

import itertools
import json
import math
import random

WORKLOADS = ("battery", "cli-default", "weight-forms", "criteria-sweep")
BATTERY_PATH = "configs/battery.json"
FORMS = ("genpower", "piecewise", "table")

BATTERY_GRID = {"eps": 1e-5, "M": 1e5, "n": 96}
BATTERY_BUDGET = {"n_char": 128, "n_random": 40, "n_ascent": 10}
CLI_GRID = {"eps": 1e-6, "M": 1e6, "n": 512}
CLI_BUDGET = {"n_char": 512, "n_random": 200, "n_ascent": 50}


def POWER(c, a):
    return {"form": "power", "c": c, "alpha": a}


def POWEREXP(c, a, lam):
    return {"form": "powerexp", "c": c, "alpha": a, "lambda": lam}


V_HEAD = [POWER(1, 0), POWER(1, 1), POWER(2, 0.5), POWEREXP(1, 0, 1)]
V_TAIL = [POWEREXP(1, 0, 1), POWEREXP(1, 1, 0.5), POWEREXP(2, 0, 2)]
W_DECAY = [POWEREXP(1, 0, 1), POWEREXP(1, 1, 1), POWEREXP(1, 0.5, 0.5)]
U_MENU = [POWER(1, 0), POWER(1, 0.5), POWER(1, 1), POWER(1, 2), POWEREXP(1, 1, 1)]
B_MENU = [POWER(1, 0), POWER(2, 1)]
PQ_ALL = [(1.0, 1.0), (1.0, 2.0), (2.0, 2.0), (2.0, 3.0), (2.0, 1.0), (3.0, 1.5)]
PQ_SUB1 = [(0.5, 0.5), (0.5, 1.0), (0.5, 0.25)]

# Cases whose best constant is exactly 1; a lower-bound oracle must never
# report more.  S_t on non-increasing f with v = 1, w = e^{-t}; T_ub with
# u = t, b = 1 and the same weights; and S with u = 1 (the identity) on
# non-decreasing f with v = w = e^{-t} (candidate sup-145).
KNOWN_ANSWERS = [
    {"id": "sdown-known", "operator": {"base": "S", "u": POWER(1, 1)},
     "cone": "non_increasing", "v": POWER(1, 0), "w": POWEREXP(1, 0, 1), "p": 1.0, "q": 1.0},
    {"id": "tub-known", "operator": {"base": "T_ub", "u": POWER(1, 1), "b": POWER(1, 0)},
     "cone": "non_increasing", "v": POWER(1, 0), "w": POWEREXP(1, 0, 1), "p": 1.0, "q": 1.0},
    {"id": "sup-known", "operator": {"base": "S", "u": POWER(1, 0)},
     "cone": "non_decreasing", "v": POWEREXP(1, 0, 1), "w": POWEREXP(1, 0, 1), "p": 1.0, "q": 1.0},
]
KNOWN_IDS = frozenset(s["id"] for s in KNOWN_ANSWERS)


def candidates():
    """The full candidate space: 686 scenarios across 13 operator families."""
    sid = itertools.count()

    def mk(tag, operator, cone, v, w, p, q):
        return {"id": f"{tag}-{next(sid):03d}", "operator": operator, "cone": cone,
                "v": v, "w": w, "p": p, "q": q}

    out = []
    for u, v, w, (p, q) in itertools.product(U_MENU[:4], V_HEAD[:3], W_DECAY[:2], PQ_ALL):
        out.append(mk("sdown", {"base": "S", "u": u}, "non_increasing", v, w, p, q))
    for u, v, w, (p, q) in itertools.product(U_MENU[:3], V_TAIL[:2], W_DECAY[:2], PQ_ALL[:4]):
        out.append(mk("sstarup", {"base": "S*", "u": u}, "non_decreasing", v, w, p, q))
        out.append(mk("sup", {"base": "S", "u": u}, "non_decreasing", v, w, p, q))
    for u, v, w, (p, q) in itertools.product(U_MENU[:3], V_HEAD[:2], W_DECAY[:2], PQ_ALL[:4]):
        out.append(mk("sstardown", {"base": "S*", "u": u}, "non_increasing", v, w, p, q))
    for u, v, w, (p, q) in itertools.product(U_MENU[:3], V_HEAD[:2], W_DECAY[:2], PQ_ALL):
        out.append(mk("isi4", {"base": "S*", "compose": "H", "u": u}, "none", v, w, p, q))
    for u, v, w, (p, q) in itertools.product(U_MENU[:3], V_TAIL[:2], W_DECAY[:2], PQ_ALL[:4]):
        out.append(mk("isi2", {"base": "S", "compose": "H*", "u": u}, "none", v, w, p, q))
    for u, w, (p, q) in itertools.product(U_MENU[:3], W_DECAY[:2], [(2.0, 2.0), (2.0, 1.0), (3.0, 1.5)]):
        out.append(mk("isi1", {"base": "S", "compose": "H", "u": u}, "none", POWER(1, 0.5), w, p, q))
        out.append(mk("isi3", {"base": "S*", "compose": "H*", "u": u}, "none", POWER(1, 2), w, p, q))
    for u, w in itertools.product(U_MENU[:3], W_DECAY[:2]):
        out.append(mk("isi1v", {"base": "S", "compose": "H", "u": u}, "none", POWER(1, -0.5), w, 1.0, 1.0))
        out.append(mk("isi3v", {"base": "S*", "compose": "H*", "u": u}, "none", POWER(1, 0.5), w, 1.0, 1.0))
    for u, b, v, w, (p, q) in itertools.product(U_MENU[:4], B_MENU, V_HEAD[:2], W_DECAY[:2], PQ_ALL):
        out.append(mk("tub", {"base": "T_ub", "u": u, "b": b}, "non_increasing", v, w, p, q))
    for u, b, w, (p, q) in itertools.product(U_MENU[:3], B_MENU, W_DECAY[:2], PQ_SUB1):
        out.append(mk("tubsub1", {"base": "T_ub", "u": u, "b": b}, "non_increasing", POWER(1, 0), w, p, q))
    for g in (0.25, 1.0):
        out.append(mk("tgamma", {"base": "T_gamma", "gamma_over_n": g}, "non_increasing",
                      POWER(1, 0), POWEREXP(1, 0, 1), 1.0, 1.0))
    return out


def family(scenario_id: str) -> str:
    return scenario_id.split("-", 1)[0]


def families() -> list:
    return sorted({family(c["id"]) for c in candidates()})


def _by_family(cands):
    groups = {}
    for c in cands:
        groups.setdefault(family(c["id"]), []).append(c)
    return groups


# -- rewriting c t^alpha e^{-lambda t} into the other literal forms ---------------


def _value(lit, t):
    lam = lit.get("lambda", 0.0)
    return lit["c"] * t ** lit["alpha"] * math.exp(-lam * t)


def to_piecewise(lit, knots):
    """Power laws through the weight's values at ``knots``; exact near 0, and
    the tail keeps the log-slope the weight has at the last knot."""
    alpha = float(lit["alpha"])
    ys = [_value(lit, k) for k in knots]
    segs = [{"c": ys[0] / knots[0] ** alpha, "alpha": alpha}]
    for (a, ya), (b, yb) in zip(zip(knots, ys), zip(knots[1:], ys[1:])):
        beta = math.log(yb / ya) / math.log(b / a)
        segs.append({"c": ya / a ** beta, "alpha": beta})
    beta = alpha - lit.get("lambda", 0.0) * knots[-1]
    segs.append({"c": ys[-1] / knots[-1] ** beta, "alpha": beta})
    return {"form": "piecewise", "knots": list(knots), "segments": segs}


def to_table(lit, lo_dec, hi_dec, per_decade):
    ts = [10.0 ** (k / per_decade) for k in range(lo_dec * per_decade, hi_dec * per_decade + 1)]
    return {"form": "table", "t": ts, "y": [_value(lit, t) for t in ts]}


def rewrite(lit, form, rng):
    """``lit`` in ``form``, with the form's free parameters drawn from ``rng``."""
    if form == "powerexp":
        return lit
    if form == "genpower":
        return {"lambda": 0.0, **lit, "form": "genpower", "mu": rng.choice([0.05, 0.1, 0.2, 0.5])}
    if form == "piecewise":
        return to_piecewise(lit, rng.choice([(0.1, 1.0, 10.0), (0.2, 2.0, 8.0), (0.05, 0.5, 5.0)]))
    if form == "table":
        return to_table(lit, rng.choice([-4, -3]), rng.choice([3, 4]), rng.choice([3, 4]))
    raise ValueError(f"unknown weight form {form!r}")


# -- the four workloads ---------------------------------------------------------
#
# The scenario panels, and the free parameters of every rewritten weight, are
# drawn once with PANEL_SEED.  The workload seed sets the oracle seed (its
# random samples and ascent order) and the order of the scenarios.  Panels
# and parameters drawn per seed were measured to be unsteady: within one
# family a scenario costs 0.1 s or 11 s at the CLI defaults, so the wall time
# of a one-per-family panel spread by a third of its median from seed to
# seed, and per-seed weight parameters spread weight-forms by a quarter.
PANEL_SEED = 0


def _panel(per_family: int) -> list:
    rng = random.Random(PANEL_SEED)
    groups = _by_family(candidates())
    out = []
    for fam in sorted(groups):
        pool = groups[fam]
        if len(pool) >= per_family:
            out.append(rng.sample(pool, per_family))
        else:
            out.append([rng.choice(pool) for _ in range(per_family)])
    return out


def _config(grid, budget, seed, scenarios) -> dict:
    scenarios = list(scenarios)
    random.Random(seed).shuffle(scenarios)
    return {"defaults": {"grid": grid, "budget": budget, "band": 64.0, "seed": seed},
            "scenarios": scenarios}


def cli_default(seed: int) -> dict:
    """One candidate per family from the unfiltered space, at the CLI defaults."""
    return _config(CLI_GRID, CLI_BUDGET, seed, [picks[0] for picks in _panel(1)])


def weight_forms(seed: int) -> dict:
    """Per family, one candidate per non-closed weight form, with v and w both
    rewritten into that form, at the battery grid and budget."""
    rng = random.Random(PANEL_SEED)
    out = []
    for picks in _panel(len(FORMS)):
        for form, cand in zip(FORMS, picks):
            out.append(dict(cand, id=f"{cand['id']}-{form}", v=rewrite(cand["v"], form, rng),
                            w=rewrite(cand["w"], form, rng)))
    return _config(BATTERY_GRID, BATTERY_BUDGET, seed, out)


def criteria_sweep(seed: int) -> dict:
    """Every candidate crossed with the four w forms."""
    rng = random.Random(PANEL_SEED)
    out = [dict(cand, id=f"{cand['id']}-{form}", w=rewrite(cand["w"], form, rng))
           for cand in candidates() for form in ("powerexp",) + FORMS]
    return _config(BATTERY_GRID, BATTERY_BUDGET, seed, out)


def known_answers(seed: int) -> dict:
    """The known-answer cases at the battery grid and budget."""
    return _config(BATTERY_GRID, BATTERY_BUDGET, seed, KNOWN_ANSWERS)


GENERATORS = {"cli-default": cli_default, "weight-forms": weight_forms, "criteria-sweep": criteria_sweep}


def config_text(doc: dict) -> str:
    """Canonical JSON text of a generated config."""
    return json.dumps(doc, sort_keys=True) + "\n"
