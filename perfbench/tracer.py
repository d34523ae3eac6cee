"""In-memory span tracer that wraps supineq's public functions from outside.

Nothing under ``src/`` is edited: :meth:`Tracer.installed` rebinds the
traced functions and methods in the loaded ``supineq`` modules (and scipy's
``quad``, which ``weights`` looks up at call time) and restores them on exit.

Each call becomes a span ``(id, parent, root, name, start, end)``; spans of
one scenario share the root id.  Aggregates per name are kept for every
call: calls, inclusive seconds (outermost call only, so recursion such as a
piecewise weight asking its segments is not counted twice) and self seconds
(duration minus the time covered by child spans).

The oracle stages have no function of their own, so they are inferred from
the order of public calls inside ``best_constant_lower``: ratio calls after
the engine is built are the indicator scan (``oracle.char``), the first call
of ``sample_monotone``/``sample_nonneg`` opens the random stage
(``oracle.random``, one ratio per sample), and the first ratio call not
preceded by a sample opens the coordinate ascent (``oracle.ascent``).
"""

from __future__ import annotations

import math
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

STAGES = ("oracle.char", "oracle.random", "oracle.ascent")
ASCENT_GAIN = 1e-12  # the oracle's own acceptance margin for an ascent step
MAX_SPANS = 1 << 19  # spans kept in memory; aggregates cover every call


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ix: dict = {}
        self.stats: dict = {}  # name -> [calls, inclusive_s, self_s]
        self._depth: dict = {}
        self._stack: list = []  # [name, span_id, start, child_s]
        self._next_id = 0
        self._root = -1
        self.dropped = 0
        self.spans = {k: array(t) for k, t in
                      (("id", "q"), ("parent", "q"), ("root", "q"), ("name", "i"),
                       ("start", "d"), ("end", "d"))}
        # oracle stage inference and per-call bookkeeping
        self.family = None
        self.ratio_by_family: dict = {}  # family -> [calls, seconds]
        self.stage_calls = dict.fromkeys(STAGES, 0)
        self.ratio_calls = 0
        self.ratio_nonfinite = 0
        self.ascent_useful = 0
        self.form_s: dict = {}  # weight form -> region_measures seconds
        self._stage = None
        self._pending_sample = False
        self._best = 0.0

    # -- spans ---------------------------------------------------------------
    def enter(self, name: str) -> None:
        sid = self._next_id
        self._next_id = sid + 1
        if not self._stack:
            self._root = sid
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, sid, perf_counter(), 0.0])

    def exit(self) -> float:
        end = perf_counter()
        name, sid, start, child = self._stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[2] += dur - child
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            st[1] += dur
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[3] += dur
            parent = top[1]
        if len(self.spans["id"]) < MAX_SPANS:
            ix = self._name_ix.get(name)
            if ix is None:
                ix = self._name_ix[name] = len(self.names)
                self.names.append(name)
            sp = self.spans
            sp["id"].append(sid)
            sp["parent"].append(parent)
            sp["root"].append(self._root)
            sp["name"].append(ix)
            sp["start"].append(start)
            sp["end"].append(end)
        else:
            self.dropped += 1
        return dur

    def _switch_stage(self, stage: str) -> None:
        if self._stage is not None:
            self.exit()
        self._stage = stage
        self.enter(stage)

    # -- wrappers --------------------------------------------------------------
    def _plain(self, fn, name):
        tr = self

        def wrapper(*args, **kw):
            tr.enter(name)
            try:
                return fn(*args, **kw)
            finally:
                tr.exit()

        return wrapper

    def _best_constant_lower(self, fn, name):
        tr = self

        def wrapper(*args, **kw):
            tr.enter(name)
            tr._stage, tr._pending_sample, tr._best = None, False, 0.0
            try:
                return fn(*args, **kw)
            finally:
                if tr._stage is not None:
                    tr.exit()
                tr._stage = None
                tr.exit()

        return wrapper

    def _engine_init(self, fn, name):
        tr = self

        def wrapper(*args, **kw):
            tr.enter(name)
            try:
                return fn(*args, **kw)
            finally:
                tr.exit()
                if tr._stage is None and tr._stack and tr._stack[-1][0] == "oracle.best_constant_lower":
                    tr._switch_stage("oracle.char")

        return wrapper

    def _sample(self, fn, name):
        tr = self

        def wrapper(*args, **kw):
            if tr._stage is not None:
                if tr._stage != "oracle.random":
                    tr._switch_stage("oracle.random")
                tr._pending_sample = True
            tr.enter(name)
            try:
                return fn(*args, **kw)
            finally:
                tr.exit()

        return wrapper

    def _ratio(self, fn, name):
        tr = self

        def wrapper(*args, **kw):
            stage = tr._stage
            if stage == "oracle.random" and not tr._pending_sample:
                tr._switch_stage("oracle.ascent")
                stage = "oracle.ascent"
            tr._pending_sample = False
            tr.enter(name)
            try:
                r = fn(*args, **kw)
            finally:
                dur = tr.exit()
            tr.ratio_calls += 1
            fam = tr.ratio_by_family.get(tr.family)
            if fam is None:
                fam = tr.ratio_by_family[tr.family] = [0, 0.0]
            fam[0] += 1
            fam[1] += dur
            finite = math.isfinite(r)
            if not finite:
                tr.ratio_nonfinite += 1
            if stage is not None:
                tr.stage_calls[stage] += 1
                if stage != "oracle.ascent":
                    if finite and r > tr._best:
                        tr._best = r
                elif finite and r > tr._best * (1.0 + ASCENT_GAIN):
                    tr.ascent_useful += 1
                    tr._best = r
            return r

        return wrapper

    def _region_measures(self, fn, name):
        tr = self

        def wrapper(grid, w, *args, **kw):
            tr.enter(name)
            try:
                return fn(grid, w, *args, **kw)
            finally:
                form = weight_form(w)
                tr.form_s[form] = tr.form_s.get(form, 0.0) + tr.exit()

        return wrapper

    # -- installation ----------------------------------------------------------
    @contextmanager
    def installed(self):
        """Rebind the traced callables for the duration of the block."""
        import scipy.integrate

        from supineq import cli, criteria, extreal, gridfn, oracle, weights

        functions = [
            (cli.load_config, "cli.load_config", self._plain),
            (cli.run_scenario, "cli.run_scenario", self._plain),
            (cli.emit_report, "cli.emit_report", self._plain),
            (criteria.evaluate_criterion, "criteria.evaluate_criterion", self._plain),
            (oracle.best_constant_lower, "oracle.best_constant_lower", self._best_constant_lower),
            (gridfn.region_measures, "gridfn.region_measures", self._region_measures),
            (gridfn.sample_monotone, "gridfn.sample", self._sample),
            (gridfn.sample_nonneg, "gridfn.sample", self._sample),
            (extreal.amul, "extreal.amul", self._plain),
            (extreal.apow, "extreal.apow", self._plain),
        ]
        methods = [
            (criteria.CritCtx, "int_set", "criteria.CritCtx.int_set", self._plain),
            (criteria.CritCtx, "env_weight", "criteria.CritCtx.env_weight", self._plain),
            (oracle.RayleighEngine, "__init__", "oracle.RayleighEngine.init", self._engine_init),
            (oracle.RayleighEngine, "ratio", "oracle.ratio", self._ratio),
        ]
        for cls in vars(weights).values():
            if isinstance(cls, type) and issubclass(cls, weights.Weight) and "sup_on_interval" in vars(cls):
                methods.append((cls, "sup_on_interval", "weights.sup_on_interval", self._plain))

        undo = []
        modules = [m for k, m in list(sys.modules.items()) if k == "supineq" or k.startswith("supineq.")]
        for fn, name, make in functions:
            wrapped = make(fn, name)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        undo.append((mod, attr, val))
                        setattr(mod, attr, wrapped)
        for cls, attr, name, make in methods:
            fn = vars(cls)[attr]
            undo.append((cls, attr, fn))
            setattr(cls, attr, make(fn, name))
        quad = scipy.integrate.quad
        undo.append((scipy.integrate, "quad", quad))
        scipy.integrate.quad = self._plain(quad, "weights.quad")
        try:
            yield self
        finally:
            for owner, attr, val in reversed(undo):
                setattr(owner, attr, val)

    # -- output ----------------------------------------------------------------
    def write_spans(self, path: str) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names), dropped=np.array(self.dropped),
                 **{k: np.frombuffer(v, dtype=v.typecode) for k, v in self.spans.items()})


def weight_form(w) -> str:
    """The literal form a weight object was parsed from (``func`` if derived)."""
    kind = type(w).__name__
    if kind == "PowerWeight":
        if w.mu != 0.0:
            return "genpower"
        return "powerexp" if w.lam != 0.0 else "power"
    return {"PiecewisePowerWeight": "piecewise", "TabulatedWeight": "table"}.get(kind, "func")
