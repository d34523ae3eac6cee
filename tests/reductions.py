"""The paper's reductions between cones (R2.1-R2.6) and the level transform,
a reference the tests check the criteria and the oracle against.

A restricted (monotone-cone) problem is rewritten as an iterated Hardy or
Copson problem on all nonnegative functions, or back.  No path of the
package reads these: the acceptance, criteria, memo and weight tests import
them from here (pytest puts this directory on ``sys.path``; the file name
has no ``test_`` prefix, so it is not collected)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from supineq.criteria import CritCtx, InequalitySpec, _norm_q, _quiet
from supineq.extreal import INF, xdiv, xpow
from supineq.operators import OperatorKind, b_cumulative
from supineq.weights import Exponents, PowerWeight, Weight, conjugate, cumulative, weight_mul


def phi_weights(v: Weight, p: float, side: str):
    """Level transform on one side: (phi, Phi) with
    phi(x) = A(x)^{-p'/(p'+1)} v(x)^{1-p'},  Phi(x) = A(x)^{1/(p'+1)},
    where A = ``cumulative(v^{1-p'}, side)``.  Requires A(x) in (0, oo) for
    all x."""
    if p <= 1.0:
        raise ValueError("level transform requires p > 1")
    pp = conjugate(p)
    vp = v.power(1.0 - pp)
    probe = vp.cum_low(1.0) if side == "low" else vp.cum_up(1.0)
    if probe == INF or probe == 0.0:
        raise ValueError("level transform undefined: {} v^{{1-p'}} not in (0, oo)".format(
            "int_0^x" if side == "low" else "int_x^oo"))
    A = cumulative(vp, side)
    return weight_mul(A.power(-pp / (pp + 1.0)), vp), A.power(1.0 / (pp + 1.0))


@dataclass(frozen=True)
class ReducedSpec:
    """Result of a cone reduction: the new spec and an optional side constant.

    When the reduction attaches a constant-function side condition, the best
    constants satisfy c(original) ~ max(c(reduced), side_constant)."""

    spec: InequalitySpec
    rule: str
    side_constant: Optional[float] = None


def _v_transform(v: Weight, cum: Weight, a: float, p: float) -> Weight:
    """cum**(a*p) * v**(1-p)."""
    return weight_mul(cum.power(a * p), v.power(1.0 - p))


def reduce_spec(spec: InequalitySpec, ctx: Optional[CritCtx] = None) -> ReducedSpec:
    """Rewrite a monotone-cone spec over the full nonnegative cone (or back)."""
    ctx = ctx or CritCtx()
    k, cone, v, w, e = spec.kind, spec.cone, spec.v, spec.w, spec.exps
    p = e.p
    if k.base in ("S", "S*") and k.compose is None and cone == "non_increasing":
        # R2.1: f(t) = int_t^oo h  =>  compose with the Copson transform
        Vw = b_cumulative(v)
        new_v = _v_transform(v, Vw, 1.0, p)
        new = InequalitySpec(OperatorKind(k.base, "H*", k.u), "none", new_v, w, e)
        side = _side_constant(ctx, k, v, w, e)
        return ReducedSpec(new, "R2.1", side)
    if k.base in ("S", "S*") and k.compose is None and cone == "non_decreasing":
        # R2.3: f(t) = int_0^t h  =>  compose with the Hardy transform
        Vs = cumulative(v, "up")
        new_v = _v_transform(v, Vs, 1.0, p)
        new = InequalitySpec(OperatorKind(k.base, "H", k.u), "none", new_v, w, e)
        return ReducedSpec(new, "R2.3", None)
    if k.base in ("S", "S*") and k.compose == "H" and cone == "none":
        if p > 1.0:
            # R2.5: level-transform back to a non-increasing restricted problem
            phi, Phi = phi_weights(v, p, "low")
            u_new = weight_mul(k.u, Phi.power(2.0))
            new = InequalitySpec(OperatorKind(k.base, None, u_new), "non_increasing", phi, w, e)
            return ReducedSpec(new, "R2.5", None)
        if p == 1.0:
            # R2.6: v is the reciprocal cumulative; only power-form v supported
            if not (isinstance(v, PowerWeight) and v.lam == 0.0 and v.mu == 0.0 and v.alpha < 0.0):
                raise ValueError("R2.6 supports only v = Power{c, alpha} with alpha < 0")
            V = PowerWeight(1.0 / v.c, -v.alpha)
            u_new = weight_mul(k.u, V.power(2.0))
            v_new = PowerWeight(-v.alpha / v.c, -v.alpha - 1.0)
            new = InequalitySpec(OperatorKind(k.base, None, u_new), "non_increasing", v_new, w, e)
            return ReducedSpec(new, "R2.6", None)
    raise ValueError(f"no reduction for {k.describe()} on cone {cone} with p={p}")


def reduce_spec_inner(spec: InequalitySpec) -> ReducedSpec:
    """R2.2 / R2.4: move the cumulative into the supremal weight instead."""
    k, cone, v, w, e = spec.kind, spec.cone, spec.v, spec.w, spec.exps
    p = e.p
    if k.base in ("S", "S*") and k.compose is None and cone == "non_increasing":
        Vw = b_cumulative(v)
        u_new = weight_mul(k.u, Vw.power(-2.0))
        new_v = _v_transform(v, Vw, -1.0, p)
        new = InequalitySpec(OperatorKind(k.base, "H", u_new), "none", new_v, w, e)
        return ReducedSpec(new, "R2.2", None)
    if k.base in ("S", "S*") and k.compose is None and cone == "non_decreasing":
        Vs = cumulative(v, "up")
        u_new = weight_mul(k.u, Vs.power(-2.0))
        new_v = _v_transform(v, Vs, -1.0, p)
        new = InequalitySpec(OperatorKind(k.base, "H*", u_new), "none", new_v, w, e)
        return ReducedSpec(new, "R2.4", None)
    raise ValueError(f"no inner reduction for {k.describe()} on cone {cone}")


@_quiet
def _side_constant(ctx: CritCtx, k: OperatorKind, v: Weight, w: Weight,
                   e: Exponents) -> Optional[float]:
    """||T 1||_{q,w} / ||1||_{p,v} when 0 < int_0^oo v < oo, else None."""
    vtot = ctx.int_w(v).total
    if not (0.0 < vtot < INF):
        return None
    env_side = "low" if k.base == "S" else "up"
    num = _norm_q(ctx, ctx.env_weight(k.u, env_side), w, e.q)
    return xdiv(num, xpow(vtot, 1.0 / e.p))
