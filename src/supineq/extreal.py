"""Extended nonnegative reals [0, +inf] with total arithmetic.

The conventions

    0 * inf = 0,    inf / inf = 0,    0 / 0 = 0,
    x / 0   = inf (x > 0),            0 ** 0 = inf ** 0 = 1,

make every weight functional in this package evaluate to a definite value in
[0, inf]: no NaN ever escapes.  Scalar helpers (``xmul`` etc.) operate on
plain floats; array helpers (``amul`` etc.) on numpy arrays.  ``ExtNonneg``
is a thin wrapper exposing the same arithmetic as a value type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INF = math.inf

__all__ = [
    "INF",
    "ExtNonneg",
    "xmul",
    "xdiv",
    "xpow",
    "amul",
    "adiv",
    "apow",
]


def xmul(a: float, b: float) -> float:
    """Product with 0 * inf = 0."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return float(a) * float(b)


def xdiv(a: float, b: float) -> float:
    """Quotient with 0/0 = 0, inf/inf = 0, x/0 = inf for x > 0."""
    if a == 0.0:
        return 0.0
    if b == INF:
        return 0.0
    if b == 0.0:
        return INF
    return float(a) / float(b)


def xpow(a: float, e: float) -> float:
    """Power with 0**0 = inf**0 = 1 and sign-consistent infinities."""
    if e == 0.0:
        return 1.0
    if a == 0.0:
        return INF if e < 0 else 0.0
    if a == INF:
        return 0.0 if e < 0 else INF
    try:
        return a ** e
    except OverflowError:  # float ** raises where IEEE pow (and apow) gives +inf
        return INF


def amul(a, b):
    """Elementwise product on arrays with 0 * inf = 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        out = np.asarray(a * b)
    # on [0, inf] a NaN can only be 0 * inf; NaN inputs keep the full masks
    if np.isnan(out).any():
        out = np.where((a == 0.0) | (b == 0.0), 0.0, out)
    return out


def adiv(a, b):
    """Elementwise quotient with 0/0 = 0, inf/inf = 0, x/0 = inf."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        out = a / b
    out = np.where(a == 0.0, 0.0, out)
    out = np.where((a != 0.0) & (b == 0.0), INF, out)
    out = np.where(b == INF, np.where(a == INF, 0.0, out), out)
    out = np.where((b == INF) & (a != INF), 0.0, out)
    return out


def apow(a, e: float):
    """Elementwise power with 0**0 = inf**0 = 1."""
    a = np.asarray(a, dtype=float)
    if e == 0.0:
        return np.ones_like(a)
    # IEEE pow already gives 0**-e = inf, inf**-e = 0, 0**e = 0, inf**e = inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.asarray(a ** e)


@dataclass(frozen=True)
class ExtNonneg:
    """A value in [0, +inf] with the total arithmetic above."""

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if math.isnan(v) or v < 0.0:
            raise ValueError(f"ExtNonneg requires a value in [0, inf], got {self.value!r}")
        object.__setattr__(self, "value", v)

    # -- arithmetic -------------------------------------------------------
    def __mul__(self, other: "ExtNonneg") -> "ExtNonneg":
        return ExtNonneg(xmul(self.value, _val(other)))

    __rmul__ = __mul__

    def __truediv__(self, other: "ExtNonneg") -> "ExtNonneg":
        return ExtNonneg(xdiv(self.value, _val(other)))

    def __add__(self, other: "ExtNonneg") -> "ExtNonneg":
        return ExtNonneg(self.value + _val(other))

    __radd__ = __add__

    def __pow__(self, e: float) -> "ExtNonneg":
        return ExtNonneg(xpow(self.value, float(e)))

    # -- total order ------------------------------------------------------
    def __lt__(self, other) -> bool:
        return self.value < _val(other)

    def __le__(self, other) -> bool:
        return self.value <= _val(other)

    def __gt__(self, other) -> bool:
        return self.value > _val(other)

    def __ge__(self, other) -> bool:
        return self.value >= _val(other)

    def __float__(self) -> float:
        return self.value

    @property
    def finite(self) -> bool:
        return self.value < INF


def _val(x) -> float:
    return x.value if isinstance(x, ExtNonneg) else float(x)
