"""Extended nonnegative reals [0, +inf] with total arithmetic.

The conventions

    0 * inf = 0,    inf / inf = 0,    0 / 0 = 0,
    x / 0   = inf (x > 0),            0 ** 0 = inf ** 0 = 1,

make every weight functional in this package evaluate to a definite value in
[0, inf]: no NaN ever escapes.  Scalar helpers (``xmul`` etc.) operate on
plain floats; array helpers (``amul`` etc.) on numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf

__all__ = [
    "INF",
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
    with np.errstate(invalid="ignore", over="ignore"):
        return np.asarray(_amul_raw(np.asarray(a, dtype=float), np.asarray(b, dtype=float)))


def _amul_raw(a, b):
    """``amul`` of float arrays (or floats) without its ``np.errstate``: for
    array passes that enter one ``np.errstate`` around all of their products."""
    out = a * b
    # on [0, inf] a NaN can only be 0 * inf; NaN inputs keep the full masks
    if np.isnan(out).any():
        out = np.where((a == 0.0) | (b == 0.0), 0.0, out)
    return out


def _amul_nonneg(a, b, out=None):
    """``_amul_raw`` of float arrays whose entries all lie in [0, inf], bit for
    bit (a zero product keeps the sign of a -0.0 factor): on such factors the
    only NaN a product can hold is 0 * inf, and ``fmax`` with 0 sends it to 0
    and leaves every other entry as it is.  A NaN factor would be sent to 0
    too, so callers check ``_all_nonneg`` first."""
    out = np.multiply(a, b, out=out)
    return np.fmax(out, 0.0, out=out)


def _all_nonneg(*xs) -> bool:
    """Whether every entry of every array (or float) lies in [0, inf]: no NaN
    and nothing negative."""
    return all(np.size(x) == 0 or np.min(x) >= 0.0 for x in xs)


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

