"""Extended nonnegative reals [0, +inf] with total arithmetic.

The conventions

    0 * inf = 0,    inf / inf = 0,    0 / 0 = 0,
    x / 0   = inf (x > 0),            0 ** 0 = inf ** 0 = 1,

make every weight functional in this package evaluate to a definite value in
[0, inf]: no NaN ever escapes.  Scalar helpers (``xmul`` etc.) operate on
plain floats; array helpers (``amul`` etc.) on numpy arrays.

Every array the package computes lies in [0, inf] and holds no NaN.  On that
domain the only NaN a product or quotient can hold is 0 * inf, 0 / 0 or
inf / inf, so ``amul`` and ``adiv`` are one ufunc and one ``np.fmax`` with 0,
which sends exactly those entries to 0.  The domain is enforced where values
enter: the weight constructors and ``gridfn.Grid`` reject NaN parameters,
knots and sample points, every weight family's mass rule (``_mass``) reads
a value in [0, inf], so no cumulative behind ``gridfn.region_measures`` is
NaN, and ``oracle.RayleighEngine.ratios`` rejects a NaN or negative row
entry.  Outside the domain, ``fmax`` turns a NaN or negative entry into 0.

Each array convention is written once, as a raw kernel (``_amul``,
``_adiv``, ``_apow``) that enters no ``np.errstate`` and takes ``out=``;
``amul``, ``adiv`` and ``apow`` are those kernels under their own
``np.errstate``, into a new array.  Passes that make many products enter one
``np.errstate`` and call the kernels: the oracle's engine, the operator
kernel, and each criterion function.

A factor whose entries are all finite and positive meets no 0 * inf: its
products with values in [0, inf] are already in [0, inf], so the ``fmax``
leaves them as they are.  ``_product`` decides this once per fixed factor,
and a product with such a factor is one plain ``np.multiply``.
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
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        return _amul(a, b, out=np.empty(np.broadcast(a, b).shape))


def adiv(a, b):
    """Elementwise quotient with 0/0 = 0, inf/inf = 0, x/0 = inf."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        return _adiv(a, b, out=np.empty(np.broadcast(a, b).shape))


def apow(a, e: float):
    """Elementwise power with 0**0 = inf**0 = 1, in a new array."""
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _apow(a, e, out=np.empty(a.shape))


# -- the raw kernels: float arrays in, no ``np.errstate``; ``out`` may be an operand


def _amul(a, b, out=None):
    """``amul``: one multiply and one ``fmax`` with 0, in place on the product."""
    out = np.multiply(a, b, out=out)
    return np.fmax(out, 0.0, out=out)


def _adiv(a, b, out=None):
    """``adiv``: one divide and one ``fmax`` with 0, in place on the quotient."""
    out = np.divide(a, b, out=out)
    return np.fmax(out, 0.0, out=out)


def _apow(a, e: float, out=None):
    """``apow``: IEEE pow, which already gives x**0 = 1 for every x, 0**-e =
    inf, inf**-e = 0, 0**e = 0 and inf**e = inf.  A power by exactly 1 with
    no other ``out`` returns ``a`` itself, so a caller that writes into the
    result must own ``a``.  The exponents 2 and 1/2 go to ``np.square`` and
    ``np.sqrt``, which give ``np.power``'s bits on [0, inf] at about half
    its cost, and on a negative zero too (``np.power`` reads (-0)**0.5 as
    -0, as ``np.sqrt`` does, where C's ``pow`` gives +0); every other
    exponent takes ``np.power`` (``1 / x**2`` and ``x * x * x`` are off in
    the last bit at -2 and 3)."""
    if e == 2.0:
        return np.square(a, out=out)
    if e == 0.5:
        return np.sqrt(a, out=out)
    if e == 1.0 and (out is None or out is a):
        return a
    return np.power(a, e, out=out)


def _product(factor):
    """The product with ``factor`` of float arrays in [0, inf], decided once
    for the factor: ``np.multiply`` where every entry of ``factor`` is finite
    and positive, else ``_amul``.  Both take ``(a, b, out=None)`` and give the
    same values; on such a factor they differ at most in the sign of a zero
    product, which ``fmax`` does not fix either."""
    f = np.asarray(factor, dtype=float)
    return np.multiply if bool(((f > 0.0) & (f < INF)).all()) else _amul
