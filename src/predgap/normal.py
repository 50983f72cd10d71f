"""The standard normal CDF and quantile in numpy, without scipy.

``cdf(v, scale)`` is ``0.5 * (1 + erf(v / scale))`` with v clamped to
``[-6 scale, 6 scale]``, where that formula is exactly 0 or 1 already, and
``quantile(u)`` is the standard normal quantile (scipy's ``ndtri``).  Both
evaluate piecewise cubics looked up in tables that are built on first use,
so importing the package builds nothing.

All three tables are built one way.  Each row holds one piece
[z_k, z_{k+1}) as ``(c3, c2, c1, f_k)`` and is evaluated at
``s = (z - z_k) / dz`` in [0, 1) by Horner's rule,
``f_k + s (c1 + s (c2 + s c3))``.  A piece passes exactly through the
stored knot values at both of its ends (``c1 + c2 + c3 = f_{k+1} - f_k``),
so on either side of a knot the result rounds to that knot's own value:
the pieces join without a step, and a rising function stays
non-decreasing across knots.  Between its ends a piece matches the
function at s = 1/4 and 3/4 as well, where only the curvature off the
chord is interpolated.

* CDF: knots every 2**-11 of z = v / scale on [-6, 6], and one more at
  either end.  Every value the table is built from, at the knots and at
  s = 1/4 and 3/4, is ``0.5 * erfc(-z)`` from ``math.erfc``, accurate
  relative to its own size in the lower tail.  Each row that ends where
  ``0.5 * (1 + erf(z))`` rounds to 0 (from z = -5.92 on) is 0, so the
  clamp at -6 gives exactly 0.0, as the formula does; +6 gives exactly 1.0
  and 0 exactly 0.5.  Measured against mpmath, a result is within one ulp
  of 1.0 of the exact value.
* Quantile: x = q g(q^2) for q = u - 0.5 with |q| <= 0.45, where g is
  tabulated on knots every 2**-15 of q^2.  Beyond that, with p the smaller
  tail and rho = sqrt(-log p), x is tabulated on knots every 2**-11 of rho
  up to rho = 5 (p = 1.4e-11), and computed directly further out.  All of
  it is Wichura's AS241 (Applied Statistics 37, 1988), whose coefficients
  are also those of ``statistics.NormalDist.inv_cdf``: the tables hold its
  values at their knots.  A result is within a few ulp of the exact
  quantile, exactly 0.0 at 0.5, -inf at 0, inf at 1, nan outside [0, 1],
  and odd: ``quantile(1 - u) == -quantile(u)`` wherever 1 - u is exact.

No kernel raises a floating-point warning.  Results are elementwise, so
an array gives each element the value a scalar call gives.
"""

from __future__ import annotations

import math
import sys
from functools import cache

import numpy as np

_MAX = sys.float_info.max
_MIN_NORMAL = sys.float_info.min

# Wichura's AS241 (PPND16) rational approximations, constant term first:
# x = q A(w) / B(w) with w = 0.180625 - q^2 for |q| <= 0.425, and for the
# tails, with rho = sqrt(-log p) of the smaller tail p, C/D at rho - 1.6 for
# rho <= 5 and E/F at rho - 5 beyond.
_A = (3.387132872796366608, 133.14166789178437745, 1971.5909503065514427,
      13731.693765509461125, 45921.953931549871457, 67265.770927008700853,
      33430.575583588128105, 2509.0809287301226727)
_B = (1.0, 42.313330701600911252, 687.1870074920579083, 5394.1960214247511077,
      21213.794301586595867, 39307.89580009271061, 28729.085735721942674,
      5226.495278852854561)
_C = (1.42343711074968357734, 4.6303378461565452959, 5.7694972214606914055,
      3.64784832476320460504, 1.27045825245236838258, 0.24178072517745061177,
      0.0227238449892691845833, 7.7454501427834140764e-4)
_D = (1.0, 2.05319162663775882187, 1.6763848301838038494, 0.68976733498510000455,
      0.14810397642748007459, 0.0151986665636164571966, 5.475938084995344946e-4,
      1.05075007164441684324e-9)
_E = (6.6579046435011037772, 5.4637849111641143699, 1.7848265399172913358,
      0.29656057182850489123, 0.026532189526576123093, 0.0012426609473880784386,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 0.59983220655588793769, 0.13692988092273580531, 0.0148753612908506148525,
      7.868691311456132591e-4, 1.8463183175100546818e-5, 1.4215117583164458887e-7,
      2.04426310338993978564e-15)

_CDF_KNOTS = 2048           # CDF knots per unit of z
_CDF_SPAN = 6 * _CDF_KNOTS  # the clamp at |z| = 6, in knots
_Q_CENTRAL = 0.45           # |u - 0.5| up to which the quantile uses its table
_R_CENTRAL = _Q_CENTRAL * _Q_CENTRAL
_R_KNOTS = 32768            # central quantile knots per unit of q^2
_RHO_START = 1.6875         # below sqrt(-log 0.05), the least tail rho
_RHO_KNOTS = 2048           # tail quantile knots per unit of rho
_CHUNK = 10240              # quantile values per pass, so temporaries stay in cache


def _polynomial(coefficients, x):
    """sum_j coefficients[j] x^j by Horner's rule (constant term first)."""
    y = coefficients[-1] * x
    y += coefficients[-2]
    for c in coefficients[-3::-1]:
        y *= x
        y += c
    return y


def _tabulate(f, start: float, knots: int, rows: int, out=None) -> np.ndarray:
    """Rows ``(c3, c2, c1, f_k)`` of the cubics P of f on the pieces
    [start + k / knots, start + (k + 1) / knots), k = 0 .. rows - 1, written
    into ``out`` when given.

    P(s) = D s + s (s - 1) (alpha + beta s) with D = f_{k+1} - f_k passes
    through both knot values, and alpha and beta match f's curvature off that
    chord at s = 1/4 and 3/4, where s (s - 1) = -3/16.
    """
    step = 1.0 / knots
    x = start + np.arange(rows + 1) * step
    y = f(x)
    chord = y[1:] - y[:-1]
    w1 = (f(x[:-1] + 0.25 * step) - y[:-1] - 0.25 * chord) * (-16.0 / 3.0)
    w3 = (f(x[:-1] + 0.75 * step) - y[:-1] - 0.75 * chord) * (-16.0 / 3.0)
    beta = 2.0 * (w3 - w1)
    alpha = 0.5 * (3.0 * w1 - w3)
    return np.stack((beta, alpha - beta, chord - alpha, y[:-1]), axis=1, out=out)


def _evaluate(table: np.ndarray, t: np.ndarray, out=None) -> np.ndarray:
    """The table's piecewise cubic at the 1-d positions t, in knots: row
    floor(t) at s = t - floor(t), with an index past either end wrapped
    around.  Overwrites t with s."""
    k = np.floor(t)
    t -= k
    c3, c2, c1, f = table.take(k.astype(np.intp), axis=0, mode="wrap").T
    y = np.multiply(c3, t, out=out)
    y += c2
    y *= t
    y += c1
    y *= t
    y += f
    return y


def _erfc_half(z: np.ndarray) -> np.ndarray:
    """F(z) = 0.5 erfc(-z), relative to its own size in the lower tail."""
    return 0.5 * np.fromiter(map(math.erfc, (-z).tolist()), float, z.size)


@cache
def _cdf_table() -> np.ndarray:
    """Rows for the knots k = 0 .. n, then k = -n-1 .. -1, so that a
    negative knot index reads its row from the end of the table."""
    n = _CDF_SPAN
    # Each half is tabulated into its place.  The knots and quarter points
    # are multiples of 2**-13 smaller than 7, which floats hold exactly, so
    # both halves see the points one tabulation from -(n + 1) / 2048 would.
    table = np.empty((2 * n + 2, 4))
    _tabulate(_erfc_half, 0.0, _CDF_KNOTS, n + 1, out=table[:n + 1])
    _tabulate(_erfc_half, -(n + 1) / _CDF_KNOTS, _CDF_KNOTS, n + 1, out=table[n + 1:])
    # 0 where 0.5 (1 + erf(z)) rounds to 0: each row that ends at or below
    # 2**-55, all of them among the rows k < 0, the last of which ends at
    # row 0's knot.  Zeroing knot values before the curvature is sampled
    # would leave the first nonzero row non-monotone.
    below = table[n + 1:]
    below[np.append(below[1:, 3], table[0, 3]) <= 2.0 ** -55] = 0.0
    return table


def cdf(v, scale: float):
    """0.5 (1 + erf(v / scale)), non-decreasing in v, for a positive scale
    whose reciprocal is finite."""
    bound = 6.0 * scale
    unit = scale / _CDF_KNOTS
    if bound > _MAX:  # v / unit cannot overflow: clamp after dividing
        t = np.minimum(np.maximum(np.divide(v, unit), -_CDF_SPAN), _CDF_SPAN)
    else:
        t = np.minimum(np.maximum(v, -bound), bound)
        if unit >= _MIN_NORMAL:
            t /= unit
        else:  # a subnormal unit would round: divide in two exact steps
            t /= scale
            t *= _CDF_KNOTS
    # A negative knot index reads its row from the end of the table.
    return _evaluate(_cdf_table(), t.reshape(-1)).reshape(t.shape)[()]


def _as241_tail(rho: np.ndarray) -> np.ndarray:
    """AS241's quantile at 1 - p for rho = sqrt(-log p) >= 1.6."""
    a = rho - 1.6
    b = rho - 5.0
    return np.where(rho > 5.0, _polynomial(_E, b) / _polynomial(_F, b),
                    _polynomial(_C, a) / _polynomial(_D, a))


def _g(r: np.ndarray) -> np.ndarray:
    """x / q for the quantile x at u = 0.5 + q, q = sqrt(r) > 0, r < 0.25."""
    out = np.empty_like(r)
    central = r <= 0.180625
    w = 0.180625 - r[central]
    out[central] = _polynomial(_A, w) / _polynomial(_B, w)
    q = np.sqrt(r[~central])
    out[~central] = _as241_tail(np.sqrt(-np.log(0.5 - q))) / q
    return out


@cache
def _quantile_tables() -> tuple[np.ndarray, np.ndarray]:
    """g on [0, 0.45^2] in q^2, and AS241's tail on [_RHO_START, 5] in rho."""
    central = _tabulate(_g, 0.0, _R_KNOTS, math.ceil(_R_CENTRAL * _R_KNOTS))
    tail = _tabulate(_as241_tail, _RHO_START, _RHO_KNOTS, math.ceil((5.0 - _RHO_START) * _RHO_KNOTS))
    return central, tail


def _tails(u: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The quantile for |u - 0.5| > 0.45, from the smaller tail p."""
    p = np.minimum(u, 1.0 - u)
    inside = p > 0.0
    if not inside.all():
        # u = 0 or 1 gives an infinite quantile, u outside [0, 1] nan; the
        # logarithm only sees values inside (0, 0.5].
        edge = np.where(p == 0.0, np.inf, np.nan)
        p = np.where(inside, p, 0.5)
    rho = np.log(p)
    np.negative(rho, out=rho)
    np.sqrt(rho, out=rho)
    t = np.minimum(rho, 5.0)
    t -= _RHO_START
    t *= _RHO_KNOTS
    x = _evaluate(table, t)
    far = rho >= 5.0  # rho = 5 itself would read past the last row
    if far.any():
        x[far] = _as241_tail(rho[far])
    if not inside.all():
        x = np.where(inside, x, edge)
    return np.copysign(x, u - 0.5, out=x)


def quantile(u):
    """The standard normal quantile of u in [0, 1]."""
    u = np.asarray(u, dtype=np.float64)
    flat = u.reshape(-1)
    x = np.empty(flat.size)
    central, tail_table = _quantile_tables()
    tails = []
    for a in range(0, flat.size, _CHUNK):
        q = flat[a:a + _CHUNK] - 0.5
        t = q * q
        tail = (t > _R_CENTRAL).nonzero()[0]  # nan stays central and gives nan
        if tail.size:
            tails.append(tail + a)
        np.fmin(t, _R_CENTRAL, out=t)
        t *= _R_KNOTS
        out = _evaluate(central, t, out=x[a:a + _CHUNK])
        out *= q
    if tails:
        tail = np.concatenate(tails)
        x[tail] = _tails(flat[tail], tail_table)
    return x.reshape(u.shape)[()]
