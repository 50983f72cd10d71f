"""The standard normal CDF and quantile in numpy, without scipy.

``cdf(v, scale)`` is ``0.5 * (1 + erf(v / scale))`` with v clamped to
``[-6 scale, 6 scale]``, where that formula is exactly 0 or 1 already, and
``quantile(u)`` is the standard normal quantile (scipy's ``ndtri``).  Both
evaluate piecewise cubics looked up in tables that are built on first use,
so importing the package builds nothing.

Each table row holds one piece [z_k, z_{k+1}) as ``(c3, c2, c1, f_k)`` and
is evaluated at ``s = (z - z_k) / dz`` in [0, 1) by Horner's rule,
``f_k + s (c1 + s (c2 + s c3))``.  A piece passes exactly through the
stored knot values at both of its ends (``c1 + c2 + c3 = f_{k+1} - f_k``),
so on either side of a knot the result rounds to that knot's own value:
the pieces join without a step, and a rising function stays
non-decreasing across knots.  Between its ends a piece matches the
function at s = 1/4 and 3/4 as well, where only the curvature off the
chord is interpolated.

* CDF: knots every 2**-11 of z = v / scale on [-6, 6].  The knot values
  come from ``math.erfc`` (the lower half as ``0.5 * erfc(-z)``, accurate
  in the tail), the curvature from the closed-form derivatives
  F^(j)(z) = (-1)^(j-1) H_{j-1}(z) exp(-z^2) / sqrt(pi) with Hermite
  polynomials H.  Where ``0.5 * (1 + erf(z))`` rounds to 0 (from z = -5.92
  on) the table is 0, so the clamp at -6 gives exactly 0.0, as the formula
  does; +6 gives exactly 1.0 and 0 exactly 0.5.  Measured against mpmath,
  a result is within one ulp of 1.0 of the exact value.
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


def _pinned_cubics(f_k, f_next, curve_1, curve_3):
    """Table rows ``(c3, c2, c1, f_k)`` of the cubics P with P(0) = 0,
    P(1) = f_next - f_k, and curvature off that chord ``curve_1`` at
    s = 1/4 and ``curve_3`` at s = 3/4.

    P(s) = D s + s (s - 1) (alpha + beta s) for D = f_next - f_k; at s = 1/4
    and 3/4, s (s - 1) = -3/16, which fixes alpha and beta.
    """
    w1 = curve_1 * (-16.0 / 3.0)
    w3 = curve_3 * (-16.0 / 3.0)
    beta = 2.0 * (w3 - w1)
    alpha = 0.5 * (3.0 * w1 - w3)
    return np.stack((beta, alpha - beta, (f_next - f_k) - alpha, f_k), axis=1)


@cache
def _cdf_table() -> np.ndarray:
    """Rows for the knots k = 0 .. n, then k = -n-1 .. -1, so that a
    negative knot index reads its row as a negative array index."""
    n = _CDF_SPAN
    dz = 1.0 / _CDF_KNOTS
    a = np.arange(n + 2) * dz  # |z| at the knots
    # F(-a) = 0.5 erfc(a), relative to its own size in the lower tail, and
    # 0 where 0.5 (1 + erf(-a)) rounds to 0; F(a) = 1 - F(-a).
    below = 0.5 * np.fromiter(map(math.erfc, a.tolist()), float, a.size)
    above = 1.0 - below
    below[below <= 2.0 ** -55] = 0.0

    # Curvature off the chord at s = 1/4 and 3/4: the sum over j >= 2 of
    # a_j (s^j - s) with the Taylor terms a_j = F^(j)(z) dz^j / j!, where
    # F^(j)(z) = (-1)^(j-1) H_{j-1}(z) exp(-z^2) / sqrt(pi).  F^(j)(-a) is
    # (-1)^(j-1) F^(j)(a), so the terms of odd j hold at -a and the terms of
    # even j change sign.
    density = np.exp(-a * a) * (1.0 / math.sqrt(math.pi))
    h_prev, h = np.ones_like(a), 2.0 * a  # Hermite H_0 and H_1
    curves = np.zeros((2, 2, a.size))  # [even j, odd j] x [s = 1/4, 3/4]
    for j in range(2, 6):
        term = ((-1) ** (j - 1) * dz ** j / math.factorial(j)) * h * density
        curves[j % 2, 0] += (0.25 ** j - 0.25) * term
        curves[j % 2, 1] += (0.75 ** j - 0.75) * term
        h_prev, h = h, 2.0 * a * h - 2.0 * (j - 1) * h_prev
    odd, even = curves[1], curves[0]
    upper = _pinned_cubics(above[:-1], above[1:], *(odd + even)[:, :-1])
    # The rows of k = -n-1 .. -1 start at -a for a = a_{n+1} .. a_1.
    lower = _pinned_cubics(below[:0:-1], below[-2::-1], *(odd - even)[:, :0:-1])
    lower[below[:0:-1] + below[-2::-1] == 0.0] = 0.0
    return np.concatenate((upper, lower))


def _evaluate(table: np.ndarray, t: np.ndarray, out=None, mode: str = "raise") -> np.ndarray:
    """The table's piecewise cubic at the 1-d positions t, in knots: row
    floor(t) at s = t - floor(t).  Overwrites t with s; ``mode`` is
    ``take``'s index mode."""
    k = np.floor(t)
    t -= k
    c3, c2, c1, f = table.take(k.astype(np.intp), axis=0, mode=mode).T
    y = np.multiply(c3, t, out=out)
    y += c2
    y *= t
    y += c1
    y *= t
    y += f
    return y


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
    far = rho > 5.0
    if not far.any():
        a = rho - 1.6
        x = _polynomial(_C, a)
        x /= _polynomial(_D, a)
        return x
    x = np.empty_like(rho)
    x[~far] = _as241_tail(rho[~far])
    b = rho[far] - 5.0
    x[far] = _polynomial(_E, b) / _polynomial(_F, b)
    return x


def _g(r: np.ndarray) -> np.ndarray:
    """x / q for the quantile x at u = 0.5 + q, q = sqrt(r) > 0, r < 0.25."""
    out = np.empty_like(r)
    central = r <= 0.180625
    w = 0.180625 - r[central]
    out[central] = _polynomial(_A, w) / _polynomial(_B, w)
    q = np.sqrt(r[~central])
    out[~central] = _as241_tail(np.sqrt(-np.log(0.5 - q))) / q
    return out


def _tabulate(f, start: float, knots: int, rows: int) -> np.ndarray:
    """Rows of the pinned cubics of f on [start + i / knots, start + (i + 1) / knots)."""
    step = 1.0 / knots
    x = start + np.arange(rows + 1) * step
    y = f(x)
    chord = y[1:] - y[:-1]
    curve_1 = f(x[:-1] + 0.25 * step) - y[:-1] - 0.25 * chord
    curve_3 = f(x[:-1] + 0.75 * step) - y[:-1] - 0.75 * chord
    return _pinned_cubics(y[:-1], y[1:], curve_1, curve_3)


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
    x = _evaluate(table, t, mode="clip")
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
        out = _evaluate(central, t, out=x[a:a + _CHUNK], mode="clip")
        out *= q
    if tails:
        tail = np.concatenate(tails)
        x[tail] = _tails(flat[tail], tail_table)
    return x.reshape(u.shape)[()]
