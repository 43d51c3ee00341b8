"""Complex dilogarithm and the Lobachevsky function.

Li2 is taken on the principal branch with the cut along the real ray
[1, inf).  The Lobachevsky function is

    L(x) = -int_0^x log(2 sin t) dt = Im(Li2(exp(2ix))) / 2,

pi-periodic and odd.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BranchCut

PI2_6 = np.pi ** 2 / 6.0

# Bernoulli numbers B_0..B_48, each the float nearest the exact rational
# (scipy's bernoulli(48) is not: its B_4 is off by 1.7e-12 relative).  Odd
# ones beyond B_1 vanish.
_BERN = np.zeros(49)
_BERN[:2] = 1.0, -0.5
_BERN[2::2] = (
    0.16666666666666666, -0.03333333333333333, 0.023809523809523808, -0.03333333333333333,
    0.07575757575757576, -0.2531135531135531, 1.1666666666666667, -7.092156862745098,
    54.971177944862156, -529.1242424242424, 6192.123188405797, -86580.25311355312,
    1425517.1666666667, -27298231.067816094, 601580873.9006424, -15116315767.092157,
    429614643061.1667, -13711655205088.332, 488332318973593.2, -1.9296579341940068e+16,
    8.416930475736826e+17, -4.0338071854059454e+19, 2.1150748638081993e+21,
    -1.2086626522296526e+23)
_FACT = np.array([float(math.factorial(k + 1)) for k in range(49)])
_SQUARES = np.arange(1, 40, dtype=float) ** 2


def _modulus(z):
    # libm's hypot, as Python's abs(complex) rounds it; numpy's vectorized
    # complex abs can differ in the last bit, which moves branch boundaries
    return np.hypot(z.real, z.imag)


def _powers(x, n):
    """x, x^2, ..., x^n for each x, multiplied in that order."""
    return np.cumprod(np.repeat(x[:, None], n, axis=1), axis=1)


def _sum_until(terms, stop):
    """Each row of terms summed in order, through its first column where stop holds."""
    last = np.where(stop.any(axis=1), stop.argmax(axis=1), terms.shape[1] - 1)
    return np.cumsum(terms, axis=1)[np.arange(last.size), last]


def _series(x):
    # power series sum x^k / k^2 for |x| <= 0.4, until |x^(k+1)| < 1e-18;
    # each part is divided by the real k^2, as Python divides a complex by an int
    p = _powers(x, 40)
    terms = np.empty((x.size, 39), dtype=complex)
    terms.real, terms.imag = p[:, :39].real / _SQUARES, p[:, :39].imag / _SQUARES
    return _sum_until(terms, _modulus(p[:, 1:]) < 1e-18)


def _bernoulli(x):
    # series in u = -log(1 - x); converges for |u| < 2 pi
    p = _powers(-np.log(1.0 - x), 50)
    stop = _modulus(p[:, 1:]) / _FACT[np.minimum(np.arange(1, 50), 48)] < 1e-19
    return _sum_until(_BERN * p[:, :49] / _FACT, stop)


def _reflection(x):
    # Li2(x) = pi^2/6 - log(x) log(1 - x) - Li2(1 - x), for |1 - x| <= 0.25
    w = 1.0 - x
    return PI2_6 - np.log(x) * np.log(w) - _series(w)


def _reciprocal(z):
    # 1 / z by Smith's rule, rounded as Python's complex division rounds it;
    # numpy's vectorized division can differ in the last bit
    flip = abs(z.real) < abs(z.imag)
    big, small = np.where(flip, z.imag, z.real), np.where(flip, z.real, z.imag)
    ratio = small / big
    den = big + small * ratio
    out = np.empty_like(z)
    out.real = np.where(flip, ratio, 1.0) / den
    out.imag = -np.where(flip, 1.0, ratio) / den
    return out


def dilog(z):
    """Principal-branch Li2(z); raises BranchCut on the real ray z >= 1.

    One numpy path for scalars and arrays, each branch chosen by mask:
    |z| > 1 is inverted, Li2(z) + Li2(1/z) = -pi^2/6 - log(-z)^2 / 2; then
    |z| <= 0.4 takes the power series, |1 - z| <= 0.25 the reflection and
    the rest the Bernoulli series in -log(1 - z).  Each series stops where
    a scalar loop adding term by term would.  A scalar comes back as a
    complex.
    """
    arr = np.asarray(z, dtype=complex)
    flat = arr.reshape(-1)
    cut = (flat.imag == 0.0) & (flat.real >= 1.0)
    if np.any(cut):
        raise BranchCut(f"dilog evaluated on the cut [1, inf): z={flat.real[cut][0]}")
    inv = _modulus(flat) > 1.0
    x = flat.copy()
    if inv.any():
        x[inv] = _reciprocal(flat[inv])
    out = np.empty_like(x)
    series = _modulus(x) <= 0.4
    refl = ~series & (_modulus(1.0 - x) <= 0.25)
    for branch, where in ((_series, series), (_reflection, refl),
                          (_bernoulli, ~(series | refl))):
        if where.any():
            out[where] = branch(x[where])
    if inv.any():
        out[inv] = -out[inv] - PI2_6 - 0.5 * np.log(-flat[inv]) ** 2
    return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def lobachevsky(x):
    """L(x) = -int_0^x log(2 sin t) dt, computed via the dilogarithm."""
    arr = np.asarray(x, dtype=float)
    # pi-periodic and odd; reduce to [0, pi)
    r = arr - np.pi * np.floor(arr / np.pi)
    zero = np.abs(np.sin(r)) < 1e-300
    val = np.where(zero, 0.0, 0.5 * dilog(np.where(zero, 0.0, np.exp(2j * r))).imag)
    return float(val) if arr.ndim == 0 else val
