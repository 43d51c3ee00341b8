"""Free energies and surface tensions.

The torus free energy of a spectral curve is the average of log|P| over a
product of circles,

    f(H, V) = mean over (phi, psi) of log|P(e^(H + i phi), e^(V + i psi))|.

The evaluator integrates the inner circle exactly by factoring the
fiber polynomial (Jensen's formula; a fiber of degree one in z has its root
in closed form, higher degrees use companion-matrix eigenvalues).  The
integrand has a kink wherever a root crosses |z| = e^H.  These crossings
are where the curve meets the torus |z| = e^H, |w| = e^V, found exactly as
the roots on the unit circle of one resultant and polished by Newton
(`_crossings`).  The outer circle is then integrated by Gauss-Legendre
between the kinks, and the same crossings give the exact root-counting
form of the gradient and, from the rate at which each crossing moves, the
exact Hessian that the Legendre Newton iteration uses as its Jacobian.  No
other module computes with a curve's coefficients.

Closed forms: the homogeneous hexagonal tension (Lobachevsky function) and
the free-fermion tension at spectral parameter u (inverse hyperbolic sine
gradient map, four dilogarithms for the value), both on arrays.  Both
Hessians have determinant pi^2, which is what makes the commuting-Hamiltonian
certificate in the flow module tick.

Sign conventions: f is convex, sigma = f* is convex, and the variational
problem is treated uniformly as minimization of the convex integrand.
The partial Legendre transform tau(p, xi) = max_nu (p nu - sigma(nu, xi))
satisfies d11 tau = 1 / d11 sigma and d22 tau / d11 tau = -det Hess sigma;
the minus sign is forced by convexity (tau is concave in its second slot)
and is what the commutation certificate consumes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dimers import (SpectralCurve, ff_reference_curve as ff_curve,
                     hex_reference_curve as hex_curve)
from .errors import (DomainBoundary, NonConvergence, OutOfRange,
                     SingularLocus, Unbounded)
from .special import dilog

_TWO_PI = 2.0 * np.pi
N0 = 256            # free_energy's Gauss-Legendre order when no crossing is found
N_MAX = 16384       # free_energy's cap on outer nodes
LEGENDRE_INSET = 1e-7   # how far inside the Newton polygon legendre_sigma takes slopes


# ---------------------------------------------------------------------------
# fast vectorized Lobachevsky (odd polynomial for the smooth part)
# ---------------------------------------------------------------------------

# s(r) = L(r) - r + r log(2r) = -int_0^r log(sin t / t) dt is odd and analytic
# for |r| < pi (Clausen's series), so s(r) = r q(r^2).  These are q's monomial
# coefficients in u = r^2, lowest first: the degree-12 truncation of q's
# Chebyshev series on [0, pi^2/4] (q from mpmath's clsin(2, 2r)/2 at 60
# digits; the first dropped coefficient is 7e-18).  q(0) = 0.
_LOB_Q = (0.0, 0.05555555555555469, 0.0011111111111304652, 5.039052641060376e-05,
          2.9394481613932912e-06, 1.9434152444701605e-07, 1.3878025474950215e-08,
          1.039902054759813e-09, 8.494442428546471e-11, 4.850974793380701e-12,
          1.1457298951003907e-12, -8.345941785335277e-14, 1.8128536935471313e-14)


def lobachevsky_fast(x):
    """Vectorized L(x), in place on four buffers.

    x is reduced to r in [0, pi/2] (L is pi-periodic and odd) and
    L(r) = r q(r^2) + r - r log(2r), with q by Horner from ``_LOB_Q``.
    Measured against mpmath on dense grids, the error is 3.5e-16 on
    [0, pi/2] and 1.6e-15 on [pi/2, pi - 1e-6]; nearer pi, and for x
    outside [0, pi), the rounding of pi in the reduction sets it (4.5e-15
    at x = np.pi).
    """
    x = np.asarray(x, dtype=float)
    r, u, s, tmp = (np.empty(x.shape) for _ in range(4))
    # r = x - pi floor(x / pi), reflected into [0, pi/2] (L is pi-periodic, odd)
    np.divide(x, np.pi, out=r)
    np.floor(r, out=r)
    np.multiply(np.pi, r, out=r)
    np.subtract(x, r, out=r)
    flip = r > np.pi / 2
    np.subtract(np.pi, r, out=r, where=flip)
    # smooth part s = r q(u), u = r^2
    np.multiply(r, r, out=u)
    s.fill(_LOB_Q[-1])
    for c in _LOB_Q[-2::-1]:
        np.multiply(s, u, out=s)
        np.add(s, c, out=s)
    np.multiply(s, r, out=s)
    # core = smooth + r - r log(2 r), and 0 where r <= 0
    low = np.logical_not(r > 0)
    np.multiply(2.0, r, out=tmp)
    np.copyto(tmp, 2.0, where=low)
    np.log(tmp, out=tmp)
    np.multiply(r, tmp, out=tmp)
    np.add(s, r, out=s)
    np.subtract(s, tmp, out=s)
    np.copyto(s, 0.0, where=low)
    return np.negative(s, out=s, where=flip)


# ---------------------------------------------------------------------------
# free energy of a spectral curve
# ---------------------------------------------------------------------------

class _Layout(NamedTuple):
    """A curve read as a z-polynomial, with what its crossings and partials reuse."""

    i_min: int
    deg: int            # z-degree
    terms: tuple        # (row, j, c): c w^j adds to the coefficient of z^(i_min + row)
    de: int             # degree of the crossing resultant: deg times the w-span
    z_dz: tuple         # (row, j, c row) for row != 0: the terms of z dP/dz
    w_dw: tuple         # (row, j, c j) for j != 0: the terms of w dP/dw
    z_powers: tuple     # the rows != 0 those terms use
    w_powers: tuple     # the j != 0 those terms use


@functools.lru_cache(maxsize=64)
def _fiber_layout(curve: SpectralCurve, swap: bool = False) -> _Layout:
    """The curve, or with ``swap`` the curve with z and w swapped, read as
    a z-polynomial.

    Built once per curve and reading: a bounded cache keyed on the frozen
    curve holds it, and nothing in it depends on the torus (H, V).
    """
    if swap:
        curve = curve.transformed(swap=True)
    i_all, j_all = zip(*(k for k, _ in curve.coeffs))
    i_min, deg = min(i_all), max(i_all) - min(i_all)
    terms = tuple((i - i_min, j, c) for (i, j), c in curve.coeffs)
    z_dz = tuple((row, j, c * row) for row, j, c in terms if row)
    w_dw = tuple((row, j, c * j) for row, j, c in terms if j)
    return _Layout(i_min, deg, terms, deg * (max(j_all) - min(j_all)), z_dz, w_dw,
                   tuple({row for row, _, _ in z_dz + w_dw} - {0}),
                   tuple({j for _, j, _ in z_dz + w_dw} - {0}))


def _fiber_coeffs(layout, w: np.ndarray) -> np.ndarray:
    """Coefficients of P(., w) as a z-polynomial for each w on the fiber.

    Terms in w^0 and w^1 add c and c w, which is what c w^j gives there
    bit for bit, without forming the power; each adds into its row in place.
    """
    coeffs = np.zeros((layout.deg + 1, w.size), dtype=complex)
    for row, j, c in layout.terms:
        dst = coeffs[row]
        np.add(dst, c if j == 0 else c * w if j == 1 else c * w ** j, out=dst)
    return coeffs


def _companion_roots(p: np.ndarray) -> np.ndarray:
    """np.roots(p) for complex p not all 0, bit for bit, without its wrapper: p trimmed of
    leading and trailing zeros, then one 0 root per trailing zero (complex for a monomial too)."""
    nz = np.flatnonzero(p)
    trailing, p = p.size - 1 - nz[-1], p[nz[0]:nz[-1] + 1]
    comp = np.eye(p.size - 1, k=-1, dtype=complex)
    comp[:1] = -p[1:] / p[0]
    return np.concatenate((np.linalg.eigvals(comp), np.zeros(trailing, dtype=complex)))


def _fiber_roots(coeffs: np.ndarray):
    """Roots and leading coefficient of each column polynomial.

    Columns are laid out lowest degree first.  Where a column's leading
    coefficient has dropped to roundoff, the column is trimmed to its true
    degree: the escaped roots are returned as inf and the leading
    coefficient as that of the trimmed polynomial.  The trimming runs only
    when some column needs it.
    """
    deg = coeffs.shape[0] - 1
    n = coeffs.shape[1]
    if deg == 0:
        return np.zeros((n, 0), dtype=complex), coeffs[0]
    lead = coeffs[-1].copy()
    mag = np.abs(coeffs)
    bad = mag[-1] < 1e-13 * np.maximum(mag.max(axis=0), 1e-300)
    dropped = bad.any()
    if deg == 1:
        # the eigenvalue of the 1x1 companion matrix, bit for bit
        roots = (-coeffs[0] / (np.where(bad, 1.0, lead) if dropped else lead))[:, None]
    elif dropped:
        roots = np.full((n, deg), np.nan, dtype=complex)
        good = ~bad
        roots[good] = np.linalg.eigvals(_companions(coeffs[:, good], lead[good]))
    else:
        roots = np.linalg.eigvals(_companions(coeffs, lead))
    if not dropped:
        return roots, lead
    for k in bad.nonzero()[0]:
        col = coeffs[:, k]
        nz = np.nonzero(np.abs(col) > 1e-13 * max(np.max(np.abs(col)), 1e-300))[0]
        if nz.size == 0:
            raise SingularLocus("fiber polynomial vanished identically")
        top = nz[-1]
        roots[k, :top] = _companion_roots(col[top::-1])
        roots[k, top:] = np.inf
        lead[k] = col[top]
    return roots, lead


def _companions(coeffs: np.ndarray, lead: np.ndarray) -> np.ndarray:
    """The stack of companion matrices of the column polynomials."""
    deg = coeffs.shape[0] - 1
    comp = np.zeros((coeffs.shape[1], deg, deg), dtype=complex)
    comp[:, 1:, :-1] = np.eye(deg - 1)
    comp[:, 0, :] = (-coeffs[deg - 1::-1] / lead).T
    return comp


def _jensen_inner(layout, H: float, V: float, psi: np.ndarray) -> np.ndarray:
    """Exact inner-circle mean of log|P| at each w = e^(V + i psi)."""
    roots, lead = _fiber_roots(_fiber_coeffs(layout, np.exp(V + 1j * psi)))
    finite = np.isfinite(roots)
    logmod = np.log(np.maximum(np.abs(np.where(finite, roots, 1.0)), 1e-300))
    # roots that escaped a trimmed fiber contribute nothing
    return layout.i_min * H + np.log(np.abs(lead)) + np.where(
        finite, np.maximum(H, logmod), 0.0).sum(axis=1)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    """Gauss-Legendre rule on [-1, 1], order >= 8: Newton on the recurrence, O(order) memory."""
    x = np.cos(np.pi * (np.arange(order) + 0.75) / (order + 0.5))
    for _ in range(6):
        p0, p1 = np.ones(order), x
        for j in range(2, order + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = order * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def free_energy(curve: SpectralCurve, H: float, V: float, tol: float = 1e-8,
                return_info: bool = False):
    """Torus free energy, converged by doubling the resolution.

    The inner circle is taken exactly (Jensen's formula) and the outer
    circle by Gauss-Legendre on the pieces between the crossings
    `_crossings` locates, where the integrand is analytic; the order doubles
    from 8, or from N0 on one piece [0, 2 pi) when no crossing is found,
    until two results agree to tol or N_MAX outer nodes are reached.  The
    info holds the number of outer nodes ``n``, the last difference
    ``estimate``, ``converged`` (False if N_MAX came first),
    ``crossing_residual``, the largest |log|z| - H| left at a crossing root
    after the polish, and ``crossing_condition``, the largest 1/|Im rho|,
    how far an error in log|z| moves a crossing (both 0.0 with no crossing).
    """
    layout = _fiber_layout(curve)
    start, _, rho, _, residual = _crossings(layout, H, V)
    level, start = (8, start) if start.size else (N0, np.zeros(1))
    half = 0.5 * (np.append(start[1:], start[0] + _TWO_PI) - start)[:, None]

    def evaluate(order):
        x, w = _gauss_legendre(order)
        psi = start[:, None] + half * (1.0 + x)
        inner = _jensen_inner(layout, H, V, psi.ravel()).reshape(psi.shape)
        return float((half * w * inner).sum()) / _TWO_PI, psi.size

    (value, n), est = evaluate(level), math.inf
    while n < N_MAX and est > tol:
        level *= 2
        cur, n = evaluate(level)
        est, value = abs(cur - value), cur
    if return_info:
        with np.errstate(divide="ignore"):      # a tangent crossing: inf
            condition = float(1.0 / np.abs(rho.imag).min(initial=np.inf))
        return value, {"n": n, "estimate": est, "converged": est <= tol,
                       "crossing_residual": residual, "crossing_condition": condition}
    return value


def _log_partials(layout, z, w):
    """(z dP/dz, w dP/dw) times z^-i_min at points (z, w) of the curve.

    Each sums only the layout's derivative terms (c row z^row w^j for
    row != 0, c j z^row w^j for j != 0), with each power formed once,
    z^1 and w^1 read as z and w, and z^0 and w^0 not multiplied in.  At
    finite (z, w) that is the sum over every term bit for bit, up to the
    sign of a zero (an exact zero partial is a singular point of the curve).
    """
    z_pow = {row: z if row == 1 else z ** row for row in layout.z_powers}
    w_pow = {j: w if j == 1 else w ** j for j in layout.w_powers}
    return (_term_sum(layout.z_dz, z_pow, w_pow, z, w),
            _term_sum(layout.w_dw, z_pow, w_pow, z, w))


def _term_sum(terms, z_pow, w_pow, z, w):
    """The sum of c z^row w^j over terms, in their order; zeros if none."""
    total = None
    for row, j, c in terms:
        term = c * z_pow[row] if row else c * w_pow[j]
        if row and j:
            term *= w_pow[j]
        if total is None:
            total = term
        else:
            total += term
    return np.zeros(np.broadcast(z, w).shape, dtype=complex) if total is None else total


def _near_root(layout, H: float, V: float, psi: np.ndarray):
    """g = log|Z| - H (slope -Im rho), rho = -(w dP/dw) / (z dP/dz) at (Z, w) and
    Z, the root of P(., w = e^(V + i psi)) nearest |z| = e^H; psi mod 2 pi's argsort
    and psi mod 2 pi in that order; and the root moduli at the arcs' midpoints
    (`_arc_midpoints`): one fiber solve.

    The layout comes built (`_fiber_layout`, once per curve) and rho from its
    derivative terms only (`_log_partials`); psi mod 2 pi is formed once.
    """
    m, wrapped = psi.size, psi % _TWO_PI
    order = wrapped.argsort()
    wrapped = wrapped[order]
    w = np.exp(V + 1j * np.concatenate((psi, _arc_midpoints(wrapped))))
    roots = _fiber_roots(_fiber_coeffs(layout, w))[0]
    moduli = np.abs(roots)
    if not m:       # no angle (at z-degree 0 there is no root to pick)
        return psi, psi + 0j, psi + 0j, order, wrapped, moduli
    gap = np.log(moduli[:m]) - H
    near, rows = np.abs(gap).argmin(axis=1), np.arange(m)
    z, g = roots[rows, near], gap[rows, near]
    z_dz, w_dw = _log_partials(layout, z, w[:m])
    return g, -w_dw / z_dz, z, order, wrapped, moduli[m:]


@functools.lru_cache(maxsize=None)
def _unit_dft(de: int):
    """The 2 de + 1 roots of unity and their DFT matrix, read-only, no np.fft."""
    omega = np.exp(np.arange(2 * de + 1) * (1j * _TWO_PI / (2 * de + 1)))
    dft = np.vander(omega.conj(), increasing=True).T
    omega.flags.writeable = dft.flags.writeable = False
    return omega, dft


def _crossings(layout, H: float, V: float):
    """Where fiber roots cross |z| = e^H as w goes round |w| = e^V.

    With p(zeta, omega) = P(e^H zeta, e^V omega) of z-degree d, the
    crossings are the roots on |omega| = 1 of the resultant
    R(omega) = Res_zeta(p, zeta^d p(1/zeta, 1/omega)): on the unit circle the
    second polynomial's coefficients are the conjugates of the first's,
    reversed, so the two share a root where p has one on |zeta| = 1.  R is
    a Laurent polynomial of degree d e, e the w-span of the curve; it is
    sampled at 2 d e + 1 roots of unity (Sylvester determinants),
    interpolated by a DFT cached per d e and solved by `_companion_roots` (not np.roots).
    Each Newton iterate on log|Z(psi)| - H is one fiber solve at the angles and
    the midpoints of the arcs they cut (`_near_root`); the last gives the counts.

    Returns the m crossing angles in [0, 2 pi), ascending; the root count
    inside |z| = e^H on each of the m + 1 arcs they cut from [0, 2 pi)
    (`_arc_counts`); rho and the polished root Z at each crossing, so
    (Z, e^(V + i psi)) is the point where the curve meets the torus; and
    the largest |log|Z| - H| left by the polish.
    """
    deg, de = layout.deg, layout.de
    omega, dft = _unit_dft(de)
    a = _fiber_coeffs(layout, math.exp(V) * omega) * np.exp(H * np.arange(deg + 1))[:, None]
    sylvester = np.zeros((omega.size, 2 * deg, 2 * deg), dtype=complex)
    a_conj = a.conj()
    for k in range(deg):
        sylvester[:, k, k:k + deg + 1] = a[::-1].T
        sylvester[:, deg + k, k:k + deg + 1] = a_conj.T
    samples = np.linalg.det(sylvester)
    # R = 0 where p is real on a torus arc: every sample at roundoff of its
    # Hadamard bound, the product of its row norms, which is |a|^(2 deg)
    # (the column norms as np.linalg.norm forms them, without its wrapper)
    norms = np.sqrt(np.add.reduce((a_conj * a).real, axis=0))
    if (np.abs(samples) < 1e-12 * norms ** (2 * deg)).all():
        raise SingularLocus(f"the curve meets the torus at ({H}, {V}) along an arc")
    r = dft @ samples
    omega = _companion_roots(np.concatenate((r[de::-1], r[:de:-1])))
    ulps = np.spacing(_TWO_PI)
    with np.errstate(divide="ignore", invalid="ignore"):
        # near a tangency two roots merge and the eigenvalues keep them to
        # ~sqrt(eps); an exact zero root (R's lowest coefficient 0) logs to -inf
        omega = omega[np.abs(np.log(np.abs(omega))) < 1e-6]
        psi = np.arctan2(omega.imag, omega.real)       # np.angle, without its wrapper
        g, rho, z, order, wrapped, moduli = _near_root(layout, H, V, psi)
        last = np.inf
        for _ in range(16):
            step = g / rho.imag
            step = np.where(np.isfinite(step), step, 0.0)
            size = np.abs(step).max(initial=0.0)
            # stop at an ulp, or where roundoff stops the steps shrinking
            if size <= ulps or size >= last:
                break
            psi, last = psi + step, size
            g, rho, z, order, wrapped, moduli = _near_root(layout, H, V, psi)
    count = _arc_counts(moduli, math.exp(H), H, V)
    return wrapped, count, rho[order], z[order], float(np.abs(g).max(initial=0.0))


def _arc_midpoints(psi: np.ndarray) -> np.ndarray:
    """Midpoints of the m + 1 arcs ascending psi cuts from [0, 2 pi) ([0.0] if m = 0)."""
    ends = np.concatenate((psi[-1:] - _TWO_PI, psi, psi[:1] + _TWO_PI))
    return 0.5 * (ends[:-1] + ends[1:]) if psi.size else np.zeros(1)


def _arc_counts(moduli: np.ndarray, radius: float, H: float, V: float) -> np.ndarray:
    """Roots inside radius on each arc, from a row of root moduli per arc midpoint.

    Where the roots' relative distances to the circle, each capped at 1,
    multiply to below 1e-12 at every midpoint, the curve meets the torus
    (H, V) along a circle over all of [0, 2 pi), which no finite set of
    angles describes: that raises SingularLocus.  The product counts a
    k-fold root, which the fiber solve splits by about eps^(1/k), k times.
    """
    gap = np.minimum(np.abs(moduli - radius) / radius, 1.0)
    if gap.prod(axis=1).max() < 1e-12:
        raise SingularLocus(f"the curve meets the torus at ({H}, {V}) along a circle")
    return (moduli < radius).sum(axis=1)


def _arc_mean(psi: np.ndarray, count: np.ndarray):
    """The mean of the arc counts over [0, 2 pi), and each angle's jump
    (count before minus count after)."""
    arcs = np.diff(np.concatenate(([0.0], psi, [_TWO_PI])))
    return float(count @ arcs) / _TWO_PI, count[:-1] - count[1:]


def grad_free_energy(curve: SpectralCurve, H: float, V: float):
    """((d/dH, d/dV), 2x2 Hessian) of the free energy via exact root counting.

    Both partials are read off the one finite set of points where the curve
    meets the torus |z| = e^H, |w| = e^V, found by one `_crossings` solve.
    The H-derivative equals i_min plus the fraction of the outer circle on
    which roots of the fiber polynomial sit inside radius e^H: the mean of
    the counts over the arcs of [0, 2 pi) that the crossing angles psi_c
    cut.  The V-derivative is the same mean for the curve read as a
    w-polynomial, whose crossing angles are theta_c = arg Z_c of the same
    points, with counts from one fiber solve of that reading
    (`_arc_counts`).

    The second derivatives move the same crossings: a crossing at psi_c
    moves at -1 / Im rho in H and Re rho / Im rho in V, so each adds its
    jump in the count (before minus after) times these rates, over 2 pi.
    Read as a w-polynomial the rate is 1 / rho, and the V-V entry adds each
    jump at theta_c times -1 / Im(1 / rho) = |rho|^2 / Im rho.  The cross
    term comes from the first reading only, so the matrix is exactly
    symmetric; with no crossing it is zero.
    """
    layout = _fiber_layout(curve)
    psi, count, rho, z, _ = _crossings(layout, H, V)
    mean_h, delta = _arc_mean(psi, count)
    theta = np.arctan2(z.imag, z.real) % _TWO_PI
    order = theta.argsort()
    theta, rho_w = theta[order], rho[order]
    layout_w = _fiber_layout(curve, swap=True)
    w = np.exp(H + 1j * _arc_midpoints(theta))
    moduli_w = np.abs(_fiber_roots(_fiber_coeffs(layout_w, w))[0])
    mean_v, delta_w = _arc_mean(theta, _arc_counts(moduli_w, math.exp(V), H, V))
    hh = float(delta @ (-1.0 / rho.imag)) / _TWO_PI
    hv = float(delta @ (rho.real / rho.imag)) / _TWO_PI
    vv = float(delta_w @ ((rho_w.real ** 2 + rho_w.imag ** 2) / rho_w.imag)) / _TWO_PI
    return (layout.i_min + mean_h, layout_w.i_min + mean_v), np.array([[hh, hv], [hv, vv]])


@dataclass
class FreeEnergyField:
    """A curve's free energy at a quadrature tolerance.

    The Legendre solve takes gradients and Hessians from the module's
    `grad_free_energy`, looked up at call time.
    """

    curve: SpectralCurve
    tol: float = 1e-8

    def value(self, H: float, V: float) -> float:
        """`free_energy` at tol; a miss raises NonConvergence with (H, V) as best."""
        return self._value_info(H, V)[0]

    def _value_info(self, H: float, V: float):
        """`value` and the free energy's info."""
        f, info = free_energy(self.curve, H, V, tol=self.tol, return_info=True)
        if not info["converged"]:
            raise NonConvergence(f"free energy missed tol {self.tol}", best=(H, V),
                                 diagnostics={k: info[k] for k in _FREE_ENERGY_FIELDS})
        return f, info


# what a free energy's info passes on to its callers' diagnostics
_FREE_ENERGY_FIELDS = ("estimate", "n", "crossing_residual", "crossing_condition")


def newton_polygon(exponents: list) -> np.ndarray:
    """The convex hull of the exponents as read-only rows (a, b, h), one per
    edge in counterclockwise order: the open polygon is where a s + b t < h
    on every row.

    Each edge is a line a i + b j = h through two exponents with every
    exponent on the side a i + b j <= h, (a, b) primitive.  A hull without
    interior (one exponent, or all on one line) is the row (0, 0, 0), which
    admits nothing.
    """
    rows = {}
    for (i0, j0), (i1, j1) in itertools.permutations(exponents, 2):
        g = math.gcd(j1 - j0, i1 - i0)
        a, b = (j1 - j0) // g, (i0 - i1) // g
        if all(a * (i - i0) + b * (j - j0) <= 0 for i, j in exponents):
            rows[a, b, a * i0 + b * j0] = None
    rows = sorted(rows, key=lambda row: math.atan2(row[1], row[0]))
    polygon = np.array(rows if len(rows) > 2 else [(0, 0, 0)], dtype=float)
    polygon.flags.writeable = False
    return polygon


def _legendre_polygon(curve: SpectralCurve) -> np.ndarray:
    """The curve's Newton polygon inset by LEGENDRE_INSET."""
    return newton_polygon([k for k, _ in curve.coeffs]) - [0.0, 0.0, LEGENDRE_INSET]


def _stacked(s, t) -> np.ndarray:
    """The (s, t) pairs as the columns of one (2, n) float array."""
    return np.array(np.broadcast_arrays(s, t) if np.shape(s) != np.shape(t) else (s, t),
                    dtype=float).reshape(2, -1)


def _inside(polygon, s, t, margin=0.0) -> bool:
    """Whether a s + b t < h - margin on every edge at every (s, t); False for NaN."""
    return bool((polygon[:, :2] @ _stacked(s, t) < polygon[:, 2:] - margin).all())


def _check_domain(polygon, s, t, message):
    """s and t as float arrays, or DomainBoundary(message) unless all are inside."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    if not _inside(polygon, s, t):
        raise DomainBoundary(message)
    return s, t


def legendre_sigma(fef: FreeEnergyField, s: float, t: float, tol: float = 1e-9,
                   return_info: bool = False):
    """sigma(s, t) = max over (H, V) of sH + tV - f(H, V).

    Solved as the root of grad f = (s, t) by a guarded Newton iteration
    whose Jacobian is the exact Hessian of f from the located crossings
    (`grad_free_energy`); an accepted line-search
    trial hands its Hessian on to the next step, and the Newton step off the
    last residual is taken before returning.  It starts from (0, 0) and
    takes at most 60 steps.  Returns (sigma, (H, V)), and with
    ``return_info`` (sigma, (H, V), info): the Newton ``iterations``, the
    ``grad_calls``, the last gradient ``residual`` and the final free
    energy's ``n``, ``estimate``, ``crossing_residual`` and
    ``crossing_condition``.  Every `NonConvergence` it raises carries the
    first three as diagnostics, a free energy that misses ``fef.tol`` at the
    root its own fields as well.
    """
    _check_domain(_legendre_polygon(fef.curve), s, t,
                  f"slope ({s}, {t}) not strictly inside the Newton polygon")
    H, V = 0.0, 0.0
    grad_calls = 0

    def residual(H, V):
        nonlocal grad_calls
        grad_calls += 1
        (gh, gv), hess = grad_free_energy(fef.curve, H, V)
        return np.array([gh - s, gv - t]), hess

    def record(iterations):   # the solve's counts, on its info and on every raise
        return {"iterations": iterations, "grad_calls": grad_calls,
                "residual": float(np.abs(r).max())}

    r, jac = residual(H, V)
    prev = None
    for iterations in range(60):
        if np.abs(r).max() <= tol:
            # the residual bounds (H, V)'s error only by |Hess sigma| tol;
            # one last Newton step on the Hessian in hand removes it
            if abs(np.linalg.det(jac)) >= 1e-14:
                delta = np.linalg.solve(jac, -r)
                H, V = H + delta[0], V + delta[1]
            try:
                f, f_info = fef._value_info(H, V)
            except NonConvergence as err:
                err.diagnostics.update(record(iterations))
                raise
            if not return_info:
                return s * H + t * V - f, (H, V)
            info = record(iterations)
            info.update((k, f_info[k]) for k in _FREE_ENERGY_FIELDS)
            return s * H + t * V - f, (H, V), info
        if abs(np.linalg.det(jac)) < 1e-14:
            # stepped onto a facet of the gradient map; back toward the
            # last liquid point (or probe inward from the start)
            if prev is None:
                raise NonConvergence("gradient map flat at the start point",
                                     best=(H, V), diagnostics=record(iterations))
            H, V = 0.5 * (H + prev[0]), 0.5 * (V + prev[1])
            r, jac = residual(H, V)
            continue
        delta = np.linalg.solve(jac, -r)
        cap = 0.5
        norm = float(np.abs(delta).max())
        if norm > cap:
            delta *= cap / norm
        scale = 1.0
        base = np.abs(r).max()
        for _ in range(30):
            rn, jn = residual(H + scale * delta[0], V + scale * delta[1])
            if np.abs(rn).max() < base:
                break
            scale *= 0.5
        else:
            raise NonConvergence("line search stalled in the Legendre solve", best=(H, V),
                                 diagnostics=record(iterations))
        prev = (H, V)
        H, V = H + scale * delta[0], V + scale * delta[1]
        r, jac = rn, jn
    raise NonConvergence("Legendre solve did not reach tolerance", best=(H, V),
                         diagnostics=record(60))


# ---------------------------------------------------------------------------
# closed-form tensions
# ---------------------------------------------------------------------------

_HEX_POLYGON = newton_polygon([k for k, _ in hex_curve().coeffs])
# the unit square for every u: built once, so that no coefficient can shrink it
_FF_POLYGON = newton_polygon([k for k, _ in ff_curve(math.pi / 4).coeffs])
_HEX_DOMAIN = "hexagonal tension needs s, t > 0 and s + t < 1"
_FF_DOMAIN = "free-fermion tension needs s, t in (0, 1)"


def sigma_hex(s, t):
    """-(1/pi) (L(pi s) + L(pi t) + L(pi (1 - s - t)))."""
    s, t = np.broadcast_arrays(*_check_domain(_HEX_POLYGON, s, t, _HEX_DOMAIN))
    lob = lobachevsky_fast(np.pi * np.stack([s, t, 1.0 - s - t]))
    return -(lob[0] + lob[1] + lob[2]) / np.pi


def grad_sigma_hex(s, t):
    s, t = _check_domain(_HEX_POLYGON, s, t, _HEX_DOMAIN)
    gs = np.log(np.sin(np.pi * s) / np.sin(np.pi * (s + t)))
    gt = np.log(np.sin(np.pi * t) / np.sin(np.pi * (s + t)))
    return gs, gt


def hess_sigma_hex(s, t):
    s, t = _check_domain(_HEX_POLYGON, s, t, _HEX_DOMAIN)
    cst = 1.0 / np.tan(np.pi * (s + t))
    h11 = np.pi * (1.0 / np.tan(np.pi * s) - cst)
    h22 = np.pi * (1.0 / np.tan(np.pi * t) - cst)
    h12 = -np.pi * cst
    return h11, h12, h22


def check_spectral_parameter(u: float) -> None:
    """Raise OutOfRange unless the free-fermion u lies in (0, pi/2)."""
    if not 0.0 < u < np.pi / 2:
        raise OutOfRange("spectral parameter u must lie in (0, pi/2)")


def _ff_q(s, t, u):
    return (np.sin(np.pi * t) / np.tan(np.pi * s)
            - np.cos(2 * u) * np.cos(np.pi * t)) / np.sin(2 * u)


def grad_sigma_ff(s, t, u):
    """The two -asinh formulas of the free-fermion gradient map.

    The second component is the s <-> t mirror of the first; together they
    invert the closed-form free-energy gradient exactly.
    """
    check_spectral_parameter(u)
    s, t = _check_domain(_FF_POLYGON, s, t, _FF_DOMAIN)
    return -np.arcsinh(_ff_q(s, t, u)), -np.arcsinh(_ff_q(t, s, u))


def _ff_dilogs(l, u: float):
    """Li2(e^l tan u) - Li2(-e^l cot u), both dilogarithms in one call."""
    z = np.exp(np.asarray(l, dtype=complex))
    tu = math.tan(u)
    li2 = dilog(np.stack([z * tu, -z * (1.0 / tu)]))
    return li2[0] - li2[1]


def sigma_ff(s, t, u):
    """Closed-form free-fermion tension, on arrays.

    sigma = H s - Im[Li2(e^l tan u) - Li2(-e^l cot u)] / pi - t log tan u
    - log cos u, with l = H + i pi t and H = d sigma/ds from the gradient map.
    """
    check_spectral_parameter(u)
    s, t = _check_domain(_FF_POLYGON, s, t, _FF_DOMAIN)
    H = -np.arcsinh(_ff_q(s, t, u))
    return (H * s - _ff_dilogs(H + 1j * np.pi * t, u).imag / np.pi
            - t * math.log(math.tan(u)) - math.log(math.cos(u)))


def hess_sigma_ff(s, t, u):
    check_spectral_parameter(u)
    s, t = _check_domain(_FF_POLYGON, s, t, _FF_DOMAIN)
    s2u = np.sin(2 * u)
    c2u = np.cos(2 * u)
    q = _ff_q(s, t, u)
    r = _ff_q(t, s, u)
    rootq = np.sqrt(1.0 + q * q)
    rootr = np.sqrt(1.0 + r * r)
    h11 = np.pi * np.sin(np.pi * t) / (s2u * np.sin(np.pi * s) ** 2 * rootq)
    h22 = np.pi * np.sin(np.pi * s) / (s2u * np.sin(np.pi * t) ** 2 * rootr)
    h12 = -np.pi * (np.cos(np.pi * t) / np.tan(np.pi * s)
                    + c2u * np.sin(np.pi * t)) / (s2u * rootq)
    return h11, h12, h22


def grad_free_energy_ff(H, V, u):
    """Closed-form (df/dH, df/dV) of the free-fermion free energy; an arccos
    argument more than 1e-12 past +-1 raises OutOfRange."""
    check_spectral_parameter(u)
    tu, cu = math.tan(u), 1.0 / math.tan(u)

    def clamped_acos(x):
        if abs(x) > 1.0 + 1e-12:
            raise OutOfRange(f"arccos argument {x} out of range")
        return math.acos(min(1.0, max(-1.0, x)))

    arg_h = (math.sinh(V - H) * tu - math.sinh(V + H) * cu) / (2.0 * math.cosh(H))
    arg_v = (math.sinh(H - V) * tu - math.sinh(V + H) * cu) / (2.0 * math.cosh(V))
    return clamped_acos(arg_h) / np.pi, clamped_acos(arg_v) / np.pi


@dataclass(frozen=True)
class SurfaceTension:
    """Evaluator bundle (value, gradient, Hessian) on a slope polygon: one row
    (a, b, h) per edge, counterclockwise, inside which a s + b t < h on each.
    Frozen: `dataclasses.replace` builds a new bundle."""

    variant: str
    value: object
    grad: object
    hess: object
    polygon: np.ndarray

    def margins(self, s, t) -> np.ndarray:
        """The slack h - a s - b t of every edge at each (s, t): edges first."""
        a, b, h = self.polygon.T.reshape(3, -1, *(1,) * np.broadcast(s, t).ndim)
        return h - (a * s + b * t)

    def feasible(self, s, t, margin: float = 0.0) -> bool:
        """Whether every (s, t) has a s + b t < h - margin on every edge."""
        return _inside(self.polygon, s, t, margin)

    def interval(self, s, t, margin: float = 0.0) -> tuple[float, float]:
        """The open interval (lo, hi) of shifts c that keep every (s + c, t) at
        a (s + c) + b t < h - margin on every edge: a > 0 bounds c above, a < 0
        below, a = 0 admits every c or none.  Empty, NaN included: not lo < hi."""
        a = self.polygon[:, 0]
        slack = (self.polygon[:, 2:] - margin) - self.polygon[:, :2] @ _stacked(s, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = slack / np.abs(a)[:, None]   # +inf on an a = 0 edge that admits all
        below, above = (float(np.min(bound[rows], initial=np.inf)) for rows in (a < 0, a >= 0))
        return -below, above


def hex_tension() -> SurfaceTension:
    return SurfaceTension("HexClosed", sigma_hex, grad_sigma_hex, hess_sigma_hex, _HEX_POLYGON)


def ff_tension(u: float) -> SurfaceTension:
    return SurfaceTension(f"FFClosed(u={u})",
                          lambda s, t: sigma_ff(s, t, u),
                          lambda s, t: grad_sigma_ff(s, t, u),
                          lambda s, t: hess_sigma_ff(s, t, u), _FF_POLYGON)


def quadratic_tension(qa: float, qb: float, qc: float,
                      box: float = 10.0) -> SurfaceTension:
    """sigma = (qa s^2 + 2 qb s t + qc t^2) / 2 on the box [-box, box]^2;
    exact Legendre oracle."""
    if qa <= 0 or qa * qc - qb * qb <= 0:
        raise OutOfRange("quadratic tension must be positive definite")

    def value(s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return 0.5 * (qa * s * s + 2 * qb * s * t + qc * t * t)

    def grad(s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return qa * s + qb * t, qb * s + qc * t

    def hess(s, t):
        shape = np.broadcast(np.asarray(s), np.asarray(t)).shape
        return (np.full(shape, qa), np.full(shape, qb), np.full(shape, qc))

    box_rows = np.array([(0, -1, box), (1, 0, box), (0, 1, box), (-1, 0, box)], dtype=float)
    return SurfaceTension(f"Quadratic({qa},{qb},{qc})", value, grad, hess, box_rows)


def numeric_tension(curve: SpectralCurve, tol: float = 1e-9) -> SurfaceTension:
    """Quadrature plus Legendre tension for an arbitrary curve.

    One `legendre_sigma` solve per point gives sigma, the maximizer (H, V)
    as the gradient and Hess sigma as the inverse of Hess f there; one
    np.vectorize lifts it to arrays.  The last point's result and the last
    (s, t) call's outputs are kept, so value, grad and hess on the same
    slopes share one solve per entry, and equal neighbouring entries share
    one.  The polygon is the curve's Newton polygon inset by LEGENDRE_INSET.
    """
    fef = FreeEnergyField(curve)

    @functools.lru_cache(maxsize=1)
    def solve(s, t):
        sig, (H, V) = legendre_sigma(fef, s, t, tol=tol)
        (h11, h12), (_, h22) = np.linalg.inv(grad_free_energy(curve, H, V)[1])
        return sig, H, V, h11, h12, h22

    lifted = np.vectorize(lambda s, t: solve(float(s), float(t)), otypes=[float] * 6)
    last = [(), ()]   # the last call's (s, t), copied, and its six output arrays

    def solved(s, t):
        st = (np.array(s, dtype=float), np.array(t, dtype=float))
        if not (last[0] and all(map(np.array_equal, last[0], st))):
            last[:] = st, lifted(*st)
        return last[1]

    return SurfaceTension("NumericLegendre",
                          lambda s, t: solved(s, t)[0],
                          lambda s, t: solved(s, t)[1:3],
                          lambda s, t: solved(s, t)[3:], _legendre_polygon(curve))


# ---------------------------------------------------------------------------
# partial Legendre transform
# ---------------------------------------------------------------------------

@dataclass
class PartialLegendre:
    """tau(p, xi) with its maximizer and closed second partials."""

    tau: float
    nu_star: float
    d2: float      # = -d2 sigma at (nu_star, xi)
    d11: float     # = 1 / d11 sigma
    d22: float     # = (d12 sigma)^2/d11 sigma - d22 sigma = -det/d11


def partial_legendre(sigma: SurfaceTension, p: float, xi: float) -> PartialLegendre:
    """Legendre transform of sigma in its first slot at fixed xi.

    Solves g(nu) = d1 sigma(nu, xi) - p = 0 by Newton on g' = d11 sigma from
    the middle of the slice `sigma.interval(0, xi)` inset by 1e-9, which is
    also the first bracket of the root.  Every evaluated point tightens it;
    a step that leaves it is bisected, and a trial point that rounding puts
    outside the polygon becomes its end on that side.  Raises DomainBoundary
    if the slice is empty, Unbounded if the bracket closes on an end of the
    slice without a change of sign.
    """
    a, b = sigma.interval(0.0, xi, margin=1e-9)
    if not a < b:
        raise DomainBoundary(f"xi={xi} leaves no feasible slice")
    nu, evaluated = 0.5 * (a + b), set()
    for _ in range(200):
        d1s, d2s = (float(x) for x in sigma.grad(nu, xi))
        h11, h12, h22 = (float(x) for x in sigma.hess(nu, xi))
        if h11 <= 0:
            raise NonConvergence("second derivative not positive at the maximizer")
        evaluated.add(nu)
        a, b = (nu, b) if d1s < p else (a, nu)
        step, ulps = (p - d1s) / h11, 4 * np.spacing(max(1.0, abs(nu)))
        if abs(step) <= ulps or b - a <= ulps and {a, b} <= evaluated:
            break
        if b - a <= ulps:
            raise Unbounded(f"p={p} outside the closure of the gradient range")
        nu_new = nu + step if a < nu + step < b else 0.5 * (a + b)
        while not sigma.feasible(nu_new, xi, margin=0.0):
            a, b = (nu_new, b) if nu_new < nu else (a, nu_new)
            nu_new = 0.5 * (a + b)
        nu = nu_new
    else:
        raise NonConvergence("partial Legendre solve did not converge")
    tau = p * nu - float(sigma.value(nu, xi))
    det = h11 * h22 - h12 * h12
    return PartialLegendre(tau=tau, nu_star=nu, d2=-d2s, d11=1.0 / h11, d22=-det / h11)


def hess_spectral_independence(s: float, t: float, u_list) -> float:
    """Max pairwise spread of det Hess sigma_ff over the spectral list."""
    dets = []
    for u in u_list:
        h11, h12, h22 = hess_sigma_ff(s, t, u)
        dets.append(float(h11 * h22 - h12 * h12))
    return max(dets) - min(dets) if len(dets) > 1 else 0.0
