"""The curve-torus crossing kernels as they were before layouts were cached.

Verbatim copies, for the bit-for-bit oracle in test_tension.py: each
layout is rebuilt on every call (the swapped reading through
`curve.transformed(swap=True)`), `_log_partials` sums every term of the
curve including the zero ones, and `_near_root` and `_fiber_roots` take
their full paths.  Helpers the cached route shares unchanged come from icelab.tension.
"""

from __future__ import annotations

import math

import numpy as np

from icelab.dimers import SpectralCurve
from icelab.errors import SingularLocus
from icelab.tension import N0, N_MAX, _TWO_PI, _arc_midpoints, _gauss_legendre, _unit_dft


def _fiber_layout(curve: SpectralCurve):
    """(i_min, z-degree, terms) of a curve read as a z-polynomial.

    Each term is (row, j, c): c w^j adds to the coefficient of z^(i_min + row).
    """
    i_all = [i for (i, _), _ in curve.coeffs]
    i_min = min(i_all)
    terms = tuple((i - i_min, j, c) for (i, j), c in curve.coeffs)
    return i_min, max(i_all) - i_min, terms


def _fiber_coeffs(layout, w: np.ndarray) -> np.ndarray:
    """Coefficients of P(., w) as a z-polynomial for each w on the fiber.

    Terms in w^0 and w^1 add c and c w, which is what c w^j gives there
    bit for bit, without forming the power.
    """
    _, deg, terms = layout
    coeffs = np.zeros((deg + 1, w.size), dtype=complex)
    for row, j, c in terms:
        coeffs[row] += c if j == 0 else c * w if j == 1 else c * w ** j
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
    coefficient as that of the trimmed polynomial.
    """
    deg = coeffs.shape[0] - 1
    n = coeffs.shape[1]
    if deg == 0:
        return np.zeros((n, 0), dtype=complex), coeffs[0]
    lead = coeffs[-1].copy()
    scale = np.abs(coeffs).max(axis=0)
    bad = np.abs(lead) < 1e-13 * np.maximum(scale, 1e-300)
    if deg == 1:
        # the eigenvalue of the 1x1 companion matrix, bit for bit
        roots = (-coeffs[0] / np.where(bad, 1.0, lead))[:, None]
    else:
        roots = np.full((n, deg), np.nan, dtype=complex)
        good = ~bad
        comp = np.zeros((int(good.sum()), deg, deg), dtype=complex)
        comp[:, 1:, :-1] = np.eye(deg - 1)
        comp[:, 0, :] = (-coeffs[deg - 1::-1, good] / lead[good]).T
        roots[good] = np.linalg.eigvals(comp)
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


def _jensen_inner(layout, H: float, V: float, psi: np.ndarray) -> np.ndarray:
    """Exact inner-circle mean of log|P| at each w = e^(V + i psi)."""
    roots, lead = _fiber_roots(_fiber_coeffs(layout, np.exp(V + 1j * psi)))
    finite = np.isfinite(roots)
    logmod = np.log(np.maximum(np.abs(np.where(finite, roots, 1.0)), 1e-300))
    # roots that escaped a trimmed fiber contribute nothing
    return layout[0] * H + np.log(np.abs(lead)) + np.where(
        finite, np.maximum(H, logmod), 0.0).sum(axis=1)


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
    """(z dP/dz, w dP/dw) times z^-i_min at points (z, w) of the curve."""
    z_pow = {row: z ** row for row in {row for row, _, _ in layout[2]}}
    w_pow = {j: w ** j for j in {j for _, j, _ in layout[2]}}
    z_dz = sum(c * row * z_pow[row] * w_pow[j] for row, j, c in layout[2])
    w_dw = sum(c * j * z_pow[row] * w_pow[j] for row, j, c in layout[2])
    return z_dz, w_dw


def _near_root(layout, H: float, V: float, psi: np.ndarray):
    """g = log|Z| - H (slope -Im rho), rho = -(w dP/dw) / (z dP/dz) at (Z, w) and
    Z, the root of P(., w = e^(V + i psi)) nearest |z| = e^H; psi mod 2 pi's argsort;
    and the root moduli at the arcs' midpoints (`_arc_midpoints`): one fiber solve."""
    m, order = psi.size, (psi % _TWO_PI).argsort()
    w = np.exp(V + 1j * np.concatenate((psi, _arc_midpoints(psi[order] % _TWO_PI))))
    roots = _fiber_roots(_fiber_coeffs(layout, w))[0]
    moduli = np.abs(roots)
    if not m:       # no angle (at z-degree 0 there is no root to pick)
        return psi, psi + 0j, psi + 0j, order, moduli
    gap = np.log(moduli[:m]) - H
    near = np.abs(gap).argmin(axis=1)
    z, g = roots[np.arange(m), near], gap[np.arange(m), near]
    z_dz, w_dw = _log_partials(layout, z, w[:m])
    return g, -w_dw / z_dz, z, order, moduli[m:]


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
    _, deg, terms = layout
    j_all = [j for _, j, _ in terms]
    de = deg * (max(j_all) - min(j_all))
    omega, dft = _unit_dft(de)
    a = _fiber_coeffs(layout, math.exp(V) * omega) * np.exp(H * np.arange(deg + 1))[:, None]
    sylvester = np.zeros((omega.size, 2 * deg, 2 * deg), dtype=complex)
    for k in range(deg):
        sylvester[:, k, k:k + deg + 1] = a[::-1].T
        sylvester[:, deg + k, k:k + deg + 1] = a.conj().T
    samples = np.linalg.det(sylvester)
    # R = 0 where p is real on a torus arc: every sample at roundoff of its
    # Hadamard bound, the product of its row norms, which is |a|^(2 deg)
    if (np.abs(samples) < 1e-12 * np.linalg.norm(a, axis=0) ** (2 * deg)).all():
        raise SingularLocus(f"the curve meets the torus at ({H}, {V}) along an arc")
    r = dft @ samples
    omega = _companion_roots(np.concatenate((r[de::-1], r[:de:-1])))
    ulps = np.spacing(_TWO_PI)
    with np.errstate(divide="ignore", invalid="ignore"):
        # near a tangency two roots merge and the eigenvalues keep them to
        # ~sqrt(eps); an exact zero root (R's lowest coefficient 0) logs to -inf
        psi = np.angle(omega[np.abs(np.log(np.abs(omega))) < 1e-6])
        g, rho, z, order, moduli = _near_root(layout, H, V, psi)
        last = np.inf
        for _ in range(16):
            step = g / rho.imag
            step = np.where(np.isfinite(step), step, 0.0)
            size = np.abs(step).max(initial=0.0)
            # stop at an ulp, or where roundoff stops the steps shrinking
            if size <= ulps or size >= last:
                break
            psi, last = psi + step, size
            g, rho, z, order, moduli = _near_root(layout, H, V, psi)
    count = _arc_counts(moduli, math.exp(H), H, V)
    return psi[order] % _TWO_PI, count, rho[order], z[order], float(np.abs(g).max(initial=0.0))


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
    theta = np.angle(z) % _TWO_PI
    order = theta.argsort()
    theta, rho_w = theta[order], rho[order]
    layout_w = _fiber_layout(curve.transformed(swap=True))
    w = np.exp(H + 1j * _arc_midpoints(theta))
    moduli_w = np.abs(_fiber_roots(_fiber_coeffs(layout_w, w))[0])
    mean_v, delta_w = _arc_mean(theta, _arc_counts(moduli_w, math.exp(V), H, V))
    hh = float(delta @ (-1.0 / rho.imag)) / _TWO_PI
    hv = float(delta @ (rho.real / rho.imag)) / _TWO_PI
    vv = float(delta_w @ ((rho_w.real ** 2 + rho_w.imag ** 2) / rho_w.imag)) / _TWO_PI
    return (layout[0] + mean_h, layout_w[0] + mean_v), np.array([[hh, hv], [hv, vv]])
