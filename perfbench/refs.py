"""Reference values computed apart from icelab, with mpmath.

Nothing here imports icelab.  The free energies are torus averages of
log|P| for curves that are linear in z,

    P(z, w) = a(w) z + b(w),   a(w) = a0 + a1 w,   b(w) = b0 + b1 w,

so Jensen's formula integrates the inner circle exactly,

    mean over phi of log|P(e^(H + i phi), w)| = max(H + log|a(w)|, log|b(w)|),

and the outer circle is integrated by tanh-sinh quadrature on pieces
broken at the kinks of that max.  With real coefficients the integrand
is even in psi, and |b|^2 = e^(2H) |a|^2 is linear in cos(psi), so there
is at most one kink on [0, pi] and it has a closed form.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 25

# Smyth: the Mahler measure m(1 + x + y) = (3 sqrt(3) / (4 pi)) L(chi_-3, 2),
# which is the hexagonal free energy at (H, V) = (0, 0).
SMYTH_M = 0.3230659472194505

# Coefficients (a0, a1, b0, b1) of P = (a0 + a1 w) z + (b0 + b1 w).
HEX = (-1.0, 0.0, 1.0, -1.0)          # 1 - z - w


def ff_coeffs(u: float) -> tuple:
    """cos(u) z w - cos(u) + sin(u) z + sin(u) w."""
    cu, su = math.cos(u), math.sin(u)
    return (su, cu, -cu, su)


def smyth_mahler() -> float:
    """m(1 + x + y) from the Dirichlet L-value, as a check of the formula."""
    with mp.workdps(DPS):
        lval = mp.nsum(lambda k: 1 / (3 * k + 1) ** 2 - 1 / (3 * k + 2) ** 2, [0, mp.inf])
        return float(3 * mp.sqrt(3) / (4 * mp.pi) * lval)


def free_energy(coeffs, H: float, V: float) -> float:
    """Torus free energy of a z-linear curve, accurate to ~1e-20."""
    with mp.workdps(DPS):
        a0, a1, b0, b1 = (mp.mpf(c) for c in coeffs)
        H = mp.mpf(H)
        r = mp.exp(mp.mpf(V))
        e2h = mp.exp(2 * H)
        a_sq0, b_sq0 = a0 * a0 + a1 * a1 * r * r, b0 * b0 + b1 * b1 * r * r
        a_sq1, b_sq1 = 2 * a0 * a1 * r, 2 * b0 * b1 * r

        def inner(psi):
            c = mp.cos(psi)
            return max(H + mp.log(a_sq0 + a_sq1 * c) / 2,
                       mp.log(b_sq0 + b_sq1 * c) / 2)

        pts = [mp.mpf(0)]
        den = b_sq1 - e2h * a_sq1
        if den != 0:
            c_kink = (e2h * a_sq0 - b_sq0) / den
            if -1 < c_kink < 1:
                pts.append(mp.acos(c_kink))
        pts.append(mp.pi)
        return float(mp.quad(inner, pts) / mp.pi)


def lobachevsky(x):
    """L(x) = -int_0^x log(2 sin t) dt = Cl2(2x) / 2."""
    return mp.clsin(2, 2 * x) / 2


def sigma_hex(s: float, t: float) -> float:
    """-(1/pi) (L(pi s) + L(pi t) + L(pi (1 - s - t)))."""
    with mp.workdps(DPS):
        s, t = mp.mpf(s), mp.mpf(t)
        return float(-(lobachevsky(mp.pi * s) + lobachevsky(mp.pi * t)
                       + lobachevsky(mp.pi * (1 - s - t))) / mp.pi)


def grad_sigma_hex(s: float, t: float) -> tuple[float, float]:
    """(H, V) = (log(sin pi s / sin pi(s+t)), log(sin pi t / sin pi(s+t)))."""
    with mp.workdps(DPS):
        s, t = mp.mpf(s), mp.mpf(t)
        den = mp.sin(mp.pi * (s + t))
        return (float(mp.log(mp.sin(mp.pi * s) / den)),
                float(mp.log(mp.sin(mp.pi * t) / den)))


def ff_gradient_map(s: float, t: float, u: float) -> tuple[float, float]:
    """(H, V) = grad sigma_ff(s, t): the maximizer of sH + tV - f(H, V)."""
    with mp.workdps(DPS):
        s, t, u = mp.mpf(s), mp.mpf(t), mp.mpf(u)

        def q(a, b):
            return (mp.sin(mp.pi * b) / mp.tan(mp.pi * a)
                    - mp.cos(2 * u) * mp.cos(mp.pi * b)) / mp.sin(2 * u)

        return float(-mp.asinh(q(s, t))), float(-mp.asinh(q(t, s)))


def sigma_ff(s: float, t: float, u: float) -> float:
    """Free-fermion tension sH + tV - f(H, V) at the gradient-map point."""
    H, V = ff_gradient_map(s, t, u)
    return s * H + t * V - free_energy(ff_coeffs(u), H, V)
