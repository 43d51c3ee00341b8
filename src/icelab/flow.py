"""Hamiltonian picture of the limit shape on a cylinder.

State: periodic samples of the momentum p(y) and the slope t(y) = dh/dy,
combined into l(y) = p + i pi t.  The evolution in the cylinder axis x is
generated by H = int tau(p, dh/dy) dy with tau the partial Legendre
transform of the surface tension; the equations of motion read

    dp/dx = d/dy[ d2 tau(p, t) ],    dt/dx = d/dy[ d1 tau(p, t) ].

For the closed-form densities both tau-gradients assemble into a single
complex field Phi(l) = d2 tau + i pi d1 tau, with Phi'(l) = F(e^l) the
rational function of the spectral curve, so dl/dx = F(e^l) dl/dy.  Two
independent integrators are provided: classical 4th-order method of lines
with spectral y-derivatives, and the implicit complex-characteristic
solver of the Burgers form (values transported along straight lines whose
complex foot point is found by Newton continuation).

Normalization notes pinned by the analytic cross-checks in the tests:
the closed-form densities obey d^2 H / d l^2 = F(e^l) / (2 pi i), and the
characteristic transport uses the sign of the holomorphic equation of
motion (the reconstructed height satisfies the elliptic limit-shape
equation only with the sign used here).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dimers import SpectralCurve
from .errors import (BranchAmbiguous, DomainBoundary, OutOfRange,
                     ShockDetected, SingularBranch, StepFailure)
from .special import dilog
from .tension import (SurfaceTension, partial_legendre, sigma_ff, sigma_hex,
                      _ff_dilogs)

TWO_PI_I = 2.0j * np.pi
SHOCK_DELTA = 1e-3
FILTER_GROWTH = 1e4  # largest roundoff growth the default mode filter lets through


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------

@dataclass
class FlowState:
    """Periodic samples of momentum and slope on [0, L)."""

    L: float
    p: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.t = np.asarray(self.t, dtype=float)
        if self.p.shape != self.t.shape or self.p.ndim != 1:
            raise OutOfRange("p and t must be equal-length vectors")
        if not (np.all(np.isfinite(self.p)) and np.all(np.isfinite(self.t))):
            raise StepFailure("non-finite state")

    @property
    def ny(self) -> int:
        return self.p.size

    @property
    def ys(self) -> np.ndarray:
        return np.arange(self.ny) * (self.L / self.ny)

    @property
    def l(self) -> np.ndarray:
        return self.p + 1j * np.pi * self.t

    @staticmethod
    def from_l(L: float, l: np.ndarray) -> "FlowState":
        l = np.asarray(l, dtype=complex)
        return FlowState(L, l.real, l.imag / np.pi)


@functools.lru_cache(maxsize=16)
def _wavenumbers(n: int, L: float) -> np.ndarray:
    """Angular wavenumbers of an n-point periodic grid on [0, L), read-only."""
    k = np.fft.fftfreq(n, d=L / (2 * np.pi * n))
    k.flags.writeable = False
    return k


def spectral_dy(arr: np.ndarray, L: float) -> np.ndarray:
    """Spectral periodic derivative."""
    out = np.fft.ifft(1j * _wavenumbers(arr.shape[-1], L) * np.fft.fft(arr))
    return out.real if np.isrealobj(arr) else out


def spectral_antideriv(arr: np.ndarray, L: float) -> np.ndarray:
    """Periodic antiderivative of (arr - mean), anchored at y = 0."""
    k = _wavenumbers(arr.size, L)
    hat = np.fft.fft(arr)
    hat0 = hat[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        anti = np.where(k != 0, hat / (1j * k), 0.0)
    out = np.fft.ifft(anti)
    out = out.real if np.isrealobj(arr) else out
    return out - out[0] + 0.0 * hat0.real


def spectral_shift(arr: np.ndarray, delta: float, L: float) -> np.ndarray:
    """Evaluate the trigonometric interpolant at y + delta."""
    k = _wavenumbers(arr.size, L)
    out = np.fft.ifft(np.fft.fft(arr) * np.exp(1j * k * delta))
    return out.real if np.isrealobj(arr) else out


# ---------------------------------------------------------------------------
# Burgers functions
# ---------------------------------------------------------------------------

@dataclass
class BurgersFunction:
    """Characteristic-velocity function F(z) with derivative and tag."""

    f: object
    df: object
    tag: str

    def __call__(self, z):
        return self.f(z)


def hex_burgers() -> BurgersFunction:
    return BurgersFunction(lambda z: z / (1.0 - z),
                           lambda z: 1.0 / (1.0 - z) ** 2, "Hex")


def ff_burgers(u: float) -> BurgersFunction:
    cu, su = math.cos(u), math.sin(u)

    def den(z):
        return (cu - z * su) * (z * cu + su)

    def dden(z):
        return cu * cu - su * su - 2.0 * z * su * cu

    return BurgersFunction(lambda z: z / den(z),
                           lambda z: (den(z) - z * dden(z)) / den(z) ** 2,
                           f"FF(u={u})")


def _curve_partials(curve: SpectralCurve, z, w):
    pz = sum(c * i * z ** (i - 1) * w ** j for (i, j), c in curve.coeffs if i)
    pw = sum(c * j * z ** i * w ** (j - 1) for (i, j), c in curve.coeffs if j)
    return pz, pw


def burgers_from_curve(curve: SpectralCurve, probe: tuple[complex, complex]) -> BurgersFunction:
    """F(z) = (z / w) dP/dz / dP/dw on the branch through the probe point.

    The branch of w(z) is selected per evaluation as the root of P(z, .)
    nearest to the probe value; evaluation is meant near the probe (track
    continuity by re-probing for excursions).
    """
    z0, w0 = complex(probe[0]), complex(probe[1])
    d = curve.as_dict()
    j_all = sorted({j for (_, j) in d})
    j_min = j_all[0]

    def branch_w(z):
        coeffs = {}
        for (i, j), c in d.items():
            coeffs[j - j_min] = coeffs.get(j - j_min, 0.0) + c * z ** i
        deg = max(coeffs)
        poly = np.array([coeffs.get(k, 0.0) for k in range(deg, -1, -1)],
                        dtype=complex)
        roots = np.roots(poly)
        if roots.size == 0:
            raise SingularBranch("fiber polynomial has no roots")
        dist = np.abs(roots - w0)
        order = np.argsort(dist)
        if roots.size > 1 and dist[order[1]] - dist[order[0]] < 1e-9 * (1 + dist[order[0]]):
            raise BranchAmbiguous(f"two branches equally near the probe at z={z}")
        return roots[order[0]]

    def f_scalar(z):
        w = branch_w(z)
        pz, pw = _curve_partials(curve, z, w)
        if abs(pw) < 1e-13:
            raise SingularBranch(f"dP/dw vanished at z={z}")
        return (z / w) * pz / pw

    f = np.vectorize(f_scalar, otypes=[complex])

    def df(z, h=1e-6):
        return (f(z + h) - f(z - h)) / (2 * h)

    return BurgersFunction(f, df, "FromCurve")


# ---------------------------------------------------------------------------
# Hamiltonian densities
# ---------------------------------------------------------------------------

@dataclass
class HamiltonianDensity:
    """tau(p, xi) with first and second partials, vectorized over arrays."""

    tag: str
    nu_star: object
    value: object
    d2: object
    sigma: SurfaceTension | None = None
    burgers: BurgersFunction | None = None

    def d1(self, p, t):
        return self.nu_star(p, t)

    def second_partials(self, p, t):
        """(d11, d12, d22) via the Legendre relations at the maximizer."""
        nu = self.nu_star(p, t)
        h11, h12, h22 = self.sigma.hess(nu, t)
        det = h11 * h22 - h12 * h12
        return 1.0 / h11, -h12 / h11, -det / h11


def hex_density() -> HamiltonianDensity:
    from .tension import hex_tension

    def nu_star(p, t):
        p = np.asarray(p, dtype=float)
        t = np.asarray(t, dtype=float)
        ep = np.exp(p)
        return np.arctan2(ep * np.sin(np.pi * t), 1.0 - ep * np.cos(np.pi * t)) / np.pi

    def value(p, t):
        s = nu_star(p, t)
        return p * s - sigma_hex(s, t)

    def d2(p, t):
        l = np.asarray(p, dtype=float) + 1j * np.pi * np.asarray(t, dtype=float)
        return -np.log(np.abs(1.0 - np.exp(l)))

    return HamiltonianDensity("Hex", nu_star, value, d2,
                              sigma=hex_tension(), burgers=hex_burgers())


def ff_density(u: float) -> HamiltonianDensity:
    from .tension import ff_tension

    c2u, s2u = math.cos(2 * u), math.sin(2 * u)
    tu = math.tan(u)

    def nu_star(p, t):
        p = np.asarray(p, dtype=float)
        t = np.asarray(t, dtype=float)
        return np.arctan2(np.sin(np.pi * t),
                          c2u * np.cos(np.pi * t) - s2u * np.sinh(p)) / np.pi

    def value(p, t):
        s = nu_star(p, t)
        return p * s - sigma_ff(s, t, u)

    def d2(p, t):
        # Re ff_phi(p + i pi t), without the complex logarithms
        z = np.exp(np.asarray(p, dtype=float) + 1j * np.pi * np.asarray(t, dtype=float))
        return np.log(np.abs(1.0 + z / tu) / np.abs(1.0 - z * tu)) + math.log(tu)

    return HamiltonianDensity(f"FF(u={u})", nu_star, value, d2,
                              sigma=ff_tension(u), burgers=ff_burgers(u))


def density_from_tension(sigma: SurfaceTension, tag: str | None = None) -> HamiltonianDensity:
    """Generic density via pointwise partial Legendre transforms."""

    def lifted(field):
        return np.vectorize(lambda p, t: getattr(partial_legendre(sigma, p, t), field),
                            otypes=[float])

    return HamiltonianDensity(tag or f"Legendre[{sigma.variant}]", lifted("nu_star"),
                              lifted("tau"), lifted("d2"), sigma=sigma)


def hamiltonian(state: FlowState, dens: HamiltonianDensity, V: float = 0.0) -> float:
    """Periodic-trapezoid value of int tau(p + V, dh/dy) dy."""
    if dens.sigma is not None and not dens.sigma.feasible(
            dens.nu_star(state.p + V, state.t), state.t, margin=0.0):
        raise DomainBoundary("state leaves the tension domain")
    vals = dens.value(state.p + V, state.t)
    return float(np.mean(vals)) * state.L


# ---------------------------------------------------------------------------
# conserved quantities
# ---------------------------------------------------------------------------

def conserved_In(state: FlowState, n: int) -> complex:
    """I_n = int l(y)^n dy by the periodic trapezoid rule."""
    if n < 0:
        raise OutOfRange("moment order must be nonnegative")
    return complex(np.mean(state.l ** n) * state.L)


def conserved_In_bar(state: FlowState, n: int) -> complex:
    return complex(np.mean(np.conj(state.l) ** n) * state.L)


# ---------------------------------------------------------------------------
# shock diagnostics
# ---------------------------------------------------------------------------

def shock_indicator(state: FlowState, F: BurgersFunction, x: float) -> float:
    """min over y of |1 - x dG/dy| with G = F(e^l); shocks at 0."""
    g = F(np.exp(state.l))
    gprime = spectral_dy(g, state.L)
    return float(np.min(np.abs(1.0 - x * gprime)))


# ---------------------------------------------------------------------------
# method-of-lines Hamiltonian evolution
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    xs: np.ndarray
    states: list
    heights: list  # h(y) samples per x, anchored h(0, 0) = 0
    filter_modes: int = 0  # the mode cutoff the projection used
    filter_energy_removed: float = 0.0  # largest share of sum |l_hat|^2 cut in one step


def hamilton_evolve(state: FlowState, dens: HamiltonianDensity,
                    x_span: tuple[float, float], steps: int,
                    keep_every: int = 1, filter_modes: int | None = None) -> Trajectory:
    """Classical 4th-order method-of-lines integration of the flow.

    Evolves l = p + i pi t by dl/dx = d/dy Phi with Phi = d2 tau + i pi d1
    tau, one complex spectral derivative per stage; h rides along so
    cross-sections integrate exactly into height fields.  The x evolution
    of the elliptic limit-shape system amplifies Fourier mode k of
    roundoff like exp(2 pi k max|Im F(e^l0)| |x1 - x0| / L), so high modes
    must be kept out: after every step l is projected onto |k| <=
    filter_modes.  When the density carries its Burgers function F, the
    default cutoff is the largest k whose growth over the span is at most
    FILTER_GROWTH, clipped to [2, ny/4]; without F it is ny/4.  Either is
    far above the mode content of analytic initial data on any pre-shock
    horizon.  The trajectory records the cutoff and the largest share of
    spectral energy one projection removed.  Raises ShockDetected once the
    characteristic-map indicator of the initial data drops below the shock
    threshold, StepFailure on blow-up.
    """
    x0, x1 = x_span
    if steps < 1:
        raise OutOfRange("need at least one step")
    dx = (x1 - x0) / steps
    L = state.L
    ny = state.ny
    F = dens.burgers
    g0 = None if F is None else F(np.exp(state.l))
    if filter_modes is None:
        filter_modes = max(2, ny // 4)
        if g0 is not None:
            rate = 2 * np.pi * float(np.max(np.abs(g0.imag))) * abs(x1 - x0) / L
            if rate * filter_modes > math.log(FILTER_GROWTH):
                filter_modes = max(2, int(math.log(FILTER_GROWTH) / rate))
    cut = np.abs(np.fft.fftfreq(ny, d=1.0 / ny)) > filter_modes

    def project(arr):
        """arr on |k| <= filter_modes, and the share of energy removed."""
        hat = np.fft.fft(arr)
        power = hat.real ** 2 + hat.imag ** 2
        total = float(np.sum(power))
        hat[cut] = 0.0
        return np.fft.ifft(hat), float(np.sum(power[cut])) / total if total > 0 else 0.0

    l, _ = project(state.l)
    t = l.imag / np.pi
    h = spectral_antideriv(t, L) + np.mean(t) * state.ys

    def rhs(l):
        p, t = l.real, l.imag / np.pi
        d1 = np.asarray(dens.d1(p, t))
        phi = dens.d2(p, t) + 1j * np.pi * d1
        if not np.isfinite(phi).all():
            raise StepFailure("density partials blew up")
        if dens.sigma is not None and not dens.sigma.feasible(d1, t, margin=0.0):
            raise StepFailure("state left the tension domain")
        return spectral_dy(phi, L), d1

    gprime0 = None if g0 is None else spectral_dy(g0, L)

    xs = [x0]
    states = [FlowState.from_l(L, l)]
    heights = [h.copy()]
    removed = 0.0
    for k in range(steps):
        x = x0 + k * dx
        if gprime0 is not None:
            ind = float(np.min(np.abs(1.0 - (x + dx - x0) * gprime0)))
            if ind < SHOCK_DELTA:
                raise ShockDetected("characteristic map about to fold",
                                    x=x, diagnostics={"indicator": ind})
        k1, s1 = rhs(l)
        k2, s2 = rhs(l + 0.5 * dx * k1)
        k3, s3 = rhs(l + 0.5 * dx * k2)
        k4, s4 = rhs(l + dx * k3)
        l, share = project(l + dx / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))
        h = h + dx / 6.0 * (s1 + 2 * s2 + 2 * s3 + s4)
        if not np.isfinite(l).all():
            raise StepFailure(f"non-finite state at x={x + dx}")
        removed = max(removed, share)
        if (k + 1) % keep_every == 0 or k == steps - 1:
            xs.append(x + dx)
            states.append(FlowState.from_l(L, l))
            heights.append(h.copy())
    return Trajectory(np.array(xs), states, heights, filter_modes, removed)


# ---------------------------------------------------------------------------
# complex-characteristic Burgers solver
# ---------------------------------------------------------------------------

class _TrigInterp:
    """Entire trigonometric interpolant of periodic complex samples.

    Modes below the relative threshold are dropped: their coefficients
    carry only roundoff, which the factor exp(2 pi |k| Im zeta) of the
    analytic continuation would amplify catastrophically off the axis.
    """

    def __init__(self, samples: np.ndarray, L: float, rel_tol: float = 1e-13):
        n = samples.size
        self.L = L
        c = np.fft.fft(samples) / n
        k = np.fft.fftfreq(n, d=1.0 / n) * (2 * np.pi / L)
        keep = np.abs(c) > rel_tol * max(float(np.max(np.abs(c))), 1e-300)
        self.c = c[keep]
        self.k = k[keep]
        self.dc = 1j * self.k * self.c

    def with_deriv(self, zeta: np.ndarray):
        """The interpolant and its derivative at zeta, from one phase matrix."""
        phase = np.exp(1j * np.outer(zeta, self.k))
        return phase @ self.c, phase @ self.dc


def burgers_evolve(state: FlowState, F: BurgersFunction, x: float,
                   sign: int = +1, substeps: int | None = None,
                   newton_tol: float = 1e-13) -> FlowState:
    """Transport l along straight characteristics to axis position x.

    The value at (x, y) is l0(zeta) with the complex foot point solving
    zeta = y + sign * x F(e^(l0(zeta))).  The foot-point field is tracked
    along its branch by integrating d zeta / dx = F / (1 - x dG/dzeta)
    (G = F o exp o l0) with classical 4th-order steps, then polished by
    Newton to the requested tolerance.  The default sign is the one under
    which the reconstructed height satisfies the elliptic limit-shape
    equation.  Raises ShockDetected when the characteristic Jacobian
    degenerates or the foot points stop increasing across the period.
    """
    interp = _TrigInterp(state.l, state.L)
    ys = state.ys.astype(complex)
    zeta = ys.copy()
    if substeps is None:
        substeps = max(16, int(math.ceil(abs(x) / 0.005)))
    hy = state.L / state.ny
    dx = x / substeps

    speed_cap = 1e3 * state.L

    def foot(z):
        """l0(z), e^l0(z) and dG/dz, G = F o exp o l0."""
        lz, dlz = interp.with_deriv(z)
        ez = np.exp(lz)
        return lz, ez, F.df(ez) * ez * dlz

    def velocity(z, xk):
        _, ez, gprime = foot(z)
        jac = 1.0 - sign * xk * gprime
        if np.min(np.abs(jac)) < SHOCK_DELTA:
            raise ShockDetected("characteristic Jacobian degenerated",
                                x=xk, diagnostics={"min_jac": float(np.min(np.abs(jac)))})
        fz = F(ez)
        if np.max(np.abs(fz)) > speed_cap:
            raise StepFailure("characteristic passed near a pole of the velocity")
        return sign * fz / jac

    for k in range(substeps):
        xk = k * dx
        k1 = velocity(zeta, xk)
        k2 = velocity(zeta + 0.5 * dx * k1, xk + 0.5 * dx)
        k3 = velocity(zeta + 0.5 * dx * k2, xk + 0.5 * dx)
        k4 = velocity(zeta + dx * k3, xk + dx)
        zeta = zeta + dx / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(zeta)):
            raise StepFailure(f"foot points blew up at x={xk + dx}")

    # Newton polish on g(zeta) = zeta - sign*x*F(e^(l0(zeta))) - y
    for _ in range(30):
        lz, ez, gprime = foot(zeta)
        g = zeta - sign * x * F(ez) - ys
        if np.max(np.abs(g)) < newton_tol:
            break
        jac = 1.0 - sign * x * gprime
        if np.min(np.abs(jac)) < SHOCK_DELTA:
            raise ShockDetected("characteristic Jacobian degenerated", x=x)
        zeta = zeta - g / jac
    else:
        raise StepFailure(f"characteristic Newton failed to polish at x={x}")
    incr = np.diff(np.concatenate([zeta.real, [zeta.real[0] + state.L]]))
    if np.min(incr) < SHOCK_DELTA * hy:
        raise ShockDetected("characteristic foot points stopped increasing",
                            x=x, diagnostics={"min_increment": float(np.min(incr))})
    return FlowState.from_l(state.L, lz)


# ---------------------------------------------------------------------------
# Poisson commutation certificate
# ---------------------------------------------------------------------------

def _as_density(obj) -> HamiltonianDensity:
    if isinstance(obj, HamiltonianDensity):
        return obj
    if isinstance(obj, SurfaceTension):
        return density_from_tension(obj)
    raise OutOfRange("expected a SurfaceTension or HamiltonianDensity")


def poisson_bracket_residual(sig_u, sig_v, p_grid, xi_grid,
                             fd_step: float = 2e-3) -> float:
    """sup |d2 A - d1 B| over the (p, xi) grid by five-point differences.

    A = d11 tau_u d2 tau_v - d11 tau_v d2 tau_u and B the mixed-partial
    analogue; the sup vanishing is the closing step of the commuting-
    Hamiltonian argument.
    """
    du = _as_density(sig_u)
    dv = _as_density(sig_v)

    def a_fn(p, t):
        d11u, _, _ = du.second_partials(p, t)
        d11v, _, _ = dv.second_partials(p, t)
        return d11u * dv.d2(p, t) - d11v * du.d2(p, t)

    def b_fn(p, t):
        _, d12u, _ = du.second_partials(p, t)
        _, d12v, _ = dv.second_partials(p, t)
        return d12u * dv.d2(p, t) - d12v * du.d2(p, t)

    pg = np.asarray(p_grid, dtype=float)
    xg = np.asarray(xi_grid, dtype=float)
    pm, xm = np.meshgrid(pg, xg, indexing="ij")
    h = fd_step

    def d5(fn, wrt):
        if wrt == "xi":
            vals = [fn(pm, xm + k * h) for k in (-2, -1, 1, 2)]
        else:
            vals = [fn(pm + k * h, xm) for k in (-2, -1, 1, 2)]
        return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)

    resid = d5(a_fn, "xi") - d5(b_fn, "p")
    return float(np.max(np.abs(resid)))


def factored_poisson_residual(sig_u, sig_v, p_grid, xi_grid) -> float:
    """sup |d11 tau_u d11 tau_v (det Hess_v - det Hess_u)| on the grid."""
    du = _as_density(sig_u)
    dv = _as_density(sig_v)
    pg, xg = np.meshgrid(np.asarray(p_grid, float), np.asarray(xi_grid, float),
                         indexing="ij")
    d11u, _, d22u = du.second_partials(pg, xg)
    d11v, _, d22v = dv.second_partials(pg, xg)
    det_u = -d22u / d11u
    det_v = -d22v / d11v
    return float(np.max(np.abs(d11u * d11v * (det_v - det_u))))


# ---------------------------------------------------------------------------
# closed-form Hamiltonian densities in the holomorphic variable
# ---------------------------------------------------------------------------

def hamiltonian_hex(l, lbar=None):
    """(1/2 pi i)(Li2(e^l) - Li2(e^lbar)); lbar defaults to conj(l)."""
    l = complex(l)
    lb = complex(np.conj(l)) if lbar is None else complex(lbar)
    return (dilog(cmath.exp(l)) - dilog(cmath.exp(lb))) / TWO_PI_I


def hamiltonian_ff(l, u: float, lbar=None):
    """Four-dilogarithm free-fermion density; lbar defaults to conj(l)."""
    if not 0.0 < u < np.pi / 2:
        raise OutOfRange("spectral parameter u must lie in (0, pi/2)")
    l = np.asarray(l, dtype=complex)
    lb = np.conj(l) if lbar is None else np.asarray(lbar, dtype=complex)
    return (_ff_dilogs(l, u) - _ff_dilogs(lb, u)) / TWO_PI_I


def hex_phi(l):
    """Phi(l) = d2 tau + i pi d1 tau = -Log(1 - e^l) for the hexagonal case."""
    return -np.log(1.0 - np.exp(np.asarray(l, dtype=complex)))


def ff_phi(l, u: float):
    """The free-fermion Phi, normalized so Im Phi / pi is the slope."""
    z = np.exp(np.asarray(l, dtype=complex))
    tu = math.tan(u)
    return -np.log(1.0 - z * tu) + np.log(1.0 + z / tu) + math.log(tu)
