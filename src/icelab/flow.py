"""Hamiltonian picture of the limit shape on a cylinder.

State: periodic samples of the momentum p(y) and the slope t(y) = dh/dy,
combined into l(y) = p + i pi t.  The evolution in the cylinder axis x is
generated by H = int tau(p, dh/dy) dy with tau the partial Legendre
transform of the surface tension; the equations of motion read

    dp/dx = d/dy[ d2 tau(p, t) ],    dt/dx = d/dy[ d1 tau(p, t) ].

Both tau-gradients assemble into one complex field Phi(l) = d2 tau + i pi
d1 tau, and every density reads its partials off Phi.  For the closed-form
densities Phi is one logarithm and Phi'(l) = F(e^l) is the rational
function of the spectral curve, so dl/dx = F(e^l) dl/dy; for a generic
tension Phi takes one partial Legendre transform per sample.  Two
independent integrators are provided: classical 4th-order method of lines
on the periodic samples of l, projected onto its low Fourier modes at the
start and after every step, and the implicit complex-characteristic
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
from dataclasses import dataclass

import numpy as np

from . import tension
from .dimers import SpectralCurve
from .errors import (BranchAmbiguous, DomainBoundary, OutOfRange,
                     ShockDetected, SingularBranch, StepFailure)
from .special import dilog
from .tension import SurfaceTension, partial_legendre, _ff_dilogs

TWO_PI_I = 2.0j * np.pi
SHOCK_DELTA = 1e-3
FILTER_GROWTH = 1e4  # largest roundoff growth the default mode filter lets through
DY_MATRIX_MAX = 256  # largest sample count whose d/dy is a dense matrix product
FOLD_BLOCK = 64  # RK4 steps whose fold margins are formed in one expression


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------

def _check_period(L: float) -> None:
    if not (math.isfinite(L) and L > 0):
        raise OutOfRange(f"period L must be finite and positive, got {L}")


def sample_points(L: float, ny: int) -> np.ndarray:
    """The ny periodic sample points k L / ny of [0, L); ny < 1 or a period
    L that is not finite and positive raises OutOfRange."""
    _check_period(L)
    if ny < 1:
        raise OutOfRange("a flow state needs at least one sample")
    return np.arange(ny) * (L / ny)


@dataclass
class FlowState:
    """Periodic samples of momentum and slope on [0, L)."""

    L: float
    p: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        _check_period(self.L)
        self.p = np.asarray(self.p, dtype=float)
        self.t = np.asarray(self.t, dtype=float)
        if self.p.shape != self.t.shape or self.p.ndim != 1:
            raise OutOfRange("p and t must be equal-length vectors")
        if self.p.size == 0:
            raise OutOfRange("a flow state needs at least one sample")
        if not (np.all(np.isfinite(self.p)) and np.all(np.isfinite(self.t))):
            raise StepFailure("non-finite state")

    @property
    def ny(self) -> int:
        return self.p.size

    @property
    def ys(self) -> np.ndarray:
        return sample_points(self.L, self.ny)

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


@functools.lru_cache(maxsize=16)
def _dy_operator(n: int, L: float):
    """The spectral d/dy, ifft(i k fft(v)), on n periodic samples v of [0, L).

    Up to DY_MATRIX_MAX samples it is one product with the read-only dense
    matrix ifft diag(i k) fft, which at those sizes costs less than the
    call overhead of an FFT pair; above, it is the FFT pair, which needs
    no n x n storage and from about 384 samples on is also the faster.
    """
    ik = 1j * _wavenumbers(n, L)
    if n > DY_MATRIX_MAX:
        return lambda v: np.fft.ifft(ik * np.fft.fft(v))
    # row j of the transpose is the derivative of the j-th unit sample
    dy = np.ascontiguousarray(np.fft.ifft(ik * np.fft.fft(np.eye(n))).T)
    dy.flags.writeable = False
    return dy.dot


def spectral_dy(arr: np.ndarray, L: float) -> np.ndarray:
    """Spectral periodic derivative of the samples arr."""
    out = _dy_operator(arr.size, L)(arr)
    return out.real if np.isrealobj(arr) else out


def spectral_antideriv(arr: np.ndarray, L: float) -> np.ndarray:
    """Periodic antiderivative of (arr - mean), anchored at y = 0."""
    k = _wavenumbers(arr.size, L)
    with np.errstate(divide="ignore", invalid="ignore"):
        anti = np.where(k != 0, np.fft.fft(arr) / (1j * k), 0.0)
    out = np.fft.ifft(anti)
    out = out.real if np.isrealobj(arr) else out
    return out - out[0]


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
    tension.check_spectral_parameter(u)
    cu, su = math.cos(u), math.sin(u)

    def den(z):
        return (cu - z * su) * (z * cu + su)

    def dden(z):
        return cu * cu - su * su - 2.0 * z * su * cu

    return BurgersFunction(lambda z: z / den(z),
                           lambda z: (den(z) - z * dden(z)) / den(z) ** 2,
                           f"FF(u={u})")


def burgers_from_curve(curve: SpectralCurve, probe: tuple[complex, complex]) -> BurgersFunction:
    """F(z) = z dP/dz / (w dP/dw) on the branch through the probe point.

    The branch w(z) is the root of P(z, .) nearest to the probe's w, from one
    batched fiber solve of the swapped curve in `tension`, and F = -1 / rho
    from `tension._log_partials`.  Evaluation is meant near the probe.  Two
    roots equally near it raise BranchAmbiguous; no root or dP/dw = 0 raises
    SingularBranch.  df is the central difference with step 1e-6.
    """
    w0 = complex(probe[1])
    layout = tension._fiber_layout(curve, swap=True)

    def f(z):
        z = np.asarray(z, dtype=complex)
        roots = tension._fiber_roots(tension._fiber_coeffs(layout, z.ravel()))[0]
        dist = np.abs(roots - w0)
        ranked = np.sort(dist, axis=1)
        if roots.shape[1] == 0 or not np.isfinite(ranked[:, 0]).all():
            raise SingularBranch("fiber polynomial has no finite root")
        close = np.any(ranked[:, 1:2] - ranked[:, :1] < 1e-9 * (1 + ranked[:, :1]), axis=1)
        if close.any():
            raise BranchAmbiguous(f"branches equally near the probe at z={z.flat[close.argmax()]}")
        w = np.take_along_axis(roots, np.argmin(dist, axis=1)[:, None], axis=1)[:, 0]
        w_dw, z_dz = tension._log_partials(layout, w, z.ravel())
        if np.any(np.abs(w_dw) < 1e-13 * np.abs(w) ** (1 - layout.i_min)):
            raise SingularBranch("dP/dw vanished on the branch")
        return (z_dz / w_dw).reshape(z.shape)

    def df(z):
        return np.subtract(*f(np.stack((z + 1e-6, z - 1e-6)))) / 2e-6

    return BurgersFunction(f, df, "FromCurve")


# ---------------------------------------------------------------------------
# Hamiltonian densities
# ---------------------------------------------------------------------------

@dataclass
class HamiltonianDensity:
    """tau(p, xi) with first and second partials, vectorized over arrays;
    ``phi`` is Phi(l) = d2 tau + i pi d1 tau at complex samples l, and the
    partials are read off it.  d1 tau is the maximizer nu*."""

    tag: str
    d1: object
    value: object
    d2: object
    phi: object
    sigma: SurfaceTension
    burgers: BurgersFunction | None = None

    def partials(self, p, t):
        """(d2, d11, d12, d22) off one Phi evaluation; the second partials
        via the Legendre relations at the maximizer d1 = nu* = Im Phi / pi."""
        phi = self.phi(np.asarray(p, dtype=float) + 1j * np.pi * np.asarray(t, dtype=float))
        nu = phi.imag / np.pi
        h11, h12, h22 = self.sigma.hess(nu, t)
        det = h11 * h22 - h12 * h12
        return phi.real, 1.0 / h11, -h12 / h11, -det / h11


def _closed_density(tag, phi, sigma, burgers) -> HamiltonianDensity:
    """The density whose d1 tau is Im Phi / pi and d2 tau is Re Phi."""

    def at(p, t):
        return phi(np.asarray(p, dtype=float) + 1j * np.pi * np.asarray(t, dtype=float))

    def value(p, t):
        s = at(p, t).imag / np.pi
        return p * s - sigma.value(s, t)

    return HamiltonianDensity(tag, lambda p, t: at(p, t).imag / np.pi, value,
                              lambda p, t: at(p, t).real, phi, sigma, burgers)


def hex_density() -> HamiltonianDensity:
    return _closed_density("Hex", hex_phi, tension.hex_tension(), hex_burgers())


def ff_density(u: float) -> HamiltonianDensity:
    return _closed_density(f"FF(u={u})", lambda l: ff_phi(l, u), tension.ff_tension(u),
                           ff_burgers(u))


def density_from_tension(sigma: SurfaceTension, tag: str | None = None) -> HamiltonianDensity:
    """Generic density: Phi = d2 tau + i pi nu* from one partial Legendre
    transform per sample."""

    def phi_at(l):
        pl = partial_legendre(sigma, l.real, l.imag / np.pi)
        return pl.d2 + 1j * np.pi * pl.nu_star

    return _closed_density(tag or f"Legendre[{sigma.variant}]",
                           np.vectorize(phi_at, otypes=[complex]), sigma, None)


def hamiltonian(state: FlowState, dens: HamiltonianDensity, V: float = 0.0) -> float:
    """Periodic-trapezoid value of int tau(p + V, dh/dy) dy."""
    if not dens.sigma.feasible(dens.d1(state.p + V, state.t), state.t):
        raise DomainBoundary("state leaves the tension domain")
    return float(np.mean(dens.value(state.p + V, state.t))) * state.L


# ---------------------------------------------------------------------------
# conserved quantities
# ---------------------------------------------------------------------------

def conserved_In(state: FlowState, n: int) -> complex:
    """I_n = int l(y)^n dy by the periodic trapezoid rule."""
    if n < 0:
        raise OutOfRange("moment order must be nonnegative")
    return complex(np.mean(state.l ** n) * state.L)


def moment_drift(start: FlowState, states, orders=(1, 2, 3, 4)) -> float:
    """The largest relative drift |I_n(s) - I_n(start)| / |I_n(start)| over the
    states s and the orders n, with |I_n(start)| floored at 1e-30."""
    base = {n: conserved_In(start, n) for n in orders}
    return max(abs(conserved_In(s, n) - i0) / max(abs(i0), 1e-30)
               for s in states for n, i0 in base.items())


# ---------------------------------------------------------------------------
# shock diagnostics
# ---------------------------------------------------------------------------

def _fold_margins(gprime: np.ndarray, xs) -> np.ndarray:
    """min over y of |1 - x G'| for each x of xs, G' the samples of dG/dy."""
    xs = np.asarray(xs, dtype=float)
    return np.min(np.abs(1.0 - xs[..., None] * gprime), axis=-1)


# ---------------------------------------------------------------------------
# method-of-lines Hamiltonian evolution
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    xs: np.ndarray
    states: list
    heights: list  # h(y) samples per x, anchored h(0, 0) = 0
    filter_modes: int = 0  # the mode cutoff the projection used
    filter_energy_removed: float = 0.0  # largest share of sum |l_hat|^2 one projection cut
    rhs_evals: int = 0  # Phi evaluations
    min_shock_indicator: float | None = None  # None without a Burgers function


def hamilton_evolve(state: FlowState, dens: HamiltonianDensity,
                    x_span: tuple[float, float], steps: int,
                    keep_every: int = 1, filter_modes: int | None = None) -> Trajectory:
    """Classical 4th-order method-of-lines integration of the flow.

    Evolves l = p + i pi t by dl/dx = d/dy Phi with Phi = d2 tau + i pi d1
    tau.  The samples l stay in physical space through a step: each stage
    evaluates Phi once, at l + c dx Dy(Phi of the previous stage), where Dy
    is the spectral d/dy (a dense matrix product up to DY_MATRIX_MAX
    samples, an FFT pair above).  The step then takes one forward FFT of
    Phi1 + 2 Phi2 + 2 Phi3 + Phi4 into the coefficients l_hat and one
    inverse FFT back, two FFTs a step.  h rides along so cross-sections
    integrate exactly into height fields.  The x evolution of the elliptic
    limit-shape system amplifies Fourier mode k of roundoff like
    exp(2 pi k max|Im F(e^l0)| |x1 - x0| / L), so the initial data and
    every step are projected: the coefficients with |k| > filter_modes are
    zeroed.  When the density carries its Burgers function F, the default
    cutoff is the largest k whose growth over the span is at most
    FILTER_GROWTH, clipped to [2, ny/4]; without F it is ny/4.  Either
    bounds the growth of roundoff, not the solution's modes: analytic data
    can carry modes above the cutoff before any shock (hex data
    t = 0.6 + 0.1 sin 2 pi y at ny = 128 gets cutoff 11 at x = 0.25 and
    ends 4.8e-4 off burgers_evolve).

    Checks.  Each stage tests its Phi for finiteness by one scalar, sum
    |Phi|^2 (a sum that overflows is confirmed sample by sample), and the
    step stops at the first non-finite stage.  The four stages are tested
    for the tension domain together, once per step, on the stacked
    Im Phi / pi and Im l / pi.  When either test fails, or a stage's Phi
    or its input raises, each stage computed so far is checked on its
    own, in stage order, and the first failure raises StepFailure, so a
    step fails with the same error as if every stage were checked as it
    is made; an exception that no earlier stage explains is re-raised.
    The fold margins min_y |1 - (x - x0) G'|, G' = d/dy F(e^l0) at the
    end of each step, are formed FOLD_BLOCK steps at a time, and each
    raises ShockDetected at its own step.  The state is tested for
    finiteness only when the spectral energy sum |l_hat|^2 is not finite.

    The trajectory records the cutoff, the largest share of sum |l_hat|^2
    one projection removed (the initial one included, so initial data
    with modes above the cutoff shows here), the Phi evaluations and the
    smallest fold margin.  Raises OutOfRange for a non-finite x span,
    steps < 1, keep_every < 1 or a negative filter_modes, ShockDetected
    once the characteristic-map indicator of the initial data drops below
    the shock threshold, StepFailure on blow-up.
    """
    x0, x1 = x_span
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise OutOfRange(f"x span must be finite, got {tuple(x_span)}")
    if steps < 1:
        raise OutOfRange("need at least one step")
    if keep_every < 1:
        raise OutOfRange("keep_every must be at least 1")
    dx = (x1 - x0) / steps
    L, ny, F, sigma = state.L, state.ny, dens.burgers, dens.sigma
    g0 = None if F is None else F(np.exp(state.l))
    gprime0 = None if g0 is None else spectral_dy(g0, L)
    if filter_modes is None:
        filter_modes = max(2, ny // 4)
        if g0 is not None:
            rate = 2 * np.pi * float(np.max(np.abs(g0.imag))) * abs(x1 - x0) / L
            if rate * filter_modes > math.log(FILTER_GROWTH):
                filter_modes = max(2, int(math.log(FILTER_GROWTH) / rate))
    elif not filter_modes >= 0:
        raise OutOfRange(f"filter_modes must be nonnegative, got {filter_modes}")
    kept = int(min(filter_modes, ny))
    cut = slice(kept + 1, ny - kept)  # the fft-order indices of |k| > filter_modes
    dy = _dy_operator(ny, L)
    step_ik = dx / 6.0 * 1j * _wavenumbers(ny, L)
    stage_dx = (0.0, 0.5 * dx, 0.5 * dx, dx)

    def recheck(inputs, phis):
        """Each computed stage's checks on its own, in stage order."""
        for arg, phi in zip(inputs, phis):
            if not np.isfinite(phi).all():
                raise StepFailure("density partials blew up")
            if not sigma.feasible(phi.imag / np.pi, arg.imag / np.pi, margin=0.0):
                raise StepFailure("state left the tension domain")

    def project(lhat):
        """Zero the modes |k| > filter_modes of lhat; return sum |l_hat|^2
        and the share of it removed."""
        total = np.vdot(lhat, lhat).real
        high = lhat[cut]
        share = np.vdot(high, high).real / total if total > 0 else 0.0
        lhat[cut] = 0.0
        return total, float(share)

    lhat = np.fft.fft(state.l)
    removed = project(lhat)[1]
    l = np.fft.ifft(lhat)
    t = l.imag / np.pi
    h = spectral_antideriv(t, L) + np.mean(t) * state.ys

    xs = [x0]
    states = [FlowState.from_l(L, l)]
    heights = [h.copy()]
    min_ind = math.inf
    for k in range(steps):
        x = x0 + k * dx
        if gprime0 is not None:
            if k % FOLD_BLOCK == 0:
                block = np.arange(k, min(k + FOLD_BLOCK, steps))
                margins = _fold_margins(gprime0, x0 + block * dx + dx - x0).tolist()
            ind = margins[k % FOLD_BLOCK]
            if ind < SHOCK_DELTA:
                raise ShockDetected("characteristic map about to fold",
                                    x=x, diagnostics={"indicator": ind})
            min_ind = min(min_ind, ind)
        inputs, phis, finite = [], [], True
        try:
            for c in stage_dx:
                arg = l + c * dy(phis[-1]) if phis else l
                phi = dens.phi(arg)
                inputs.append(arg)
                phis.append(phi)
                if not math.isfinite(np.vdot(phi, phi).real) and not np.isfinite(phi).all():
                    finite = False
                    break
        except Exception:
            recheck(inputs, phis)
            raise
        if not finite or not sigma.feasible(np.array(phis).imag / np.pi,
                                            np.array(inputs).imag / np.pi, margin=0.0):
            recheck(inputs, phis)
        phi1, phi2, phi3, phi4 = phis
        acc = phi1 + 2 * phi2 + 2 * phi3 + phi4
        lhat = lhat + step_ik * np.fft.fft(acc)
        total, share = project(lhat)
        l = np.fft.ifft(lhat)
        h = h + dx / (6.0 * np.pi) * acc.imag  # the slope d1 tau is Im Phi / pi
        # a finite total bounds every |l_hat| and with it every sample of l
        if not math.isfinite(total) and not np.isfinite(l).all():
            raise StepFailure(f"non-finite state at x={x + dx}")
        removed = max(removed, share)
        if (k + 1) % keep_every == 0 or k == steps - 1:
            xs.append(x + dx)
            states.append(FlowState.from_l(L, l))
            heights.append(h.copy())
    return Trajectory(np.array(xs), states, heights, filter_modes, removed,
                      rhs_evals=4 * steps,  # four Phi evaluations per RK4 step
                      min_shock_indicator=None if gprime0 is None else min_ind)


# ---------------------------------------------------------------------------
# complex-characteristic Burgers solver
# ---------------------------------------------------------------------------

class _TrigInterp:
    """Entire trigonometric interpolant of periodic complex samples.

    Modes below 1e-13 of the largest are dropped: their coefficients
    carry only roundoff, which the factor exp(2 pi |k| Im zeta) of the
    analytic continuation would amplify catastrophically off the axis.
    """

    def __init__(self, samples: np.ndarray, L: float):
        n = samples.size
        self.L = L
        c = np.fft.fft(samples) / n
        k = np.fft.fftfreq(n, d=1.0 / n) * (2 * np.pi / L)
        keep = np.abs(c) > 1e-13 * max(float(np.max(np.abs(c))), 1e-300)
        self.c = c[keep]
        self.k = k[keep]
        self.dc = 1j * self.k * self.c

    def with_deriv(self, zeta: np.ndarray):
        """The interpolant and its derivative at zeta, from one phase matrix."""
        phase = np.exp(1j * np.outer(zeta, self.k))
        return phase @ self.c, phase @ self.dc


def burgers_evolve(state: FlowState, F: BurgersFunction, x: float) -> FlowState:
    """Transport l along straight characteristics to axis position x.

    The value at (x, y) is l0(zeta) with the complex foot point solving
    g(zeta) = zeta - x F(e^(l0(zeta))) - y = 0, the sign under which the
    reconstructed height satisfies the elliptic limit-shape equation.  The
    root is continued along its branch by Newton at the stations
    x_k = k x / m, m = max(16, ceil(|x| / 0.005)), each solved to 1e-13 in
    at most 30 iterations.  A station starts from the last one's root moved
    one step along the tangent d zeta / dx = F / (1 - x dG/dzeta)
    (G = F o exp o l0), with F and the Jacobian of that root's last
    iterate.  Every iterate is checked: |F| above 1e3 L raises StepFailure
    (a pole of the velocity), min |1 - x_k dG/dzeta| below SHOCK_DELTA
    raises ShockDetected at x_k, and a non-finite foot point or 30
    iterations without convergence raise StepFailure; the overflow on the
    way there is not warned about.  Raises OutOfRange for a non-finite x,
    ShockDetected when the foot points stop increasing across the period.
    """
    if not math.isfinite(x):
        raise OutOfRange(f"x must be finite, got {x}")
    interp = _TrigInterp(state.l, state.L)
    ys = state.ys.astype(complex)
    speed_cap = 1e3 * state.L
    stations = max(16, int(math.ceil(abs(x) / 0.005)))
    dx = x / stations
    zeta, tangent = ys, 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for xk in np.linspace(0.0, x, stations + 1).tolist():
            zeta = zeta + dx * tangent
            for _ in range(30):
                lz, dlz = interp.with_deriv(zeta)
                ez = np.exp(lz)
                fz = F(ez)
                if np.max(np.abs(fz)) > speed_cap:
                    raise StepFailure("characteristic passed near a pole of the velocity")
                jac = 1.0 - xk * (F.df(ez) * ez * dlz)
                min_jac = float(np.min(np.abs(jac)))
                if min_jac < SHOCK_DELTA:
                    raise ShockDetected("characteristic Jacobian degenerated",
                                        x=xk, diagnostics={"min_jac": min_jac})
                g = zeta - xk * fz - ys
                if np.max(np.abs(g)) < 1e-13:
                    break
                zeta = zeta - g / jac
                if not np.all(np.isfinite(zeta)):
                    raise StepFailure(f"foot points blew up at x={xk}")
            else:
                raise StepFailure(f"characteristic Newton failed to converge at x={xk}")
            tangent = fz / jac
    incr = np.diff(np.concatenate([zeta.real, [zeta.real[0] + state.L]]))
    if np.min(incr) < SHOCK_DELTA * (state.L / state.ny):
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


def poisson_bracket_residual(sig_u, sig_v, p_grid, xi_grid) -> float:
    """sup |d2 A - d1 B| over the (p, xi) grid by five-point differences.

    The step is 2e-3.  A = d11 tau_u d2 tau_v - d11 tau_v d2 tau_u and B
    the mixed-partial analogue; the sup vanishing is the closing step of
    the commuting-Hamiltonian argument.
    """
    du = _as_density(sig_u)
    dv = _as_density(sig_v)

    def combo(i):
        """(p, t) -> d1i tau_u d2 tau_v - d1i tau_v d2 tau_u: A for i = 0, B for 1;
        one Phi evaluation per density."""
        def at(p, t):
            (d2u, *su), (d2v, *sv) = du.partials(p, t), dv.partials(p, t)
            return su[i] * d2v - sv[i] * d2u
        return at

    pg = np.asarray(p_grid, dtype=float)
    xg = np.asarray(xi_grid, dtype=float)
    pm, xm = np.meshgrid(pg, xg, indexing="ij")
    h = 2e-3

    def d5(fn, dp, dxi):
        vals = [fn(pm + k * dp, xm + k * dxi) for k in (-2, -1, 1, 2)]
        return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)

    resid = d5(combo(0), 0.0, h) - d5(combo(1), h, 0.0)
    return float(np.max(np.abs(resid)))


def factored_poisson_residual(sig_u, sig_v, p_grid, xi_grid) -> float:
    """sup |d11 tau_u d11 tau_v (det Hess_v - det Hess_u)| on the grid."""
    du = _as_density(sig_u)
    dv = _as_density(sig_v)
    pg, xg = np.meshgrid(np.asarray(p_grid, float), np.asarray(xi_grid, float),
                         indexing="ij")
    _, d11u, _, d22u = du.partials(pg, xg)
    _, d11v, _, d22v = dv.partials(pg, xg)
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
    tension.check_spectral_parameter(u)
    l = np.asarray(l, dtype=complex)
    lb = np.conj(l) if lbar is None else np.asarray(lbar, dtype=complex)
    return (_ff_dilogs(l, u) - _ff_dilogs(lb, u)) / TWO_PI_I


def _log(q):
    """Principal Log q as log|q| + i arg q: np.log to a few ulp, faster near |q| = 1."""
    q = np.asarray(q)
    out = np.empty(q.shape, dtype=complex)
    np.log(np.abs(q), out=out.real)
    np.arctan2(q.imag, q.real, out=out.imag)
    return out


def hex_phi(l):
    """Phi(l) = d2 tau + i pi d1 tau = -Log(1 - e^l) for the hexagonal case."""
    return -_log(1.0 - np.exp(np.asarray(l, dtype=complex)))


def ff_phi(l, u: float):
    """The free-fermion Phi = Log((1 + z / tan u) / (1 - z tan u)) + log tan u,
    z = e^l, as one logarithm (Im z > 0 keeps the quotient off the cut)."""
    z = np.exp(np.asarray(l, dtype=complex))
    tu = math.tan(u)
    return _log((z + tu) / (1.0 - z * tu))
