import dataclasses
import math

import numpy as np
import pytest

from icelab import dimers as dm
from icelab import flow as fl
from icelab import shapes as sh
from icelab import tension as tn
from icelab.errors import (BranchAmbiguous, DomainBoundary, ShockDetected,
                           StepFailure)


def sine_state(ny=128, tbar=0.6, amp=0.03, pbar=0.0, L=1.0):
    ys = np.arange(ny) / ny * L
    return fl.FlowState(L, np.full(ny, pbar), tbar + amp * np.sin(2 * np.pi * ys / L))


# ---------------------------------------------------------------------------
# densities and Hamiltonian values
# ---------------------------------------------------------------------------

def test_hex_density_matches_phi():
    dens = fl.hex_density()
    rng = np.random.default_rng(0)
    p = rng.uniform(-0.5, 0.5, 9)
    t = rng.uniform(0.15, 0.8, 9)
    phi = fl.hex_phi(p + 1j * np.pi * t)
    assert np.max(np.abs(dens.d1(p, t) - phi.imag / np.pi)) < 1e-13
    assert np.max(np.abs(dens.d2(p, t) - phi.real)) < 1e-13


def test_ff_density_matches_phi():
    u = 0.7
    dens = fl.ff_density(u)
    rng = np.random.default_rng(1)
    p = rng.uniform(-0.5, 0.5, 9)
    t = rng.uniform(0.15, 0.85, 9)
    phi = fl.ff_phi(p + 1j * np.pi * t, u)
    assert np.max(np.abs(dens.d1(p, t) - phi.imag / np.pi)) < 1e-13
    assert np.max(np.abs(dens.d2(p, t) - phi.real)) < 1e-13


def test_generic_density_matches_closed_form():
    dens_closed = fl.hex_density()
    dens_generic = fl.density_from_tension(tn.hex_tension())
    for p, t in [(0.2, 0.3), (-0.4, 0.55)]:
        assert abs(float(dens_generic.d1(p, t)) - float(dens_closed.d1(p, t))) < 1e-9
        assert abs(float(dens_generic.d2(p, t)) - float(dens_closed.d2(p, t))) < 1e-9
        assert abs(float(dens_generic.value(p, t)) - float(dens_closed.value(p, t))) < 1e-9


def test_hamiltonian_constant_state():
    dens = fl.hex_density()
    st = fl.FlowState(2.0, np.full(16, 0.1), np.full(16, 0.4))
    expect = 2.0 * float(dens.value(0.1, 0.4))
    assert abs(fl.hamiltonian(st, dens) - expect) < 1e-12


def test_hamiltonian_v_shift():
    dens = fl.hex_density()
    st = sine_state(32)
    shifted = fl.FlowState(st.L, st.p + 0.2, st.t)
    assert abs(fl.hamiltonian(st, dens, V=0.2) - fl.hamiltonian(shifted, dens)) < 1e-12


def test_hamiltonian_hex_critical_point():
    # at p = d1 sigma(1/3, 1/3) = 0 the density value is -sigma(1/3, 1/3)
    dens = fl.hex_density()
    L = 1.5
    st = fl.FlowState(L, np.zeros(8), np.full(8, 1.0 / 3.0))
    expect = L * (0.0 - float(tn.sigma_hex(1.0 / 3.0, 1.0 / 3.0)))
    assert abs(fl.hamiltonian(st, dens) - expect) < 1e-12


def test_hamiltonian_domain_error():
    dens = fl.hex_density()
    st = fl.FlowState(1.0, np.zeros(8), np.full(8, 1.2))
    with pytest.raises(DomainBoundary):
        fl.hamiltonian(st, dens)


# ---------------------------------------------------------------------------
# conserved quantities
# ---------------------------------------------------------------------------

def test_conserved_in_constant_state():
    st = fl.FlowState(2.0, np.full(8, 0.3), np.full(8, 0.25))
    l0 = 0.3 + 1j * np.pi * 0.25
    assert abs(fl.conserved_In(st, 1) - 2.0 * l0) < 1e-14
    assert abs(fl.conserved_In_bar(st, 1) - 2.0 * np.conj(l0)) < 1e-14


def test_burgers_conservation_and_refinement():
    F = fl.hex_burgers()
    st = sine_state(128)
    end = fl.burgers_evolve(st, F, 0.25)
    for n in range(1, 5):
        i0 = fl.conserved_In(st, n)
        assert abs(fl.conserved_In(end, n) - i0) <= 1e-6 * abs(i0)
    drifts = []
    for ny in (12, 24):
        stc = fl.FlowState(1.0, np.zeros(ny),
                           0.55 + 0.06 * np.sin(2 * np.pi * np.arange(ny) / ny))
        end = fl.burgers_evolve(stc, F, 0.3)
        drifts.append(max(abs(fl.conserved_In(end, n) - fl.conserved_In(stc, n))
                          / abs(fl.conserved_In(stc, n)) for n in (2, 3, 4)))
    assert drifts[1] < drifts[0]


def test_hamilton_casimir():
    st = sine_state(96)
    traj = fl.hamilton_evolve(st, fl.hex_density(), (0.0, 0.2), 128)
    i0 = fl.conserved_In(st, 1)
    assert abs(fl.conserved_In(traj.states[-1], 1) - i0) <= 1e-10 * abs(i0)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_constant_state_is_stationary():
    dens = fl.hex_density()
    F = fl.hex_burgers()
    st = fl.FlowState(1.0, np.full(32, 0.1), np.full(32, 0.4))
    traj = fl.hamilton_evolve(st, dens, (0.0, 0.3), 16)
    assert np.max(np.abs(traj.states[-1].p - 0.1)) < 1e-13
    assert np.max(np.abs(traj.states[-1].t - 0.4)) < 1e-13
    end = fl.burgers_evolve(st, F, 0.3)
    assert np.max(np.abs(end.l - st.l)) < 1e-13


def test_picture_equivalence_hex():
    st = sine_state(128)
    endB = fl.burgers_evolve(st, fl.hex_burgers(), 0.25)
    traj = fl.hamilton_evolve(st, fl.hex_density(), (0.0, 0.25), 256)
    assert np.max(np.abs(traj.states[-1].l - endB.l)) < 1e-5


def test_picture_equivalence_ff():
    u = 1.1
    st = sine_state(128, tbar=0.5)
    endB = fl.burgers_evolve(st, fl.ff_burgers(u), 0.15)
    traj = fl.hamilton_evolve(st, fl.ff_density(u), (0.0, 0.15), 192)
    assert np.max(np.abs(traj.states[-1].l - endB.l)) < 1e-5


def test_wrong_transport_sign_fails_equivalence():
    st = sine_state(96)
    good = fl.burgers_evolve(st, fl.hex_burgers(), 0.25)
    bad = fl.burgers_evolve(st, fl.hex_burgers(), 0.25, sign=-1)
    assert np.max(np.abs(good.l - bad.l)) > 1e-2


def test_evolved_height_mixed_partials():
    st = sine_state(96)
    dens = fl.hex_density()
    traj = fl.hamilton_evolve(st, dens, (0.0, 0.2), 128, keep_every=8)
    hs = np.array(traj.heights)
    dhdx = np.gradient(hs, traj.xs, axis=0)
    s_vals = np.array([np.asarray(dens.d1(s.p, s.t)) for s in traj.states])
    assert np.max(np.abs(dhdx[1:-1] - s_vals[1:-1])) < 1e-3


def test_burgers_reconstruction_satisfies_hex_pde():
    # the transport-sign oracle: the height rebuilt from the characteristic
    # flow satisfies the hexagonal elliptic equation (up to the centered-
    # difference truncation of the test grid itself)
    st = sine_state(128)
    F = fl.hex_burgers()
    T, L = 0.2, 1.0
    nx = 41
    xs = np.linspace(0.0, T, nx)
    dens = fl.hex_density()
    hvals = np.empty((nx, st.ny))
    svals = np.empty((nx, st.ny))
    for k, x in enumerate(xs):
        stx = fl.burgers_evolve(st, F, float(x)) if x > 0 else st
        hvals[k] = fl.spectral_antideriv(stx.t, L) + np.mean(stx.t) * st.ys
        svals[k] = np.asarray(dens.d1(stx.p, stx.t))
    # anchor each column by integrating dh/dx = s along y = 0
    anchor = np.concatenate([[0.0], np.cumsum(0.5 * (svals[1:, 0] + svals[:-1, 0])
                                              * np.diff(xs))])
    h = hvals - hvals[:, :1] + anchor[:, None]
    grid = sh.CylinderGrid(T, L, nx, st.ny)
    hf = sh.HeightField(grid, h, 0.0, 1.0, kappa=float(np.mean(st.t) * L))
    res = np.max(np.abs(sh.hex_el_residual(hf)))
    assert res < 0.05
    # the wrong transport sign violates the equation grossly
    h_bad = np.empty_like(h)
    for k, x in enumerate(xs):
        stx = fl.burgers_evolve(st, F, float(x), sign=-1) if x > 0 else st
        h_bad[k] = fl.spectral_antideriv(stx.t, L) + np.mean(stx.t) * st.ys
    h_bad = h_bad - h_bad[:, :1] + anchor[:, None]
    hf_bad = sh.HeightField(grid, h_bad, 0.0, 1.0, kappa=float(np.mean(st.t) * L))
    assert np.max(np.abs(sh.hex_el_residual(hf_bad))) > 10 * res


def test_shock_detected_synthetic():
    # real transport velocity: a textbook breaking wave
    F = fl.BurgersFunction(lambda z: np.log(z), lambda z: 1.0 / z, "log")
    ny = 64
    st = fl.FlowState(1.0, 0.3 * np.sin(2 * np.pi * np.arange(ny) / ny),
                      np.zeros(ny))
    out = fl.burgers_evolve(st, F, 0.3)
    assert np.all(np.isfinite(out.p))
    with pytest.raises(ShockDetected):
        fl.burgers_evolve(st, F, 0.8)


@pytest.mark.parametrize("ny", [128, 192, 256])
def test_default_filter_keeps_roundoff_out(ny):
    # criterion-9 data: with a cutoff of ny // 4, amplified roundoff reached
    # the result (sup gap 1.3e-8 at ny = 128, 2.4e-4 at ny = 192)
    st = sine_state(ny)
    endB = fl.burgers_evolve(st, fl.hex_burgers(), 0.25)
    traj = fl.hamilton_evolve(st, fl.hex_density(), (0.0, 0.25), 2 * (ny - 1))
    assert np.max(np.abs(traj.states[-1].l - endB.l)) <= 1e-10


def test_default_filter_modes_from_growth():
    st = sine_state(128)
    # max Im F(e^l0) = cot(0.285 pi) / 2 on this data: growth 1e4 at k = 14.6
    traj = fl.hamilton_evolve(st, fl.hex_density(), (0.0, 0.25), 8)
    assert traj.filter_modes == 14
    # a shorter horizon allows more modes, up to ny // 4
    assert fl.hamilton_evolve(st, fl.hex_density(), (0.0, 0.05), 8).filter_modes == 32
    # no Burgers function: ny // 4; an explicit cutoff is honoured
    generic = dataclasses.replace(fl.hex_density(), burgers=None)
    assert fl.hamilton_evolve(st, generic, (0.0, 0.25), 8).filter_modes == 32
    assert fl.hamilton_evolve(st, fl.hex_density(), (0.0, 0.25), 8,
                              filter_modes=5).filter_modes == 5


def test_filter_energy_removed_is_recorded():
    st = sine_state(128)
    traj = fl.hamilton_evolve(st, fl.hex_density(), (0.0, 0.25), 254)
    assert 0.0 <= traj.filter_energy_removed < 1e-20
    # a cutoff of one mode cuts the harmonics the flow itself generates
    coarse = fl.hamilton_evolve(sine_state(32, amp=0.1), fl.hex_density(),
                                (0.0, 0.05), 4, filter_modes=1)
    assert 1e-7 < coarse.filter_energy_removed < 1e-6


def test_hamilton_leaves_domain_raises():
    st = fl.FlowState(1.0, np.zeros(96),
                      0.5 + 0.25 * np.sin(2 * np.pi * np.arange(96) / 96))
    with pytest.raises((StepFailure, ShockDetected)):
        fl.hamilton_evolve(st, fl.hex_density(), (0.0, 3.0), 600)


def test_shock_indicator_far_from_one_pre_shock():
    st = sine_state(96)
    assert fl.shock_indicator(st, fl.hex_burgers(), 0.25) > 0.5


# ---------------------------------------------------------------------------
# Poisson commutation
# ---------------------------------------------------------------------------

def test_poisson_residual_self_is_zero():
    du = fl.ff_density(math.pi / 6)
    grid = np.linspace(-0.5, 0.5, 5)
    assert fl.poisson_bracket_residual(du, du, grid, np.linspace(0.3, 0.7, 5)) == 0.0


def test_poisson_residual_ff_pair():
    p_grid = np.linspace(-0.8, 0.8, 7)
    xi_grid = np.linspace(0.2, 0.8, 7)
    r = fl.poisson_bracket_residual(fl.ff_density(math.pi / 6),
                                    fl.ff_density(math.pi / 3), p_grid, xi_grid)
    assert r <= 1e-6


def test_poisson_residual_quadratic_control():
    qu = tn.quadratic_tension(1.0, 0.0, 1.0)
    qv = tn.quadratic_tension(1.0, 0.0, 2.0)
    grid = np.linspace(-1.0, 1.0, 5)
    assert fl.poisson_bracket_residual(qu, qv, grid, grid) >= 0.1


def test_poisson_residual_factorization():
    qu = tn.quadratic_tension(2.0, 0.3, 1.5)
    qv = tn.quadratic_tension(1.0, -0.2, 2.0)
    grid = np.linspace(-1.0, 1.0, 5)
    r_fd = fl.poisson_bracket_residual(qu, qv, grid, grid)
    r_fac = fl.factored_poisson_residual(qu, qv, grid, grid)
    assert abs(r_fd - r_fac) <= 1e-8


def test_hex_and_ff_hamiltonians_commute():
    # both Hessian determinants are pi^2, so the certificate vanishes
    r = fl.poisson_bracket_residual(fl.hex_density(), fl.ff_density(0.9),
                                    np.linspace(-0.4, 0.4, 5),
                                    np.linspace(0.25, 0.45, 5))
    assert r <= 1e-6


# ---------------------------------------------------------------------------
# closed-form Hamiltonians
# ---------------------------------------------------------------------------

def test_hamiltonian_second_derivative_normalization():
    h = 1e-4
    l0 = -1.0 + 0.5j
    d2 = (fl.hamiltonian_hex(l0 + h, np.conj(l0))
          - 2 * fl.hamiltonian_hex(l0, np.conj(l0))
          + fl.hamiltonian_hex(l0 - h, np.conj(l0))) / h ** 2
    expect = fl.hex_burgers()(np.exp(l0)) / (2j * np.pi)
    assert abs(d2 - expect) <= 1e-8
    u = 0.8
    d2f = (fl.hamiltonian_ff(l0 + h, u, np.conj(l0))
           - 2 * fl.hamiltonian_ff(l0, u, np.conj(l0))
           + fl.hamiltonian_ff(l0 - h, u, np.conj(l0))) / h ** 2
    expectf = fl.ff_burgers(u)(np.exp(l0)) / (2j * np.pi)
    assert abs(d2f - expectf) <= 1e-8


def test_hamiltonian_mixed_partial_zero():
    # the split into a function of l plus a function of lbar makes the
    # mixed partial vanish identically; the finite difference only sees
    # cancellation roundoff
    h = 1e-2
    l0 = -0.7 + 0.9j
    lb = np.conj(l0)
    mixed = (fl.hamiltonian_hex(l0 + h, lb + h) - fl.hamiltonian_hex(l0 + h, lb - h)
             - fl.hamiltonian_hex(l0 - h, lb + h)
             + fl.hamiltonian_hex(l0 - h, lb - h)) / (4 * h * h)
    assert abs(mixed) < 1e-10
    mixedf = (fl.hamiltonian_ff(l0 + h, 0.8, lb + h)
              - fl.hamiltonian_ff(l0 + h, 0.8, lb - h)
              - fl.hamiltonian_ff(l0 - h, 0.8, lb + h)
              + fl.hamiltonian_ff(l0 - h, 0.8, lb - h)) / (4 * h * h)
    assert abs(mixedf) < 1e-10


def test_ff_reduces_to_hex_under_momentum_shift():
    for du in (1e-2, 1e-3):
        u = math.pi / 2 - du
        shift = math.log(math.sin(2 * u)) - math.log(2.0)
        for l0 in (-1.0 + 0.5j, -0.3 + 1.4j):
            gap = abs(fl.hamiltonian_ff(l0 + shift, u) - fl.hamiltonian_hex(l0))
            assert gap <= 1e-4


def test_ff_closed_form_is_tau_up_to_affine():
    # H_ff(p, xi) - tau_ff(p, xi) is affine in (p, xi)
    u = 0.9
    dens = fl.ff_density(u)
    pts = [(p, xi) for p in (-0.3, 0.0, 0.3) for xi in (0.3, 0.5, 0.7)]
    deltas = np.array([fl.hamiltonian_ff(p + 1j * np.pi * xi, u).real
                       - float(dens.value(p, xi)) for p, xi in pts])
    A = np.column_stack([np.ones(len(pts)),
                         [p for p, _ in pts], [xi for _, xi in pts]])
    resid = deltas - A @ np.linalg.lstsq(A, deltas, rcond=None)[0]
    assert np.max(np.abs(resid)) < 1e-7


# ---------------------------------------------------------------------------
# Burgers functions from curves
# ---------------------------------------------------------------------------

def test_burgers_from_hex_curve():
    F = fl.burgers_from_curve(dm.hex_reference_curve(),
                              probe=(np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)))
    zs = np.exp(1j * np.pi / 3) * np.exp(0.1j * np.arange(-2, 3))
    ref = fl.hex_burgers()
    assert np.max(np.abs(F.f(zs) - ref(zs))) < 1e-12


def test_burgers_from_ff_curve():
    u = 0.7
    F = fl.burgers_from_curve(dm.ff_city_curve(u), probe=(1j, -1j))
    zs = 1j * np.exp(0.1 * np.arange(-2, 3))
    ref = fl.ff_burgers(u)
    assert np.max(np.abs(F.f(zs) - ref(zs))) < 1e-12


def test_burgers_from_curve_matches_hamiltonian_second_derivative():
    u = 0.7
    F = fl.burgers_from_curve(dm.ff_city_curve(u), probe=(1j, -1j))
    h = 1e-3
    for l0 in (0.1 + 1.4j, -0.2 + 1.7j):
        vals = [fl.hamiltonian_ff(l0 + k * h, u, np.conj(l0))
                for k in (-2, -1, 0, 1, 2)]
        d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3]
              - vals[4]) / (12 * h * h)
        assert abs(2j * np.pi * d2 - F.f(np.exp(l0))) <= 1e-8


def test_burgers_branch_ambiguous():
    curve = dm.SpectralCurve.from_dict({(0, 2): 1.0, (2, 0): -1.0})  # w^2 = z^2
    F = fl.burgers_from_curve(curve, probe=(1.0, 0.0))
    with pytest.raises(BranchAmbiguous):
        F.f(1.0)
