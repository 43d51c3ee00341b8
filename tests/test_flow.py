import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from icelab import dimers as dm
from icelab import flow as fl
from icelab import shapes as sh
from icelab import tension as tn
from icelab.errors import (BranchAmbiguous, DomainBoundary, OutOfRange,
                           ShockDetected, StepFailure)
from icelab.flow import BurgersFunction, FlowState, _fold_margins, spectral_dy

import el_reference as er


def shock_indicator(state: FlowState, F: BurgersFunction, x: float) -> float:
    """min over y of |1 - x dG/dy| with G = F(e^l); shocks at 0."""
    g = F(np.exp(state.l))
    return float(_fold_margins(spectral_dy(g, state.L), x))


def sine_state(ny=128, tbar=0.6, amp=0.03, pbar=0.0, L=1.0):
    ys = np.arange(ny) / ny * L
    return fl.FlowState(L, np.full(ny, pbar), tbar + amp * np.sin(2 * np.pi * ys / L))


def test_flow_state_refuses_empty_samples():
    with pytest.raises(OutOfRange, match="at least one sample"):
        fl.FlowState(1.0, [], [])


@pytest.mark.parametrize("L", [0.0, -1.0, math.nan, math.inf])
def test_flow_state_and_sample_points_refuse_a_bad_period(L):
    with pytest.raises(OutOfRange, match="period L must be finite and positive"):
        fl.FlowState(L, np.zeros(4), np.full(4, 0.5))
    with pytest.raises(OutOfRange, match="period L must be finite and positive"):
        fl.sample_points(L, 4)


# ---------------------------------------------------------------------------
# densities and Hamiltonian values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("u", [0.0, -0.5, 1.6, math.pi / 2, math.nan])
def test_ff_density_and_burgers_refuse_u_outside_the_open_interval(u):
    for build in (fl.ff_density, fl.ff_burgers):
        with pytest.raises(OutOfRange, match=r"spectral parameter u must lie in \(0, pi/2\)"):
            build(u)


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
    # the closed forms read d1 and d2 off Phi, so the Legendre transform of
    # the tension is the independent check on Phi itself
    for dens_closed, sigma in ((fl.hex_density(), tn.hex_tension()),
                               (fl.ff_density(0.7), tn.ff_tension(0.7))):
        dens_generic = fl.density_from_tension(sigma)
        for p, t in [(0.2, 0.3), (-0.4, 0.55)]:
            assert abs(float(dens_generic.d1(p, t)) - float(dens_closed.d1(p, t))) < 1e-9
            assert abs(float(dens_generic.d2(p, t)) - float(dens_closed.d2(p, t))) < 1e-9
            assert abs(float(dens_generic.value(p, t))
                       - float(dens_closed.value(p, t))) < 1e-9
            l = np.array([p + 1j * np.pi * t])
            assert abs(dens_generic.phi(l)[0] - dens_closed.phi(l)[0]) < 1e-9


def test_ff_phi_is_the_two_logarithm_form():
    rng = np.random.default_rng(2)
    p = rng.uniform(-1.0, 1.0, 200)
    t = np.concatenate([rng.uniform(0.0, 1.0, 196), [1e-9, 0.5, 0.999, 1 - 1e-9]])
    l = p + 1j * np.pi * t
    for u in (0.3, 0.7, 1.1, 1.4):
        z, tu = np.exp(l), math.tan(u)
        two_logs = -np.log(1.0 - z * tu) + np.log(1.0 + z / tu) + math.log(tu)
        assert np.max(np.abs(fl.ff_phi(l, u) - two_logs)) < 1e-13


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


def wrong_sign(F):
    """F with its transport sign flipped; every product flips sign exactly."""
    return fl.BurgersFunction(lambda z: -F(z), lambda z: -F.df(z), f"-{F.tag}")


def test_wrong_transport_sign_fails_equivalence():
    st = sine_state(96)
    good = fl.burgers_evolve(st, fl.hex_burgers(), 0.25)
    bad = fl.burgers_evolve(st, wrong_sign(fl.hex_burgers()), 0.25)
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
    hf = sh.HeightField(grid, h, kappa=float(np.mean(st.t) * L))
    res = np.max(np.abs(er.hex_el_residual(hf)))
    assert res < 0.05
    # the wrong transport sign violates the equation grossly
    h_bad = np.empty_like(h)
    for k, x in enumerate(xs):
        stx = fl.burgers_evolve(st, wrong_sign(F), float(x)) if x > 0 else st
        h_bad[k] = fl.spectral_antideriv(stx.t, L) + np.mean(stx.t) * st.ys
    h_bad = h_bad - h_bad[:, :1] + anchor[:, None]
    hf_bad = sh.HeightField(grid, h_bad, kappa=float(np.mean(st.t) * L))
    assert np.max(np.abs(er.hex_el_residual(hf_bad))) > 10 * res


@pytest.mark.parametrize("n", [8, 31, 128, 256, 257, 512])
def test_spectral_dy_is_the_fft_pair(n):
    # both sides of DY_MATRIX_MAX, odd n, and the Nyquist mode of even n
    L = 1.7
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = np.fft.ifft(2j * np.pi * np.fft.fftfreq(n, d=L / n) * np.fft.fft(v))
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(fl.spectral_dy(v, L) - ref)) <= 1e-13 * scale
    assert np.max(np.abs(fl.spectral_dy(v.real, L) - np.fft.ifft(
        2j * np.pi * np.fft.fftfreq(n, d=L / n) * np.fft.fft(v.real)).real)) <= 1e-13 * scale
    matrix = getattr(fl._dy_operator(n, L), "__self__", None)
    if n <= fl.DY_MATRIX_MAX:
        assert matrix.shape == (n, n) and not matrix.flags.writeable
    else:
        assert matrix is None


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


def test_burgers_refuses_a_characteristic_near_a_pole():
    # t near 0 puts e^l0 near the pole z = 1 of the hex velocity z / (1 - z)
    ys = np.arange(32) / 32
    st = fl.FlowState(1.0, np.zeros(32), 1e-4 + 1e-5 * np.sin(2 * np.pi * ys))
    with pytest.raises(StepFailure, match="near a pole of the velocity"):
        fl.burgers_evolve(st, fl.hex_burgers(), 0.01)


def test_a_diverging_characteristic_fails_without_warnings():
    # the Newton iterate overflows e^l0 on its way to a non-finite foot point
    ys = np.arange(64) / 64
    st = fl.FlowState(1.0, np.full(64, 0.20157133608275618),
                      0.7922062596338384
                      + 0.07878086830125501 * np.sin(6 * np.pi * ys + 6.009165176125216))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepFailure, match="foot points blew up"):
            fl.burgers_evolve(st, fl.ff_burgers(1.1179596722955816), -0.4261685860741615)


@pytest.mark.parametrize("ny", [128, 192, 256])
def test_default_filter_keeps_roundoff_out(ny):
    # criterion-9 data: with a cutoff of ny // 4, amplified roundoff reached
    # the result (sup gap 1.3e-8 at ny = 128, 2.4e-4 at ny = 192)
    st = sine_state(ny)
    endB = fl.burgers_evolve(st, fl.hex_burgers(), 0.25)
    traj = fl.hamilton_evolve(st, fl.hex_density(), (0.0, 0.25), 2 * (ny - 1))
    assert np.max(np.abs(traj.states[-1].l - endB.l)) <= 1e-10


@pytest.mark.xfail(strict=True, reason="the default cutoff bounds roundoff growth and cuts "
                   "solution modes at x = 0.25 (4.8e-4 off burgers_evolve); Known defect "
                   "\"hamilton_evolve's default cutoff truncates the solution\"")
def test_default_filter_keeps_the_solution_modes():
    st = sine_state(128, amp=0.1)
    endB = fl.burgers_evolve(st, fl.hex_burgers(), 0.25)
    traj = fl.hamilton_evolve(st, fl.hex_density(), (0.0, 0.25), 512)
    assert np.max(np.abs(traj.states[-1].l - endB.l)) <= 1e-6


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


# final l of the parent integrator (physical-space RK4 with an fft/ifft
# projection per step) at y = k / 8, and its largest removed energy share
PINNED = {
    "hex": (5.521040471052672e-29, [
        -0.04509384178221615 + 1.8074976634389885j,
        -0.05639495770442945 + 1.8886592753229792j,
        -0.035869909751742916 + 1.9625333386141046j,
        2.4588303551523176e-13 + 1.9916745533500666j,
        0.0358699097517812 + 1.962533338614249j,
        0.0563949577035899 + 1.888659275323139j,
        0.04509384178195395 + 1.807497663439672j,
        8.249723865892752e-13 + 1.7705892746458674j]),
    "ff": (1.625776998640563e-28, [
        -0.06750763235217119 + 1.5060320154192899j,
        -0.07659504452571518 + 1.5990376953364087j,
        -0.04174084930103347 + 1.674901456803952j,
        0.017792474059790207 + 1.690872792266583j,
        0.06750763235217119 + 1.6355606381705032j,
        0.07659504452571515 + 1.5425549582533846j,
        0.0417408493010335 + 1.4666911967858411j,
        -0.017792474059790193 + 1.45071986132321j]),
}


@pytest.mark.parametrize("name, st, dens, T, steps", [
    ("hex", sine_state(128), fl.hex_density(), 0.25, 254),
    ("ff", sine_state(128, tbar=0.5), fl.ff_density(1.1), 0.15, 192)])
def test_hamilton_pinned_to_the_physical_space_integrator(name, st, dens, T, steps):
    traj = fl.hamilton_evolve(st, dens, (0.0, T), steps, keep_every=steps)
    removed, ls = PINNED[name]
    assert np.max(np.abs(traj.states[-1].l[::16] - np.array(ls))) <= 1e-12
    assert abs(traj.filter_energy_removed - removed) <= 1e-12


# parent values (RK4 stages through ifft(l_hat + c dx i k fft(Phi)), eight
# FFTs a step) at y = k L / 8: the largest removed energy share, the
# smallest shock indicator, and the final l and h
PINNED_STEP = {
    ("hex", 128): (5.433734387066957e-29, 0.9999999999999999, [
        -0.045093841782275684 + 1.8074976634386892j,
        -0.0563949577041847 + 1.8886592753230305j,
        -0.035869909751779505 + 1.9625333386142145j,
        7.384459221634756e-14 + 1.9916745533501234j,
        0.03586990975177996 + 1.9625333386140413j,
        0.05639495770369598 + 1.888659275323152j,
        0.045093841782062605 + 1.8074976634397564j,
        6.287545194266607e-13 + 1.7705892746460004j], [
        0.050730576087508604, 0.12420519350707232, 0.20092114630307253,
        0.2797746482927535, 0.3586281502824307, 0.435344103078427,
        0.5088187204980136, 0.5797746482927777]),
    ("ff", 128): (1.6258465630656742e-28, 0.9967709153497277, [
        -0.06750763235212097 + 1.506032015419261j,
        -0.07659504452578651 + 1.5990376953363152j,
        -0.04174084930116935 + 1.6749014568040064j,
        0.017792474059782938 + 1.6908727922666462j,
        0.067507632352121 + 1.6355606381705323j,
        0.07659504452578643 + 1.5425549582534779j,
        0.04174084930116935 + 1.4666911967857867j,
        -0.017792474059782917 + 1.450719861323147j], [
        0.07447450800669654, 0.13621401007829823, 0.20148792841453683,
        0.26869094457128423, 0.3350747885788171, 0.39833528650721534,
        0.45806136817097703, 0.5158583520142297]),
    ("hex", 384): (5.420104758870329e-29, 1.0, [
        -0.0450938417822728 + 1.8074976634386601j,
        -0.0563949577041796 + 1.8886592753230431j,
        -0.03586990975178538 + 1.9625333386142103j,
        8.089362513175047e-14 + 1.991674553350118j,
        0.03586990975177822 + 1.962533338614054j,
        0.05639495770368058 + 1.888659275323144j,
        0.0450938417820797 + 1.8074976634397417j,
        6.175661833770125e-13 + 1.7705892746460372j], [
        0.05073057608750864, 0.12420519350707236, 0.20092114630307248,
        0.27977464829275345, 0.35862815028243067, 0.4353441030784269,
        0.5088187204980135, 0.5797746482927773]),
    ("ff", 384): (1.6240324943094005e-28, 0.9967709153497318, [
        -0.06750763235218654 + 1.5060320154192532j,
        -0.07659504452574412 + 1.5990376953363619j,
        -0.04174084930115876 + 1.674901456803939j,
        0.017792474059732256 + 1.6908727922666806j,
        0.0675076323521786 + 1.6355606381705405j,
        0.07659504452574631 + 1.542554958253435j,
        0.041740849301164645 + 1.466691196785848j,
        -0.017792474059737023 + 1.450719861323103j], [
        0.07447450800669625, 0.13621401007829836, 0.20148792841453686,
        0.268690944571284, 0.3350747885788174, 0.3983352865072153,
        0.4580613681709769, 0.5158583520142298]),
}


@pytest.mark.parametrize("name, ny", list(PINNED_STEP))
def test_hamilton_step_pinned_to_the_spectral_stage_integrator(name, ny):
    # ny = 128 takes the dense d/dy matrix, ny = 384 the FFT pair
    if name == "hex":
        st, dens, T, steps = sine_state(ny), fl.hex_density(), 0.25, 254
    else:
        st, dens, T, steps = sine_state(ny, tbar=0.5), fl.ff_density(1.1), 0.15, 192
    traj = fl.hamilton_evolve(st, dens, (0.0, T), steps, keep_every=steps)
    removed, min_ind, ls, hs = PINNED_STEP[name, ny]
    assert np.max(np.abs(traj.states[-1].l[::ny // 8] - np.array(ls))) <= 1e-13
    assert np.max(np.abs(traj.heights[-1][::ny // 8] - np.array(hs))) <= 1e-13
    assert abs(traj.filter_energy_removed - removed) <= 1e-13
    assert abs(traj.min_shock_indicator - min_ind) <= 1e-13


@pytest.mark.parametrize("ny", [128, 384])
def test_hamilton_fold_raises_at_the_parent_step(ny):
    # Phi = (l - i pi/2)^2 / 2 + i pi/2 at t = 1/2 is real inviscid Burgers
    # for p, G = F(e^l) = p folds at x = 1 / (0.6 pi) = 0.5305
    F = fl.BurgersFunction(lambda z: np.log(z) - 0.5j * np.pi, lambda z: 1.0 / z, "real")
    dens = dataclasses.replace(fl.ff_density(1.1), burgers=F,
                               phi=lambda l: (l - 0.5j * np.pi) ** 2 / 2 + 0.5j * np.pi)
    ys = np.arange(ny) / ny
    st = fl.FlowState(1.0, 0.3 * np.sin(2 * np.pi * ys), np.full(ny, 0.5))
    with pytest.raises(ShockDetected) as err:
        fl.hamilton_evolve(st, dens, (0.0, 1.0), 200)
    assert err.value.x == 0.525
    assert abs(err.value.diagnostics["indicator"] - 0.0009735361584435331) <= 1e-13


def _staged_density(*outs):
    """ff_density(1.1) whose Phi is the constant outs[i] on its i-th call,
    or raises outs[i] when that is an exception."""
    calls = iter(outs)

    def phi(l):
        out = next(calls)
        if isinstance(out, Exception):
            raise out
        return np.full(l.shape, out, dtype=complex)

    return dataclasses.replace(fl.ff_density(1.1), phi=phi)


FEASIBLE, INFEASIBLE = 0.5j * np.pi, 2.0j * np.pi  # Im Phi / pi = 1/2 and 2


@pytest.mark.parametrize("outs, error, message", [
    ((INFEASIBLE, np.nan), StepFailure, "state left the tension domain"),
    ((FEASIBLE, FEASIBLE, np.nan), StepFailure, "density partials blew up"),
    ((INFEASIBLE, ValueError("stage 2")), StepFailure, "state left the tension domain"),
    ((FEASIBLE, ValueError("stage 2")), ValueError, "stage 2"),
    ((FEASIBLE,) * 7 + (np.nan,), StepFailure, "density partials blew up"),
    ((FEASIBLE,) * 7 + (INFEASIBLE,), StepFailure, "state left the tension domain")])
def test_hamilton_stage_failures_raise_in_stage_order(outs, error, message):
    # the first failing check in stage order wins, whatever a later stage
    # does; eight outputs are two steps, whose second fails at stage 4
    steps = (len(outs) - 1) // 4 + 1
    with pytest.raises(error, match=message):
        fl.hamilton_evolve(sine_state(16, tbar=0.5), _staged_density(*outs),
                           (0.0, 0.01 * steps), steps)


def test_filter_energy_removed_counts_the_initial_projection():
    # mode 20 is above the cutoff of 14, so the projection at x = 0 removes
    # the whole sine: its share of sum |l_hat|^2 is (amp^2 / 2) / (tbar^2 + amp^2 / 2)
    ys = np.arange(128) / 128
    st = fl.FlowState(1.0, np.zeros(128), 0.6 + 0.03 * np.sin(2 * np.pi * 20 * ys))
    traj = fl.hamilton_evolve(st, fl.hex_density(), (0.0, 0.25), 128)
    assert traj.filter_modes == 14
    assert np.ptp(traj.states[0].t) <= 1e-15
    share = (0.03 ** 2 / 2) / (0.6 ** 2 + 0.03 ** 2 / 2)
    assert abs(traj.filter_energy_removed - share) <= 1e-12 * share


def _reference_hamilton(state, dens, x_span, steps, keep_every=1, filter_modes=None):
    """hamilton_evolve's step loop with every check where it was first
    written: finiteness and feasibility per stage, one fold margin per
    step, a boolean mode mask and a finite-state test every step."""
    x0, x1 = x_span
    dx = (x1 - x0) / steps
    L, ny, F, sigma = state.L, state.ny, dens.burgers, dens.sigma
    g0 = None if F is None else F(np.exp(state.l))
    gprime0 = None if g0 is None else fl.spectral_dy(g0, L)
    if filter_modes is None:
        filter_modes = max(2, ny // 4)
        if g0 is not None:
            rate = 2 * np.pi * float(np.max(np.abs(g0.imag))) * abs(x1 - x0) / L
            if rate * filter_modes > math.log(fl.FILTER_GROWTH):
                filter_modes = max(2, int(math.log(fl.FILTER_GROWTH) / rate))
    cut = np.abs(np.fft.fftfreq(ny, d=1.0 / ny)) > filter_modes
    dy = fl._dy_operator(ny, L)
    step_ik = dx / 6.0 * 1j * fl._wavenumbers(ny, L)

    def stage(l):
        phi = dens.phi(l)
        if not np.isfinite(phi).all():
            raise StepFailure("density partials blew up")
        if not sigma.feasible(phi.imag / np.pi, l.imag / np.pi, margin=0.0):
            raise StepFailure("state left the tension domain")
        return phi

    def project(lhat):
        total = np.vdot(lhat, lhat).real
        high = lhat[cut]
        share = np.vdot(high, high).real / total if total > 0 else 0.0
        lhat[cut] = 0.0
        return share

    lhat = np.fft.fft(state.l)
    removed = float(project(lhat))
    l = np.fft.ifft(lhat)
    t = l.imag / np.pi
    h = fl.spectral_antideriv(t, L) + np.mean(t) * state.ys
    xs, states, heights = [x0], [fl.FlowState.from_l(L, l)], [h.copy()]
    min_ind = math.inf
    for k in range(steps):
        x = x0 + k * dx
        if gprime0 is not None:
            ind = float(np.min(np.abs(1.0 - (x + dx - x0) * gprime0)))
            if ind < fl.SHOCK_DELTA:
                raise ShockDetected("characteristic map about to fold",
                                    x=x, diagnostics={"indicator": ind})
            min_ind = min(min_ind, ind)
        phi1 = stage(l)
        phi2 = stage(l + 0.5 * dx * dy(phi1))
        phi3 = stage(l + 0.5 * dx * dy(phi2))
        phi4 = stage(l + dx * dy(phi3))
        acc = phi1 + 2 * phi2 + 2 * phi3 + phi4
        lhat = lhat + step_ik * np.fft.fft(acc)
        share = project(lhat)
        l = np.fft.ifft(lhat)
        h = h + dx / (6.0 * np.pi) * acc.imag
        if not np.isfinite(l).all():
            raise StepFailure(f"non-finite state at x={x + dx}")
        removed = max(removed, float(share))
        if (k + 1) % keep_every == 0 or k == steps - 1:
            xs.append(x + dx)
            states.append(fl.FlowState.from_l(L, l))
            heights.append(h.copy())
    return fl.Trajectory(np.array(xs), states, heights, filter_modes, removed,
                         rhs_evals=4 * steps,
                         min_shock_indicator=None if gprime0 is None else min_ind)


def _outcome(evolve, *args, **kwargs):
    try:
        return evolve(*args, **kwargs)
    except Exception as err:
        return err


def _fold_density():
    """The real inviscid-Burgers density of the fold test above."""
    F = fl.BurgersFunction(lambda z: np.log(z) - 0.5j * np.pi, lambda z: 1.0 / z, "real")
    return dataclasses.replace(fl.ff_density(1.1), burgers=F,
                               phi=lambda l: (l - 0.5j * np.pi) ** 2 / 2 + 0.5j * np.pi)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(kind=hst.sampled_from(["hex", "ff", "generic", "fold"]),
       ny=hst.sampled_from([16, 128, 300]), steps=hst.sampled_from([1, 63, 64, 65, 130]),
       keep=hst.sampled_from(["1", "7", "steps"]),
       cutoff=hst.sampled_from(["default", "0", "1", "half-1", "half", "ny"]),
       T=hst.floats(0.02, 0.3), amp=hst.floats(0.01, 0.05))
def test_hamilton_is_bit_identical_to_the_reference_loop(kind, ny, steps, keep, cutoff, T, amp):
    # ny = 16 and 128 take the dense d/dy, ny = 300 the FFT pair; 63, 64,
    # 65 and 130 steps end inside, on and past a block of fold margins, and
    # the fold data folds at x = 0.5305 of its span (0, 1 + T)
    if kind == "fold":
        dens, amp, T = _fold_density(), 0.3, 1.0 + T
        st = fl.FlowState(1.0, amp * np.sin(2 * np.pi * np.arange(ny) / ny), np.full(ny, 0.5))
    else:
        dens = {"hex": fl.hex_density(), "ff": fl.ff_density(1.1),
                "generic": dataclasses.replace(fl.hex_density(), burgers=None)}[kind]
        st = sine_state(ny, tbar=0.5 if kind == "ff" else 0.6, amp=amp)
    keep_every = {"1": 1, "7": 7, "steps": steps}[keep]
    filter_modes = {"default": None, "0": 0, "1": 1, "half-1": ny // 2 - 1,
                    "half": ny // 2, "ny": ny}[cutoff]
    got, want = (_outcome(evolve, st, dens, (0.0, T), steps, keep_every=keep_every,
                          filter_modes=filter_modes)
                 for evolve in (fl.hamilton_evolve, _reference_hamilton))
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        assert getattr(got, "x", None) == getattr(want, "x", None)
        assert getattr(got, "diagnostics", None) == getattr(want, "diagnostics", None)
        return
    assert np.array_equal(got.xs, want.xs)
    assert len(got.states) == len(want.states) == len(got.heights)
    assert all(np.array_equal(a.l, b.l) for a, b in zip(got.states, want.states))
    assert all(np.array_equal(a, b) for a, b in zip(got.heights, want.heights))
    assert got.min_shock_indicator == want.min_shock_indicator
    assert got.rhs_evals == want.rhs_evals
    assert got.filter_modes == want.filter_modes
    assert got.filter_energy_removed == want.filter_energy_removed


@pytest.mark.parametrize("keep_every", [0, -1])
def test_hamilton_refuses_keep_every_below_one(keep_every):
    with pytest.raises(OutOfRange, match="keep_every"):
        fl.hamilton_evolve(sine_state(16), fl.hex_density(), (0.0, 0.1), 4,
                           keep_every=keep_every)


@pytest.mark.parametrize("filter_modes", [-1, math.nan])
def test_hamilton_refuses_a_negative_cutoff(filter_modes):
    with pytest.raises(OutOfRange, match="filter_modes must be nonnegative"):
        fl.hamilton_evolve(sine_state(16), fl.hex_density(), (0.0, 0.1), 4,
                           filter_modes=filter_modes)


def test_hamilton_finiteness_test_survives_an_overflowing_sum():
    # sum |Phi|^2 overflows to inf on finite samples, and the step goes on:
    # Im Phi / pi = 1/2 is feasible, and over a span of 1e-250 the roundoff
    # of d/dy on Re Phi = 1e200 moves no stage out of the domain
    dens = dataclasses.replace(fl.ff_density(1.1), burgers=None,
                               phi=lambda l: np.full(l.shape, 1e200 + 0.5j * np.pi))
    st = sine_state(16, tbar=0.5)
    traj = fl.hamilton_evolve(st, dens, (0.0, 1e-250), 2)
    assert np.max(np.abs(traj.states[-1].l - traj.states[0].l)) <= 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_evolvers_refuse_a_non_finite_x(bad):
    st = sine_state(16)
    for span in ((0.0, bad), (bad, 0.1)):
        with pytest.raises(OutOfRange, match="x span must be finite"):
            fl.hamilton_evolve(st, fl.hex_density(), span, 4)
    with pytest.raises(OutOfRange, match="x must be finite"):
        fl.burgers_evolve(st, fl.hex_burgers(), bad)


def test_hamilton_counters():
    st = sine_state(64)
    F = fl.hex_burgers()
    traj = fl.hamilton_evolve(st, fl.hex_density(), (0.0, 0.25), 40)
    assert traj.rhs_evals == 160
    expect = min(shock_indicator(st, F, float(x)) for x in traj.xs[1:])
    assert abs(traj.min_shock_indicator - expect) <= 1e-12
    generic = dataclasses.replace(fl.hex_density(), burgers=None)
    traj = fl.hamilton_evolve(st, generic, (0.0, 0.25), 8)
    assert traj.rhs_evals == 32 and traj.min_shock_indicator is None


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(variant=hst.sampled_from(["hex", "ff"]), u=hst.floats(1.1, 1.25),
       dt=hst.floats(-0.05, 0.05), amp=hst.floats(0.01, 0.03),
       phase=hst.floats(0.0, 2 * math.pi), mode=hst.sampled_from([1, 2]))
def test_hamilton_conserves_moments_property(variant, u, dt, amp, phase, mode):
    ny = 64
    ys = np.arange(ny) / ny
    if variant == "hex":
        dens, tbar, T = fl.hex_density(), 0.6, 0.25 / mode
    else:
        dens, tbar, T = fl.ff_density(u), 0.5, 0.15 / mode
    st = fl.FlowState(1.0, np.zeros(ny),
                      tbar + dt + amp * np.sin(2 * np.pi * mode * ys + phase))
    end = fl.hamilton_evolve(st, dens, (0.0, T), 2 * (ny - 1),
                             keep_every=2 * (ny - 1)).states[-1]
    for n in range(1, 5):
        i0 = fl.conserved_In(st, n)
        assert abs(fl.conserved_In(end, n) - i0) <= 1e-6 * abs(i0)


def test_hamilton_leaves_domain_raises():
    st = fl.FlowState(1.0, np.zeros(96),
                      0.5 + 0.25 * np.sin(2 * np.pi * np.arange(96) / 96))
    with pytest.raises((StepFailure, ShockDetected)):
        fl.hamilton_evolve(st, fl.hex_density(), (0.0, 3.0), 600)


def test_shock_indicator_far_from_one_pre_shock():
    st = sine_state(96)
    assert shock_indicator(st, fl.hex_burgers(), 0.25) > 0.5


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


def test_poisson_residual_solves_each_generic_sample_once(monkeypatch):
    # 5 x 5 points, four offsets in each of two directions, two densities:
    # 400 distinct (density, point) samples, one partial Legendre solve each
    real, calls = fl.partial_legendre, []

    def counted(sigma, p, xi):
        calls.append((sigma.variant, p, xi))
        return real(sigma, p, xi)

    monkeypatch.setattr(fl, "partial_legendre", counted)
    grid = np.linspace(-1.0, 1.0, 5)
    r = fl.poisson_bracket_residual(tn.quadratic_tension(1.0, 0.0, 1.0),
                                    tn.quadratic_tension(1.0, 0.0, 2.0), grid, grid)
    assert len(calls) == len(set(calls)) == 400
    assert r == 1.0000000000000193          # as it read with two solves per sample


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
