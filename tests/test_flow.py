import dataclasses
import math

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


@pytest.mark.parametrize("keep_every", [0, -1])
def test_hamilton_refuses_keep_every_below_one(keep_every):
    with pytest.raises(OutOfRange, match="keep_every"):
        fl.hamilton_evolve(sine_state(16), fl.hex_density(), (0.0, 0.1), 4,
                           keep_every=keep_every)


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
    expect = min(fl.shock_indicator(st, F, float(x)) for x in traj.xs[1:])
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
