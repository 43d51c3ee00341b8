import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from icelab.errors import BranchCut
from icelab import special
from icelab.special import dilog, lobachevsky
from icelab.tension import _LOB_Q, lobachevsky_fast


def test_bernoulli_table_is_exact():
    # B_0..B_48 from sum_{k<=m} C(m+1, k) B_k = 0 in exact rationals, each
    # rounded once (scipy's bernoulli(48) is off by 1.7e-12 relative at B_4)
    b = [Fraction(1)]
    for m in range(1, 49):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    assert np.array_equal(special._BERN, [float(v) for v in b])


def test_dilog_trivials():
    assert dilog(0.0) == 0.0
    assert lobachevsky(0.0) == 0.0
    assert lobachevsky(math.pi) == 0.0


def test_dilog_near_one_series_oracle():
    # power series converged to 1e-11 at z = 0.99 (tail below 1e-12)
    z = 0.99
    series = sum(z ** k / k ** 2 for k in range(1, 4000))
    assert abs(dilog(z) - series) < 1e-11
    # approach to the cut endpoint
    assert abs(dilog(1.0 - 1e-12) - math.pi ** 2 / 6) < 1e-10


def test_dilog_against_mpmath():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(60):
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        if abs(z.imag) < 1e-3 and z.real >= 0.9:
            continue
        ref = complex(mp.polylog(2, z))
        worst = max(worst, abs(dilog(z) - ref))
    assert worst < 5e-14


def test_dilog_on_arrays_matches_mpmath_in_every_branch():
    rng = np.random.default_rng(12)
    radius, angle = rng.uniform(0.0, 1.0, 40), rng.uniform(-np.pi, np.pi, 40)
    series = 0.4 * radius * np.exp(1j * angle)
    reflection = 1.0 - 0.25 * radius * np.exp(1j * angle)
    bernoulli = np.exp(1j * angle) * rng.uniform(0.45, 1.0, 40)
    bernoulli = bernoulli[np.abs(1.0 - bernoulli) > 0.3]
    inside = np.concatenate([series, reflection, bernoulli])
    z = np.concatenate([inside, 1.0 / inside[np.abs(inside) > 1e-3]])
    z = z[(z.imag != 0.0) | (z.real < 1.0)]
    got = dilog(z)
    want = np.array([complex(mp.polylog(2, complex(v))) for v in z])
    assert np.max(np.abs(got - want)) <= 1e-14
    assert all(got[k] == dilog(z[k]) for k in range(z.size))
    assert np.array_equal(dilog(z[:20].reshape(4, 5)), got[:20].reshape(4, 5))


def test_dilog_bernoulli_branch_against_mpmath():
    # 0.4 < |z| <= 1 away from the reflection disc: the series in -log(1 - z)
    rng = np.random.default_rng(4243)
    z = rng.uniform(0.4, 1.0, 300) * np.exp(1j * rng.uniform(-np.pi, np.pi, 300))
    z = z[(np.abs(z) > 0.4) & (np.abs(1.0 - z) > 0.26)]
    want = np.array([complex(mp.polylog(2, complex(v))) for v in z])
    assert np.max(np.abs(dilog(z) - want)) <= 4e-16


def test_dilog_on_and_near_the_unit_circle_against_mpmath():
    # |z| = 1 and 1 -+ 1e-6, from both sides of the cut's end z = 1, where
    # |u| reaches pi/3; and points on both sides of Re z = 1/2, where the
    # fold switches between its identities
    args = np.concatenate([np.geomspace(1e-6, np.pi, 80), -np.geomspace(1e-9, 1.0, 40)])
    circles = [r * np.exp(1j * args) for r in (1.0 - 1e-6, 1.0, 1.0 + 1e-6)]
    t = np.linspace(-1.5, 1.5, 61)
    half = [0.5 + d + 1j * t for d in (-1e-3, -1e-12, 0.0, 1e-12, 1e-3)]
    z = np.concatenate(circles + half)
    with mp.workdps(30):
        want = np.array([complex(mp.polylog(2, mp.mpc(v))) for v in z])
    assert np.max(np.abs(dilog(z) - want)) <= 5e-15


@settings(max_examples=300, deadline=None)
@given(st.floats(-2.3, 2.3), st.floats(1e-6, math.pi - 1e-6), st.booleans())
def test_dilog_reflection_and_inversion_identities(log_r, angle, below):
    # off the real axis, for |z| from 0.1 to 10
    z = cmath.rect(math.exp(log_r), -angle if below else angle)
    li2 = dilog(z)
    reflection = li2 + dilog(1.0 - z) - (special.PI2_6 - cmath.log(z) * cmath.log(1.0 - z))
    inversion = li2 + dilog(1.0 / z) - (-special.PI2_6 - cmath.log(-z) ** 2 / 2.0)
    assert abs(reflection) <= 1e-14 and abs(inversion) <= 1e-14


def test_dilog_branch_cut_raises():
    for z in (1.0, 1.5, 7.0, np.array([0.5j, 0.3, 2.0])):
        with pytest.raises(BranchCut):
            dilog(z)


def test_lobachevsky_quadrature_oracle():
    for x in (0.3, 1.0, math.pi / 3, 2.5):
        ref, err = quad(lambda t: -math.log(2.0 * math.sin(t)), 0.0, x, limit=200)
        assert err < 1e-11
        assert abs(lobachevsky(x) - ref) < 1e-10


def test_lobachevsky_dilog_identity():
    # L(x) = Im(Li2(e^{2ix})) / 2 across (0, pi)
    for x in np.linspace(0.05, math.pi - 0.05, 25):
        val = 0.5 * dilog(np.exp(2j * x)).imag
        assert abs(lobachevsky(x) - val) < 1e-12


def test_lobachevsky_symmetries():
    rng = np.random.default_rng(3)
    for x in rng.uniform(0, math.pi, 20):
        assert abs(lobachevsky(x + math.pi) - lobachevsky(x)) < 1e-12
        assert abs(lobachevsky(-x) + lobachevsky(x)) < 1e-12


def test_lobachevsky_fast_matches_reference():
    xs = np.linspace(-2.0, 5.0, 211)
    ref = np.array([lobachevsky(x) for x in xs])
    assert np.max(np.abs(lobachevsky_fast(xs) - ref)) < 1e-12


def _clausen_lobachevsky(xs):
    # L(x) = Cl_2(2x) / 2
    with mp.workdps(30):
        return np.array([float(mp.clsin(2, 2 * mp.mpf(x)) / 2) for x in xs])


def test_lobachevsky_fast_against_mpmath_on_the_reduced_range():
    # geometric runs toward 0 and toward pi/2 from both sides; beyond
    # pi - 1e-6 the rounding of pi in the reduction sets the error
    half = np.pi / 2
    runs = np.geomspace(1e-12, 0.5, 60)
    below = np.concatenate([np.linspace(0.0, half, 401), np.geomspace(1e-300, 0.5, 60),
                            half - runs])
    above = np.concatenate([np.linspace(half, np.pi - 1e-6, 401), half + runs])
    assert np.max(np.abs(lobachevsky_fast(below) - _clausen_lobachevsky(below))) <= 1e-15
    assert np.max(np.abs(lobachevsky_fast(above) - _clausen_lobachevsky(above))) <= 2e-15


def _lobachevsky_fast_by_temporaries(x):
    """lobachevsky_fast as written with one temporary per step: the reference
    its in-place evaluation must match bit for bit."""
    x = np.asarray(x, dtype=float)
    r = x - np.pi * np.floor(x / np.pi)
    flip = r > np.pi / 2
    r = np.where(flip, np.pi - r, r)
    r_safe = np.where(r > 0, r, 1.0)
    u = r * r
    q = _LOB_Q[-1]
    for c in _LOB_Q[-2::-1]:
        q = q * u + c
    core = q * r + r - r * np.log(2.0 * r_safe)
    core = np.where(r > 0, core, 0.0)
    return np.where(flip, -core, core)


def test_lobachevsky_fast_equals_the_temporaries_version_bit_for_bit():
    rng = np.random.default_rng(29)
    k = np.arange(-12, 13)
    inputs = [rng.uniform(0.0, np.pi, 400), rng.uniform(-30.0, 30.0, (3, 7, 9)),
              -rng.uniform(0.0, 1e3, 50), k * np.pi, k * np.pi / 2,
              np.array([0.0, -0.0, 5e-324, np.nextafter(np.pi, 0.0), np.nextafter(np.pi, 4.0)]),
              np.array(0.0), np.array(-1.2), 0.0, 2.5, -7.0, np.float64(1.1), [0.3, -0.4]]
    for x in inputs:
        got, want = lobachevsky_fast(x), _lobachevsky_fast_by_temporaries(x)
        assert type(got) is type(want) and got.shape == want.shape
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
