import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from icelab.errors import BranchCut
from icelab.special import dilog, lobachevsky
from icelab.tension import lobachevsky_fast


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
