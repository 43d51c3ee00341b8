import collections
import dataclasses
import functools
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from icelab import flow as fl
from icelab import tension as tn
from icelab.errors import (BranchCut, DomainBoundary, NonConvergence,
                           OutOfRange, SingularLocus, Unbounded)
from icelab.special import lobachevsky

import crossings_reference as ref
import grid_reference as gr


# ---------------------------------------------------------------------------
# free energy
# ---------------------------------------------------------------------------

def test_free_energy_scaling():
    base = tn.hex_curve()
    scaled = tn.SpectralCurve.from_dict({k: 2.5 * v for k, v in base.as_dict().items()})
    d = tn.free_energy(scaled, 0.3, -0.2) - tn.free_energy(base, 0.3, -0.2)
    assert abs(d - math.log(2.5)) < 1e-12


def test_hex_free_energy_dual_pipelines():
    target = 3.0 / math.pi * lobachevsky(math.pi / 3)
    f_j = tn.free_energy(tn.hex_curve(), 0.0, 0.0, tol=1e-9)
    # the 512 x 512 grid reference, 5e-8 from the 256 x 256 one
    f_g = gr._grid_mean(tn.hex_curve(), 0.0, 0.0, 512)
    assert abs(f_j - target) < 1e-4
    assert abs(f_g - target) < 1e-4
    assert abs(f_j - f_g) < 1e-4


def test_quadrature_geometric_decay_off_the_zero_locus(monkeypatch):
    # gas-phase point: no zeros on the integration torus, spectral decay
    curve = tn.hex_curve()
    vals = []
    for n in (64, 128, 256):
        monkeypatch.setattr(tn, "N0", n)
        monkeypatch.setattr(tn, "N_MAX", n)
        vals.append(tn.free_energy(curve, 2.0, 0.1))
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    assert d2 <= 0.5 * d1 or d2 < 1e-13


def test_grid_method_singular_node():
    curve = tn.SpectralCurve.from_dict({(0, 0): 1.0, (1, 0): 1.0})
    with pytest.raises(SingularLocus):
        gr._grid_mean(curve, 0.0, 0.0, 65)   # odd grid hits z = -1 exactly


def test_grid_reference_runs_in_bounded_memory(monkeypatch):
    n, curve = 2048, tn.hex_curve()
    tracemalloc.start()
    try:
        blocked = gr._grid_mean(curve, 0.1, 0.2, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6       # one complex n x n array alone is 67 MB
    monkeypatch.setattr(gr, "GRID_BLOCK", n * n)      # the whole grid at once
    assert abs(blocked - gr._grid_mean(curve, 0.1, 0.2, n)) <= 1e-13


def _hex_closed_form(H, V):
    """f = sH + tV - sigma_hex(s, t) on the hexagonal amoeba.

    pi s and pi t are the angles opposite the sides e^H and e^V of the
    triangle with sides (e^H, e^V, 1); sigma_hex through the dilogarithm.
    """
    a, b = math.exp(H), math.exp(V)
    s = math.acos((b * b + 1.0 - a * a) / (2.0 * b)) / math.pi
    t = math.acos((a * a + 1.0 - b * b) / (2.0 * a)) / math.pi
    sigma = -(lobachevsky(math.pi * s) + lobachevsky(math.pi * t)
              + lobachevsky(math.pi * (1.0 - s - t))) / math.pi
    return s * H + t * V - sigma


def test_free_energy_flags_a_missed_tolerance(monkeypatch):
    # with the kinks located, (-0.5, -0.5) converges to the closed form
    value, info = tn.free_energy(tn.hex_curve(), -0.5, -0.5, tol=1e-8,
                                 return_info=True)
    assert info["converged"] is True and info["estimate"] <= 1e-8
    assert abs(value - _hex_closed_form(-0.5, -0.5)) <= 1e-8
    # a node cap below what the point needs: the info says so
    with monkeypatch.context() as mp_:
        mp_.setattr(tn, "N_MAX", 32)
        value, info = tn.free_energy(tn.hex_curve(), -0.5, -0.5, tol=1e-8,
                                     return_info=True)
    assert info["n"] <= 32 and info["estimate"] > 1e-8
    assert info["converged"] is False
    assert math.isfinite(value)
    # gas phase: spectral decay, met well before the cap
    _, info = tn.free_energy(tn.hex_curve(), 2.0, 0.1, return_info=True)
    assert info["converged"] is True and info["n"] < 16384


@pytest.mark.parametrize("tol", [1e-8, 1e-7])
def test_converged_hex_free_energy_is_within_tol(tol):
    rng = np.random.default_rng(47)
    infos, off = [], []
    for H, V in rng.uniform(-0.3, 0.3, (120, 2)).tolist():
        value, info = tn.free_energy(tn.hex_curve(), H, V, tol=tol, return_info=True)
        infos.append(info)
        if info["converged"] and abs(value - _hex_closed_form(H, V)) > tol:
            off.append((H, V, info))
    assert off == []
    assert all(info["converged"] is True for info in infos)


def _ff_free_energy_mp(u, H, V):
    """Free-fermion free energy by mpmath, split at the kink of the integrand.

    The curve is (sin u + cos u w) z + (sin u w - cos u), so Jensen's formula
    gives the inner mean max(H + log|a(w)|, log|b(w)|).  The coefficients are
    real, so the outer mean is over [0, pi]; |b|^2 - e^(2H) |a|^2 is linear
    in cos(psi), which puts the kink in closed form.
    """
    with mp.workdps(20):
        cu, su, H, r = mp.cos(u), mp.sin(u), mp.mpf(H), mp.exp(V)
        e2h = mp.exp(2 * H)

        def inner(psi):
            w = r * mp.expj(psi)
            return max(H + mp.log(abs(su + cu * w)), mp.log(abs(su * w - cu)))

        const = cu ** 2 + (su * r) ** 2 - e2h * (su ** 2 + (cu * r) ** 2)
        slope = -2 * su * cu * r * (1 + e2h)
        pts = [mp.mpf(0), mp.pi]
        if abs(const) < abs(slope):
            pts.insert(1, mp.acos(-const / slope))
        return float(mp.quad(inner, pts) / mp.pi)


def test_free_fermion_free_energy_converges_on_the_slope_grid():
    u = math.pi / 3
    curve = tn.ff_curve(u)
    for s in (0.2, 0.35, 0.5, 0.65, 0.8):
        for t in (0.2, 0.35, 0.5, 0.65, 0.8):
            H, V = (float(x) for x in tn.grad_sigma_ff(s, t, u))
            value, info = tn.free_energy(curve, H, V, tol=1e-9, return_info=True)
            assert info["converged"] is True, (s, t, info)
            assert abs(value - _ff_free_energy_mp(u, H, V)) <= 1e-9, (s, t)


def test_a_missed_free_energy_propagates_as_nonconvergence(monkeypatch):
    monkeypatch.setattr(tn, "N_MAX", 16)
    fef = tn.FreeEnergyField(tn.hex_curve())
    with pytest.raises(NonConvergence) as err:
        tn.legendre_sigma(fef, 0.3, 0.35)
    gs, gt = tn.grad_sigma_hex(0.3, 0.35)
    assert np.allclose(err.value.best, (gs, gt), atol=1e-7)
    assert err.value.diagnostics["n"] <= 16
    assert err.value.diagnostics["estimate"] > fef.tol
    u = 1.0
    with pytest.raises(NonConvergence) as err:
        tn.legendre_sigma(tn.FreeEnergyField(tn.ff_curve(u)), 0.4, 0.55)
    assert np.allclose(err.value.best, tn.grad_sigma_ff(0.4, 0.55, u), atol=1e-7)
    assert err.value.diagnostics["n"] <= 16


def test_legendre_sigma_reports_its_solve(monkeypatch):
    grads, real = [], tn.grad_free_energy
    monkeypatch.setattr(tn, "grad_free_energy", lambda *a: grads.append(a) or real(*a))
    fef = tn.FreeEnergyField(tn.hex_curve())
    sig, (H, V), info = tn.legendre_sigma(fef, 0.3, 0.35, return_info=True)
    assert set(info) == {"iterations", "grad_calls", "residual", "n", "estimate",
                         "crossing_residual", "crossing_condition"}
    assert info["grad_calls"] == len(grads) and 1 <= info["iterations"] < len(grads)
    assert 0.0 < info["residual"] <= 1e-9
    # the default return is the same solve, and the info is its final free energy's
    assert (sig, (H, V)) == tn.legendre_sigma(fef, 0.3, 0.35)
    _, f_info = tn.free_energy(fef.curve, H, V, tol=fef.tol, return_info=True)
    assert all(info[k] == f_info[k] for k in ("n", "estimate", "crossing_residual",
                                              "crossing_condition"))


def _flat_hessian(real):
    return lambda *a: (real(*a)[0], np.zeros((2, 2)))


def _stiff_hessian(real):   # Newton steps a hundredth of the way: 60 are too few
    return lambda *a: (real(*a)[0], 100.0 * real(*a)[1])


@pytest.mark.parametrize("grad, tol, n_max, message", [
    (None, 0.0, None, "line search stalled"),
    (_flat_hessian, 1e-9, None, "gradient map flat"),
    (_stiff_hessian, 1e-9, None, "did not reach tolerance"),
    (None, 1e-9, 16, "free energy missed")], ids=["stall", "flat", "iterations", "free-energy"])
def test_every_legendre_raise_carries_its_counts(monkeypatch, grad, tol, n_max, message):
    real, calls = tn.grad_free_energy, []
    wrapped = real if grad is None else grad(real)
    monkeypatch.setattr(tn, "grad_free_energy", lambda *a: calls.append(a) or wrapped(*a))
    if n_max is not None:
        monkeypatch.setattr(tn, "N_MAX", n_max)
    with pytest.raises(NonConvergence, match=message) as err:
        tn.legendre_sigma(tn.FreeEnergyField(tn.hex_curve()), 0.3, 0.35, tol=tol)
    info = err.value.diagnostics
    assert {"iterations", "grad_calls", "residual"} <= set(info)
    assert info["grad_calls"] == len(calls) and 0 <= info["iterations"] <= 60
    assert np.isfinite(info["residual"])


@pytest.mark.xfail(strict=True, raises=NonConvergence,
                   reason="legendre_sigma's Newton starts at (H, V) = (0, 0), outside the "
                          "amoeba of 10 - z - w, where the gradient map is flat")
def test_legendre_sigma_off_an_amoeba_that_misses_the_origin():
    # f(H, V) = log 10 + f_hex(H - log 10, V - log 10), so the Legendre
    # transform is sigma_hex shifted by (s + t - 1) log 10
    fef = tn.FreeEnergyField(tn.SpectralCurve.from_dict({(0, 0): 10.0, (1, 0): -1.0,
                                                         (0, 1): -1.0}))
    for s, t in ((0.3, 0.3), (0.1, 0.1), (0.45, 0.45)):
        sig, _ = tn.legendre_sigma(fef, s, t)
        assert abs(sig - float(tn.sigma_hex(s, t)) - (s + t - 1) * math.log(10)) < 1e-9


def test_a_missed_free_energy_reports_its_crossings(monkeypatch):
    monkeypatch.setattr(tn, "N_MAX", 16)
    fef = tn.FreeEnergyField(tn.hex_curve())
    with pytest.raises(NonConvergence) as err:
        fef.value(0.1, -0.2)
    _, info = tn.free_energy(fef.curve, 0.1, -0.2, return_info=True)
    assert err.value.diagnostics == {k: info[k] for k in ("estimate", "n", "crossing_residual",
                                                          "crossing_condition")}
    assert 0.0 < info["crossing_condition"] < np.inf


def test_degree_drop_on_the_free_fermion_fiber():
    # at V = log tan u the z-coefficient cos(u) w + sin(u) of the free-fermion
    # curve vanishes at psi = pi, a node of both grids used below
    u = 1.0
    curve = tn.ff_curve(u)
    V = math.log(math.tan(u))
    psi = np.arange(2048) * (2 * np.pi / 2048)
    coeffs = tn._fiber_coeffs(tn._fiber_layout(curve), np.exp(V + 1j * psi))
    roots, lead = tn._fiber_roots(coeffs)
    assert np.array_equal(np.nonzero(np.isinf(roots[:, 0]))[0], [1024])
    assert lead[1024] == coeffs[0, 1024]          # trimmed to degree 0
    for H in (-0.3, 0.0, 0.2):
        g, _ = tn.grad_free_energy(curve, H, V)
        ge = tn.grad_free_energy_ff(H, V, u)
        assert abs(g[0] - ge[0]) < 1e-10 and abs(g[1] - ge[1]) < 1e-10
    # an odd Jensen grid puts its middle node on psi = pi
    psi = (np.arange(4097) + 0.5) * (2 * np.pi / 4097)
    f_jensen = float(np.mean(tn._jensen_inner(tn._fiber_layout(curve), 0.1, V, psi)))
    # the 4096 x 4096 grid reference, 9e-8 from the 2048 x 2048 one
    f_grid = gr._grid_mean(curve, 0.1, V, 4096)
    assert abs(f_jensen - f_grid) < 1e-6


# reference root counting by nodes: companion-matrix roots at every degree,
# one scalar bisection per jump, and intervals that tile [0, 2 pi)

def _eigvals_fiber_roots(coeffs):
    deg = coeffs.shape[0] - 1
    lead = coeffs[-1].copy()
    assert np.all(np.abs(lead) >= 1e-13 * np.max(np.abs(coeffs), axis=0))
    comp = np.zeros((coeffs.shape[1], deg, deg), dtype=complex)
    comp[:, 1:, :-1] = np.eye(deg - 1)
    comp[:, 0, :] = (-coeffs[deg - 1::-1] / lead).T
    return np.linalg.eigvals(comp), lead


def _scalar_bisection_grad(curve, H, V, n=2048):

    def count_inside(cv, hh, psis, vv):
        w = np.exp(vv + 1j * np.atleast_1d(psis))
        d = cv.as_dict()
        i_all = sorted({i for (i, _) in d})
        coeffs = np.zeros((i_all[-1] - i_all[0] + 1, w.size), dtype=complex)
        for (i, j), c in d.items():
            coeffs[i - i_all[0]] += c * w ** j
        roots, _ = _eigvals_fiber_roots(coeffs)
        return (np.abs(roots) < math.exp(hh)).sum(axis=1), i_all[0]

    def one_direction(cv, hh, vv):
        psis = np.arange(n) * (2 * np.pi / n)
        counts, i_min = count_inside(cv, hh, psis, vv)
        total = 0.0
        for k in range(n):
            c0 = counts[k]
            c1 = counts[(k + 1) % n]
            a = psis[k]
            b = psis[k + 1] if k + 1 < n else 2 * np.pi
            if c0 == c1:
                total += c0 * (b - a)
                continue
            lo, hi = a, b
            for _ in range(46):
                mid = 0.5 * (lo + hi)
                cm, _ = count_inside(cv, hh, np.array([mid]), vv)
                if cm[0] == c0:
                    lo = mid
                else:
                    hi = mid
            total += c0 * (lo - a) + c1 * (b - hi) + 0.5 * (c0 + c1) * (hi - lo)
        return i_min + total / (2 * np.pi)

    return one_direction(curve, H, V), one_direction(curve.transformed(swap=True), V, H)


_DEGREE_TWO = tn.SpectralCurve.from_dict({(0, 0): 1.0, (1, 0): -0.7, (2, 0): 0.2,
                                          (0, 1): -0.9, (1, 1): 0.3})


@pytest.mark.parametrize("curve", [tn.hex_curve(), tn.ff_curve(1.0), _DEGREE_TWO],
                         ids=["hex", "ff", "degree2"])
def test_batched_crossing_search_matches_scalar_bisection(curve):
    rng = np.random.default_rng(31)
    for H, V in rng.uniform(-0.6, 0.6, (4, 2)):
        got, _ = tn.grad_free_energy(curve, H, V)
        want = _scalar_bisection_grad(curve, H, V)
        assert max(abs(got[0] - want[0]), abs(got[1] - want[1])) <= 1e-15


@pytest.mark.parametrize("curve", [tn.hex_curve(), tn.ff_curve(1.0)], ids=["hex", "ff"])
def test_closed_form_degree_one_roots_match_eigvals(curve, monkeypatch):
    rng = np.random.default_rng(32)
    points = rng.uniform(-0.6, 0.6, (3, 2))
    closed = [tn.free_energy(curve, H, V, return_info=True) for H, V in points]
    monkeypatch.setattr(tn, "_fiber_roots", _eigvals_fiber_roots)
    assert closed == [tn.free_energy(curve, H, V, return_info=True) for H, V in points]


# the crossing search as it was before the node probe was trimmed: the node
# fiber from np.exp, every power of w formed, q at all n nodes, np.roll

def _reference_fiber_coeffs(layout, w):
    deg, terms = layout.deg, layout.terms
    coeffs = np.zeros((deg + 1, w.size), dtype=complex)
    for row, j, c in terms:
        coeffs[row] += c * w ** j
    return coeffs


def _reference_crossings(layout, H, V, n=2048):
    step, ulps = 2 * np.pi / n, 4.0 * np.spacing(2 * np.pi)

    def probe(psis):
        w = np.exp(V + 1j * psis)
        mod = np.abs(tn._fiber_roots(_reference_fiber_coeffs(layout, w))[0])
        return (mod < math.exp(H)).sum(axis=1), np.prod(np.tanh(np.log(mod) - H), axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        count, q_nodes = probe(np.arange(n) * step)
        jump = np.nonzero(count != np.roll(count, -1))[0]
        cross, idx, left = np.empty(jump.size), np.arange(jump.size), count[jump]
        x0, q0 = jump * step, q_nodes[jump]
        x1, q1 = x0 + step, q_nodes[(jump + 1) % n]
        secant, blo, bhi = q0 * q1 < 0, x0, x1
        for _ in range(64):
            x = x1 - q1 * (x1 - x0) / (q1 - q0)
            done = (bhi - blo <= ulps) | secant & ((np.abs(x - x1) <= ulps) | (q1 == 0))
            cross[idx[done]] = x1[done]
            idx, x0, q0, x1, q1, blo, bhi, x, left, secant = (
                v[~done] for v in (idx, x0, q0, x1, q1, blo, bhi, x, left, secant))
            if not idx.size:
                break
            x = np.where(secant & (x > blo) & (x < bhi), x, 0.5 * (blo + bhi))
            cx, qx = probe(x)
            blo, bhi = np.where(cx == left, x, blo), np.where(cx == left, bhi, x)
            x0, q0, x1, q1 = x1, q1, x, qx
        cross[idx] = x1
    return count, jump, cross


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["hex", "ff", "degree2"]), u=st.floats(0.3, 1.3),
       H=st.floats(-0.7, 0.7), V=st.floats(-0.7, 0.7),
       node=st.one_of(st.none(), st.integers(0, 2047)))
def test_crossing_search_matches_the_reference_property(kind, u, H, V, node):
    curve = {"hex": tn.hex_curve(), "ff": tn.ff_curve(u), "degree2": _DEGREE_TWO}[kind]
    layout = tn._fiber_layout(curve)
    step = 2 * np.pi / 2048
    if node is not None:
        # put a root on |z| = e^H exactly at a node, where q vanishes
        w = np.exp(V + 1j * np.array([node * step]))
        H = float(np.log(np.abs(tn._fiber_roots(_reference_fiber_coeffs(layout, w))[0][0, 0])))
    psi, count = tn._crossings(layout, H, V)[:2]
    ref_count, jump, cross = _reference_crossings(layout, H, V)
    # equal counts at every node but one that sits on a crossing, a tie
    nodes = np.arange(2048) * step
    gap = np.min(np.abs(np.angle(np.exp(1j * (nodes[:, None] - psi)))), axis=1, initial=np.inf)
    ours = count[np.searchsorted(psi, nodes, side="right")]
    assert np.array_equal(ours[gap > 1e-12], ref_count[gap > 1e-12])
    # the reference locates one crossing at most in a node interval
    cell = (psi // step).astype(int)
    shared = cell[1:][np.diff(cell) == 0]
    alone, seen = psi[~np.isin(cell, shared)], cross[~np.isin(jump, shared)]
    assert alone.size == seen.size
    for x in seen:
        assert np.min(np.abs(np.angle(np.exp(1j * (alone - x))))) <= 1e-12


# two roots leave |z| = e^H 1.2e-4 apart, inside one interval of a 2048-node grid
_CLOSE_PAIR = (0.8524, 0.4109)


def _close_pair_fiber_mp(psi):
    """Leading coefficient and both roots of _DEGREE_TWO's fiber, by mpmath."""
    H, V = _CLOSE_PAIR
    c = {k: mp.mpf(v) for k, v in _DEGREE_TWO.as_dict().items()}
    w = mp.exp(V) * mp.expj(psi)
    a, b, d = c[2, 0], c[1, 0] + c[1, 1] * w, c[0, 0] + c[0, 1] * w
    root = mp.sqrt(b * b - 4 * a * d)
    return a, ((-b + root) / (2 * a), (-b - root) / (2 * a))


def _close_pair_crossings_mp():
    """The two crossings in (0, pi) at _CLOSE_PAIR, by mpmath."""
    H, _ = _CLOSE_PAIR
    found = []
    for seed in (0.925677, 0.925797):
        # the root that crosses at this angle, and log|z(psi)| = H on it
        g = min((lambda p, k=k: mp.log(abs(_close_pair_fiber_mp(p)[1][k])) - H
                 for k in (0, 1)), key=lambda g: abs(g(seed)))
        found.append(mp.findroot(g, mp.mpf(seed)))
    return found


def test_close_pair_crossings_match_mpmath():
    with mp.workdps(30):
        half = _close_pair_crossings_mp()
        want = np.array([float(x) for x in half + [2 * mp.pi - x for x in reversed(half)]])
    psi = tn._crossings(tn._fiber_layout(_DEGREE_TWO), *_CLOSE_PAIR)[0]
    assert psi.shape == (4,) and np.max(np.abs(psi - want)) <= 1e-12


def test_close_pair_free_energy_has_all_four_kinks():
    H, _ = _CLOSE_PAIR
    with mp.workdps(20):
        def inner(p):
            a, roots = _close_pair_fiber_mp(p)
            return mp.log(abs(a)) + sum(max(mp.mpf(H), mp.log(abs(z))) for z in roots)

        # the integrand is even in psi, with two kinks in (0, pi)
        want = float(mp.quad(inner, [0, *_close_pair_crossings_mp(), mp.pi]) / mp.pi)
    value, info = tn.free_energy(_DEGREE_TWO, *_CLOSE_PAIR, tol=1e-10, return_info=True)
    assert info["converged"] is True and abs(value - want) <= 1e-10
    assert info["crossing_residual"] <= 1e-12


def test_crossing_residual_is_reported():
    rng = np.random.default_rng(43)
    for s, t in rng.uniform(0.1, 0.45, (6, 2)):
        H, V = (float(x) for x in tn.grad_sigma_hex(s, t))
        _, info = tn.free_energy(tn.hex_curve(), H, V, return_info=True)
        assert 0.0 <= info["crossing_residual"] <= 1e-12
    # off the amoeba no root crosses
    _, info = tn.free_energy(tn.hex_curve(), 2.0, 0.1, return_info=True)
    assert info["crossing_residual"] == 0.0


def test_free_energy_reports_the_crossing_condition():
    rng = np.random.default_rng(45)
    for curve in (tn.hex_curve(), tn.ff_curve(0.9)):
        for H, V in rng.uniform(-0.3, 0.3, (4, 2)):
            _, info = tn.free_energy(curve, H, V, return_info=True)
            rho = tn._crossings(tn._fiber_layout(curve), H, V)[2]
            assert rho.size and info["crossing_condition"] == np.max(1.0 / np.abs(rho.imag))
            assert set(info) == {"n", "estimate", "converged", "crossing_residual",
                                 "crossing_condition"}
    # 2 + w has no fiber root, so no crossing
    curve = tn.SpectralCurve.from_dict({(0, 0): 2.0, (0, 1): 1.0})
    assert tn.free_energy(curve, 0.1, 0.2, return_info=True)[1]["crossing_condition"] == 0.0


_ARC_CURVE = tn.SpectralCurve.from_dict({(0, 0): 3.0, (1, 0): -1.0, (-1, 0): -1.0,
                                        (0, 1): -1.0, (0, -1): -1.0})


def test_a_curve_real_on_a_torus_arc_raises_singular_locus():
    # at (0, 0) 3 - z - 1/z - w - 1/w is real on the whole torus, so the
    # resultant vanishes identically and its roots would be noise
    with pytest.raises(SingularLocus):
        tn.grad_free_energy(_ARC_CURVE, 0.0, 0.0)
    with pytest.raises(SingularLocus):
        tn.free_energy(_ARC_CURVE, 0.0, 0.0)
    (gh, gv), hess = tn.grad_free_energy(_ARC_CURVE, 0.01, 0.0)
    assert np.all(np.isfinite(hess)) and abs(gh - 1.0 / 3.0) < 1e-3 and gv == 0.0


@pytest.mark.xfail(strict=True, reason="at H = 0 the fiber roots of a z <-> 1/z symmetric "
                   "curve touch |z| = 1 in reciprocal pairs, R has double roots and the "
                   "polish stalls (residual 1.54 at (0, 0.1)); Known defect \"polish "
                   "residuals on a z <-> 1/z symmetric curve at H = 0\"")
@pytest.mark.parametrize("point, mirror", [((0.0, 0.1), (0.1, 0.0)),
                                           ((0.0, 0.01), (0.01, 0.0))], ids=["0.1", "0.01"])
def test_tangencies_of_a_symmetric_curve_polish_like_its_mirror_point(point, mirror):
    _, info = tn.free_energy(_ARC_CURVE, *point, return_info=True)
    _, mirrored = tn.free_energy(_ARC_CURVE, *mirror, return_info=True)
    assert info["crossing_residual"] <= 1e-12 and info["n"] == mirrored["n"]


def test_an_exact_zero_root_of_the_resultant_is_no_crossing(monkeypatch):
    # at this generic point R's lowest coefficient is exactly 0, so the
    # companion solve returns a zero root; its log is -inf, which warned
    # (and raised under the RuntimeWarning filter) before it was masked
    H, V = -1.192938600107985, 0.3911097044178169
    roots, companion = [], tn._companion_roots

    def recording(c):
        roots.append(companion(c))
        return roots[-1]

    monkeypatch.setattr(tn, "_companion_roots", recording)
    (gh, gv), hess = tn.grad_free_energy(_ARC_CURVE, H, V)
    assert any((r == 0).any() for r in roots)
    assert abs(gh + 0.5707255037055619) < 1e-14 and abs(gv - 0.0841962660344433) < 1e-14
    assert np.all(np.isfinite(hess))
    value, info = tn.free_energy(_ARC_CURVE, H, V, return_info=True)
    assert abs(value - 1.3107785429273253) < 1e-12 and info["converged"]


@pytest.mark.parametrize("curve", [tn.hex_curve(), tn.ff_curve(0.9), _DEGREE_TWO],
                         ids=["hex", "ff", "degree2"])
def test_no_singular_alarm_on_generic_points(curve):
    layouts = tn._fiber_layout(curve), tn._fiber_layout(curve.transformed(swap=True))
    for H, V in np.random.default_rng(44).uniform(-1.5, 1.5, (300, 2)):
        tn._crossings(layouts[0], H, V)
        tn._crossings(layouts[1], V, H)


def test_a_fiber_without_roots_has_no_crossing():
    # 2 + w has z-degree 0: f = log max(2, e^V) and grad f = (0, [e^V > 2])
    curve = tn.SpectralCurve.from_dict({(0, 0): 2.0, (0, 1): 1.0})
    for V, grad in ((0.2, (0.0, 0.0)), (1.0, (0.0, 1.0))):
        assert abs(tn.free_energy(curve, 0.1, V) - max(math.log(2.0), V)) <= 1e-12
        got, hess = tn.grad_free_energy(curve, 0.1, V)
        assert got == grad and not hess.any()


@pytest.mark.parametrize("coeffs, point", [
    ({(0, 0): 2.0, (0, 1): 1.0}, (0.1, math.log(2.0))),
    ({(0, 0): 2.0, (1, 0): 1.0}, (math.log(2.0), 0.1))], ids=["2+w", "2+z"])
def test_a_circle_of_the_torus_on_the_curve_raises_in_either_reading(coeffs, point):
    # the curve holds the circle w = -2 (z = -2) of the torus: read as a
    # z-polynomial 2 + w has no root and no crossing angle, so only its
    # w-reading's counts can see the circle; 2 + z makes the resultant vanish
    with pytest.raises(SingularLocus):
        tn.grad_free_energy(tn.SpectralCurve.from_dict(coeffs), *point)


@pytest.mark.parametrize("coeffs, point", [
    ({(0, 0): 2.0, (0, 1): 1.0}, (0.1, math.log(2.0))),
    ({(0, 0): 2.0, (1, 0): 1.0}, (math.log(2.0), 0.1))], ids=["2+w", "2+z"])
def test_singular_locus_names_the_point_as_h_then_v(coeffs, point):
    # 2 + w raises from its w-reading, 2 + z from its z-reading
    with pytest.raises(SingularLocus, match=re.escape(f"at ({point[0]}, {point[1]}) along")):
        tn.grad_free_energy(tn.SpectralCurve.from_dict(coeffs), *point)


def _two_solve_grad_free_energy(curve, H, V):
    """grad_free_energy by one crossing solve per reading of the curve: the
    V-derivative and the V-V entry from the swapped curve's own crossings."""

    def one_direction(cv, hh, vv):
        layout = tn._fiber_layout(cv)
        psi, count, rho = tn._crossings(layout, hh, vv)[:3]
        arcs = np.diff(np.concatenate(([0.0], psi, [tn._TWO_PI])))
        delta = count[:-1] - count[1:]
        return (layout[0] + float(count @ arcs) / tn._TWO_PI,
                float(delta @ (-1.0 / rho.imag)) / tn._TWO_PI,
                float(delta @ (rho.real / rho.imag)) / tn._TWO_PI)

    gh, hh, hv = one_direction(curve, H, V)
    gv, vv, _ = one_direction(curve.transformed(swap=True), V, H)
    return (gh, gv), np.array([[hh, hv], [hv, vv]])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["hex", "ff", "degree2"]), u=st.floats(0.3, 1.3),
       H=st.floats(-1.2, 1.2), V=st.floats(-1.2, 1.2))
def test_one_crossing_solve_matches_the_two_solve_route(kind, u, H, V):
    curve = {"hex": tn.hex_curve(), "ff": tn.ff_curve(u), "degree2": _DEGREE_TWO}[kind]
    got, hess = tn.grad_free_energy(curve, H, V)
    want, want_hess = _two_solve_grad_free_energy(curve, H, V)
    assert max(abs(got[0] - want[0]), abs(got[1] - want[1])) <= 1e-15
    assert np.max(np.abs(hess - want_hess)) <= 1e-13 * np.max(np.abs(want_hess))


def test_grad_free_energy_solves_the_crossings_once_per_point(monkeypatch):
    calls, real = [], tn._crossings

    def counted(layout, H, V):
        calls.append((H, V))
        return real(layout, H, V)

    monkeypatch.setattr(tn, "_crossings", counted)
    for curve in (tn.hex_curve(), tn.ff_curve(0.9), _DEGREE_TWO):
        for H, V in ((0.1, -0.2), (0.48, 0.25), (2.0, 0.1)):
            calls.clear()
            tn.grad_free_energy(curve, H, V)
            assert calls == [(H, V)]


# the crossing search as it was with two fiber solves per call: np.roots on
# a freshly built transform, a polish whose solves cover the crossings only,
# then one more solve at the arcs' midpoints for the counts

def _two_solve_near_root(layout, H, V, psi):
    w = np.exp(V + 1j * psi)
    roots = tn._fiber_roots(tn._fiber_coeffs(layout, w))[0]
    gap = np.log(np.abs(roots)) - H
    near = np.argmin(np.abs(gap), axis=1)
    z, g = roots[np.arange(psi.size), near], gap[np.arange(psi.size), near]
    z_dz, w_dw = tn._log_partials(layout, z, w)
    return g, -w_dw / z_dz, z


def _two_solve_arc_counts(layout, H, V, psi):
    ends = np.concatenate((psi[-1:] - tn._TWO_PI, psi, psi[:1] + tn._TWO_PI))
    mid = 0.5 * (ends[:-1] + ends[1:]) if psi.size else np.zeros(1)
    moduli = np.abs(tn._fiber_roots(tn._fiber_coeffs(layout, np.exp(V + 1j * mid)))[0])
    radius = math.exp(H)
    gap = np.minimum(np.abs(moduli - radius) / radius, 1.0)
    if gap.prod(axis=1).max() < 1e-12:
        raise SingularLocus(f"the curve meets the torus at ({H}, {V}) along a circle")
    return (moduli < radius).sum(axis=1)


def _two_solve_crossings(layout, H, V):
    deg, terms = layout.deg, layout.terms
    j_all = [j for _, j, _ in terms]
    de = deg * (max(j_all) - min(j_all))
    omega = np.exp(np.arange(2 * de + 1) * (1j * tn._TWO_PI / (2 * de + 1)))
    a = tn._fiber_coeffs(layout, math.exp(V) * omega) * np.exp(H * np.arange(deg + 1))[:, None]
    sylvester = np.zeros((omega.size, 2 * deg, 2 * deg), dtype=complex)
    for k in range(deg):
        sylvester[:, k, k:k + deg + 1] = a[::-1].T
        sylvester[:, deg + k, k:k + deg + 1] = a.conj().T
    samples = np.linalg.det(sylvester)
    if np.all(np.abs(samples) < 1e-12 * np.linalg.norm(a, axis=0) ** (2 * deg)):
        raise SingularLocus(f"the curve meets the torus at ({H}, {V}) along an arc")
    r = np.vander(omega.conj(), increasing=True).T @ samples
    omega = np.roots(np.concatenate((r[de::-1], r[:de:-1])))
    psi = np.angle(omega[np.abs(np.log(np.abs(omega))) < 1e-6])
    ulps = np.spacing(tn._TWO_PI)
    with np.errstate(divide="ignore", invalid="ignore"):
        g, rho, z = (_two_solve_near_root(layout, H, V, psi) if psi.size
                     else (psi, psi + 0j, psi + 0j))
        last = np.inf
        for _ in range(16):
            step = g / rho.imag
            step = np.where(np.isfinite(step), step, 0.0)
            size = np.max(np.abs(step), initial=0.0)
            if size <= ulps or size >= last:
                break
            psi, last = psi + step, size
            g, rho, z = _two_solve_near_root(layout, H, V, psi)
    psi = psi % tn._TWO_PI
    order = np.argsort(psi)
    psi, rho, z = psi[order], rho[order], z[order]
    residual = float(np.max(np.abs(g), initial=0.0))
    return psi, _two_solve_arc_counts(layout, H, V, psi), rho, z, residual


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as err:            # noqa: BLE001 - compared, not handled
        return type(err), str(err)


def _same(a, b, equal_nan=False):
    """Equal to the last bit: arrays by dtype, shape and value, the rest by ==;
    with equal_nan, NaN equals NaN."""
    same = functools.partial(_same, equal_nan=equal_nan)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b, equal_nan=equal_nan))
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if equal_nan and isinstance(a, float) and a != a:
        return isinstance(b, float) and b != b
    return type(a) is type(b) and a == b


def _both_routes(curve, H, V):
    """(new, two-solve) outcomes of both readings' crossings, free_energy
    with its info and grad_free_energy at (H, V)."""
    layouts = tn._fiber_layout(curve), tn._fiber_layout(curve.transformed(swap=True))
    runs = []
    for crossings in (tn._crossings, _two_solve_crossings):
        with pytest.MonkeyPatch.context() as mp_:
            mp_.setattr(tn, "_crossings", crossings)
            runs.append([_outcome(crossings, layouts[0], H, V),
                         _outcome(crossings, layouts[1], V, H),
                         _outcome(tn.free_energy, curve, H, V, return_info=True),
                         _outcome(tn.grad_free_energy, curve, H, V)])
    return runs


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["hex", "ff", "degree2"]), u=st.floats(0.3, 1.3),
       H=st.floats(-1.2, 1.2), V=st.floats(-1.2, 1.2))
def test_one_fiber_solve_per_polish_step_is_the_two_solve_route_bit_for_bit(kind, u, H, V):
    curve = {"hex": tn.hex_curve(), "ff": tn.ff_curve(u), "degree2": _DEGREE_TWO}[kind]
    layout = tn._fiber_layout(curve)
    *got, residual = tn._crossings(layout, H, V)
    *want, want_residual = _two_solve_crossings(layout, H, V)
    for x, y in zip(got, want):         # psi, counts, rho and Z
        assert np.array_equal(x, y)
    assert residual == want_residual
    new, old = _both_routes(curve, H, V)
    assert all(map(_same, new, old))


@pytest.mark.parametrize("coeffs, point", [
    ({(0, 0): 2.0, (0, 1): 1.0}, (0.1, math.log(2.0))),
    ({(0, 0): 2.0, (1, 0): 1.0}, (math.log(2.0), 0.1)),
    (_ARC_CURVE.as_dict(), (0.0, 0.0))], ids=["2+w", "2+z", "arc"])
def test_singular_points_raise_alike_on_both_crossing_routes(coeffs, point):
    new, old = _both_routes(tn.SpectralCurve.from_dict(coeffs), *point)
    assert all(map(_same, new, old))
    assert any(isinstance(x, tuple) and x[0] is SingularLocus for x in new)


def test_companion_roots_are_np_roots_bit_for_bit():
    rng = np.random.default_rng(73)
    for n in rng.integers(1, 9, 300):
        p = rng.normal(size=n) + 1j * rng.normal(size=n)
        p[:rng.integers(0, n)] = 0.0          # leading zeros
        p[n - rng.integers(0, n):] = 0.0      # trailing zeros, roots at 0
        if p.any():
            # np.roots gives a monomial's zero roots as real zeros
            got, want = tn._companion_roots(p), np.roots(p)
            assert got.dtype == complex and np.array_equal(got, want)


@pytest.mark.parametrize("curve", [tn.hex_curve(), tn.ff_curve(0.9), _DEGREE_TWO],
                         ids=["hex", "ff", "degree2"])
def test_crossings_make_one_fiber_solve_per_polish_step(curve, monkeypatch):
    solves, real = [], tn._fiber_roots

    def recorded(coeffs):
        solves.append(coeffs)
        return real(coeffs)

    monkeypatch.setattr(tn, "_fiber_roots", recorded)
    layout = tn._fiber_layout(curve)
    for H, V in ((0.1, -0.2), (0.48, 0.25), (2.0, 0.1)):
        solves.clear()
        _two_solve_crossings(layout, H, V)
        *polish, count = solves
        solves.clear()
        m = tn._crossings(layout, H, V)[0].size
        # one solve per polish iterate, at the m crossings and the m + 1 arc midpoints
        assert [c.shape[1] for c in solves] == [2 * m + 1] * max(len(polish), 1)
        for fused, crossing in zip(solves, polish):
            assert np.array_equal(fused[:, :m], crossing)
        # the counts come from the last iterate's midpoints, to the bit
        assert np.array_equal(solves[-1][:, m:], count)


# the kernels before layouts were cached and the partials lost their zero
# terms (crossings_reference): every output equal, NaN to NaN.  The one
# allowed difference is the sign of an exact zero partial, at a singular
# point of the curve, and == does not see it.

_equal = functools.partial(_same, equal_nan=True)


# the reference layout's three fields under the names the flow reads them by
_ReferenceLayout = collections.namedtuple("_ReferenceLayout", "i_min deg terms")


def _on_reference_kernels(mp_):
    """Route tension's public calls and the flow's curve branch through crossings_reference."""
    for name in ("free_energy", "grad_free_energy", "_fiber_coeffs", "_fiber_roots",
                 "_log_partials"):
        mp_.setattr(tn, name, getattr(ref, name))
    mp_.setattr(tn, "_fiber_layout", lambda curve, swap=False: _ReferenceLayout(
        *ref._fiber_layout(curve.transformed(swap=True) if swap else curve)))


def _kernel_outcomes(crossings, curve, H, V):
    """Both readings' crossings, free_energy with its info, grad_free_energy,
    legendre_sigma at that gradient and the curve's Burgers function near
    a crossing, each as its result or what it raised."""
    out = [_outcome(crossings, tn._fiber_layout(curve), H, V),
           _outcome(crossings, tn._fiber_layout(curve, swap=True), V, H),
           _outcome(tn.free_energy, curve, H, V, return_info=True),
           _outcome(tn.grad_free_energy, curve, H, V)]
    grad = out[-1]
    if not isinstance(grad[0], type):
        out.append(_outcome(tn.legendre_sigma, tn.FreeEnergyField(curve), *grad[0]))
    z = out[0][3] if len(out[0]) == 5 else ()
    if len(z):
        probe = (z[0], np.exp(V + 1j * out[0][0][0]))
        zs = z[0] * np.array([1.0, 1.0 + 1e-3j, 0.999])
        out.append(_outcome(lambda: fl.burgers_from_curve(curve, probe)(zs)))
    return out


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["hex", "ff", "degree2"]), u=st.floats(0.3, 1.3),
       H=st.floats(-1.2, 1.2), V=st.floats(-1.2, 1.2))
def test_cached_layouts_and_lean_partials_change_no_bit(kind, u, H, V):
    curve = {"hex": tn.hex_curve(), "ff": tn.ff_curve(u), "degree2": _DEGREE_TWO}[kind]
    new = _kernel_outcomes(tn._crossings, curve, H, V)
    with pytest.MonkeyPatch.context() as mp_:
        _on_reference_kernels(mp_)
        old = _kernel_outcomes(ref._crossings, curve, H, V)
    assert len(new) == len(old) and all(map(_equal, new, old))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["hex", "ff", "degree2"]), u=st.floats(0.3, 1.3),
       zr=st.floats(-2.0, 2.0), zi=st.floats(-2.0, 2.0),
       wr=st.floats(-2.0, 2.0), wi=st.floats(-2.0, 2.0))
def test_lean_partials_are_the_sum_over_every_term(kind, u, zr, zi, wr, wi):
    # at any (z, w), on the curve or not, and in both readings
    curve = {"hex": tn.hex_curve(), "ff": tn.ff_curve(u), "degree2": _DEGREE_TWO}[kind]
    z, w = np.array([complex(zr, zi), 1.0]), np.array([complex(wr, wi), -0.5j])
    for swap in (False, True):
        got = tn._log_partials(tn._fiber_layout(curve, swap=swap), z, w)
        want = ref._log_partials(ref._fiber_layout(
            curve.transformed(swap=True) if swap else curve), z, w)
        assert all(map(_equal, got, want))


def test_layouts_are_built_once_per_curve_and_reading(monkeypatch):
    builds, transforms = [], tn.SpectralCurve.transformed

    def counted(curve, **kw):
        builds.append(kw)
        return transforms(curve, **kw)

    monkeypatch.setattr(tn.SpectralCurve, "transformed", counted)
    grads, real = [], tn.grad_free_energy
    monkeypatch.setattr(tn, "grad_free_energy", lambda *a: grads.append(a) or real(*a))
    tn._fiber_layout.cache_clear()
    fef = tn.FreeEnergyField(tn.hex_curve())
    for s, t in ((0.3, 0.25), (0.2, 0.4)):
        tn.legendre_sigma(fef, s, t)
    info = tn._fiber_layout.cache_info()
    # two readings of one curve, each gradient call reads both, each
    # free energy the first
    assert len(grads) >= 8 and info.misses == 2 and builds == [{"swap": True}]
    assert info.hits + info.misses == 2 * len(grads) + 2


def _hex_gradient_mp(H, V, start):
    """grad f at (H, V): the (s, t) that grad_sigma_hex maps there, by mpmath."""
    with mp.workdps(30):
        s, t = mp.findroot(
            lambda s, t: [mp.log(mp.sin(mp.pi * s) / mp.sin(mp.pi * (s + t))) - H,
                          mp.log(mp.sin(mp.pi * t) / mp.sin(mp.pi * (s + t))) - V],
            tuple(mp.mpf(x) for x in start))
        return float(s), float(t)


def _ff_gradient_mp(H, V, u):
    """grad_free_energy_ff's two arccos formulas, by mpmath."""
    with mp.workdps(30):
        H, V, u = mp.mpf(H), mp.mpf(V), mp.mpf(u)
        arg_h = (mp.sinh(V - H) * mp.tan(u) - mp.sinh(V + H) * mp.cot(u)) / (2 * mp.cosh(H))
        arg_v = (mp.sinh(H - V) * mp.tan(u) - mp.sinh(V + H) * mp.cot(u)) / (2 * mp.cosh(V))
        return float(mp.acos(arg_h) / mp.pi), float(mp.acos(arg_v) / mp.pi)


def test_counting_gradient_matches_the_hex_closed_form_to_an_ulp():
    rng = np.random.default_rng(71)
    for s, t in rng.uniform(0.1, 0.45, (8, 2)):
        H, V = (float(x) for x in tn.grad_sigma_hex(s, t))
        got, _ = tn.grad_free_energy(tn.hex_curve(), H, V)
        want = _hex_gradient_mp(H, V, (s, t))
        assert max(abs(got[0] - want[0]), abs(got[1] - want[1])) <= 1e-15


def test_counting_gradient_matches_the_ff_closed_form_to_an_ulp():
    rng = np.random.default_rng(72)
    for s, t, u in zip(*rng.uniform(0.1, 0.9, (2, 8)), rng.uniform(0.3, 1.3, 8)):
        H, V = (float(x) for x in tn.grad_sigma_ff(s, t, u))
        got, _ = tn.grad_free_energy(tn.ff_curve(u), H, V)
        want = _ff_gradient_mp(H, V, u)
        assert max(abs(got[0] - want[0]), abs(got[1] - want[1])) <= 1e-15


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["hex", "ff"]), u=st.floats(0.3, 1.3),
       H=st.floats(-1.5, 1.5), V=st.floats(-1.5, 1.5))
def test_harnack_curves_cross_the_torus_in_one_conjugate_pair(kind, u, H, V):
    curve = tn.hex_curve() if kind == "hex" else tn.ff_curve(u)
    psi = tn._crossings(tn._fiber_layout(curve), H, V)[0]
    assert psi.size in (0, 2)
    if psi.size:
        assert abs(psi[0] + psi[1] - 2 * np.pi) <= 1e-12


def test_import_loads_no_scipy():
    code = ("import sys, icelab, icelab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def _matrix(h11, h12, h22):
    return np.array([[h11, h12], [h12, h22]], dtype=float)


def test_exact_hessian_inverts_the_closed_form_tension_hessians():
    # Hess f at (H, V) = grad sigma(s, t) is the inverse of Hess sigma(s, t)
    rng = np.random.default_rng(61)
    for s, t in rng.uniform(0.1, 0.45, (8, 2)):
        H, V = (float(x) for x in tn.grad_sigma_hex(s, t))
        _, hess = tn.grad_free_energy(tn.hex_curve(), H, V)
        assert np.max(np.abs(hess @ _matrix(*tn.hess_sigma_hex(s, t)) - np.eye(2))) <= 1e-12
    for s, t, u in zip(*rng.uniform(0.1, 0.9, (2, 8)), rng.uniform(0.3, 1.3, 8)):
        H, V = (float(x) for x in tn.grad_sigma_ff(s, t, u))
        _, hess = tn.grad_free_energy(tn.ff_curve(u), H, V)
        assert np.max(np.abs(hess @ _matrix(*tn.hess_sigma_ff(s, t, u)) - np.eye(2))) <= 1e-12


def test_exact_hessian_matches_differences_of_the_gradient():
    h = 1e-5
    for H, V in [(0.12, 0.16), (0.48, 0.25), (-0.1, 0.3)]:
        _, hess = tn.grad_free_energy(_DEGREE_TWO, H, V)
        assert hess[0, 1] == hess[1, 0] and np.linalg.det(hess) > 0.01
        fd = np.column_stack([
            (np.subtract(tn.grad_free_energy(_DEGREE_TWO, H + h, V)[0],
                         tn.grad_free_energy(_DEGREE_TWO, H - h, V)[0])) / (2 * h),
            (np.subtract(tn.grad_free_energy(_DEGREE_TWO, H, V + h)[0],
                         tn.grad_free_energy(_DEGREE_TWO, H, V - h)[0])) / (2 * h)])
        assert np.max(np.abs(hess - fd)) <= 1e-8
    # off the amoeba no root crosses and the Hessian vanishes
    _, hess = tn.grad_free_energy(tn.hex_curve(), 2.0, 0.1)
    assert np.array_equal(hess, np.zeros((2, 2)))


# grad_free_energy at these points, each within 4e-16 of _scalar_bisection_grad
_GRADIENTS = [
    (tn.hex_curve(), (-0.5866476065228805, 0.2626927845212411),
     (0.13158751584519518, 0.6115099273874793)),
    (tn.hex_curve(), (-0.20264737061880572, 0.5197063963440317),
     (0.11096546643301304, 0.7516518012065772)),
    (tn.ff_curve(1.0), (0.38310471216744335, 0.22988029192928883),
     (0.5991173713468952, 0.5278095136379931)),
    (tn.ff_curve(1.0), (-0.24980711620551932, -0.23842049818991518),
     (0.44669389078478855, 0.4521055516299987)),
    (_DEGREE_TWO, (0.11981233912500311, 0.15541781887768913),
     (0.1423587715018056, 0.5215599366347218)),
    (_DEGREE_TWO, (0.476170414481467, 0.24550554561108384),
     (0.2054903931928023, 0.529459876182848)),
]


@pytest.mark.parametrize("curve, point, grad", _GRADIENTS)
def test_gradient_is_unchanged_by_the_hessian(curve, point, grad):
    assert tn.grad_free_energy(curve, *point)[0] == grad


def test_counting_gradient_matches_ff_closed_form():
    u = math.pi / 3
    for H, V in [(0.2, -0.1), (0.0, 0.0), (-0.4, 0.3)]:
        g1 = tn.grad_free_energy_ff(H, V, u)
        g2, _ = tn.grad_free_energy(tn.ff_curve(u), H, V)
        assert abs(g1[0] - g2[0]) < 1e-10
        assert abs(g1[1] - g2[1]) < 1e-10


def test_ff_gradient_examples():
    u = 0.8
    s, t = tn.grad_free_energy_ff(0.0, 0.0, u)
    assert abs(s - 0.5) < 1e-15 and abs(t - 0.5) < 1e-15
    # symmetry d_H f(H, V) = d_V f(V, H)
    rng = np.random.default_rng(0)
    for _ in range(5):
        H, V = rng.uniform(-0.8, 0.8, 2)
        assert abs(tn.grad_free_energy_ff(H, V, u)[0]
                   - tn.grad_free_energy_ff(V, H, u)[1]) < 1e-14


def test_ff_gradient_matches_quadrature_differences():
    u = math.pi / 3
    curve = tn.ff_curve(u)
    h = 1e-3
    for H, V in [(0.2, -0.1), (-0.3, 0.25)]:
        fd_h = (tn.free_energy(curve, H + h, V) - tn.free_energy(curve, H - h, V)) / (2 * h)
        fd_v = (tn.free_energy(curve, H, V + h) - tn.free_energy(curve, H, V - h)) / (2 * h)
        gh, gv = tn.grad_free_energy_ff(H, V, u)
        assert abs(fd_h - gh) < 1e-4
        assert abs(fd_v - gv) < 1e-4


def test_ff_gradient_out_of_range():
    with pytest.raises(OutOfRange):
        tn.grad_free_energy_ff(5.0, 5.0, 0.2)
    with pytest.raises(OutOfRange):
        tn.grad_free_energy_ff(0.0, 0.0, 2.0)


# ---------------------------------------------------------------------------
# closed-form tensions
# ---------------------------------------------------------------------------

def test_sigma_hex_examples():
    gs, _ = tn.grad_sigma_hex(1.0 / 3.0, 1.0 / 3.0)
    assert abs(gs) < 1e-14
    val = float(tn.sigma_hex(1.0 / 3.0, 1.0 / 3.0))
    assert abs(val + 3.0 / math.pi * lobachevsky(math.pi / 3)) < 1e-12
    gs, _ = tn.grad_sigma_hex(0.25, 0.5)
    assert abs(gs) < 1e-14
    with pytest.raises(DomainBoundary):
        tn.sigma_hex(0.6, 0.5)


@pytest.mark.parametrize("s, t", [(math.nan, 0.3), (0.3, math.nan), (math.nan, math.nan)])
def test_closed_forms_refuse_nan_slopes(s, t):
    # a NaN slope passed every `<= 0` test, and lobachevsky_fast maps NaN
    # to 0, so sigma_hex(nan, 0.3) returned -0.1249
    u = 0.9
    for evaluate in (tn.sigma_hex, tn.grad_sigma_hex, tn.hess_sigma_hex,
                     lambda s, t: tn.sigma_ff(s, t, u), lambda s, t: tn.grad_sigma_ff(s, t, u),
                     lambda s, t: tn.hess_sigma_ff(s, t, u)):
        with pytest.raises(DomainBoundary):
            evaluate(s, t)
    for sigma in (tn.hex_tension(), tn.ff_tension(u), tn.quadratic_tension(1.7, 0.4, 2.2),
                  tn.numeric_tension(tn.hex_curve())):
        assert not sigma.feasible(s, t)
        assert not sigma.feasible(np.array([0.3, s]), np.array([0.3, t]))


def test_closed_form_ff_tension_matches_the_free_energy():
    for u in (0.4, math.pi / 4, 1.2):
        curve = tn.ff_curve(u)
        for s in (0.2, 0.5, 0.8):
            for t in (0.2, 0.35, 0.65, 0.8):
                H, V = (float(x) for x in tn.grad_sigma_ff(s, t, u))
                oracle = s * H + t * V - tn.free_energy(curve, H, V, tol=1e-11)
                assert abs(tn.sigma_ff(s, t, u) - oracle) <= 1e-10, (s, t, u)


def test_ff_values_on_arrays_match_the_scalar_path():
    u = 0.9
    s, t = np.meshgrid(np.linspace(0.1, 0.9, 7), np.linspace(0.15, 0.85, 5))
    values = tn.ff_tension(u).value(s, t)
    assert values.shape == s.shape
    assert all(values[k] == tn.ff_tension(u).value(s[k], t[k]) for k in np.ndindex(s.shape))
    p = np.linspace(-1.0, 1.0, 7)[None, :] + 0 * t
    dens = fl.ff_density(u).value(p, t)
    assert all(dens[k] == fl.ff_density(u).value(p[k], t[k]) for k in np.ndindex(p.shape))


def test_grad_sigma_ff_examples():
    u = math.pi / 4
    gs, gt = tn.grad_sigma_ff(0.5, 0.5, u)
    assert abs(gs) < 1e-14 and abs(gt) < 1e-14
    gs, _ = tn.grad_sigma_ff(0.25, 0.25, u)
    assert abs(gs + math.asinh(1.0 / math.sqrt(2))) < 1e-14
    # the two components swap under s <-> t
    a = tn.grad_sigma_ff(0.3, 0.6, u)
    b = tn.grad_sigma_ff(0.6, 0.3, u)
    assert abs(float(a[0]) - float(b[1])) < 1e-14
    with pytest.raises(DomainBoundary):
        tn.grad_sigma_ff(0.0, 0.5, u)


def test_ff_inversion():
    u = 1.1
    for s, t in [(0.3, 0.4), (0.25, 0.25), (0.6, 0.2), (0.8, 0.7)]:
        H, V = (float(x) for x in tn.grad_sigma_ff(s, t, u))
        s2, t2 = tn.grad_free_energy_ff(H, V, u)
        assert abs(s2 - s) < 1e-12 and abs(t2 - t) < 1e-12


def test_hessians_match_finite_differences():
    d = 1e-6
    h11, h12, h22 = (float(x) for x in tn.hess_sigma_hex(0.3, 0.35))
    g0 = tn.grad_sigma_hex(0.3 - d, 0.35)
    g1 = tn.grad_sigma_hex(0.3 + d, 0.35)
    assert abs((float(g1[0]) - float(g0[0])) / (2 * d) - h11) < 1e-7
    u = 0.7
    h11, h12, h22 = (float(x) for x in tn.hess_sigma_ff(0.3, 0.55, u))
    g0 = tn.grad_sigma_ff(0.3, 0.55 - d, u)
    g1 = tn.grad_sigma_ff(0.3, 0.55 + d, u)
    assert abs((float(g1[0]) - float(g0[0])) / (2 * d) - h12) < 1e-7
    g0 = tn.grad_sigma_ff(0.3 - d, 0.55, u)
    g1 = tn.grad_sigma_ff(0.3 + d, 0.55, u)
    assert abs((float(g1[1]) - float(g0[1])) / (2 * d) - h12) < 1e-7


def test_strict_convexity_at_random_interior_points():
    rng = np.random.default_rng(21)
    count = 0
    while count < 100:
        s, t = rng.uniform(0.02, 0.98, 2)
        if s + t < 0.98:
            h11, h12, h22 = (float(x) for x in tn.hess_sigma_hex(s, t))
            assert h11 > 0 and h11 * h22 - h12 * h12 > 0
        h11, h12, h22 = (float(x) for x in tn.hess_sigma_ff(s, t, 0.9))
        assert h11 > 0 and h11 * h22 - h12 * h12 > 0
        count += 1


def test_dimer_hessian_determinants_are_pi_squared():
    # both closed-form tensions have det Hess = pi^2; a genuinely
    # different model is needed as a contrast, e.g. a quadratic
    for s, t in [(0.3, 0.4), (0.2, 0.7), (0.45, 0.45)]:
        h11, h12, h22 = (float(x) for x in tn.hess_sigma_hex(s * 0.8, t * 0.6))
        assert abs(h11 * h22 - h12 * h12 - math.pi ** 2) < 1e-10
        h11, h12, h22 = (float(x) for x in tn.hess_sigma_ff(s, t, 0.6))
        assert abs(h11 * h22 - h12 * h12 - math.pi ** 2) < 1e-10
    quad = tn.quadratic_tension(1.0, 0.0, 2.0)
    h11, h12, h22 = (float(x) for x in quad.hess(0.1, 0.1))
    assert abs(h11 * h22 - h12 * h12 - math.pi ** 2) > 1.0


def test_hess_spectral_independence():
    assert tn.hess_spectral_independence(0.3, 0.4, [0.7]) == 0.0
    spread = tn.hess_spectral_independence(
        0.3, 0.4, [math.pi / 6, math.pi / 4, math.pi / 3])
    assert spread <= 1e-8


# ---------------------------------------------------------------------------
# Legendre machinery
# ---------------------------------------------------------------------------

def test_legendre_sigma_matches_hex_closed_form():
    fef = tn.FreeEnergyField(tn.hex_curve())
    for s, t in [(0.3, 0.4), (0.2, 0.2), (0.45, 0.3)]:
        sig, (H, V) = tn.legendre_sigma(fef, s, t)
        assert abs(sig - float(tn.sigma_hex(s, t))) < 1e-4
        gs, gt = tn.grad_sigma_hex(s, t)
        assert abs(H - float(gs)) < 1e-4
        assert abs(V - float(gt)) < 1e-4


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(s=st.floats(0.05, 0.9), frac=st.floats(0.0, 1.0))
def test_legendre_involution_on_the_hex_triangle(s, frac):
    t = 0.05 + frac * (0.9 - s)        # s, t >= 0.05 and s + t <= 0.95
    calls = []
    real = tn.grad_free_energy
    with pytest.MonkeyPatch.context() as mp_:
        mp_.setattr(tn, "grad_free_energy",
                    lambda *args, **kw: calls.append(args) or real(*args, **kw))
        # the residual at the default tol alone leaves (H, V) off by up to
        # |Hess sigma| * tol, and |Hess sigma| reaches 40 at this margin
        sig, (H, V) = tn.legendre_sigma(tn.FreeEnergyField(tn.hex_curve()), s, t)
    gs, gt = tn.grad_sigma_hex(s, t)
    assert max(abs(H - gs), abs(V - gt)) <= 1e-10
    assert abs(sig - tn.sigma_hex(s, t)) <= 1e-9
    assert len(calls) <= 16


def test_legendre_sigma_symmetry():
    fef = tn.FreeEnergyField(tn.hex_curve())
    s1, _ = tn.legendre_sigma(fef, 0.3, 0.4)
    s2, _ = tn.legendre_sigma(fef, 0.4, 0.3)
    assert abs(s1 - s2) < 1e-8


def test_legendre_sigma_domain_boundary():
    fef = tn.FreeEnergyField(tn.hex_curve())
    with pytest.raises(DomainBoundary):
        tn.legendre_sigma(fef, 0.7, 0.7)


def _polygon_contains(curve, s, t):
    """Whether each (s, t) is strictly inside the curve's `newton_polygon`."""
    polygon = tn.newton_polygon([k for k, _ in curve.coeffs])
    return np.vectorize(lambda a, b: tn._inside(polygon, a, b))(s, t)


def test_newton_polygon_is_the_hull_not_an_octagon():
    # 1 + z^2 + w: (1.5, 0.4) has s + 2t = 2.3 > 2, outside the triangle but
    # inside its bounding octagon
    curve = tn.SpectralCurve.from_dict({(0, 0): 1.0, (2, 0): 1.0, (0, 1): 1.0})
    assert not _polygon_contains(curve, 1.5, 0.4)
    with pytest.raises(DomainBoundary):
        tn.legendre_sigma(tn.FreeEnergyField(curve), 1.5, 0.4)
    s, t = np.array([[1.5, 0.5], [0.2, 1.2]]), np.array([[0.4, 0.3], [0.5, 0.5]])
    got = _polygon_contains(curve, s, t)
    assert got.shape == (2, 2)
    assert got.tolist() == [[bool(_polygon_contains(curve, a, b))
                             for a, b in zip(rs, rt)] for rs, rt in zip(s, t)]
    assert got.tolist() == [[False, True], [True, False]]
    # the margins say the same, edges first
    sigma = tn.numeric_tension(curve)
    assert np.array_equal((sigma.margins(s, t) > 0).all(axis=0), got)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(exps=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                     min_size=1, max_size=5, unique=True),
       a=st.integers(-16, 16), b=st.integers(-16, 16))
def test_newton_polygon_matches_a_convex_combination_reference(exps, a, b):
    curve = tn.SpectralCurve.from_dict({k: 1.0 for k in exps})
    s, t = a / 8, b / 8
    pts = np.vstack([np.array(exps, dtype=float).T, np.ones(len(exps))])

    def in_hull(x, y):
        # a convex combination of the exponents equal to (x, y)
        return linprog(np.zeros(len(exps)), A_eq=pts, b_eq=[x, y, 1.0],
                       bounds=(0, None), method="highs").status == 0

    # a point of the 1/8 lattice is on an edge or at least 1/48 from its
    # line, so it is interior exactly when four 1e-4 moves stay in the hull
    interior = all(in_hull(s + dx, t + dy)
                   for dx, dy in ((1e-4, 0), (-1e-4, 0), (0, 1e-4), (0, -1e-4)))
    assert bool(_polygon_contains(curve, s, t)) == interior


# The feasibility tests the slope polygon replaced, verbatim: the hex and ff
# closures, the numeric tension's hull test, and the solver's box test (the
# only one the quadratic tension had; its own closure was a constant True).
def _parent_hex_inside(s, t, margin=0.0):
    """Whether (s, t) is inside the hexagonal triangle by margin, on arrays;
    False for NaN."""
    return (s > margin) & (t > margin) & (s + t < 1.0 - margin)


def _parent_ff_inside(s, t, margin=0.0):
    """Whether (s, t) is inside the free-fermion square by margin, on
    arrays; False for NaN."""
    return (s > margin) & (t > margin) & (s < 1.0 - margin) & (t < 1.0 - margin)


def _parent_newton_polygon_contains(curve, s, t, margin: float = 1e-9):
    """Whether each (s, t) is inside the Newton polygon by margin, on arrays.

    Each edge is a line a i + b j = h through two exponents with every
    exponent on the side a i + b j <= h, (a, b) primitive; (s, t) must have
    a s + b t <= h - margin on all of them.  Exponents on one line give both
    sides of it, so nothing passes.
    """
    pts = [k for k, _ in curve.coeffs]
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    inside = np.full(np.broadcast(s, t).shape, len(pts) > 1)
    for (i0, j0), (i1, j1) in itertools.permutations(pts, 2):
        g = math.gcd(j1 - j0, i1 - i0)
        a, b = (j1 - j0) // g, (i0 - i1) // g
        if all(a * (i - i0) + b * (j - j0) <= 0 for i, j in pts):
            inside &= s * a + t * b <= a * i0 + b * j0 - margin
    return inside


def _parent_box(edges, lo, hi):
    return not (np.min(edges) <= lo or np.max(edges) >= hi)


_BOX = 1.5
_ORACLE_CURVES = {     # exponents; the last has an edge of normal (1, 2)
    "hex": [(0, 0), (1, 0), (0, 1)], "inverse-z": [(0, 0), (-1, 0), (0, 1)],
    "z-squared": [(0, 0), (2, 0), (0, 1)]}
_ORACLE = {            # tension, its polygon's vertices in order, the parent's test
    "hex": (tn.hex_tension(), [(0, 0), (1, 0), (0, 1)],
            lambda s, t, m: bool(_parent_hex_inside(np.asarray(s), np.asarray(t), m).all())),
    "ff": (tn.ff_tension(0.9), [(0, 0), (1, 0), (1, 1), (0, 1)],
           lambda s, t, m: bool(_parent_ff_inside(np.asarray(s), np.asarray(t), m).all())),
    "quadratic": (tn.quadratic_tension(1.7, 0.4, 2.2, box=_BOX),
                  [(-_BOX, -_BOX), (_BOX, -_BOX), (_BOX, _BOX), (-_BOX, _BOX)],
                  lambda s, t, m: _parent_box(np.stack(np.broadcast_arrays(s, t)),
                                              -_BOX + m, _BOX - m))}
# The parent's numeric feasible floored the margin at 1e-9 while legendre_sigma
# refused slopes within 1e-7 of an edge; the polygon is inset by LEGENDRE_INSET,
# so its reference is the parent's hull test at that inset plus the margin.
for _name, _exps in _ORACLE_CURVES.items():
    _curve = tn.SpectralCurve.from_dict({k: 1.0 for k in _exps})
    _ORACLE["numeric-" + _name] = (
        tn.numeric_tension(_curve), _exps,
        lambda s, t, m, c=_curve: bool(_parent_newton_polygon_contains(
            c, s, t, tn.LEGENDRE_INSET + m).all()))

# a point of an edge's line (up to a quarter edge past its ends), then one
# step off it: from ulps to 0.3, at the inset and the margins, or NaN
_NEAR_EDGE = st.tuples(
    st.integers(0, 3), st.floats(-0.25, 1.25),
    st.sampled_from([0.0, 5e-324, 1e-16, 1e-10, 1e-9, 2e-9, 1e-7 - 1e-12, 1e-7, 1e-7 + 1e-12,
                     1.01e-7, 1e-6, 1e-3, 0.3, math.nan]),
    st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))


@pytest.mark.parametrize("name", _ORACLE)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(margin=st.sampled_from([0.0, 1e-9]), points=st.lists(_NEAR_EDGE, min_size=1, max_size=8))
def test_polygon_decides_as_the_parent_tests(name, margin, points):
    sigma, vertices, parent = _ORACLE[name]
    s, t = [], []
    for edge, lam, step, (ds, dt) in points:
        (s0, t0), (s1, t1) = vertices[edge % len(vertices)], vertices[(edge + 1) % len(vertices)]
        s.append(s0 + lam * (s1 - s0) + ds * step)
        t.append(t0 + lam * (t1 - t0) + dt * step)
    cases = [(a, b) for a, b in zip(s, t)] + [(np.array(s), np.array(t))]
    if name == "quadratic":    # the box test passed NaN on to a constant True
        cases = [(a, b) for a, b in cases if not np.isnan(np.add(a, b)).any()]
    for a, b in cases:
        got, want = sigma.feasible(a, b, margin), parent(a, b, margin)
        if name.startswith("numeric") and got != want:
            # the parent took a s + b t <= h - (inset + margin); the polygon
            # takes a s + b t < (h - inset) - margin: they part only at a tie
            assert (np.abs(sigma.margins(a, b) - margin) <= 1e-15).any(), (a, b)
        else:
            assert got == want, (a, b)


# a slope pair per point: s spread about 0 (the shift finds the polygon) by
# up to 15 % of the polygon's width, t from 5 % below to 5 % above its height
_SPREAD = st.tuples(st.floats(-0.15, 0.15), st.floats(-0.05, 1.05))


@pytest.mark.parametrize("name", _ORACLE)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(margin=st.sampled_from([0.0, 1e-6]), points=st.lists(_SPREAD, min_size=1, max_size=6),
       fractions=st.lists(st.floats(1e-3, 1 - 1e-3), min_size=1, max_size=3),
       beyond=st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=3), nan=st.booleans())
def test_interval_is_where_the_shifted_slopes_are_feasible(name, margin, points, fractions,
                                                           beyond, nan):
    sigma, vertices = _ORACLE[name][:2]
    (s_lo, t_lo), (s_hi, t_hi) = np.min(vertices, axis=0), np.max(vertices, axis=0)
    s = np.array([ds * (s_hi - s_lo) for ds, _ in points])
    t = np.array([t_lo + dt * (t_hi - t_lo) for _, dt in points])
    if nan:
        t[-1] = math.nan
    for a, b in ((s, t), (s[-1], t[-1])):
        lo, hi = sigma.interval(a, b, margin)
        if nan:
            assert not lo < hi
        ends = [e for e in (lo, hi) if math.isfinite(e)]
        shifts = [e + d for e in ends for d in (-1e-12, 1e-12)]
        shifts += [e + d for e in ends for d in beyond] + [e - d for e in ends for d in beyond]
        if lo < hi and hi - lo > 1e-9:
            shifts += [lo + f * (hi - lo) for f in fractions]
        for c in shifts:
            assert (lo < c < hi) == sigma.feasible(a + c, b, margin), (a, b, c)


def test_surface_tension_is_frozen_and_replace_rebuilds_its_box():
    sigma, wider = tn.hex_tension(), tn.newton_polygon([(0, 0), (2, 0), (0, 2)])
    assert sigma.interval(0.0, 0.5) == (0.0, 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sigma.polygon = wider
    replaced = dataclasses.replace(sigma, polygon=wider)
    assert replaced.interval(0.0, 0.5) == (0.0, 1.5)
    assert sigma.interval(0.0, 0.5) == (0.0, 0.5)


def test_numeric_tension_box_comes_from_its_polygon():
    # 1 + 1/z + w has s in [-1, 0]: the [0, 1] box the numeric tension used
    # to carry left partial_legendre no feasible grid point at xi = 0.3
    curve = tn.SpectralCurve.from_dict({(0, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0})
    sigma = tn.numeric_tension(curve)
    assert sigma.feasible(-0.3, 0.3)
    assert sigma.interval(0.0, 0.3) == pytest.approx((-0.7, 0.0), abs=1e-6)
    pl = tn.partial_legendre(sigma, 0.0, 0.3)
    assert -0.7 < pl.nu_star < 0.0
    assert abs(float(sigma.grad(pl.nu_star, 0.3)[0])) < 1e-8


def test_numeric_tension_feasible_points_are_the_legendre_domain():
    # feasible floored its margin at 1e-9 while legendre_sigma asked for 1e-7,
    # so (5e-8, 0.3) was feasible and its value raised DomainBoundary
    num = tn.numeric_tension(tn.hex_curve())
    assert not num.feasible(5e-8, 0.3)
    with pytest.raises(DomainBoundary):
        num.value(5e-8, 0.3)
    assert num.feasible(2 * tn.LEGENDRE_INSET, 0.3)


def test_legendre_involution_ff():
    u = math.pi / 3
    curve = tn.ff_curve(u)
    rng = np.random.default_rng(22)
    fef = tn.FreeEnergyField(curve)
    for _ in range(4):
        H, V = rng.uniform(-0.6, 0.6, 2)
        s, t = tn.grad_free_energy_ff(H, V, u)
        sig, _ = tn.legendre_sigma(fef, s, t)
        f_back = s * H + t * V - sig
        assert abs(f_back - tn.free_energy(curve, H, V)) < 1e-5


def test_gradient_consistency_with_value_functions():
    # hex value from the Lobachevsky closed form
    h = 1e-4
    s, t = 0.3, 0.35
    fd = (float(tn.sigma_hex(s + h, t)) - float(tn.sigma_hex(s - h, t))) / (2 * h)
    assert abs(fd - float(tn.grad_sigma_hex(s, t)[0])) < 1e-6
    # free-fermion value through the numeric Legendre pipeline
    u = 0.9
    fef = tn.FreeEnergyField(tn.ff_curve(u))
    h = 1e-2

    def val(ss):
        return tn.legendre_sigma(fef, ss, t)[0]

    fd = (-val(s + 2 * h) + 8 * val(s + h) - 8 * val(s - h) + val(s - 2 * h)) / (12 * h)
    assert abs(fd - float(tn.grad_sigma_ff(s, t, u)[0])) < 1e-6


# ---------------------------------------------------------------------------
# partial Legendre transform
# ---------------------------------------------------------------------------

def test_partial_legendre_quadratic_exact():
    qa, qb, qc = 1.7, 0.4, 2.2
    quad = tn.quadratic_tension(qa, qb, qc)
    partials = fl.density_from_tension(quad).partials
    for p, xi in [(0.3, -0.5), (-1.1, 0.8)]:
        pl = tn.partial_legendre(quad, p, xi)
        tau = p * p / (2 * qa) - (qb / qa) * p * xi + 0.5 * (qb * qb / qa - qc) * xi * xi
        assert abs(pl.tau - tau) < 1e-12
        assert abs(pl.nu_star - (p - qb * xi) / qa) < 1e-12
        _, d11, _, d22 = partials(p, xi)
        assert abs(d11 * qa - 1.0) < 1e-12
        assert abs(d22 + (qa * qc - qb * qb) / qa) < 1e-12


def test_partial_legendre_hessian_identities_hex():
    # tau's second partials are the generic density's, at the partial
    # Legendre maximizer
    hx = tn.hex_tension()
    partials = fl.density_from_tension(hx).partials
    for p, xi in [(0.1, 0.3), (-0.2, 0.45), (0.0, 0.25)]:
        pl = tn.partial_legendre(hx, p, xi)
        h11, h12, h22 = (float(x) for x in hx.hess(pl.nu_star, xi))
        det = h11 * h22 - h12 * h12
        _, d11, _, d22 = partials(p, xi)
        assert abs(d11 * h11 - 1.0) < 1e-12
        assert abs(d22 / d11 + det) < 1e-10


def test_partial_legendre_unbounded():
    quad = tn.quadratic_tension(1.0, 0.0, 1.0, box=1.0)
    with pytest.raises(Unbounded):
        tn.partial_legendre(quad, 5.0, 0.0)


def test_partial_legendre_maximizer_equation():
    hx = tn.hex_tension()
    pl = tn.partial_legendre(hx, 0.17, 0.4)
    # p = d1 sigma at the maximizer
    assert abs(float(hx.grad(pl.nu_star, 0.4)[0]) - 0.17) < 1e-13
    assert abs(pl.d2 + float(hx.grad(pl.nu_star, 0.4)[1])) < 1e-12


def test_partial_legendre_root_past_the_last_feasible_grid_point():
    # the slice at xi = 0.4 is (0, 0.6); the root sits above 0.59375, the last
    # feasible point of the 65-point grid, where a scan finds no sign change
    hx = tn.hex_tension()
    pl = tn.partial_legendre(hx, 4.0, 0.4)
    assert 0.59375 < pl.nu_star < 0.6
    assert abs(float(hx.grad(pl.nu_star, 0.4)[0]) - 4.0) < 1e-12


def test_partial_legendre_no_feasible_slice():
    with pytest.raises(DomainBoundary):
        tn.partial_legendre(tn.hex_tension(), 0.0, 1.0 - 1e-12)


_PL_TENSIONS = {"hex": tn.hex_tension(), "ff": tn.ff_tension(0.9),
                "quad": tn.quadratic_tension(1.7, 0.4, 2.2)}

# (tension, p, xi, sigma.grad calls, tau, nu*, d2, d11, d22) recorded from the
# 65-point scan and bisection that the bracketed Newton solve replaced; its
# own root residual was about 1e-12, so 1e-10 relative covers its error
_PL_RECORDED = [
    ("hex", -1.5, 0.1, 127, 0.02464955891053168, 0.027789111205404636,
     0.2347072751623441, 0.035095781491719796, -0.34638147947034975),
    ("hex", -1.5, 0.4, 108, 0.06960039043506891, 0.07133222771985892,
     0.046120671737103054, 0.07407550765455087, -0.7310959563602838),
    ("hex", -1.5, 0.75, 85, 0.04653381260445849, 0.043112330529044465,
     -0.15570202182720272, 0.03678344056320532, -0.36303800686982124),
    ("hex", -0.4, 0.1, 127, 0.10230640073228699, 0.16525227139447274,
     0.8734758448421616, 0.37827372629689937, -3.7334120338763475),
    ("hex", -0.4, 0.4, 108, 0.21466748714687417, 0.21556449721081694,
     -0.01722409074756963, 0.1960550371727755, -1.9349856577361626),
    ("hex", -0.4, 0.75, 85, 0.12199244318445682, 0.09903415398205945,
     -0.4371725248677059, 0.06293527095947633, -0.6211462272453973),
    ("hex", 0.17, 0.1, 127, 0.3063010295860553, 0.6064650638458087,
     0.9473488429287584, 0.7753884064098572, -7.652776828456393),
    ("hex", 0.17, 0.4, 108, 0.37162229451406775, 0.33698311296482464,
     -0.2571265432756628, 0.21456023539989638, -2.117624643601587),
    ("hex", 0.17, 0.75, 85, 0.18896042373908503, 0.1361755963003437,
     -0.7031982005772459, 0.06536947469397467, -0.645170855136552),
    ("hex", 1.3, 0.1, 127, 1.200988030750308, 0.8639683494512838,
     -1.0064051510287595, 0.04822396445911183, -0.47595145186362986),
    ("hex", 1.3, 0.4, 108, 0.8654564195012537, 0.5122052768125835,
     -1.2505535217573445, 0.09107984684876146, -0.8989220573090797),
    ("hex", 1.3, 0.75, 85, 0.3809265182374227, 0.1990105096286997,
     -1.4891126368861847, 0.042023396767882346, -0.414754301689016),
    ("ff", -1.2, 0.15, 134, -0.3429712260666318, 0.10947628062446776,
     0.8082600607807173, 0.14056529075122884, -1.3873238122387324),
    ("ff", -1.2, 0.5, 134, -0.16524193598323164, 0.19014792831319205,
     0.191723144887554, 0.17757104029845827, -1.7525559208356791),
    ("ff", -1.2, 0.85, 134, -0.1929727965176114, 0.0843740703844297,
     -0.2983622791907523, 0.08485015414356689, -0.8374374547684585),
    ("ff", -0.3, 0.15, 134, -0.13703818578277582, 0.4349321641253353,
     1.4528616319483818, 0.6843464442170747, -6.7542286777146945),
    ("ff", -0.3, 0.5, 134, 0.09562718431360988, 0.4082330070535116,
     0.06628373875125822, 0.2978453880316954, -2.9396161525617894),
    ("ff", -0.3, 0.85, 134, -0.06419543908439924, 0.23497908258494782,
     -1.0054741646211274, 0.3232472748259101, -3.190322726261944),
    ("ff", 0.25, 0.15, 134, 0.19797102549482493, 0.7480438050888971,
     1.0599152666534493, 0.3564530398655524, -3.518050491038738),
    ("ff", 0.25, 0.5, 134, 0.3664127166933909, 0.5767814367760875,
     -0.05570357570098716, 0.3014778207627891, -2.975466826631253),
    ("ff", 0.25, 0.85, 134, 0.13557096802006352, 0.5304534628599251,
     -1.4562585695086776, 0.6978237602997015, -6.887244455838658),
    ("ff", 0.9, 0.15, 134, 0.736646762282448, 0.8850576533584438,
     0.47562779985407805, 0.12214264293840763, -1.2054995663055934),
    ("ff", 0.9, 0.5, 134, 0.8004527126055891, 0.749947610525723,
     -0.16420445174936876, 0.22219099217043708, -2.192937194207757),
    ("ff", 0.9, 0.85, 134, 0.5974307557545584, 0.8352238613627694,
     -1.015979750919892, 0.2396126683701112, -2.364882246302415),
    ("quad", -3.0, -1.5, 144, -0.7808823529411759, -1.4117647058822849,
     3.864705882352914, 0.5882352941176471, -2.1058823529411765),
    ("quad", -3.0, 0.8, 144, 2.537882352941177, -1.9529411764704805,
     -0.978823529411808, 0.5882352941176471, -2.1058823529411765),
    ("quad", 0.3, -1.5, 144, -2.236764705882353, 0.5294117647056089,
     3.088235294117757, 0.5882352941176471, -2.1058823529411765),
    ("quad", 0.3, 0.8, 144, -0.7038823529411766, -0.011764705882586868,
     -1.7552941176469654, 0.5882352941176471, -2.1058823529411765),
    ("quad", 2.5, -1.5, 144, 0.3514705882352942, 1.823529411764583,
     2.570588235294167, 0.5882352941176471, -2.1058823529411765),
    ("quad", 2.5, 0.8, 144, 0.6937647058823528, 1.282352941176387,
     -2.272941176470555, 0.5882352941176471, -2.1058823529411765),
]


def _grad_calls(name, p, xi):
    """sigma.grad calls one partial_legendre solve makes."""
    sigma = _PL_TENSIONS[name]
    calls = []

    def grad(s, t):
        calls.append((s, t))
        return sigma.grad(s, t)

    tn.partial_legendre(dataclasses.replace(sigma, grad=grad), p, xi)
    return len(calls)


def test_partial_legendre_matches_recorded_values():
    for name, p, xi, _, *ref in _PL_RECORDED:
        pl = tn.partial_legendre(_PL_TENSIONS[name], p, xi)
        _, d11, _, d22 = fl.density_from_tension(_PL_TENSIONS[name]).partials(p, xi)
        for got, want in zip((pl.tau, pl.nu_star, pl.d2, d11, d22), ref):
            assert abs(got - want) <= 1e-10 * abs(want), (name, p, xi)


def test_partial_legendre_grad_calls():
    counts = []
    for name, p, xi, recorded_calls, *_ in _PL_RECORDED:
        calls = _grad_calls(name, p, xi)
        assert calls <= recorded_calls, (name, p, xi)
        counts.append(calls)
    assert np.mean(counts) <= 12


def test_numeric_tension_hessian_is_the_closed_form():
    # one Legendre solve and the inverse of the exact Hessian of f
    u = 0.8
    for curve, hess in ((tn.hex_curve(), tn.hess_sigma_hex),
                        (tn.ff_curve(u), lambda s, t: tn.hess_sigma_ff(s, t, u))):
        num = tn.numeric_tension(curve)
        for s, t in ((0.3, 0.4), (0.15, 0.6), (0.5, 0.2)):
            got = np.array(num.hess(s, t), dtype=float)
            want = np.array(hess(s, t), dtype=float)
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), (s, t)


def test_numeric_tension_solves_each_point_once(monkeypatch):
    solved = []
    real = tn.legendre_sigma

    def counted(fef, s, t, tol=1e-9):
        solved.append((s, t))
        return real(fef, s, t, tol=tol)

    monkeypatch.setattr(tn, "legendre_sigma", counted)
    num = tn.numeric_tension(tn.hex_curve())
    # grad and hess at each of the Newton iterates from the slice's middle
    # 0.35, then the value at the last
    tn.partial_legendre(num, 0.1, 0.3)
    assert len(solved) == len(set(solved)) == 4
    solved.clear()
    num.value(0.3, 0.4), num.grad(0.3, 0.4), num.hess(0.3, 0.4)
    assert solved == [(0.3, 0.4)]


def test_numeric_tension_solves_each_entry_once_across_value_grad_hess(monkeypatch):
    solved = []
    real = tn.legendre_sigma

    def counted(fef, s, t, tol=1e-9):
        solved.append((s, t))
        return real(fef, s, t, tol=tol)

    monkeypatch.setattr(tn, "legendre_sigma", counted)
    num = tn.numeric_tension(tn.hex_curve())
    # five distinct points; (0.2, 0.5) twice, not next to itself
    s = np.array([[0.3, 0.2, 0.25], [0.2, 0.35, 0.4]])
    t = np.array([[0.4, 0.5, 0.3], [0.5, 0.2, 0.4]])
    grad, value, hess = num.grad(s, t), num.value(s, t), num.hess(s, t)
    assert len(solved) == s.size
    assert value.shape == s.shape and all(x.shape == s.shape for x in (*grad, *hess))
    # the kept call is a copy: an input edited in place is a new call
    s[0, 0] = 0.31
    num.value(s, t)
    assert len(solved) == 2 * s.size


@pytest.mark.xfail(strict=True, raises=NonConvergence,
                   reason="legendre_sigma's Newton from (0, 0), its step capped at 0.5 and "
                          "60 iterations, stalls at residual 6.5e-3 near the s = 0 edge")
def test_legendre_sigma_near_an_edge_of_the_numeric_polygon():
    assert tn.numeric_tension(tn.hex_curve()).feasible(1e-5, 0.3)
    sig, _ = tn.legendre_sigma(tn.FreeEnergyField(tn.hex_curve()), 1e-5, 0.3)
    assert abs(sig - float(tn.sigma_hex(1e-5, 0.3))) < 1e-8


def test_numeric_tension_matches_hex():
    num = tn.numeric_tension(tn.hex_curve())
    assert abs(float(num.value(0.3, 0.4)) - float(tn.sigma_hex(0.3, 0.4))) < 1e-4
    gs, gt = num.grad(0.3, 0.4)
    ge = tn.grad_sigma_hex(0.3, 0.4)
    assert abs(float(gs) - float(ge[0])) < 1e-4
    assert abs(float(gt) - float(ge[1])) < 1e-4


def test_numeric_tension_on_arrays():
    num = tn.numeric_tension(tn.hex_curve())
    s, t = np.array([0.3, 0.2]), np.array([0.4, 0.5])
    scalar = [(float(num.value(a, b)), *(float(x) for x in num.grad(a, b)),
               *(float(x) for x in num.hess(a, b))) for a, b in zip(s, t)]
    arrays = np.column_stack([num.value(s, t), *num.grad(s, t), *num.hess(s, t)])
    assert np.array_equal(arrays, np.array(scalar))
    assert num.feasible(s, t) and not num.feasible(np.array([0.3, 0.7]), t)
    # the generic density built on it, against the closed-form hex density
    dens = fl.density_from_tension(num)
    p, xi = np.array([0.1, 0.2]), np.array([0.3, 0.3])
    values = dens.value(p, xi)
    assert np.array_equal(values, [float(dens.value(a, b)) for a, b in zip(p, xi)])
    assert np.max(np.abs(values - fl.hex_density().value(p, xi))) <= 1e-8
