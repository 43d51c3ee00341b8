import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icelab import flow as fl
from icelab import shapes as sh
from icelab import tension as tn
from icelab.errors import Inconsistent, NonConvergence, SlopeOutOfDomain

import el_reference as er

HEX = tn.hex_tension()


def affine_field(grid, s0, t0):
    xs, ys = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    return sh.HeightField(grid, s0 * xs + t0 * ys, kappa=t0 * grid.L)


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------

def test_action_affine_exact():
    grid = sh.CylinderGrid(1.0, 1.0, 9, 8)
    hf = affine_field(grid, 0.3, 0.35)
    a = sh.action(hf, HEX)
    assert abs(a - grid.T * grid.L * float(tn.sigma_hex(0.3, 0.35))) < 1e-12


def test_action_constant_shift_invariance():
    grid = sh.CylinderGrid(1.0, 1.0, 9, 8)
    # dyadic heights plus a dyadic shift: the edge slopes are bit-identical,
    # so the actions are too
    hf = affine_field(grid, 0.3125, 0.375)
    hf2 = sh.HeightField(grid, hf.values + 3.75, kappa=hf.kappa)
    assert np.array_equal(hf2.edge_slopes(), hf.edge_slopes())
    assert sh.action(hf2, HEX) == sh.action(hf, HEX)
    # an inexact shift rounds the heights, so the slopes move in their last bits
    hf = affine_field(grid, 0.3, 0.35)
    hf2 = sh.HeightField(grid, hf.values + 3.7, kappa=hf.kappa)
    a = sh.action(hf, HEX)
    assert abs(sh.action(hf2, HEX) - a) <= 4 * np.spacing(abs(a))


def test_action_v_term_telescopes():
    grid = sh.CylinderGrid(1.0, 1.0, 9, 8)
    rng = np.random.default_rng(5)
    vals = 0.3 * np.meshgrid(grid.xs(), grid.ys(), indexing="ij")[0] \
        + 0.35 * np.meshgrid(grid.xs(), grid.ys(), indexing="ij")[1] \
        + 0.004 * rng.standard_normal((9, 8))
    hf = sh.HeightField(grid, vals, kappa=0.35 * grid.L)
    V = 0.7
    lhs = sh.action(hf, HEX, V) - sh.action(hf, HEX, 0.0)
    rhs = V * grid.L * (np.mean(vals[-1, :]) - np.mean(vals[0, :]))
    assert abs(lhs - rhs) < 1e-12


def test_action_gradient_matches_finite_differences():
    grid = sh.CylinderGrid(1.0, 1.0, 7, 6)
    rng = np.random.default_rng(6)
    base = affine_field(grid, 0.3, 0.35).values + 0.004 * rng.standard_normal((7, 6))
    hf = sh.HeightField(grid, base, kappa=0.35)
    g = sh.action_gradient(hf, HEX, 0.4)
    d = 1e-6
    for (i, j) in [(0, 0), (3, 2), (6, 5), (2, 0)]:
        hp = base.copy()
        hp[i, j] += d
        hm = base.copy()
        hm[i, j] -= d
        fd = (sh.action(sh.HeightField(grid, hp, kappa=0.35), HEX, 0.4)
              - sh.action(sh.HeightField(grid, hm, kappa=0.35), HEX, 0.4)) / (2 * d)
        assert abs(fd - g[i, j]) < 1e-9


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(variant=st.sampled_from(["hex", "ff", "quad"]), s0=st.floats(0.2, 0.35),
       t0=st.floats(0.2, 0.35), V=st.floats(-0.5, 0.5), seed=st.integers(0, 2 ** 32 - 1))
def test_action_midpoint_convexity_property(variant, s0, t0, V, seed):
    # two random feasible fields with one monodromy: node noise of 0.01 moves
    # each edge slope by at most 0.1 on the 0.2 grid, so s, t > 0, s + t < 1
    sigma = {"hex": HEX, "ff": tn.ff_tension(0.9),
             "quad": tn.quadratic_tension(1.7, 0.4, 2.2)}[variant]
    grid = sh.CylinderGrid(1.0, 1.0, 6, 5)
    base = affine_field(grid, s0, t0).values
    rng = np.random.default_rng(seed)
    h1, h2 = (base + 0.01 * rng.uniform(-1.0, 1.0, base.shape) for _ in range(2))

    def act(vals):
        return sh.action(sh.HeightField(grid, vals, kappa=t0), sigma, V)

    mean = 0.5 * (act(h1) + act(h2))
    assert act(0.5 * (h1 + h2)) <= mean + 1e-13 * max(1.0, abs(mean))


def test_sigma_hex_stacked_equals_three_lobachevsky_calls():
    rng = np.random.default_rng(11)
    s = rng.uniform(0.01, 0.6, (4, 8, 8))
    t = rng.uniform(0.01, 0.39, (4, 8, 8))
    for a, b in ((s, t), (0.3, t), (s[0, 0, 0], t[0, 0, 0])):
        three = -(tn.lobachevsky_fast(np.pi * np.asarray(a))
                  + tn.lobachevsky_fast(np.pi * np.asarray(b))
                  + tn.lobachevsky_fast(np.pi * (1.0 - np.asarray(a) - np.asarray(b)))) / np.pi
        stacked = tn.sigma_hex(a, b)
        assert stacked.shape == three.shape and np.array_equal(stacked, three)


def _per_pairing(hf, sigma, V):
    """Action, gradient and Hessian blocks with one tension call per
    (x-edge, y-edge) pairing of the cell."""
    g = hf.grid
    slopes = hf.edge_slopes()
    total = 0.0
    grad_cell = np.zeros(slopes[0].shape + (4,))
    hess_cell = np.zeros(slopes[0].shape + (4, 4))
    for a, b in sh._CELL_COMBOS:
        sx, sy = slopes[a], slopes[2 + b]
        total += float(np.sum(sigma.value(sx, sy) + V * sx))
        ga, gb = sigma.grad(sx, sy)
        x, y = sh._EDGE_STENCILS[a] / g.hx, sh._EDGE_STENCILS[2 + b] / g.hy
        grad_cell += ((np.asarray(ga) + V)[..., None] * x + np.asarray(gb)[..., None] * y)
        h11, h12, h22 = (np.asarray(h)[..., None, None] for h in sigma.hess(sx, sy))
        xy = np.outer(x, y)
        hess_cell += h11 * np.outer(x, x) + h12 * (xy + xy.T) + h22 * np.outer(y, y)
    quarter = 0.25 * g.hx * g.hy
    grad_cell *= quarter
    hess_cell *= quarter
    grad = np.zeros((g.nx, g.ny))
    grad[:-1] += grad_cell[..., 0] + np.roll(grad_cell[..., 2], 1, axis=1)
    grad[1:] += grad_cell[..., 1] + np.roll(grad_cell[..., 3], 1, axis=1)
    j = np.arange(g.ny)
    pairs = (j, (j + 1) % g.ny)

    def scatter(block, rows, cols):
        for r, jr in zip(rows, pairs):
            for c, jc in zip(cols, pairs):
                block[:, jr, jc] += hess_cell[:, :, r, c]

    diag = np.zeros((g.nx, g.ny, g.ny))
    upper = np.zeros((g.nx - 1, g.ny, g.ny))
    scatter(diag[:-1], (0, 2), (0, 2))
    scatter(diag[1:], (1, 3), (1, 3))
    scatter(upper, (0, 2), (1, 3))
    return total * quarter, grad, diag, upper


# (T, L, nx, ny): ny = 2 and 3, where the periodic neighbours j - 1 and j + 1
# coincide or wrap onto each other; the benchmark's cold and warm grids; and
# a grid with hx != hy and T != L
ORACLE_GRIDS = {"9x8": (1.0, 1.0, 9, 8), "5x2": (1.0, 1.0, 5, 2), "4x3": (1.0, 1.0, 4, 3),
                "17x16": (1.0, 1.0, 17, 16), "32x32": (0.25, 1.0, 32, 32),
                "11x6-T0.7-L1.3": (0.7, 1.3, 11, 6)}


@pytest.mark.parametrize("shape", ORACLE_GRIDS.values(), ids=ORACLE_GRIDS.keys())
@pytest.mark.parametrize("sigma", [HEX, tn.ff_tension(1.0), tn.quadratic_tension(1.0, 0.3, 2.0)],
                         ids=["hex", "ff", "quadratic"])
def test_stacked_pairings_equal_the_per_pairing_loop(sigma, shape):
    grid = sh.CylinderGrid(*shape)
    rng = np.random.default_rng(12)
    noise = 0.032 * min(grid.hx, grid.hy)   # keeps the edge slopes 0.3 and 0.35 +- ~0.1
    base = affine_field(grid, 0.3, 0.35).values + noise * rng.standard_normal(shape[2:])
    hf = sh.HeightField(grid, base, kappa=0.35 * grid.L)
    V = 0.4
    total, grad, diag, upper = _per_pairing(hf, sigma, V)
    assert sh.action(hf, sigma, V) == total
    assert np.array_equal(sh.action_gradient(hf, sigma, V), grad)
    blocks = sh._hessian_blocks(grid, hf.edge_slopes(), sigma)
    assert np.array_equal(blocks[0], diag) and np.array_equal(blocks[1], upper)


def test_action_slope_out_of_domain():
    grid = sh.CylinderGrid(1.0, 1.0, 5, 4)
    hf = affine_field(grid, 0.9, 0.3)   # s + t > 1 leaves the hex triangle
    with pytest.raises(SlopeOutOfDomain):
        sh.action(hf, HEX)


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------

def test_boundary_monodromy_mismatch():
    bd = sh.BoundaryData(np.full(8, 0.25), np.full(8, 0.3))
    with pytest.raises(Inconsistent):
        bd.monodromy(1.0 / 8)


def test_resample_profile_periodic():
    ys = np.array([0.0, 0.25, 0.5, 0.75])
    vals = np.sin(2 * np.pi * ys)
    out = sh.resample_profile(ys, vals, 8, 1.0)
    assert abs(out[0] - 0.0) < 1e-14
    assert abs(out[2] - 1.0) < 1e-14
    # linear interpolation at the midpoint between samples
    assert abs(out[1] - 0.5) < 1e-14


def test_resample_profile_keeps_the_trapezoid_mean():
    rng = np.random.default_rng(3)
    ys = np.sort(rng.uniform(0.0, 2.0, 41))
    vals = 0.4 + 0.1 * np.sin(np.pi * ys) + 0.02 * rng.standard_normal(41)
    ys_ext = np.append(ys, ys[0] + 2.0)
    vals_ext = np.append(vals, vals[0])
    mean = np.sum((vals_ext[1:] + vals_ext[:-1]) * np.diff(ys_ext)) / 4.0
    for ny in (8, 12, 16, 97):
        assert abs(np.mean(sh.resample_profile(ys, vals, ny, 2.0)) - mean) < 1e-15


@pytest.mark.parametrize("m", [64, 128])
def test_resample_profile_picks_samples_bit_for_bit(m):
    ys = np.arange(m) / m
    vals = 1 / 3 - 0.04 * np.sin(2 * np.pi * ys + 0.7)
    for ny in (8, 16, 32, 64):
        assert np.array_equal(sh.resample_profile(ys, vals, ny, 1.0), vals[::m // ny])


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

def test_minimize_affine_recovery():
    t0 = 1.0 / 3.0
    grid = sh.CylinderGrid(1.0, 1.0, 17, 16)
    bd = sh.BoundaryData(np.full(16, t0), np.full(16, t0))
    hf, info = sh.minimize_action(grid, HEX, bd, tol=1e-10)
    xs, ys = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    diff = hf.values - (xs / 3.0 + t0 * ys)
    diff -= diff[0, 0]
    assert np.max(np.abs(diff)) < 1e-8
    assert info.grad_norm <= 1e-10
    # analytic optimizer solves d1 sigma(s, t0) = 0
    pl = tn.partial_legendre(HEX, 0.0, t0)
    assert abs(pl.nu_star - 1.0 / 3.0) < 1e-9


def test_minimize_actions_monotone():
    grid = sh.CylinderGrid(1.0, 1.0, 13, 12)
    yj = grid.ys() + grid.hy / 2
    bd = sh.BoundaryData(1 / 3 + 0.05 * np.sin(2 * np.pi * yj),
                         1 / 3 - 0.05 * np.sin(2 * np.pi * yj))
    _, info = sh.minimize_action(grid, HEX, bd, tol=1e-9)
    assert all(b <= a + 1e-12 for a, b in zip(info.actions, info.actions[1:]))


def test_tilted_solve_backtracks_to_the_affine_minimizer():
    # V = -3 tilts the optimal x-slope to nu* = 0.6526..., and on the way
    # there the Armijo line search rejects some full Newton steps
    t0 = 1.0 / 3.0
    grid = sh.CylinderGrid(1.0, 1.0, 17, 16)
    bd = sh.BoundaryData(np.full(16, t0), np.full(16, t0))
    hf, info = sh.minimize_action(grid, HEX, bd, V=-3.0, tol=1e-9)
    assert info.backtracks > 0
    assert all(b <= a for a, b in zip(info.actions, info.actions[1:]))
    nu = tn.partial_legendre(HEX, 3.0, t0).nu_star
    xs, ys = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    diff = hf.values - (nu * xs + t0 * ys)
    diff -= diff[0, 0]
    assert np.max(np.abs(diff)) <= 1e-8      # the solver-affine-recovery tolerance


def test_minimize_two_start_uniqueness():
    grid = sh.CylinderGrid(1.0, 1.0, 17, 16)
    bd = sh.BoundaryData(np.full(16, 1 / 3), np.full(16, 1 / 3))
    hf, _ = sh.minimize_action(grid, HEX, bd, tol=1e-10)
    pert = 0.01 * np.sin(2 * np.pi * np.arange(16) / 16)[None, :] \
        * np.sin(np.pi * np.linspace(0, 1, 17))[:, None]
    hf2, _ = sh.minimize_action(grid, HEX, bd, tol=1e-10, start=hf.values + pert)
    assert np.max(np.abs(hf.values - hf2.values)) < 1e-8


def test_minimize_nonconvergence_carries_best():
    grid = sh.CylinderGrid(1.0, 1.0, 17, 16)
    yj = grid.ys() + grid.hy / 2
    bd = sh.BoundaryData(1 / 3 + 0.05 * np.sin(2 * np.pi * yj),
                         1 / 3 - 0.05 * np.sin(2 * np.pi * yj))
    with pytest.raises(NonConvergence) as err:
        sh.minimize_action(grid, HEX, bd, tol=1e-30, max_iter=3)
    assert isinstance(err.value.best, sh.HeightField)
    assert "grad_norm" in err.value.diagnostics
    assert err.value.diagnostics["iterations"] <= 3
    assert err.value.diagnostics["factorizations"] + err.value.diagnostics["chord_steps"] <= 3


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([8, 12, 16]), tbar=st.floats(0.3, 0.45),
       amps=st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)),
       phases=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
       mode=st.sampled_from([1, 2]))
def test_minimize_smooth_profiles_property(n, tbar, amps, phases, mode):
    grid = sh.CylinderGrid(1.0, 1.0, n + 1, n)
    yj = grid.ys() + grid.hy / 2
    bd = sh.BoundaryData(*(tbar + a * np.sin(2 * np.pi * mode * yj + p)
                           for a, p in zip(amps, phases)))
    hf, info = sh.minimize_action(grid, HEX, bd, tol=1e-10)
    assert info.converged and info.grad_norm <= 1e-10
    assert all(b <= a + 1e-12 for a, b in zip(info.actions, info.actions[1:]))
    pert = 0.01 * np.sin(2 * np.pi * grid.ys())[None, :] \
        * np.sin(np.pi * grid.xs())[:, None]
    hf2, _ = sh.minimize_action(grid, HEX, bd, tol=1e-10, start=hf.values + pert)
    assert np.max(np.abs(hf.values - hf2.values)) < 1e-8


def test_default_start_feasible_for_steep_end_slopes():
    grid = sh.CylinderGrid(1.0, 1.0, 9, 8)
    for t in (0.6, 0.8):
        bd = sh.BoundaryData(np.full(8, t), np.full(8, t))
        hf, info = sh.minimize_action(grid, HEX, bd, tol=1e-10)
        xs, ys = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
        diff = hf.values - (xs * (1 - t) / 2 + t * ys)
        assert np.max(np.abs(diff - diff[0, 0])) < 1e-8
        assert info.evals >= info.iterations


def _constant_slope_field(grid, bd, s):
    """The affine interpolation of bd's end columns at constant x-slope s."""
    x1, x2 = bd.profiles(grid.hy)
    frac = np.linspace(0.0, 1.0, grid.nx)[:, None]
    h = (1 - frac) * x1[None, :] + frac * (x2[None, :] + grid.T * s)
    return sh.HeightField(grid, h, bd.monodromy(grid.hy))


def _start_feasible(grid, sigma, bd, s):
    return sigma.feasible(*sh._pairings(_constant_slope_field(grid, bd, s).edge_slopes()),
                          margin=sh.BOX_INSET)


@pytest.mark.parametrize("sigma", [HEX, tn.ff_tension(1.0),
                                   tn.quadratic_tension(1.0, 0.3, 2.0, box=1.0)],
                         ids=["hex", "ff", "quadratic"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([8, 16]), T=st.floats(0.1, 2.0), tbar=st.floats(0.02, 0.98),
       amp=st.floats(0.0, 0.45), phase=st.floats(0.0, 2 * math.pi),
       mode=st.sampled_from([1, 2]))
def test_default_start_is_the_middle_of_its_feasible_interval(sigma, n, T, tbar, amp,
                                                              phase, mode):
    grid = sh.CylinderGrid(T, 1.0, n + 1, n)
    wave = amp * np.sin(2 * np.pi * mode * (grid.ys() + grid.hy / 2) + phase)
    bd = sh.BoundaryData(tbar + wave, tbar - wave)
    x1, x2 = bd.profiles(grid.hy)
    kappa = bd.monodromy(grid.hy)
    lo, hi = sigma.interval(*sh._pairings(_constant_slope_field(grid, bd, 0.0).edge_slopes()),
                            margin=sh.BOX_INSET)
    if not lo < hi:
        with pytest.raises(SlopeOutOfDomain):
            sh._default_start(grid, x1, x2, kappa, sigma)
        # no constant x-slope across the polygon's extent is feasible either
        assert not any(_start_feasible(grid, sigma, bd, c) for c in np.linspace(-1, 1, 401))
        return
    mid = 0.5 * (lo + hi)
    h0 = sh._default_start(grid, x1, x2, kappa, sigma)
    assert np.array_equal(h0, _constant_slope_field(grid, bd, mid).values)
    # the ends are the feasible interval's, read by the feasibility test alone
    assert _start_feasible(grid, sigma, bd, mid)
    for end, inward in ((lo, 1.0), (hi, -1.0)):
        step = 1e-9 * max(1.0, abs(end))
        assert _start_feasible(grid, sigma, bd, end + inward * min(step, 0.5 * (hi - lo)))
        assert not _start_feasible(grid, sigma, bd, end - inward * step)


def _hex_wave(A, T, nx, ny):
    grid = sh.CylinderGrid(T, 1.0, nx, ny)
    wave = A * np.sin(2 * np.pi * (grid.ys() + grid.hy / 2))
    return grid, sh.BoundaryData(0.5 + wave, 0.5 - wave)


@pytest.mark.parametrize("A, T, nx, ny", [(0.35, 1.0, 17, 16), (0.35, 1.0, 33, 32),
                                          (0.42, 2.0, 33, 32), (0.42, 2.0, 65, 64)])
def test_feasible_ends_narrower_than_a_slope_grid_converge(A, T, nx, ny):
    # each feasible interval is narrower than 1/64, the spacing of the
    # 63-slope grid the default start used to take its median from
    grid, bd = _hex_wave(A, T, nx, ny)
    hf, info = sh.minimize_action(grid, HEX, bd, tol=1e-9)
    assert info.converged and info.grad_norm <= 1e-9
    assert not np.any(sh.facet_mask(hf, HEX))


def test_ends_without_a_feasible_constant_slope_are_refused():
    # hex, A = 0.3, T = 0.5: the interval of constant x-slopes is empty
    # (width -0.078 at 17x16)
    grid, bd = _hex_wave(0.3, 0.5, 17, 16)
    with pytest.raises(SlopeOutOfDomain):
        sh.minimize_action(grid, HEX, bd, tol=1e-9)


def test_solve_info_reports_phase_seconds():
    grid = sh.CylinderGrid(1.0, 1.0, 17, 16)
    bd = sh.BoundaryData(np.full(16, 0.35), np.full(16, 0.35))
    # V moves the minimizer off the affine start, so the solve takes Newton steps
    _, info = sh.minimize_action(grid, HEX, bd, V=0.2, tol=1e-10)
    assert info.iterations >= 1
    assert set(info.phase_s) == {"start", "objective", "newton_direction"}
    assert all(v >= 0.0 for v in info.phase_s.values())
    assert info.phase_s["objective"] > 0.0 and info.phase_s["newton_direction"] > 0.0


def test_nonconvergence_carries_the_solve_info():
    grid, bd = _hex_wave(0.05, 1.0, 17, 16)
    with pytest.raises(NonConvergence) as err:
        sh.minimize_action(grid, HEX, bd, tol=1e-30, max_iter=2)
    info = err.value.diagnostics
    assert set(info) == {f.name for f in dataclasses.fields(sh.SolveInfo)}
    assert info["converged"] is False and info["iterations"] == len(info["actions"]) == 2


def test_hessian_blocks_match_gradient_differences():
    grid = sh.CylinderGrid(1.0, 1.0, 5, 4)
    rng = np.random.default_rng(7)
    xs, ys = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    base = 0.3 * xs + 0.35 * ys + 0.004 * rng.standard_normal((5, 4))

    def field(vals):
        return sh.HeightField(grid, vals, kappa=0.35)

    diag, upper = sh._hessian_blocks(grid, field(base).edge_slopes(), HEX)
    dense = np.zeros((20, 20))
    for i in range(5):
        dense[4 * i:4 * i + 4, 4 * i:4 * i + 4] = diag[i]
    for i in range(4):
        dense[4 * i:4 * i + 4, 4 * i + 4:4 * i + 8] = upper[i]
        dense[4 * i + 4:4 * i + 8, 4 * i:4 * i + 4] = upper[i].T
    d = 1e-6
    for k in range(20):
        step = np.zeros(20)
        step[k] = d
        gp = sh.action_gradient(field(base + step.reshape(5, 4)), HEX).ravel()
        gm = sh.action_gradient(field(base - step.reshape(5, 4)), HEX).ravel()
        assert np.max(np.abs((gp - gm) / (2 * d) - dense[:, k])) < 1e-7
    # the Newton step over the free variables (interior nodes, right-column
    # offset) agrees with a dense solve of the projected Hessian
    proj = np.zeros((20, 13))
    proj[4:16, :12] = np.eye(12)
    proj[16:, 12] = 1.0
    g = sh.action_gradient(field(base), HEX)
    gvec = np.append(g[1:-1].ravel(), g[-1].sum())
    newton, _ = sh._newton_direction(grid, field(base).edge_slopes(), HEX, gvec)
    assert np.max(np.abs(newton - np.linalg.solve(proj.T @ dense @ proj, -gvec))) < 1e-12


def _parent_block_tridiag_solve(diag, upper, rhs):
    """The block Thomas sweep before the chord step, kept as the oracle."""
    ny = diag.shape[1]
    cp = np.empty_like(upper)
    rp = np.empty_like(rhs)
    for k in range(len(diag)):
        s, r = diag[k], rhs[k]
        if k > 0:
            s = s - upper[k - 1].T @ cp[k - 1]
            r = r - upper[k - 1].T @ rp[k - 1]
        sol = np.linalg.solve(s, np.concatenate([upper[k], r], axis=1))
        cp[k], rp[k] = sol[:, :ny], sol[:, ny:]
    for k in range(len(diag) - 2, -1, -1):
        rp[k] -= cp[k] @ rp[k + 1]
    return rp


def _parent_newton_direction(grid, edges, sigma, gvec):
    """The Newton direction before the chord step, kept as the oracle."""
    diag, upper = sh._hessian_blocks(grid, edges, sigma)
    m, ny = grid.nx - 2, grid.ny
    border = np.zeros((m, ny))
    border[-1:] = np.sum(upper[-1], axis=1)
    rhs = np.stack([-gvec[:-1].reshape(m, ny), border], axis=2)
    sol = _parent_block_tridiag_solve(diag[1:-1], upper[1:], rhs).reshape(-1, 2)
    b = border.ravel()
    c = (-gvec[-1] - b @ sol[:, 0]) / (np.sum(diag[-1]) - b @ sol[:, 1])
    return np.append(sol[:, 0] - c * sol[:, 1], c)


TENSIONS = {"hex": HEX, "ff": tn.ff_tension(1.0), "quadratic": tn.quadratic_tension(1.0, 0.3, 2.0)}


@pytest.mark.parametrize("shape", ORACLE_GRIDS.values(), ids=ORACLE_GRIDS.keys())
@pytest.mark.parametrize("variant", TENSIONS)
def test_full_newton_direction_equals_the_parent_sweep(variant, shape):
    sigma = TENSIONS[variant]
    grid = sh.CylinderGrid(*shape)
    rng = np.random.default_rng(13)
    noise = 0.032 * min(grid.hx, grid.hy)
    base = affine_field(grid, 0.3, 0.35).values + noise * rng.standard_normal(shape[2:])
    hf = sh.HeightField(grid, base, kappa=0.35 * grid.L)
    gfull = sh.action_gradient(hf, sigma, 0.4)
    gvec = np.concatenate([gfull[1:-1, :].ravel(), [float(np.sum(gfull[-1, :]))]])
    edges = hf.edge_slopes()
    d, kept = sh._newton_direction(grid, edges, sigma, gvec)
    assert np.array_equal(d, _parent_newton_direction(grid, edges, sigma, gvec))
    # a chord direction on the same gradient is the same solve, up to roundoff
    scale = float(np.max(np.abs(d)))
    assert np.max(np.abs(kept.direction(gvec) - d)) <= 1e-12 * scale


def _spied_solve(*args, **kwargs):
    """minimize_action's result and, per direction it formed, its kind
    ("full" or "chord") and whether it was a descent direction."""
    kinds = []

    def spy(kind, fn):
        def formed(*a):
            try:
                out = fn(*a)
            except np.linalg.LinAlgError:
                kinds.append((kind, False))
                raise
            d = out[0] if kind == "full" else out
            kinds.append((kind, float(a[-1] @ d) < 0))
            return out
        return formed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sh, "_newton_direction", spy("full", sh._newton_direction))
        mp.setattr(sh._Factorization, "direction", spy("chord", sh._Factorization.direction))
        hf, info = sh.minimize_action(*args, **kwargs)
    return hf, info, kinds


def _check_counters(info, kinds):
    fallbacks = sum(not descent for _, descent in kinds)
    assert info.factorizations == kinds.count(("full", True))
    assert info.chord_steps == kinds.count(("chord", True))
    assert info.iterations == info.factorizations + info.chord_steps + fallbacks
    # a chord step ends the solve or is followed by a new factorization
    assert all(b[0] == "full" for a, b in zip(kinds, kinds[1:]) if a[0] == "chord")


def _anchored_gap(a, b):
    diff = a - b
    return float(np.max(np.abs(diff - diff[0, 0])))


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(variant=st.sampled_from(sorted(TENSIONS)), n=st.sampled_from([8, 12, 16, 24]),
       tbar=st.floats(0.3, 0.45),
       amps=st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)),
       phases=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
       mode=st.sampled_from([1, 2]), log_tol=st.floats(-10.0, -8.0))
def test_chord_steps_agree_with_full_newton_property(variant, n, tbar, amps, phases, mode,
                                                     log_tol):
    sigma, tol = TENSIONS[variant], 10.0 ** log_tol
    grid = sh.CylinderGrid(1.0, 1.0, n + 1, n)
    yj = grid.ys() + grid.hy / 2
    bd = sh.BoundaryData(*(tbar + a * np.sin(2 * np.pi * mode * yj + p)
                           for a, p in zip(amps, phases)))
    hf, info, kinds = _spied_solve(grid, sigma, bd, tol=tol)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sh, "CHORD_MARGIN", 0.0)
        hf0, info0, kinds0 = _spied_solve(grid, sigma, bd, tol=tol)
    assert info0.chord_steps == 0
    for i, k in ((info, kinds), (info0, kinds0)):
        assert i.converged and i.grad_norm <= tol
        assert all(b <= a + 1e-12 for a, b in zip(i.actions, i.actions[1:]))
        _check_counters(i, k)
    assert _anchored_gap(hf.values, hf0.values) <= 1e-8


@pytest.mark.parametrize("variant", ["hex", "ff"])   # a quadratic action takes one step
def test_a_chord_step_that_misses_tol_is_followed_by_a_factorization(variant, monkeypatch):
    # with a huge margin every full step accepted at step 1 is followed by a
    # chord step, and the first one misses tol
    sigma = TENSIONS[variant]
    grid = sh.CylinderGrid(1.0, 1.0, 17, 16)
    yj = grid.ys() + grid.hy / 2
    bd = sh.BoundaryData(0.4 + 0.05 * np.sin(2 * np.pi * yj), 0.4 - 0.04 * np.sin(2 * np.pi * yj))
    hf0, _ = sh.minimize_action(grid, sigma, bd, tol=1e-10)
    monkeypatch.setattr(sh, "CHORD_MARGIN", 1e12)
    hf, info, kinds = _spied_solve(grid, sigma, bd, tol=1e-10)
    assert info.converged and info.grad_norm <= 1e-10
    assert all(b <= a + 1e-12 for a, b in zip(info.actions, info.actions[1:]))
    _check_counters(info, kinds)
    assert any(kind == "chord" for kind, _ in kinds[:-1])
    assert _anchored_gap(hf.values, hf0.values) <= 1e-8


def _warm_benchmark_solve(seed):
    """The first warm 32x32 solve of the variational benchmark round at seed:
    the solve starts from the Hamiltonian-flow heights of smooth data."""
    rng = random.Random(f"variational:{seed}")
    rng.uniform(0.33, 0.40)   # the cold solve's end slope
    ys = np.arange(32) / 32
    tbar, amp = rng.uniform(0.55, 0.65), rng.uniform(0.02, 0.035)
    state = fl.FlowState(1.0, np.zeros(32),
                         tbar + amp * np.sin(2 * np.pi * ys + rng.uniform(0.0, 2 * np.pi)))
    traj = fl.hamilton_evolve(state, fl.hex_density(), (0.0, 0.25), 62, keep_every=2)
    grid = sh.CylinderGrid(0.25, 1.0, 32, 32)
    bd = sh.BoundaryData(fl.spectral_shift(state.t, grid.hy / 2, 1.0),
                         fl.spectral_shift(traj.states[-1].t, grid.hy / 2, 1.0))
    return grid, bd, np.array(traj.heights)


def test_warm_benchmark_solve_takes_one_chord_step():
    grid, bd, start = _warm_benchmark_solve(9931)
    hf, info, kinds = _spied_solve(grid, HEX, bd, tol=1e-8, max_iter=40000, start=start)
    assert info.converged and info.grad_norm <= 1e-8
    assert (info.iterations, info.factorizations, info.chord_steps) == (2, 1, 1)
    assert kinds == [("full", True), ("chord", True)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sh, "CHORD_MARGIN", 0.0)
        hf0, info0 = sh.minimize_action(grid, HEX, bd, tol=1e-8, max_iter=40000, start=start)
    assert (info0.factorizations, info0.chord_steps) == (2, 0)
    assert _anchored_gap(hf.values, hf0.values) <= 1e-8


def test_facet_mask_flags_box_slopes():
    grid = sh.CylinderGrid(1.0, 1.0, 5, 4)
    eps = 1e-6
    xs, _ = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    hf = sh.HeightField(grid, (1.0 - eps) * xs, kappa=0.0)
    assert np.all(sh.facet_mask(hf, HEX, eps=eps))
    smooth = affine_field(grid, 0.4, 0.3)
    assert not np.any(sh.facet_mask(smooth, HEX))


def test_facet_mask_flags_the_diagonal_edge():
    # s + t = 1 - BOX_INSET is on hex's inset diagonal edge, with s and t
    # both far inside the bounding box
    grid = sh.CylinderGrid(1.0, 1.0, 5, 4)
    assert np.all(sh.facet_mask(affine_field(grid, 0.5, 0.5 - sh.BOX_INSET), HEX))


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals
# ---------------------------------------------------------------------------

def test_el_residual_affine_zero():
    grid = sh.CylinderGrid(1.0, 1.0, 9, 8)
    hf = affine_field(grid, 0.3, 0.35)
    assert np.max(np.abs(sh.el_residual(hf, HEX))) < 1e-11
    assert np.max(np.abs(er.hex_el_residual(hf))) < 1e-11
    assert np.max(np.abs(er.ff_el_residual(hf, 0.8))) < 1e-11


def _wavy_field(grid, amp=0.03):
    xs, ys = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    vals = xs / 3 + ys / 3 + amp * np.sin(2 * np.pi * ys) * np.sin(np.pi * xs)
    return sh.HeightField(grid, vals, kappa=grid.L / 3)


def test_hex_form_matches_generic_el():
    grid = sh.CylinderGrid(1.0, 1.0, 17, 16)
    hf = _wavy_field(grid)
    sx, sy = hf.node_slopes()
    generic = sh.el_residual(hf, HEX) * np.sin(np.pi * (sx + sy)) / np.pi
    assert np.max(np.abs(generic - er.hex_el_residual(hf))) < 1e-10


def test_ff_form_matches_generic_el():
    grid = sh.CylinderGrid(1.0, 1.0, 17, 16)
    hf = _wavy_field(grid)
    u = 0.7
    sx, sy = hf.node_slopes()
    generic = sh.el_residual(hf, tn.ff_tension(u))
    q = tn._ff_q(sx, sy, u)
    scale = np.pi / (np.sin(2 * u) * np.sin(np.pi * sx) * np.sqrt(1 + q * q))
    assert np.max(np.abs(generic - scale * er.ff_el_residual(hf, u))) < 1e-8


def test_ff_form_reduces_to_hex_at_right_angle():
    grid = sh.CylinderGrid(1.0, 1.0, 17, 16)
    hf = _wavy_field(grid)
    hexform = er.hex_el_residual(hf)
    assert np.max(np.abs(er.ff_el_residual(hf, math.pi / 2) - hexform)) < 1e-12
    assert np.max(np.abs(er.ff_el_residual(hf, math.pi / 2 - 1e-5) - hexform)) < 1e-8


def test_mesh_refinement_order():
    residuals = {}
    prev = None
    for n in (16, 32, 64):
        grid = sh.CylinderGrid(0.7, 1.0, n + 1, n)
        yj = grid.ys() + grid.hy / 2
        bd = sh.BoundaryData(1 / 3 + 0.06 * np.sin(2 * np.pi * yj),
                             1 / 3 - 0.04 * np.sin(2 * np.pi * yj + 0.7))
        start = sh.prolong(prev, grid) if prev is not None else None
        prev, _ = sh.minimize_action(grid, HEX, bd, tol=1e-9, max_iter=60000,
                                     start=start)
        residuals[n] = np.max(np.abs(sh.el_residual(prev, HEX)))
    assert residuals[16] > residuals[32] > residuals[64]
    # physical-interior residual converges at second order
    assert residuals[32] / residuals[64] > 2.5


def test_prolong_preserves_affine():
    coarse = sh.CylinderGrid(1.0, 1.0, 9, 8)
    fine = sh.CylinderGrid(1.0, 1.0, 17, 16)
    hf = affine_field(coarse, 0.25, 0.4)
    out = sh.prolong(hf, fine)
    xs, ys = np.meshgrid(fine.xs(), fine.ys(), indexing="ij")
    assert np.max(np.abs(out - (0.25 * xs + 0.4 * ys))) < 1e-12


def _prolong_loop(hf, grid):
    """prolong as one np.interp per (fine y, source x) pair."""
    src = hf.grid
    h = hf.wrapped()
    xs_src = src.xs()
    ys_src = np.arange(src.ny + 1) * src.hy
    out = np.empty((grid.nx, grid.ny))
    ramp = hf.kappa / src.L
    for j, y in enumerate(np.arange(grid.ny) * grid.hy):
        yy = y % src.L
        col = np.array([np.interp(yy, ys_src, h[i, :] - ramp * ys_src)
                        for i in range(src.nx)]) + ramp * yy
        out[:, j] = np.interp(np.linspace(0, src.T, grid.nx), xs_src, col)
    return out


@pytest.mark.parametrize("n", [8, 16, 32])
def test_prolong_equals_the_pointwise_loop(n):
    coarse = sh.CylinderGrid(0.7, 1.3, n + 1, n)
    fine = sh.CylinderGrid(0.7, 1.3, 2 * n + 1, 2 * n)
    rng = np.random.default_rng(n)
    base = affine_field(coarse, 0.3, 0.4).values + 0.01 * rng.standard_normal((n + 1, n))
    hf = sh.HeightField(coarse, base, kappa=0.4 * coarse.L)
    assert np.array_equal(sh.prolong(hf, fine), _prolong_loop(hf, fine))
