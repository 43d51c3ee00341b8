"""Discrete variational solver for limit shapes on a cylinder.

The height field lives on an (nx, ny) node grid over [0, T] x [0, L) with
the y direction periodic; a field may carry a y-monodromy kappa, so the
wrapped difference is h(x, 0) + kappa - h(x, L - hy).  The action is the
midpoint-cell discretization of the convex integrand

    sigma(dh/dx, dh/dy) + V dh/dx,

which keeps the discrete problem convex in the node values.  Neumann data
(tangential derivatives at both ends) pins the shapes of the two end
columns; their relative offset stays a degree of freedom, and the global
constant is fixed by h(0, 0) = 0.

The minimizer is damped Newton over the free node values.  The Hessian
comes in closed form from the tension's second derivatives; ordered by
x-column it is block tridiagonal with dense periodic (ny, ny) blocks, and
a block Thomas sweep solves it.  Every accepted iterate is feasible: the
Armijo line search rejects trial points whose cell slopes leave the
tension's slope polygon inset by BOX_INSET, which is what makes the gradient
blow-up of the tension at the domain boundary act as a natural barrier.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import Inconsistent, NonConvergence, SlopeOutOfDomain
from .tension import SurfaceTension

BOX_INSET = 1e-6   # how far inside each edge of the slope polygon the solver stays
CHORD_MARGIN = 0.1   # a chord step is taken when predicted to land this far under tol


@dataclass(frozen=True)
class CylinderGrid:
    """Node grid on the cylinder [0, T] x R / LZ."""

    T: float
    L: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.T <= 0 or self.L <= 0:
            raise Inconsistent("cylinder dimensions must be positive")
        if self.nx < 2 or self.ny < 2:
            raise Inconsistent("need at least two nodes per direction")

    @property
    def hx(self) -> float:
        return self.T / (self.nx - 1)

    @property
    def hy(self) -> float:
        return self.L / self.ny

    def xs(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nx)

    def ys(self) -> np.ndarray:
        return np.arange(self.ny) * self.hy


@dataclass
class HeightField:
    """Node values plus y-monodromy."""

    grid: CylinderGrid
    values: np.ndarray
    kappa: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise Inconsistent(f"values must have shape {(self.grid.nx, self.grid.ny)}")

    def wrapped(self) -> np.ndarray:
        """Values extended by one periodic row: h(x, L) = h(x, 0) + kappa."""
        return np.concatenate([self.values, self.values[:, :1] + self.kappa], axis=1)

    def edge_slopes(self) -> np.ndarray:
        """Forward differences on the four edges of each (nx-1, ny) cell.

        Returns the bottom-x, top-x, left-y and right-y difference fields
        stacked in one (4, nx-1, ny) array; the slope polygon constrains
        their pairings directly and no checkerboard mode can hide from them.
        """
        h = self.wrapped()
        g = self.grid
        return np.stack([(h[1:, :-1] - h[:-1, :-1]) / g.hx, (h[1:, 1:] - h[:-1, 1:]) / g.hx,
                         (h[:-1, 1:] - h[:-1, :-1]) / g.hy, (h[1:, 1:] - h[1:, :-1]) / g.hy])

    def _y_neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """Node values at y + hy and y - hy, across the monodromy."""
        up = np.roll(self.values, -1, axis=1)
        dn = np.roll(self.values, 1, axis=1)
        up[:, -1] += self.kappa
        dn[:, 0] -= self.kappa
        return up, dn

    def node_slopes(self) -> tuple[np.ndarray, np.ndarray]:
        """Centered slopes on interior-x nodes (nx-2, ny)."""
        h = self.values
        g = self.grid
        sx = (h[2:, :] - h[:-2, :]) / (2 * g.hx)
        up, dn = self._y_neighbours()
        sy = (up - dn) / (2 * g.hy)
        return sx, sy[1:-1, :]

    def _second_differences(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Centered (h_xx, h_xy, h_yy) on interior-x nodes (nx-2, ny)."""
        g = self.grid
        h = self.values
        up, dn = self._y_neighbours()
        hxx = (h[2:, :] - 2 * h[1:-1, :] + h[:-2, :]) / g.hx ** 2
        hyy = (up[1:-1, :] - 2 * h[1:-1, :] + dn[1:-1, :]) / g.hy ** 2
        hxy = ((up[2:, :] - dn[2:, :]) - (up[:-2, :] - dn[:-2, :])) / (4 * g.hx * g.hy)
        return hxx, hxy, hyy


@dataclass
class BoundaryData:
    """Periodic tangential-derivative profiles at the two cylinder ends."""

    t_left: np.ndarray
    t_right: np.ndarray

    def __post_init__(self):
        self.t_left = np.asarray(self.t_left, dtype=float)
        self.t_right = np.asarray(self.t_right, dtype=float)
        if self.t_left.shape != self.t_right.shape or self.t_left.ndim != 1:
            raise Inconsistent("boundary profiles must be equal-length vectors")

    def monodromy(self, hy: float) -> float:
        k1, k2 = (float(np.sum(t)) * hy for t in (self.t_left, self.t_right))
        if abs(k1 - k2) > 1e-9 * max(1.0, abs(k1)):
            raise Inconsistent(
                f"boundary profiles carry different monodromies ({k1} vs {k2})")
        return k1

    def profiles(self, hy: float) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative height profiles of the two end columns (anchored at 0)."""
        x1 = np.concatenate([[0.0], np.cumsum(self.t_left[:-1])]) * hy
        x2 = np.concatenate([[0.0], np.cumsum(self.t_right[:-1])]) * hy
        return x1, x2


def prolong(hf: HeightField, grid: CylinderGrid) -> np.ndarray:
    """Interpolate a field onto a finer grid (linear in x, periodic in y)."""
    src = hf.grid
    h = hf.wrapped()   # (nx, ny + 1) with the monodromy applied
    ys_src = np.arange(src.ny + 1) * src.hy
    ramp = hf.kappa / src.L
    yy = (np.arange(grid.ny) * grid.hy) % src.L
    rows = np.array([np.interp(yy, ys_src, row - ramp * ys_src) for row in h]) + ramp * yy
    xs, xs_src = np.linspace(0, src.T, grid.nx), src.xs()
    out = np.empty((grid.nx, grid.ny))
    for j, col in enumerate(rows.T):
        out[:, j] = np.interp(xs, xs_src, col)
    return out


def resample_profile(ys: np.ndarray, vals: np.ndarray, ny: int, L: float) -> np.ndarray:
    """Periodic linear interpolation of samples (y, value) onto the grid,
    shifted to keep the samples' periodic trapezoid mean (the monodromy); a
    shift at roundoff is skipped, so picked samples come out bit for bit."""
    ys = np.asarray(ys, dtype=float)
    vals = np.asarray(vals, dtype=float)
    order = np.argsort(ys)
    ys, vals = ys[order], vals[order]
    ys_ext = np.concatenate([ys, [ys[0] + L]])
    vals_ext = np.concatenate([vals, [vals[0]]])
    target = np.arange(ny) * (L / ny)
    shifted = np.mod(target - ys[0], L) + ys[0]
    out = np.interp(shifted, ys_ext, vals_ext)
    mean = float(np.sum((vals_ext[1:] + vals_ext[:-1]) * np.diff(ys_ext))) / (2 * L)
    shift = mean - float(np.mean(out))
    if abs(shift) > 16 * np.finfo(float).eps * float(np.max(np.abs(vals))):
        out += shift
    return out


_CELL_COMBOS = ((0, 0), (1, 1), (0, 1), (1, 0))   # (x-edge, y-edge) pairings

# Edge differences as weights on a cell's nodes (i, j), (i+1, j), (i, j+1),
# (i+1, j+1), in edge_slopes order: bottom and top x, left and right y.
_EDGE_STENCILS = np.array([[-1, 1, 0, 0], [0, 0, -1, 1], [-1, 0, 1, 0], [0, -1, 0, 1]],
                          dtype=float)
_UPPER = np.triu_indices(4)   # a symmetric cell matrix's entries r <= c, numbered by _ENTRY
_ENTRY = np.array([[0, 1, 2, 3], [1, 4, 5, 6], [2, 5, 7, 8], [3, 6, 8, 9]])   # r > c: twin


@functools.lru_cache(maxsize=16)
def _cell_stencils(hx: float, hy: float) -> list:
    """Per _CELL_COMBOS pairing, read-only entry-first columns: stencils x and y
    on a cell's nodes, then outer(x, x), xy + xy.T and outer(y, y) at _UPPER."""
    cols = []
    for a, b in _CELL_COMBOS:
        x, y = _EDGE_STENCILS[a] / hx, _EDGE_STENCILS[2 + b] / hy
        xy = np.outer(x, y)
        cols.append([m[:, None, None] for m in (x, y, *(p[_UPPER] for p in (
            np.outer(x, x), xy + xy.T, np.outer(y, y))))])
        for m in cols[-1]:
            m.flags.writeable = False
    return cols


def _pairings(edges):
    """The _CELL_COMBOS pairings of edge_slopes as one x-slope and one y-slope
    (4, nx-1, ny) array, pairing k in row k: one tension call covers all."""
    return edges[[a for a, _ in _CELL_COMBOS]], edges[[2 + b for _, b in _CELL_COMBOS]]


def _raw_action(grid: CylinderGrid, edges, sigma: SurfaceTension, V: float) -> float:
    xs, ys = _pairings(edges)
    quarter = 0.25 * grid.hx * grid.hy
    cells = sigma.value(xs, ys) + V * xs
    return sum(float(np.sum(c)) for c in cells) * quarter   # per pairing: fixed rounding


def action(hf: HeightField, sigma: SurfaceTension, V: float = 0.0) -> float:
    """Symmetrized triangle-split discretization of the action.

    Each cell is split along both diagonals and the two splits averaged:
    four constant-gradient triangle terms of weight hx hy / 4, built from
    the four forward edge differences.  Convex in the node values, exact
    on affine fields, and symmetric under both grid reflections.
    """
    edges = hf.edge_slopes()
    if not sigma.feasible(*_pairings(edges), margin=BOX_INSET / 2):
        raise SlopeOutOfDomain("cell edge slopes leave the inset slope polygon")
    return _raw_action(hf.grid, edges, sigma, V)


def action_gradient(hf: HeightField, sigma: SurfaceTension, V: float = 0.0,
                    edges=None) -> np.ndarray:
    """d action / d h at every node (monodromy held fixed), from hf's edge slopes."""
    g = hf.grid
    xs, ys = _pairings(hf.edge_slopes() if edges is None else edges)
    ga, gb = (np.asarray(d) for d in sigma.grad(xs, ys))
    cell = np.zeros((4,) + xs.shape[1:])    # per cell, on its four nodes
    for k, (x, y, *_) in enumerate(_cell_stencils(g.hx, g.hy)):
        cell += (ga[k] + V) * x + gb[k] * y
    cell *= 0.25 * g.hx * g.hy
    out = np.zeros((g.nx, g.ny))
    out[:-1] += cell[0] + np.roll(cell[2], 1, axis=1)
    out[1:] += cell[1] + np.roll(cell[3], 1, axis=1)
    return out


def el_residual(hf: HeightField, sigma: SurfaceTension) -> np.ndarray:
    """d11 s h_xx + 2 d12 s h_xy + d22 s h_yy on interior-x nodes.

    The cross term carries the factor two of the expanded divergence form
    d/dx(d1 sigma) + d/dy(d2 sigma).
    """
    hxx, hxy, hyy = hf._second_differences()
    sx, sy = hf.node_slopes()
    if not sigma.feasible(sx, sy, margin=0.0):
        raise SlopeOutOfDomain("interior slopes leave the tension domain")
    h11, h12, h22 = sigma.hess(sx, sy)
    return h11 * hxx + 2.0 * h12 * hxy + h22 * hyy


def facet_mask(hf: HeightField, sigma: SurfaceTension, eps: float = BOX_INSET,
               tol: float = 1e-9) -> np.ndarray:
    """Cells with a slope pairing within eps + tol of an edge of the slope
    polygon: after convergence, the cells on the polygon the solver keeps to."""
    return np.any(sigma.margins(*_pairings(hf.edge_slopes())) <= eps + tol, axis=(0, 1))


@dataclass
class SolveInfo:
    iterations: int
    grad_norm: float
    actions: list = field(default_factory=list)
    converged: bool = True
    evals: int = 0         # objective (action plus gradient) evaluations
    backtracks: int = 0    # line-search trials rejected
    factorizations: int = 0   # steps along a fresh Hessian assembly and block sweep
    chord_steps: int = 0      # steps along the last sweep's kept factorization
    phase_s: dict = field(default_factory=dict)   # seconds per solver phase


def _hessian_blocks(g: CylinderGrid, edges, sigma: SurfaceTension):
    """Hessian of the action in the node values, as x-column blocks.

    Returns (diag, upper): diag[i] couples column i with itself and
    upper[i] couples column i (rows) with column i + 1; both are dense
    (ny, ny) blocks, periodic in y.  Each cell adds, per combo,
    q [x_a; y_b]^T [[h11, h12], [h12, h22]] [x_a; y_b], summed entry-first into
    one (10, nx-1, ny) array of _UPPER entries from products cached per (hx, hy).
    """
    xs, ys = _pairings(edges)
    h11, h12, h22 = (np.asarray(h) for h in sigma.hess(xs, ys))
    cell = np.zeros((10,) + xs.shape[1:])
    for k, (*_, xx, xy, yy) in enumerate(_cell_stencils(g.hx, g.hy)):
        cell += h11[k] * xx + h12[k] * xy + h22[k] * yy
    cell *= 0.25 * g.hx * g.hy

    j = np.arange(g.ny)
    pairs = (j, (j + 1) % g.ny)   # a cell's nodes (j, j+1) in each of its two columns
    diag = np.zeros((g.nx, g.ny, g.ny))
    upper = np.zeros((g.nx - 1, g.ny, g.ny))
    for block, rows, cols in ((diag[:-1], (0, 2), (0, 2)), (diag[1:], (1, 3), (1, 3)),
                              (upper, (0, 2), (1, 3))):
        for r, jr in zip(rows, pairs):
            for c, jc in zip(cols, pairs):
                block[:, jr, jc] += cell[_ENTRY[r, c]]
    return diag, upper


def _block_tridiag_solve(diag, upper, rhs):
    """Block Thomas sweep for the symmetric block-tridiagonal system with
    diagonal blocks diag[k] and super-diagonal blocks upper[k] (the last
    one is not used); rhs has shape (m, ny, k).  Returns the solution and
    cp[k] = S_k^-1 upper[k]; diag[k] is overwritten by the Schur complement
    S_k, so the pair is the factorization a chord direction reuses."""
    ny = diag.shape[1]
    cp = np.empty_like(upper)
    rp = np.empty_like(rhs)
    for k in range(len(diag)):
        s, r = diag[k], rhs[k]
        if k > 0:
            s -= upper[k - 1].T @ cp[k - 1]   # in place: diag[k] becomes S_k
            r = r - upper[k - 1].T @ rp[k - 1]
        sol = np.linalg.solve(s, np.concatenate([upper[k], r], axis=1))
        cp[k], rp[k] = sol[:, :ny], sol[:, ny:]
    return _back_substitute(cp, rp), cp


def _back_substitute(cp, rp):
    """The sweep's back substitution x_k = rp_k - cp_k x_{k+1}, in place on rp."""
    for k in range(len(cp) - 2, -1, -1):
        rp[k] -= cp[k] @ rp[k + 1]
    return rp


def _default_start(grid: CylinderGrid, x1, x2, kappa: float, sigma: SurfaceTension):
    """Affine interpolation of the end columns at the middle of the interval of
    feasible constant x-slopes s: the affine start farthest from the edges
    that bound s.

    The x-edge slopes are s plus those of the s = 0 field and the y-edge
    slopes do not depend on s, so the feasible s are the interval that
    `sigma.interval` reads off the polygon for the s = 0 field's pairings."""
    frac = np.linspace(0.0, 1.0, grid.nx)[:, None]
    edges = HeightField(grid, (1 - frac) * x1[None, :] + frac * x2[None, :], kappa).edge_slopes()
    lo, hi = sigma.interval(*_pairings(edges), margin=BOX_INSET)
    if not lo < hi:
        raise SlopeOutOfDomain("no constant x-slope gives a feasible starting field")
    return (1 - frac) * x1[None, :] + frac * (x2[None, :] + grid.T * 0.5 * (lo + hi))


@dataclass(frozen=True)
class _Factorization:
    """A full Newton direction's block sweep, kept for one chord direction:
    the Schur complements S_k, cp and upper blocks of the interior system,
    the c_t border row, its solution and the c_t Schur denominator."""

    schur: np.ndarray
    cp: np.ndarray
    upper: np.ndarray
    border: np.ndarray
    border_sol: np.ndarray
    denom: float

    def direction(self, gvec):
        """Solve the kept Hessian's H d = -g: one 1-column solve per S_k."""
        rhs = -gvec[:-1].reshape(self.cp.shape[:2])
        rp = np.empty_like(rhs)
        for k, s in enumerate(self.schur):
            r = rhs[k] if k == 0 else rhs[k] - self.upper[k - 1].T @ rp[k - 1]
            rp[k] = np.linalg.solve(s, r)
        return self.eliminate(gvec, _back_substitute(self.cp, rp).ravel())

    def eliminate(self, gvec, sol):
        """The direction from the interior solution for -g: the Schur step on c_t."""
        c = (-gvec[-1] - self.border @ sol) / self.denom
        return np.append(sol - c * self.border_sol, c)


def _newton_direction(grid: CylinderGrid, edges, sigma: SurfaceTension, gvec):
    """Solve H d = -g over the free variables (interior nodes, then c_t).

    c_t moves the whole right column, so its Hessian row is the column sum
    of that column's couplings: it borders the last interior block and is
    eliminated by a Schur step on a second right-hand side.  Returns d and
    the _Factorization a chord direction can reuse.
    """
    diag, upper = _hessian_blocks(grid, edges, sigma)
    m, ny = grid.nx - 2, grid.ny
    border = np.zeros((m, ny))
    border[-1:] = np.sum(upper[-1], axis=1)
    rhs = np.stack([-gvec[:-1].reshape(m, ny), border], axis=2)
    sol, cp = _block_tridiag_solve(diag[1:-1], upper[1:], rhs)
    sol = sol.reshape(-1, 2)
    b = border.ravel()
    kept = _Factorization(diag[1:-1], cp, upper[1:], b, sol[:, 1],
                          np.sum(diag[-1]) - b @ sol[:, 1])
    return kept.eliminate(gvec, sol[:, 0]), kept


def minimize_action(grid: CylinderGrid, sigma: SurfaceTension,
                    boundary: BoundaryData, V: float = 0.0,
                    tol: float = 1e-9, max_iter: int = 20000,
                    start: np.ndarray | None = None):
    """Constrained minimizer of the discrete action.

    Returns (HeightField, SolveInfo).  Boundary tangential derivatives are
    matched exactly by construction; the interior nodes and the offset of
    the right end column are the free variables.  At most max_iter Newton
    steps are taken, and every cell's slope pairings stay BOX_INSET inside
    each edge of the tension's slope polygon.  Raises NonConvergence
    (carrying the best iterate, and the SolveInfo as a dict in its
    diagnostics) if the gradient criterion is not met.

    Chord rule: after a full Newton step accepted at step 1 that took the
    gradient norm from g0 to g1, quadratic convergence predicts g1^2 / g0
    next; when that is under CHORD_MARGIN * tol, the next direction is a
    chord direction on the factorization of the step just taken, without a
    new Hessian.  It is used once, so a chord step that misses tol is
    followed by a full step; chord steps count against max_iter, and
    SolveInfo counts them apart from the factorizations.
    """
    if boundary.t_left.size != grid.ny:
        raise Inconsistent("boundary profiles must match the grid")
    kappa = boundary.monodromy(grid.hy)
    x1, x2 = boundary.profiles(grid.hy)

    phase_s = dict.fromkeys(("start", "objective", "newton_direction"), 0.0)

    @contextmanager
    def timed(phase):
        tic = time.perf_counter()
        try:
            yield
        finally:
            phase_s[phase] += time.perf_counter() - tic

    with timed("start"):
        if start is None:
            h0 = _default_start(grid, x1, x2, kappa, sigma)
        else:
            h0 = np.asarray(start, dtype=float).copy()
            if h0.shape != (grid.nx, grid.ny):
                raise Inconsistent("start field has the wrong shape")
            # project the start onto the boundary constraints
            h0 = h0 - h0[0, 0]
            h0[0, :] = x1
            h0[-1, :] = x2 + (np.mean(h0[-1, :]) - np.mean(x2))

    def unpack(vec):
        h = np.empty((grid.nx, grid.ny))
        h[0], h[1:-1], h[-1] = x1, vec[:-1].reshape(grid.nx - 2, grid.ny), x2 + vec[-1]
        return HeightField(grid, h, kappa)

    evals = 0

    def objective(vec):   # its edge slopes are built once and kept for the Newton step
        nonlocal evals
        evals += 1
        with timed("objective"):
            hf = unpack(vec)
            edges = hf.edge_slopes()
            if not sigma.feasible(*_pairings(edges), margin=BOX_INSET):
                return np.inf, None, None
            gfull = action_gradient(hf, sigma, V, edges)
            gvec = np.concatenate([gfull[1:-1, :].ravel(), [float(np.sum(gfull[-1, :]))]])
            return _raw_action(grid, edges, sigma, V), gvec, edges

    v = np.concatenate([h0[1:-1, :].ravel(), [h0[-1, 0] - x2[0]]])
    f, gvec, edges = objective(v)
    if not np.isfinite(f):
        raise SlopeOutOfDomain("starting field is infeasible")
    gnorm = float(np.max(np.abs(gvec)))

    # damped Newton with Armijo backtracking; infeasible trials are
    # rejected, so every accepted iterate stays in the inset polygon
    actions: list[float] = []
    n_iter = backtracks = factorizations = chord_steps = 0
    kept = None                     # the last full step's factorization, while reusable
    while gnorm > tol and n_iter < max_iter:
        chord, kept = kept, None    # a kept factorization serves one chord direction
        try:
            with timed("newton_direction"):
                if chord is not None:
                    d = chord.direction(gvec)
                else:
                    d, kept = _newton_direction(grid, edges, sigma, gvec)
            slope = float(gvec @ d)
        except np.linalg.LinAlgError:
            slope = np.nan
        if not slope < 0:           # not a descent direction
            d = -gvec
            slope = -float(gvec @ gvec)
            kept = None
        elif chord is not None:
            chord_steps += 1
        else:
            factorizations += 1
        step = 1.0
        for _ in range(50):
            cand = v + step * d
            fc, gc, ec = objective(cand)
            if np.isfinite(fc):
                gnc = float(np.max(np.abs(gc)))
                # once action changes sit at roundoff, Armijo cannot see
                # the decrease; the gradient norm still can
                if fc <= f + 1e-4 * step * slope or (fc <= f + 1e-12 and gnc < gnorm):
                    break
            backtracks += 1
            step *= 0.5
        else:
            break                   # no acceptable step: stalled
        # g1^2 / g0 < CHORD_MARGIN tol, written without dividing by g0
        if step < 1.0 or not gnc * gnc < CHORD_MARGIN * tol * gnorm:
            kept = None
        v, f, gvec, gnorm, edges = cand, fc, gc, gnc, ec
        actions.append(f)
        n_iter += 1

    hf = unpack(v)
    info = SolveInfo(iterations=n_iter, grad_norm=gnorm, actions=actions,
                     converged=gnorm <= tol, evals=evals, backtracks=backtracks,
                     factorizations=factorizations, chord_steps=chord_steps, phase_s=phase_s)
    if not info.converged:
        raise NonConvergence("projected gradient criterion not met", best=hf,
                             diagnostics=asdict(info))
    return hf, info
