"""Verification suites behind `icelab verify` and the acceptance tests.

Each suite runs a bundle of checks at pinned tolerances and returns a list
of Check records; a suite covers one or two of the numbered acceptance
criteria (noted in each docstring), and every criterion is covered by
exactly one suite: the criterion -> suite table is ``CRITERIA`` in
tests/test_acceptance.py.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import dimers as dm
from . import flow as fl
from . import shapes as sh
from . import sixvertex as sv
from . import tension as tn


@dataclass
class Check:
    name: str
    value: float
    tol: float
    passed: bool
    info: dict = field(default_factory=dict)

    @staticmethod
    def le(name, value, tol, **info):
        return Check(name, float(value), float(tol), bool(value <= tol), info)

    @staticmethod
    def ge(name, value, threshold, **info):
        return Check(name, float(value), float(threshold),
                     bool(value >= threshold), dict(info, direction="ge"))

    @staticmethod
    def true(name, flag, **info):
        return Check(name, 1.0 if flag else 0.0, 1.0, bool(flag), info)


def suite_ybe(seed: int = 1234) -> list:
    """Criterion 1: Yang-Baxter residuals per regime plus mismatch control."""
    rng = np.random.default_rng(seed)
    checks = []
    grids = {
        "A1": (0.5, np.linspace(0.2, 1.0, 5)),
        "A2": (0.3, np.linspace(0.35, 0.9, 5)),
        "B1": (0.3, np.linspace(0.35, 0.7, 5)),
        "B2": (1.3, np.linspace(0.1, 0.55, 5)),
        "C": (1.5, np.linspace(0.1, 0.6, 5)),
    }
    for regime, (gamma, base) in grids.items():
        worst = 0.0
        jitter = rng.uniform(-0.01, 0.01, (5, 5, 2))
        for i, u in enumerate(base):
            for j, v in enumerate(base):
                uu = u + jitter[i, j, 0]
                vv = v + jitter[i, j, 1]
                worst = max(worst, sv.yang_baxter_residual(uu, vv, regime, gamma))
        checks.append(Check.le(f"ybe-{regime}", worst, 1e-12, gamma=gamma))
    ctrl = sv.yang_baxter_residual(0.3, 0.4, "A1", 0.5, gamma_mid=0.9)
    checks.append(Check.ge("ybe-mismatched-gamma-control", ctrl, 1e-6))
    return checks


def suite_commute() -> list:
    """Criterion 2: transfer-matrix commutativity for the free-fermion family."""
    checks = []
    us = [k * np.pi / 10 for k in (1, 2, 3, 4)]
    ops = {}
    for n in (4, 8):
        for u in us:
            w = sv.VertexWeights(math.cos(u), math.sin(u), 1.0)
            ops[(n, u)] = sv.transfer(n, w)
    worst = 0.0
    for n in (4, 8):
        for i, u in enumerate(us):
            for v in us[i + 1:]:
                worst = max(worst, sv.commutator_residual(ops[(n, u)], ops[(n, v)]))
    checks.append(Check.le("commute-ff-family", worst, 1e-10, n=8))
    t1 = sv.transfer(4, sv.VertexWeights(1.0, 1.0, 1.0))
    t2 = sv.transfer(4, sv.VertexWeights(2.0, 1.0, 1.0))
    checks.append(Check.ge("commute-different-delta-control",
                           sv.commutator_residual(t1, t2), 1e-4))
    return checks


def suite_oracle(seed: int = 1234) -> list:
    """Criterion 3: partition functions against brute-force enumeration.

    Covers every lattice shape with at most nine vertices, drawing a fresh
    random weight/field tuple per shape (23 tuples in total).
    """
    rng = np.random.default_rng(seed)
    shapes = [(m, n) for m in range(1, 10) for n in range(1, 10) if m * n <= 9]
    worst_t = 0.0
    worst_c = 0.0
    for m, n in shapes:
        a, b, c = rng.uniform(0.3, 2.0, 3)
        H, V = rng.uniform(-0.7, 0.7, 2)
        w = sv.VertexWeights(a, b, c, H, V)
        zt = sv.torus_partition(m, n, w)
        ze = sv.enumerate_torus_partition(m, n, w)
        worst_t = max(worst_t, abs(zt - ze) / max(abs(ze), 1e-300))
        bits2 = tuple(int(x) for x in rng.integers(0, 2, n))
        bits1 = tuple(int(x) for x in np.asarray(bits2)[rng.permutation(n)])
        e1, e2 = sv.BoundaryWord(bits1), sv.BoundaryWord(bits2)
        zc = sv.cylinder_partition(m, n, w, e1, e2)
        zce = sv.enumerate_cylinder_partition(m, n, w, e1, e2)
        worst_c = max(worst_c, abs(zc - zce) / max(abs(zce), 1e-12))
    checks = [Check.le("oracle-torus", worst_t, 1e-12, shapes=len(shapes)),
              Check.le("oracle-cylinder", worst_c, 1e-12, shapes=len(shapes))]
    # field factorization on random admissible boundary words
    worst_f = 0.0
    for _ in range(6):
        m, n = 3, 3
        a, b, c = rng.uniform(0.4, 1.8, 3)
        V = rng.uniform(-0.5, 0.5)
        H = rng.uniform(-0.6, 0.6)
        bits = tuple(int(x) for x in rng.integers(0, 2, n))
        eta = sv.BoundaryWord(bits)
        z0 = sv.cylinder_partition(m, n, sv.VertexWeights(a, b, c, 0.0, V), eta, eta)
        zh = sv.cylinder_partition(m, n, sv.VertexWeights(a, b, c, H, V), eta, eta)
        pred = z0 * math.exp(H * sv.cylinder_field_exponent(m, eta))
        worst_f = max(worst_f, abs(zh - pred) / max(abs(zh), 1e-300))
    checks.append(Check.le("oracle-field-factorization", worst_f, 1e-12))
    return checks


def suite_legendre() -> list:
    """Criterion 4: quadrature + Legendre tension against the closed forms."""
    checks = []
    fef = tn.FreeEnergyField(tn.hex_curve())
    pts = np.linspace(0.15, 0.45, 5)
    worst_v = 0.0
    worst_g = 0.0
    for s in pts:
        for t in pts:
            sig, (H, V) = tn.legendre_sigma(fef, s, t)
            worst_v = max(worst_v, abs(sig - float(tn.sigma_hex(s, t))))
            gs, gt = tn.grad_sigma_hex(s, t)
            worst_g = max(worst_g, abs(H - float(gs)), abs(V - float(gt)))
    checks.append(Check.le("legendre-hex-value", worst_v, 1e-4))
    checks.append(Check.le("legendre-hex-grad", worst_g, 1e-4))
    u = math.pi / 3
    worst_inv = 0.0
    for s in (0.3, 0.45, 0.7):
        for t in (0.25, 0.5, 0.65):
            H, V = (float(x) for x in tn.grad_sigma_ff(s, t, u))
            s2, t2 = tn.grad_free_energy_ff(H, V, u)
            worst_inv = max(worst_inv, abs(s2 - s), abs(t2 - t))
    checks.append(Check.le("legendre-ff-inversion", worst_inv, 1e-6))
    return checks


def _fd2(fun, x, h):
    base = (-fun(x + 2 * h) + 16 * fun(x + h) - 30 * fun(x)
            + 16 * fun(x - h) - fun(x - 2 * h)) / (12 * h * h)
    wide = (-fun(x + 4 * h) + 16 * fun(x + 2 * h) - 30 * fun(x)
            + 16 * fun(x - 2 * h) - fun(x - 4 * h)) / (48 * h * h)
    return (16 * base - wide) / 15.0


def _appendix_a_fd(tag: str, tau, sigma, ps, xis) -> list:
    """Worst misses of d11 tau * d11 sigma = 1 and d22 tau / d11 tau = -det Hess
    sigma over ps x xis: tau's partials by finite differences, sigma's Hessian
    at the partial Legendre point."""
    worst_p11 = worst_ratio = 0.0
    for p in ps:
        for xi in xis:
            d11 = _fd2(lambda q: tau(q, xi), p, 4e-3)
            d22 = _fd2(lambda x2: tau(p, x2), xi, 4e-3)
            pl = tn.partial_legendre(sigma, p, xi)
            h11, h12, h22 = (float(v) for v in sigma.hess(pl.nu_star, xi))
            det = h11 * h22 - h12 * h12
            worst_p11 = max(worst_p11, abs(d11 * h11 - 1.0))
            worst_ratio = max(worst_ratio, abs(d22 / d11 + det))
    return [Check.le(f"appendixA-{tag}-p11", worst_p11, 1e-8),
            Check.le(f"appendixA-{tag}-ratio", worst_ratio, 1e-8)]


def suite_hessian() -> list:
    """Criteria 5 and 6: partial-Legendre identities and the spectral
    independence of the free-fermion Hessian determinant."""
    checks = []
    # quadratic oracle: identities exact
    qa, qb, qc = 1.7, 0.4, 2.2
    quad = tn.quadratic_tension(qa, qb, qc)
    worst = 0.0
    for p in (-0.8, 0.3):
        for xi in (-0.5, 0.7):
            pl = tn.partial_legendre(quad, p, xi)
            tau_exact = p * p / (2 * qa) - (qb / qa) * p * xi \
                + 0.5 * (qb * qb / qa - qc) * xi * xi
            det = qa * qc - qb * qb
            worst = max(worst, abs(pl.tau - tau_exact),
                        abs(pl.d11 * qa - 1.0), abs(pl.d22 / pl.d11 + det))
    checks.append(Check.le("appendixA-quadratic-exact", worst, 1e-12))
    # hexagonal: finite differences of tau values against the identities
    hx = tn.hex_tension()
    checks += _appendix_a_fd("hex", lambda q, x2: tn.partial_legendre(hx, q, x2).tau, hx,
                             np.linspace(-0.4, 0.4, 5), np.linspace(0.25, 0.55, 5))
    # free fermion: the closed-form density equals tau up to affine terms,
    # so its second differences probe the same identities
    u = 0.9
    checks += _appendix_a_fd("ff", lambda q, x2: fl.hamiltonian_ff(q + 1j * np.pi * x2, u).real,
                             tn.ff_tension(u), (-0.3, 0.0, 0.25), (0.3, 0.5, 0.7))
    # criterion 6: det Hess sigma_ff spread over the spectral parameter
    worst = 0.0
    for s in np.linspace(0.2, 0.8, 5):
        for t in np.linspace(0.2, 0.8, 5):
            worst = max(worst, tn.hess_spectral_independence(
                s, t, [math.pi / 6, math.pi / 4, math.pi / 3]))
    checks.append(Check.le("hessian-spectral-independence", worst, 1e-8))
    return checks


def suite_poisson() -> list:
    """Criterion 7: commutation certificate and its factored form."""
    checks = []
    p_grid = np.linspace(-0.8, 0.8, 7)
    xi_grid = np.linspace(0.2, 0.8, 7)
    pairs = [(math.pi / 6, math.pi / 3), (math.pi / 6, math.pi / 4),
             (math.pi / 4, math.pi / 3)]
    worst = 0.0
    for u, v in pairs:
        worst = max(worst, fl.poisson_bracket_residual(
            fl.ff_density(u), fl.ff_density(v), p_grid, xi_grid))
    checks.append(Check.le("poisson-ff-pairs", worst, 1e-6))
    qu = tn.quadratic_tension(1.0, 0.0, 1.0)
    qv = tn.quadratic_tension(1.0, 0.0, 2.0)
    grid = np.linspace(-1.0, 1.0, 5)
    checks.append(Check.ge("poisson-quadratic-control",
                           fl.poisson_bracket_residual(qu, qv, grid, grid), 0.1))
    # the finite-difference route factors through the Hessian determinants
    qu2 = tn.quadratic_tension(2.0, 0.3, 1.5)
    qv2 = tn.quadratic_tension(1.0, -0.2, 2.0)
    r_fd = fl.poisson_bracket_residual(qu2, qv2, grid, grid)
    r_fac = fl.factored_poisson_residual(qu2, qv2, grid, grid)
    checks.append(Check.le("poisson-factorization-agreement",
                           abs(r_fd - r_fac), 1e-8))
    return checks


def _hex_flow_problem(ny: int):
    ys = np.arange(ny) / ny
    t0 = 0.6 + 0.03 * np.sin(2 * np.pi * ys)
    return fl.FlowState(1.0, np.zeros(ny), t0)


def suite_conserve() -> list:
    """Criterion 8: conserved moments along both integrators."""
    checks = []
    T = 0.25
    F = fl.hex_burgers()
    st = _hex_flow_problem(128)
    end = fl.burgers_evolve(st, F, T)
    worst = max(abs(fl.conserved_In(end, n) - fl.conserved_In(st, n))
                / abs(fl.conserved_In(st, n)) for n in range(1, 5))
    checks.append(Check.le("conserve-burgers-hex", worst, 1e-6))
    u = 1.1
    stf = fl.FlowState(1.0, np.zeros(128),
                       0.5 + 0.03 * np.sin(2 * np.pi * np.arange(128) / 128))
    endf = fl.burgers_evolve(stf, fl.ff_burgers(u), 0.15)
    worst_f = max(abs(fl.conserved_In(endf, n) - fl.conserved_In(stf, n))
                  / abs(fl.conserved_In(stf, n)) for n in range(1, 5))
    checks.append(Check.le("conserve-burgers-ff", worst_f, 1e-6))
    # refinement: drift decreases on a coarse-to-fine pair with visible error
    drifts = []
    for ny in (12, 24):
        stc = fl.FlowState(1.0, np.zeros(ny),
                           0.55 + 0.06 * np.sin(2 * np.pi * np.arange(ny) / ny))
        sc = fl.burgers_evolve(stc, F, 0.3)
        drifts.append(max(abs(fl.conserved_In(sc, n) - fl.conserved_In(stc, n))
                          / abs(fl.conserved_In(stc, n)) for n in (2, 3, 4)))
    checks.append(Check.true("conserve-refinement-decreasing",
                             drifts[1] < drifts[0], coarse=drifts[0], fine=drifts[1]))
    traj = fl.hamilton_evolve(st, fl.hex_density(), (0.0, T), 192)
    i0 = fl.conserved_In(st, 1)
    drift1 = abs(fl.conserved_In(traj.states[-1], 1) - i0) / abs(i0)
    ib0 = fl.conserved_In_bar(st, 1)
    driftb = abs(fl.conserved_In_bar(traj.states[-1], 1) - ib0) / abs(ib0)
    checks.append(Check.le("conserve-casimir-I1", max(drift1, driftb), 1e-10))
    return checks


FLOW_VARIATIONAL_TOL = 1e-3


def flow_variational_gap(state: fl.FlowState, dens: fl.HamiltonianDensity,
                         horizon: float) -> float:
    """Criterion 9's cross-check on the n x n cylinder grid, n = state size.

    Evolves ``state`` by the Hamiltonian flow of ``dens`` up to ``horizon``,
    solves the variational problem with ``dens.sigma`` between the flow's
    end profiles, starting from the flow heights, and returns the sup of
    the height gap anchored at the corner.
    """
    n, L = state.t.size, state.L
    traj = fl.hamilton_evolve(state, dens, (0.0, horizon), 2 * (n - 1), keep_every=2)
    grid = sh.CylinderGrid(horizon, L, n, n)
    bd = sh.BoundaryData(fl.spectral_shift(state.t, grid.hy / 2, L),
                         fl.spectral_shift(traj.states[-1].t, grid.hy / 2, L))
    h_flow = np.array(traj.heights)            # (n, ny)
    hf, _ = sh.minimize_action(grid, dens.sigma, bd, tol=1e-8, max_iter=40000,
                               start=h_flow)
    diff = hf.values - h_flow
    return float(np.max(np.abs(diff - diff[0, 0])))


def el_mesh_study(sigma, problem, levels, tol: float, V: float = 0.0,
                  first: sh.HeightField | None = None) -> dict:
    """Criterion 10's refinement loop: max |EL residual| on each level.

    ``problem(n)`` gives level n's (grid, boundary data).  Each level starts
    from the previous level's solution, prolonged, and every level is
    solved to ``tol``.  ``first`` is the first level's solution when the
    caller already has it from the same cold solve; it is not solved again.
    """
    residuals, prev = {}, first
    for k, n in enumerate(levels):
        grid, bd = problem(n)
        if k or first is None:
            start = sh.prolong(prev, grid) if k else None
            prev, _ = sh.minimize_action(grid, sigma, bd, V=V, tol=tol, max_iter=60000,
                                         start=start)
        residuals[n] = float(np.max(np.abs(sh.el_residual(prev, sigma))))
    return residuals


def suite_equivalence() -> list:
    """Criterion 9: Hamiltonian vs characteristics vs variational solver."""
    checks = []
    T = 0.25
    st = _hex_flow_problem(128)
    dens = fl.hex_density()
    F = fl.hex_burgers()
    endB = fl.burgers_evolve(st, F, T)
    traj = fl.hamilton_evolve(st, dens, (0.0, T), 254, keep_every=2)
    endH = traj.states[-1]
    checks.append(Check.le("equivalence-hamilton-burgers",
                           float(np.max(np.abs(endH.l - endB.l))), 1e-5))

    checks.append(Check.le("equivalence-variational-flow",
                           flow_variational_gap(_hex_flow_problem(128), dens, T),
                           FLOW_VARIATIONAL_TOL, grid=128))
    return checks


def suite_solver() -> list:
    """Criterion 10: affine recovery, uniqueness, and the mesh study."""
    checks = []
    hexT = tn.hex_tension()
    grid = sh.CylinderGrid(1.0, 1.0, 17, 16)
    bd = sh.BoundaryData(np.full(16, 1.0 / 3.0), np.full(16, 1.0 / 3.0))
    hf, info = sh.minimize_action(grid, hexT, bd, tol=1e-10)
    xs, ys = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    exact = xs / 3.0 + ys / 3.0
    diff = hf.values - exact
    diff -= diff[0, 0]
    checks.append(Check.le("solver-affine-recovery", float(np.max(np.abs(diff))), 1e-8))
    pert = 0.01 * np.sin(2 * np.pi * np.arange(16) / 16)[None, :] \
        * np.sin(np.pi * np.linspace(0, 1, 17))[:, None]
    hf2, info2 = sh.minimize_action(grid, hexT, bd, tol=1e-10, start=hf.values + pert)
    # the cold solve starts on its minimizer; the perturbed one takes the steps
    checks.append(Check.true("solver-monotone-actions",
                             all(b <= a + 1e-12 for run in (info, info2) for a, b in
                                 zip(run.actions, run.actions[1:])),
                             steps=len(info.actions) + len(info2.actions)))
    checks.append(Check.le("solver-two-start-uniqueness",
                           float(np.max(np.abs(hf.values - hf2.values))), 1e-8))
    checks.append(Check.true("solver-facet-mask-empty", not np.any(sh.facet_mask(hf, hexT))))

    def problem(n):
        g = sh.CylinderGrid(0.7, 1.0, n + 1, n)
        yj = g.ys() + g.hy / 2
        return g, sh.BoundaryData(1 / 3 + 0.06 * np.sin(2 * np.pi * yj),
                                  1 / 3 - 0.04 * np.sin(2 * np.pi * yj + 0.7))

    residuals = el_mesh_study(hexT, problem, (32, 64, 128), tol=1e-9)
    order = math.log2(residuals[64] / residuals[128])
    checks.append(Check.ge("solver-el-order", order, 1.8,
                           residuals={str(k): v for k, v in residuals.items()}))
    return checks


def suite_appendix_d(seed: int = 1234) -> list:
    """Criterion 11: dimer curve identities and the height-weight lemmas."""
    rng = np.random.default_rng(seed)
    checks = []
    eq, _ = dm.curves_equal_mod_units(
        dm.characteristic_polynomial(dm.hexagonal_cell()), dm.hex_reference_curve())
    checks.append(Check.true("dimer-hex-curve", eq))
    ok = True
    for u in (math.pi / 6, math.pi / 4, math.pi / 3):
        e, _ = dm.curves_equal_mod_units(dm.ff_city_curve(u), dm.ff_reference_curve(u))
        ok = ok and e
    checks.append(Check.true("dimer-ff-curve-identity", ok))
    worst = 0.0
    lemma_ok = True
    for make, n_w in ((lambda ws: dm.theta_graph(*ws), 3),
                      (dm.cube_graph, 12), (dm.prism_graph, 18)):
        weights = rng.uniform(0.3, 2.5, n_w)
        g = make(list(weights))
        sides = g.edge_sides()
        for d in dm.enumerate_matchings(g):
            theta = dm.trivalent_height(g, d)
            wa = dm.weight_from_height(theta, g)
            wb = dm.config_weight(g, d)
            worst = max(worst, abs(wa - wb) / wb)
            for e in g.edges:
                lw, rw = sides[e.eid]
                step = theta[lw] - theta[rw] + 0.5
                expect = 1.5 if e.eid in d else 0.0
                lemma_ok = lemma_ok and abs(step - expect) < 1e-12
    checks.append(Check.le("dimer-weight-from-height", worst, 1e-10))
    checks.append(Check.true("dimer-leftright-lemma", lemma_ok))
    return checks


def suite_fivevertex() -> list:
    """Criterion 12: strong-field limit matrices and the Hamiltonian shift."""
    checks = []
    par = dict(xi=0.4, l=0.15, m=-0.2)
    for case in (1, 3):
        gaps = [sv.convergence_gap(case, g, **par) for g in (4.0, 6.0, 8.0)]
        checks.append(Check.true(f"fivevertex-case{case}-decreasing",
                                 gaps[0] > gaps[1] > gaps[2], gaps=gaps))
        checks.append(Check.le(f"fivevertex-case{case}-matched", gaps[-1], 1e-4))
    gap2 = sv.convergence_gap(2, 0.9 + 1e-5, u=0.9, l=0.1, m=0.2)
    checks.append(Check.le("fivevertex-case2-matched", gap2, 1e-4))
    # momentum shift onto the hexagonal Hamiltonian
    u = math.pi / 2 - 1e-3
    shift = math.log(math.sin(2 * u)) - math.log(2.0)
    worst = 0.0
    for l0 in (-1.0 + 0.5j, -0.4 + 1.2j, 0.2 + 2.0j):
        worst = max(worst, abs(fl.hamiltonian_ff(l0 + shift, u)
                               - fl.hamiltonian_hex(l0)))
    checks.append(Check.le("fivevertex-hamiltonian-reduction", worst, 1e-4))
    return checks


SUITES = {
    "ybe": suite_ybe,
    "commute": suite_commute,
    "oracle": suite_oracle,
    "legendre": suite_legendre,
    "hessian": suite_hessian,
    "poisson": suite_poisson,
    "conserve": suite_conserve,
    "equivalence": suite_equivalence,
    "solver": suite_solver,
    "appendixD": suite_appendix_d,
    "fivevertex": suite_fivevertex,
}
# the suites that draw random test points, and so read a seed
SEEDED = frozenset(n for n, fn in SUITES.items() if "seed" in inspect.signature(fn).parameters)


def run_suite(name: str, seed: int = 1234) -> list:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    t0 = time.perf_counter()
    checks = SUITES[name](seed=seed) if name in SEEDED else SUITES[name]()
    elapsed = time.perf_counter() - t0
    for c in checks:
        c.info.setdefault("suite", name)
    if checks:
        checks[0].info.setdefault("suite_seconds", round(elapsed, 3))
    return checks
