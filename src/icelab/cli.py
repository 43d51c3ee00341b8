"""Command-line front door.

Commands
--------
verify   run verification suites, write a JSON report (exit 2 on failure)
tension  tabulate a surface tension on a slope grid (CSV)
solve    variational limit-shape solve on a cylinder (CSV grid + SVG)
flow     Hamiltonian / characteristic evolution (trajectory CSV + JSON)
dimer    dimer utilities: matchings, curves, height checks
sixv     six-vertex utilities: weights, R-matrices, partitions

Common flags: --out DIR, --config FILE, --tol X, --seed N.  A flag beats
the config-file key of its name, which beats the command's one stated
default; a config value is converted as the flag's text would be.  The
``resolved`` block of the solve, flow and sixv reports records the value
every parameter took.  Exit codes: 0 pass, 1 configuration error,
2 verification failure, 3 solver non-convergence, 4 shock before the
requested horizon.  ``flow`` also exits 1 when the worst drift of
I_1..I_4 exceeds ``--tol`` (default 1e-6).

``flow --compare-variational`` and ``solve --mesh-study`` call the
criterion-9 and criterion-10 helpers of ``suites``; a mesh-study order is
null when the coarse residual is already at or below ``--tol``.

Boundary and initial profiles are CSV files with a header row followed by
``y,value`` lines; they are resampled onto the grid by periodic linear
interpolation.

Graph files for ``dimer --graph`` are plain-text adjacency listings, one
vertex per line::

    # vertex  color  [@x,y]  neighbor:weight ...
    b0 black @0,0 w0:1.5 w1:0.7
    w0 white @1,0
    w1 white @0,1

Coordinates are optional and only needed for height-function checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from . import dimers as dm
from . import flow as fl
from . import shapes as sh
from . import sixvertex as sv
from . import tension as tn
from .errors import IceLabError, NonConvergence, ShockDetected
from .suites import (FLOW_VARIATIONAL_TOL, SUITES, el_mesh_study,
                     flow_variational_gap, run_suite)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_NONCONVERGENCE = 3
EXIT_SHOCK = 4


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".icelab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: list, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_profile(path: str, L: float):
    """The profile CSV at ``path`` as a function of n: its samples resampled
    onto n rows, so that every grid resamples the original samples."""
    with open(path) as fh:
        rows = [line.split(",")[:2] for line in fh.read().splitlines()[1:] if line.strip()]
    if not rows:
        raise ValueError(f"profile {path} holds no samples")
    ys, vals = np.array(rows, dtype=float).T
    return lambda n: sh.resample_profile(ys, vals, n, L)


def _svg_heatmap(path: str, values: np.ndarray) -> None:
    """Fixed-palette filled-cell rendering; a convenience view only."""
    nx, ny = values.shape
    lo, hi = float(np.min(values)), float(np.max(values))
    span = hi - lo if hi > lo else 1.0
    palette = ["#30123b", "#3b5cc4", "#28a8e0", "#30f199", "#a6fc3d",
               "#f3c63a", "#f36315", "#ba2208"]
    cell = 6
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{nx * cell}" '
           f'height="{ny * cell}">']
    for i in range(nx):
        for j in range(ny):
            k = int((values[i, j] - lo) / span * (len(palette) - 1) + 0.5)
            out.append(f'<rect x="{i * cell}" y="{(ny - 1 - j) * cell}" '
                       f'width="{cell}" height="{cell}" fill="{palette[k]}"/>')
    out.append("</svg>")
    _atomic_write(path, "\n".join(out) + "\n")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg


def _config_value(action: argparse.Action, value):
    """A config-file value checked against the flag it stands in for.

    A scalar for a repeatable flag becomes a one-element list.  Each item
    is converted as argparse converts the flag's text (``type``, else str);
    any value the flag could not have produced raises ValueError.
    """
    repeatable = isinstance(action, argparse._AppendAction)
    items = value if repeatable and isinstance(value, list) else [value]
    converted = []
    for item in items:
        if action.nargs == 0:                      # on/off switch
            ok = isinstance(item, bool)
        else:
            allowed = (str, int) if action.type is int else (str, int, float)
            ok = isinstance(item, allowed) and not isinstance(item, bool)
            if ok:
                try:
                    item = (action.type or str)(item)
                except ValueError:
                    ok = False
        ok = ok and (action.choices is None or item in action.choices)
        if not ok:
            raise ValueError(f"config value {action.dest!r} is not one its flag "
                             f"accepts: {json.dumps(value)}")
        converted.append(item)
    return converted if repeatable else converted[0]


def _resolve(args: argparse.Namespace, cfg: dict, defaults: dict) -> dict:
    """Flag > config file > ``defaults[name]`` for each name in ``defaults``.

    The result holds the value each parameter takes, so commands echo it
    as their ``resolved`` block.
    """
    resolved = {}
    for name, default in defaults.items():
        val = getattr(args, name)
        if val is None and name in cfg:
            val = _config_value(args.options[name], cfg[name])
        resolved[name] = default if val is None else val
    return resolved


def _tension_bundle(variant: str, u: float | None, tol: float | None = None):
    if variant == "numeric":
        return tn.numeric_tension(tn.hex_curve(), **({} if tol is None else {"tol": tol}))
    if variant == "hex":
        return tn.hex_tension()
    if variant == "ff":
        if u is None:
            raise ValueError("variant ff needs --u")
        return tn.ff_tension(u)
    raise ValueError(f"unknown tension variant {variant!r}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_verify(args, cfg) -> int:
    if args.tol is not None:
        raise ValueError("verify takes no tolerance (--tol); each check carries its own")
    opts = _resolve(args, cfg, {"suite": "all", "out": ".", "seed": 1234, "fast": False})
    names = list(SUITES) if opts["suite"] == "all" else [opts["suite"]]
    for name in names:
        if name not in SUITES:
            print(f"unknown suite {name!r}; available: {', '.join(SUITES)}",
                  file=sys.stderr)
            return EXIT_CONFIG
    all_checks = []
    for name in names:
        checks = run_suite(name, seed=opts["seed"], fast=opts["fast"])
        all_checks.extend(checks)
        for c in checks:
            status = "pass" if c.passed else "FAIL"
            print(f"[{status}] {c.name}: value={c.value:.6g} tol={c.tol:.3g}")
    passed = all(c.passed for c in all_checks)
    report = {
        "version": __version__,
        "command": "verify",
        "seed": opts["seed"],
        "suites": names,
        "checks": [
            {"name": c.name, "value": c.value, "tol": c.tol, "pass": c.passed,
             "inputs": c.info}
            for c in all_checks
        ],
        "passed": passed,
    }
    _write_json(os.path.join(opts["out"], "verify_report.json"), report)
    print(f"verify: {'PASS' if passed else 'FAIL'} "
          f"({sum(c.passed for c in all_checks)}/{len(all_checks)} checks)")
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_tension(args, cfg) -> int:
    opts = _resolve(args, cfg, {"variant": "hex", "u": None, "lo": 0.15, "hi": 0.45,
                                "n": 5, "out": ".", "tol": None})
    variant = opts["variant"]
    if variant != "numeric" and args.tol is not None:
        raise ValueError(f"tension --variant {variant} is closed-form and takes no tolerance (--tol)")
    grid = np.linspace(opts["lo"], opts["hi"], opts["n"])
    for u in opts["u"] if variant == "ff" and opts["u"] else [None]:
        sigma = _tension_bundle(variant, u, opts["tol"])
        rows = []
        for s in grid:
            for t in grid:
                if not sigma.feasible(s, t, margin=1e-9):
                    continue
                val = float(sigma.value(s, t))
                gs, gt = (float(x) for x in sigma.grad(s, t))
                h11, h12, h22 = (float(x) for x in sigma.hess(s, t))
                rows.append((s, t, val, gs, gt, h11 * h22 - h12 * h12))
        tag = variant if u is None else f"{variant}-u{u:.6g}"
        _write_csv(os.path.join(opts["out"], f"tension-{tag}.csv"),
                   ["s", "t", "sigma", "dsds", "dsdt", "detHess"], rows)
        print(f"tension-{tag}.csv: {len(rows)} rows")
    return EXIT_OK


def cmd_solve(args, cfg) -> int:
    opts = _resolve(args, cfg, {
        "T": 1.0, "L": 1.0, "nx": 33, "ny": 32, "tension": "hex", "u": None,
        "V": 0.0, "tol": 1e-9, "left_csv": None, "right_csv": None,
        "t_left": 1.0 / 3.0, "t_right": 1.0 / 3.0, "out": ".", "mesh_study": False,
        "svg": False})
    T, L, nx, ny, V, tol, out = (opts[k] for k in ("T", "L", "nx", "ny", "V", "tol", "out"))
    sigma = _tension_bundle(opts["tension"], opts["u"][0] if opts["u"] else None)
    grid = sh.CylinderGrid(T, L, nx, ny)

    def profile(csv_path, const):
        return _read_profile(csv_path, L) if csv_path else lambda n: np.full(n, const)

    left = profile(opts["left_csv"], opts["t_left"])
    right = profile(opts["right_csv"], opts["t_right"])
    t_left, t_right = left(ny), right(ny)
    bd = sh.BoundaryData(t_left, t_right)

    log = {"version": __version__, "command": "solve", "resolved": opts}
    code = EXIT_OK
    try:
        hf, info = sh.minimize_action(grid, sigma, bd, V=V, tol=tol, max_iter=60000)
        log.update(converged=True, iterations=info.iterations, grad_norm=info.grad_norm,
                   evals=info.evals, backtracks=info.backtracks)
    except NonConvergence as err:
        hf = err.best
        log["converged"] = False
        log["diagnostics"] = {k: float(v) for k, v in err.diagnostics.items()}
        code = EXIT_NONCONVERGENCE

    xs, ys = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    const_left = float(np.max(t_left) - np.min(t_left)) < 1e-14
    const_right = float(np.max(t_right) - np.min(t_right)) < 1e-14
    if const_left and const_right and abs(t_left[0] - t_right[0]) < 1e-14 \
            and log.get("converged"):
        t0 = float(t_left[0])
        pl = tn.partial_legendre(sigma, -V, t0)
        affine = pl.nu_star * xs + t0 * ys
        gap = float(np.max(np.abs(hf.values - affine - hf.values[0, 0])))
        log["analytic-match"] = bool(gap < 1e-6)
        log["affine_gap"] = gap

    _write_csv(os.path.join(out, "height.csv"), ["x", "y", "h"],
               zip(xs.ravel(), ys.ravel(), hf.values.ravel()))
    res = sh.el_residual(hf, sigma)                # on the interior x nodes
    _write_csv(os.path.join(out, "el_residual.csv"), ["x", "y", "residual"],
               zip(xs[1:-1].ravel(), ys[1:-1].ravel(), res.ravel()))
    mask = sh.facet_mask(hf)
    _write_csv(os.path.join(out, "facets.csv"), ["i", "j", "facet"],
               [(i, j, int(m)) for (i, j), m in np.ndenumerate(mask)])
    log["max_el_residual"] = float(np.max(np.abs(res)))
    log["facet_cells"] = int(np.sum(mask))

    if opts["mesh_study"]:
        def problem(n):
            return sh.CylinderGrid(T, L, n + 1, n), sh.BoundaryData(left(n), right(n))

        residuals = el_mesh_study(sigma, problem, (ny, 2 * ny), tol, V=V)
        coarse = residuals[ny]
        # a coarse residual already at the solver tolerance is roundoff, and
        # the ratio of two roundoff levels is no order of accuracy
        order = math.log2(coarse / residuals[2 * ny]) if coarse > tol else None
        log["mesh_study"] = {"residuals": {str(k): v for k, v in residuals.items()},
                             "order": order}
        if order is None:
            print(f"mesh study: no order, the coarse EL residual {coarse:.3e} "
                  f"is at or below tol {tol:g}")
        else:
            print(f"mesh study: order {order:.3f}")

    if opts["svg"]:
        _svg_heatmap(os.path.join(out, "height.svg"), hf.values)
    _write_json(os.path.join(out, "solve_log.json"), log)
    print(f"solve: {'converged' if log.get('converged') else 'NOT CONVERGED'}, "
          f"max EL residual {log['max_el_residual']:.3e}")
    return code


def cmd_flow(args, cfg) -> int:
    opts = _resolve(args, cfg, {
        "variant": "hex", "u": [1.1], "L": 1.0, "ny": 128, "horizon": 0.25,
        "steps": 128, "t0_csv": None, "p0_csv": None, "tbar": None, "pbar": 0.0,
        "amp": 0.03, "mode": 1, "method": "both", "compare_variational": False,
        "out": ".", "tol": 1e-6})
    variant, L, ny, horizon, steps, method, out, drift_tol = (opts[k] for k in (
        "variant", "L", "ny", "horizon", "steps", "method", "out", "tol"))
    if opts["tbar"] is None:
        opts["tbar"] = 0.6 if variant == "hex" else 0.5
    if variant == "hex":
        dens, F = fl.hex_density(), fl.hex_burgers()
    elif variant == "ff":
        dens, F = fl.ff_density(opts["u"][0]), fl.ff_burgers(opts["u"][0])
    else:
        raise ValueError(f"unknown flow variant {variant!r}")

    ys = np.arange(ny) * (L / ny)
    t0 = (_read_profile(opts["t0_csv"], L)(ny) if opts["t0_csv"]
          else opts["tbar"] + opts["amp"] * np.sin(2 * np.pi * opts["mode"] * ys / L))
    p0 = (_read_profile(opts["p0_csv"], L)(ny) if opts["p0_csv"]
          else np.full(ny, opts["pbar"]))
    state = fl.FlowState(L, p0, t0)

    report = {"version": __version__, "command": "flow", "resolved": opts}
    code = EXIT_OK
    xs_out = np.linspace(0.0, horizon, 9)
    try:
        series = {}
        if method in ("hamilton", "both"):
            traj = fl.hamilton_evolve(state, dens, (0.0, horizon), steps,
                                      keep_every=max(1, steps // 8))
            states, xs_traj = traj.states, traj.xs
            report["filter_modes"] = traj.filter_modes
            report["filter_energy_removed"] = traj.filter_energy_removed
        else:
            states = [state] + [fl.burgers_evolve(state, F, float(x))
                                for x in xs_out[1:]]
            xs_traj = xs_out
        rows = []
        for x, st in zip(xs_traj, states):
            for y, p, t, lc in zip(st.ys, st.p, st.t, st.l):
                rows.append((x, y, p, t, lc.real, lc.imag))
        _write_csv(os.path.join(out, "trajectory.csv"),
                   ["x", "y", "p", "t", "re_l", "im_l"], rows)
        for n in range(1, 5):
            vals = [fl.conserved_In(st, n) for st in states]
            base = vals[0]
            series[f"I{n}"] = {
                "x": [float(x) for x in xs_traj],
                "re": [v.real for v in vals],
                "im": [v.imag for v in vals],
                "max_rel_drift": max(abs(v - base) / max(abs(base), 1e-30)
                                     for v in vals),
            }
        if method == "both":
            endB = fl.burgers_evolve(state, F, horizon)
            series["hamilton_vs_burgers_sup"] = float(
                np.max(np.abs(states[-1].l - endB.l)))
        report["conservation"] = series
        report["drift_tol"] = drift_tol
    except ShockDetected as err:
        report["shock"] = {"x": err.x, "detail": str(err)}
        code = EXIT_SHOCK

    if opts["compare_variational"] and code == EXIT_OK:
        n = min(64, ny)
        st_n = fl.FlowState(L, sh.resample_profile(ys, p0, n, L),
                            sh.resample_profile(ys, t0, n, L))
        sup = flow_variational_gap(st_n, dens, horizon)
        report["compare_variational"] = {"sup": sup, "tol": FLOW_VARIATIONAL_TOL,
                                         "grid": n}
        print(f"variational cross-check sup: {sup:.3e}")

    _write_json(os.path.join(out, "conservation.json"), report)
    if code == EXIT_SHOCK:
        print("flow: shock detected before the horizon")
    else:
        worst = max(report["conservation"][f"I{n}"]["max_rel_drift"]
                    for n in range(1, 5))
        print(f"flow: done, worst I_n drift {worst:.3e}")
        if worst > drift_tol:
            print(f"flow: worst I_n drift {worst:.3e} exceeds tol {drift_tol:g}",
                  file=sys.stderr)
            return EXIT_CONFIG
    return code


def cmd_dimer(args, cfg) -> int:
    opts = _resolve(args, cfg, {"graph": None, "cell": None, "weights": "1", "out": ".",
                                "check": False})
    out = opts["out"]
    if opts["cell"]:
        w = [float(x) for x in opts["weights"].split(",")]
        if opts["cell"] == "hex":
            vals = (w + [1.0, 1.0, 1.0])[:3]
            fd = dm.hexagonal_cell(*vals)
        elif opts["cell"] == "city":
            vals = (w + [1.0] * 7)[:7]
            fd = dm.dimer_city_cell(*vals)
        else:
            raise ValueError(f"unknown cell {opts['cell']!r}")
        curve = dm.characteristic_polynomial(fd)
        _write_csv(os.path.join(out, "curve.csv"), ["i", "j", "coeff"],
                   [(i, j, c) for (i, j), c in curve.coeffs])
        print("characteristic polynomial:",
              " + ".join(f"({_fmt(c)}) z^{i} w^{j}" for (i, j), c in curve.coeffs))
        return EXIT_OK
    if not opts["graph"]:
        print("dimer needs --graph FILE or --cell NAME", file=sys.stderr)
        return EXIT_CONFIG
    with open(opts["graph"]) as fh:
        g = dm.parse_graph_text(fh.read())
    matchings = dm.enumerate_matchings(g)
    rows = [(k, len(d), dm.config_weight(g, d),
             ";".join(str(e) for e in sorted(d))) for k, d in enumerate(matchings)]
    _write_csv(os.path.join(out, "matchings.csv"),
               ["index", "dimers", "weight", "edges"], rows)
    print(f"{len(matchings)} matchings on {len(g.edges)} edges")
    if opts["check"]:
        worst = 0.0
        for d in matchings:
            theta = dm.trivalent_height(g, d)
            worst = max(worst, abs(dm.weight_from_height(theta, g)
                                   - dm.config_weight(g, d)))
        print(f"height-weight identity residual: {worst:.3e}")
        return EXIT_OK if worst < 1e-10 else EXIT_VERIFY
    return EXIT_OK


def cmd_sixv(args, cfg) -> int:
    opts = _resolve(args, cfg, {
        "regime": None, "u": None, "gamma": None, "r": 1.0, "H": 0.0, "V": 0.0,
        "ybe_v": None, "transfer": None, "torus": None, "cylinder": None,
        "eta1": None, "eta2": None, "out": "."})
    H, V, out = opts["H"], opts["V"], opts["out"]
    payload = {"version": __version__, "command": "sixv", "resolved": opts}
    if opts["regime"]:
        if opts["u"] is None or opts["gamma"] is None:
            raise ValueError("sixv --regime needs a spectral point: give --u and --gamma")
        u, gamma = opts["u"][0], opts["gamma"]
        par = sv.BaxterParam(opts["regime"], u, gamma, opts["r"])
        w = sv.weights_from_baxter(par, H, V)
        payload["weights"] = {"a": w.a, "b": w.b, "c": w.c, "H": H, "V": V}
        payload["delta"] = sv.anisotropy_delta(w)
        print(f"(a, b, c) = ({w.a:.12g}, {w.b:.12g}, {w.c:.12g}), "
              f"Delta = {payload['delta']:.12g}")
        if opts["ybe_v"] is not None:
            res = sv.yang_baxter_residual(u, opts["ybe_v"], opts["regime"], gamma)
            payload["ybe_residual"] = res
            print(f"Yang-Baxter residual: {res:.3e}")
    else:
        w = sv.VertexWeights(1.0, 1.0, 1.0, H, V)
    if opts["transfer"]:
        op = sv.transfer(opts["transfer"], w)
        _write_csv(os.path.join(out, "transfer.csv"),
                   [f"c{k}" for k in range(op.dim)], op.matrix)
        payload["transfer_rows"] = op.dim
    if opts["torus"]:
        m, n = (int(x) for x in opts["torus"].split(","))
        payload["torus_partition"] = sv.torus_partition(m, n, w)
        print(f"Z_torus({m},{n}) = {payload['torus_partition']:.12g}")
    if opts["cylinder"]:
        m, n = (int(x) for x in opts["cylinder"].split(","))
        for key in ("eta1", "eta2"):       # the empty word by default
            opts[key] = opts[key] or "0" * n
        e1, e2 = (sv.BoundaryWord(tuple(map(int, opts[k]))) for k in ("eta1", "eta2"))
        payload["cylinder_partition"] = sv.cylinder_partition(m, n, w, e1, e2)
        print(f"Z_cyl({m},{n}) = {payload['cylinder_partition']:.12g}")
    _write_json(os.path.join(out, "sixv.json"), payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="icelab",
                                 description="six-vertex / dimer limit-shape laboratory")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output directory")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--tol", type=float)
        p.add_argument("--seed", type=int,
                       help="seed for randomized test-point selection")

    p = sub.add_parser("verify", help="run verification suites")
    common(p)
    p.add_argument("--suite", help=f"suite name or 'all' ({', '.join(SUITES)})")
    p.add_argument("--fast", action="store_const", const=True,
                   help="reduced grid sizes for the heavy suites")

    p = sub.add_parser("tension", help="tabulate a surface tension")
    common(p)
    p.add_argument("--variant", choices=["hex", "ff", "numeric"])
    p.add_argument("--u", type=float, action="append",
                   help="spectral parameter (repeatable for ff)")
    p.add_argument("--lo", type=float)
    p.add_argument("--hi", type=float)
    p.add_argument("--n", type=int)

    p = sub.add_parser("solve", help="variational limit-shape solve")
    common(p)
    p.add_argument("--T", type=float)
    p.add_argument("--L", type=float)
    p.add_argument("--nx", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--tension", choices=["hex", "ff"])
    p.add_argument("--u", type=float, action="append")
    p.add_argument("--V", type=float)
    p.add_argument("--left-csv", dest="left_csv")
    p.add_argument("--right-csv", dest="right_csv")
    p.add_argument("--t-left", dest="t_left", type=float)
    p.add_argument("--t-right", dest="t_right", type=float)
    p.add_argument("--mesh-study", dest="mesh_study", action="store_const", const=True)
    p.add_argument("--svg", action="store_const", const=True)

    p = sub.add_parser("flow", help="evolve the Hamiltonian flow")
    common(p)
    p.add_argument("--variant", choices=["hex", "ff"])
    p.add_argument("--u", type=float, action="append")
    p.add_argument("--L", type=float)
    p.add_argument("--ny", type=int)
    p.add_argument("--horizon", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--t0-csv", dest="t0_csv")
    p.add_argument("--p0-csv", dest="p0_csv")
    p.add_argument("--tbar", type=float)
    p.add_argument("--pbar", type=float)
    p.add_argument("--amp", type=float)
    p.add_argument("--mode", type=int)
    p.add_argument("--method", choices=["hamilton", "burgers", "both"])
    p.add_argument("--compare-variational", dest="compare_variational",
                   action="store_const", const=True)

    p = sub.add_parser("dimer", help="dimer utilities")
    common(p)
    p.add_argument("--graph", help="adjacency-listing file")
    p.add_argument("--cell", choices=["hex", "city"])
    p.add_argument("--weights", help="comma-separated cell weights")
    p.add_argument("--check", action="store_const", const=True,
                   help="verify the height-weight identity on the graph")

    p = sub.add_parser("sixv", help="six-vertex utilities")
    common(p)
    p.add_argument("--regime", choices=list(sv.REGIMES))
    p.add_argument("--u", type=float, action="append")
    p.add_argument("--gamma", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--H", type=float)
    p.add_argument("--V", type=float)
    p.add_argument("--ybe-v", dest="ybe_v", type=float)
    p.add_argument("--transfer", type=int)
    p.add_argument("--torus", help="M,N")
    p.add_argument("--cylinder", help="M,N")
    p.add_argument("--eta1", help="bit string, row 0 first")
    p.add_argument("--eta2")
    for p in sub.choices.values():
        p.set_defaults(options={a.dest: a for a in p._actions})
    return ap


_COMMANDS = {
    "verify": cmd_verify,
    "tension": cmd_tension,
    "solve": cmd_solve,
    "flow": cmd_flow,
    "dimer": cmd_dimer,
    "sixv": cmd_sixv,
}


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = _load_config(args.config)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    handler = _COMMANDS[args.command]
    try:
        return handler(args, cfg)
    except ShockDetected as err:
        print(f"shock detected: {err}", file=sys.stderr)
        return EXIT_SHOCK
    except NonConvergence as err:
        print(f"solver did not converge: {err}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (IceLabError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
