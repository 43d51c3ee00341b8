"""Command-line front door: the commands of ``_COMMANDS`` (``icelab --help``).

Each command's parameters are declared once, in the ``_PARAMS`` table,
which builds the parser, checks config values, fills the ``resolved``
block of the solve, flow and sixv reports (the value every parameter
took) and says when the run reads each flag.  A flag beats the config-file
key of its name, which beats the table default; a config value is
converted as the flag's text would be, and a config key the run does not
read is ignored.  Common flags: --out DIR, --config FILE, --tol X, --seed N.

One rule refuses, before any file is written, a command-line flag that the
run would not read or that is given more often than the run reads it (once;
for ``tension --u`` once per value).  A command reads --tol and --seed only
where its table lists them, and every other flag it takes except:

    verify   --seed unless --suite is all or a suite that takes a seed
    tension  --u unless --variant ff; --tol unless --variant numeric
    solve    --u unless --tension ff; --t-left/--t-right with --left-csv/--right-csv
    flow     --u unless --variant ff; --steps with --method burgers;
             --tbar, --amp, --mode with --t0-csv; --pbar with --p0-csv
    dimer    --weights without --cell; --graph, --check with it
    sixv     --u, --gamma, --r, --ybe-v without --regime; --eta1/--eta2 without --cylinder;
             --H, --V without any of --regime, --transfer, --torus, --cylinder

Exit codes: 0 pass, 1 configuration error (a malformed, unknown or refused
flag included, reported in one ``error:`` line), 2 verification failure,
3 solver non-convergence, 4 shock before the requested horizon.  ``flow``
also exits 1 when the worst drift of I_1..I_4 exceeds ``--tol`` (default
1e-6).  A ``--tol`` that a command reads must be finite and positive, and
``flow --mode m`` needs 2|m| < ny; otherwise the command exits 1.

``flow --compare-variational`` and ``solve --mesh-study`` call the
criterion-9 and criterion-10 helpers of ``suites``; a mesh-study order is
null when the coarse residual is already at or below ``--tol``.

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
import dataclasses
import json
import math
import os
import sys
import tempfile
from typing import NamedTuple

import numpy as np

from . import __version__
from . import dimers as dm
from . import flow as fl
from . import shapes as sh
from . import sixvertex as sv
from . import tension as tn
from .errors import IceLabError, NonConvergence, OutOfRange, ShockDetected, TooLarge
from .suites import (FLOW_VARIATIONAL_TOL, SEEDED, SUITES, el_mesh_study,
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
    """The profile CSV at ``path`` (a header row, then ``y,value`` lines) as a
    function of n: its samples resampled onto n rows by
    `shapes.resample_profile`, so that every grid resamples the original samples."""
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


def _load_config(path: str) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg


class _Param(NamedTuple):                 # given as the flag `_flag(name)`
    kind: object                          # type, tuple of choices, [type] (list) or bool (switch)
    default: object = None
    help: str | None = None
    reads: tuple = (lambda o: True, "")   # test of the resolved values, refusal template
    many: bool = False                    # reads every use of the flag, not just one


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _when(name: str, *values) -> tuple:
    """Read only when --name is given or takes one of ``values`` (None: not given)."""
    if not values:
        return lambda o: bool(o[name]), f"{{flag}} needs {_flag(name)}"
    return (lambda o: (o[name] or None) in values,
            f"{{flag}} is not read with {_flag(name)} {{{name}}}")


# Every parameter of every command, declared once: name -> its _Param, or the
# leading fields of one.  Every command takes the _COMMON flags; it reads
# --tol or --seed only where its own table lists them.
_COMMON = {"out": _Param(str, ".", "output directory"),
           "config": _Param(str, None, "JSON config file"),
           "tol": _Param(float, None, None, (lambda o: False, "takes no tolerance (--tol)")),
           "seed": _Param(int, 1234, "seed for randomized test-point selection",
                          (lambda o: False, "takes no seed (--seed)"))}
_PARAMS = {
    "verify": {"suite": (("all", *SUITES), "all", f"suite name or 'all' ({', '.join(SUITES)})"),
               "seed": _COMMON["seed"]._replace(reads=_when("suite", "all", *SEEDED))},
    "tension": {"variant": (("hex", "ff", "numeric"), "hex"),
                "u": ([float], None, "spectral parameter (repeatable for ff)",
                      _when("variant", "ff"), True),
                "lo": (float, 0.15), "hi": (float, 0.45), "n": (int, 5),
                "tol": (float, None, None, (lambda o: o["variant"] == "numeric", "--variant "
                        "{variant} is closed-form and takes no tolerance (--tol)"))},
    "solve": {"T": (float, 1.0), "L": (float, 1.0), "V": (float, 0.0),
              "t_left": (float, 1.0 / 3.0, None, _when("left_csv", None)),
              "t_right": (float, 1.0 / 3.0, None, _when("right_csv", None)),
              "nx": (int, 33), "ny": (int, 32), "left_csv": (str, None),
              "right_csv": (str, None), "tension": (("hex", "ff"), "hex"),
              "u": ([float], None, None, _when("tension", "ff")), "mesh_study": (bool, False),
              "svg": (bool, False), "tol": (float, 1e-9)},
    "flow": {"variant": (("hex", "ff"), "hex"),
             "u": ([float], [1.1], None, _when("variant", "ff")), "L": (float, 1.0),
             "horizon": (float, 0.25), "tbar": (float, None, None, _when("t0_csv", None)),
             "pbar": (float, 0.0, None, _when("p0_csv", None)),
             "amp": (float, 0.03, None, _when("t0_csv", None)), "ny": (int, 128),
             "steps": (int, 128, None, _when("method", "hamilton", "both")),
             "mode": (int, 1, None, _when("t0_csv", None)), "t0_csv": (str, None),
             "p0_csv": (str, None), "method": (("hamilton", "burgers", "both"), "both"),
             "compare_variational": (bool, False), "tol": (float, 1e-6)},
    "dimer": {"graph": (str, None, "adjacency-listing file", _when("cell", None)),
              "cell": (("hex", "city"), None),
              "weights": (str, "1", "comma-separated cell weights", _when("cell")),
              "check": (bool, False, "verify the height-weight identity on the graph",
                        _when("cell", None))},
    "sixv": {"regime": (sv.REGIMES, None), "u": ([float], None, None, _when("regime")),
             "gamma": (float, None, None, _when("regime")),
             "r": (float, 1.0, None, _when("regime")),
             **dict.fromkeys(("H", "V"), (float, 0.0, None, (   # read by the weights
                 lambda o: any(o[k] for k in ("regime", "transfer", "torus", "cylinder")),
                 "{flag} needs --regime, --transfer, --torus or --cylinder"))),
             "ybe_v": (float, None, None, _when("regime")), "transfer": (int, None),
             "torus": (str, None, "M,N"), "cylinder": (str, None, "M,N"),
             "eta1": (str, None, "bit string, row 0 first", _when("cylinder")),
             "eta2": (str, None, None, _when("cylinder"))},
}
_PARAMS = {command: {name: _Param(*spec) for name, spec in table.items()}
           for command, table in _PARAMS.items()}


def _config_value(name: str, kind, value):
    """A config-file value checked against the flag it stands in for.

    A scalar for a repeatable flag becomes a one-element list.  Each item
    is converted as the flag's text would be; any value the flag could not
    have produced, an empty list included, raises ValueError.
    """
    repeatable = isinstance(kind, list)
    items = value if repeatable and isinstance(value, list) else [value]
    kind = kind[0] if repeatable else kind
    converted = []
    for item in items or [None]:                   # None fails every check
        if kind is bool:                           # on/off switch
            ok = isinstance(item, bool)
        else:
            allowed = (str, int) if kind is int else (str, int, float)
            ok = isinstance(item, allowed) and not isinstance(item, bool)
            if ok:
                try:
                    item = (str if isinstance(kind, tuple) else kind)(item)
                except ValueError:
                    ok = False
            ok = ok and (not isinstance(kind, tuple) or item in kind)
        if not ok:
            raise ValueError(f"config value {name!r} is not one its flag "
                             f"accepts: {json.dumps(value)}")
        converted.append(item)
    return converted if repeatable else converted[0]


def _resolve(args: argparse.Namespace, cfg: dict) -> dict:
    """Flag > config file > table default for each parameter of the command.

    The result holds the value each parameter takes, so commands echo it
    as their ``resolved`` block.  A command-line flag that fails its read
    condition on those values, or is given more often than it is read, is
    refused; a config key the command does not read is ignored.
    """
    params = _PARAMS[args.command]
    resolved = {}
    for name, par in {"out": _COMMON["out"], **params}.items():
        val = getattr(args, name)                  # every flag appends
        if val is None and name in cfg:
            val = _config_value(name, par.kind, cfg[name])
        elif val is not None and not isinstance(par.kind, list):
            val = val[-1]
        resolved[name] = par.default if val is None else val
    for name, par in {**_COMMON, **params}.items():
        given, (reads, refusal) = getattr(args, name) or [], par.reads
        if given and not reads(resolved):
            raise ValueError(f"{args.command} " + refusal.format(flag=_flag(name), **resolved))
        uses = resolved[name] if isinstance(par.kind, list) and reads(resolved) else given
        if len(uses or []) > 1 and not par.many:    # a config list counts as its flag's uses
            raise ValueError(f"{args.command} reads one {_flag(name)}, got {len(uses)}")
    return resolved


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise OutOfRange(f"tolerance --tol must be finite and positive, got {tol}")


def _tension_bundle(variant: str, u: float | None, tol: float | None = None):
    if variant == "numeric":
        return tn.numeric_tension(tn.hex_curve(), **({} if tol is None else {"tol": tol}))
    if variant == "hex":
        return tn.hex_tension()
    if u is None:
        raise ValueError("variant ff needs --u")
    return tn.ff_tension(u)


def cmd_verify(opts) -> int:
    names = list(SUITES) if opts["suite"] == "all" else [opts["suite"]]
    all_checks = []
    for name in names:
        checks = run_suite(name, seed=opts["seed"])
        all_checks.extend(checks)
        for c in checks:
            status = "pass" if c.passed else "FAIL"
            print(f"[{status}] {c.name}: value={c.value:.6g} tol={c.tol:.3g}")
    passed = all(c.passed for c in all_checks)
    report = {"version": __version__, "command": "verify", "seed": opts["seed"],
              "suites": names, "passed": passed,
              "checks": [{"name": c.name, "value": c.value, "tol": c.tol, "pass": c.passed,
                          "inputs": c.info} for c in all_checks]}
    _write_json(os.path.join(opts["out"], "verify_report.json"), report)
    print(f"verify: {'PASS' if passed else 'FAIL'} "
          f"({sum(c.passed for c in all_checks)}/{len(all_checks)} checks)")
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_tension(opts) -> int:
    variant = opts["variant"]
    if variant == "numeric" and opts["tol"] is not None:
        _check_tol(opts["tol"])
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


def cmd_solve(opts) -> int:
    T, L, nx, ny, V, tol, out = (opts[k] for k in ("T", "L", "nx", "ny", "V", "tol", "out"))
    _check_tol(tol)
    sigma = _tension_bundle(opts["tension"], (opts["u"] or [None])[0])
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
        record = dataclasses.asdict(info)
    except NonConvergence as err:   # its diagnostics are the same SolveInfo record
        hf, record = err.best, {"converged": False, **err.diagnostics}
        code = EXIT_NONCONVERGENCE
    record.pop("actions", None)     # one action per Newton step: not a summary
    log.update(record)

    xs, ys = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    if np.ptp(t_left) < 1e-14 and np.ptp(t_right) < 1e-14 \
            and abs(t_left[0] - t_right[0]) < 1e-14 and log.get("converged"):
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
    mask = sh.facet_mask(hf, sigma)
    _write_csv(os.path.join(out, "facets.csv"), ["i", "j", "facet"],
               [(i, j, int(m)) for (i, j), m in np.ndenumerate(mask)])
    log["max_el_residual"] = float(np.max(np.abs(res)))
    log["facet_cells"] = int(np.sum(mask))

    if opts["mesh_study"]:
        def problem(n):
            return sh.CylinderGrid(T, L, n + 1, n), sh.BoundaryData(left(n), right(n))

        # level ny is the main solve's problem when nx = ny + 1
        first = hf if log.get("converged") and nx == ny + 1 else None
        residuals = el_mesh_study(sigma, problem, (ny, 2 * ny), tol, V=V, first=first)
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


def cmd_flow(opts) -> int:
    variant, L, ny, horizon, steps, method, out, drift_tol = (opts[k] for k in (
        "variant", "L", "ny", "horizon", "steps", "method", "out", "tol"))
    if not math.isfinite(horizon):
        raise OutOfRange(f"horizon must be finite, got {horizon}")
    _check_tol(drift_tol)
    if opts["tbar"] is None:
        opts["tbar"] = 0.6 if variant == "hex" else 0.5
    dens = fl.hex_density() if variant == "hex" else fl.ff_density(opts["u"][0])

    ys = fl.sample_points(L, ny)
    if not opts["t0_csv"] and not 2 * abs(opts["mode"]) < ny:
        # mode ny/2 samples sin as zero, higher modes alias onto lower ones
        raise OutOfRange(f"--mode {opts['mode']} needs 2|mode| < ny = {ny}")
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
            report["rhs_evals"] = traj.rhs_evals
            report["min_shock_indicator"] = traj.min_shock_indicator
        else:
            states = [state] + [fl.burgers_evolve(state, dens.burgers, float(x))
                                for x in xs_out[1:]]
            xs_traj = xs_out
        rows = [(x, y, p, t, lc.real, lc.imag) for x, st in zip(xs_traj, states)
                for y, p, t, lc in zip(st.ys, st.p, st.t, st.l)]
        _write_csv(os.path.join(out, "trajectory.csv"),
                   ["x", "y", "p", "t", "re_l", "im_l"], rows)
        for n in range(1, 5):
            vals = [fl.conserved_In(st, n) for st in states]
            # from the input, so a perturbation the projection removed shows
            base = fl.conserved_In(state, n)
            series[f"I{n}"] = {
                "x": [float(x) for x in xs_traj],
                "re": [v.real for v in vals],
                "im": [v.imag for v in vals],
                "max_rel_drift": max(abs(v - base) / max(abs(base), 1e-30)
                                     for v in vals),
            }
        if method == "both":
            endB = fl.burgers_evolve(state, dens.burgers, horizon)
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


def cmd_dimer(opts) -> int:
    out = opts["out"]
    if opts["cell"]:
        w = [float(x) for x in opts["weights"].split(",")]
        n, build = (3, dm.hexagonal_cell) if opts["cell"] == "hex" else (7, dm.dimer_city_cell)
        if len(w) > n:
            raise ValueError(f"dimer --cell {opts['cell']} reads at most {n} --weights, "
                             f"got {len(w)}")
        curve = dm.characteristic_polynomial(build(*w, *[1.0] * (n - len(w))))
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


def cmd_sixv(opts) -> int:
    u, gamma = (opts["u"] or [None])[0], opts["gamma"]
    H, V, out = opts["H"], opts["V"], opts["out"]
    payload = {"version": __version__, "command": "sixv", "resolved": opts}
    if opts["regime"]:
        if u is None or gamma is None:
            raise ValueError("sixv --regime needs a spectral point: give --u and --gamma")
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
    if opts["transfer"] is not None:      # 0 and N > DENSE_CAP are errors
        if opts["transfer"] > sv.DENSE_CAP:
            raise TooLarge(f"dense transfer capped at N = {sv.DENSE_CAP}, got {opts['transfer']}")
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


class _Parser(argparse.ArgumentParser):
    """Raises its usage errors (a bad or unknown flag) as ValueError, which
    `main` reports in one line with EXIT_CONFIG; subparsers inherit it."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="icelab", description="six-vertex / dimer limit-shape laboratory")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, par in {**_COMMON, **_PARAMS[command]}.items():
            kind = par.kind[0] if isinstance(par.kind, list) else par.kind
            # every flag appends, so that `_resolve` sees each use
            how = ({"action": "append_const", "const": True} if kind is bool
                   else {"action": "append", "choices": kind} if isinstance(kind, tuple)
                   else {"action": "append", "type": kind})
            p.add_argument(_flag(name), help=par.help, **how)
    return ap


_COMMANDS = {
    "verify": (cmd_verify, "run verification suites, write a JSON report (exit 2 on failure)"),
    "tension": (cmd_tension, "tabulate a surface tension on a slope grid (CSV)"),
    "solve": (cmd_solve, "variational limit-shape solve on a cylinder (CSV grid + SVG)"),
    "flow": (cmd_flow, "Hamiltonian / characteristic evolution (trajectory CSV + JSON)"),
    "dimer": (cmd_dimer, "dimer utilities: matchings, curves, height checks"),
    "sixv": (cmd_sixv, "six-vertex utilities: weights, R-matrices, partitions")}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        try:
            cfg = _load_config(args.config[0]) if args.config else {}
        except (OSError, ValueError) as err:         # a JSONDecodeError is a ValueError
            print(f"config error: {err}", file=sys.stderr)
            return EXIT_CONFIG
        return _COMMANDS[args.command][0](_resolve(args, cfg))
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
