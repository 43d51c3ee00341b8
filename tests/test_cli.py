import json
import os

import numpy as np
import pytest

from icelab import cli
from icelab import flow as fl
from icelab import shapes as sh
from icelab.errors import NonConvergence, ShockDetected


def run(argv):
    return cli.main(argv)


def test_verify_suite_passes(tmp_path):
    code = run(["verify", "--suite", "ybe", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is True
    assert all("tol" in c for c in report["checks"])
    assert {c["name"] for c in report["checks"]} >= {"ybe-A1", "ybe-B2", "ybe-C"}
    # the suite's wall time rides on its first check
    timed = [c["inputs"]["suite_seconds"] for c in report["checks"]
             if "suite_seconds" in c["inputs"]]
    assert len(timed) == 1 and timed[0] >= 0.0


def test_verify_unknown_suite_is_config_error(tmp_path):
    assert run(["verify", "--suite", "nosuch", "--out", str(tmp_path)]) == 1


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "ybe", "out": str(tmp_path)}))
    assert run(["verify", "--config", str(cfg)]) == 0
    assert (tmp_path / "verify_report.json").exists()


def test_bad_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    assert run(["verify", "--config", str(cfg), "--suite", "ybe"]) == 1


def test_sixv_weights_and_partitions(tmp_path):
    code = run(["sixv", "--regime", "B2", "--u", "0.5235987755982988",
                "--gamma", "1.0471975511965976", "--torus", "1,1",
                "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "sixv.json").read_text())
    assert abs(data["weights"]["a"] - 0.5) < 1e-12
    assert abs(data["weights"]["c"] - np.sqrt(3) / 2) < 1e-12
    assert abs(data["delta"] + 0.5) < 1e-12
    assert abs(data["torus_partition"] - 2.0) < 1e-12   # 2a + 2b


def test_tension_csv_hex(tmp_path):
    code = run(["tension", "--variant", "hex", "--lo", "0.3333333333333333",
                "--hi", "0.3333333333333333", "--n", "1", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "tension-hex.csv").read_text().strip().splitlines()
    assert lines[0] == "s,t,sigma,dsds,dsdt,detHess"
    row = [float(x) for x in lines[1].split(",")]
    assert abs(row[3]) < 1e-12   # d sigma / d s vanishes at the center
    assert abs(row[5] - np.pi ** 2) < 1e-9


def test_tension_ff_dethess_spectrally_flat(tmp_path):
    code = run(["tension", "--variant", "ff", "--u", "0.5235987755982988",
                "--u", "1.0471975511965976", "--lo", "0.3", "--hi", "0.6",
                "--n", "3", "--out", str(tmp_path)])
    assert code == 0
    files = sorted(p for p in os.listdir(tmp_path) if p.startswith("tension-ff"))
    assert len(files) == 2
    cols = []
    for f in files:
        lines = (tmp_path / f).read_text().strip().splitlines()[1:]
        cols.append([float(ln.split(",")[5]) for ln in lines])
    assert max(abs(a - b) for a, b in zip(*cols)) <= 1e-8


def test_solve_constant_boundary_analytic_match(tmp_path):
    code = run(["solve", "--nx", "13", "--ny", "12", "--t-left", "0.3333333333333333",
                "--t-right", "0.3333333333333333", "--svg", "--out", str(tmp_path)])
    assert code == 0
    log = json.loads((tmp_path / "solve_log.json").read_text())
    assert log["converged"] is True
    assert log["analytic-match"] is True
    assert log["facet_cells"] == 0
    assert (tmp_path / "height.csv").exists()
    assert (tmp_path / "height.svg").exists()
    assert (tmp_path / "el_residual.csv").exists()


def test_solve_boundary_csv_profiles(tmp_path):
    ny = 12
    ys = np.arange(ny) / ny
    prof = tmp_path / "prof.csv"
    lines = ["y,value"] + [f"{y},{1/3 + 0.04 * np.sin(2 * np.pi * y)}" for y in ys]
    prof.write_text("\n".join(lines) + "\n")
    code = run(["solve", "--nx", "13", "--ny", str(ny), "--left-csv", str(prof),
                "--right-csv", str(prof), "--out", str(tmp_path)])
    assert code == 0


def test_solve_nonconvergence_exit_code(tmp_path, monkeypatch):
    def fake_minimize(grid, sigma, bd, V=0.0, tol=1e-9, max_iter=0, **kw):
        xs, ys = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
        hf = sh.HeightField(grid, xs / 3 + ys / 3, 0.0, 1.0, kappa=grid.L / 3)
        raise NonConvergence("stub", best=hf, diagnostics={"grad_norm": 1.0})

    monkeypatch.setattr(cli.sh, "minimize_action", fake_minimize)
    code = run(["solve", "--nx", "9", "--ny", "8", "--t-left", "0.3333333333333333",
                "--t-right", "0.3333333333333333", "--out", str(tmp_path)])
    assert code == 3
    log = json.loads((tmp_path / "solve_log.json").read_text())
    assert log["converged"] is False
    assert (tmp_path / "height.csv").exists()   # partial results still written


def test_solve_default_start_feasible_for_steep_end_slopes(tmp_path):
    # x-slope 0.5, the middle of the slope box, is infeasible at t = 0.6
    code = run(["solve", "--nx", "9", "--ny", "8", "--t-left", "0.6",
                "--t-right", "0.6", "--out", str(tmp_path)])
    assert code == 0
    log = json.loads((tmp_path / "solve_log.json").read_text())
    assert log["converged"] is True


def test_solve_log_reports_evals_and_backtracks(tmp_path):
    code = run(["solve", "--nx", "9", "--ny", "8", "--out", str(tmp_path)])
    assert code == 0
    log = json.loads((tmp_path / "solve_log.json").read_text())
    assert log["backtracks"] >= 0
    assert log["evals"] >= log["iterations"] >= 1


def test_solve_free_fermion_takes_few_newton_steps(tmp_path):
    # the tension value agrees with its exact gradient, so the line search
    # takes full Newton steps
    code = run(["solve", "--tension", "ff", "--u", "1.0", "--nx", "9", "--ny", "8",
                "--out", str(tmp_path)])
    assert code == 0
    log = json.loads((tmp_path / "solve_log.json").read_text())
    assert log["iterations"] <= 5 and log["backtracks"] == 0


def test_tension_numeric_honours_tol(tmp_path, monkeypatch):
    seen = []
    real = cli.tn.numeric_tension

    def numeric(curve, **kw):
        seen.append(kw.get("tol"))
        return real(curve, **kw)

    monkeypatch.setattr(cli.tn, "numeric_tension", numeric)
    code = run(["tension", "--variant", "numeric", "--tol", "1e-7", "--lo", "0.3",
                "--hi", "0.3", "--n", "1", "--out", str(tmp_path)])
    assert code == 0 and seen == [1e-7]


@pytest.mark.parametrize("command", [
    ["verify", "--suite", "ybe"],
    ["tension", "--variant", "hex"],
    ["tension", "--variant", "ff", "--u", "0.5"],
])
def test_tol_is_refused_where_nothing_reads_it(tmp_path, capsys, command):
    code = run(command + ["--tol", "1e-3", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "takes no tolerance" in err
    assert not list(tmp_path.iterdir())


def test_config_tol_is_read_by_numeric_tension_and_ignored_elsewhere(tmp_path, monkeypatch):
    seen = []
    real = cli.tn.numeric_tension

    def numeric(curve, **kw):
        seen.append(kw.get("tol"))
        return real(curve, **kw)

    monkeypatch.setattr(cli.tn, "numeric_tension", numeric)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1e-7, "u": 0.5}))
    for command in (["verify", "--suite", "ybe"],
                    ["tension", "--variant", "hex"],
                    ["tension", "--variant", "ff"],
                    ["tension", "--variant", "numeric"]):
        out = tmp_path / command[-1]
        code = run(command + ["--config", str(cfg), "--lo", "0.3", "--hi", "0.3",
                              "--n", "1", "--out", str(out)]
                   if command[0] == "tension" else
                   command + ["--config", str(cfg), "--out", str(out)])
        assert code == 0, command
        assert list(out.iterdir()), command
    assert seen == [1e-7]


def test_config_scalar_u_for_tension(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"u": 0.5}))
    code = run(["tension", "--variant", "ff", "--config", str(cfg), "--lo", "0.4",
                "--hi", "0.4", "--n", "1", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "tension-ff-u0.5.csv").exists()


def test_config_scalar_u_for_solve(tmp_path, monkeypatch):
    seen = {}

    def fake_minimize(grid, sigma, bd, V=0.0, tol=1e-9, max_iter=0, **kw):
        seen["variant"] = sigma.variant
        xs, ys = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
        hf = sh.HeightField(grid, xs / 3 + ys / 3, 0.0, 1.0, kappa=grid.L / 3)
        raise NonConvergence("stub", best=hf, diagnostics={"grad_norm": 1.0})

    monkeypatch.setattr(cli.sh, "minimize_action", fake_minimize)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"u": 0.5, "tension": "ff"}))
    code = run(["solve", "--config", str(cfg), "--nx", "9", "--ny", "8",
                "--out", str(tmp_path)])
    assert code == 3
    assert seen["variant"] == "FFClosed(u=0.5)"
    log = json.loads((tmp_path / "solve_log.json").read_text())
    assert log["resolved"]["u"] == [0.5]


@pytest.mark.parametrize("command, cfg", [
    (["solve"], {"nx": [9]}),
    (["solve"], {"nx": 8.5}),
    (["solve"], {"svg": "yes"}),
    (["tension", "--variant", "ff"], {"u": {"value": 0.5}}),
    (["flow"], {"ny": {"n": 32}}),
    (["flow"], {"method": "bogus"}),
])
def test_config_wrongly_typed_value_is_config_error(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = run(command + ["--config", str(path), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert repr(next(iter(cfg))) in err


def test_flow_outputs_and_determinism(tmp_path):
    args = ["flow", "--variant", "hex", "--ny", "48", "--horizon", "0.15",
            "--steps", "48", "--out", str(tmp_path)]
    assert run(args) == 0
    first = ((tmp_path / "trajectory.csv").read_bytes(),
             (tmp_path / "conservation.json").read_bytes())
    assert run(args) == 0
    second = ((tmp_path / "trajectory.csv").read_bytes(),
              (tmp_path / "conservation.json").read_bytes())
    assert first == second
    report = json.loads(first[1])
    assert report["conservation"]["I1"]["max_rel_drift"] <= 1e-10
    header = first[0].decode().splitlines()[0]
    assert header == "x,y,p,t,re_l,im_l"


def test_flow_constant_profile_zero_drift(tmp_path):
    code = run(["flow", "--variant", "hex", "--ny", "32", "--amp", "0",
                "--horizon", "0.2", "--steps", "32", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "conservation.json").read_text())
    for n in range(1, 5):
        assert report["conservation"][f"I{n}"]["max_rel_drift"] <= 1e-12


def test_flow_compare_variational(tmp_path):
    code = run(["flow", "--variant", "hex", "--ny", "32", "--horizon", "0.2",
                "--steps", "64", "--compare-variational", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "conservation.json").read_text())
    assert report["compare_variational"]["sup"] <= 1e-3


def test_flow_fine_grid_hamilton(tmp_path):
    # the default mode filter once let roundoff push this run out of the
    # tension domain ("state left the tension domain", exit 1)
    code = run(["flow", "--ny", "256", "--steps", "512", "--method", "hamilton",
                "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "conservation.json").read_text())
    assert report["filter_modes"] == 14
    assert 0.0 <= report["filter_energy_removed"] < 1e-20


def test_flow_honours_tol(tmp_path, capsys):
    args = ["flow", "--variant", "hex", "--ny", "32", "--horizon", "0.15",
            "--steps", "32", "--out", str(tmp_path)]
    assert run(args) == 0
    assert json.loads((tmp_path / "conservation.json").read_text())["drift_tol"] == 1e-6
    assert run(args + ["--tol", "1e-3"]) == 0
    assert json.loads((tmp_path / "conservation.json").read_text())["drift_tol"] == 1e-3
    capsys.readouterr()
    assert run(args + ["--tol", "1e-30"]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "1e-30" in err
    report = json.loads((tmp_path / "conservation.json").read_text())
    assert report["drift_tol"] == 1e-30


def test_flow_shock_exit_code(tmp_path, monkeypatch):
    def fake_evolve(*a, **kw):
        raise ShockDetected("stub shock", x=0.1)

    monkeypatch.setattr(cli.fl, "hamilton_evolve", fake_evolve)
    code = run(["flow", "--variant", "hex", "--ny", "32", "--horizon", "0.2",
                "--steps", "16", "--out", str(tmp_path)])
    assert code == 4
    report = json.loads((tmp_path / "conservation.json").read_text())
    assert report["shock"]["x"] == 0.1


def test_dimer_cell_curve(tmp_path):
    code = run(["dimer", "--cell", "city", "--weights", "1,1,1,1,1,1,1",
                "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "curve.csv").read_text().strip().splitlines()[1:]
    coeffs = {(int(float(a)), int(float(b))): float(c)
              for a, b, c in (ln.split(",") for ln in lines)}
    assert coeffs[(0, 0)] == 3.0
    assert coeffs[(1, 1)] == -1.0


def test_dimer_graph_file(tmp_path):
    from icelab import dimers as dm

    cube = dm.cube_graph(list(np.linspace(0.5, 2.0, 12)))
    lines = []
    listed = set()
    for vid, color in sorted(cube.colors.items()):
        x, y = cube.coords[vid]
        items = [vid, color, f"@{x},{y}"]
        for eid in cube.incident[vid]:
            e = cube.edges[eid]
            if eid not in listed:
                items.append(f"{e.other(vid)}:{e.weight}")
                listed.add(eid)
        lines.append(" ".join(items))
    graph = tmp_path / "g.txt"
    graph.write_text("\n".join(lines) + "\n")
    code = run(["dimer", "--graph", str(graph), "--check", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "matchings.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == 9   # cube skeleton has nine matchings


def test_dimer_needs_input(tmp_path):
    assert run(["dimer", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("given, missing", [(["--gamma", "0.5"], "--u"),
                                            (["--u", "0.3"], "--gamma")])
def test_sixv_regime_without_u_or_gamma_is_config_error(tmp_path, capsys, given, missing):
    code = run(["sixv", "--regime", "A1", *given, "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and missing in err


def test_solve_log_records_the_defaults_it_used(tmp_path):
    assert run(["solve", "--nx", "9", "--ny", "8", "--out", str(tmp_path)]) == 0
    resolved = json.loads((tmp_path / "solve_log.json").read_text())["resolved"]
    assert resolved == {
        "T": 1.0, "L": 1.0, "nx": 9, "ny": 8, "tension": "hex", "u": None,
        "V": 0.0, "tol": 1e-9, "left_csv": None, "right_csv": None,
        "t_left": 1.0 / 3.0, "t_right": 1.0 / 3.0, "out": str(tmp_path),
        "mesh_study": False, "svg": False}
    # a config value is recorded as its flag's type converts it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": 1, "ny": "8", "u": "0.5"}))
    assert run(["solve", "--config", str(cfg), "--nx", "9", "--out", str(tmp_path)]) == 0
    resolved = json.loads((tmp_path / "solve_log.json").read_text())["resolved"]
    assert (resolved["T"], resolved["ny"], resolved["u"]) == (1.0, 8, [0.5])
    assert isinstance(resolved["T"], float)


def test_solve_mesh_study_resamples_the_original_profile(tmp_path, capsys):
    # each level resamples the 64 samples; interpolating the 32-row copy
    # onto 64 rows put kinks in the data and read an order of 1.56
    ys = np.arange(64) / 64
    for name, vals in (("left", 1 / 3 + 0.06 * np.sin(2 * np.pi * ys)),
                       ("right", 1 / 3 - 0.04 * np.sin(2 * np.pi * ys + 0.7))):
        lines = ["y,value"] + [f"{y},{v}" for y, v in zip(ys, vals)]
        (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
    code = run(["solve", "--T", "0.7", "--nx", "33", "--ny", "32", "--mesh-study",
                "--left-csv", str(tmp_path / "left.csv"),
                "--right-csv", str(tmp_path / "right.csv"), "--out", str(tmp_path)])
    assert code == 0
    study = json.loads((tmp_path / "solve_log.json").read_text())["mesh_study"]
    assert set(study["residuals"]) == {"32", "64"}
    assert study["order"] > 1.6
    assert f"mesh study: order {study['order']:.3f}" in capsys.readouterr().out


def test_solve_mesh_study_reports_no_order_for_an_exact_solution(tmp_path, capsys):
    # affine data: both levels solve to roundoff, whose ratio is no order
    code = run(["solve", "--nx", "9", "--ny", "8", "--mesh-study", "--out", str(tmp_path)])
    assert code == 0
    study = json.loads((tmp_path / "solve_log.json").read_text())["mesh_study"]
    assert study["order"] is None
    assert study["residuals"]["8"] <= 1e-9
    assert "mesh study: no order" in capsys.readouterr().out


def test_flow_ff_compare_variational(tmp_path):
    code = run(["flow", "--variant", "ff", "--ny", "32", "--horizon", "0.15",
                "--steps", "64", "--compare-variational", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "conservation.json").read_text())
    assert report["compare_variational"]["sup"] <= 1e-3
    assert report["resolved"]["tbar"] == 0.5 and report["resolved"]["u"] == [1.1]
