import dataclasses
import json
import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from icelab import cli
from icelab import dimers as dm
from icelab import flow as fl
from icelab import shapes as sh
from icelab import sixvertex as sv
from icelab import tension as tn
from icelab.errors import NonConvergence, ShockDetected
from icelab.suites import el_mesh_study


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


@pytest.mark.parametrize("argv", [["solve", "--nx", "abc"], ["flow", "--bogus", "1"],
                                  ["verify", "--fast"]])
def test_flag_errors_exit_1_with_one_line(argv, capsys):
    # argparse's own handling printed a usage block and exited 2, the code
    # reserved for a verification failure
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["solve", "--help"]])
def test_version_and_help_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0 and capsys.readouterr().out


# Uses that exited 0 with a flag unread: the argv without the flag, the flag
# with its values, and the refusal.  profile.csv is a constant mean-1/3 profile.
NEWLY_UNREAD = [
    (["solve", "--nx", "9", "--ny", "8"], ["--u", "0.5"],
     "solve --u is not read with --tension hex"),
    (["flow", "--variant", "hex", "--ny", "16", "--steps", "8", "--tol", "1"], ["--u", "0.5"],
     "flow --u is not read with --variant hex"),
    (["tension", "--variant", "hex", "--n", "1"], ["--u", "0.2"],
     "tension --u is not read with --variant hex"),
    (["tension", "--variant", "numeric", "--n", "1", "--lo", "0.3", "--hi", "0.3"],
     ["--u", "0.5"], "tension --u is not read with --variant numeric"),
    (["sixv", "--torus", "1,1"], ["--u", "0.5"], "sixv --u needs --regime"),
    (["sixv", "--torus", "1,1"], ["--gamma", "0.5", "--r", "2"], "sixv --gamma needs --regime"),
    (["dimer", "--cell", "hex"], ["--graph", "nosuch.txt", "--check"],
     "dimer --graph is not read with --cell hex"),
    (["dimer", "--graph", "/dev/null"], ["--weights", "1,2"], "dimer --weights needs --cell"),
    (["dimer", "--cell", "hex"], ["--weights", "1,2,3,4,5"],
     "dimer --cell hex reads at most 3 --weights, got 5"),
    (["dimer", "--cell", "city"], ["--weights", "1,2,3,4,5,6,7,8"],
     "dimer --cell city reads at most 7 --weights, got 8"),
    (["flow", "--ny", "16", "--method", "burgers", "--tol", "1"], ["--steps", "64"],
     "flow --steps is not read with --method burgers"),
    *((["flow", "--ny", "16", "--steps", "8", "--tol", "1", "--t0-csv", "profile.csv"], flag,
       f"flow {flag[0]} is not read with --t0-csv profile.csv")
      for flag in (["--tbar", "0.4"], ["--amp", "0.5"], ["--mode", "3"])),
    (["flow", "--ny", "16", "--steps", "8", "--tol", "1", "--p0-csv", "profile.csv"],
     ["--pbar", "0.4"], "flow --pbar is not read with --p0-csv profile.csv"),
    *((["solve", "--nx", "9", "--ny", "8", f"--{end}-csv", "profile.csv"], [f"--t-{end}", "0.2"],
       f"solve --t-{end} is not read with --{end}-csv profile.csv") for end in ("left", "right")),
    (["verify", "--suite", "commute"], ["--seed", "3"],
     "verify --seed is not read with --suite commute"),
    (["solve", "--nx", "9", "--ny", "8"], ["--nx", "17"], "solve reads one --nx, got 2"),
]


@pytest.fixture
def in_profile_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "profile.csv").write_text(
        "y,value\n" + "".join(f"{k / 16},{1 / 3}\n" for k in range(16)))


@pytest.mark.parametrize("argv, message", [
    (["dimer", "--cell", "hex", "--tol", "1e-3"], "dimer takes no tolerance (--tol)"),
    (["sixv", "--torus", "1,1", "--tol", "1e-3"], "sixv takes no tolerance (--tol)"),
    (["tension", "--seed", "3"], "tension takes no seed (--seed)"),
    (["solve", "--nx", "9", "--ny", "8", "--seed", "3"], "solve takes no seed (--seed)"),
    (["flow", "--ny", "16", "--steps", "8", "--seed", "3"], "flow takes no seed (--seed)"),
    (["dimer", "--cell", "hex", "--seed", "3"], "dimer takes no seed (--seed)"),
    (["sixv", "--torus", "1,1", "--seed", "3"], "sixv takes no seed (--seed)"),
    (["sixv", "--torus", "1,1", "--ybe-v", "0.3"], "sixv --ybe-v needs --regime"),
    (["sixv", "--eta1", "01"], "sixv --eta1 needs --cylinder"),
    (["sixv", "--torus", "1,1", "--eta2", "10"], "sixv --eta2 needs --cylinder"),
    (["solve", "--nx", "9", "--ny", "8", "--tension", "ff", "--u", "1.0", "--u", "0.5"],
     "solve reads one --u, got 2"),
    (["flow", "--variant", "ff", "--u", "1.0", "--u", "1.1", "--ny", "16", "--steps", "8"],
     "flow reads one --u, got 2"),
    (["sixv", "--regime", "A1", "--u", "0.5", "--u", "0.6", "--gamma", "0.5"],
     "sixv reads one --u, got 2"),
    *((argv + flag, message) for argv, flag, message in NEWLY_UNREAD),
    (["sixv", "--H", "0.5", "--V", "0.2"],
     "sixv --H needs --regime, --transfer, --torus or --cylinder"),
])
def test_flags_nothing_reads_exit_1_without_output(tmp_path, capsys, in_profile_dir, argv,
                                                   message):
    # each of these ran to exit 0 with the flag, or its second value, unread
    assert run(argv + ["--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [argv for argv, _, _ in NEWLY_UNREAD]
                         + [["sixv", "--torus", "1,1", "--H", "0.5", "--V", "0.2"]],
                         ids=[message for _, _, message in NEWLY_UNREAD]
                         + ["sixv --H with --torus 1,1"])
def test_same_uses_without_the_unread_flag_exit_0(tmp_path, in_profile_dir, argv):
    # the rule refuses only the flag, not the run
    assert run(argv + ["--out", str(tmp_path / "out")]) == 0


def test_readme_usages_pass_the_read_rule():
    # each documented `icelab ...` line is parsed and resolved, not run
    blocks = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("```")[1::2]
    usages = [line.split("#")[0] for block in blocks
              for line in block.replace("\\\n", " ").splitlines() if line.startswith("icelab ")]
    for usage in usages:
        cli._resolve(cli._build_parser().parse_args(shlex.split(usage)[1:]), {})
    assert {shlex.split(u)[1] for u in usages} == set(cli._COMMANDS)


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


def test_sixv_transfer_rows_out_of_range(tmp_path, capsys):
    assert run(["sixv", "--transfer", "2", "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "transfer.csv").read_text().splitlines()) == 5
    for rows, message in (("13", "capped at N = 12"), ("0", "at least one row")):
        capsys.readouterr()
        assert run(["sixv", "--transfer", rows, "--out", str(tmp_path / rows)]) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and message in err
        assert not (tmp_path / rows).exists()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="lattice partition functions under- and overflow silently: "
                          "sixv prints Z_torus(2000,10) = 0 and exits 0")
def test_sixv_torus_that_underflows_exits_1_with_one_line(tmp_path, capsys):
    code = run(["sixv", "--regime", "A1", "--u", "0.3", "--gamma", "0.5",
                "--torus", "2000,10", "--out", str(tmp_path)])
    err = capsys.readouterr().err.strip()
    assert code == 1 and len(err.splitlines()) == 1


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
        hf = sh.HeightField(grid, xs / 3 + ys / 3, kappa=grid.L / 3)
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
    # V moves the minimizer off the affine start, so the solve takes Newton steps
    code = run(["solve", "--nx", "9", "--ny", "8", "--V", "0.2", "--out", str(tmp_path)])
    assert code == 0
    log = json.loads((tmp_path / "solve_log.json").read_text())
    assert log["backtracks"] >= 0
    assert log["evals"] >= log["iterations"] >= 1


def test_solve_log_reports_factorizations_and_chord_steps(tmp_path):
    code = run(["solve", "--nx", "9", "--ny", "8", "--V", "0.2", "--out", str(tmp_path)])
    assert code == 0
    log = json.loads((tmp_path / "solve_log.json").read_text())
    assert log["factorizations"] >= 1 and log["chord_steps"] >= 0
    assert log["factorizations"] + log["chord_steps"] <= log["iterations"]


def test_solve_log_reports_phase_seconds(tmp_path):
    code = run(["solve", "--nx", "17", "--ny", "16", "--out", str(tmp_path)])
    assert code == 0
    log = json.loads((tmp_path / "solve_log.json").read_text())
    assert set(log["phase_s"]) == {"start", "objective", "newton_direction"}
    assert all(v >= 0.0 for v in log["phase_s"].values())


def test_an_unconverged_solve_log_has_the_converged_keys(tmp_path, monkeypatch):
    argv = ["solve", "--nx", "9", "--ny", "8", "--V", "0.2"]
    assert run(argv + ["--out", str(tmp_path / "done")]) == 0
    real = cli.sh.minimize_action
    monkeypatch.setattr(cli.sh, "minimize_action",
                        lambda *a, **kw: real(*a, **{**kw, "max_iter": 1}))
    assert run(argv + ["--out", str(tmp_path / "cut")]) == 3
    done, cut = (json.loads((tmp_path / d / "solve_log.json").read_text())
                 for d in ("done", "cut"))
    counts = {"iterations", "evals", "backtracks", "factorizations", "chord_steps"}
    assert set(cut) == set(done) - {"analytic-match", "affine_gap"}
    assert set(done) - {"version", "command", "resolved", "max_el_residual", "facet_cells",
                        "analytic-match", "affine_gap"} == {
        f.name for f in dataclasses.fields(sh.SolveInfo)} - {"actions"}
    assert cut["converged"] is False and cut["iterations"] == 1
    assert all(type(cut[k]) is int and type(done[k]) is int for k in counts)
    assert set(cut["phase_s"]) == {"start", "objective", "newton_direction"}


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
        hf = sh.HeightField(grid, xs / 3 + ys / 3, kappa=grid.L / 3)
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


CONFIG_U_READ_ONCE = [
    (["solve", "--nx", "9", "--ny", "8"], {"tension": "ff"}),
    (["flow", "--ny", "16", "--steps", "8", "--tol", "1"], {"variant": "ff"}),
    (["sixv"], {"regime": "A1", "gamma": 0.5}),
]


@pytest.mark.parametrize("argv, cfg", CONFIG_U_READ_ONCE, ids=["solve", "flow", "sixv"])
def test_config_list_of_several_u_exits_1_where_one_is_read(tmp_path, capsys, argv, cfg):
    # each solved, flowed or weighed at the first u and exited 0
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"u": [0.25, 0.5], **cfg}))
    assert run(argv + ["--config", str(path), "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {argv[0]} reads one --u, got 2\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, cfg", CONFIG_U_READ_ONCE, ids=["solve", "flow", "sixv"])
def test_config_list_of_one_u_is_read(tmp_path, argv, cfg):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"u": [1.1] if argv[0] == "flow" else [0.25], **cfg}))
    assert run(argv + ["--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_config_list_of_several_u_is_read_in_full_by_ff_tension(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"u": [0.25, 0.5], "variant": "ff", "tension": "ff"}))
    assert run(["tension", "--config", str(path), "--lo", "0.3", "--hi", "0.3", "--n", "1",
                "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.glob("tension-*.csv")) == [
        "tension-ff-u0.25.csv", "tension-ff-u0.5.csv"]


@pytest.mark.parametrize("command, cfg", [
    (["solve"], {"nx": [9]}),
    (["solve"], {"nx": 8.5}),
    (["solve"], {"svg": "yes"}),
    (["tension", "--variant", "ff"], {"u": {"value": 0.5}}),
    (["flow"], {"ny": {"n": 32}}),
    (["flow"], {"method": "bogus"}),
    (["flow", "--variant", "ff"], {"u": []}),
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


def test_flow_reports_rhs_evals_and_min_shock_indicator(tmp_path):
    code = run(["flow", "--ny", "32", "--horizon", "0.15", "--steps", "32",
                "--method", "hamilton", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "conservation.json").read_text())
    ys = np.arange(32) / 32
    traj = fl.hamilton_evolve(fl.FlowState(1.0, np.zeros(32), 0.6 + 0.03 * np.sin(2 * np.pi * ys)),
                              fl.hex_density(), (0.0, 0.15), 32)
    assert report["rhs_evals"] == traj.rhs_evals == 128
    assert report["min_shock_indicator"] == traj.min_shock_indicator > fl.SHOCK_DELTA


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


@pytest.mark.parametrize("args, message", [
    (["--ny", "0"], "at least one sample"),
    (["--variant", "ff", "--u", "0"], "spectral parameter u"),
    (["--variant", "ff", "--u", "-0.5"], "spectral parameter u"),
    (["--variant", "ff", "--u", "1.6"], "spectral parameter u")])
def test_flow_bad_sample_count_or_u_is_config_error(tmp_path, capsys, args, message):
    assert run(["flow", *args, "--steps", "8", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("error:") and message in err
    assert not (tmp_path / "conservation.json").exists()


@pytest.mark.parametrize("args, message", [
    (["--L", "0"], "period L must be finite and positive"),
    (["--L", "-1"], "period L must be finite and positive"),
    (["--L", "nan"], "period L must be finite and positive"),
    (["--horizon", "nan", "--method", "hamilton"], "horizon must be finite"),
    (["--horizon", "nan", "--method", "burgers"], "horizon must be finite"),
    (["--horizon", "inf"], "horizon must be finite")])
def test_flow_bad_period_or_horizon_is_config_error(tmp_path, capsys, args, message):
    assert run(["flow", *args, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("error:") and message in err
    assert not (tmp_path / "conservation.json").exists()


@pytest.mark.parametrize("command", [
    ["solve", "--nx", "5", "--ny", "4"],
    ["flow", "--ny", "16", "--steps", "8"],
    ["tension", "--variant", "numeric", "--n", "1"]])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_tol_must_be_finite_and_positive(tmp_path, capsys, command, tol):
    # flow --tol nan switched its drift check off; solve --tol -1 never returned
    assert run(command + ["--tol", tol, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "--tol must be finite and positive" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("variant", ["hex", "ff"])
def test_config_tol_is_not_checked_by_closed_form_tension(tmp_path, variant):
    # a shared config's tol is ignored by the closed-form variants, even a bad one
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 0, "u": 0.5}))
    out = tmp_path / "out"
    assert run(["tension", "--variant", variant, "--config", str(cfg), "--lo", "0.3",
                "--hi", "0.3", "--n", "1", "--out", str(out)]) == 0
    assert list(out.iterdir())


@pytest.mark.parametrize("mode", ["64", "65", "1000", "-64"])
def test_flow_mode_must_lie_below_half_the_sample_count(tmp_path, capsys, mode):
    # mode 64 of 128 samples is a zero perturbation, higher modes alias
    assert run(["flow", "--ny", "128", "--mode", mode, "--steps", "8",
                "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "needs 2|mode| < ny = 128" in err
    assert not list(tmp_path.iterdir())


def test_flow_drift_is_measured_from_the_input(tmp_path, capsys):
    # mode 20 lies above the 14 modes kept at ny = 128: the projection leaves
    # a constant, whose I_n never move, so only the input shows the loss
    assert run(["flow", "--ny", "128", "--mode", "20", "--method", "hamilton",
                "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "exceeds tol 1e-06" in err
    report = json.loads((tmp_path / "conservation.json").read_text())
    assert report["filter_energy_removed"] > 1e-3
    assert report["conservation"]["I2"]["max_rel_drift"] > 1e-3


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


@pytest.mark.parametrize("ny", [8, 12, 16])
def test_solve_accepts_ends_sampled_off_the_grid(tmp_path, capsys, ny):
    # two mean-1/3 profiles of 97 samples: plain linear resampling gave
    # monodromies 0.33333333 and 0.33333039, and solve exited 1
    ys = np.arange(97) / 97
    for name, vals in (("left", 1 / 3 + 0.06 * np.sin(2 * np.pi * ys)),
                       ("right", 1 / 3 - 0.04 * np.sin(2 * np.pi * ys + 0.7))):
        lines = ["y,value"] + [f"{y},{v}" for y, v in zip(ys, vals)]
        (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
    code = run(["solve", "--nx", str(ny + 1), "--ny", str(ny),
                "--left-csv", str(tmp_path / "left.csv"),
                "--right-csv", str(tmp_path / "right.csv"), "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err


def test_solve_mesh_study_reuses_the_main_solve(tmp_path, monkeypatch):
    # level ny of the study is the main solve's (ny + 1) x ny problem
    ys = np.arange(64) / 64
    left = 1 / 3 + 0.06 * np.sin(2 * np.pi * ys)
    right = 1 / 3 - 0.04 * np.sin(2 * np.pi * ys + 0.7)
    for name, vals in (("left", left), ("right", right)):
        lines = ["y,value"] + [f"{y},{v}" for y, v in zip(ys, vals)]
        (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
    calls = []
    solve = sh.minimize_action
    monkeypatch.setattr(sh, "minimize_action",
                        lambda *a, **k: calls.append(a[0].ny) or solve(*a, **k))
    code = run(["solve", "--T", "0.7", "--nx", "33", "--ny", "32", "--mesh-study",
                "--left-csv", str(tmp_path / "left.csv"),
                "--right-csv", str(tmp_path / "right.csv"), "--out", str(tmp_path)])
    assert code == 0
    assert calls == [32, 64]
    log = json.loads((tmp_path / "solve_log.json").read_text())
    assert log["mesh_study"]["residuals"]["32"] == log["max_el_residual"]
    # the same numbers as a study that solves every level itself
    monkeypatch.setattr(sh, "minimize_action", solve)

    def problem(n):
        return sh.CylinderGrid(0.7, 1.0, n + 1, n), sh.BoundaryData(
            sh.resample_profile(ys, left, n, 1.0), sh.resample_profile(ys, right, n, 1.0))

    fresh = el_mesh_study(tn.hex_tension(), problem, (32, 64), 1e-9)
    assert log["mesh_study"]["residuals"] == {str(k): v for k, v in fresh.items()}


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


def test_flow_burgers_method_writes_the_characteristic_solution(tmp_path):
    code = run(["flow", "--method", "burgers", "--ny", "32", "--horizon", "0.1",
                "--tol", "1e-12", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "conservation.json").read_text())
    assert set(report["conservation"]) == {"I1", "I2", "I3", "I4"}
    assert "filter_modes" not in report and report["drift_tol"] == 1e-12
    assert all(report["conservation"][f"I{n}"]["max_rel_drift"] <= 1e-12 for n in range(1, 5))
    ys = np.arange(32) / 32
    end = fl.burgers_evolve(fl.FlowState(1.0, np.zeros(32), 0.6 + 0.03 * np.sin(2 * np.pi * ys)),
                            fl.hex_density().burgers, 0.1)
    rows = [[float(v) for v in ln.split(",")]
            for ln in (tmp_path / "trajectory.csv").read_text().splitlines()[1:]]
    last = np.array([r for r in rows if r[0] == 0.1])
    assert len(rows) == 9 * 32 and np.array_equal(last[:, 3], end.t)
    assert np.array_equal(last[:, 4] + 1j * last[:, 5], end.l)


@pytest.mark.parametrize("flags, words, expected", [
    ([], ("00", "00"), 8.0),
    (["--eta1", "01", "--eta2", "10"], ("01", "10"), 13.0)])
def test_sixv_cylinder_partition(tmp_path, flags, words, expected):
    assert run(["sixv", "--cylinder", "3,2", *flags, "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "sixv.json").read_text())
    e1, e2 = (sv.BoundaryWord(tuple(map(int, w))) for w in words)
    z = sv.cylinder_partition(3, 2, sv.VertexWeights(1.0, 1.0, 1.0, 0.0, 0.0), e1, e2)
    assert data["cylinder_partition"] == z == expected


def test_sixv_yang_baxter_residual(tmp_path):
    assert run(["sixv", "--regime", "A1", "--u", "0.5", "--gamma", "0.5", "--ybe-v", "0.3",
                "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "sixv.json").read_text())
    assert data["ybe_residual"] == sv.yang_baxter_residual(0.5, 0.3, "A1", 0.5) <= 1e-12


def test_dimer_city_cell_with_defaulted_weights(tmp_path):
    assert run(["dimer", "--cell", "city", "--weights", "1,2,3", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "curve.csv").read_text().strip().splitlines()[1:]
    coeffs = [(int(float(a)), int(float(b)), float(c))
              for a, b, c in (ln.split(",") for ln in lines)]
    curve = dm.characteristic_polynomial(dm.dimer_city_cell(1, 2, 3, 1, 1, 1, 1))
    assert coeffs == [(i, j, c) for (i, j), c in curve.coeffs]


def test_tilted_solve_matches_the_partial_legendre_slope(tmp_path):
    assert run(["solve", "--nx", "17", "--ny", "16", "--V", "-3", "--out", str(tmp_path)]) == 0
    log = json.loads((tmp_path / "solve_log.json").read_text())
    assert log["analytic-match"] is True and log["backtracks"] > 0
