import os
import re
import subprocess
import sys
import tomllib
from dataclasses import fields
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

from dmpfem import io as dio
from dmpfem.cli import main
from dmpfem.io import (ConfigError, RunConfig, parse_config, read_field,
                       write_field, write_log, write_table)
from dmpfem.mesh import P1, Q1, build_structured
from dmpfem.solvers import SolverReport
from dmpfem.stabilization import StabParams
from dmpfem.timeloop import TimeConfig


def test_parse_minimal_config_applies_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("problem = STRAIGHT_DISCONTINUITY\n")
    cfg = parse_config(str(path))
    assert cfg.q == 25.0
    assert cfg.eps == 1e-4
    assert cfg.gamma == 1e-10
    assert cfg.detector == "smooth"
    assert cfg.steady is True


def test_parse_sections_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "[problem]\nproblem = STEADY_PARABOLIC\nnx = 12\n"
        "# a comment\n[solver]\nsolver = anderson\ntol = 1e-8\n")
    cfg = parse_config(str(path))
    assert cfg.problem == "STEADY_PARABOLIC"
    assert cfg.nx == 12
    assert cfg.solver == "anderson"
    assert cfg.tol == 1e-8


def test_parse_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("bogus_key = 3\n")
    with pytest.raises(ConfigError, match="run.cfg:1"):
        parse_config(str(path))


def test_parse_rejects_bad_values():
    # the records that use the other keys check them when the run is built
    # (test_cli_invalid_option_exits_2)
    with pytest.raises(ConfigError, match="valid names"):
        parse_config(overrides={"problem": "NOPE"})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(overrides={"junk": "1"})


def test_run_config_defaults_are_the_records():
    shared = ("q", "eps", "gamma", "detector", "mass", "solver", "projection",
              "tol", "k_max", "m", "s_min", "omega0", "omega_min", "ls_tol")
    declared = {f.name: f.default
                for record in (StabParams, TimeConfig) for f in fields(record)}
    # steady, dt and t_end stay None in RunConfig: resolved per problem
    keys = {f.name for f in fields(RunConfig)} - {"steady", "dt", "t_end"}
    assert keys & set(declared) == set(shared)
    cfg = RunConfig()
    for key in shared:
        assert getattr(cfg, key) == declared[key], key


def test_transient_defaults_resolved():
    cfg = parse_config(overrides={"problem": "THREE_BODY_ROTATION"})
    assert cfg.steady is False
    assert cfg.dt == 1e-3
    assert cfg.t_end == 10 * cfg.dt


def test_sigma_scalings():
    cfg = parse_config(overrides={"problem": "STRAIGHT_DISCONTINUITY",
                                  "sigma_scaling": "beta_eps",
                                  "sigma_factor": "1e-5", "eps": "1e-1"})
    assert cfg.sigma(1.0, 0.02, (0, 1, 0, 1)) == pytest.approx(1e-6)
    cfg.sigma_scaling = "beta_h4"
    assert cfg.sigma(1.0, 0.5, (0, 1, 0, 1)) == pytest.approx(1e-5 * 0.5 ** 4)
    cfg.sigma_scaling = "beta_eps2"
    assert cfg.sigma(1.0, 0.02, (0, 1, 0, 1)) == pytest.approx(1e-7)
    cfg.sigma_scaling = "beta2_l2"
    assert cfg.sigma(2.0, 0.5, (0, 1, 0, 1)) == pytest.approx(1e-5 * 4 * 2)
    cfg.sigma_scaling = "absolute"
    assert cfg.sigma(2.0, 0.5, (0, 1, 0, 1)) == pytest.approx(1e-5)


def test_write_table_header_and_blanks(tmp_path):
    path = tmp_path / "table.csv"
    write_table([], str(path))
    assert path.read_text() == dio.TABLE_HEADER + "\n"

    rows = [{"q": 1.0, "eps": 0.0, "iters_A": 56, "iters_Ap": 47,
             "L1": 2.59e-2, "L1_out": 5.1e-2, "L2": 8.37e-2, "L2_out": 0.117}]
    write_table(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == dio.TABLE_HEADER
    cells = lines[1].split(",")
    assert cells[2] == "56"
    assert cells[4] == "" and cells[5] == ""   # Newton columns blank
    assert float(cells[6]) == 2.59e-2


def test_write_log_columns(tmp_path):
    rep = SolverReport(iterations=2, converged=True,
                       nlerr_history=[0.5, 1e-7],
                       dmp_violation_history=[(0.1, 0.0), (0.0, 0.0)],
                       omega_or_xi_history=[1.0, 0.9])
    path = tmp_path / "log.csv"
    write_log(rep, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == dio.LOG_HEADER
    assert lines[1].split(",") == ["1", "0.5", "0.1", "0.0", "1.0"]
    assert len(lines) == 3


def test_vtk_round_trip(tmp_path):
    mesh = build_structured(2, 2)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(9)
    path = tmp_path / "field.vtk"
    write_field(mesh, u, str(path))
    text = path.read_text()
    assert "STRUCTURED_GRID" in text
    assert "POINTS 9 double" in text
    assert "SCALARS u double 1" in text
    coords, values, kind = read_field(str(path))
    assert len(values) == 9
    assert np.array_equal(values, u)          # full-precision round trip
    assert np.array_equal(coords, mesh.coords)
    assert kind == Q1


def test_vtk_round_trip_of_a_structured_p1_field(tmp_path):
    # a structured P1 field carries its triangles, so it reads back as P1
    mesh = build_structured(3, 2, kind=P1)
    u = np.random.default_rng(1).standard_normal(mesh.n_nodes)
    path = tmp_path / "field.vtk"
    write_field(mesh, u, str(path))
    text = path.read_text()
    assert "DATASET UNSTRUCTURED_GRID\n" in text and "DIMENSIONS" not in text
    cells = text.split("CELLS 12 48\n")[1].splitlines()[:12]
    assert [list(map(int, c.split())) for c in cells] == \
        [[3] + e for e in mesh.elements.tolist()]
    assert text.split("CELL_TYPES 12\n")[1].splitlines()[:12] == ["5"] * 12
    coords, values, kind = read_field(str(path))
    assert np.array_equal(values, u)
    assert np.array_equal(coords, mesh.coords)
    assert kind == P1


def test_vtk_unstructured_for_patches(tmp_path):
    from test_mesh import hex_fan
    mesh = hex_fan()
    path = tmp_path / "fan.vtk"
    write_field(mesh, np.arange(7, dtype=float), str(path))
    text = path.read_text()
    assert "UNSTRUCTURED_GRID" in text
    assert "CELLS 6" in text
    _, values, kind = read_field(str(path))
    assert np.array_equal(values, np.arange(7.0))
    assert kind == P1


def former_write_field(mesh, u, path, t=None):
    """``write_field`` as it was: one ``_fmt`` and one write per number."""
    fmt = dio._fmt
    u = np.asarray(u, dtype=float)
    title = "dmpfem field" if t is None else f"dmpfem field t={fmt(float(t))}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(title + "\n")
        fh.write("ASCII\n")
        if mesh.structured_shape is not None:
            nx, ny = mesh.structured_shape
            fh.write("DATASET STRUCTURED_GRID\n")
            fh.write(f"DIMENSIONS {nx + 1} {ny + 1} 1\n")
        else:
            fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_nodes} double\n")
        for x, y in mesh.coords:
            fh.write(f"{fmt(x)} {fmt(y)} 0.0\n")
        if mesh.structured_shape is None:
            nloc = mesh.elements.shape[1]
            cell_type = 9 if nloc == 4 else 5
            fh.write(f"CELLS {mesh.n_elements} {mesh.n_elements * (nloc + 1)}\n")
            for conn in mesh.elements:
                fh.write(" ".join([str(nloc)] + [str(int(c)) for c in conn]) + "\n")
            fh.write(f"CELL_TYPES {mesh.n_elements}\n")
            for _ in range(mesh.n_elements):
                fh.write(f"{cell_type}\n")
        fh.write(f"POINT_DATA {mesh.n_nodes}\n")
        fh.write("SCALARS u double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        for v in u:
            fh.write(fmt(v) + "\n")


@pytest.mark.parametrize("kind", ["Q1", "P1"])
def test_write_field_bytes_match_the_former_writer(tmp_path, kind):
    from meshes import jittered_p1
    rng = np.random.default_rng(4)
    # more nodes and cells than the writer formats per write
    if kind == "Q1":
        mesh, t = build_structured(40, 30), None
        u = rng.standard_normal(mesh.n_nodes)
    else:
        mesh, t = jittered_p1(33, 2), 0.30000000000000004
        u = rng.standard_normal(mesh.n_nodes)
        u[:6] = [np.nan, -0.0, 0.0, 5e-324, 1e300, -np.inf]
    new, old = tmp_path / "new.vtk", tmp_path / "old.vtk"
    write_field(mesh, u, str(new), t)
    former_write_field(mesh, u, str(old), t)
    assert new.read_bytes() == old.read_bytes()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def run_cli(args, tmp_path, monkeypatch):
    monkeypatch.setenv("DMPFEM_OUT", str(tmp_path / "out"))
    return main(args)


def test_cli_run_parabolic(tmp_path, monkeypatch, capsys):
    code = run_cli(["run", "--problem", "STEADY_PARABOLIC", "--nx", "12",
                    "--ny", "12", "--q", "4", "--eps", "1e-7",
                    "--sigma_scaling", "beta_h4", "--sigma_factor", "1e-8"],
                   tmp_path, monkeypatch)
    assert code == 0
    out = tmp_path / "out"
    assert (out / "field.vtk").exists()
    assert (out / "log.csv").exists()
    captured = capsys.readouterr().out
    assert "errors:" in captured
    # a steady run prints its one solve's count
    assert re.search(r"^iterations: \d+$", captured, re.MULTILINE)


def test_cli_transient_run_prints_each_step_iterations(tmp_path, monkeypatch,
                                                        capsys):
    code = run_cli(["run", "--problem", "THREE_BODY_ROTATION", "--nx", "12",
                    "--ny", "12", "--projection", "false", "--t_end", "3e-3"],
                   tmp_path, monkeypatch)
    assert code == 0
    match = re.search(r"^iterations: (\d+) \((\d+(?:,\d+)*)\)$",
                      capsys.readouterr().out, re.MULTILINE)
    steps = [int(k) for k in match.group(2).split(",")]
    assert len(steps) == 3
    assert int(match.group(1)) == sum(steps)


def test_cli_unknown_problem_exits_2(tmp_path, monkeypatch, capsys):
    code = run_cli(["run", "--problem", "NOPE"], tmp_path, monkeypatch)
    assert code == 2
    assert "valid names" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["run", "--q", "-1"], "q must be positive"),
    (["run", "--eps", "0", "--gamma", "0"],
     "smooth detectors need eps > 0 or gamma > 0"),
    (["run", "--problem", "THREE_BODY_ROTATION", "--dt", "1e-2",
      "--t_end", "1e-3"], "t_end must be at least dt"),
    (["run", "--problem", "THREE_BODY_ROTATION", "--dt", "1e-3",
      "--t_end", "2.5e-3"], "t_end must be a whole number of steps of dt"),
    (["run", "--problem", "THREE_BODY_ROTATION", "--t_end", "inf"],
     "t_end must be at least dt, and finite"),
    (["run", "--solver", "newton", "--detector", "nonsmooth"],
     "the exact Jacobian needs a smooth detector variant"),
    (["run", "--problem", "STEADY_PARABOLIC", "--steady", "false"],
     "a transient run needs the problem's initial data"),
    (["table", "--qs", "-1", "--epss", "1e-2"], "q must be positive"),
    (["table", "--problem", "THREE_BODY_ROTATION", "--qs", "1",
      "--epss", "1e-1"], "table sweeps steady solves"),
    (["converge", "--problem", "STEADY_PARABOLIC", "--sizes", "0,4"],
     "nx and ny must be >= 1"),
], ids=["run-q", "run-eps-gamma", "run-t_end", "run-t_end-steps",
        "run-t_end-inf", "run-newton-nonsmooth",
        "run-steady-problem-transient", "table-qs", "table-transient",
        "converge-sizes"])
def test_cli_invalid_option_exits_2(args, message, tmp_path, monkeypatch,
                                    capsys):
    """An invalid option exits 2 with the message of the check that owns
    it, also where that check runs only when the run is built or used, and
    before the output directory is created."""
    code = run_cli(args + ["--nx", "8", "--ny", "8"], tmp_path, monkeypatch)
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert message in err
    assert not (tmp_path / "out").exists()


def test_cli_help_lists_every_config_key(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "-h"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "--nx" in out and "--sigma_scaling" in out
    for f in fields(RunConfig):
        assert f"--{f.name}" in out
    assert "default: 48" in out and "default: beta" in out


def test_cli_entry_point_as_a_shell_runs_it(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, DMPFEM_OUT=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "dmpfem.cli", "run", "--q", "-1",
         "--nx", "4", "--ny", "4"], env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "configuration error: q must be positive" in proc.stderr
    # the installed `dmpfem` script is the same main
    pyproject = tomllib.loads((root / "pyproject.toml").read_text())
    target = pyproject["project"]["scripts"]["dmpfem"]
    module, _, name = target.partition(":")
    assert getattr(import_module(module), name) is main


def test_cli_converge(tmp_path, monkeypatch, capsys):
    code = run_cli(["converge", "--problem", "STEADY_PARABOLIC",
                    "--sizes", "8,16", "--q", "4", "--eps", "1e-7",
                    "--detector", "galerkin"], tmp_path, monkeypatch)
    assert code == 0
    lines = (tmp_path / "out" / "converge.csv").read_text().splitlines()
    assert lines[0] == "h,L2,EOC"
    assert len(lines) == 3
    order = float(lines[2].split(",")[2])
    assert order == pytest.approx(2.0, abs=0.1)


def test_cli_nonconvergence_exits_3(tmp_path, monkeypatch, capsys):
    code = run_cli(["converge", "--problem", "STEADY_PARABOLIC",
                    "--sizes", "4,8", "--k_max", "1", "--tol", "1e-14"],
                   tmp_path, monkeypatch)
    assert code == 3
    assert "n=4" in capsys.readouterr().err
    # a transient run stops at the first unconverged step, writing nothing
    code = run_cli(["run", "--problem", "THREE_BODY_ROTATION", "--nx", "6",
                    "--ny", "6", "--k_max", "1", "--tol", "1e-14"],
                   tmp_path, monkeypatch)
    assert code == 3
    assert "step 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "field.vtk").exists()


def test_cli_table_small_grid(tmp_path, monkeypatch):
    code = run_cli(["table", "--problem", "STRAIGHT_DISCONTINUITY",
                    "--nx", "12", "--ny", "12", "--qs", "1,4",
                    "--epss", "1e-1", "--k_max", "300"],
                   tmp_path, monkeypatch)
    assert code == 0
    lines = (tmp_path / "out" / "table.csv").read_text().splitlines()
    assert lines[0] == dio.TABLE_HEADER
    assert len(lines) == 3          # 2 q-values x 1 eps
    for line in lines[1:]:
        cells = line.split(",")
        assert all(cells[2:6])      # all four solver columns ran
        assert float(cells[6]) > 0


def test_cli_table_builds_one_mesh(tmp_path, monkeypatch):
    from dmpfem import cli
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_structured(*args, **kwargs)

    monkeypatch.setattr(cli, "build_structured", counting)
    code = run_cli(["table", "--problem", "STRAIGHT_DISCONTINUITY",
                    "--nx", "8", "--ny", "8", "--qs", "1,4",
                    "--epss", "1e-1", "--k_max", "300"],
                   tmp_path, monkeypatch)
    assert code == 0
    assert calls == [(8, 8)]        # 2 q-values x 1 eps x 4 solver columns


def test_the_config_path_to_a_solve_is_written_once():
    # every command parses its config in main, and run_steady and
    # step_backward_euler build their system in one set-up
    src = Path(__file__).resolve().parent.parent / "src" / "dmpfem"
    assert (src / "cli.py").read_text().count("parse_config(") == 1
    assert (src / "timeloop.py").read_text().count("ResidualSystem(") == 1


def test_cli_table_eps0_rows(tmp_path, monkeypatch):
    code = run_cli(["table", "--problem", "STRAIGHT_DISCONTINUITY",
                    "--nx", "8", "--ny", "8", "--qs", "1",
                    "--epss", "1e-1", "--include-eps0", "--k_max", "300"],
                   tmp_path, monkeypatch)
    assert code == 0
    lines = (tmp_path / "out" / "table.csv").read_text().splitlines()
    assert len(lines) == 3
    eps0 = lines[2].split(",")
    assert float(eps0[1]) == 0.0
    assert eps0[2] and eps0[3]       # Anderson columns present
    assert eps0[4] == "" and eps0[5] == ""


def test_cli_audit(tmp_path, monkeypatch, capsys):
    code = run_cli(["run", "--problem", "STEADY_PARABOLIC", "--nx", "8",
                    "--ny", "8", "--q", "4"], tmp_path, monkeypatch)
    assert code == 0
    field = tmp_path / "out" / "field.vtk"
    code = run_cli(["audit", str(field), "--problem", "STEADY_PARABOLIC",
                    "--nx", "8", "--ny", "8"], tmp_path, monkeypatch)
    assert code == 0
    # mismatched mesh size is a config error
    code = run_cli(["audit", str(field), "--problem", "STEADY_PARABOLIC",
                    "--nx", "12", "--ny", "12"], tmp_path, monkeypatch)
    assert code == 2
    # a Q1 field audited as P1 (same node count) is refused
    code = run_cli(["audit", str(field), "--problem", "STEADY_PARABOLIC",
                    "--nx", "8", "--ny", "8", "--element", "p1"], tmp_path,
                   monkeypatch)
    assert code == 2
    assert "field holds q1 elements" in capsys.readouterr().err


def test_cli_audit_refuses_a_p1_field_audited_as_q1(tmp_path, monkeypatch,
                                                     capsys):
    # the field records its triangles; auditing it against Q1 adjacency,
    # the default --element, would check other neighborhoods without a word
    field = tmp_path / "field.vtk"
    write_field(build_structured(8, 8, kind=P1), np.zeros(81), str(field))
    code = run_cli(["audit", str(field), "--problem", "STRAIGHT_DISCONTINUITY",
                    "--nx", "8", "--ny", "8"], tmp_path, monkeypatch)
    assert code == 2
    assert "field holds p1 elements but --element is q1" in \
        capsys.readouterr().err
    code = run_cli(["audit", str(field), "--problem", "STRAIGHT_DISCONTINUITY",
                    "--nx", "8", "--ny", "8", "--element", "p1"], tmp_path,
                   monkeypatch)
    assert code == 0


def test_cli_determinism(tmp_path, monkeypatch):
    args = ["run", "--problem", "STEADY_PARABOLIC", "--nx", "10", "--ny", "10",
            "--q", "4", "--eps", "1e-7"]
    monkeypatch.setenv("DMPFEM_OUT", str(tmp_path / "a"))
    assert main(args) == 0
    monkeypatch.setenv("DMPFEM_OUT", str(tmp_path / "b"))
    assert main(args) == 0
    for name in ("field.vtk", "log.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b
