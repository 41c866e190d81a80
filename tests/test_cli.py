"""Command-line surface: artifacts, audit lines, exit codes."""

import numpy as np

from anisostokes.cli import build_parser, main
from anisostokes.fields import read_snapshot


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


SMALL_RUN = """
grid.dim = 1
grid.n = 64
params.gamma = 2.0
params.eps = 0.01
params.delta = 0.3
initial.kind = cosine
initial.amplitude = 0.3
run.t_end = 0.05
run.slab = 0.05
run.dt_max = 0.005
"""


def test_help_documents_config_keys():
    parser = build_parser()
    text = parser.format_help()
    assert "params.gamma" in text
    assert "viscosity.nu" in text
    assert "sweep.deltas" in text


def test_zero_horizon_run_writes_initial_state_only(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "grid.n = 64\nrun.t_end = 0.0\ninitial.kind = cosine\ninitial.amplitude = 0.2\n",
    )
    out = tmp_path / "art"
    code = main(["run", cfg, "--strict", "--out", str(out)])
    assert code == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["diagnostics.csv", "rho_000000.asf", "u0_000000.asf"]
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus the single initial row
    rho, t = read_snapshot(str(out / "rho_000000.asf"))
    assert t == 0.0
    x = rho.grid.meshgrid()[0]
    np.testing.assert_allclose(rho.data, 1.0 + 0.2 * np.cos(x), atol=1e-15)


def test_run_emits_audit_lines_and_snapshots(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_RUN)
    out = tmp_path / "art"
    code = main(["run", cfg, "--strict", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "PASS mass-identity" in captured
    assert "PASS positivity" in captured
    assert "PASS max-principle" in captured  # eta = 0 run
    assert "PASS energy-slack" in captured
    assert "PASS defect-inequality" in captured
    count = sum(1 for p in out.iterdir() if p.name.startswith("rho_"))
    assert count >= 2
    assert (out / "diagnostics.csv").exists()


def test_max_principle_audit_only_for_drag_free_runs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_RUN + "params.eta = 0.02\n")
    code = main(["run", cfg, "--strict", "--out", str(tmp_path / "art")])
    captured = capsys.readouterr().out
    assert code == 0
    assert "max-principle" not in captured


def test_repeat_runs_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_RUN)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(a)]) == 0
    assert main(["run", cfg, "--out", str(b)]) == 0
    assert (a / "diagnostics.csv").read_bytes() == (b / "diagnostics.csv").read_bytes()


def test_strict_exit_code_on_failed_audit(tmp_path, capsys):
    # a negative-definite stress law is invertible but not coercive, so the
    # tensor audit fails deterministically
    cfg = write_cfg(
        tmp_path,
        "grid.dim = 1\ngrid.n = 16\nviscosity.kind = constant\nviscosity.a = -1\n",
    )
    assert main(["check-tensor", cfg]) == 0  # informational without --strict
    assert main(["check-tensor", cfg, "--strict"]) == 1
    captured = capsys.readouterr().out
    assert "FAIL coercivity" in captured


def test_check_tensor_reports_hypotheses(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "grid.dim = 3\ngrid.n = 8\nviscosity.nu = 0.5,0.5,2.0\n")
    code = main(["check-tensor", cfg, "--strict"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "PASS symmetric-stress" in captured
    assert "PASS coercivity" in captured
    assert "PASS symbol-invertible" in captured


def test_out_flag_overrides_config(tmp_path):
    target = tmp_path / "elsewhere"
    cfg = write_cfg(
        tmp_path,
        f"grid.n = 64\nrun.t_end = 0.0\nrun.out = {tmp_path / 'ignored'}\n",
    )
    assert main(["run", cfg, "--out", str(target)]) == 0
    assert target.exists()
    assert not (tmp_path / "ignored").exists()


def test_sweep_delta_writes_table(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        SMALL_RUN.replace("run.t_end = 0.05", "run.t_end = 0.03") + "sweep.deltas = 0.4,0.2\n",
    )
    out = tmp_path / "art"
    code = main(["sweep-delta", cfg, "--out", str(out)])
    assert code == 0
    lines = (out / "sweep_delta.csv").read_text().splitlines()
    assert lines[0] == "delta,gap_to_coarser,dist_to_direct"
    assert len(lines) == 3
    # coarsest row has no predecessor gap
    assert lines[1].split(",")[1] == ""
    assert float(lines[2].split(",")[1]) > 0.0


def test_sweep_eps_writes_table(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        SMALL_RUN.replace("run.t_end = 0.05", "run.t_end = 0.03") + "sweep.eps_levels = 0.1,0.01\n",
    )
    out = tmp_path / "art"
    code = main(["sweep-eps", cfg, "--strict", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "PASS pressure-l2-uniform" in captured
    lines = (out / "sweep_eps.csv").read_text().splitlines()
    assert lines[0] == "level,mass_defect,energy_violation,pressure_l2"
    assert len(lines) == 3


def test_defect_study_writes_ratio_window_grid(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        """
grid.dim = 2
grid.n = 32
params.gamma = 2.0
params.eps = 0.01
params.delta = 0.4
initial.kind = oscillatory
initial.base = bump
initial.amplitude = 0.5
initial.wavelength = 0.7853981633974483
run.t_end = 0.04
run.slab = 0.04
run.dt_max = 0.005
defect.ratios = 1,4
defect.windows = 4,8
""",
    )
    out = tmp_path / "art"
    code = main(["defect-study", cfg, "--strict", "--out", str(out)])
    assert code == 0
    lines = (out / "defect_study.csv").read_text().splitlines()
    assert lines[0] == "ratio,window,lhs,rhs,passed"
    assert len(lines) == 5
    assert all(line.endswith(",true") for line in lines[1:])
