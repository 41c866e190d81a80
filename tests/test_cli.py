"""Command-line surface: artifacts, audit lines, exit codes."""

import contextlib
import hashlib
import io
import json
import logging
import multiprocessing
import os
import re
import subprocess
import sys
import time
import tracemalloc
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from anisostokes import cli, config, diagnostics, marching, transport
from anisostokes.cli import build_parser, main
from anisostokes.config import KEYS, ParseError, default_of, parse_config
from anisostokes.fields import GridSpec, NonFiniteField, ScalarField, read_snapshot, write_snapshot
from anisostokes.marching import NoContraction, SlabCollapse, SubstepOverflow
from anisostokes.stokes import KrylovNoConvergence, NotCoercive, SingularSymbol
from anisostokes.transport import NegativeInput, NewtonFail
from keepall import kept


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


def _shown(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _parsed(cfg, key):
    """What ``key``'s value became in ``cfg``: its field, or the input it builds."""
    if key.startswith("initial."):
        return cfg.rho0.data.tobytes()
    if key.startswith("forcing."):
        return cfg.forcing
    return attrgetter(KEYS[key].field)(cfg)


def test_help_lists_each_key_once_with_its_parsed_default(tmp_path):
    listed = re.findall(r"^  (\S+) +default: (.*)$", build_parser().format_help(), re.M)
    keys = [key for key, _shown_default in listed]
    assert sorted(keys) == sorted(KEYS)
    assert len(set(keys)) == len(keys)
    shown = dict(listed)
    cfg = parse_config(write_cfg(tmp_path, ""))
    for key, spec in KEYS.items():
        if spec.note:  # a default that depends on the grid, or has no config syntax
            assert shown[key] == f"({spec.note})", key
        elif key not in ("grid.dim", "viscosity.kind"):  # both checked below
            built = key.startswith(("initial.", "forcing."))
            value = default_of(key) if built else attrgetter(spec.field)(cfg)
            assert shown[key] == _shown(value), key
            # the shown default is a config value that parses to the same run
            again = parse_config(write_cfg(tmp_path, f"{key} = {shown[key]}\n", name="again.cfg"))
            assert _parsed(again, key) == _parsed(cfg, key), key
    assert cfg.forcing is None and (cfg.rho0.min(), cfg.rho0.max()) == (1.0, 1.0)
    assert shown["grid.dim"] == str(cfg.grid.dim)
    assert str(cfg.grid.n[0]) in shown["grid.n"]
    assert shown["viscosity.kind"] == "diag" and cfg.tensor.nu == (1.0,)
    assert "1.0 per axis" in shown["viscosity.nu"]


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


RUN_TREE_GOLDEN = Path(__file__).resolve().parent / "data" / "run_tree_golden.json"

# two slabs stored every other substep, drag-free so the max-principle audit
# runs, with the commutator column filled in
PINNED_RUN = """
grid.dim = 2
grid.n = 16
params.gamma = 2.0
params.eps = 0.01
params.delta = 0.8
params.eta = 0.0
viscosity.nu = 1,2
initial.kind = oscillatory
initial.base = cosine
initial.amplitude = 0.3
initial.wavelength = 1.5707963267948966
run.t_end = 0.04
run.slab = 0.02
run.dt_max = 0.005
run.store_every = 2
diagnostics.window = 4
diagnostics.commutator_delta = 0.8
"""


def run_tree(tmp_path):
    """Exit code, sha256 of every file and stdout lines of ``run`` on PINNED_RUN."""
    out = tmp_path / "pinned"
    cfg = write_cfg(tmp_path, PINNED_RUN, "pinned.cfg")
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main(["run", cfg, "--strict", "--out", str(out)])
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    lines = stdout.getvalue().replace(str(out), "OUT").splitlines()
    return {"code": code, "files": files, "stdout": lines}


def test_run_writes_the_pinned_bytes(tmp_path):
    # bit-for-bit, like the defect-study golden: regenerate only for an
    # intended numerics change
    got = run_tree(tmp_path)
    golden = json.loads(RUN_TREE_GOLDEN.read_text())
    assert got["code"] == 0 and "PASS max-principle" in "\n".join(got["stdout"])
    assert sorted(got["files"]) == sorted(golden["files"])
    assert got == golden


def counted_everywhere(monkeypatch, original):
    """Count the calls of ``original`` through every binding in the package."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("anisostokes"):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_run_takes_each_audit_input_once_per_stored_state(tmp_path, monkeypatch):
    # the CSV row and the energy, maximum-principle and defect audits all
    # read int rho^gamma and the defect proxy of a state from its one row,
    # and the row raises rho to gamma once for both
    integrals = counted_everywhere(monkeypatch, transport.pressure_integral)
    single = counted_everywhere(monkeypatch, diagnostics.defect_proxy)
    powers, proxies = [], []
    pressure_field, defect_proxies = diagnostics.pressure_field, diagnostics.defect_proxies

    def kept_power(rho, gamma):
        powers.append(pressure_field(rho, gamma))
        return powers[-1]

    def given_power(rho, gamma, dps, power=None):
        proxies.append(power is powers[-1].data)
        return defect_proxies(rho, gamma, dps, power)

    monkeypatch.setattr(diagnostics, "pressure_field", kept_power)
    monkeypatch.setattr(diagnostics, "defect_proxies", given_power)
    out = tmp_path / "art"
    assert main(["run", write_cfg(tmp_path, SMALL_RUN), "--strict", "--out", str(out)]) == 0
    stored = len((out / "diagnostics.csv").read_text().splitlines()) - 1
    assert stored == 11
    assert (len(integrals), len(single)) == (0, 0)
    assert len(powers) == stored
    assert proxies == [True] * stored


def test_solver_failure_in_a_run_keeps_the_snapshots_stored_before_it(tmp_path, capsys,
                                                                      monkeypatch):
    cfg = write_cfg(tmp_path, SMALL_RUN)
    whole = tmp_path / "whole"
    assert main(["run", cfg, "--out", str(whole)]) == 0
    capsys.readouterr()
    march = cli.march

    def failing_after_two_states(*args, observe, **kwargs):
        seen = []

        def observe_then_fail(*state):
            observe(*state)
            seen.append(state)
            if len(seen) == 2:
                raise NewtonFail("drag solve stalled")

        return march(*args, observe=observe_then_fail, **kwargs)

    monkeypatch.setattr(cli, "march", failing_after_two_states)
    out = tmp_path / "art"
    assert main(["run", cfg, "--out", str(out)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("FAIL solver: NewtonFail: drag solve stalled")
    written = sorted(p.name for p in out.iterdir())
    assert written == ["rho_000000.asf", "rho_000001.asf", "u0_000000.asf", "u0_000001.asf"]
    for name in written:
        assert (out / name).read_bytes() == (whole / name).read_bytes()


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
        SMALL_RUN.replace("run.t_end = 0.05", "run.t_end = 0.03") + "sweep.deltas = 0.4,0.2,0.1\n",
    )
    out = tmp_path / "art"
    code = main(["sweep-delta", cfg, "--out", str(out)])
    assert code == 0
    lines = (out / "sweep_delta.csv").read_text().splitlines()
    assert lines[0] == "delta,gap_to_coarser,dist_to_direct"
    assert len(lines) == 4
    # coarsest row has no predecessor gap
    assert lines[1].split(",")[1] == ""
    assert all(float(line.split(",")[1]) > 0.0 for line in lines[2:])


def test_sweep_delta_with_no_time_to_march_contracts_trivially(tmp_path, capsys):
    # every level ends on the initial density, so every gap is zero
    cfg = write_cfg(tmp_path, "grid.dim = 1\ngrid.n = 16\nrun.t_end = 0.0\n")
    assert main(["sweep-delta", cfg, "--strict", "--out", str(tmp_path / "art")]) == 0
    out, err = capsys.readouterr()
    assert "PASS delta-contraction: successive gap ratios 0.000, 0.000\n" in out
    assert err == ""


def test_a_gap_after_a_zero_gap_fails_delta_contraction(tmp_path, capsys, monkeypatch):
    # levels 0.4 and 0.2 end on one density, 0.1 and 0.05 on another
    march = cli.march

    def two_finals(tensor, rho0, f, params, *args, observe, **kwargs):
        level = 1.0 if params.delta >= 0.2 else 2.0

        def constant(t, rho, velocity, ledger):
            observe(t, ScalarField.constant(rho.grid, level), velocity, ledger)

        return march(tensor, rho0, f, params, *args, observe=constant, **kwargs)

    monkeypatch.setattr(cli, "march", two_finals)
    cfg = write_cfg(tmp_path, "grid.dim = 1\ngrid.n = 16\nrun.t_end = 0.0\n")
    assert main(["sweep-delta", cfg, "--out", str(tmp_path / "art")]) == 0
    assert "FAIL delta-contraction: successive gap ratios inf, 0.000\n" in capsys.readouterr().out


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


DEFECT_STUDY = """
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
"""


def test_defect_study_writes_ratio_window_grid(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DEFECT_STUDY)
    out = tmp_path / "art"
    code = main(["defect-study", cfg, "--strict", "--out", str(out)])
    assert code == 0
    lines = (out / "defect_study.csv").read_text().splitlines()
    assert lines[0] == "ratio,window,lhs,rhs,passed"
    assert len(lines) == 5
    assert all(line.endswith(",true") for line in lines[1:])


# three ratios: the first marches in the calling process, the other two in
# forked workers when two CPUs are available (on Python before 3.12)
THREE_RATIOS = DEFECT_STUDY.replace("defect.ratios = 1,4", "defect.ratios = 1,4,16")


def affinity(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)))


def logged_marches(monkeypatch, log):
    """Append the last viscosity, the pid and the live child count of every
    ``march`` call of a study to ``log``, in whichever process it runs."""
    march = cli.march

    def logged(tensor, *args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{tensor.nu[-1]} {os.getpid()} {len(multiprocessing.active_children())}\n")
        return march(tensor, *args, **kwargs)

    monkeypatch.setattr(cli, "march", logged)


def test_defect_study_marches_its_first_ratio_here_before_it_forks(tmp_path, monkeypatch):
    # the benchmark's set-up probe stops the clock at the first march call
    # by ending the process, so nothing may have forked by then
    affinity(monkeypatch, 2)
    log = tmp_path / "marches.txt"
    logged_marches(monkeypatch, log)
    cfg = write_cfg(tmp_path, THREE_RATIOS)
    assert main(["defect-study", cfg, "--strict", "--out", str(tmp_path / "art")]) == 0
    first, *rest = (line.split() for line in log.read_text().splitlines())
    assert first == ["1.0", str(os.getpid()), "0"]
    assert sorted(nu for nu, _pid, _children in rest) == ["16.0", "4.0"]
    forked = [pid != str(os.getpid()) for _nu, pid, _children in rest]
    assert forked == [not cli._FORK_WARNS] * 2
    assert multiprocessing.active_children() == []


def test_defect_study_workers_start_during_the_first_march(tmp_path, monkeypatch):
    # they are forked at the first ratio's first stored state, so all three
    # marches run together
    affinity(monkeypatch, 2)
    march = cli.march
    alive = []

    def counted(tensor, *args, **kwargs):
        traj = march(tensor, *args, **kwargs)
        if tensor.nu[-1] == 1.0:
            alive.append(len(multiprocessing.active_children()))
        return traj

    monkeypatch.setattr(cli, "march", counted)
    cfg = write_cfg(tmp_path, THREE_RATIOS)
    assert main(["defect-study", cfg, "--strict", "--out", str(tmp_path / "art")]) == 0
    assert len(alive) == 1 and (alive[0] >= 1) is not cli._FORK_WARNS
    assert multiprocessing.active_children() == []


def test_a_late_failure_of_the_first_march_prints_the_serial_line(tmp_path, capsys,
                                                                   monkeypatch):
    march = cli.march
    alive = []

    def fail_late(tensor, *args, observe, **kwargs):
        if tensor.nu[-1] != 1.0:
            return march(tensor, *args, observe=observe, **kwargs)
        seen = []

        def observe_then_fail(*state):
            observe(*state)
            seen.append(state)
            if len(seen) == 3:
                alive.append(len(multiprocessing.active_children()))
                raise NewtonFail("drag solve did not converge")

        return march(tensor, *args, observe=observe_then_fail, **kwargs)

    monkeypatch.setattr(cli, "march", fail_late)
    cfg = write_cfg(tmp_path, THREE_RATIOS)
    runs = []
    for cpus in (1, 2):
        affinity(monkeypatch, cpus)
        code = main(["defect-study", cfg, "--strict", "--out", str(tmp_path / "art")])
        runs.append((code, capsys.readouterr().out))
        assert multiprocessing.active_children() == []
    assert runs[0] == runs[1] == (
        3, "FAIL solver: NewtonFail: drag solve did not converge on slab [0.0, 0.04]\n"
    )
    assert alive[0] == 0 and (alive[1] >= 1) is not cli._FORK_WARNS
    assert not (tmp_path / "art").exists()


def test_a_failure_of_the_first_march_stops_the_workers_at_once(tmp_path, capsys, monkeypatch):
    # each worker's march would first sleep for a minute; the first ratio
    # fails at its second stored state, after the workers have started
    affinity(monkeypatch, 2)
    march = cli.march

    def sleep_or_fail(tensor, *args, observe, **kwargs):
        if tensor.nu[-1] != 1.0:
            time.sleep(60.0)
            return march(tensor, *args, observe=observe, **kwargs)
        seen = []

        def observe_then_fail(*state):
            observe(*state)
            seen.append(state)
            if len(seen) == 2:
                raise NewtonFail("drag solve did not converge")

        return march(tensor, *args, observe=observe_then_fail, **kwargs)

    monkeypatch.setattr(cli, "march", sleep_or_fail)
    cfg = write_cfg(tmp_path, THREE_RATIOS)
    began = time.perf_counter()
    code = main(["defect-study", cfg, "--strict", "--out", str(tmp_path / "art")])
    assert time.perf_counter() - began < 20.0
    assert (code, capsys.readouterr().out) == (
        3, "FAIL solver: NewtonFail: drag solve did not converge on slab [0.0, 0.04]\n"
    )
    assert multiprocessing.active_children() == []


def test_defect_study_stays_serial_where_forking_warns(tmp_path, monkeypatch):
    # Python 3.12 warns on forking a process with threads running
    affinity(monkeypatch, 2)
    monkeypatch.setattr(cli, "_FORK_WARNS", True)
    log = tmp_path / "marches.txt"
    logged_marches(monkeypatch, log)
    cfg = write_cfg(tmp_path, THREE_RATIOS)
    assert main(["defect-study", cfg, "--strict", "--out", str(tmp_path / "art")]) == 0
    marches = [line.split() for line in log.read_text().splitlines()]
    assert marches == [[nu, str(os.getpid()), "0"] for nu in ("1.0", "4.0", "16.0")]
    assert multiprocessing.active_children() == []


def test_defect_study_writes_the_same_bytes_serial_and_forked(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, THREE_RATIOS)
    runs = []
    for cpus in (1, 2):
        log = tmp_path / f"marches{cpus}.txt"
        with monkeypatch.context() as patch:
            affinity(patch, cpus)
            logged_marches(patch, log)
            out = tmp_path / f"art{cpus}"
            assert main(["defect-study", cfg, "--strict", "--out", str(out)]) == 0
        assert multiprocessing.active_children() == []
        pids = {line.split()[1] for line in log.read_text().splitlines()}
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        runs.append((files, capsys.readouterr().out.replace(str(out), "OUT"), len(pids)))
    serial, forked = runs
    assert serial[:2] == forked[:2]
    assert len(serial[0]["defect_study.csv"].splitlines()) == 7
    assert serial[2] == 1 and (forked[2] > 1) is not cli._FORK_WARNS


@pytest.mark.parametrize("error", [
    NewtonFail("drag solve did not converge"),
    KrylovNoConvergence(40, 1e-3, 1e-9),
    ParseError(9, "forcing.path: cannot read gone.asf"),
], ids=lambda error: type(error).__name__)
def test_a_failure_in_a_worker_prints_the_serial_line(tmp_path, capsys, monkeypatch, error):
    march = cli.march

    def fail_last(tensor, *args, **kwargs):
        if tensor.nu[-1] == 16.0:
            raise error
        return march(tensor, *args, **kwargs)

    monkeypatch.setattr(cli, "march", fail_last)
    cfg = write_cfg(tmp_path, THREE_RATIOS)
    runs = []
    for cpus in (1, 2):
        affinity(monkeypatch, cpus)
        code = main(["defect-study", cfg, "--strict", "--out", str(tmp_path / "art")])
        runs.append((code, capsys.readouterr().out))
        assert multiprocessing.active_children() == []
    assert runs[0] == runs[1]
    if isinstance(error, ParseError):
        assert runs[0] == (2, f"FAIL config: {cfg}: {error}\n")
    else:
        assert runs[0] == (3, f"FAIL solver: {type(error).__name__}: {error}\n")
    assert not (tmp_path / "art").exists()


def test_defect_study_raises_each_state_to_gamma_once_for_all_windows(tmp_path, monkeypatch):
    # the observer takes every window's proxy of a state in one call
    whole = counted_everywhere(monkeypatch, diagnostics.defect_proxies)
    single = counted_everywhere(monkeypatch, diagnostics.defect_proxy)
    march = cli.march
    states = []

    def counting(*args, observe, **kwargs):
        def counted(*state):
            states.append(None)
            observe(*state)

        return march(*args, observe=counted, **kwargs)

    monkeypatch.setattr(cli, "march", counting)
    cfg = write_cfg(tmp_path, DEFECT_STUDY)  # two ratios: both march here
    assert main(["defect-study", cfg, "--strict", "--out", str(tmp_path / "art")]) == 0
    assert len(states) >= 4
    assert (len(whole), len(single)) == (len(states), 0)


def test_unknown_key_fails_the_config_with_exit_code_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "grid.n = 16\nparams.gama = 2\n")
    assert main(["run", cfg, "--out", str(tmp_path / "art")]) == 2
    captured = capsys.readouterr().out
    assert captured == f"FAIL config: {cfg}: line 2: unknown key 'params.gama'\n"
    assert not (tmp_path / "art").exists()


def test_a_config_that_is_not_utf8_fails_the_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"grid.n = 16\n# caf\xe9\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "art")]) == 2
    assert capsys.readouterr() == (f"FAIL config: {cfg}: line 2: not UTF-8: byte 0xe9\n", "")
    assert not (tmp_path / "art").exists()


def test_unreadable_forcing_snapshot_fails_the_config(tmp_path, capsys):
    # the snapshot is read while the config is parsed, before any output
    cfg = write_cfg(tmp_path, SMALL_RUN + "forcing.kind = file\nforcing.path = gone.asf\n")
    assert main(["run", cfg, "--out", str(tmp_path / "art")]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"FAIL config: {cfg}: line 13: forcing.path: cannot read ")
    assert not (tmp_path / "art").exists()


SHORT_RUN = "grid.n = 32\nrun.t_end = 0.01\nrun.slab = 0.01\nsweep.eps_levels = 0.1,0.01\n"


@pytest.mark.parametrize("command", ["sweep-delta", "sweep-eps", "check-tensor"])
def test_every_command_reads_the_forcing_snapshot_once(tmp_path, monkeypatch, command):
    write_snapshot(str(tmp_path / "f.asf"), ScalarField.constant(GridSpec(1, 32), 0.5), 0.0)
    reads = []
    read = config.read_snapshot

    def counted(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(config, "read_snapshot", counted)
    cfg = write_cfg(tmp_path, SHORT_RUN + "forcing.kind = file\nforcing.path = f.asf\n")
    assert main([command, cfg, "--out", str(tmp_path / "art")]) == 0
    assert reads == [str(tmp_path / "f.asf")]


def test_a_clipped_initial_density_is_logged_once_per_command(tmp_path, caplog):
    cfg = write_cfg(tmp_path, SHORT_RUN + "initial.kind = cosine\ninitial.amplitude = 1.5\n")
    with caplog.at_level("INFO", logger="anisostokes"):
        assert main(["sweep-eps", cfg, "--out", str(tmp_path / "art")]) == 0
    clipped = [rec.message for rec in caplog.records if "clipped" in rec.message]
    assert clipped == ["initial data clipped 9 negative cells to zero"]


@pytest.mark.parametrize("command", ["run", "sweep-eps"])
def test_initial_data_that_overflows_fails_the_config(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, (
        "grid.dim = 1\ngrid.n = 16\ninitial.kind = cosine\n"
        "initial.value = 1e308\ninitial.amplitude = 1e308\n"
    ))
    assert main([command, cfg, "--out", str(tmp_path / "art")]) == 2
    assert capsys.readouterr() == (
        f"FAIL config: {cfg}: line 3: initial.kind: cosine initial data: "
        "overflow encountered in add\n",
        "",
    )
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("command", ["run", "sweep-eps"])
def test_an_initial_density_with_zero_mass_fails_the_config(tmp_path, capsys, command):
    # clipped to zero everywhere, it would pass every audit against bounds of 0
    cfg = write_cfg(tmp_path, "grid.n = 16\n# negative everywhere\ninitial.value = -1\n")
    assert main([command, cfg, "--strict", "--out", str(tmp_path / "art")]) == 2
    assert capsys.readouterr() == (
        f"FAIL config: {cfg}: line 3: initial.value: must leave the initial density mass > 0\n",
        "",
    )
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("name, error", [
    ("bad.asf", "bad magic b'not ', expected ASF1"),
    ("gone.asf", "No such file or directory"),
])
@pytest.mark.parametrize("lines", [
    "forcing.kind = file\nforcing.path = {name}\n",
    "viscosity.kind = varying\nviscosity.files = 0000:{name}\n",
], ids=["forcing.path", "viscosity.files"])
def test_a_snapshot_read_failure_names_its_path_once(tmp_path, capsys, lines, name, error):
    (tmp_path / "bad.asf").write_bytes(b"not a snapshot")
    cfg = write_cfg(tmp_path, SMALL_RUN + lines.format(name=name))
    key = lines.splitlines()[1].partition(" = ")[0]
    assert main(["run", cfg, "--out", str(tmp_path / "art")]) == 2
    assert capsys.readouterr().out == (
        f"FAIL config: {cfg}: line 13: {key}: cannot read snapshot {tmp_path / name}: {error}\n"
    )


def test_defect_study_of_a_non_diag_law_fails_the_config_on_its_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_RUN + "viscosity.kind = constant\nviscosity.a = 1\n")
    assert main(["defect-study", cfg, "--out", str(tmp_path / "art")]) == 2
    assert capsys.readouterr().out == (
        f"FAIL config: {cfg}: line 13: the defect study scales a per-axis viscosity;"
        " use viscosity.kind = diag\n"
    )
    assert not (tmp_path / "art").exists()


def test_singular_stress_law_fails_the_solver_with_exit_code_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_RUN + "viscosity.kind = constant\nviscosity.a = 0\n")
    assert main(["run", cfg, "--out", str(tmp_path / "art")]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("FAIL solver: SingularSymbol: singular momentum symbol ")
    assert lines[0].endswith(" (stress law: line 13)")


def test_non_coercive_stress_law_names_its_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_RUN + "viscosity.a = -1\nviscosity.kind = constant\n")
    assert main(["run", cfg, "--out", str(tmp_path / "art")]) == 3
    assert capsys.readouterr().out == (
        "FAIL solver: NotCoercive: coercivity estimate -1.000e+00 is not positive"
        " (stress law: line 12)\n"
    )


def failing_pair(monkeypatch, error, after, kernel=True):
    """Make each momentum solve of a slab or a direct step that starts after
    time ``after`` raise ``error``; with ``kernel`` False only those of
    unmollified marches.  The start is the first time in the place that
    the march names for its failures."""
    pair, located = marching._Momentum.pair, marching._located
    starts = []

    @contextlib.contextmanager
    def timed(where):
        starts.append(float(re.search(r"\d[\d.e+-]*", where)[0]))
        try:
            with located(where):
                yield
        finally:
            starts.pop()

    def failing(self, rho):
        if starts and starts[-1] > after and (kernel or self.kernel is None):
            raise error
        return pair(self, rho)

    monkeypatch.setattr(marching, "_located", timed)
    monkeypatch.setattr(marching._Momentum, "pair", failing)


@pytest.mark.parametrize("error", [
    KrylovNoConvergence(40, 1e-3, 1e-9),
    NewtonFail("drag solve stalled at residual 1.000e-03"),
    NegativeInput("density has negative samples (min -1.000e-03)"),
], ids=lambda error: type(error).__name__)
def test_solve_failure_in_a_march_names_its_slab(tmp_path, capsys, monkeypatch, error):
    text = str(error)
    failing_pair(monkeypatch, error, after=0.02)
    cfg = write_cfg(tmp_path, SMALL_RUN.replace("run.slab = 0.05", "run.slab = 0.025"))
    assert main(["run", cfg, "--out", str(tmp_path / "art")]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    found = re.fullmatch(
        rf"FAIL solver: {type(error).__name__}: (.*) on slab \[(\S+), (\S+)\]", lines[0]
    )
    assert found and found[1] == text
    assert float(found[2]) == pytest.approx(0.025) and float(found[3]) == pytest.approx(0.05)


def test_solve_failure_in_a_direct_march_names_its_step(tmp_path, capsys, monkeypatch):
    failing_pair(monkeypatch, NewtonFail("drag solve stalled"), after=0.0, kernel=False)
    cfg = write_cfg(tmp_path, SMALL_RUN.replace("run.t_end = 0.05", "run.t_end = 0.03")
                    + "sweep.deltas = 0.4,0.2,0.1\n")
    assert main(["sweep-delta", cfg, "--out", str(tmp_path / "art")]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    found = re.fullmatch(r"FAIL solver: NewtonFail: drag solve stalled in the step from t = (\S+)",
                         lines[0])
    assert found and 0.0 < float(found[1]) <= 0.01


def replayed(driver):
    """``driver`` with every state kept by a keep-all observer, handed to its
    own observer only after the march has returned."""

    def run(*args, observe, **kwargs):
        traj, states = kept(driver, *args, **kwargs)
        assert len(states.densities) == len(traj)
        for t, rho, u, ledger in zip(states.times, states.densities, states.velocities,
                                     states.ledgers):
            observe(t, rho, lambda u=u: u, ledger)
        return traj

    return run


@pytest.mark.parametrize("study, extra", [
    ("defect-study", None),
    ("sweep-delta", "sweep.deltas = 0.4,0.2,0.1\n"),
    ("sweep-eps", "sweep.eps_levels = 0.1,0.01\n"),
    ("run", "diagnostics.commutator_delta = 0.4\n"),
])
def test_studies_write_the_same_bytes_as_stored_marches(tmp_path, capsys, monkeypatch,
                                                         study, extra):
    if extra is None:
        text = DEFECT_STUDY
    else:
        text = SMALL_RUN.replace("run.t_end = 0.05", "run.t_end = 0.03") + extra
    cfg = write_cfg(tmp_path, text)
    runs = []
    for replay in (False, True):
        with monkeypatch.context() as patch:
            if replay:
                patch.setattr(cli, "march", replayed(cli.march))
                patch.setattr(cli, "direct_march", replayed(cli.direct_march))
            out = tmp_path / f"art{replay}"
            assert main([study, cfg, "--strict", "--out", str(out)]) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        runs.append((files, capsys.readouterr().out.replace(str(out), "OUT")))
    assert runs[0] == runs[1]
    assert "PASS" in runs[0][1]
    if study != "run":
        assert len(runs[0][0]) == 1


SOLVER_FAILURES = (
    NotCoercive("coercivity estimate 0.000e+00 is not positive"),
    SingularSymbol("singular momentum symbol on 7 modes"),
    KrylovNoConvergence(40, 1e-3, 1e-9),
    NewtonFail("drag solve did not converge"),
    NegativeInput("negative density"),
    NoContraction("update ratios [1.2, 1.3, 1.4] on slab [0.0, 0.05]"),
    SlabCollapse("slab shrank 6 times without contraction"),
    SubstepOverflow("slab [0.0, 0.05] needs 1e+299 substeps, more than 10000"),
    NonFiniteField("field data must be finite"),
    FloatingPointError("overflow encountered in power"),
)


# Every marching study must reach ``march`` through the name in ``cli``, looked
# up at call time: the benchmark's set-up probe replaces it to stop the clock.
# The ``run`` cases keep the bare error name as their id.
@pytest.mark.parametrize("study, error", [
    pytest.param(study, error, id="-".join(
        ([] if study == "run" else [study]) + [type(error).__name__]))
    for study in ("run", "defect-study", "sweep-delta", "sweep-eps")
    for error in SOLVER_FAILURES
])
def test_each_solver_failure_prints_one_line_and_exits_3(tmp_path, capsys, monkeypatch, study,
                                                        error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "march", fail)
    assert main([study, write_cfg(tmp_path, SMALL_RUN), "--out", str(tmp_path / "art")]) == 3
    assert capsys.readouterr().out == f"FAIL solver: {type(error).__name__}: {error}\n"



def test_a_runaway_velocity_fails_on_its_slab_before_any_substep(tmp_path, capsys, monkeypatch):
    # u ~ 1e300 asks for about 1e300 substeps of the first slab; the march
    # refuses the slab before it lays out a single one
    steps = counted_everywhere(monkeypatch, marching.continuity_step)
    cfg = write_cfg(tmp_path, SMALL_RUN + "forcing.kind = cosine\nforcing.amplitude = 1e300\n")
    tracemalloc.start()
    try:
        code = main(["run", cfg, "--out", str(tmp_path / "art")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().out.splitlines()[-1] == (
        "FAIL solver: SubstepOverflow: needs 1.7e+300 substeps, more than 10000"
        " on slab [0.0, 0.05]"
    )
    assert steps == []
    assert peak < 16 * 2**20


def test_a_slab_collapse_and_each_halving_name_their_slab_once(tmp_path, capsys, caplog):
    # one Picard pass never reaches fp_tol = 0, so every slab fails to
    # contract and the slab is halved until the halvings run out
    cfg = write_cfg(tmp_path, SMALL_RUN + "run.fp_max_iter = 1\nrun.fp_tol = 0\n")
    with caplog.at_level(logging.INFO, logger="anisostokes"):
        assert main(["run", cfg, "--out", str(tmp_path / "art")]) == 3
    failure = r"no convergence in 1 iterations \(last update \S+\) on slab \[0\.0, (\S+)\]"
    line = capsys.readouterr().out
    assert re.fullmatch(
        rf"FAIL solver: SlabCollapse: slab shrank 6 times without contraction: {failure}\n",
        line,
    )
    halvings = [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("halving slab length")]
    assert len(halvings) == 6
    slab = 0.05
    for message in halvings + [line]:
        assert message.count("slab [") == 1
        found = re.search(failure, message)
        assert float(found[1]) == slab
        slab *= 0.5


@pytest.mark.parametrize("extra, where", [
    # the forcing's spectrum overflows in its forward transform
    ("forcing.kind = cosine\nforcing.amplitude = 1e308\n", r"\w+"),
    ("initial.value = 1e200\n", "power"),  # rho^gamma overflows
], ids=["forcing", "pressure"])
def test_an_overflow_in_the_first_solve_fails_the_solver_at_its_time(tmp_path, extra, where):
    # in a fresh interpreter, so that numpy's own warning filters and stderr
    # are what a user sees: the overflow stops the study where it happens
    cfg = write_cfg(tmp_path, SMALL_RUN.replace("grid.n = 64", "grid.n = 32") + extra)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "anisostokes.cli", "run", cfg, "--out", str(tmp_path / "art")],
        env=env, capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (3, "")
    assert re.fullmatch(
        rf"FAIL solver: FloatingPointError: overflow encountered in {where} at t = 0\.0\n",
        done.stdout,
    )


def test_an_overflow_in_a_worker_fails_the_solver_as_in_a_serial_study(tmp_path, capsys,
                                                                       monkeypatch):
    # the workers are forked inside the study's floating-point error state
    march = cli.march

    def overflow_last(tensor, *args, **kwargs):
        if tensor.nu[-1] == 16.0:
            np.full(4, 1e308) * 10.0
        return march(tensor, *args, **kwargs)

    monkeypatch.setattr(cli, "march", overflow_last)
    cfg = write_cfg(tmp_path, THREE_RATIOS)
    runs = []
    for cpus in (1, 2):
        affinity(monkeypatch, cpus)
        code = main(["defect-study", cfg, "--strict", "--out", str(tmp_path / "art")])
        runs.append((code, capsys.readouterr().out))
        assert multiprocessing.active_children() == []
    assert runs[0] == runs[1] == (
        3, "FAIL solver: FloatingPointError: overflow encountered in multiply\n"
    )


def test_a_runaway_slab_count_fails_the_config_on_its_line(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("march reached")

    monkeypatch.setattr(cli, "march", fail)
    text = SMALL_RUN.replace("run.slab = 0.05", "run.slab = 1e-300")
    cfg = write_cfg(tmp_path, text)
    line = text.splitlines().index("run.slab = 1e-300") + 1
    assert main(["run", cfg, "--out", str(tmp_path / "art")]) == 2
    assert capsys.readouterr().out == (
        f"FAIL config: {cfg}: line {line}: run.slab: must be at least "
        "run.t_end / 10000 (5e-06), got 1e-300\n"
    )


if __name__ == "__main__":
    # python tests/test_cli.py writes the pinned run tree
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = run_tree(Path(tmp))
    RUN_TREE_GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
