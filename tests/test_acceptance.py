"""End-to-end acceptance checks over the shipped scenarios.

Each test prints exactly one PASS/FAIL line for its guarantee, built from
the shipped configuration files under configs/.  Session fixtures share the
expensive marches.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from anisostokes.cli import cmd_defect_study, cmd_run, cmd_sweep_delta, cmd_sweep_eps, main
from anisostokes.config import parse_config
from anisostokes.diagnostics import commutator_audit, worst_violation
from anisostokes.fields import (
    GridSpec,
    ScalarField,
    VectorField,
    grad_l2_norm,
    jacobian,
)
from anisostokes.marching import Slab, march, picard_solve
from anisostokes.stokes import StokesOperator, solve, solve_rhs
from anisostokes.transport import pressure_integral
from anisostokes.viscosity import (
    ConstantFull,
    DiagNu,
    VaryingFull,
    coercivity_estimate,
    isotropic_strain_tensor,
)
from keepall import kept

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = Path(__file__).resolve().parent / "data" / "defect_study_golden.csv"


def report(number, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} acceptance-{number:02d} {name}: {detail}"
    print(line)
    assert ok, line


def bench_workloads():
    """The benchmark's workload module, imported read-only from bench/."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads

    return workloads


def sweep1d_reference_gap(path):
    """The benchmark's own check of a sweep1d CSV: None, or the first mismatch
    with its stored reference (1e-12 relative plus 1e-12 absolute)."""
    workloads = bench_workloads()
    return workloads.compare_csv(path, workloads.REFERENCE_DIR / "sweep1d" / path.name, 1e-12, 1e-12)


# ------------------------------------------------------------ shared runs

@pytest.fixture(scope="session")
def canonical_cfg():
    return parse_config(str(CONFIGS / "canonical3d.cfg"))


@pytest.fixture(scope="session")
def sweep_cfg():
    return parse_config(str(CONFIGS / "sweep1d.cfg"))


@pytest.fixture(scope="session")
def defect_cfg():
    return parse_config(str(CONFIGS / "defect2d.cfg"))


@pytest.fixture(scope="session")
def canonical_traj(canonical_cfg):
    cfg = canonical_cfg
    return march(cfg.tensor, cfg.rho0, None, cfg.params, cfg.t_end, cfg.slab)


@pytest.fixture(scope="session")
def sweep_run(sweep_cfg):
    """The sweep scenario's trajectory and every stored state."""
    cfg = sweep_cfg
    return kept(
        march, cfg.tensor, cfg.rho0, None, cfg.params, cfg.t_end, cfg.slab, store_every=8
    )


@pytest.fixture(scope="session")
def oscillatory_run(defect_cfg):
    """The defect scenario's trajectory and every stored state."""
    cfg = defect_cfg
    return kept(
        march, cfg.tensor, cfg.rho0, None, cfg.params, cfg.t_end, cfg.slab, store_every=5
    )


@pytest.fixture(scope="session")
def shipped_trajectories(canonical_traj, sweep_run, oscillatory_run):
    return {
        "canonical3d": canonical_traj,
        "sweep1d": sweep_run[0],
        "defect2d": oscillatory_run[0],
    }


@pytest.fixture(scope="session")
def defect_study_dir(defect_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("defect_study")
    results = cmd_defect_study(defect_cfg, str(out))
    return out, results


# ------------------------------------------------------------ the criteria

def test_01_mass_identity(shipped_trajectories):
    details = []
    ok = True
    for name, traj in shipped_trajectories.items():
        mass0 = traj.ledgers[0].mass_initial
        worst = max(ledger.identity_defect() for ledger in traj.ledgers)
        ok = ok and worst <= 1e-10 * mass0
        details.append(f"{name} {worst:.2e}/{1e-10 * mass0:.2e}")
    report(1, "mass-identity", ok, "; ".join(details))


def test_02_positivity_and_max_principle(shipped_trajectories, oscillatory_run):
    oscillatory_traj, states = oscillatory_run
    min_rho = min(t.min_rho_ever for t in shipped_trajectories.values())
    scale = max(r.max() for r in states.densities)
    margin = oscillatory_traj.max_principle_margin
    ok = min_rho >= 0.0 and margin >= -1e-12 * scale
    report(
        2,
        "positivity-max-principle",
        ok,
        f"min density {min_rho:.3g}; drag-free growth margin {margin:.3e}",
    )


def test_03_energy_slack_and_dt_refinement(sweep_cfg, sweep_run):
    cfg = sweep_cfg
    gamma = cfg.params.gamma
    states = sweep_run[1]
    e0 = pressure_integral(states.densities[0], gamma)
    v_base = worst_violation(states.energy_slacks(gamma))
    _, half = kept(
        march,
        cfg.tensor,
        cfg.rho0,
        None,
        replace(cfg.params, dt_max=cfg.params.dt_max / 2.0),
        cfg.t_end,
        cfg.slab,
        store_every=8,
    )
    v_half = worst_violation(half.energy_slacks(gamma))
    ok = v_base <= 1e-2 * e0 and v_half <= v_base / 1.5 + 1e-12 * e0
    report(
        3,
        "energy-slack",
        ok,
        f"violation {v_base:.3e} (<= {1e-2 * e0:.3e}), halved dt {v_half:.3e}",
    )


def test_04_stress_symmetry_and_coercivity(canonical_cfg, sweep_cfg, defect_cfg):
    cases = [
        (canonical_cfg.tensor, canonical_cfg.grid),
        (sweep_cfg.tensor, sweep_cfg.grid),
        (defect_cfg.tensor, defect_cfg.grid),
        (DiagNu((1.0, 16.0)), defect_cfg.grid),
    ]
    rng = np.random.default_rng(0)
    worst_sym = 0.0
    worst_coercive = np.inf
    for tensor, grid in cases:
        c_est = coercivity_estimate(tensor).c_est
        for _ in range(20):
            u = VectorField(
                grid, [rng.standard_normal(grid.shape) for _ in range(grid.dim)]
            )
            J = jacobian(u)
            D = 0.5 * (J + np.swapaxes(J, 0, 1))
            tau = tensor.apply(D)
            full = np.einsum("ij...,ij...->...", tau, J)
            symm = np.einsum("ij...,ij...->...", tau, D)
            scale = max(float(np.abs(full).max()), 1.0)
            worst_sym = max(worst_sym, float(np.abs(full - symm).max()) / scale)
            dissipation = float(full.sum()) * grid.cell_volume
            dnorm2 = float((D * D).sum()) * grid.cell_volume
            worst_coercive = min(
                worst_coercive, dissipation / (c_est * dnorm2)
            )
    ok = worst_sym <= 1e-12 and worst_coercive >= 1.0 - 1e-6
    report(
        4,
        "stress-symmetry-coercivity",
        ok,
        f"max symmetry residual {worst_sym:.2e}; min dissipation ratio {worst_coercive:.6f}",
    )


def test_05_stokes_oracles():
    # closed form: nu = (2,1,1), q = -cos x1 -> u = (0.5 sin x1, 0, 0)
    g3 = GridSpec(3, 16)
    op = StokesOperator.build(DiagNu((2.0, 1.0, 1.0)), g3)
    q = ScalarField.from_function(g3, lambda x, y, z: -np.cos(x))
    u = solve(op, q)
    x = g3.meshgrid()[0]
    closed = max(
        float(np.abs(u[0].data - 0.5 * np.sin(x)).max()),
        u[1].linf_norm(),
        u[2].linf_norm(),
    )

    # manufactured round trip through the variable-coefficient Krylov path
    g2 = GridSpec(2, 32)
    base = isotropic_strain_tensor(2, 1.0)
    xs = g2.meshgrid()
    nu = 1.0 + 0.1 * np.sin(xs[0])
    varying = VaryingFull(g2, base.reshape(base.shape + (1, 1)) * nu)
    opv = StokesOperator.build(varying, g2)
    ustar = VectorField(g2, [np.sin(g2.meshgrid()[1]), np.zeros(g2.shape)])
    urt = solve_rhs(opv, opv.apply(ustar))
    round_trip = (urt - ustar).l2_norm() / ustar.l2_norm()

    # isotropic full tensor against the diagonal fast path
    rng = np.random.default_rng(11)
    qr = ScalarField(g3, rng.standard_normal(g3.shape))
    u_diag = solve(StokesOperator.build(DiagNu((1.8, 1.8, 1.8)), g3), qr)
    u_full = solve(
        StokesOperator.build(ConstantFull(isotropic_strain_tensor(3, 1.8)), g3), qr
    )
    scale = max(u_diag.linf_norm(), 1e-30)
    fast_path = max(
        float(np.abs(u_diag[a].data - u_full[a].data).max()) for a in range(3)
    ) / scale

    ok = closed <= 1e-10 and round_trip <= 1e-8 and fast_path <= 1e-10
    report(
        5,
        "stokes-oracles",
        ok,
        f"closed form {closed:.2e}; round trip {round_trip:.2e}; fast path {fast_path:.2e}",
    )


def test_06_picard_contraction(canonical_cfg):
    cfg = canonical_cfg
    rho0 = cfg.rho0
    steps = int(round(cfg.t_end / cfg.params.dt_max))
    slab = Slab(0.0, cfg.t_end, steps)
    (traj_full, full), kept_full = kept(picard_solve, cfg.tensor, rho0, None, cfg.params, slab)
    iters = traj_full.fixed_point_reports[0][2]
    _, half = picard_solve(
        cfg.tensor, rho0, None, cfg.params, Slab(0.0, cfg.t_end / 2.0, steps // 2)
    )

    rng = np.random.default_rng(7)
    xs = cfg.grid.meshgrid()
    comps = [
        0.05 * np.sin(xs[0] + rng.uniform(0.0, 2.0 * np.pi))
        + 0.05 * np.cos(xs[2] + rng.uniform(0.0, 2.0 * np.pi))
        for _ in range(3)
    ]
    start = VectorField(cfg.grid, comps)
    _, kept_rand = kept(
        picard_solve, cfg.tensor, rho0, None, cfg.params, slab, v0=[start] * steps
    )
    gap = np.sqrt(
        slab.dt
        * sum(
            grad_l2_norm(a - b) ** 2
            for a, b in zip(kept_full.velocities[:steps], kept_rand.velocities[:steps])
        )
    )

    ok = (
        iters <= 20
        and full[-1] < 1.0
        and half[-1] < full[-1]
        and gap <= 10 * cfg.params.fp_tol
    )
    report(
        6,
        "picard-contraction",
        ok,
        f"{iters} iterations, terminal factor {full[-1]:.3f} (halved {half[-1]:.3f}), "
        f"two-start gap {gap:.2e}",
    )


def test_07_delta_convergence(sweep_cfg, tmp_path):
    results = cmd_sweep_delta(sweep_cfg, str(tmp_path))
    lines = (tmp_path / "sweep_delta.csv").read_text().splitlines()[1:]
    gaps = [float(line.split(",")[1]) for line in lines[1:]]
    dist_direct = float(lines[-1].split(",")[2])
    ratios = [gaps[i + 1] / gaps[i] for i in range(len(gaps) - 1)]
    reference_gap = sweep1d_reference_gap(tmp_path / "sweep_delta.csv")
    ok = (
        all(passed for _name, passed in results)
        and all(r <= 0.7 for r in ratios)
        and dist_direct <= 2.0 * gaps[-1]
        and reference_gap is None
    )
    report(
        7,
        "delta-convergence",
        ok,
        "gap ratios " + ", ".join(f"{r:.3f}" for r in ratios)
        + f"; finest-to-direct {dist_direct:.2e} vs 2x last gap {2 * gaps[-1]:.2e}"
        + f"; bench reference: {reference_gap or 'matches'}",
    )


def test_08_pressure_l2_uniform(sweep_cfg, tmp_path):
    results = cmd_sweep_eps(sweep_cfg, str(tmp_path))
    lines = (tmp_path / "sweep_eps.csv").read_text().splitlines()[1:]
    pl2 = [float(line.split(",")[3]) for line in lines]
    factor = max(pl2) / min(pl2)
    reference_gap = sweep1d_reference_gap(tmp_path / "sweep_eps.csv")
    ok = all(passed for _name, passed in results) and factor <= 2.0 and reference_gap is None
    report(
        8,
        "pressure-l2-uniform",
        ok,
        f"levels {sweep_cfg.sweep_eps_levels}; spread factor {factor:.3f}"
        f"; bench reference: {reference_gap or 'matches'}",
    )


def test_09_defect_inequality_study(defect_study_dir):
    out, results = defect_study_dir
    lines = (out / "defect_study.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    ratios = sorted({float(r[0]) for r in rows})
    windows = sorted({int(r[1]) for r in rows})
    all_pass = all(r[4] == "true" for r in rows)
    ok = (
        all(passed for _name, passed in results)
        and ratios == [1.0, 4.0, 16.0]
        and windows == [4, 8]
        and all_pass
    )
    report(
        9,
        "defect-inequality",
        ok,
        f"{len(rows)} ratio x window audits, all lhs <= rhs: {all_pass}",
    )


def test_10_commutator_decay(sweep_run):
    rows = commutator_audit(sweep_run[1].states(), (0.4, 0.2, 0.1))
    worst = 0.0
    for _t, (r4, r2, r1) in rows:
        worst = max(worst, r2 / r4, r1 / r2)
    ok = worst <= 0.6
    report(
        10,
        "commutator-decay",
        ok,
        f"worst halving ratio {worst:.3f} over {len(rows)} stored states",
    )


def test_11_determinism(defect_study_dir, tmp_path):
    out, _results = defect_study_dir
    study_bytes = (out / "defect_study.csv").read_bytes()
    golden_ok = study_bytes == GOLDEN.read_bytes()

    cfg = parse_config(str(CONFIGS / "canonical3d.cfg"))
    a, b = tmp_path / "a", tmp_path / "b"
    cmd_run(cfg, str(a))
    cmd_run(cfg, str(b))
    rerun_ok = (a / "diagnostics.csv").read_bytes() == (b / "diagnostics.csv").read_bytes()

    ok = golden_ok and rerun_ok
    report(
        11,
        "determinism",
        ok,
        f"defect study matches pinned golden bytes: {golden_ok}; "
        f"repeated run CSVs identical: {rerun_ok}",
    )


def test_12_krylov_reference(tmp_path, capsys):
    # the varying-law (Krylov) path against the benchmark's stored krylov2d
    # outputs, through the benchmark's own set-up and check
    workloads = bench_workloads()
    seed = workloads.DEFAULT_SEED
    workload = workloads.prepare("krylov2d", tmp_path, seed)
    ((sub, cfg),) = workload.round
    out = tmp_path / "out"
    code = main([sub, cfg, "--strict", "--out", str(out)])
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    gap = workloads.check_outputs(workload, seed, str(out))
    report(
        12,
        "krylov-reference",
        code == 0 and not fails and gap is None,
        f"exit {code}; audit failures {fails or 'none'}; bench reference: {gap or 'matches'}",
    )
