"""Audit-functional tests: energy budget, defect proxy, CSV emission."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from anisostokes.diagnostics import (
    CSV_HEADER,
    DefectParams,
    commutator_audit,
    defect_inequality,
    defect_proxies,
    defect_proxy,
    pressure_l2_audit,
    state_row,
    worst_violation,
    write_rows_csv,
)
from anisostokes.fields import GridSpec, ScalarField, VectorField
from anisostokes.marching import Ledger, march
from anisostokes.transport import NegativeInput, SolverParams, pressure_integral
from anisostokes.viscosity import ConstantFull, DiagNu, isotropic_strain_tensor, viscous_work
from keepall import kept


def quiet_params(**overrides):
    base = dict(gamma=2.0, eps=0.0, delta=0.0, eta=0.0, dt_max=5e-3)
    base.update(overrides)
    return SolverParams(**base)


# ------------------------------------------------------------ viscous work

def test_viscous_work_zero_velocity():
    g = GridSpec(2, 16)
    w = viscous_work(DiagNu((1.0, 2.0)), VectorField.zeros(g))
    assert w.total == 0.0
    assert w.pointwise.linf_norm() == 0.0
    assert w.h1_residual == 0.0


def test_viscous_work_isotropic_hand_integral():
    # tau = 2 nu D with u = (sin x2, 0, 0): total work = nu * volume / 2
    g = GridSpec(3, 16)
    nu = 0.7
    tensor = ConstantFull(isotropic_strain_tensor(3, 2.0 * nu))
    _, y, _ = g.meshgrid()
    u = VectorField.from_arrays(g, [np.sin(y), np.zeros(g.shape), np.zeros(g.shape)])
    w = viscous_work(tensor, u)
    assert w.total == pytest.approx(nu * g.volume / 2.0, rel=1e-12)
    assert w.h1_residual <= 1e-12


def test_viscous_work_symmetric_stress_has_tiny_h1_gap():
    g = GridSpec(2, 24)
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((2, 2, 2, 2))
    tensor = ConstantFull(raw + 3.0 * isotropic_strain_tensor(2, 1.0))
    u = VectorField.from_arrays(
        g, [rng.standard_normal(g.shape) for _ in range(2)]
    )
    w = viscous_work(tensor, u)
    scale = max(abs(w.pointwise.data).max(), 1.0)
    assert w.h1_residual <= 1e-12 * scale


# ------------------------------------------------------------ energy audit

def test_energy_slack_zero_when_nothing_moves():
    g = GridSpec(1, 32)
    _, states = kept(march, DiagNu((1.0,)), ScalarField.constant(g, 1.3), None, quiet_params(),
                     0.1, 0.05)
    slacks = states.energy_slacks(2.0)
    e0 = pressure_integral(states.densities[0], 2.0)
    assert max(abs(s) for s in slacks) <= 1e-10 * e0
    assert worst_violation(slacks) <= 1e-10 * e0


def test_energy_slack_nonnegative_for_drag_only_run():
    g = GridSpec(1, 32)
    p = quiet_params(eta=0.2)
    traj, states = kept(march, DiagNu((1.0,)), ScalarField.constant(g, 1.0), None, p, 0.2, 0.1)
    slacks = states.energy_slacks(2.0)
    assert min(slacks) >= 0.0
    # cross-check the budget against the scalar drag ODE: the spent terms
    # must track gamma * the pressure drop of the exact solution
    sol = solve_ivp(
        lambda t, y: -0.2 * (y**4 + y**3), (0.0, 0.2), [1.0], rtol=1e-11, atol=1e-13
    )
    exact_drop = (1.0 - sol.y[0, -1] ** 2) * g.volume
    audited_drop = traj.ledgers[-1].drag_hi_cum + traj.ledgers[-1].drag_lo_cum
    assert audited_drop == pytest.approx(exact_drop, rel=2e-2)
    assert slacks[-1] <= 5e-3 * pressure_integral(states.densities[0], 2.0)


def test_energy_slack_violation_shrinks_with_dt():
    g = GridSpec(1, 64)
    x = g.meshgrid()[0]
    rho0 = ScalarField(g, 1.0 + 0.4 * np.cos(x))
    tensor = DiagNu((0.5,))
    results = {}
    for dt in (4e-3, 2e-3):
        p = SolverParams(gamma=2.0, eps=0.01, delta=0.0, eta=0.01, dt_max=dt)
        slacks = kept(march, tensor, rho0, None, p, 0.1, 0.05)[1].energy_slacks(2.0)
        results[dt] = (worst_violation(slacks), min(slacks))
    e0 = 2 * np.pi * (1.0 + 0.08)
    assert results[4e-3][0] <= 1e-2 * e0
    assert results[2e-3][0] <= results[4e-3][0] / 1.5 + 1e-12 * e0


# ------------------------------------------------------------ pressure L2

def test_pressure_l2_constant_one():
    g = GridSpec(1, 16)
    traj = march(DiagNu((1.0,)), ScalarField.constant(g, 1.0), None, quiet_params(dt_max=0.01), 1.0, 0.5)
    assert pressure_l2_audit(traj) == pytest.approx(np.sqrt(g.volume), rel=1e-12)


def test_pressure_l2_constant_two_worked_example():
    g = GridSpec(3, 8)
    traj = march(DiagNu((1.0, 1.0, 1.0)), ScalarField.constant(g, 2.0), None, quiet_params(dt_max=0.01), 0.5, 0.25)
    expected = 4.0 * np.sqrt(0.5 * (2 * np.pi) ** 3)
    assert pressure_l2_audit(traj) == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------ defect proxy

def test_defect_proxy_constant_field_is_zero():
    g = GridSpec(2, 32)
    dp = DefectParams(window=8, h_reg=0.0)
    assert defect_proxy(ScalarField.constant(g, 2.5), 2.0, dp) == 0.0


def test_defect_proxy_two_value_oracle():
    # alternating {0, 1} cells: per window <rho> = 1/2, <rho^2> = 1/2,
    # so the gap is 1/4 and the gamma=2 proxy integrates sqrt(1/4) = 1/2
    g = GridSpec(1, 128)
    data = np.tile([0.0, 1.0], 64)
    dp = DefectParams(window=8, h_reg=0.0)
    assert defect_proxy(ScalarField(g, data), 2.0, dp) == pytest.approx(np.pi, rel=1e-12)


def test_defect_proxy_single_cell_windows_vanish():
    g = GridSpec(2, 16)
    rng = np.random.default_rng(0)
    rho = ScalarField(g, 0.5 + rng.random(g.shape))
    dp = DefectParams(window=1, h_reg=0.0)
    assert defect_proxy(rho, 1.7, dp) == 0.0


def test_defect_proxy_nonnegative_and_baseline_subtracted():
    g = GridSpec(2, 32)
    rng = np.random.default_rng(5)
    rho = ScalarField(g, 0.1 + rng.random(g.shape))
    dp = DefectParams(window=4, h_reg=1e-8)
    assert defect_proxy(rho, 2.0, dp) >= 0.0
    # constant field: regularization baseline cancels exactly
    assert defect_proxy(ScalarField.constant(g, 1.0), 2.0, dp) == 0.0


def test_defect_proxies_are_the_proxy_of_each_window_bit_for_bit():
    g = GridSpec(2, 32)
    rng = np.random.default_rng(7)
    rho = ScalarField(g, 0.1 + rng.random(g.shape))
    dps = [DefectParams(window=w) for w in (2, 4, 8)]
    assert defect_proxies(rho, 1.4, dps) == [defect_proxy(rho, 1.4, dp) for dp in dps]
    assert defect_proxies(rho, 1.4, []) == []


def test_defect_proxy_window_mismatch_rejected():
    g = GridSpec(1, 30)
    with pytest.raises(ValueError):
        defect_proxy(ScalarField.constant(g, 1.0), 2.0, DefectParams(window=8))


def test_defect_params_validation():
    with pytest.raises(ValueError):
        DefectParams(window=0)
    with pytest.raises(ValueError):
        DefectParams(h_reg=-1e-3)


def test_defect_inequality_smooth_data_passes():
    g = GridSpec(1, 128)
    x = g.meshgrid()[0]
    rho0 = ScalarField(g, 1.0 + 0.3 * np.cos(x))
    p = SolverParams(gamma=2.0, eps=0.01, delta=0.0, eta=0.01, dt_max=5e-3)
    _, states = kept(march, DiagNu((1.0,)), rho0, None, p, 0.1, 0.05)
    dp = DefectParams(window=8, h_reg=1e-8)
    lhs, rhs, ok = states.defect_inequality(2.0, dp)
    assert ok
    # resolved data carries far less window defect than a subgrid-oscillatory
    # field of the same amplitude
    alternating = ScalarField(g, np.where(np.arange(128) % 2 == 0, 0.7, 1.3))
    assert defect_proxy(rho0, 2.0, dp) <= 0.1 * defect_proxy(alternating, 2.0, dp)


def test_defect_inequality_zero_horizon():
    g = GridSpec(1, 64)
    p = SolverParams(gamma=2.0, dt_max=5e-3)
    _, states = kept(march, DiagNu((1.0,)), ScalarField.constant(g, 1.0), None, p, 0.0, 0.05)
    lhs, rhs, ok = states.defect_inequality(2.0, DefectParams(window=8))
    assert lhs == 0.0
    assert ok


def state_rows(states, gamma, dp, commutator_delta=0.0):
    """:func:`state_row` of every kept state, in order, as ``run`` builds them."""
    rows = []
    for t, rho, u, ledger in zip(states.times, states.densities, states.velocities,
                                 states.ledgers):
        e0 = rows[0].pgamma_integral if rows else None
        rows.append(state_row(t, rho, u, ledger, e0, gamma, dp, commutator_delta))
    return rows


def test_state_rows_carry_the_audit_inputs():
    # run keeps no field: its audits read int rho^gamma, the slack, the
    # maximum and the defect proxy back from the rows, and must get the
    # bits the audits over every kept field give
    g = GridSpec(2, 16)
    x, y = g.meshgrid()
    rho0 = ScalarField(g, 1.0 + 0.3 * np.cos(x) * np.cos(2 * y))
    p = SolverParams(gamma=2.0, eps=0.01, delta=0.3, eta=0.05, dt_max=5e-3)
    traj, states = kept(march, DiagNu((1.0, 2.0)), rho0, None, p, 0.03, 0.015)
    dp = DefectParams(window=4)
    rows = state_rows(states, 2.0, dp)
    assert len(rows) == len(traj) >= 3
    for row, rho in zip(rows, states.densities):
        assert row.pgamma_integral == pressure_integral(rho, 2.0)
        assert row.defect_proxy == defect_proxy(rho, 2.0, dp)
        assert (row.rho_min, row.rho_max) == (rho.min(), rho.max())
    slacks = [row.energy_slack for row in rows]
    assert slacks == states.energy_slacks(2.0) and rows[0].energy_slack == 0.0
    assert defect_inequality(
        traj.times, [row.defect_proxy for row in rows], rows[0].rho_max, traj.ledgers[-1],
        g, 2.0, dp,
    ) == states.defect_inequality(2.0, dp)


def test_state_row_rejects_a_negative_density():
    g = GridSpec(1, 8)
    rho = ScalarField(g, np.linspace(-0.1, 1.0, 8))
    with pytest.raises(NegativeInput):
        state_row(0.0, rho, VectorField.zeros(g), Ledger.fresh(rho), None, 2.0,
                  DefectParams(window=4))


# ------------------------------------------------------------ commutator

def test_commutator_audit_rows_decay_in_radius():
    g = GridSpec(1, 256)
    x = g.meshgrid()[0]
    rho0 = ScalarField(g, 1.0 + 0.4 * np.cos(x) + 0.1 * np.sin(2 * x))
    p = SolverParams(gamma=2.0, eps=0.01, delta=0.0, eta=0.01, dt_max=5e-3)
    traj, states = kept(march, DiagNu((1.0,)), rho0, None, p, 0.02, 0.02, store_every=2)
    deltas = [0.4, 0.2, 0.1]
    table = commutator_audit(states.states(), deltas)
    assert len(table) == len(traj.times)
    for _t, residuals in table:
        for a, b in zip(residuals, residuals[1:]):
            assert b <= 1.05 * a


# ------------------------------------------------------------ CSV

def test_rows_and_csv_roundtrip(tmp_path):
    g = GridSpec(1, 64)
    x = g.meshgrid()[0]
    rho0 = ScalarField(g, 1.0 + 0.2 * np.cos(x))
    p = SolverParams(gamma=2.0, eps=0.01, delta=0.2, eta=0.05, dt_max=5e-3)
    traj, states = kept(march, DiagNu((1.0,)), rho0, None, p, 0.05, 0.05)
    rows = state_rows(states, 2.0, DefectParams(window=8), commutator_delta=0.3)
    assert len(rows) == len(traj.times)
    assert rows[0].t == 0.0
    assert rows[0].dissipation_cum == 0.0
    assert rows[-1].mass == pytest.approx(traj.ledgers[-1].mass_now, rel=1e-15)
    for a, b in zip(rows, rows[1:]):
        assert b.dissipation_cum >= a.dissipation_cum
        assert b.drag2g_cum >= a.drag2g_cum

    out = tmp_path / "diag.csv"
    write_rows_csv(rows, out)
    text = out.read_text(encoding="utf-8").splitlines()
    assert text[0] == CSV_HEADER == (
        "t,mass,drag2g_cum,drag3_cum,pgamma_integral,dissipation_cum,"
        "grad_rho_gamma_half_cum,energy_slack,rho_min,rho_max,"
        "pgamma_l2_running,defect_proxy,commutator_l1"
    )
    assert len(text) == len(rows) + 1
    assert len(text[1].split(",")) == 13

    # determinism: writing the same rows again is byte-identical
    out2 = tmp_path / "diag2.csv"
    write_rows_csv(rows, out2)
    assert out.read_bytes() == out2.read_bytes()


def test_csv_full_precision(tmp_path):
    g = GridSpec(1, 16)
    p = SolverParams(gamma=2.0, dt_max=0.01)
    _, states = kept(march, DiagNu((1.0,)), ScalarField.constant(g, 1.0 / 3.0), None, p, 0.0,
                     0.05)
    row = state_rows(states, 2.0, DefectParams())[0]
    write_rows_csv([row], tmp_path / "diag.csv")
    line = (tmp_path / "diag.csv").read_text(encoding="utf-8").splitlines()[1]
    mass_text = line.split(",")[1]
    assert float(mass_text) == row.mass
