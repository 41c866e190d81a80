"""Audited functionals of stored trajectories and their CSV emission.

Everything here is a pure function of a Trajectory (plus parameters): the
energy budget with its slack, the running pressure L2 norm, the windowed
oscillation-defect proxy with its time-integrated inequality, the mollifier
transport commutator, and the per-time CSV rows.  Nothing feeds back into
the solver.

The energy and defect audits also have a streamed form for marches that
hand their states to an observer instead of storing them: the per-state
inputs (``pressure_integral``, :func:`defect_proxy`) are taken one
state at a time, and :func:`energy_slacks` and :func:`defect_inequality`
do the arithmetic that the Trajectory forms do through them.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from anisostokes.fields import ScalarField, commutator_residual, div
from anisostokes.transport import pressure_field, pressure_integral

@dataclass(frozen=True)
class DiagnosticsRow:
    """One stored time of the audit ledger; field order is the CSV order."""

    t: float
    mass: float
    drag2g_cum: float
    drag3_cum: float
    pgamma_integral: float
    dissipation_cum: float
    grad_rho_gamma_half_cum: float
    energy_slack: float
    rho_min: float
    rho_max: float
    pgamma_l2_running: float
    defect_proxy: float
    commutator_l1: float

    def as_csv_line(self):
        return _csv_line(astuple(self))


CSV_HEADER = ",".join(f.name for f in fields(DiagnosticsRow))


@dataclass(frozen=True)
class DefectParams:
    """Window size (cells per side) and root regularization for the proxy."""

    window: int = 8
    h_reg: float = 1e-8
    slack_tolerance: float = 1e-2

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be at least one cell")
        if self.h_reg < 0:
            raise ValueError("h_reg must be nonnegative")
        if self.slack_tolerance < 0:
            raise ValueError("slack_tolerance must be nonnegative")


def energy_slacks(e0, pressures, ledgers, gamma):
    """Energy-budget slack of each state from its int rho^gamma and ledger.

    slack(t) = E0 - [ int rho^gamma(t) + (gamma-1) * work_cum(t)
                      + drag energy terms + density-gradient dissipation ],
    where ``e0`` is the initial pressure integral.  Nonnegative slack means
    the discrete run dissipates at least as much as the budget requires;
    small negative values are splitting error and must shrink under dt
    refinement.
    """
    return [
        e0
        - (
            p
            + (gamma - 1.0) * led.work_cum
            + led.drag_hi_cum
            + led.drag_lo_cum
            + led.grad_rho_gamma_half_cum
        )
        for p, led in zip(pressures, ledgers)
    ]


def worst_violation(slacks):
    """Magnitude of the worst negative energy slack (0 when none)."""
    return max(0.0, -min(slacks))


def energy_audit(traj, gamma=None):
    """Energy-budget slack at every stored time (see :func:`energy_slacks`)."""
    g = traj.params.gamma if gamma is None else gamma
    pressures = (pressure_integral(rho, g) for rho in traj.densities)
    return energy_slacks(traj.initial_pressure_integral(), pressures, traj.ledgers, g)


def energy_violation(traj, gamma=None):
    """Magnitude of the worst negative energy slack (0 when none)."""
    return worst_violation(energy_audit(traj, gamma))


def pressure_l2_audit(traj):
    """Running L2((0,T) x domain) norm of rho^gamma at the final time."""
    return float(np.sqrt(traj.ledgers[-1].pgamma_l2_sq_cum))


def effective_flux(rho, u, nu, gamma):
    """F = rho^gamma - nu div u, the scalar flux of isotropic runs."""
    p = pressure_field(rho, gamma)
    return ScalarField(rho.grid, p.data - nu * div(u).data)


def _window_means(data, window):
    shape = data.shape
    for n in shape:
        if n % window != 0:
            raise ValueError(f"window {window} does not divide grid extent {n}")
    reshaped = data
    # split each axis into (blocks, window) and average the window axes
    new_shape = []
    for n in shape:
        new_shape.extend([n // window, window])
    reshaped = data.reshape(new_shape)
    axes = tuple(range(1, 2 * len(shape), 2))
    return reshaped.mean(axis=axes)


def defect_proxy(rho, gamma, dp):
    """Windowed Jensen-gap functional, the surrogate for the defect measure.

    Averages rho and rho^gamma over cubic windows of dp.window cells and
    accumulates vol_w * (h_reg + <rho^gamma>_w - <rho>_w^gamma)^(1/gamma),
    minus the constant the regularization alone would contribute.  Jensen
    makes every window gap nonnegative; rounding can produce -1e-18 on
    constant windows, so gaps are floored at zero before the root.
    """
    grid = rho.grid
    mean_r = _window_means(rho.data, dp.window)
    mean_p = _window_means(rho.data**gamma, dp.window)
    gap = np.maximum(mean_p - mean_r**gamma, 0.0)
    vol_w = (dp.window * grid.h) ** grid.dim
    total = vol_w * float(np.sum((dp.h_reg + gap) ** (1.0 / gamma)))
    return total - grid.volume * dp.h_reg ** (1.0 / gamma)


def defect_inequality(times, series, rho0_max, ledger, grid, gamma, dp):
    """Time-integrated defect inequality from the proxy series: (lhs, rhs, passed).

    ``series`` holds :func:`defect_proxy` at each of ``times``,
    ``rho0_max`` is the initial density's maximum and ``ledger`` the final
    one.  lhs integrates the proxy (trapezoid on the samples); rhs is the
    initial proxy carried flat over the horizon, plus the h-regularization
    correction h^(1/gamma) * int int |div w|, plus a slack proportional to
    the horizon, volume and density scale.
    """
    horizon = times[-1] - times[0]
    lhs = float(np.trapezoid(series, times)) if len(times) > 1 else 0.0
    scale = horizon * grid.volume * (1.0 + rho0_max)
    rhs = (
        horizon * series[0]
        + dp.h_reg ** (1.0 / gamma) * ledger.divu_l1_cum
        + dp.slack_tolerance * scale
    )
    return lhs, rhs, lhs <= rhs


def defect_inequality_audit(traj, gamma, dp):
    """:func:`defect_inequality` over a stored trajectory."""
    series = [defect_proxy(r, gamma, dp) for r in traj.densities]
    return defect_inequality(
        traj.times, series, traj.densities[0].max(), traj.ledgers[-1], traj.grid, gamma, dp
    )


def commutator_audit(traj, deltas):
    """Transport-commutator residuals per stored state and mollifier radius.

    Returns a list of (t, residuals) with residuals aligned to ``deltas``.
    For smooth states the residual decays as the radius shrinks; callers
    check the rows decrease along a radius list sorted largest first.
    """
    rows = []
    for t, rho, u in zip(traj.times, traj.densities, traj.velocities):
        rows.append((t, [commutator_residual(rho, u, d) for d in deltas]))
    return rows


def rows_for_trajectory(traj, dp=None, commutator_delta=0.0):
    """Assemble the full diagnostics row for every stored time."""
    dp = dp if dp is not None else DefectParams()
    g = traj.params.gamma
    slacks = energy_audit(traj)
    rows = []
    for i, t in enumerate(traj.times):
        rho = traj.densities[i]
        led = traj.ledgers[i]
        commutator = 0.0
        if commutator_delta > 0.0:
            commutator = commutator_residual(rho, traj.velocities[i], commutator_delta)
        rows.append(
            DiagnosticsRow(
                t=t,
                mass=led.mass_now,
                drag2g_cum=led.drag2g_cum,
                drag3_cum=led.drag3_cum,
                pgamma_integral=pressure_integral(rho, g),
                dissipation_cum=(g - 1.0) * led.work_cum,
                grad_rho_gamma_half_cum=led.grad_rho_gamma_half_cum,
                energy_slack=slacks[i],
                rho_min=rho.min(),
                rho_max=rho.max(),
                pgamma_l2_running=float(np.sqrt(led.pgamma_l2_sq_cum)),
                defect_proxy=defect_proxy(rho, g, dp),
                commutator_l1=commutator,
            )
        )
    return rows


def _csv_line(cells):
    return ",".join(c if isinstance(c, str) else "%.17g" % c for c in cells)


def write_csv(path, header, rows):
    """Write ``header`` and one line per row; numbers as ``%.17g``, text as is."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(_csv_line(row) + "\n")


def write_rows_csv(rows, path):
    write_csv(path, CSV_HEADER, (astuple(row) for row in rows))
