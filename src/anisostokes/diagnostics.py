"""Audited functionals of a march's stored states and their CSV emission.

A march hands each stored state to an observer and keeps only its ledgers,
so every audit here takes per-state inputs, one state at a time
(``pressure_integral``, :func:`defect_proxy`, :func:`state_row`), plus the
final ledger, and does its arithmetic on those scalars afterwards: the
energy budget with its slack (:func:`energy_slacks`), the running pressure
L2 norm, the time-integrated oscillation-defect inequality
(:func:`defect_inequality`), the mollifier transport commutator and the
per-time CSV rows.  Nothing feeds back into the solver.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from anisostokes.fields import commutator_residual
from anisostokes.transport import pressure_field

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


CSV_HEADER = ",".join(f.name for f in fields(DiagnosticsRow))


@dataclass(frozen=True)
class DefectParams:
    """Window size (cells per side) and root regularization for the proxy."""

    window: int = 8
    h_reg: float = 1e-8

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be at least one cell")
        if self.h_reg < 0:
            raise ValueError("h_reg must be nonnegative")


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


def pressure_l2_audit(traj):
    """Running L2((0,T) x domain) norm of rho^gamma at the final time."""
    return float(np.sqrt(traj.ledgers[-1].pgamma_l2_sq_cum))


def _window_means(data, window):
    shape = data.shape
    for n in shape:
        if n % window != 0:
            raise ValueError(f"window {window} does not divide grid extent {n}")
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
    return defect_proxies(rho, gamma, (dp,))[0]


def defect_proxies(rho, gamma, dps, power=None):
    """:func:`defect_proxy` of one state for each of ``dps``, raising rho
    to gamma once for all of them; ``power`` is rho^gamma's data when the
    caller has it already."""
    grid = rho.grid
    if power is None:
        power = rho.data**gamma
    proxies = []
    for dp in dps:
        mean_r = _window_means(rho.data, dp.window)
        mean_p = _window_means(power, dp.window)
        gap = np.maximum(mean_p - mean_r**gamma, 0.0)
        vol_w = (dp.window * grid.h) ** grid.dim
        total = vol_w * float(np.sum((dp.h_reg + gap) ** (1.0 / gamma)))
        proxies.append(total - grid.volume * dp.h_reg ** (1.0 / gamma))
    return proxies


_DEFECT_SLACK = 1e-2


def defect_inequality(times, series, rho0_max, ledger, grid, gamma, dp):
    """Time-integrated defect inequality from the proxy series: (lhs, rhs, passed).

    ``series`` holds :func:`defect_proxy` at each of ``times``,
    ``rho0_max`` is the initial density's maximum and ``ledger`` the final
    one.  lhs integrates the proxy (trapezoid on the samples); rhs is the
    initial proxy carried flat over the horizon, plus the h-regularization
    correction h^(1/gamma) * int int |div w|, plus a slack of 1e-2 times
    the horizon, volume and density scale.
    """
    horizon = times[-1] - times[0]
    lhs = float(np.trapezoid(series, times)) if len(times) > 1 else 0.0
    scale = horizon * grid.volume * (1.0 + rho0_max)
    rhs = (
        horizon * series[0]
        + dp.h_reg ** (1.0 / gamma) * ledger.divu_l1_cum
        + _DEFECT_SLACK * scale
    )
    return lhs, rhs, lhs <= rhs


def commutator_audit(states, deltas):
    """Transport-commutator residuals per stored state and mollifier radius.

    ``states`` yields (t, rho, u) triples.  Returns a list of (t, residuals)
    with residuals aligned to ``deltas``.  For smooth states the residual
    decays as the radius shrinks; callers check the rows decrease along a
    radius list sorted largest first.
    """
    return [(t, [commutator_residual(rho, u, d) for d in deltas]) for t, rho, u in states]


def state_row(t, rho, u, ledger, e0, gamma, dp, commutator_delta=0.0):
    """The diagnostics row of one stored state (rho, u) with its ledger.

    ``e0`` is the initial int rho^gamma, or None when this is the initial
    state.  The row's ``pgamma_integral``, ``energy_slack``, ``rho_max`` and
    ``defect_proxy`` are the per-state inputs of the energy, maximum
    principle and defect audits, so a caller keeping the rows needs no
    field to run them.
    """
    pressure = pressure_field(rho, gamma)
    p = pressure.integral()
    (slack,) = energy_slacks(p if e0 is None else e0, [p], [ledger], gamma)
    commutator = 0.0
    if commutator_delta > 0.0:
        commutator = commutator_residual(rho, u, commutator_delta)
    return DiagnosticsRow(
        t=t,
        mass=ledger.mass_now,
        drag2g_cum=ledger.drag2g_cum,
        drag3_cum=ledger.drag3_cum,
        pgamma_integral=p,
        dissipation_cum=(gamma - 1.0) * ledger.work_cum,
        grad_rho_gamma_half_cum=ledger.grad_rho_gamma_half_cum,
        energy_slack=slack,
        rho_min=rho.min(),
        rho_max=rho.max(),
        pgamma_l2_running=float(np.sqrt(ledger.pgamma_l2_sq_cum)),
        defect_proxy=defect_proxies(rho, gamma, (dp,), pressure.data)[0],
        commutator_l1=commutator,
    )


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
