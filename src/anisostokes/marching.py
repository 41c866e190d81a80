"""Coupled density-velocity marching: fixed-point slabs and direct stepping.

The momentum balance carries no time derivative, so the coupled system
reduces to advancing the density and re-solving the tensor-weighted momentum
problem.  Two drivers are provided.

* ``picard_solve`` / ``march``: over a short time slab the velocity is a
  fixed point of "solve the momentum equation from the density transported
  by the mollified candidate velocity".  The map contracts on short slabs;
  ``march`` chains slabs and halves the slab length when contraction fails.
  A march builds its momentum operators and mollifier kernel once and
  hands them to every slab; each slab solves its start velocity once (a
  march reuses the velocity stored at the end of the previous slab), and
  the Picard iterations skip the mass/energy ledger, which only the final
  recording pass keeps.
* ``direct_march``: semi-implicit stepping without mollification, the limit
  object that the mollification sweep converges to.

Both drivers maintain the same mass ledger and cumulative energy accounting
that diagnostics consume.  Velocities inside a slab are piecewise constant
per substep; each stored (rho, u) pair has u freshly solved from rho, so the
momentum residual contract holds sample by sample.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from anisostokes.fields import (
    MollifierKernel,
    ScalarField,
    VectorField,
    div,
    grad_l2_norm,
    jacobian,
    mollify,
)
from anisostokes.stokes import StokesOperator, solve
from anisostokes.transport import (
    _TINY_SPEED,
    MassLedger,
    SolverParams,
    cfl_dt,
    continuity_step,
    pressure_field,
)
from anisostokes.viscosity import apply_tau

logger = logging.getLogger("anisostokes")

_CFL_GROWTH_MARGIN = 1.25
_MAX_CFL_RETRIES = 8


class NoContraction(Exception):
    """Picard iteration failed to contract on the requested slab."""


class SlabCollapse(Exception):
    """Slab halving hit its limit without restoring contraction."""


class _CFLBreach(Exception):
    """Internal: an iterate outran the substep CFL budget."""

    def __init__(self, speed):
        super().__init__(f"iterate speed {speed:.3e} breaks the CFL budget")
        self.speed = speed


@dataclass(frozen=True)
class Slab:
    """A time interval advanced with a fixed substep count."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ValueError(f"slab must have t1 > t0, got [{self.t0}, {self.t1}]")
        if self.steps < 1:
            raise ValueError("slab needs at least one substep")

    @property
    def dt(self):
        return (self.t1 - self.t0) / self.steps


@dataclass
class _Account:
    """Running ledger and cumulative integrals carried across slabs."""

    ledger: MassLedger
    work_cum: float = 0.0
    drag_hi_cum: float = 0.0
    drag_lo_cum: float = 0.0
    pgamma_l2_sq_cum: float = 0.0
    divu_l1_cum: float = 0.0
    min_rho: float = math.inf
    max_principle_margin: float = math.inf
    substeps: int = 0

    def copy(self):
        return _Account(
            ledger=self.ledger,
            work_cum=self.work_cum,
            drag_hi_cum=self.drag_hi_cum,
            drag_lo_cum=self.drag_lo_cum,
            pgamma_l2_sq_cum=self.pgamma_l2_sq_cum,
            divu_l1_cum=self.divu_l1_cum,
            min_rho=self.min_rho,
            max_principle_margin=self.max_principle_margin,
            substeps=self.substeps,
        )


@dataclass
class Trajectory:
    """Stored time samples of the coupled run plus cumulative accounting.

    Lists are parallel: entry i holds the state at ``times[i]`` and the
    cumulative integrals up to that time.  ``work_cum`` is the raw viscous
    work int tau : grad u (the energy audit applies its gamma-dependent
    prefactor); the drag energy columns already include the eta*gamma
    prefactor.
    """

    grid: object
    params: SolverParams
    tensor: object
    times: list = field(default_factory=list)
    densities: list = field(default_factory=list)
    velocities: list = field(default_factory=list)
    ledgers: list = field(default_factory=list)
    work_cum: list = field(default_factory=list)
    drag_hi_cum: list = field(default_factory=list)
    drag_lo_cum: list = field(default_factory=list)
    pgamma_l2_sq_cum: list = field(default_factory=list)
    divu_l1_cum: list = field(default_factory=list)
    min_rho_ever: float = math.inf
    max_principle_margin: float = math.inf
    slab_halvings: int = 0
    fixed_point_reports: list = field(default_factory=list)

    def __len__(self):
        return len(self.times)

    @property
    def final_time(self):
        return self.times[-1]

    @property
    def final_density(self):
        return self.densities[-1]

    def initial_pressure_integral(self):
        return pressure_field(self.densities[0], self.params.gamma).integral()

    def extend(self, other):
        """Append a trajectory that starts where this one ends."""
        if not self.times:
            skip = 0
        else:
            if abs(other.times[0] - self.times[-1]) > 1e-12 * max(1.0, abs(self.times[-1])):
                raise ValueError("trajectories do not abut in time")
            skip = 1
        self.times.extend(other.times[skip:])
        self.densities.extend(other.densities[skip:])
        self.velocities.extend(other.velocities[skip:])
        self.ledgers.extend(other.ledgers[skip:])
        self.work_cum.extend(other.work_cum[skip:])
        self.drag_hi_cum.extend(other.drag_hi_cum[skip:])
        self.drag_lo_cum.extend(other.drag_lo_cum[skip:])
        self.pgamma_l2_sq_cum.extend(other.pgamma_l2_sq_cum[skip:])
        self.divu_l1_cum.extend(other.divu_l1_cum[skip:])
        self.min_rho_ever = min(self.min_rho_ever, other.min_rho_ever)
        self.max_principle_margin = min(self.max_principle_margin, other.max_principle_margin)
        self.slab_halvings += other.slab_halvings
        self.fixed_point_reports.extend(other.fixed_point_reports)
        return self


class _OperatorCache:
    """Build momentum operators lazily, once per distinct time.

    A time-dependent tensor gets one operator per substep time; ``retain``
    drops those a slab no longer needs, so a march holds at most one slab's
    worth.
    """

    def __init__(self, tensor, grid, params):
        self.tensor = tensor
        self.grid = grid
        self.params = params
        self._static = None
        self._by_time = {}

    def retain(self, times):
        """Drop the per-time operators built for times not in ``times``."""
        keep = set(times)
        self._by_time = {t: op for t, op in self._by_time.items() if t in keep}

    def at(self, t):
        if not getattr(self.tensor, "time_dependent", False):
            if self._static is None:
                self._static = StokesOperator.build(
                    self.tensor,
                    self.grid,
                    rtol=self.params.stokes_rtol,
                    max_iter=self.params.stokes_max_iter,
                )
            return self._static
        op = self._by_time.get(t)
        if op is None:
            op = StokesOperator.build(
                self.tensor,
                self.grid,
                t=t,
                rtol=self.params.stokes_rtol,
                max_iter=self.params.stokes_max_iter,
            )
            self._by_time[t] = op
        return op


def _make_kernel(grid, delta):
    if delta <= 0.0:
        return None
    return MollifierKernel(grid, delta)


def _smooth(fieldlike, kernel):
    if kernel is None:
        return fieldlike
    return mollify(fieldlike, kernel)


def _forcing_at(f, t):
    if f is None:
        return None
    if callable(f):
        return f(t)
    return f


def _momentum_rhs(rho, f, t, params, kernel):
    q = _smooth(pressure_field(rho, params.gamma), kernel) * (-1.0)
    ft = _forcing_at(f, t)
    if ft is not None:
        q = q + ft
    return q


def _solve_velocity(ops, rho, f, t, params, kernel):
    return solve(ops.at(t), _momentum_rhs(rho, f, t, params, kernel))


def _viscous_work_integral(tensor, u, t, grid):
    J = jacobian(u)
    tau = apply_tau(tensor, 0.5 * (J + np.swapaxes(J, 0, 1)), t)
    return float(np.sum(tau * J)) * grid.cell_volume


def _advance(
    ops, kernel, v_samples, rho0, u_start, f, params, t0, dt,
    account=None, sink=None, store_every=1,
):
    """Advance rho under the given velocity samples, re-solving u as we go.

    ``u_start`` is the velocity solved from ``rho0`` at ``t0``; it is the
    first returned sample, so the slab start is never solved again.
    Returns the list of velocities, one per substep.
    When ``sink`` is a Trajectory the states, ``account``'s ledger and
    accumulators are recorded into it at the ``store_every`` cadence (plus
    the final time); with ``sink=None`` (Picard iterations) no accounting
    is done and the continuity steps run without a ledger.
    """
    grid = rho0.grid
    params_gamma = params.gamma
    rho = rho0
    out = []
    if sink is not None:
        account.min_rho = min(account.min_rho, rho0.min())

    def record(t, u):
        sink.times.append(t)
        sink.densities.append(rho)
        sink.velocities.append(u)
        sink.ledgers.append(account.ledger)
        sink.work_cum.append(account.work_cum)
        sink.drag_hi_cum.append(account.drag_hi_cum)
        sink.drag_lo_cum.append(account.drag_lo_cum)
        sink.pgamma_l2_sq_cum.append(account.pgamma_l2_sq_cum)
        sink.divu_l1_cum.append(account.divu_l1_cum)

    for j, vj in enumerate(v_samples):
        tj = t0 + j * dt
        u = u_start if j == 0 else _solve_velocity(ops, rho, f, tj, params, kernel)
        out.append(u)
        w = _smooth(vj, kernel)
        if dt > cfl_dt(w, params) * (1.0 + 1e-12):
            raise _CFLBreach(w.max_component_sum())
        if sink is None:
            rho, _ = continuity_step(rho, w, dt, params, None)
            continue
        if j % store_every == 0:
            record(tj, u)
        divw = div(w)
        max_before = rho.max()
        bound = 1.0 + 1.1 * dt * divw.linf_norm()
        account.divu_l1_cum += dt * float(np.abs(divw.data).sum()) * grid.cell_volume
        account.work_cum += dt * _viscous_work_integral(ops.tensor, u, tj, grid)
        rho, account.ledger = continuity_step(rho, w, dt, params, account.ledger)
        if params.eta > 0.0:
            egam = params.eta * params_gamma
            account.drag_hi_cum += dt * egam * float(
                np.sum(rho.data ** (3.0 * params_gamma - 1.0))
            ) * grid.cell_volume
            account.drag_lo_cum += dt * egam * float(
                np.sum(rho.data ** (params_gamma + 2.0))
            ) * grid.cell_volume
        account.pgamma_l2_sq_cum += dt * float(
            np.sum(rho.data ** (2.0 * params_gamma))
        ) * grid.cell_volume
        account.min_rho = min(account.min_rho, rho.min())
        account.max_principle_margin = min(
            account.max_principle_margin, bound * max_before - rho.max()
        )
        account.substeps += 1
    if sink is not None:
        u_final = _solve_velocity(ops, rho, f, t0 + len(v_samples) * dt, params, kernel)
        record(t0 + len(v_samples) * dt, u_final)
        sink.min_rho_ever = min(sink.min_rho_ever, account.min_rho)
        sink.max_principle_margin = min(sink.max_principle_margin, account.max_principle_margin)
    return out


def apply_B(tensor, v_samples, rho0, f, params, slab):
    """One application of the fixed-point map on piecewise-constant samples.

    Advances the density through the slab with advecting velocity given by
    the mollified ``v_samples`` and returns the momentum solves along the
    way, one velocity per substep.
    """
    grid = rho0.grid
    ops = _OperatorCache(tensor, grid, params)
    kernel = _make_kernel(grid, params.delta)
    u_start = _solve_velocity(ops, rho0, f, slab.t0, params, kernel)
    return _advance(ops, kernel, v_samples, rho0, u_start, f, params, slab.t0, slab.dt)


def _slab_grad_distance(ws, vs, dt):
    total = 0.0
    for w, v in zip(ws, vs):
        total += grad_l2_norm(w - v) ** 2
    return math.sqrt(dt * total)


def picard_solve(
    tensor,
    rho0,
    f,
    params,
    slab,
    v0=None,
    account=None,
    store_every=1,
):
    """Fixed-point solve on one slab; returns (Trajectory, contraction history).

    Iterates v <- B(v) from v0 (zero by default) until the slab-L2 norm of
    the velocity-gradient update drops below ``params.fp_tol``.  Raises
    NoContraction when the update ratios sit at or above one for three
    consecutive iterations, or when ``fp_max_iter`` is exhausted.  If an
    iterate outruns the substep CFL budget the slab is re-run with more
    substeps (same interval), up to a retry cap.

    This standalone entry builds its own momentum operators and mollifier
    kernel and solves the slab-start velocity from ``rho0`` once; ``march``
    shares all three across its slabs and gives bit-identical results.
    """
    grid = rho0.grid
    ops = _OperatorCache(tensor, grid, params)
    kernel = _make_kernel(grid, params.delta)
    u_start = _solve_velocity(ops, rho0, f, slab.t0, params, kernel)
    return _picard_slab(ops, kernel, rho0, u_start, f, params, slab, v0, account, store_every)


def _picard_slab(ops, kernel, rho0, u_start, f, params, slab, v0, account, store_every):
    """The fixed-point solve behind :func:`picard_solve` on shared operators.

    ``u_start`` is the velocity solved from ``rho0`` at ``slab.t0``; it
    serves substep 0 of every iteration and of the recording pass.
    """
    grid = rho0.grid
    steps = slab.steps
    start = v0

    for _attempt in range(_MAX_CFL_RETRIES):
        dt = (slab.t1 - slab.t0) / steps
        ops.retain(slab.t0 + j * dt for j in range(steps + 1))
        if start is None:
            v = [VectorField.zeros(grid)] * steps
        elif len(start) == steps:
            v = list(start)
        else:
            # piecewise-constant resample of the caller's start onto the
            # refined substep grid
            v = [start[min(int(j * len(start) / steps), len(start) - 1)] for j in range(steps)]
        history = []
        diff_prev = None
        bad_streak = 0
        try:
            for _k in range(params.fp_max_iter):
                w = _advance(ops, kernel, v, rho0, u_start, f, params, slab.t0, dt)
                diff = _slab_grad_distance(w, v, dt)
                if diff_prev is not None and diff_prev > 0.0:
                    ratio = diff / diff_prev
                    history.append(ratio)
                    bad_streak = bad_streak + 1 if ratio >= 1.0 else 0
                    if bad_streak >= 3:
                        raise NoContraction(
                            f"update ratios {history[-3:]} on slab [{slab.t0}, {slab.t1}]"
                        )
                v = w
                diff_prev = diff
                if diff <= params.fp_tol:
                    break
            else:
                raise NoContraction(
                    f"no convergence in {params.fp_max_iter} iterations "
                    f"(last update {diff_prev:.3e})"
                )
        except _CFLBreach as breach:
            dt_needed = min(
                params.dt_max,
                params.cfl * grid.h / (_CFL_GROWTH_MARGIN * max(breach.speed, 1e-30)),
            )
            steps = max(steps + 1, math.ceil((slab.t1 - slab.t0) / dt_needed))
            logger.info(
                "slab [%g, %g]: CFL breach, retrying with %d substeps",
                slab.t0,
                slab.t1,
                steps,
            )
            continue
        break
    else:
        raise NoContraction("iterates kept outrunning the CFL budget")

    # regenerate the density along the converged velocity, recording states
    # and cumulative accounting; the stored velocities are fresh solves from
    # the regenerated densities (one extra half-iteration, within fp_tol of
    # the converged samples)
    if account is None:
        account = _Account(ledger=MassLedger.fresh(rho0))
    traj = Trajectory(grid=grid, params=params, tensor=ops.tensor)
    _advance(
        ops, kernel, v, rho0, u_start, f, params, slab.t0, dt, account, traj, store_every
    )
    traj.fixed_point_reports.append((slab.t0, slab.t1, len(history) + 1, tuple(history)))
    return traj, history


def _estimate_steps(duration, u, params):
    # headroom of 1.5 below the advective limit only: velocities drift over
    # the slab, but dt_max is an unconditional cap and needs no margin
    speed = max(u.max_component_sum(), _TINY_SPEED)
    advective = params.cfl * u.grid.h / speed
    limit = min(params.dt_max, advective / 1.5)
    return max(1, math.ceil(duration / limit))


def march(tensor, rho0, f, params, t_end, slab_len, store_every=1, max_halvings=6):
    """Chain fixed-point slabs to t_end, halving the slab length on failure.

    One operator cache and one mollifier kernel serve every slab, and each
    slab starts from the velocity stored at the end of the previous one
    (solved from that same density at that same time).  For time-dependent
    tensors the cache keeps only the operators of the current slab's
    substep times.
    """
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    grid = rho0.grid
    ops = _OperatorCache(tensor, grid, params)
    kernel = _make_kernel(grid, params.delta)
    traj = Trajectory(grid=grid, params=params, tensor=tensor)

    u0 = _solve_velocity(ops, rho0, f, 0.0, params, kernel)
    if t_end == 0.0:
        account = _Account(ledger=MassLedger.fresh(rho0))
        traj.times.append(0.0)
        traj.densities.append(rho0)
        traj.velocities.append(u0)
        traj.ledgers.append(account.ledger)
        traj.work_cum.append(0.0)
        traj.drag_hi_cum.append(0.0)
        traj.drag_lo_cum.append(0.0)
        traj.pgamma_l2_sq_cum.append(0.0)
        traj.divu_l1_cum.append(0.0)
        traj.min_rho_ever = rho0.min()
        return traj

    account = _Account(ledger=MassLedger.fresh(rho0))
    t = 0.0
    rho = rho0
    u_cur = u0
    length = slab_len
    halvings = 0
    while t < t_end - 1e-12 * max(1.0, t_end):
        duration = min(length, t_end - t)
        steps = _estimate_steps(duration, u_cur, params)
        slab = Slab(t, t + duration, steps)
        try:
            piece, _history = _picard_slab(
                ops, kernel, rho, u_cur, f, params, slab, None, account.copy(), store_every
            )
        except NoContraction as fail:
            halvings += 1
            if halvings > max_halvings:
                raise SlabCollapse(
                    f"slab shrank {halvings - 1} times without contraction: {fail}"
                ) from fail
            length *= 0.5
            logger.info("halving slab length to %g after: %s", length, fail)
            continue
        # adopt the account the successful slab actually accumulated
        account.ledger = piece.ledgers[-1]
        account.work_cum = piece.work_cum[-1]
        account.drag_hi_cum = piece.drag_hi_cum[-1]
        account.drag_lo_cum = piece.drag_lo_cum[-1]
        account.pgamma_l2_sq_cum = piece.pgamma_l2_sq_cum[-1]
        account.divu_l1_cum = piece.divu_l1_cum[-1]
        account.min_rho = min(account.min_rho, piece.min_rho_ever)
        account.max_principle_margin = min(
            account.max_principle_margin, piece.max_principle_margin
        )
        traj.extend(piece)
        t = piece.final_time
        rho = piece.final_density
        u_cur = piece.velocities[-1]
    traj.slab_halvings = halvings
    return traj


def direct_march(tensor, rho0, f, params, t_end, store_every=1):
    """Semi-implicit coupled stepping without mollification (delta = 0)."""
    if params.delta != 0.0:
        raise ValueError("direct_march requires params.delta = 0")
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    grid = rho0.grid
    ops = _OperatorCache(tensor, grid, params)
    traj = Trajectory(grid=grid, params=params, tensor=tensor)
    account = _Account(ledger=MassLedger.fresh(rho0))
    rho = rho0
    t = 0.0
    step_index = 0

    def record(u):
        traj.times.append(t)
        traj.densities.append(rho)
        traj.velocities.append(u)
        traj.ledgers.append(account.ledger)
        traj.work_cum.append(account.work_cum)
        traj.drag_hi_cum.append(account.drag_hi_cum)
        traj.drag_lo_cum.append(account.drag_lo_cum)
        traj.pgamma_l2_sq_cum.append(account.pgamma_l2_sq_cum)
        traj.divu_l1_cum.append(account.divu_l1_cum)

    u = _solve_velocity(ops, rho, f, t, params, None)
    record(u)
    account.min_rho = rho.min()
    while t < t_end - 1e-12 * max(1.0, t_end):
        dt = min(cfl_dt(u, params), t_end - t)
        divu = div(u)
        max_before = rho.max()
        bound = 1.0 + 1.1 * dt * divu.linf_norm()
        account.divu_l1_cum += dt * float(np.abs(divu.data).sum()) * grid.cell_volume
        account.work_cum += dt * _viscous_work_integral(tensor, u, t, grid)
        rho, ledger = continuity_step(rho, u, dt, params, account.ledger)
        account.ledger = ledger
        if params.eta > 0.0:
            egam = params.eta * params.gamma
            account.drag_hi_cum += dt * egam * float(
                np.sum(rho.data ** (3.0 * params.gamma - 1.0))
            ) * grid.cell_volume
            account.drag_lo_cum += dt * egam * float(
                np.sum(rho.data ** (params.gamma + 2.0))
            ) * grid.cell_volume
        account.pgamma_l2_sq_cum += dt * float(
            np.sum(rho.data ** (2.0 * params.gamma))
        ) * grid.cell_volume
        account.min_rho = min(account.min_rho, rho.min())
        account.max_principle_margin = min(
            account.max_principle_margin, bound * max_before - rho.max()
        )
        t += dt
        step_index += 1
        u = _solve_velocity(ops, rho, f, t, params, None)
        if step_index % store_every == 0 or t >= t_end - 1e-12 * max(1.0, t_end):
            record(u)
    traj.min_rho_ever = account.min_rho
    traj.max_principle_margin = account.max_principle_margin
    return traj
