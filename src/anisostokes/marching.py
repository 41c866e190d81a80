"""Coupled density-velocity marching: fixed-point slabs and direct stepping.

The momentum balance carries no time derivative, so the coupled system
reduces to advancing the density and re-solving the tensor-weighted momentum
problem.  Two drivers are provided.

* ``picard_solve`` / ``march``: over a short time slab the velocity is a
  fixed point of "solve the momentum equation from the density transported
  by the mollified candidate velocity".  The map contracts on short slabs;
  ``march`` chains slabs and halves the slab length when contraction fails.
  A march builds its momentum operators and mollifier kernel once and
  hands them to every slab, together with its one trajectory and running
  account.  The iterates are (u_hat, w) pairs: u_hat is the ``rfftn``
  half spectrum of the solved velocity u and w = omega_delta * u the real
  advecting velocity, both made by one entry, ``_velocity_pair``.  For
  diagonal and constant laws one forward transform of rho^gamma yields
  u_hat = G q_hat and w is the inverse transform of K u_hat (the mollifier
  is a Fourier multiplier there); for varying laws the stencil mollifier
  makes q and w, and u_hat is the transform of the Krylov solution.  The
  Picard distance is a Parseval sum over u_hat - v_hat, and the recording
  pass takes div w and grad u from half spectra too, so real u is
  synthesized (one inverse transform) only where a state is stored: the
  trajectory, the slab starts and ``apply_B``'s result.  The zero start
  is the pair (0, 0); each slab solves its start pair once (a march
  carries the pair solved at the end of the previous slab), and each
  iteration releases an input pair as soon as its substep is done,
  accumulating the Picard distance on the way, so an iteration holds one
  slab's worth of pairs.  The iterations skip the mass/energy ledger,
  which only the final recording pass of a converged slab keeps.
* ``direct_march``: semi-implicit stepping without mollification, the limit
  object that the mollification sweep converges to.

Both drivers advance the density through one accountant, ``_Account.step``,
which keeps the mass ledger and the cumulative integrals that diagnostics
consume, and store states through ``Trajectory.record``.  Velocities inside
a slab are piecewise constant per substep; each stored (rho, u) pair has u
freshly solved from rho, so the momentum residual contract holds sample by
sample.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from anisostokes.fields import (
    MollifierKernel,
    VectorField,
    div_hat,
    grad_norm_sq_hat,
    jacobian_hat,
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
_MAX_SLAB_HALVINGS = 6


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


_CUMULATIVES = ("work_cum", "drag_hi_cum", "drag_lo_cum", "pgamma_l2_sq_cum", "divu_l1_cum")


def _viscous_work_integral(tensor, uhat, t, grid):
    J = jacobian_hat(grid, uhat)
    tau = apply_tau(tensor, 0.5 * (J + np.swapaxes(J, 0, 1)), t)
    return float(np.sum(tau * J)) * grid.cell_volume


@dataclass
class _Account:
    """Running ledger and cumulative integrals of one march."""

    ledger: MassLedger
    work_cum: float = 0.0
    drag_hi_cum: float = 0.0
    drag_lo_cum: float = 0.0
    pgamma_l2_sq_cum: float = 0.0
    divu_l1_cum: float = 0.0
    min_rho: float = math.inf
    max_principle_margin: float = math.inf

    @classmethod
    def fresh(cls, rho0):
        return cls(ledger=MassLedger.fresh(rho0), min_rho=rho0.min())

    def step(self, rho, w, what, uhat, t, dt, tensor, params):
        """One continuity step of ``rho`` under ``w`` with its accounting.

        ``what`` is the half spectrum of w, whose divergence enters the
        defect budget; ``uhat`` is that of the velocity solved at ``t``,
        whose stress power enters the viscous work.  Returns the advanced
        density.
        """
        grid = rho.grid
        gamma = params.gamma
        divw = div_hat(grid, what)
        max_before = rho.max()
        bound = 1.0 + 1.1 * dt * divw.linf_norm()
        self.divu_l1_cum += dt * float(np.abs(divw.data).sum()) * grid.cell_volume
        self.work_cum += dt * _viscous_work_integral(tensor, uhat, t, grid)
        rho, self.ledger = continuity_step(rho, w, dt, params, self.ledger)
        if params.eta > 0.0:
            egam = params.eta * gamma
            self.drag_hi_cum += dt * egam * float(
                np.sum(rho.data ** (3.0 * gamma - 1.0))
            ) * grid.cell_volume
            self.drag_lo_cum += dt * egam * float(
                np.sum(rho.data ** (gamma + 2.0))
            ) * grid.cell_volume
        self.pgamma_l2_sq_cum += dt * float(np.sum(rho.data ** (2.0 * gamma))) * grid.cell_volume
        self.min_rho = min(self.min_rho, rho.min())
        self.max_principle_margin = min(
            self.max_principle_margin, bound * max_before - rho.max()
        )
        return rho


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

    def record(self, t, rho, u, account):
        """Store the state at ``t`` with the running totals of ``account``."""
        self.times.append(t)
        self.densities.append(rho)
        self.velocities.append(u)
        self.ledgers.append(account.ledger)
        for name in _CUMULATIVES:
            getattr(self, name).append(getattr(account, name))
        self.min_rho_ever = account.min_rho
        self.max_principle_margin = account.max_principle_margin


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


def _velocity_pair(ops, kernel, rho, f, t, params):
    """(u_hat, w): the velocity solved from ``rho`` at ``t``, as its half
    spectrum, and the real advecting field w = omega_delta * u.

    The right side is q = f - omega_delta * rho^gamma.  In symbol mode both
    mollifications are the multiplier ``kernel.symbol``, so one forward
    transform of rho^gamma (and of f) yields u_hat = G q_hat, and w is the
    inverse transform of K u_hat.  In Krylov mode q and w come from the
    stencil :func:`mollify` and u_hat is the transform of the solved u.
    Without a kernel w is u.
    """
    op = ops.at(t)
    grid = rho.grid
    p = pressure_field(rho, params.gamma)
    ft = _forcing_at(f, t)
    if op.mode == "symbol":
        qhat = -grid.rfft(p.data)
        if kernel is not None:
            qhat *= kernel.symbol
        if ft is not None:
            qhat += grid.rfft(ft.data)
        uhat = op.solve_hat(qhat)
        what = uhat if kernel is None else kernel.symbol * uhat
        return uhat, VectorField.from_arrays(grid, grid.irfft(what))
    q = _smooth(p, kernel) * (-1.0)
    if ft is not None:
        q = q + ft
    u = solve(op, q)
    return grid.rfft(u.stacked()), _smooth(u, kernel)


def _velocity(pair, kernel):
    """The real velocity u of a pair: w itself without a kernel, else irfft(u_hat)."""
    uhat, w = pair
    if kernel is None:
        return w
    return VectorField.from_arrays(w.grid, w.grid.irfft(uhat))


def _advecting_hat(uhat, w, kernel, op):
    """The half spectrum of the pair (u_hat, w)'s w: u_hat without a kernel,
    K u_hat in symbol mode, the transform of w otherwise."""
    if kernel is None:
        return uhat
    if op.mode == "symbol":
        return kernel.symbol * uhat
    return w.grid.rfft(w.stacked())


def _pairs(samples, kernel):
    """Caller-given velocity samples as (v_hat, omega_delta * v) pairs."""
    return [(v.grid.rfft(v.stacked()), _smooth(v, kernel)) for v in samples]


def _advance(
    ops, kernel, pairs, rho0, start, f, params, t0, dt,
    account=None, sink=None, store_every=1,
):
    """Advance rho under the input samples, re-solving the velocity as we go.

    ``pairs`` holds one (v_hat, w = omega_delta * v) input sample per
    substep; rho is advected by w, and each list entry is released (set to
    None) as soon as its substep is done, so the input and the solved pairs
    together never hold more than one slab's worth.  ``start`` is the pair
    solved from ``rho0`` at ``t0``; it is the first solved pair, so the
    slab start is never solved again.

    With ``sink=None`` (a Picard iteration) no accounting is done, the
    continuity steps run without a ledger, and the result is the list of
    solved pairs, one per substep, with the slab distance
    ``(dt sum_j ||grad(u_j - v_j)||^2)^(1/2)`` accumulated along the way by
    Parseval on u_hat_j - v_hat_j.  When ``sink`` is a Trajectory, which
    already holds the state at ``t0``, every substep goes through
    ``account``, the later states are recorded into the sink at the
    ``store_every`` cadence (plus the final time), and the result is the
    pair solved at the slab end.
    """
    grid = rho0.grid
    rho = rho0
    out = []
    total = 0.0
    for j in range(len(pairs)):
        vhat, w = pairs[j]
        pairs[j] = None
        tj = t0 + j * dt
        pair = start if j == 0 else _velocity_pair(ops, kernel, rho, f, tj, params)
        if dt > cfl_dt(w, params) * (1.0 + 1e-12):
            raise _CFLBreach(w.max_component_sum())
        if sink is None:
            out.append(pair)
            total += grad_norm_sq_hat(grid, pair[0] - vhat)
            rho, _ = continuity_step(rho, w, dt, params, None)
            continue
        if j > 0 and j % store_every == 0:
            sink.record(tj, rho, _velocity(pair, kernel), account)
        what = _advecting_hat(vhat, w, kernel, ops.at(tj))
        rho = account.step(rho, w, what, pair[0], tj, dt, ops.tensor, params)
    if sink is None:
        return out, math.sqrt(dt * total)
    t1 = t0 + len(pairs) * dt
    end = _velocity_pair(ops, kernel, rho, f, t1, params)
    sink.record(t1, rho, _velocity(end, kernel), account)
    return end


def apply_B(tensor, v_samples, rho0, f, params, slab):
    """One application of the fixed-point map on piecewise-constant samples.

    Advances the density through the slab with advecting velocity given by
    the mollified ``v_samples`` and returns the momentum solves along the
    way, one velocity per substep.
    """
    grid = rho0.grid
    ops = _OperatorCache(tensor, grid, params)
    kernel = _make_kernel(grid, params.delta)
    start = _velocity_pair(ops, kernel, rho0, f, slab.t0, params)
    out, _ = _advance(
        ops, kernel, _pairs(v_samples, kernel), rho0, start, f, params, slab.t0, slab.dt
    )
    return [_velocity(pair, kernel) for pair in out]


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

    This standalone entry builds its own momentum operators, mollifier
    kernel and trajectory, records the slab start and accounts into
    ``account`` (a fresh one by default).  ``march`` shares all of them
    across its slabs, so a chain of ``picard_solve`` calls sharing one
    account gives bit-identical results.
    """
    grid = rho0.grid
    ops = _OperatorCache(tensor, grid, params)
    kernel = _make_kernel(grid, params.delta)
    start = _velocity_pair(ops, kernel, rho0, f, slab.t0, params)
    if account is None:
        account = _Account.fresh(rho0)
    traj = Trajectory(grid=grid, params=params, tensor=tensor)
    traj.record(slab.t0, rho0, _velocity(start, kernel), account)
    v0 = None if v0 is None else _pairs(v0, kernel)
    history, _end = _picard_slab(
        ops, kernel, rho0, start, f, params, slab, v0, traj, account, store_every
    )
    return traj, history


def _picard_slab(ops, kernel, rho0, start, f, params, slab, v0, traj, account, store_every):
    """The fixed-point solve behind :func:`picard_solve` on shared operators.

    ``start`` is the (u_hat, w) pair solved from ``rho0`` at ``slab.t0``;
    it serves substep 0 of every iteration and of the recording pass.
    ``v0`` is a list of (v_hat, w) pairs or None for the zero start.  Once the
    iteration converges the slab is recorded into ``traj``, which ends at
    the slab start, and accounted into ``account``; a NoContraction leaves
    both untouched.  Returns the contraction history and the pair solved
    at the slab end.
    """
    grid = rho0.grid
    steps = slab.steps
    if v0 is None:
        v0 = [(0.0, VectorField.zeros(grid))]

    for _attempt in range(_MAX_CFL_RETRIES):
        dt = (slab.t1 - slab.t0) / steps
        ops.retain(slab.t0 + j * dt for j in range(steps + 1))
        # piecewise-constant resample of the start onto the substep grid
        v = [v0[min(int(j * len(v0) / steps), len(v0) - 1)] for j in range(steps)]
        history = []
        diff_prev = None
        bad_streak = 0
        try:
            for _k in range(params.fp_max_iter):
                v, diff = _advance(ops, kernel, v, rho0, start, f, params, slab.t0, dt)
                if diff_prev is not None and diff_prev > 0.0:
                    ratio = diff / diff_prev
                    history.append(ratio)
                    bad_streak = bad_streak + 1 if ratio >= 1.0 else 0
                    if bad_streak >= 3:
                        raise NoContraction(
                            f"update ratios {history[-3:]} on slab [{slab.t0}, {slab.t1}]"
                        )
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
    end = _advance(
        ops, kernel, v, rho0, start, f, params, slab.t0, dt, account, traj, store_every
    )
    traj.fixed_point_reports.append((slab.t0, slab.t1, len(history) + 1, tuple(history)))
    return history, end


def _estimate_steps(duration, u, params):
    # headroom of 1.5 below the advective limit only: velocities drift over
    # the slab, but dt_max is an unconditional cap and needs no margin
    speed = max(u.max_component_sum(), _TINY_SPEED)
    advective = params.cfl * u.grid.h / speed
    limit = min(params.dt_max, advective / 1.5)
    return max(1, math.ceil(duration / limit))


def march(tensor, rho0, f, params, t_end, slab_len, store_every=1):
    """Chain fixed-point slabs to t_end, halving the slab length on failure.

    One operator cache, one mollifier kernel, one trajectory and one running
    account serve every slab; the initial state is recorded once, and each
    slab starts from the last stored state (whose velocity was solved from
    that same density at that same time).  For time-dependent tensors the
    cache keeps only the operators of the current slab's substep times.
    """
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    grid = rho0.grid
    ops = _OperatorCache(tensor, grid, params)
    kernel = _make_kernel(grid, params.delta)
    traj = Trajectory(grid=grid, params=params, tensor=tensor)
    account = _Account.fresh(rho0)
    pair = _velocity_pair(ops, kernel, rho0, f, 0.0, params)
    traj.record(0.0, rho0, _velocity(pair, kernel), account)
    length = slab_len
    halvings = 0
    while traj.final_time < t_end - 1e-12 * max(1.0, t_end):
        t = traj.final_time
        duration = min(length, t_end - t)
        slab = Slab(t, t + duration, _estimate_steps(duration, traj.velocities[-1], params))
        try:
            _history, pair = _picard_slab(
                ops, kernel, traj.final_density, pair, f, params, slab, None, traj,
                account, store_every,
            )
        except NoContraction as fail:
            halvings += 1
            if halvings > _MAX_SLAB_HALVINGS:
                raise SlabCollapse(
                    f"slab shrank {halvings - 1} times without contraction: {fail}"
                ) from fail
            length *= 0.5
            logger.info("halving slab length to %g after: %s", length, fail)
    traj.slab_halvings = halvings
    return traj


def direct_march(tensor, rho0, f, params, t_end, store_every=1):
    """Semi-implicit coupled stepping without mollification (delta = 0)."""
    if params.delta != 0.0:
        raise ValueError("direct_march requires params.delta = 0")
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    ops = _OperatorCache(tensor, rho0.grid, params)
    traj = Trajectory(grid=rho0.grid, params=params, tensor=tensor)
    account = _Account.fresh(rho0)
    rho = rho0
    t = 0.0
    step_index = 0
    uhat, u = _velocity_pair(ops, None, rho, f, t, params)
    traj.record(t, rho, u, account)
    while t < t_end - 1e-12 * max(1.0, t_end):
        dt = min(cfl_dt(u, params), t_end - t)
        rho = account.step(rho, u, uhat, uhat, t, dt, tensor, params)
        t += dt
        step_index += 1
        uhat, u = _velocity_pair(ops, None, rho, f, t, params)
        if step_index % store_every == 0 or t >= t_end - 1e-12 * max(1.0, t_end):
            traj.record(t, rho, u, account)
    return traj
