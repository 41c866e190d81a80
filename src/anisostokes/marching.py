"""Coupled density-velocity marching: fixed-point slabs and direct stepping.

The momentum balance carries no time derivative, so the coupled system
reduces to advancing the density and re-solving the tensor-weighted momentum
problem.  Two drivers are provided.

* ``picard_solve`` / ``march``: over a short time slab the velocity is a
  fixed point of the slab map B, "solve the momentum equation from the
  density transported by the mollified candidate velocity".  The map
  contracts on short slabs; ``march`` chains slabs and halves the slab
  length when contraction fails.
* ``direct_march``: semi-implicit stepping without mollification, the limit
  object that the mollification sweep converges to.

Each entry builds one ``_Momentum``: the momentum operator, the mollifier
kernel, the forcing, the parameters of a march and, for diagonal and
constant laws, the half-spectrum weights of the stress power.  It carries
a solved velocity as a (u_hat, w) pair: u_hat is the ``rfftn`` half
spectrum of the velocity u solved from rho and w = omega_delta * u the
real advecting velocity.  For diagonal and constant laws one forward
transform of rho^gamma yields u_hat = G q_hat, and w, the inverse
transform of K u_hat (the mollifier is a Fourier multiplier there), is
not held: a fresh pair is (u_hat, None), and ``_Momentum.advecting`` makes
w, bit for bit the same each time, where a step or a CFL check uses it.
So a slab's list of pairs holds one half spectrum per substep.  Only a
stored state (a slab start or end, or a state of ``direct_march``) holds
its w, since it is read there more than once.  For varying laws the
stencil mollifier makes q and w, and u_hat is the transform of the Krylov
solution; such a pair, the zero start and caller-given samples always
hold their w.  Real u and w are synthesized (one inverse transform each)
only where one is asked for: u by an observer of the stored states, at
the slab starts and in ``apply_B``'s result, w by a step, a CFL check or
a stored state.

A slab runs in two passes over one list of input pairs, one per substep.
``_iterate`` is one Picard pass: it advects rho by each input w without
accounting, solves the next velocity from the advected density, releases
each input as soon as its substep is done and returns the solved pairs with
the Parseval distance over u_hat - v_hat.  Once the iterates converge and
pass the CFL check, ``_record`` replays the slab along them through the
accountant and the trajectory.  The zero start is the pair (0, 0), and
each slab solves its start pair once (a march carries the pair solved at
the end of the previous slab).

The discrete map is causal: the density at substep j depends only on the
input w at substeps 0 ... j-1.  Pass k takes the output of pass k-1 as its
input, so by induction, for k >= 2, substeps j <= k-2 of pass k reproduce
pass k-1 bit for bit (the density, the solved pair, and a distance term of
exactly 0.0).  Pass k >= 3 therefore starts at substep k-2 from the
density pass k-1 reached after its own first step, reuses its input pair
there and solves only later substeps; the skipped distance terms are +0.0,
so the distance, the iterates and every output are bitwise those of full
passes.  The recording pass of a slab that took K passes is pass K+1 and
solves only substeps j >= K.  It steps only substeps j >= K-1 as well:
the first step of pass k >= 2, at substep k-2, has the density and the
input pair of the recording pass there, so each pass keeps that step
(the density and its two drag-channel integrals) and the recording pass
accounts for the K-1 kept steps instead of taking them again.

Both drivers advance the density through ``_step`` (one continuity step
with its drag removal split over the two channels) and one accountant,
``_account``, which takes a frozen :class:`Ledger` (the mass identity and
the cumulative integrals that diagnostics consume) and a step and returns
the next ledger.  It takes
int |grad rho^{gamma/2}|^2 from a half spectrum, and the stress power from
half spectra for diagonal and constant laws and from ``viscous_work`` of
the stored u for varying ones.  They store each state with its ledger
through ``Trajectory.record``.  Velocities inside a slab are piecewise
constant per substep; each stored (rho, u) pair has u freshly solved from
rho, so the momentum residual contract holds sample by sample.

A stored state reaches ``Trajectory.record`` with its velocity as a
zero-argument callable that synthesizes u once, on first call.  The
trajectory keeps only the times, the ledgers and the slab reports; each
state goes once, in time order, to the ``observe(t, rho, velocity, ledger)``
callback that ``march``, ``direct_march`` and ``picard_solve`` take, and u
is made only if the observer or the march asks for it (the march does at
slab starts, to size the substeps).  The march itself carries the state
each slab starts from (:class:`_Stored`).

A failure inside a march (any :class:`~anisostokes.fields.SolverFailure`,
and ``FloatingPointError`` where numpy raises on floating-point errors)
keeps its class and gets the slab interval, or for ``direct_march`` the
step time, added to its message by ``_located`` alone, so the message
names it once.  A slab whose CFL budget needs more than ``_MAX_SUBSTEPS``
substeps raises :class:`SubstepOverflow` before any substep is laid out.
"""

from __future__ import annotations

import functools
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from anisostokes.fields import (
    MollifierKernel,
    ScalarField,
    SolverFailure,
    VectorField,
    div_hat,
    grad_norm_sq_hat,
    mollify,
)
from anisostokes.stokes import StokesOperator, solve
from anisostokes.transport import (
    _TINY_SPEED,
    CFL,
    CFLBreach,
    cfl_dt,
    check_cfl,
    continuity_step,
    pressure_field,
)
from anisostokes.viscosity import viscous_work

logger = logging.getLogger("anisostokes")

_CFL_GROWTH_MARGIN = 1.25
_MAX_CFL_RETRIES = 8
_MAX_SLAB_HALVINGS = 6
# a slab needing more substeps than this is a runaway velocity, not a march
_MAX_SUBSTEPS = 10_000


class NoContraction(SolverFailure):
    """Picard iteration failed to contract on the requested slab."""


class SlabCollapse(SolverFailure):
    """Slab halving hit its limit without restoring contraction."""


class SubstepOverflow(SolverFailure):
    """A slab's CFL budget needs more than ``_MAX_SUBSTEPS`` substeps."""


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


def _power_weights(tensor, grid):
    """The stress power of a law constant in space, as half-spectrum weights.

    Such a law has tau(D)_hat = A D_hat.  With J_hat_ij = i k_j u_hat_i and
    the minor symmetry of A, conj(J_hat) : tau_hat = conj(u_hat) . M u_hat
    for M_ik(k) = sum_jl A_ijkl k_j k_l (k the Nyquist-zeroed derivative
    wavenumbers), so by Parseval int tau(D(u)) : grad u is the sum over the
    half spectrum of c(k) h^d / N Re(conj(u_hat) . M u_hat).  Returns
    (i, j, weight) for i <= j, the weight being
    :attr:`GridSpec.parseval_weight` times M_ii on the diagonal and times
    M_ij + M_ji off it; the integral is then
    sum Re(vdot(u_hat_i, weight * u_hat_j)).
    """
    k = grid.ik.imag
    m = np.einsum("ijkl,j...,l...->ik...", tensor.tensor_at(), k, k)
    pw = grid.parseval_weight
    d = grid.dim
    return [
        (i, j, (m[i, i] if i == j else m[i, j] + m[j, i]) * pw)
        for i in range(d)
        for j in range(i, d)
    ]


@dataclass(frozen=True)
class Ledger:
    """Running accounts of a march up to one stored state.

    ``mass_now + drag2g_cum + drag3_cum`` equals ``mass_initial`` up to
    floating-point summation noise.  ``grad_rho_gamma_half_cum`` is 4 eps
    (1 - 1/gamma) int |grad rho^{gamma/2}|^2 dt, ``work_cum`` the raw
    viscous work int tau : grad u (the energy audit applies its
    gamma-dependent prefactor), and the drag energy terms already include
    the eta*gamma prefactor.  ``min_rho`` and ``max_principle_margin`` are
    running minima over every step so far.
    """

    mass_now: float
    mass_initial: float
    drag2g_cum: float = 0.0
    drag3_cum: float = 0.0
    grad_rho_gamma_half_cum: float = 0.0
    work_cum: float = 0.0
    drag_hi_cum: float = 0.0
    drag_lo_cum: float = 0.0
    pgamma_l2_sq_cum: float = 0.0
    divu_l1_cum: float = 0.0
    min_rho: float = math.inf
    max_principle_margin: float = math.inf

    @classmethod
    def fresh(cls, rho0):
        m = rho0.integral()
        return cls(mass_now=m, mass_initial=m, min_rho=rho0.min())

    def identity_defect(self):
        return abs(self.mass_now + self.drag2g_cum + self.drag3_cum - self.mass_initial)


def _step(rho, w, dt, params):
    """One continuity step of ``rho`` under ``w``, with its drag removal split.

    The removal is split between the two drag channels in proportion to
    r^{2 gamma} and r^3 of the new density r.  Returns the advanced
    density, the removal's integrals over the r^{2 gamma} and r^3
    channels, and the sum of r^{2 gamma} over the cells (which the split
    needs and the ledger's pressure term reads).
    """
    rho, removed = continuity_step(rho, w, dt, params)
    r = rho.data
    r2g = r ** (2.0 * params.gamma)
    drag2g = drag3 = 0.0
    if removed is not None:
        vol = rho.grid.cell_volume
        channels = r2g + r**3
        positive = channels > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            w2 = np.where(positive, r2g / np.where(positive, channels, 1.0), 0.0)
        d2g = removed * w2
        drag2g = float(d2g.sum()) * vol
        drag3 = float((removed - d2g).sum()) * vol
    return rho, drag2g, drag3, float(np.sum(r2g))


def _account(ledger, rho, step, given, solved, dt, mom):
    """The ledger after ``step``, the :func:`_step` from ``rho`` under the pair ``given``.

    ``given`` is the (u_hat, w) pair whose w advected rho; the divergence of
    w, taken from :meth:`_Momentum.advecting_hat`, enters the defect budget.
    ``solved`` is the pair solved at the step start, whose stress power
    (:meth:`_Momentum.stress_power`) enters the viscous work.
    int |grad r^{gamma/2}|^2 of the new density r is the Parseval sum over
    the half spectrum of r^{gamma/2}.  For a diagonal or constant law the
    ledger takes two real transforms per step: the inverse one of div w
    and the forward one of r^{gamma/2}.  The march's parameters are
    ``mom.params``.
    """
    params = mom.params
    grid = rho.grid
    gamma = params.gamma
    vol = grid.cell_volume
    divw = div_hat(grid, mom.advecting_hat(given))
    max_before = rho.max()
    bound = 1.0 + 1.1 * dt * divw.linf_norm()
    divu_l1 = dt * float(np.abs(divw.data).sum()) * vol
    work = dt * mom.stress_power(solved)
    rho, drag2g, drag3, r2g_sum = step
    r = rho.data
    drag_hi = drag_lo = grad_term = 0.0
    if params.eps > 0.0:
        g2 = grad_norm_sq_hat(grid, [grid.rfft(r ** (0.5 * gamma))])
        grad_term = 4.0 * params.eps * (1.0 - 1.0 / gamma) * g2 * dt
    if params.eta > 0.0:
        egam = params.eta * gamma
        drag_hi = dt * egam * float(np.sum(r ** (3.0 * gamma - 1.0))) * vol
        drag_lo = dt * egam * float(np.sum(r ** (gamma + 2.0))) * vol
    return Ledger(
        mass_now=rho.integral(),
        mass_initial=ledger.mass_initial,
        drag2g_cum=ledger.drag2g_cum + drag2g,
        drag3_cum=ledger.drag3_cum + drag3,
        grad_rho_gamma_half_cum=ledger.grad_rho_gamma_half_cum + grad_term,
        work_cum=ledger.work_cum + work,
        drag_hi_cum=ledger.drag_hi_cum + drag_hi,
        drag_lo_cum=ledger.drag_lo_cum + drag_lo,
        pgamma_l2_sq_cum=ledger.pgamma_l2_sq_cum + dt * r2g_sum * vol,
        divu_l1_cum=ledger.divu_l1_cum + divu_l1,
        min_rho=min(ledger.min_rho, rho.min()),
        max_principle_margin=min(ledger.max_principle_margin, bound * max_before - rho.max()),
    )


def _unobserved(_t, _rho, _velocity, _ledger):
    """The observer of a march whose states nobody reads."""


@dataclass
class Trajectory:
    """The times of a march's stored states, each with its ledger.

    Lists are parallel: entry i is the time of the i-th stored state and
    the :class:`Ledger` of the march up to that time.  The states themselves
    go to ``observe``; the trajectory keeps no field.
    """

    times: list = field(default_factory=list)
    ledgers: list = field(default_factory=list)
    slab_halvings: int = 0
    fixed_point_reports: list = field(default_factory=list)
    observe: object = _unobserved

    def __len__(self):
        return len(self.times)

    @property
    def min_rho_ever(self):
        return self.ledgers[-1].min_rho

    @property
    def max_principle_margin(self):
        return self.ledgers[-1].max_principle_margin

    def record(self, t, rho, velocity, ledger):
        """Keep ``t`` and the ledger of the march up to ``t``, and hand the
        state to ``observe(t, rho, velocity, ledger)``; ``velocity`` is a
        zero-argument callable making u."""
        self.times.append(t)
        self.ledgers.append(ledger)
        self.observe(t, rho, velocity, ledger)


def _trajectory(observe):
    return Trajectory(observe=_unobserved if observe is None else observe)


@dataclass(frozen=True)
class _Stored:
    """A stored state as a march carries it to the next slab.

    ``pair`` is the (u_hat, w) pair solved from ``rho`` at ``t``, w made,
    ``velocity`` the memoized callable of its real u that the observer
    was given, and ``ledger`` the accounts up to ``t``.
    """

    t: float
    rho: ScalarField
    pair: tuple
    velocity: object
    ledger: Ledger


def _store(traj, mom, t, rho, pair, ledger):
    """Record the state at ``t`` into ``traj`` and return it as a :class:`_Stored`."""
    pair = mom.filled(pair)
    state = _Stored(t, rho, pair, mom.lazy_velocity(pair), ledger)
    traj.record(t, rho, state.velocity, ledger)
    return state


@contextmanager
def _located(where):
    """Add ``where`` to the message of a solver failure raised inside."""
    try:
        yield
    except (SolverFailure, FloatingPointError) as exc:
        exc.args = (f"{exc} {where}",)
        raise


class _Momentum:
    """The momentum solve of one march and how it carries a solved velocity.

    ``op`` is the one momentum operator of the march.  The mollifier
    ``kernel`` is None at delta = 0, where w is u itself.  ``forcing`` is
    None or a field on ``grid``, constant in time.  In symbol mode
    ``power_weights`` holds the :func:`_power_weights` of the law; it is
    None in Krylov mode.
    """

    def __init__(self, tensor, grid, f, params):
        if f is not None and not isinstance(f, ScalarField):
            raise TypeError(f"f must be None or a ScalarField, got {type(f).__name__}")
        if f is not None and f.grid != grid:
            raise ValueError(f"f is on grid {f.grid.shape}, the march on {grid.shape}")
        self.tensor = tensor
        self.grid = grid
        self.forcing = f
        self.params = params
        self.kernel = None if params.delta <= 0.0 else MollifierKernel(grid, params.delta)
        self.op = StokesOperator.build(tensor, grid)
        self.power_weights = _power_weights(tensor, grid) if self.op.mode == "symbol" else None

    @functools.cached_property
    def f(self):
        """The forcing as the solve adds it: None, the field in Krylov mode,
        or in symbol mode its half spectrum, taken once, at the march's first
        solve (so a failure there is located as the solve's own)."""
        f = self.forcing
        return self.grid.rfft(f.data) if f is not None and self.op.mode == "symbol" else f

    def _smooth(self, fieldlike):
        return fieldlike if self.kernel is None else mollify(fieldlike, self.kernel)

    def pair(self, rho):
        """(u_hat, w): the velocity solved from ``rho``, as its half
        spectrum, and the real advecting field w = omega_delta * u.

        The right side is q = f - omega_delta * rho^gamma.  In symbol mode both
        mollifications are the multiplier ``kernel.symbol``, so one forward
        transform of rho^gamma, plus the forcing's half spectrum, yields
        u_hat = G q_hat, and the pair is (u_hat, None): w is the inverse
        transform of K u_hat, which :meth:`advecting` makes where it is used.
        That trades transforms as well as memory: the recording pass makes
        no w for its fresh solves, which only their u_hat serves, while the
        CFL check of a converged slab makes one per substep.  In Krylov mode
        q and w come from the stencil :func:`mollify` and u_hat is the
        transform of the solved u; w cannot be rebuilt from u_hat there, so
        the pair holds it.
        """
        op = self.op
        grid = rho.grid
        p = pressure_field(rho, self.params.gamma)
        if op.mode == "symbol":
            qhat = -grid.rfft(p.data)
            if self.kernel is not None:
                qhat *= self.kernel.symbol
            if self.f is not None:
                qhat += self.f
            return op.solve_hat(qhat), None
        q = self._smooth(p) * (-1.0)
        if self.f is not None:
            q = q + self.f
        u = solve(op, q)
        return grid.rfft(u.stacked()), self._smooth(u)

    def velocity(self, pair):
        """The real velocity u of a pair: :meth:`advecting` without a kernel,
        where w is u, else irfft(u_hat).

        Without a kernel a stored pair's u is its w itself; a fresh symbol
        pair's u is made, one inverse transform, on each call.
        """
        if self.kernel is None:
            return self.advecting(pair)
        return VectorField.from_arrays(self.grid, self.grid.irfft(pair[0]))

    def lazy_velocity(self, pair):
        """:meth:`velocity` of ``pair`` as a callable that makes it once, on first call."""
        return functools.cache(functools.partial(self.velocity, pair))

    def advecting_hat(self, pair):
        """The half spectrum of the pair's w: u_hat without a kernel, K u_hat
        in symbol mode, the transform of w otherwise.

        It takes no transform in symbol mode, so it serves a pair whose w
        slot is None; a Krylov pair always holds its w.
        """
        uhat, w = pair
        if self.kernel is None:
            return uhat
        if self.op.mode == "symbol":
            return self.kernel.symbol * uhat
        return w.grid.rfft(w.stacked())

    def advecting(self, pair):
        """The pair's real advecting field w: the one it holds, or else
        irfft(:meth:`advecting_hat`), made on each call for its caller to drop."""
        w = pair[1]
        if w is not None:
            return w
        return VectorField.from_arrays(self.grid, self.grid.irfft(self.advecting_hat(pair)))

    def filled(self, pair):
        """``pair`` with its w made, for a state whose w is read more than once."""
        return pair if pair[1] is not None else (pair[0], self.advecting(pair))

    def stress_power(self, pair):
        """int tau(D(u)) : grad u of the pair's velocity u.

        A sum of u_hat over the :attr:`power_weights`, with no transform, in
        symbol mode; in Krylov mode :func:`viscous_work` of :meth:`velocity`,
        the u an observer of the pair is given.
        """
        if self.power_weights is None:
            return viscous_work(self.tensor, self.velocity(pair)).total
        uhat = pair[0]
        return sum(float(np.vdot(uhat[i], w * uhat[j]).real) for i, j, w in self.power_weights)

    def pairs(self, samples):
        """Caller-given velocity samples as (v_hat, omega_delta * v) pairs."""
        return [(v.grid.rfft(v.stacked()), self._smooth(v)) for v in samples]


def _iterate(mom, pairs, rho, start, dt, settled=0):
    """One Picard pass: advance rho under the input samples, re-solving as we go.

    ``pairs`` holds one (v_hat, w = omega_delta * v) input sample per
    substep; rho is advected by w (:meth:`_Momentum.advecting`, made for
    the step and dropped if the pair holds none) without accounting, and
    each list entry is released (set to None) as soon as its substep is
    done, so the input and the solved pairs together never hold more than
    one slab's worth.
    ``start`` is the pair solved from the slab-start density; it
    is the first solved pair, so the slab start is never solved again.

    ``settled`` is the number s of leading substeps whose solved pairs equal
    their inputs, and ``rho`` is the density at substep s.  Because the map
    is causal, pass k >= 2 given the output of pass k-1 has s = k-2 such
    substeps: the pass keeps the inputs before s, reuses the input pair at s
    without a solve and takes one continuity step from there; every later
    substep is solved and stepped.  The distance terms of substeps 1 ... s
    are exactly 0.0 and are not summed.  s = 0 with ``rho`` the slab-start
    density is a full pass.

    Returns the solved pairs, one per substep, the slab distance
    ``(dt sum_j ||grad(u_j - v_j)||^2)^(1/2)``, a Parseval sum over
    u_hat_j - v_hat_j, and the pass's first step as :func:`_step` gives
    it.  Its density is the density at the start of the next pass's
    unsettled part; for pass k >= 2 the step is the recording pass's step
    at substep s, bit for bit.
    """
    out = pairs[:settled]
    pairs[:settled] = [None] * len(out)
    total = 0.0
    first = None
    for j in range(settled, len(pairs)):
        given = pairs[j]
        pairs[j] = None
        if j > settled:
            solved = mom.pair(rho)
        else:
            solved = start if j == 0 else given
        out.append(solved)
        if j == 0 or j > settled:
            total += grad_norm_sq_hat(mom.grid, solved[0] - given[0])
        w = mom.advecting(given)
        if first is None:
            first = _step(rho, w, dt, mom.params)
            rho = first[0]
        else:
            rho, _ = continuity_step(rho, w, dt, mom.params)
    return out, math.sqrt(dt * total), first


def _record(mom, pairs, start, dt, traj, store_every, kept):
    """The recording pass of a converged slab.

    Advances rho from the slab-start state ``start`` (a :class:`_Stored`)
    under the converged ``pairs`` (released as in :func:`_iterate`) through
    :func:`_account`.  It is the next Picard pass with accounting.
    ``kept`` holds the first steps of Picard passes 2 ... K of a slab that
    took K passes, which are its own steps at substeps 0 ... K-2; it takes
    only the later steps.  On its first len(kept) + 1 substeps
    the solved pair is the converged pair itself, and the start pair serves
    substep 0; every later velocity is a fresh solve from the advected
    density (within fp_tol of the converged samples).  The later states go
    to ``traj`` at the ``store_every`` cadence plus the final time.
    Returns the stored state at the slab end.
    """
    t0, rho, ledger = start.t, start.rho, start.ledger
    for j in range(len(pairs)):
        given = pairs[j]
        pairs[j] = None
        pair = given if j <= len(kept) else mom.pair(rho)
        if j > 0 and j % store_every == 0:
            traj.record(t0 + j * dt, rho, mom.lazy_velocity(pair), ledger)
        step = kept[j] if j < len(kept) else _step(rho, mom.advecting(given), dt, mom.params)
        ledger = _account(ledger, rho, step, given, pair, dt, mom)
        rho = step[0]
    t1 = t0 + len(pairs) * dt
    return _store(traj, mom, t1, rho, mom.pair(rho), ledger)


def apply_B(tensor, v_samples, rho0, f, params, slab):
    """One application of the fixed-point map on piecewise-constant samples.

    Advances the density through the slab with advecting velocity given by
    the mollified ``v_samples`` and returns the momentum solves along the
    way, one velocity per substep.
    """
    mom = _Momentum(tensor, rho0.grid, f, params)
    out, _, _ = _iterate(mom, mom.pairs(v_samples), rho0, mom.pair(rho0), slab.dt)
    return [mom.velocity(pair) for pair in out]


def picard_solve(tensor, rho0, f, params, slab, v0=None, ledger=None, observe=None):
    """Fixed-point solve on one slab; returns (Trajectory, contraction history).

    ``f`` is the forcing, None or a :class:`ScalarField` on the grid of
    ``rho0``, constant in time.  Iterates v <- B(v) from v0 (zero by
    default) until the slab-L2 norm of the velocity-gradient update drops
    below ``params.fp_tol``.  Raises NoContraction when the update ratios
    sit at or above one for three consecutive iterations, or when
    ``fp_max_iter`` is exhausted.  If an iterate outruns the substep CFL
    budget the slab is re-run with more substeps (same interval), up to a
    retry cap.

    This standalone entry builds its own momentum object and trajectory and
    records the slab start with ``ledger``, the accounts up to ``slab.t0``
    (a fresh ledger by default).  ``march`` shares its momentum object and
    trajectory across its slabs, so a chain of ``picard_solve`` calls, each
    given the last ledger of the one before, gives bit-identical results.
    ``observe`` is as for :func:`march`.
    """
    mom = _Momentum(tensor, rho0.grid, f, params)
    traj = _trajectory(observe)
    if ledger is None:
        ledger = Ledger.fresh(rho0)
    with _located(f"on slab [{slab.t0}, {slab.t1}]"):
        start = _store(traj, mom, slab.t0, rho0, mom.pair(rho0), ledger)
        v0 = None if v0 is None else mom.pairs(v0)
        history, _end = _picard_slab(mom, start, slab, v0, traj, 1)
    return traj, history


def _picard_slab(mom, start, slab, v0, traj, store_every):
    """The fixed-point solve behind :func:`picard_solve` on a shared momentum object.

    ``start`` is the stored state at ``slab.t0``; its pair serves substep 0
    of every pass.  ``v0`` is a list of (v_hat, w) pairs or None for the
    zero start.  The converged iterates must pass the CFL check too, since
    the recording pass advects with them.  Once they do, the slab is
    recorded into ``traj``; a NoContraction leaves it untouched.  Returns
    the contraction history and the stored state at the slab end.
    """
    params = mom.params
    steps = slab.steps
    rho0 = start.rho
    if v0 is None:
        v0 = [(0.0, VectorField.zeros(mom.grid))]

    for _attempt in range(_MAX_CFL_RETRIES):
        if steps > _MAX_SUBSTEPS:
            raise SubstepOverflow(f"needs {steps:.3g} substeps, more than {_MAX_SUBSTEPS}")
        dt = (slab.t1 - slab.t0) / steps
        # piecewise-constant resample of the start onto the substep grid
        v = [v0[min(int(j * len(v0) / steps), len(v0) - 1)] for j in range(steps)]
        history = []
        diff_prev = None
        bad_streak = 0
        # the first steps of passes 2, 3, ...: the recording pass's steps
        # at substeps 0, 1, ...
        kept, rho = [], rho0
        try:
            for k in range(1, params.fp_max_iter + 1):
                v, diff, first = _iterate(mom, v, rho, start.pair, dt, len(kept))
                if k >= 2:
                    # pass k + 1 reproduces substeps 0 ... k - 1 of pass k
                    kept.append(first)
                    rho = first[0]
                if diff_prev is not None and diff_prev > 0.0:
                    ratio = diff / diff_prev
                    history.append(ratio)
                    bad_streak = bad_streak + 1 if ratio >= 1.0 else 0
                    if bad_streak >= 3:
                        raise NoContraction(f"update ratios {history[-3:]}")
                diff_prev = diff
                if diff <= params.fp_tol:
                    break
            else:
                raise NoContraction(
                    f"no convergence in {params.fp_max_iter} iterations "
                    f"(last update {diff_prev:.3e})"
                )
            for pair in v:
                check_cfl(mom.advecting(pair), dt, params)
        except CFLBreach as breach:
            dt_needed = min(
                params.dt_max,
                CFL * mom.grid.h / (_CFL_GROWTH_MARGIN * max(breach.speed, 1e-30)),
            )
            steps = max(steps + 1, math.ceil((slab.t1 - slab.t0) / dt_needed))
            logger.info(
                "slab [%g, %g]: CFL breach, retrying with %d substeps", slab.t0, slab.t1, steps
            )
            continue
        break
    else:
        raise NoContraction("iterates kept outrunning the CFL budget")

    end = _record(mom, v, start, dt, traj, store_every, kept)
    traj.fixed_point_reports.append((slab.t0, slab.t1, len(history) + 1, tuple(history)))
    return history, end


def _estimate_steps(duration, u, params):
    # headroom of 1.5 below the advective limit only: velocities drift over
    # the slab, but dt_max is an unconditional cap and needs no margin
    speed = max(u.max_component_sum(), _TINY_SPEED)
    advective = CFL * u.grid.h / speed
    limit = min(params.dt_max, advective / 1.5)
    return max(1, math.ceil(duration / limit))


def march(tensor, rho0, f, params, t_end, slab_len, store_every=1, observe=None):
    """Chain fixed-point slabs to t_end, halving the slab length on failure.

    One momentum object and one trajectory serve every slab; the initial
    state is recorded once, and each slab starts from the last stored state
    (whose velocity was solved from that same density)
    and its ledger.  Each stored state goes to ``observe(t, rho, velocity,
    ledger)``, if given, in time order; the returned trajectory keeps its
    time and ledger (see :meth:`Trajectory.record`).
    """
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    mom = _Momentum(tensor, rho0.grid, f, params)
    traj = _trajectory(observe)
    with _located("at t = 0.0"):
        state = _store(traj, mom, 0.0, rho0, mom.pair(rho0), Ledger.fresh(rho0))
    length = slab_len
    halvings = 0
    while state.t < t_end - 1e-12 * max(1.0, t_end):
        duration = min(length, t_end - state.t)
        steps = _estimate_steps(duration, state.velocity(), params)
        slab = Slab(state.t, state.t + duration, steps)
        try:
            with _located(f"on slab [{slab.t0}, {slab.t1}]"):
                _history, state = _picard_slab(mom, state, slab, None, traj, store_every)
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


def direct_march(tensor, rho0, f, params, t_end, store_every=1, observe=None):
    """Semi-implicit coupled stepping without mollification (delta = 0).

    ``observe`` is as for :func:`march`.
    """
    if params.delta != 0.0:
        raise ValueError("direct_march requires params.delta = 0")
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    mom = _Momentum(tensor, rho0.grid, f, params)
    traj = _trajectory(observe)
    ledger = Ledger.fresh(rho0)
    rho = rho0
    t = 0.0
    step_index = 0
    with _located("at t = 0.0"):
        pair = mom.filled(mom.pair(rho))
        traj.record(t, rho, mom.lazy_velocity(pair), ledger)
    while t < t_end - 1e-12 * max(1.0, t_end):
        dt = min(cfl_dt(pair[1], params), t_end - t)
        with _located(f"in the step from t = {t}"):
            step = _step(rho, pair[1], dt, params)
            ledger = _account(ledger, rho, step, pair, pair, dt, mom)
            rho = step[0]
            pair = mom.filled(mom.pair(rho))
            t += dt
            step_index += 1
            if step_index % store_every == 0 or t >= t_end - 1e-12 * max(1.0, t_end):
                traj.record(t, rho, mom.lazy_velocity(pair), ledger)
    return traj
