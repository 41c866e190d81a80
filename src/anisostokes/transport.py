"""Continuity-equation stepping: advection, diffusion and nonlinear drag.

One step advances d_t rho + div(rho v) = eps Lap(rho) - eta rho^{2 gamma}
- eta rho^3 by Lie splitting in that order:

(a) conservative first-order upwind finite-volume advection (a flux-limited
    second-order variant sits behind ``order=2``; the positivity and
    maximum-principle guarantees below are only claimed at order 1),
(b) implicit spectral diffusion (I - eps dt Lap)^{-1},
(c) a per-cell implicit solve of r + dt eta (r^{2 gamma} + r^3) = rho,
    whose removed mass is split exactly between the two drag channels.

Mass bookkeeping is exact by construction: the advection fluxes telescope,
the diffusion symbol fixes the mean mode, and the drag ledger increments
are defined as the per-cell removals.  The spectral diffusion resolvent has
tiny negative side lobes, so rough densities can dip below zero by a hair;
step (b) therefore floors at zero and rescales the positive part to restore
the pre-clip mass (a no-op for smooth fields).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from anisostokes.fields import ScalarField, grad

logger = logging.getLogger("anisostokes")

_TINY_SPEED = 1e-30


class NegativeInput(Exception):
    """The incoming density has negative samples."""


class NewtonFail(Exception):
    """The per-cell drag solve missed its tolerance."""


class InvalidParameter(ValueError):
    """A :class:`SolverParams` field is out of range; ``field`` names it."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class SolverParams:
    """Physical and numerical parameters shared across the solver stack."""

    gamma: float = 2.0
    eps: float = 0.0
    delta: float = 0.0
    eta: float = 0.0
    cfl: float = 0.45
    dt_max: float = 1e-2
    fp_tol: float = 1e-7
    fp_max_iter: int = 40
    stokes_rtol: float = 1e-8
    stokes_max_iter: int = 400
    order: int = 1

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise InvalidParameter("gamma", f"gamma must exceed 1, got {self.gamma}")
        for name in ("eps", "delta", "eta"):
            if getattr(self, name) < 0:
                raise InvalidParameter(name, f"{name} must be nonnegative")
        if not 0.0 < self.cfl <= 1.0:
            raise InvalidParameter("cfl", f"cfl must lie in (0, 1], got {self.cfl}")
        if self.dt_max <= 0:
            raise InvalidParameter("dt_max", "dt_max must be positive")
        if self.fp_tol < 0:
            raise InvalidParameter("fp_tol", f"fp_tol must be nonnegative, got {self.fp_tol}")
        for name in ("fp_max_iter", "stokes_max_iter"):
            if getattr(self, name) < 1:
                raise InvalidParameter(name, f"{name} must be at least 1")
        if not self.stokes_rtol > 0:
            raise InvalidParameter("stokes_rtol", "stokes_rtol must be positive")
        if self.order not in (1, 2):
            raise InvalidParameter("order", f"order must be 1 or 2, got {self.order}")


@dataclass(frozen=True)
class MassLedger:
    """Running mass account: current mass plus cumulative drag removals.

    ``mass_now + drag2g_cum + drag3_cum`` equals ``mass_initial`` up to
    floating-point summation noise.  The gradient term is a diagnostic
    accumulator for the energy audit (4 eps (1 - 1/gamma) int |grad
    rho^{gamma/2}|^2 dt), not part of the mass identity.
    """

    mass_now: float
    drag2g_cum: float = 0.0
    drag3_cum: float = 0.0
    grad_rho_gamma_half_cum: float = 0.0
    mass_initial: float = 0.0

    @classmethod
    def fresh(cls, rho):
        m = rho.integral()
        return cls(mass_now=m, mass_initial=m)

    def identity_defect(self):
        return abs(self.mass_now + self.drag2g_cum + self.drag3_cum - self.mass_initial)


def cfl_dt(v, params):
    """Largest admissible step for the explicit advection of velocity v."""
    speed = max(v.max_component_sum(), _TINY_SPEED)
    return min(params.dt_max, params.cfl * v.grid.h / speed)


def pressure_field(rho, gamma):
    """Barotropic pressure rho^gamma; rejects negative densities."""
    if rho.min() < 0.0:
        raise NegativeInput(f"density has negative samples (min {rho.min():.3e})")
    return ScalarField(rho.grid, rho.data**gamma)


# ----------------------------------------------------------------------
# substeps
# ----------------------------------------------------------------------

def _minmod(a, b):
    out = np.where(a * b > 0.0, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)
    return out


def _advect(rho, v, dt, order):
    grid = rho.grid
    h = grid.h
    data = rho.data
    divflux = np.zeros(grid.shape)
    for a in range(grid.dim):
        va = v[a].data
        vface = 0.5 * (va + np.roll(va, -1, axis=a))
        if order == 1:
            up = np.where(vface > 0.0, data, np.roll(data, -1, axis=a))
        else:
            dminus = data - np.roll(data, 1, axis=a)
            dplus = np.roll(data, -1, axis=a) - data
            slope = _minmod(dminus, dplus)
            left = data + 0.5 * slope
            right = np.roll(data - 0.5 * slope, -1, axis=a)
            up = np.where(vface > 0.0, left, right)
        flux = vface * up
        divflux += (flux - np.roll(flux, 1, axis=a)) / h
    return data - dt * divflux


def _diffuse(data, grid, eps, dt):
    ghat = np.fft.fftn(data) / (1.0 + eps * dt * grid.k2_full)
    out = np.fft.ifftn(ghat).real
    if out.min() < 0.0:
        mass = out.sum()
        clipped = int((out < 0.0).sum())
        out = np.maximum(out, 0.0)
        pos_mass = out.sum()
        if pos_mass > 0.0:
            out *= mass / pos_mass
        logger.debug("diffusion clipped %d cells back to zero", clipped)
    return out


def _drag_solve(s, a, gamma, max_iter=100, tol=1e-13):
    """Solve r + a (r^{2 gamma} + r^3) = s cellwise, r >= 0.

    The map is convex and increasing for r >= 0, so Newton started at
    r = s decreases monotonically onto the root; no damping is needed.
    """
    x = s.copy()
    scale = max(float(s.max()), 1.0)
    two_g = 2.0 * gamma
    for _ in range(max_iter):
        f = x + a * (x**two_g + x**3) - s
        if float(np.abs(f).max()) <= tol * scale:
            return np.maximum(x, 0.0)
        fp = 1.0 + a * (two_g * x ** (two_g - 1.0) + 3.0 * x**2)
        x = x - f / fp
        x = np.maximum(x, 0.0)
    f = x + a * (x**two_g + x**3) - s
    worst = float(np.abs(f).max())
    if worst > tol * scale:
        raise NewtonFail(f"drag solve stalled at residual {worst:.3e}")
    return np.maximum(x, 0.0)


def continuity_step(rho, v, dt, params, ledger):
    """One splitting step of the regularized continuity equation.

    Parameters
    ----------
    rho : ScalarField
        Nonnegative density at the start of the step.
    v : VectorField
        Advecting velocity, held constant over the step.
    dt : float
        Step size; must not exceed ``cfl_dt(v, params)``.
    params : SolverParams
    ledger : MassLedger or None
        Account to extend; a new ledger is returned, inputs are untouched.
        With ``None`` the step only advances the density: the drag-channel
        split, the mass integral and the int |grad rho^{gamma/2}|^2 term are
        skipped and ``(rho, None)`` is returned.  The density is the same
        either way.

    Returns
    -------
    (ScalarField, MassLedger or None)
    """
    if rho.min() < 0.0:
        raise NegativeInput(f"density has negative samples (min {rho.min():.3e})")
    if v.grid != rho.grid:
        raise ValueError("rho and v live on different grids")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    limit = cfl_dt(v, params)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(f"dt {dt:.3e} exceeds the CFL limit {limit:.3e}")

    grid = rho.grid
    data = _advect(rho, v, dt, params.order)
    if params.eps > 0.0:
        data = _diffuse(data, grid, params.eps, dt)

    drag2g_inc = 0.0
    drag3_inc = 0.0
    if params.eta > 0.0:
        a = dt * params.eta
        r = _drag_solve(data, a, params.gamma)
        if ledger is not None:
            removed = data - r
            channels = r ** (2.0 * params.gamma) + r**3
            with np.errstate(divide="ignore", invalid="ignore"):
                w2 = np.where(channels > 0.0, r ** (2.0 * params.gamma) / np.where(channels > 0.0, channels, 1.0), 0.0)
            d2g = removed * w2
            d3 = removed - d2g
            drag2g_inc = float(d2g.sum()) * grid.cell_volume
            drag3_inc = float(d3.sum()) * grid.cell_volume
        data = r

    out = ScalarField(grid, data)
    if ledger is None:
        return out, None

    grad_inc = 0.0
    if params.eps > 0.0:
        half = ScalarField(grid, data ** (0.5 * params.gamma))
        g2 = sum(c.data**2 for c in grad(half).components)
        grad_inc = (
            4.0
            * params.eps
            * (1.0 - 1.0 / params.gamma)
            * float(g2.sum())
            * grid.cell_volume
            * dt
        )

    new_ledger = replace(
        ledger,
        mass_now=out.integral(),
        drag2g_cum=ledger.drag2g_cum + drag2g_inc,
        drag3_cum=ledger.drag3_cum + drag3_inc,
        grad_rho_gamma_half_cum=ledger.grad_rho_gamma_half_cum + grad_inc,
    )
    return out, new_ledger
