"""Continuity-equation stepping: advection, diffusion and nonlinear drag.

One step advances d_t rho + div(rho v) = eps Lap(rho) - eta rho^{2 gamma}
- eta rho^3 by Lie splitting in that order:

(a) conservative first-order upwind finite-volume advection (a flux-limited
    second-order variant sits behind ``order=2``; the positivity and
    maximum-principle guarantees below are only claimed at order 1),
(b) implicit spectral diffusion (I - eps dt Lap)^{-1},
(c) a per-cell implicit solve of r + dt eta (r^{2 gamma} + r^3) = rho,
    whose per-cell removal the step returns.

Mass is exact by construction: the advection fluxes telescope, the
diffusion symbol fixes the mean mode, and the step returns the drag
removal cell by cell, so the old mass is the new mass plus that removal
(the marcher's ledger keeps the running accounts).  The spectral diffusion
resolvent has tiny negative side lobes, so rough densities can dip below
zero by a hair; step (b) therefore floors at zero and rescales the positive
part to restore the pre-clip mass (a no-op for smooth fields).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from anisostokes.fields import PicklableError, ScalarField, SolverFailure

logger = logging.getLogger("anisostokes")

_TINY_SPEED = 1e-30


class NegativeInput(SolverFailure):
    """The incoming density has negative samples."""


class NewtonFail(SolverFailure):
    """The per-cell drag solve missed its tolerance."""


class CFLBreach(PicklableError, ValueError):
    """A step longer than the CFL limit; ``speed`` is the velocity's max component sum."""

    def __init__(self, dt, limit, speed):
        super().__init__(f"dt {dt:.3e} exceeds the CFL limit {limit:.3e}")
        self.speed = speed


class InvalidParameter(PicklableError, ValueError):
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


def cfl_dt(v, params):
    """Largest admissible step for the explicit advection of velocity v."""
    speed = max(v.max_component_sum(), _TINY_SPEED)
    return min(params.dt_max, params.cfl * v.grid.h / speed)


def check_cfl(v, dt, params):
    """Raise :class:`CFLBreach` when ``dt`` exceeds ``cfl_dt(v, params)``."""
    limit = cfl_dt(v, params)
    if dt > limit * (1.0 + 1e-12):
        raise CFLBreach(dt, limit, v.max_component_sum())


def pressure_field(rho, gamma):
    """Barotropic pressure rho^gamma; rejects negative densities."""
    if rho.min() < 0.0:
        raise NegativeInput(f"density has negative samples (min {rho.min():.3e})")
    return ScalarField(rho.grid, rho.data**gamma)


def pressure_integral(rho, gamma):
    """int rho^gamma of one state, the pressure term of the energy budget."""
    return pressure_field(rho, gamma).integral()


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


_DRAG_MAX_ITER = 100
_DRAG_RTOL = 1e-13


def _drag_solve(s, a, gamma):
    """Solve r + a (r^{2 gamma} + r^3) = s cellwise, r >= 0.

    The map is convex and increasing for r >= 0, so Newton started at
    r = s decreases monotonically onto the root; no damping is needed.
    """
    x = s.copy()
    scale = max(float(s.max()), 1.0)
    two_g = 2.0 * gamma
    for _ in range(_DRAG_MAX_ITER):
        f = x + a * (x**two_g + x**3) - s
        if float(np.abs(f).max()) <= _DRAG_RTOL * scale:
            return np.maximum(x, 0.0)
        fp = 1.0 + a * (two_g * x ** (two_g - 1.0) + 3.0 * x**2)
        x = x - f / fp
        x = np.maximum(x, 0.0)
    f = x + a * (x**two_g + x**3) - s
    worst = float(np.abs(f).max())
    if worst > _DRAG_RTOL * scale:
        raise NewtonFail(f"drag solve stalled at residual {worst:.3e}")
    return np.maximum(x, 0.0)


def continuity_step(rho, v, dt, params):
    """One splitting step of the regularized continuity equation.

    Parameters
    ----------
    rho : ScalarField
        Nonnegative density at the start of the step.
    v : VectorField
        Advecting velocity, held constant over the step.
    dt : float
        Step size; a step beyond ``cfl_dt(v, params)`` raises :class:`CFLBreach`.
    params : SolverParams

    Returns
    -------
    (ScalarField, ndarray or None)
        The advanced density and the density the drag solve removed from
        each cell, so that rho's integral is the new one plus
        ``removed.sum() * cell_volume`` (None when eta = 0).
    """
    if rho.min() < 0.0:
        raise NegativeInput(f"density has negative samples (min {rho.min():.3e})")
    if v.grid != rho.grid:
        raise ValueError("rho and v live on different grids")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    check_cfl(v, dt, params)

    grid = rho.grid
    data = _advect(rho, v, dt, params.order)
    if params.eps > 0.0:
        data = _diffuse(data, grid, params.eps, dt)
    removed = None
    if params.eta > 0.0:
        r = _drag_solve(data, dt * params.eta, params.gamma)
        removed = data - r
        data = r
    return ScalarField(grid, data), removed
