"""Continuity-equation stepping: advection, diffusion and nonlinear drag.

One step advances d_t rho + div(rho v) = eps Lap(rho) - eta rho^{2 gamma}
- eta rho^3 by Lie splitting in that order:

(a) conservative first-order (donor-cell) upwind finite-volume advection;
    within the CFL limit ``CFL * h / max_x sum_a |v_a|`` each new value is a
    nonnegative combination of old ones, so the density stays nonnegative
    and its maximum grows at most by the factor 1 + dt max(-div v),
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
# the CFL number: the largest dt * max_x sum_a |v_a| / h of an advection step
CFL = 0.45


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
    dt_max: float = 1e-2
    fp_tol: float = 1e-7
    fp_max_iter: int = 40

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise InvalidParameter("gamma", f"gamma must exceed 1, got {self.gamma}")
        for name in ("eps", "delta", "eta"):
            if getattr(self, name) < 0:
                raise InvalidParameter(name, f"{name} must be nonnegative")
        if self.dt_max <= 0:
            raise InvalidParameter("dt_max", "dt_max must be positive")
        if self.fp_tol < 0:
            raise InvalidParameter("fp_tol", f"fp_tol must be nonnegative, got {self.fp_tol}")
        if self.fp_max_iter < 1:
            raise InvalidParameter("fp_max_iter", "fp_max_iter must be at least 1")


def cfl_dt(v, params):
    """Largest admissible step for the explicit advection of velocity v."""
    speed = max(v.max_component_sum(), _TINY_SPEED)
    return min(params.dt_max, CFL * v.grid.h / speed)


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

def _advect(rho, v, dt):
    grid = rho.grid
    h = grid.h
    data = rho.data
    divflux = np.zeros(grid.shape)
    for a in range(grid.dim):
        va = v[a].data
        # vface = 0.5 * (va + va shifted down one cell)
        vface = np.roll(va, -1, axis=a)
        vface += va
        vface *= 0.5
        # flux = vface * upwind value
        flux = np.roll(data, -1, axis=a)
        np.copyto(flux, data, where=vface > 0.0)
        flux *= vface
        # divflux += (flux - flux shifted up one cell) / h
        diff = np.roll(flux, 1, axis=a)
        np.subtract(flux, diff, out=diff)
        diff /= h
        divflux += diff
    divflux *= dt
    return np.subtract(data, divflux, out=divflux)


def _diffuse(data, grid, eps, dt):
    ghat = grid.fft(data)
    ghat /= 1.0 + eps * dt * grid.k2_full
    out = grid.ifft(ghat).real
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


def _drag_residual(x, s, a, two_g, f):
    """Write x + a (x^{2 gamma} + x^3) - s into ``f``."""
    np.power(x, two_g, out=f)
    f += x**3
    f *= a
    f += x
    f -= s


def _drag_solve(s, a, gamma):
    """Solve r + a (r^{2 gamma} + r^3) = s cellwise, r >= 0.

    The map is convex and increasing for r >= 0, so Newton started at
    r = s decreases monotonically onto the root; no damping is needed.
    """
    x = s.copy()
    scale = max(float(s.max()), 1.0)
    two_g = 2.0 * gamma
    f = np.empty_like(x)
    fp = np.empty_like(x)
    for _ in range(_DRAG_MAX_ITER):
        _drag_residual(x, s, a, two_g, f)
        if float(np.abs(f, out=fp).max()) <= _DRAG_RTOL * scale:
            return np.maximum(x, 0.0)
        # fp = 1 + a (2 gamma x^{2 gamma - 1} + 3 x^2)
        np.multiply(x ** (two_g - 1.0), two_g, out=fp)
        x2 = x**2
        x2 *= 3.0
        fp += x2
        fp *= a
        fp += 1.0
        f /= fp
        x -= f
        np.maximum(x, 0.0, out=x)
    _drag_residual(x, s, a, two_g, f)
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
    data = _advect(rho, v, dt)
    if params.eps > 0.0:
        data = _diffuse(data, grid, params.eps, dt)
    removed = None
    if params.eta > 0.0:
        r = _drag_solve(data, dt * params.eta, params.gamma)
        removed = data - r
        data = r
    return ScalarField(grid, data), removed
