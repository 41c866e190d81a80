"""The ledger's running fields recomputed from the observed states.

The audits read three running fields of the last ledger: positivity reads
``min_rho``, the maximum-principle audit ``max_principle_margin`` and the
defect inequality ``divu_l1_cum``.  With ``store_every = 1`` every substep's
density and velocity reach the observer, so each field can be rebuilt from
the states alone:

- ``min_rho`` is the minimum over the densities observed so far, exactly;
- ``divu_l1_cum`` is sum_j dt_j ||div w_j||_L1 and ``max_principle_margin``
  is min_j ((1 + 1.1 dt_j ||div w_j||_inf) max rho_j - max rho_{j+1}), where
  dt_j is the gap between the observed times j and j + 1 and w_j the
  advecting field of state j: u_j itself on ``direct_march`` (delta = 0)
  and u_j mollified through the march's own kernel on ``march``.

The ledger takes div w from the half spectrum and the oracle from the real
field, so those two agree to 1e-12 relative, not bit for bit.  ``march``
runs with the Picard iteration taken to its exact fixed point
(``fp_tol = 0``), where the velocity an observer is given is the one that
advected the density.  The forcing drives mass out of the initial
density's trough, so its minimum falls and a ``min_rho`` that stops
updating shows.
"""

import math

import numpy as np
import pytest

from anisostokes.fields import GridSpec, MollifierKernel, ScalarField, div, mollify
from anisostokes.marching import direct_march, march
from anisostokes.transport import SolverParams
from anisostokes.viscosity import DiagNu
from keepall import kept

REL = 1e-12
T_END = 0.06
GRIDS = {1: GridSpec(1, 64), 2: GridSpec(2, 16)}
LAWS = {1: DiagNu((1.0,)), 2: DiagNu((1.0, 4.0))}


def scenario(dim):
    """A cosine density under a forcing in phase with it, with drag."""
    grid = GRIDS[dim]
    x = grid.meshgrid()
    rho0 = ScalarField(grid, 1.0 + 0.4 * np.cos(x[0]) + 0.1 * np.sin(x[-1]))
    forcing = ScalarField(grid, 2.0 * np.cos(x[0]))
    return LAWS[dim], rho0, forcing


def marched(driver, dim):
    """(observed states, the kernel of the advecting field or None)."""
    tensor, rho0, forcing = scenario(dim)
    if driver == "direct_march":
        params = SolverParams(gamma=2.0, eps=0.01, eta=0.2, dt_max=0.005)
        _traj, states = kept(direct_march, tensor, rho0, forcing, params, T_END, store_every=1)
        return states, None
    params = SolverParams(gamma=2.0, eps=0.01, delta=0.4, eta=0.2, dt_max=0.005, fp_tol=0.0)
    _traj, states = kept(march, tensor, rho0, forcing, params, T_END, 0.03, store_every=1)
    return states, MollifierKernel(rho0.grid, params.delta)


def recomputed(states, kernel):
    """``divu_l1_cum`` and ``max_principle_margin`` of every observed state."""
    rho, times = states.densities, states.times
    divu, margin = [0.0], [math.inf]
    for j in range(len(times) - 1):
        dt = times[j + 1] - times[j]
        u = states.velocities[j]
        w = u if kernel is None else mollify(u, kernel)
        d = np.abs(div(w).data)
        divu.append(divu[-1] + dt * float(d.sum()) * rho[j].grid.cell_volume)
        bound = 1.0 + 1.1 * dt * float(d.max())
        margin.append(min(margin[-1], bound * rho[j].max() - rho[j + 1].max()))
    return divu, margin


CASES = [(driver, dim) for driver in ("direct_march", "march") for dim in (1, 2)]


@pytest.mark.parametrize("driver, dim", CASES)
def test_min_rho_is_the_minimum_of_every_observed_density(driver, dim):
    states, _kernel = marched(driver, dim)
    minima = np.minimum.accumulate([rho.min() for rho in states.densities])
    assert minima[-1] < minima[0]
    assert [ledger.min_rho for ledger in states.ledgers] == list(minima)


@pytest.mark.parametrize("driver, dim", CASES)
def test_divu_and_the_max_principle_margin_follow_the_observed_states(driver, dim):
    states, kernel = marched(driver, dim)
    divu, margin = recomputed(states, kernel)
    assert len(states.ledgers) >= 12 and divu[-1] > 0.0
    for ledger, l1, worst in zip(states.ledgers, divu, margin):
        assert ledger.divu_l1_cum == pytest.approx(l1, rel=REL, abs=0.0)
        assert ledger.max_principle_margin == pytest.approx(worst, rel=REL, abs=0.0)
