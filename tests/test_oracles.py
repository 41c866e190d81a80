"""Symmetry oracles: the periodic box's symmetries hold on every stored state.

The pinned checks elsewhere compare the program with its own past output, so
they catch change, not error.  These check a property that the discrete
model has whatever its history.  On the periodic box [0, 2 pi)^2, take the
image of the initial density under a symmetry of the box and carry the law
along.  The march from that image stores the images of the states of the
march from the density itself, with the same ledgers.  The symmetries are
a translation by whole cells, the transpose (the two axes and their
viscosities swapped) and the reflection x_1 -> -x_1, under which u_1
changes sign.  Each is checked on ``march`` at delta = 0.2 (symbol-mode
velocity pairs) and on ``direct_march`` at delta = 0 with drag.  A
cellwise-varying law, rolled with the data, takes the Krylov path.  Every
stored time, density, velocity and ledger field agrees to 1e-12 relative.

An error that breaks a symmetry shows here, such as one axis's flux taken
with the other axis's velocity.  An error that is itself symmetric does
not, such as a wrong factor applied alike on every axis.
"""

import dataclasses

import numpy as np
import pytest

from anisostokes.fields import GridSpec, ScalarField
from anisostokes.marching import Ledger, direct_march, march
from anisostokes.transport import SolverParams
from anisostokes.viscosity import DiagNu, VaryingFull
from keepall import kept

TOL = 1e-12
GRID = GridSpec(2, 32)
SHIFT = (5, 11)
T_END = 0.1


def initial_density():
    """A density with no symmetry of its own."""
    x, y = GRID.meshgrid()
    return (1.0 + 0.3 * np.cos(x) * np.cos(2.0 * y) + 0.2 * np.sin(x + 2.0 * y)
            + 0.1 * np.cos(3.0 * x - y + 0.4))


def varying_law():
    """An isotropic law whose viscosity varies cell by cell (Krylov mode)."""
    x, y = GRID.meshgrid()
    eye = np.eye(2)
    iso = 0.5 * (np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye))
    return VaryingFull(GRID, iso[..., None, None] * (1.0 + 0.3 * np.cos(x + 2.0 * y)))


def roll(a):
    return np.roll(a, SHIFT, axis=(-2, -1))


@dataclasses.dataclass(frozen=True)
class Symmetry:
    """The images of a scalar array, of a (2, n, n) velocity stack and of a law."""

    scalar: object
    vector: object
    law: object


SYMMETRIES = {
    "translation": Symmetry(
        roll, roll,
        lambda law: VaryingFull(GRID, roll(law.values)) if law.kind == "varying" else law,
    ),
    "transpose": Symmetry(
        lambda a: a.T,
        lambda u: u[::-1].swapaxes(-2, -1),
        lambda law: DiagNu(law.nu[::-1]),
    ),
    "reflection": Symmetry(
        lambda a: np.flip(a, 0),
        lambda u: np.flip(u, -2) * np.array([-1.0, 1.0])[:, None, None],
        lambda law: law,
    ),
}


def run(driver, law, rho0):
    """The driver's march of ``law`` from ``rho0``, every state kept."""
    if driver == "march":
        params = SolverParams(gamma=2.0, eps=0.01, delta=0.2, eta=0.01, dt_max=0.01)
        return kept(march, law, ScalarField(GRID, rho0), None, params, T_END, 0.05)
    params = SolverParams(gamma=2.0, eps=0.01, delta=0.0, eta=0.05, dt_max=0.01)
    return kept(direct_march, law, ScalarField(GRID, rho0), None, params, T_END)


def assert_close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.array_equal(a, b) or np.max(np.abs(a - b)) <= TOL * np.max(np.abs(a))


@pytest.mark.parametrize("driver, name, law", [
    *((driver, name, DiagNu((1.0, 4.0))) for driver in ("march", "direct")
      for name in SYMMETRIES),
    ("march", "translation", varying_law()),
], ids=lambda x: getattr(x, "kind", x))
def test_a_symmetry_of_the_box_maps_every_stored_state(driver, name, law):
    sym = SYMMETRIES[name]
    rho0 = initial_density()
    traj, states = run(driver, law, rho0)
    image, image_states = run(driver, sym.law(law), sym.scalar(rho0))
    assert len(image) == len(traj) >= 6
    assert_close(traj.times, image.times)
    for a, b in zip(states.densities, image_states.densities, strict=True):
        assert_close(sym.scalar(a.data), b.data)
    for a, b in zip(states.velocities, image_states.velocities, strict=True):
        assert_close(sym.vector(a.stacked()), b.stacked())
    for a, b in zip(traj.ledgers, image.ledgers, strict=True):
        for f in dataclasses.fields(Ledger):
            assert_close(getattr(a, f.name), getattr(b, f.name))
