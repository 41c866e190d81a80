"""Symmetry oracles: the periodic box's symmetries hold on every stored state.

The pinned checks elsewhere compare the program with its own past output, so
they catch change, not error.  These check a property that the discrete
model has whatever its history.  On the periodic box [0, 2 pi)^d, take the
image of the initial density under a symmetry of the box and carry the law
along.  The march from that image stores the images of the states of the
march from the density itself, with the same ledgers.  The symmetries are
a translation by whole cells, a permutation of the axes (the viscosities
and the indices of a constant tensor permuted with them) and a reflection
x_a -> -x_a, under which u_a changes sign, and so does every entry of a
constant tensor with an odd number of indices a.

In 2D (32^2) each is checked on ``march`` at delta = 0.4 (symbol-mode
velocity pairs) and on ``direct_march`` at delta = 0 with drag; a
cellwise-varying law, rolled with the data, takes the Krylov path, and a
constant law goes through the transpose.  In 1D (64 cells) translation and
reflection, and in 3D (12^3) a cyclic permutation of the axes and a
reflection, are checked on both drivers with a ``diag`` law, and on
``march`` with a ``constant`` law.  Every stored time, density, velocity
and ledger field agrees to 1e-12 relative.

An error that breaks a symmetry shows here, such as one axis's flux taken
with the other axis's velocity, or a velocity component solved with
another axis's wavenumbers.  An error that is itself symmetric does not,
such as a wrong factor applied alike on every axis.

A last check refines the 1D grid from 64 to 1024 cells with the CFL limit
setting every step, and asks the final densities to converge at an
observed order of at least 1/2.  It sees an error that does not shrink
with the step, such as a substep that ignores dt; it cannot see an error
that is consistent, such as the donor cell taken from the downwind side,
which the diffusion here keeps stable.
"""

import dataclasses

import numpy as np
import pytest

from anisostokes.fields import GridSpec, MollifierKernel, ScalarField
from anisostokes.marching import Ledger, direct_march, march
from anisostokes.transport import SolverParams
from anisostokes.viscosity import (
    ConstantFull,
    DiagNu,
    VaryingFull,
    isotropic_strain_tensor,
    minor_symmetrize,
)
from keepall import kept

TOL = 1e-12
GRIDS = {1: GridSpec(1, 64), 2: GridSpec(2, 32), 3: GridSpec(3, 12)}
# the march's mollifier radius, wide enough on every grid that the kernel
# puts more than this share of its weight off the centre cell (``run``
# checks it): 0.59 in 1D, 0.82 in 2D and 0.20 in 3D
DELTA = {1: 0.2, 2: 0.4, 3: 0.6}
OFF_CENTRE_SHARE = 0.1
T_END = 0.1


def initial_density(dim):
    """A density with no symmetry of its own."""
    xs = GRIDS[dim].meshgrid()
    if dim == 1:
        (x,) = xs
        return 1.0 + 0.3 * np.cos(x) + 0.2 * np.sin(2.0 * x) + 0.1 * np.cos(3.0 * x + 0.4)
    if dim == 2:
        x, y = xs
        return (1.0 + 0.3 * np.cos(x) * np.cos(2.0 * y) + 0.2 * np.sin(x + 2.0 * y)
                + 0.1 * np.cos(3.0 * x - y + 0.4))
    x, y, z = xs
    return (1.0 + 0.3 * np.cos(x) * np.cos(2.0 * y) + 0.2 * np.sin(x + 2.0 * y - z)
            + 0.1 * np.cos(3.0 * x - y + 2.0 * z + 0.4) + 0.15 * np.sin(z + 0.3))


def diag_law(dim):
    return DiagNu((1.0, 4.0, 2.0)[:dim])


def constant_law(dim):
    """A coercive constant tensor with no symmetry of the box, minor-symmetric bit for bit."""
    rng = np.random.default_rng(dim)
    return ConstantFull(minor_symmetrize(
        isotropic_strain_tensor(dim, 1.0) + 0.1 * rng.uniform(size=(dim,) * 4)
    ))


def varying_law():
    """An isotropic law whose viscosity varies cell by cell (Krylov mode)."""
    x, y = GRIDS[2].meshgrid()
    return VaryingFull(GRIDS[2], isotropic_strain_tensor(2, 1.0)[..., None, None]
                       * (1.0 + 0.3 * np.cos(x + 2.0 * y)))


@dataclasses.dataclass(frozen=True)
class Symmetry:
    """A symmetry of the box in ``dim`` dimensions: the images of a scalar
    array, of a (dim, *shape) velocity stack and of a law."""

    dim: int
    scalar: object
    vector: object
    law: object


def translation(dim, shift):
    axes = tuple(range(-dim, 0))

    def roll(a):
        return np.roll(a, shift, axis=axes)

    def law(law):
        return VaryingFull(GRIDS[dim], roll(law.values)) if law.kind == "varying" else law

    return Symmetry(dim, roll, roll, law)


def permutation(dim, perm):
    """The axes permuted: new axis k is old axis ``perm[k]``."""
    perm = list(perm)

    def law(law):
        if law.kind == "diag":
            return DiagNu([law.nu[p] for p in perm])
        return ConstantFull(law.a[np.ix_(perm, perm, perm, perm)])

    return Symmetry(
        dim,
        lambda a: np.transpose(a, perm),
        lambda u: np.transpose(u[perm], [0] + [1 + p for p in perm]),
        law,
    )


def reflection(dim, axis):
    """x_axis -> -x_axis about the middle of the grid's cell centres."""
    sign = np.ones(dim)
    sign[axis] = -1.0

    def law(law):
        if law.kind == "diag":
            return law
        return ConstantFull(np.einsum("ijkl,i,j,k,l->ijkl", law.a, sign, sign, sign, sign))

    return Symmetry(
        dim,
        lambda a: np.flip(a, axis),
        lambda u: np.flip(u, 1 + axis) * sign.reshape((dim,) + (1,) * dim),
        law,
    )


SYMMETRIES = {
    "translation": translation(2, (5, 11)),
    "transpose": permutation(2, (1, 0)),
    "reflection": reflection(2, 0),
    "1d-translation": translation(1, (23,)),
    "1d-reflection": reflection(1, 0),
    "3d-permutation": permutation(3, (1, 2, 0)),
    "3d-reflection": reflection(3, 1),
}


def run(driver, law, rho0):
    """The driver's march of ``law`` from ``rho0``, every state kept."""
    grid = GRIDS[rho0.ndim]
    if driver == "march":
        kernel = MollifierKernel(grid, DELTA[grid.dim])
        assert 1.0 - kernel.weights[(kernel.radius_cells,) * grid.dim] > OFF_CENTRE_SHARE
        params = SolverParams(gamma=2.0, eps=0.01, delta=DELTA[grid.dim], eta=0.01, dt_max=0.01)
        return kept(march, law, ScalarField(grid, rho0), None, params, T_END, 0.05)
    params = SolverParams(gamma=2.0, eps=0.01, delta=0.0, eta=0.05, dt_max=0.01)
    return kept(direct_march, law, ScalarField(grid, rho0), None, params, T_END)


def assert_close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.array_equal(a, b) or np.max(np.abs(a - b)) <= TOL * np.max(np.abs(a))


def cases():
    for name, sym in SYMMETRIES.items():
        for driver in ("march", "direct"):
            yield driver, name, diag_law(sym.dim)
        # a constant law where the symmetry moves its indices: a translation
        # leaves it as it is, and in 1D it is a diag law
        if sym.dim > 1 and name != "translation":
            yield "march", name, constant_law(sym.dim)
    yield "march", "translation", varying_law()


@pytest.mark.parametrize("driver, name, law", list(cases()),
                         ids=lambda x: getattr(x, "kind", x))
def test_a_symmetry_of_the_box_maps_every_stored_state(driver, name, law):
    sym = SYMMETRIES[name]
    rho0 = initial_density(sym.dim)
    traj, states = run(driver, law, rho0)
    image, image_states = run(driver, sym.law(law), sym.scalar(rho0))
    assert len(image) == len(traj) >= 6
    assert_close(traj.times, image.times)
    for a, b in zip(states.densities, image_states.densities, strict=True):
        assert_close(sym.scalar(a.data), b.data)
    for a, b in zip(states.velocities, image_states.velocities, strict=True):
        assert_close(sym.vector(a.data), b.data)
    for a, b in zip(traj.ledgers, image.ledgers, strict=True):
        for f in dataclasses.fields(Ledger):
            assert_close(getattr(a, f.name), getattr(b, f.name))


# from 64 cells up, delta = 0.2 spans two cells or more; on 32 the kernel is
# the identity to 1e-11, so that level would march another model
REFINE_LEVELS = (64, 128, 256, 512, 1024)


def refined_final_density(n):
    """The final density of a 1D ``march`` on n cells whose every step the
    CFL limit sets (``dt_max`` is above ``t_end``), and its substep count."""
    grid = GridSpec(1, n)
    (x,) = grid.meshgrid()
    rho0 = 1.0 + 0.3 * np.cos(x) + 0.2 * np.sin(2.0 * x) + 0.1 * np.cos(3.0 * x + 0.4)
    params = SolverParams(gamma=2.0, eps=0.02, delta=0.2, eta=0.05, dt_max=1.0)
    last = []
    march(DiagNu((1.0,)), ScalarField(grid, rho0), None, params, 0.2, 0.05,
          observe=lambda t, rho, velocity, ledger: last.append(rho))
    return last[-1].data, len(last) - 1


def test_the_1d_march_converges_under_grid_refinement():
    finals, steps = zip(*(refined_final_density(n) for n in REFINE_LEVELS))
    # the step halves with the cell: the CFL limit, not dt_max, sets it
    assert all(fine >= 1.5 * coarse for coarse, fine in zip(steps, steps[1:]))
    # the mean distance between each level and the next one averaged over its
    # cells: coarse cell i, centred on fine cell 2i, holds half of 2i - 1 and 2i + 1
    gaps = [np.mean(np.abs(coarse - 0.5 * fine[0::2] - 0.25 * (fine[1::2] + np.roll(fine, 1)[0::2])))
            for coarse, fine in zip(finals, finals[1:])]
    orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    assert np.all(orders >= 0.5), orders
