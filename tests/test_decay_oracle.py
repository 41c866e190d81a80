"""Closed-form oracle: the discrete decay of one small Fourier mode.

Start from rho = 1 + a cos(k.x) with a << 1 and no drag.  To first order in
a the march is linear, and the mode's amplitude after steps dt_n is

    a prod_n (1 - lambda dt_n) / (1 + eps |k|^2 dt_n),
    lambda = gamma rho_bar^gamma K(k)^2 s(k)^T M(k)^{-1} k,

where
- M(k) is the momentum symbol: (sum_a nu_a k_a^2) I for a ``diag`` law and
  M_ik = sum_jl A_ijkl k_j k_l for a ``constant`` one;
- K(k) is the mollifier's symbol, squared because both the pressure and the
  advecting velocity are mollified (K = 1 at delta = 0);
- s_a(k) = sin(k_a h) / h is the symbol of the donor-cell flux difference,
  which at first order is the central difference of the face velocities;
- the denominator is the implicit spectral diffusion.

The decay depends on M(k) direction by direction, so it ties the march to the
anisotropic symbol rather than to past output: a viscosity swapped between
the axes, a mollifier applied once, or a flux difference with another symbol
shows here.  The symmetry oracles pass the first in 2D and the second in
every dimension.  Every case runs ``direct_march`` at delta = 0 and
``march`` at a delta of two cells with the Picard iteration taken to its
exact fixed point (``fp_tol = 0``); the O(a) remainder keeps every stored
amplitude within 4e-8 of the closed form.  The 2D cases (64^2) take five
modes of three laws; one 3D case (16^3) takes the off-axis mode (1, -2, 3)
of a constant law; and one 2D case takes the cellwise copy of the 2D
constant law, a ``varying`` law with M(k) of that constant law, through the
Krylov solve and the stencil mollifier.

A second closed form checks the ledger's stress power against the symbol of
the law's ``tensor_at()``.  For one velocity mode u = U sin(k.x),
int tau(D(u)) : grad u = (|Omega| / 2) U^T M(k) U, and for u = U cos(k.x)
with k on the last axis's Nyquist plane the same holds with that axis's
wavenumber zeroed, as the spectral derivative zeroes it.  It is checked on
the operator's half-spectrum weights (``_Momentum.stress_power``) and on
``viscous_work``, for a ``diag`` law and a major-symmetric ``constant`` law
in 1D, 2D and 3D, and for a ``constant`` law without the major symmetry,
whose M(k) is not symmetric, in 2D and 3D (every 1D tensor has it).
"""

import numpy as np
import pytest

from anisostokes.fields import GridSpec, MollifierKernel, ScalarField, VectorField
from anisostokes.marching import _Momentum, direct_march, march
from anisostokes.transport import SolverParams
from anisostokes.viscosity import (
    ConstantFull,
    DiagNu,
    VaryingFull,
    isotropic_strain_tensor,
    major_symmetric,
    minor_symmetrize,
    viscous_work,
)

TOL = 1e-6
# each delta spans two cells of its grid; on 64^2, 1 - K(k) is 3e-3 to
# 1.3e-2 on MODES
GRIDS = {2: GridSpec(2, 64), 3: GridSpec(3, 16)}
DELTAS = {2: 0.2, 3: 0.8}
GAMMA = 2.0
EPS = 0.01
AMPLITUDE = 1e-6
T_END = 0.05
MODES = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1))


def constant_law(dim, seed):
    """A coercive, major- and minor-symmetric tensor with no symmetry of the box."""
    b = np.random.default_rng(seed).uniform(size=(dim,) * 4)
    return ConstantFull(minor_symmetrize(
        isotropic_strain_tensor(dim, 1.0) + 0.1 * (b + b.transpose(2, 3, 0, 1))
    ))


CONSTANT_2D = constant_law(2, 12)
LAWS = {
    "diag-1-4": DiagNu((1.0, 4.0)),
    "diag-4-1": DiagNu((4.0, 1.0)),
    "constant": CONSTANT_2D,
    "constant-3d": constant_law(3, 7),
    # the 2D constant law held cell by cell, which the Krylov path solves
    "varying": VaryingFull(GRIDS[2], CONSTANT_2D.a[..., None, None] * np.ones(GRIDS[2].shape)),
}
# the law whose symbol the closed form takes, where it is not the law itself
SYMBOL_LAW = {"varying": CONSTANT_2D}
CASES = [(name, mode) for name in ("diag-1-4", "diag-4-1", "constant") for mode in MODES]
CASES += [("constant-3d", (1, -2, 3)), ("varying", (1, -1))]


def momentum_symbol(law, k):
    if law.kind == "diag":
        return np.dot(law.nu, k**2) * np.eye(len(k))
    return np.einsum("ijkl,j,l->ik", law.tensor_at(), k, k)


def mollifier_symbol(grid, delta, k):
    """sum_o w(o) cos(k.o) over the kernel's even stencil of offsets o."""
    if delta == 0.0:
        return 1.0
    kernel = MollifierKernel(grid, delta)
    m = kernel.radius_cells
    offsets = np.meshgrid(*[np.arange(-m, m + 1) * grid.h] * grid.dim, indexing="ij")
    return float(np.sum(kernel.weights * np.cos(sum(ka * o for ka, o in zip(k, offsets)))))


def decay_rate(grid, law, delta, k):
    s = np.sin(k * grid.h) / grid.h
    return GAMMA * mollifier_symbol(grid, delta, k) ** 2 * (s @ np.linalg.solve(momentum_symbol(law, k), k))


@pytest.mark.parametrize("name, driver, mode", [
    pytest.param(name, driver, mode, id=f"{name}-{driver}-{mode}")
    for name, mode in CASES
    for driver in ("direct", "march")
])
def test_a_small_mode_decays_as_the_closed_form(name, driver, mode):
    law = LAWS[name]
    k = np.array(mode, dtype=float)
    grid = GRIDS[len(mode)]
    wave = np.cos(sum(ka * x for ka, x in zip(k, grid.meshgrid())))
    rho0 = ScalarField(grid, 1.0 + AMPLITUDE * wave)
    delta = 0.0 if driver == "direct" else DELTAS[grid.dim]
    params = SolverParams(gamma=GAMMA, eps=EPS, delta=delta, eta=0.0, dt_max=0.005, fp_tol=0.0)
    states = []

    def observe(t, rho, velocity, ledger):
        states.append((t, rho.data))

    if driver == "direct":
        direct_march(law, rho0, None, params, T_END, observe=observe)
    else:
        march(law, rho0, None, params, T_END, T_END, observe=observe)
    assert len(states) == 11
    lam = decay_rate(grid, SYMBOL_LAW.get(name, law), delta, k)
    expected = AMPLITUDE
    for (t0, _), (t1, rho) in zip(states, states[1:]):
        dt = t1 - t0
        expected *= (1.0 - lam * dt) / (1.0 + EPS * (k @ k) * dt)
        amplitude = 2.0 * np.mean((rho - rho.mean()) * wave)
        assert amplitude == pytest.approx(expected, rel=TOL)
    # the mode decays by several percent, far above the tolerance
    assert expected < 0.98 * AMPLITUDE


POWER_TOL = 1e-12
POWER_N = 8
# (mode, wave): the last one lies on the Nyquist plane of the last axis
POWER_MODES = [((3,), np.sin), ((1, -2), np.sin), ((1, -2, 3), np.sin), ((1, POWER_N // 2), np.cos)]


def power_laws(dim):
    """name -> a diag law, a major-symmetric constant law and, from 2D, one without it."""
    b, c = np.random.default_rng(20 + dim).uniform(size=(2,) + (dim,) * 4)
    iso = isotropic_strain_tensor(dim, 1.0)
    laws = {
        "diag": DiagNu((1.0, 4.0, 2.0)[:dim]),
        "major": ConstantFull(minor_symmetrize(iso + 0.1 * (b + b.transpose(2, 3, 0, 1)))),
    }
    if dim > 1:
        laws["non-major"] = ConstantFull(minor_symmetrize(iso + 0.2 * c))
        assert not major_symmetric(laws["non-major"].a)
    return laws


@pytest.mark.parametrize("name, mode, wave", [
    pytest.param(name, mode, wave, id=f"{name}-{wave.__name__}{mode}")
    for mode, wave in POWER_MODES
    for name in power_laws(len(mode))
])
def test_the_stress_power_of_one_mode_is_the_symbol_form(name, mode, wave):
    dim = len(mode)
    grid = GridSpec(dim, POWER_N)
    law = power_laws(dim)[name]
    k = np.array(mode, dtype=float)
    velocity = np.random.default_rng(dim).standard_normal(dim)
    phase = wave(sum(ka * x for ka, x in zip(k, grid.meshgrid())))
    u = velocity.reshape((dim,) + (1,) * dim) * phase
    # the spectral derivative's wavenumbers: the Nyquist one is zeroed
    kd = np.where(np.abs(k) == POWER_N // 2, 0.0, k)
    expected = 0.5 * grid.volume * velocity @ np.einsum("ijkl,j,l->ik", law.tensor_at(), kd, kd) @ velocity
    mom = _Momentum(law, grid, None, SolverParams())
    assert mom.stress_power((grid.rfft(u), None)) == pytest.approx(expected, rel=POWER_TOL)
    assert viscous_work(law, VectorField(grid, u)).total == pytest.approx(expected, rel=POWER_TOL)
