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
every dimension.  The 2D cases run ``direct_march`` at delta = 0 and
``march`` at delta = 0.2 with the Picard iteration taken to its exact fixed
point (``fp_tol = 0``); the O(a) remainder keeps every stored amplitude
within 1e-8 of the closed form.
"""

import numpy as np
import pytest

from anisostokes.fields import GridSpec, MollifierKernel, ScalarField
from anisostokes.marching import direct_march, march
from anisostokes.transport import SolverParams
from anisostokes.viscosity import ConstantFull, DiagNu, isotropic_strain_tensor, minor_symmetrize

TOL = 1e-6
# delta = 0.2 spans two cells of this grid, so 1 - K(k) is 3e-3 to 1.3e-2 on MODES
GRID = GridSpec(2, 64)
GAMMA = 2.0
EPS = 0.01
AMPLITUDE = 1e-6
T_END = 0.05
MODES = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1))


def constant_law():
    """A coercive, major- and minor-symmetric tensor with no symmetry of the box."""
    b = np.random.default_rng(12).uniform(size=(2,) * 4)
    return ConstantFull(minor_symmetrize(
        isotropic_strain_tensor(2, 1.0) + 0.1 * (b + b.transpose(2, 3, 0, 1))
    ))


LAWS = {"diag-1-4": DiagNu((1.0, 4.0)), "diag-4-1": DiagNu((4.0, 1.0)), "constant": constant_law()}


def momentum_symbol(law, k):
    if law.kind == "diag":
        return np.dot(law.nu, k**2) * np.eye(2)
    return np.einsum("ijkl,j,l->ik", law.tensor_at(), k, k)


def mollifier_symbol(delta, k):
    """sum_o w(o) cos(k.o) over the kernel's even stencil of offsets o."""
    if delta == 0.0:
        return 1.0
    kernel = MollifierKernel(GRID, delta)
    m = kernel.radius_cells
    ox, oy = np.meshgrid(*[np.arange(-m, m + 1) * GRID.h] * 2, indexing="ij")
    return float(np.sum(kernel.weights * np.cos(k[0] * ox + k[1] * oy)))


def decay_rate(law, delta, k):
    s = np.sin(k * GRID.h) / GRID.h
    return GAMMA * mollifier_symbol(delta, k) ** 2 * (s @ np.linalg.solve(momentum_symbol(law, k), k))


@pytest.mark.parametrize("mode", MODES, ids=str)
@pytest.mark.parametrize("driver", ["direct", "march"])
@pytest.mark.parametrize("name", LAWS)
def test_a_small_mode_decays_as_the_closed_form(name, driver, mode):
    law = LAWS[name]
    k = np.array(mode, dtype=float)
    x, y = GRID.meshgrid()
    wave = np.cos(k[0] * x + k[1] * y)
    rho0 = ScalarField(GRID, 1.0 + AMPLITUDE * wave)
    delta = 0.0 if driver == "direct" else 0.2
    params = SolverParams(gamma=GAMMA, eps=EPS, delta=delta, eta=0.0, dt_max=0.005, fp_tol=0.0)
    states = []

    def observe(t, rho, velocity, ledger):
        states.append((t, rho.data))

    if driver == "direct":
        direct_march(law, rho0, None, params, T_END, observe=observe)
    else:
        march(law, rho0, None, params, T_END, T_END, observe=observe)
    assert len(states) == 11
    lam = decay_rate(law, delta, k)
    expected = AMPLITUDE
    for (t0, _), (t1, rho) in zip(states, states[1:]):
        dt = t1 - t0
        expected *= (1.0 - lam * dt) / (1.0 + EPS * (k @ k) * dt)
        amplitude = 2.0 * np.mean((rho - rho.mean()) * wave)
        assert amplitude == pytest.approx(expected, rel=TOL)
    # the mode decays by several percent, far above the tolerance
    assert expected < 0.98 * AMPLITUDE
