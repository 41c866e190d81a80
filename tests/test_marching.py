"""Fixed-point slab tests: contraction, chaining, halving, direct stepping."""

import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from anisostokes.fields import (
    GridSpec,
    MollifierKernel,
    ScalarField,
    VectorField,
    grad,
    grad_l2_norm,
    grad_norm_sq_hat,
    mollify,
)
from anisostokes import fields, marching, stokes
from anisostokes.marching import (
    Ledger,
    NoContraction,
    Slab,
    SlabCollapse,
    Trajectory,
    _account,
    _Momentum,
    _step,
    apply_B,
    direct_march,
    march,
    picard_solve,
)
from anisostokes.stokes import StokesOperator, residual
from anisostokes.transport import (
    CFLBreach,
    NewtonFail,
    SolverParams,
    cfl_dt,
    continuity_step,
    pressure_field,
)
from anisostokes.viscosity import (
    ConstantFull,
    DiagNu,
    VaryingFull,
    isotropic_strain_tensor,
    viscous_work,
)
from keepall import KeepAll, kept


CUMULATIVES = ("work_cum", "drag_hi_cum", "drag_lo_cum", "pgamma_l2_sq_cum", "divu_l1_cum")
# the old transport ledger's fields, in the order the pinned data lists them
MASS_FIELDS = ("mass_now", "drag2g_cum", "drag3_cum", "grad_rho_gamma_half_cum", "mass_initial")


def cosine_density(grid, amp=0.2, axis=0):
    xs = grid.meshgrid()
    return ScalarField(grid, 1.0 + amp * np.cos(xs[axis]))


def canonical_params(**overrides):
    base = dict(gamma=2.0, eps=0.01, delta=0.2, eta=0.01, dt_max=0.01)
    base.update(overrides)
    return SolverParams(**base)


# ------------------------------------------------------------ slab, map B

def test_slab_validation():
    with pytest.raises(ValueError):
        Slab(0.0, 0.0, 4)
    with pytest.raises(ValueError):
        Slab(0.0, 1.0, 0)
    assert Slab(0.0, 0.1, 4).dt == pytest.approx(0.025)


def test_apply_b_zero_is_fixed_point_for_constant_data():
    g = GridSpec(2, 16)
    p = canonical_params()
    rho0 = ScalarField.constant(g, 1.0)
    slab = Slab(0.0, 0.04, 4)
    out = apply_B(DiagNu((1.0, 1.0)), [VectorField.zeros(g)] * 4, rho0, None, p, slab)
    assert len(out) == 4
    for u in out:
        assert u.linf_norm() == 0.0


def test_apply_b_kills_shear_flow_on_constant_density():
    # a shear flow has exactly zero discrete flux divergence, so a uniform
    # density stays uniform and the momentum solve returns zero
    g = GridSpec(2, 16)
    p = canonical_params()
    rho0 = ScalarField.constant(g, 1.0)
    x, y = g.meshgrid()
    shear = VectorField.from_arrays(g, [np.sin(y), np.zeros(g.shape)])
    out = apply_B(DiagNu((1.0, 4.0)), [shear] * 4, rho0, None, p, Slab(0.0, 0.04, 4))
    for u in out:
        assert u.linf_norm() <= 1e-13


def test_apply_b_half_step_refinement():
    g = GridSpec(3, 16)
    p = canonical_params()
    rho0 = cosine_density(g)
    tensor = DiagNu((1.0, 1.0, 4.0))
    zero = VectorField.zeros(g)
    coarse = apply_B(tensor, [zero] * 5, rho0, None, p, Slab(0.0, 0.05, 5))
    fine = apply_B(tensor, [zero] * 10, rho0, None, p, Slab(0.0, 0.05, 10))
    for j in (0, 2, 4):
        diff = coarse[j] - fine[2 * j]
        assert diff.l2_norm() <= 1e-3


# ------------------------------------------------------------ picard

def test_picard_constant_data_converges_in_one_iteration():
    g = GridSpec(1, 32)
    p = canonical_params()
    rho0 = ScalarField.constant(g, 1.0)
    (_, history), states = kept(picard_solve, DiagNu((1.0,)), rho0, None, p, Slab(0.0, 0.05, 5))
    assert history == []
    for u in states.velocities:
        assert u.linf_norm() == 0.0
    # drag still burns mass
    assert states.final_density.max() < 1.0


def strong_coupling_scenario():
    # amplitude and viscosity floor chosen so the contraction factor is
    # well away from both 1 and the noise floor
    g = GridSpec(3, 16)
    rho0 = cosine_density(g, amp=0.5)
    p = SolverParams(gamma=2.0, eps=0.01, delta=0.5, eta=0.01, dt_max=0.01)
    return g, rho0, p, DiagNu((0.5, 0.5, 2.0))


def test_picard_canonical_slab_contracts():
    _, rho0, p, tensor = strong_coupling_scenario()
    traj, history = picard_solve(tensor, rho0, None, p, Slab(0.0, 0.2, 20))
    assert len(traj.times) == 21
    assert history, "expected at least two iterations on active data"
    assert history[-1] < 1.0
    assert traj.fixed_point_reports[0][2] <= 20


def test_picard_halved_slab_contracts_faster():
    _, rho0, p, tensor = strong_coupling_scenario()
    _, full = picard_solve(tensor, rho0, None, p, Slab(0.0, 0.2, 20))
    _, half = picard_solve(tensor, rho0, None, p, Slab(0.0, 0.1, 10))
    assert half[-1] < full[-1]


def test_picard_two_starts_reach_same_fixed_point():
    g = GridSpec(3, 16)
    p = canonical_params()
    rho0 = cosine_density(g)
    tensor = DiagNu((1.0, 1.0, 4.0))
    slab = Slab(0.0, 0.05, 5)
    _, zero = kept(picard_solve, tensor, rho0, None, p, slab)
    rng = np.random.default_rng(7)
    xs = g.meshgrid()
    comps = [
        0.05 * np.sin(xs[0] + rng.uniform(0, 2 * np.pi))
        + 0.05 * np.cos(xs[2] + rng.uniform(0, 2 * np.pi))
        for _ in range(3)
    ]
    start = VectorField.from_arrays(g, comps)
    _, rand = kept(picard_solve, tensor, rho0, None, p, slab, v0=[start] * 5)
    dt = slab.dt
    total = sum(
        grad_l2_norm(a - b) ** 2 for a, b in zip(zero.velocities[:5], rand.velocities[:5])
    )
    assert np.sqrt(dt * total) <= 10 * p.fp_tol


def test_picard_trajectory_contracts_stokes_residual():
    g = GridSpec(2, 24)
    p = canonical_params(delta=0.3)
    rho0 = cosine_density(g)
    tensor = DiagNu((1.0, 4.0))
    (traj, _), states = kept(picard_solve, tensor, rho0, None, p, Slab(0.0, 0.04, 4))
    op = StokesOperator.build(tensor, g)
    kernel = MollifierKernel(g, p.delta)
    for rho, u in zip(states.densities, states.velocities):
        q = mollify(pressure_field(rho, p.gamma), kernel) * (-1.0)
        assert residual(op, u, q) <= stokes._KRYLOV_RTOL * max(grad(q).l2_norm(), 1e-30)
        for c in u.components:
            assert abs(c.mean()) <= 1e-13
    assert all(b > a for a, b in zip(traj.times, traj.times[1:]))


@pytest.mark.parametrize("where", ["pressure_field", "continuity_step"])
def test_a_solve_failure_in_picard_solve_names_its_slab(monkeypatch, where):
    # the start solve builds the pressure first; the passes step the density
    def fail(*args, **kwargs):
        raise NewtonFail("drag solve stalled")

    monkeypatch.setattr(marching, where, fail)
    with pytest.raises(NewtonFail) as err:
        picard_solve(DiagNu((1.0,)), cosine_density(GridSpec(1, 16)), None,
                     canonical_params(), Slab(0.0, 0.05, 5))
    assert str(err.value) == "drag solve stalled on slab [0.0, 0.05]"


def always_breached(w, dt, params):
    raise CFLBreach(dt, 0.5 * dt, 1e-30)


@pytest.mark.parametrize("overrides, patched, message", [
    # one pass never reaches fp_tol = 0
    (dict(fp_max_iter=1, fp_tol=0.0), None,
     r"no convergence in 1 iterations \(last update \S+\)"),
    # every converged iterate breaches the CFL check, so the retries run out
    ({}, always_breached, "iterates kept outrunning the CFL budget"),
], ids=["no-convergence", "cfl"])
def test_a_contraction_failure_in_picard_solve_names_its_slab_once(monkeypatch, overrides,
                                                                    patched, message):
    if patched is not None:
        monkeypatch.setattr(marching, "check_cfl", patched)
    with pytest.raises(NoContraction) as err:
        picard_solve(DiagNu((1.0,)), cosine_density(GridSpec(1, 16)), None,
                     canonical_params(**overrides), Slab(0.0, 0.05, 5))
    assert re.fullmatch(rf"{message} on slab \[0\.0, 0\.05\]", str(err.value))


# ------------------------------------------------------------ velocity pairs

def anisotropic_constant_tensor():
    direction = np.array([np.cos(0.3), np.sin(0.3)])
    aniso = np.einsum("i,j,k,l->ijkl", *([direction] * 4))
    return ConstantFull(isotropic_strain_tensor(2, 1.0) + 2.0 * aniso)


@pytest.mark.parametrize("n", [16, 15])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("tensor", [DiagNu((1.0, 4.0)), anisotropic_constant_tensor()],
                         ids=["diag", "constant"])
def test_symbol_pair_matches_stencil_path(tensor, forced, n):
    g = GridSpec(2, n)
    p = canonical_params(delta=0.6)
    x, y = g.meshgrid()
    rho = ScalarField(g, 1.0 + 0.3 * np.cos(x) + 0.2 * np.sin(x + 2 * y))
    f = ScalarField(g, 0.4 * np.sin(2 * x - y)) if forced else None
    mom = _Momentum(tensor, g, f, p)
    kernel = MollifierKernel(g, p.delta)
    assert 2 * kernel.radius_cells + 1 < n

    pair = mom.pair(rho)
    uhat, w = pair[0], mom.advecting(pair)
    u = VectorField.from_arrays(g, g.irfft(uhat))
    stencil_w = mollify(u, kernel)
    assert (w - stencil_w).linf_norm() <= 1e-13 * u.linf_norm()
    q = mollify(pressure_field(rho, p.gamma), kernel) * (-1.0)
    if forced:
        q = q + f
    op = mom.op
    assert op.mode == "symbol"
    assert residual(op, u, q) <= stokes._KRYLOV_RTOL * grad(q).l2_norm()
    for c in u.components:
        assert abs(c.mean()) <= 1e-13


def test_pair_without_mollifier_repeats_the_velocity():
    g = GridSpec(2, 16)
    p = canonical_params(delta=0.0)
    mom = _Momentum(DiagNu((1.0, 4.0)), g, None, p)
    assert mom.kernel is None
    pair = mom.pair(cosine_density(g))
    uhat = pair[0]
    assert np.array_equal(mom.advecting(pair).stacked(), g.irfft(uhat))
    # a fresh pair makes u on each call, a stored one holds it as its w
    assert np.array_equal(mom.velocity(pair).stacked(), g.irfft(uhat))
    stored = mom.filled(pair)
    assert np.array_equal(stored[1].stacked(), g.irfft(uhat))
    assert mom.velocity(stored) is stored[1]


@pytest.mark.parametrize("delta", [0.0, 0.6])
def test_forced_symbol_pair_takes_one_forward_transform(monkeypatch, delta):
    # the first solve takes the forcing's half spectrum and the kernel's
    # symbol, once each; the second is counted
    g = GridSpec(2, 16)
    x, y = g.meshgrid()
    f = ScalarField(g, 0.4 * np.sin(2 * x - y))
    mom = _Momentum(DiagNu((1.0, 4.0)), g, f, canonical_params(delta=delta))
    assert mom.op.mode == "symbol"
    rho = cosine_density(g)
    first = mom.pair(rho)
    transforms = counting(monkeypatch, GridSpec, "rfft", lambda args: args[1].shape)
    second = mom.pair(rho)
    assert np.array_equal(second[0], first[0])
    assert np.array_equal(mom.advecting(second).stacked(), mom.advecting(first).stacked())
    assert transforms == [g.shape]


@pytest.mark.parametrize("entry", ["march", "direct_march", "picard_solve", "apply_B"])
def test_a_forcing_that_is_not_a_field_on_the_grid_is_refused(entry):
    g = GridSpec(1, 16)
    p = canonical_params(delta=0.0)
    rho0 = cosine_density(g)
    calls = {
        "march": lambda f: march(DiagNu((1.0,)), rho0, f, p, 0.01, 0.01),
        "direct_march": lambda f: direct_march(DiagNu((1.0,)), rho0, f, p, 0.01),
        "picard_solve": lambda f: picard_solve(DiagNu((1.0,)), rho0, f, p, Slab(0.0, 0.01, 1)),
        "apply_B": lambda f: apply_B(DiagNu((1.0,)), [VectorField.zeros(g)], rho0, f, p,
                                     Slab(0.0, 0.01, 1)),
    }
    static = ScalarField.constant(g, 1.0)
    with pytest.raises(TypeError, match="^f must be None or a ScalarField, got function$"):
        calls[entry](lambda t: static)
    with pytest.raises(ValueError, match=r"^f is on grid \(32,\), the march on \(16,\)$"):
        calls[entry](ScalarField.constant(GridSpec(1, 32), 1.0))


def test_advance_releases_its_inputs_and_sums_the_distance():
    tensor, rho0, p = multi_slab_scenario()
    g = rho0.grid
    mom = _Momentum(tensor, g, None, p)
    start = mom.pair(rho0)
    dt = 0.005
    pairs = [start] * 4
    out, dist, first = marching._iterate(mom, pairs, rho0, start, dt)
    assert pairs == [None] * 4
    assert len(out) == 4 and out[0] is start
    # the first-step result: the advanced density and the drag integrals
    rho1, removed = continuity_step(rho0, mom.advecting(start), dt, p)
    assert np.array_equal(first[0].data, rho1.data)
    assert_same_step(first, _step(rho0, mom.advecting(start), dt, p))
    assert first[1] > 0.0 and first[2] > 0.0
    assert first[1] + first[2] == pytest.approx(removed.sum() * g.cell_volume, rel=1e-12)
    total = sum(grad_norm_sq_hat(g, uhat - start[0]) for uhat, _w in out)
    assert dist == np.sqrt(dt * total)
    u0 = mom.velocity(start)
    real = sum(grad_l2_norm(mom.velocity(pair) - u0) ** 2 for pair in out)
    assert dist == pytest.approx(np.sqrt(dt * real), rel=1e-13)


# ------------------------------------------------------------ accountant

def assert_same_step(a, b):
    """Two :func:`marching._step` results agree bit for bit."""
    assert np.array_equal(a[0].data, b[0].data)
    assert a[1:] == b[1:]


def account_steps(rho, v, dt, p, steps, tensor):
    """``steps`` accounted continuity steps under a fixed v from a fresh ledger."""
    pair = (rho.grid.rfft(v.stacked()), v)
    mom = _Momentum(tensor, rho.grid, None, p)
    ledger = Ledger.fresh(rho)
    for _ in range(steps):
        step = _step(rho, v, dt, p)
        ledger = _account(ledger, rho, step, pair, pair, dt, mom)
        rho = step[0]
    return rho, ledger


@pytest.mark.parametrize("eps,eta", [(0.0, 0.0), (0.05, 0.0), (0.0, 0.4), (0.05, 0.4)])
def test_account_advances_the_same_density(eps, eta):
    g = GridSpec(2, 16)
    p = SolverParams(gamma=1.6, eps=eps, eta=eta, dt_max=5e-3)
    rho = cosine_density(g, amp=0.4)
    x, y = g.meshgrid()
    v = VectorField.from_arrays(g, [0.5 * np.sin(x + 2 * y), 0.3 * np.cos(y)])
    dt = cfl_dt(v, p)
    accounted, ledger = account_steps(rho, v, dt, p, 1, DiagNu((1.0, 2.0)))
    bare, _ = continuity_step(rho, v, dt, p)
    assert isinstance(ledger, Ledger)
    assert np.array_equal(bare.data, accounted.data)


def test_account_splits_the_drag_removal_over_the_channels():
    # uniform rho = 1, gamma = 2, eta = 0.1, dt = 0.01: the removed mass
    # 1 - r of the root r of r + dt*eta*(r^4 + r^3) = 1 splits as r^4 : r^3
    g = GridSpec(1, 16)
    p = SolverParams(gamma=2.0, eta=0.1)
    dt = 0.01
    _, led = account_steps(ScalarField.constant(g, 1.0), VectorField.zeros(g), dt, p, 1,
                           DiagNu((1.0,)))
    root = brentq(lambda r: r + dt * 0.1 * (r**4 + r**3) - 1.0, 0.0, 1.0, xtol=1e-15)
    removed = (1.0 - root) * g.volume
    assert led.drag2g_cum + led.drag3_cum == pytest.approx(removed, rel=1e-12)
    assert led.drag2g_cum / led.drag3_cum == pytest.approx(root**4 / root**3, rel=1e-12)


def symbol_law(kind, dim, rng):
    """A diagonal law, or a coercive constant one with no major symmetry."""
    if kind == "diag":
        return DiagNu(tuple(rng.uniform(0.5, 3.0, dim)))
    return ConstantFull(isotropic_strain_tensor(dim, 1.0) + 0.1 * rng.uniform(size=(dim,) * 4))


@pytest.mark.parametrize("kind", ["diag", "constant"])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [7, 8])
def test_half_spectrum_stress_power_matches_the_real_space_one(kind, dim, n):
    # rough random data exercises every mode, the Nyquist planes included
    g = GridSpec(dim, n)
    rng = np.random.default_rng(100 * dim + n)
    tensor = symbol_law(kind, dim, rng)
    u = VectorField.from_arrays(g, rng.standard_normal((dim,) + g.shape))
    expected = viscous_work(tensor, u).total
    got = _Momentum(tensor, g, None, SolverParams()).stress_power((g.rfft(u.stacked()), u))
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [7, 8])
def test_account_takes_the_gradient_energy_from_the_half_spectrum(dim, n):
    g = GridSpec(dim, n)
    rng = np.random.default_rng(7 * dim + n)
    rho = ScalarField(g, rng.uniform(0.5, 1.5, g.shape))
    p = SolverParams(gamma=1.4, eps=0.05, eta=0.0, dt_max=5e-3)
    v = VectorField.zeros(g)
    dt = 1e-3
    rho1, led = account_steps(rho, v, dt, p, 1, DiagNu((1.0,) * dim))
    g2 = sum(c.data**2 for c in grad(ScalarField(g, rho1.data ** (0.5 * p.gamma))).components)
    expected = 4.0 * p.eps * (1.0 - 1.0 / p.gamma) * float(g2.sum()) * g.cell_volume * dt
    assert led.grad_rho_gamma_half_cum == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("dim,n", [(1, 128), (2, 32), (3, 12)])
def test_account_keeps_the_mass_identity_full_physics(dim, n):
    g = GridSpec(dim, n)
    p = SolverParams(gamma=1.6, eps=0.05, eta=0.4, dt_max=5e-3)
    xs = g.meshgrid()
    rho = ScalarField(g, 1.0 + 0.3 * np.cos(xs[0]) + 0.1 * np.sin(xs[-1]))
    v = VectorField.from_arrays(g, [0.4 * np.sin(xs[a] + xs[0]) for a in range(dim)])
    rho, led = account_steps(rho, v, cfl_dt(v, p), p, 40, DiagNu((1.0,) * dim))
    assert led.identity_defect() <= 1e-12 * led.mass_initial * 40
    assert rho.min() >= 0.0
    assert led.drag2g_cum > 0.0 and led.drag3_cum > 0.0
    assert led.grad_rho_gamma_half_cum > 0.0


# ------------------------------------------------------------ march

def test_march_constant_data_follows_drag_ode():
    g = GridSpec(1, 16)
    p = canonical_params(eta=0.1, dt_max=1e-3)
    traj, states = kept(march, DiagNu((1.0,)), ScalarField.constant(g, 1.0), None, p, 0.1, 0.05)
    assert traj.times[-1] == pytest.approx(0.1, abs=1e-12)
    sol = solve_ivp(
        lambda t, y: -0.1 * (y**4 + y**3), (0.0, 0.1), [1.0], rtol=1e-11, atol=1e-13
    )
    assert np.allclose(states.final_density.data, sol.y[0, -1], atol=1e-4)
    for u in states.velocities:
        assert u.linf_norm() == 0.0
    for led in traj.ledgers:
        assert led.identity_defect() <= 1e-10 * led.mass_initial


def test_march_t_end_zero_returns_initial_state():
    g = GridSpec(2, 16)
    p = canonical_params()
    rho0 = cosine_density(g)
    traj, states = kept(march, DiagNu((1.0, 1.0)), rho0, None, p, 0.0, 0.05)
    assert len(traj.times) == 1
    assert traj.times[0] == 0.0
    assert np.array_equal(states.densities[0].data, rho0.data)


def test_single_slab_equals_chained_half_slabs():
    g = GridSpec(2, 16)
    p = canonical_params()
    rho0 = cosine_density(g)
    tensor = DiagNu((1.0, 4.0))
    _, whole = kept(picard_solve, tensor, rho0, None, p, Slab(0.0, 0.08, 16))
    _, first = kept(picard_solve, tensor, rho0, None, p, Slab(0.0, 0.04, 8))
    _, second = kept(picard_solve, tensor, first.final_density, None, p, Slab(0.04, 0.08, 8))
    gap = whole.final_density - second.final_density
    assert gap.l2_norm() <= 1e-6


def test_march_slab_halving_recovers():
    g = GridSpec(2, 16)
    p = canonical_params(eps=0.02)
    rho0 = cosine_density(g, amp=0.3)
    tensor = DiagNu((1.0, 4.0))
    # calibrate: how many iterations does the full slab need?
    _, history = picard_solve(tensor, rho0, None, p, Slab(0.0, 0.05, 5))
    needed = len(history) + 1
    assert needed >= 3, "scenario too tame to exercise halving"
    tight = canonical_params(eps=0.02, fp_max_iter=needed - 1)
    traj = march(tensor, rho0, None, tight, 0.05, 0.05)
    assert traj.slab_halvings >= 1
    assert traj.times[-1] == pytest.approx(0.05, abs=1e-12)


def test_march_slab_collapse_when_iteration_is_starved():
    g = GridSpec(2, 16)
    p = canonical_params(fp_max_iter=1)
    rho0 = cosine_density(g, amp=0.3)
    with pytest.raises(SlabCollapse):
        march(DiagNu((1.0, 4.0)), rho0, None, p, 0.05, 0.05)


@pytest.mark.parametrize("fp_tol", [1e9, 1e-7])
def test_converged_iterate_that_breaks_cfl_retries_the_slab(fp_tol):
    # two substeps are too few for the speed of about 50 that the forcing
    # drives; at fp_tol = 1e9 the first pass is accepted and its iterates
    # outrun the budget all the same
    g = GridSpec(1, 32)
    f = ScalarField(g, 50.0 * np.cos(g.meshgrid()[0]))
    p = SolverParams(fp_tol=fp_tol)
    traj, _history = picard_solve(DiagNu((1.0,)), ScalarField.constant(g, 1.0), f, p,
                                  Slab(0.0, 0.02, 2))
    assert traj.times[-1] == pytest.approx(0.02, abs=1e-12)
    assert slab_steps(traj) == [15]


# ------------------------------------------------------------ work per march

def multi_slab_scenario():
    g = GridSpec(2, 16)
    return DiagNu((1.0, 4.0)), cosine_density(g, amp=0.3), canonical_params(delta=0.5)


def slab_steps(traj):
    """Substeps of each slab of a march stored with store_every = 1."""
    starts = [traj.times.index(report[0]) for report in traj.fixed_point_reports]
    return [b - a for a, b in zip(starts, starts[1:] + [len(traj.times) - 1])]


def counting(monkeypatch, namespace, name, keep):
    """Replace ``namespace.name`` by a wrapper that logs ``keep(args)`` per call."""
    log = []
    original = getattr(namespace, name)

    def wrapper(*args, **kwargs):
        log.append(keep(args))
        return original(*args, **kwargs)

    monkeypatch.setattr(namespace, name, wrapper)
    return log


def test_march_does_each_slab_computation_once(monkeypatch):
    tensor, rho0, p = multi_slab_scenario()
    builds = []
    original_build = StokesOperator.build

    def build(cls, *args, **kwargs):
        builds.append(args)
        return original_build(*args, **kwargs)

    monkeypatch.setattr(StokesOperator, "build", classmethod(build))
    solves = counting(monkeypatch, _Momentum, "pair", lambda args: None)
    steps_taken = counting(monkeypatch, marching, "continuity_step", lambda args: None)
    accounted = counting(monkeypatch, marching, "_account", lambda args: None)
    traj = march(tensor, rho0, None, p, 0.09, 0.03)

    assert traj.slab_halvings == 0
    iters = [report[2] for report in traj.fixed_point_reports]
    steps = slab_steps(traj)
    assert len(steps) >= 3 and min(iters) >= 2 and max(iters) >= 3
    assert len(builds) == 1
    # pass k >= 3 of an s-substep slab skips the k - 2 substeps pass k - 1
    # settled: s - k + 2 steps and s - k + 1 solves; passes 1 and 2 do s
    # steps and s - 1 solves each
    settled = [[max(k - 2, 0) for k in range(1, n + 1)] for n in iters]
    solved = sum(s - 1 - m for skips, s in zip(settled, steps) for m in skips)
    stepped = sum(s - m for skips, s in zip(settled, steps) for m in skips)
    # the recording pass solves substeps j >= K of a slab that took K
    # passes, plus the slab end; substep 0 of each slab reuses the velocity
    # stored at the end of the previous one, and only the very first state
    # is solved up front
    recorded = sum(max(0, s - k) + 1 for k, s in zip(iters, steps))
    assert len(solves) == 1 + solved + recorded
    assert len(accounted) == sum(steps)
    # the first steps of passes 2 ... K are the recording pass's steps at
    # substeps 0 ... K - 2, so it takes only the other s - K + 1
    assert len(steps_taken) == stepped + sum(s - k + 1 for k, s in zip(iters, steps))


def while_recording(monkeypatch):
    """A list that is non-empty exactly while a recording pass runs."""
    recording = []
    record = marching._record

    def flagged(*args):
        recording.append(None)
        try:
            return record(*args)
        finally:
            recording.clear()

    monkeypatch.setattr(marching, "_record", flagged)
    return recording


@pytest.mark.parametrize("slab", [Slab(0.0, 0.05, 10), Slab(0.0, 0.005, 1)],
                         ids=["ten-substeps", "one-substep"])
def test_the_recording_pass_steps_only_what_no_pass_settled(monkeypatch, slab):
    tensor, rho0, p = multi_slab_scenario()
    recording = while_recording(monkeypatch)
    steps = counting(monkeypatch, marching, "continuity_step", lambda args: bool(recording))
    traj, _history = picard_solve(tensor, rho0, None, p, slab)
    passes = traj.fixed_point_reports[0][2]
    assert passes >= 2
    assert sum(steps) == slab.steps - passes + 1


@pytest.mark.parametrize("asks", [False, True], ids=["quiet", "keep-all"])
def test_the_recording_pass_transforms_back_only_what_it_steps_or_is_asked(monkeypatch, asks):
    # its fresh solves serve the ledger and the observer through u_hat alone;
    # each GridSpec.irfft is logged with the function that called it
    tensor, rho0, p = multi_slab_scenario()
    slab = Slab(0.0, 0.05, 10)
    recording = while_recording(monkeypatch)
    callers = counting(monkeypatch, GridSpec, "irfft",
                       lambda args: recording and sys._getframe(2).f_code.co_name)
    observe = (lambda t, rho, velocity, ledger: velocity()) if asks else None
    traj, _history = picard_solve(tensor, rho0, None, p, slab, observe=observe)
    passes = traj.fixed_point_reports[0][2]
    assert passes >= 2 and len(traj) == slab.steps + 1
    # div w of each accounted substep; w of each step it takes (the passes
    # took the first passes - 1, and substep 0's start pair holds its w) and
    # of the stored slab end; u of each of its states the observer asks for
    made = {"div_hat": slab.steps, "advecting": slab.steps - passes + 2}
    if asks:
        made["velocity"] = slab.steps
    assert Counter(name for name in callers if name) == made


def test_picard_passes_skip_only_what_the_previous_pass_settled():
    tensor, rho0, p = multi_slab_scenario()
    mom = _Momentum(tensor, rho0.grid, None, p)
    start = mom.pair(rho0)
    steps, dt = 6, 0.005
    zero = [(0.0, VectorField.zeros(rho0.grid))] * steps
    full, skip = list(zero), list(zero)
    settled, rho = [], rho0
    for k in range(1, steps + 2):
        full, full_dist, _ = marching._iterate(mom, full, rho0, start, dt)
        skip, skip_dist, first = marching._iterate(mom, skip, rho, start, dt, len(settled))
        assert skip_dist == full_dist
        assert (full_dist > 0.0) == (k <= steps)
        for a, b in zip(full, skip, strict=True):
            assert np.array_equal(a[0], b[0])
            assert np.array_equal(mom.advecting(a).stacked(), mom.advecting(b).stacked())
        if k >= 2:
            settled.append(first)
            rho = first[0]
    # every pair has settled, and the first step of pass k >= 2 is the
    # recording pass's step at substep k - 2 along the converged pairs
    assert len(settled) == steps
    rho = rho0
    for step, pair in zip(settled, full, strict=True):
        assert_same_step(step, _step(rho, mom.advecting(pair), dt, p))
        rho = step[0]


def full_passes(monkeypatch):
    """Make every Picard pass of a march, and its recording pass, solve every substep."""
    iterate, record = marching._iterate, marching._record
    slab_start = {}

    def every_substep(mom, pairs, rho, start, dt, settled=0):
        # each slab's passes share its start pair; passes 1 and 2 start from
        # the slab-start density
        if settled == 0:
            slab_start[id(start)] = rho
        return iterate(mom, pairs, slab_start[id(start)], start, dt)

    monkeypatch.setattr(marching, "_iterate", every_substep)
    monkeypatch.setattr(marching, "_record", lambda *args: record(*args[:-1], []))


def assert_same_trajectory(a, b):
    """Two (trajectory, kept states) runs agree bit for bit."""
    (traj_a, kept_a), (traj_b, kept_b) = a, b
    assert traj_a.times == traj_b.times == kept_a.times
    for x, y in zip(kept_a.densities, kept_b.densities, strict=True):
        assert np.array_equal(x.data, y.data)
    for x, y in zip(kept_a.velocities, kept_b.velocities, strict=True):
        assert np.array_equal(x.stacked(), y.stacked())
    assert traj_a.ledgers == traj_b.ledgers
    assert traj_a.fixed_point_reports == traj_b.fixed_point_reports


def test_skipping_the_settled_prefix_changes_no_bit(monkeypatch):
    tensor, rho0, p = multi_slab_scenario()
    slab = Slab(0.0, 0.05, 10)
    run = kept(march, tensor, rho0, None, p, 0.09, 0.03)
    (piece, history), piece_states = kept(picard_solve, tensor, rho0, None, p, slab)
    assert max(report[2] for report in run[0].fixed_point_reports) >= 3
    assert len(history) + 1 >= 3
    with monkeypatch.context() as patch:
        full_passes(patch)
        full = kept(march, tensor, rho0, None, p, 0.09, 0.03)
        (full_piece, full_history), full_states = kept(picard_solve, tensor, rho0, None, p, slab)
    assert_same_trajectory(run, full)
    assert_same_trajectory((piece, piece_states), (full_piece, full_states))
    assert history == full_history


def test_symbol_march_takes_no_real_space_derivatives(monkeypatch):
    # the distance, the divergence and the stress power all come from half
    # spectra; every binding of the real-space helpers in the package counts
    tensor, rho0, p = multi_slab_scenario()
    logs = []
    for name in ("grad_l2_norm", "jacobian", "div", "grad"):
        original = getattr(fields, name)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("anisostokes")
                    and vars(module).get(name) is original):
                logs.append(counting(monkeypatch, module, name, lambda args: args))
    assert len(logs) >= 5
    traj = march(tensor, rho0, None, p, 0.09, 0.03)
    assert len(traj.fixed_point_reports) >= 3
    assert [log for log in logs if log] == []


def test_symbol_account_takes_two_real_transforms_per_substep(monkeypatch):
    # the inverse one of div w and the forward one of rho^{gamma/2}; the
    # continuity step it accounts for, with the diffusion's complex
    # transforms, is taken before it
    tensor, rho0, p = multi_slab_scenario()
    calls = []
    for name in ("rfft", "irfft", "fft", "ifft"):
        counting(monkeypatch, GridSpec, name, lambda args, name=name: calls.append(name))
    spans = []
    account = marching._account

    def spanned(*args, **kwargs):
        start = len(calls)
        out = account(*args, **kwargs)
        spans.append(calls[start:])
        return out

    monkeypatch.setattr(marching, "_account", spanned)
    traj = march(tensor, rho0, None, p, 0.06, 0.03)
    assert p.eps > 0.0
    assert spans == [["irfft", "rfft"]] * (len(traj) - 1)


def test_march_matches_chained_picard_solves():
    tensor, rho0, p = multi_slab_scenario()
    traj, states = kept(march, tensor, rho0, None, p, 0.09, 0.03)
    chain = KeepAll()
    ledger = None
    rho = rho0
    for report, steps in zip(traj.fixed_point_reports, slab_steps(traj)):
        (piece, _), piece_states = kept(
            picard_solve, tensor, rho, None, p, Slab(report[0], report[1], steps), ledger=ledger
        )
        assert piece.ledgers == piece_states.ledgers
        # each piece opens with the state the previous one closed on
        skip = 1 if chain.times else 0
        for name in ("times", "densities", "velocities", "ledgers"):
            getattr(chain, name).extend(getattr(piece_states, name)[skip:])
        rho = piece_states.final_density
        ledger = piece.ledgers[-1]
    assert chain.times == traj.times
    for a, b in zip(chain.densities, states.densities, strict=True):
        assert np.array_equal(a.data, b.data)
    for a, b in zip(chain.velocities, states.velocities, strict=True):
        assert np.array_equal(a.stacked(), b.stacked())
    assert chain.ledgers == traj.ledgers


SCIPY_FREE_PREAMBLE = """
import sys
import numpy as np
from anisostokes import (
    DefectParams, DiagNu, GridSpec, Ledger, ScalarField, SolverParams, StokesOperator,
    VaryingFull, VectorField, march, solve, state_row,
)
g = GridSpec(2, 16)
x, y = g.meshgrid()
rho = ScalarField(g, 1.0 + 0.2 * np.cos(x))
eye = np.eye(2)
iso = 0.5 * (np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye))
"""

# each run in a fresh interpreter, printing the scipy modules it loaded
SCIPY_FREE_SCRIPTS = {
    "symbol march": """
g = GridSpec(1, 32)
rho = ScalarField(g, 1.0 + 0.2 * np.cos(g.meshgrid()[0]))
march(DiagNu((1.0,)), rho, None, SolverParams(gamma=2.0, delta=0.3), 0.02, 0.01)
""",
    "major-symmetric varying march": """
tensor = VaryingFull(g, iso[..., None, None] * (1.0 + 0.3 * np.cos(x + y)))
march(tensor, rho, None, SolverParams(gamma=2.0, delta=0.5), 0.02, 0.01)
""",
    "symbol-mode row with a commutator": """
u = VectorField.from_arrays(g, [np.sin(y), np.cos(x)])
state_row(0.0, rho, u, Ledger.fresh(rho), None, 2.0, DefectParams(window=4),
          commutator_delta=0.5)
""",
}

LGMRES_SCRIPT = """
skew = np.einsum("ij,kl->ijkl", eye, np.diag([1.0, 0.0]))  # A_ijkl != A_klij
vals = np.broadcast_to((2.0 * iso + 0.1 * skew)[..., None, None], (2, 2, 2, 2) + g.shape)
op = StokesOperator.build(VaryingFull(g, vals), g)
assert not op._use_cg
print("scipy.sparse.linalg" in sys.modules, end=" ")
solve(op, ScalarField(g, np.cos(x)))
"""


def run_script(body):
    src = os.path.dirname(os.path.dirname(marching.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = SCIPY_FREE_PREAMBLE + body + (
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def test_symbol_march_never_loads_the_stencil_or_krylov_modules():
    # the stencil mollifier and conjugate gradients are numpy: symbol-mode
    # runs, their commutator diagnostic and major-symmetric varying laws
    # load no scipy module at all
    loaded = {case: run_script(body) for case, body in SCIPY_FREE_SCRIPTS.items()}
    assert loaded == dict.fromkeys(SCIPY_FREE_SCRIPTS, "[]")
    # a law without the major symmetry still solves through LGMRES, which
    # loads scipy.sparse.linalg only once it runs
    before, after = run_script(LGMRES_SCRIPT).split(" ", 1)
    assert before == "False"
    assert "scipy.sparse.linalg" in after


# ------------------------------------------------------------ observers

def observer_cases():
    """(driver, args, kwargs) for a symbol march stored every other substep,
    a Krylov march and a direct march."""
    tensor, rho0, p = multi_slab_scenario()
    g = GridSpec(2, 16)
    return [
        (march, (tensor, rho0, None, p, 0.09, 0.03), {"store_every": 2}),
        (march, (krylov_case_tensor(g), cosine_density(g), None, p, 0.02, 0.01), {}),
        (direct_march, (tensor, rho0, None, canonical_params(delta=0.0), 0.03), {}),
    ]


@pytest.mark.parametrize("case", range(3), ids=["symbol", "krylov", "direct"])
def test_observer_sees_the_stored_states_and_the_trajectory_keeps_no_fields(case):
    driver, args, kwargs = observer_cases()[case]
    traj = driver(*args, **kwargs)
    observed, seen = kept(driver, *args, **kwargs)
    assert {f.name for f in dataclasses.fields(Trajectory)} == {
        "times", "ledgers", "slab_halvings", "fixed_point_reports", "observe"
    }
    assert observed.times == traj.times == seen.times
    assert observed.ledgers == traj.ledgers == seen.ledgers
    assert observed.fixed_point_reports == traj.fixed_point_reports
    assert observed.slab_halvings == traj.slab_halvings
    assert len(observed) == len(traj) >= 3
    # each state reaches the observer with the ledger that accounts for it
    for rho, ledger in zip(seen.densities, seen.ledgers, strict=True):
        assert rho.integral() == ledger.mass_now
        assert rho.min() >= ledger.min_rho


def test_observed_march_makes_velocities_only_at_slab_ends(monkeypatch):
    tensor, rho0, p = multi_slab_scenario()
    made = counting(monkeypatch, _Momentum, "velocity", lambda args: None)
    traj, _ = kept(march, tensor, rho0, None, p, 0.09, 0.03)
    assert len(made) == len(traj)
    made.clear()
    # the march sizes each slab from the velocity of the state it starts
    # from: the initial state and every slab end but the last
    for observe in (lambda t, rho, velocity, ledger: None, None):
        quiet = march(tensor, rho0, None, p, 0.09, 0.03, observe=observe)
        assert len(made) == len(quiet.fixed_point_reports) >= 3
        assert len(made) < len(quiet) - 1
        made.clear()
    # an observer that asks twice still gets each velocity made once
    seen = []

    def twice(t, rho, velocity, ledger):
        assert velocity() is velocity()
        seen.append(t)

    march(tensor, rho0, None, p, 0.09, 0.03, observe=twice)
    assert len(made) == len(seen) == len(traj)


def retained(run):
    """``run()`` and the bytes still allocated when it returns, its result held."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = run()
        gc.collect()
        return kept, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_observed_march_memory_does_not_grow_with_stored_states():
    # tracemalloc sees numpy buffers: a march observed by a keep-all
    # observer holds a density and a velocity per state, one whose observer
    # keeps a scalar per state (as the commands do) less than one density
    # field per state
    g = GridSpec(2, 32)
    x, y = g.meshgrid()
    rho0 = ScalarField(g, 1.0 + 0.3 * np.cos(x) * np.cos(y))
    p = canonical_params(delta=0.3, dt_max=0.005)
    field_bytes = rho0.data.nbytes

    def stored(t_end):
        return kept(march, DiagNu((1.0, 2.0)), rho0, None, p, t_end, t_end)

    def observed(t_end):
        maxima = []
        traj = march(DiagNu((1.0, 2.0)), rho0, None, p, t_end, t_end,
                     observe=lambda t, rho, velocity, ledger: maxima.append(rho.max()))
        return traj, maxima

    for run in (stored, observed):
        run(0.05)  # warm every cache a march fills once
        (short, _), short_bytes = retained(lambda: run(0.05))
        (long, _), long_bytes = retained(lambda: run(0.1))
        assert (len(short), len(long)) == (11, 21)
        grown = long_bytes - short_bytes
        if run is stored:
            assert grown >= 10 * field_bytes
        else:
            assert grown < 10 * field_bytes


def peak(run):
    """The most bytes allocated at once while ``run()`` runs, above those
    allocated before it."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_held_symbol_slab_keeps_no_real_field():
    # a symbol pair holds its half spectrum and no w, so the passes of a
    # slab of 2S substeps, which hold one pair per substep, peak at most S
    # half spectra above those of S substeps, plus a few fields; a pair
    # holding its w would add a real vector field per substep
    g = GridSpec(3, 16)
    x, y, z = g.meshgrid()
    rho0 = ScalarField(g, 1.0 + 0.3 * np.cos(x) * np.cos(y) + 0.2 * np.sin(x + 2 * z))
    p = canonical_params(delta=0.6)
    tensor = DiagNu((1.0, 2.0, 3.0))
    mom = _Momentum(tensor, g, None, p)
    assert mom.kernel is not None and mom.op.mode == "symbol"
    uhat_bytes = mom.pair(rho0)[0].nbytes
    field_bytes = rho0.data.nbytes
    dt, steps = 0.0025, 6

    def solve(n):
        traj, history = picard_solve(tensor, rho0, None, p, Slab(0.0, n * dt, n))
        assert len(traj) == n + 1
        return len(history) + 1

    # several passes each; this also warms every cache a solve fills once
    assert solve(steps) >= 3 and solve(2 * steps) >= 3
    short, held = peak(lambda: solve(steps)), peak(lambda: solve(2 * steps))
    assert held - short < steps * uhat_bytes + 4 * field_bytes


# ------------------------------------------------------------ direct march

def test_direct_march_requires_zero_delta():
    g = GridSpec(1, 16)
    with pytest.raises(ValueError):
        direct_march(
            DiagNu((1.0,)),
            ScalarField.constant(g, 1.0),
            None,
            canonical_params(delta=0.1),
            0.01,
        )


@pytest.mark.parametrize("state, where", [(1, r"at t = 0\.0"), (3, r"in the step from t = \S+")],
                         ids=["start", "step"])
def test_an_observer_failure_in_direct_march_names_its_step(state, where):
    # as a march's observer failure names its slab
    seen = []

    def observe(*args):
        seen.append(args)
        if len(seen) == state:
            raise NewtonFail("observer failed")

    with pytest.raises(NewtonFail) as err:
        direct_march(DiagNu((1.0,)), cosine_density(GridSpec(1, 16)), None,
                     canonical_params(delta=0.0), 0.05, observe=observe)
    assert re.fullmatch(f"observer failed {where}", str(err.value))
    if state == 3:
        assert float(str(err.value).rpartition(" ")[2]) == seen[1][0]


def test_direct_march_matches_constant_drag_ode():
    g = GridSpec(1, 16)
    p = canonical_params(delta=0.0, eta=0.1, dt_max=1e-3)
    _, states = kept(direct_march, DiagNu((1.0,)), ScalarField.constant(g, 1.0), None, p, 0.1)
    sol = solve_ivp(
        lambda t, y: -0.1 * (y**4 + y**3), (0.0, 0.1), [1.0], rtol=1e-11, atol=1e-13
    )
    assert np.allclose(states.final_density.data, sol.y[0, -1], atol=1e-4)


def test_march_approaches_direct_as_delta_shrinks():
    g = GridSpec(1, 128)
    base = dict(gamma=2.0, eps=0.02, eta=0.05, dt_max=5e-3)
    x = g.meshgrid()[0]
    rho0 = ScalarField(g, 1.0 + 0.25 * np.cos(x) + 0.1 * np.sin(2 * x))
    tensor = DiagNu((1.0,))
    t_end = 0.2
    _, direct = kept(direct_march, tensor, rho0, None, SolverParams(delta=0.0, **base), t_end)
    gaps = []
    for delta in (0.4, 0.2):
        _, states = kept(march, tensor, rho0, None, SolverParams(delta=delta, **base), t_end,
                         0.05)
        gaps.append((states.final_density - direct.final_density).l2_norm())
    assert gaps[1] < gaps[0]


# ------------------------------------------------------------ pinned accounting

ACCOUNTING_GOLDEN = Path(__file__).resolve().parent / "data" / "accounting_golden.json"


def krylov_case_tensor(grid):
    """An isotropic 2D tensor whose viscosity varies cell by cell (Krylov mode)."""
    x, y = grid.meshgrid()
    eye = np.eye(2)
    iso = 0.5 * (np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye))
    return VaryingFull(grid, iso[..., None, None] * (1.0 + 0.3 * np.cos(x + y)))


def accounting_cases():
    """Three cases with eta > 0: a 2-slab march stored every other substep and a
    direct march, 1D, and a 2-slab march of a cellwise-varying tensor on 16^2."""
    g = GridSpec(1, 32)
    x = g.meshgrid()[0]
    rho0 = ScalarField(g, 1.0 + 0.3 * np.cos(x) + 0.1 * np.sin(2 * x))
    tensor = DiagNu((1.0,))
    base = dict(gamma=2.0, eps=0.01, eta=0.05, dt_max=0.005)
    marched = march(tensor, rho0, None, SolverParams(delta=0.3, **base), 0.06, 0.03,
                    store_every=2)
    direct = direct_march(tensor, rho0, None, SolverParams(delta=0.0, **base), 0.03,
                          store_every=2)
    g2 = GridSpec(2, 16)
    x, y = g2.meshgrid()
    rho2 = ScalarField(g2, 1.0 + 0.3 * np.cos(x) + 0.1 * np.sin(y))
    krylov = march(krylov_case_tensor(g2), rho2, None, SolverParams(delta=0.5, **base),
                   0.04, 0.02, store_every=2)
    return {"march": marched, "direct_march": direct, "march_krylov": krylov}


def accounting_record(traj):
    out = {name: [getattr(led, name) for led in traj.ledgers] for name in CUMULATIVES}
    out["times"] = list(traj.times)
    out["ledgers"] = [[getattr(led, name) for name in MASS_FIELDS] for led in traj.ledgers]
    out["min_rho_ever"] = traj.min_rho_ever
    out["max_principle_margin"] = traj.max_principle_margin
    return out


def test_krylov_ledger_takes_its_work_from_viscous_work_of_the_stored_velocity():
    # a varying law's stress power is the audit's own viscous_work, applied
    # to the very u each stored state hands its observer
    g = GridSpec(2, 16)
    x, y = g.meshgrid()
    rho0 = ScalarField(g, 1.0 + 0.3 * np.cos(x) + 0.1 * np.sin(y))
    tensor = krylov_case_tensor(g)
    traj, states = kept(march, tensor, rho0, None, canonical_params(delta=0.5), 0.04, 0.02)
    assert len(traj.fixed_point_reports) == 2
    i = 0
    for (t0, t1, *_), steps in zip(traj.fixed_point_reports, slab_steps(traj)):
        dt = (t1 - t0) / steps
        for _ in range(steps):
            work = dt * viscous_work(tensor, states.velocities[i]).total
            assert states.ledgers[i + 1].work_cum == states.ledgers[i].work_cum + work, i
            i += 1
    assert i == len(traj) - 1 >= 4


def test_accounting_matches_pinned_values():
    # bit-for-bit: regenerate the data only for an intended numerics change,
    # under the same rules as the pinned defect-study golden
    golden = json.loads(ACCOUNTING_GOLDEN.read_text())
    cases = accounting_cases()
    for case in ("march", "march_krylov"):
        assert len(cases[case].fixed_point_reports) == 2, case
        assert cases[case].slab_halvings == 0, case
    for case, traj in cases.items():
        got = json.loads(json.dumps(accounting_record(traj)))
        assert len(got["times"]) >= 4, case
        for name, values in golden[case].items():
            assert got[name] == values, f"{case}: {name}"


if __name__ == "__main__":
    # python tests/test_marching.py writes the pinned accounting data
    records = {case: accounting_record(t) for case, t in accounting_cases().items()}
    ACCOUNTING_GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
