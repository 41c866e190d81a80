"""Continuity-step tests: splitting oracles, mass identity, monotonicity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from anisostokes.fields import GridSpec, ScalarField, VectorField, div
from anisostokes.transport import (
    CFLBreach,
    NegativeInput,
    SolverParams,
    _advect,
    _diffuse,
    _drag_solve,
    cfl_dt,
    continuity_step,
    pressure_field,
)


def smooth_positive(grid, seed, floor=0.2):
    rng = np.random.default_rng(seed)
    data = np.ones(grid.shape)
    for _ in range(3):
        k = rng.integers(1, 4, size=grid.dim)
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.uniform(0.05, 0.3)
        arg = phase
        for a, x in enumerate(grid.meshgrid() if grid.dim > 1 else [grid.meshgrid()[0]]):
            arg = arg + k[a] * x
        data = data + amp * np.cos(arg)
    data = np.maximum(data, floor)
    return ScalarField(grid, data)


def smooth_velocity(grid, seed, amp=0.5):
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(grid.dim):
        c = np.zeros(grid.shape)
        for _ in range(2):
            k = rng.integers(1, 4, size=grid.dim)
            phase = rng.uniform(0, 2 * np.pi)
            arg = phase
            for a, x in enumerate(grid.meshgrid() if grid.dim > 1 else [grid.meshgrid()[0]]):
                arg = arg + k[a] * x
            c = c + rng.uniform(0.1, amp) * np.sin(arg)
        comps.append(c)
    return VectorField.from_arrays(grid, comps)


def drag_mass(removed, grid):
    """The mass one step's drag solve removed: removed.sum() h^d, 0 without drag."""
    return 0.0 if removed is None else float(removed.sum()) * grid.cell_volume


# ------------------------------------------------------------ params, cfl

def test_params_validation():
    with pytest.raises(ValueError):
        SolverParams(gamma=1.0)
    with pytest.raises(ValueError):
        SolverParams(gamma=2.0, eps=-1e-3)


def test_cfl_zero_velocity_gives_dt_max():
    g = GridSpec(1, 64)
    p = SolverParams(gamma=2.0, dt_max=0.25)
    assert cfl_dt(VectorField.zeros(g), p) == 0.25


def test_cfl_worked_example():
    # |v| = 1 on n=64: dt = 0.45 * (2 pi / 64) / 1
    g = GridSpec(1, 64)
    p = SolverParams(gamma=2.0, dt_max=10.0)
    v = VectorField.from_arrays(g, [np.ones(g.shape)])
    assert cfl_dt(v, p) == pytest.approx(0.45 * 2 * np.pi / 64, rel=1e-14)
    assert cfl_dt(v, p) == pytest.approx(0.04418, abs=5e-6)


def test_cfl_halves_when_velocity_doubles():
    g = GridSpec(2, 32)
    p = SolverParams(gamma=2.0, dt_max=10.0)
    v = smooth_velocity(g, 5)
    v2 = VectorField.from_arrays(g, [2.0 * c.data for c in v.components])
    assert cfl_dt(v2, p) == pytest.approx(0.5 * cfl_dt(v, p), rel=1e-14)


# ------------------------------------------------------------ trivial paths

def test_step_identity_when_everything_off():
    g = GridSpec(2, 32)
    p = SolverParams(gamma=2.0)
    rho = smooth_positive(g, 0)
    out, removed = continuity_step(rho, VectorField.zeros(g), 1e-3, p)
    assert np.array_equal(out.data, rho.data)
    assert out.integral() == rho.integral()
    assert removed is None


def test_negative_input_rejected():
    g = GridSpec(1, 16)
    p = SolverParams(gamma=2.0)
    rho = ScalarField.constant(g, -0.1)
    with pytest.raises(NegativeInput):
        continuity_step(rho, VectorField.zeros(g), 1e-3, p)


def test_cfl_precondition_enforced():
    g = GridSpec(1, 64)
    p = SolverParams(gamma=2.0, dt_max=10.0)
    v = VectorField.from_arrays(g, [np.ones(g.shape)])
    rho = ScalarField.constant(g, 1.0)
    with pytest.raises(ValueError) as err:
        continuity_step(rho, v, 2.0 * cfl_dt(v, p), p)
    assert isinstance(err.value, CFLBreach) and err.value.speed == 1.0


def test_pressure_field_values_and_guard():
    g = GridSpec(1, 8)
    assert np.array_equal(pressure_field(ScalarField.zeros(g), 2.0).data, np.zeros(8))
    two = pressure_field(ScalarField.constant(g, 2.0), 1.4)
    assert two.data.flat[0] == pytest.approx(2.0**1.4, rel=1e-15)
    with pytest.raises(NegativeInput):
        pressure_field(ScalarField.constant(g, -1.0), 2.0)


# ------------------------------------------------------------ drag oracle

def test_single_step_drag_matches_scalar_root():
    # uniform rho = 1, gamma = 2, eta = 0.1, dt = 0.01:
    # the step must return the root of r + dt*eta*(r^4 + r^3) = 1
    g = GridSpec(1, 16)
    p = SolverParams(gamma=2.0, eta=0.1)
    rho = ScalarField.constant(g, 1.0)
    dt = 0.01
    out, removed = continuity_step(rho, VectorField.zeros(g), dt, p)
    root = brentq(lambda r: r + dt * 0.1 * (r**4 + r**3) - 1.0, 0.0, 1.0, xtol=1e-15)
    assert np.allclose(out.data, root, rtol=1e-12, atol=0.0)
    # the step returns the removed mass cell by cell (the marcher's
    # accountant splits it over the channels)
    assert drag_mass(removed, g) == pytest.approx((1.0 - root) * g.volume, rel=1e-12)


def test_uniform_drag_tracks_ode_oracle():
    # d rho / dt = -0.1 (rho^4 + rho^3), rho(0) = 1, to t = 0.1 with dt = 1e-3
    g = GridSpec(1, 8)
    p = SolverParams(gamma=2.0, eta=0.1, eps=0.3, dt_max=1e-3)
    rho = ScalarField.constant(g, 1.0)
    v = VectorField.zeros(g)
    for _ in range(100):
        rho, _ = continuity_step(rho, v, 1e-3, p)
    sol = solve_ivp(
        lambda t, y: -0.1 * (y**4 + y**3),
        (0.0, 0.1),
        [1.0],
        rtol=1e-11,
        atol=1e-13,
    )
    exact = sol.y[0, -1]
    assert np.allclose(rho.data, exact, atol=1e-4)
    assert rho.data.std() <= 1e-14


# ------------------------------------------------------------ diffusion

def test_diffusion_mode_damping_closed_form():
    g = GridSpec(1, 64)
    eps, dt = 0.5, 0.01
    p = SolverParams(gamma=2.0, eps=eps, dt_max=1.0)
    x = g.meshgrid()[0]
    rho = ScalarField(g, 1.0 + 0.1 * np.cos(x))
    out, _ = continuity_step(rho, VectorField.zeros(g), dt, p)
    amp = 2.0 * np.fft.fft(out.data)[1] / g.n[0]
    assert amp.real == pytest.approx(0.1 / (1.0 + eps * dt), rel=1e-13)
    assert abs(amp.imag) <= 1e-15
    # mean mode untouched
    assert out.mean() == pytest.approx(rho.mean(), rel=1e-14)


def test_diffusion_damps_high_modes_harder():
    g = GridSpec(1, 64)
    p = SolverParams(gamma=2.0, eps=0.5, dt_max=1.0)
    x = g.meshgrid()[0]
    rho = ScalarField(g, 1.0 + 0.1 * np.cos(x) + 0.1 * np.cos(5 * x))
    out, _ = continuity_step(rho, VectorField.zeros(g), 0.01, p)
    spec = np.fft.fft(out.data) / g.n[0]
    assert abs(spec[5]) / abs(spec[1]) == pytest.approx(
        (1.0 + 0.005) / (1.0 + 0.005 * 25.0), rel=1e-12
    )


def test_diffusion_repair_keeps_mass_and_sign():
    # a near-delta spike pushed through a large eps*dt excites the negative
    # lobes of the spectral resolvent; the repair must clip and refill mass
    g = GridSpec(2, 32)
    p = SolverParams(gamma=2.0, eps=5.0, dt_max=1.0)
    data = np.zeros(g.shape)
    data[3, 7] = 1.0 / g.cell_volume
    rho = ScalarField(g, data)
    out, _ = continuity_step(rho, VectorField.zeros(g), 0.5, p)
    assert out.min() >= 0.0
    assert out.integral() == pytest.approx(rho.integral(), rel=1e-12)


# ------------------------------------------------------------ kernel bits
# The kernels below must reproduce these allocating forms of the same
# arithmetic bit for bit; they are the oracles, not a second implementation.

def advect_oracle(rho, v, dt):
    grid = rho.grid
    h = grid.h
    data = rho.data
    divflux = np.zeros(grid.shape)
    for a in range(grid.dim):
        va = v[a].data
        vface = 0.5 * (va + np.roll(va, -1, axis=a))
        up = np.where(vface > 0.0, data, np.roll(data, -1, axis=a))
        flux = vface * up
        divflux += (flux - np.roll(flux, 1, axis=a)) / h
    return data - dt * divflux


def diffuse_oracle(data, grid, eps, dt):
    ghat = np.fft.fftn(data) / (1.0 + eps * dt * grid.k2_full)
    out = np.fft.ifftn(ghat).real
    if out.min() < 0.0:
        mass = out.sum()
        out = np.maximum(out, 0.0)
        pos_mass = out.sum()
        if pos_mass > 0.0:
            out *= mass / pos_mass
    return out


def drag_oracle(s, a, gamma):
    x = s.copy()
    scale = max(float(s.max()), 1.0)
    two_g = 2.0 * gamma
    for _ in range(100):
        f = x + a * (x**two_g + x**3) - s
        if float(np.abs(f).max()) <= 1e-13 * scale:
            return np.maximum(x, 0.0)
        fp = 1.0 + a * (two_g * x ** (two_g - 1.0) + 3.0 * x**2)
        x = x - f / fp
        x = np.maximum(x, 0.0)
    raise AssertionError("the oracle drag solve did not converge")


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def signed_velocity(grid, seed):
    # both signs, plus faces whose average is exactly +0.0 or -0.0
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(grid.dim):
        va = rng.standard_normal(grid.shape)
        flat = va.reshape(-1)
        flat[:3] = 0.0
        flat[3:6] = -0.0
        flat[6], flat[7] = 0.75, -0.75
        comps.append(va)
    return VectorField.from_arrays(grid, comps)


@pytest.mark.parametrize("dim,n", [(1, 16), (1, 9), (2, 8), (2, 7), (3, 6), (3, 5)])
def test_advect_matches_the_rolled_form_bit_for_bit(dim, n):
    g = GridSpec(dim, n)
    rho = smooth_positive(g, seed=dim + n)
    v = signed_velocity(g, seed=10 * dim + n)
    faces = [0.5 * (c.data + np.roll(c.data, -1, axis=a)) for a, c in enumerate(v.components)]
    assert any(np.any((f == 0.0) & np.signbit(f)) for f in faces)
    assert any(np.any((f == 0.0) & ~np.signbit(f)) for f in faces)
    before = bits(rho.data).copy()
    # a step beyond the CFL limit, so that dt * divflux is as large as the
    # density and a rounding change in the fluxes reaches the result
    got = _advect(rho, v, 0.5)
    assert np.array_equal(bits(got), bits(advect_oracle(rho, v, 0.5)))
    assert np.array_equal(bits(rho.data), before)


@pytest.mark.parametrize("gamma", [2.0, 1.5])
def test_drag_solve_matches_the_allocating_newton_bit_for_bit(gamma):
    # an integer and a fractional power 2 gamma - 1
    g = GridSpec(2, 16)
    s = 3.0 * smooth_positive(g, seed=21, floor=0.0).data
    before = s.copy()
    got = _drag_solve(s, 0.2, gamma)
    assert np.array_equal(bits(got), bits(drag_oracle(s, 0.2, gamma)))
    assert np.array_equal(bits(s), bits(before))


def test_diffuse_matches_the_allocating_form_bit_for_bit_on_its_clip_branch():
    g = GridSpec(2, 32)
    data = np.zeros(g.shape)
    data[3, 7] = 1.0 / g.cell_volume
    data[20, 11] = 0.5 / g.cell_volume
    eps, dt = 0.1, 0.1
    unclipped = np.fft.ifftn(np.fft.fftn(data) / (1.0 + eps * dt * g.k2_full)).real
    assert unclipped.min() < 0.0
    got = _diffuse(data, g, eps, dt)
    assert np.array_equal(bits(got), bits(diffuse_oracle(data, g, eps, dt)))


# ------------------------------------------------------------ invariants

@pytest.mark.parametrize("dim,n", [(1, 128), (2, 32), (3, 12)])
def test_mass_identity_full_physics(dim, n):
    g = GridSpec(dim, n)
    p = SolverParams(gamma=1.6, eps=0.05, eta=0.4, dt_max=5e-3)
    rho = smooth_positive(g, 11)
    v = smooth_velocity(g, 12)
    mass0 = rho.integral()
    dt = cfl_dt(v, p)
    removed_mass = 0.0
    for _ in range(40):
        rho, removed = continuity_step(rho, v, dt, p)
        removed_mass += drag_mass(removed, g)
    assert abs(rho.integral() + removed_mass - mass0) <= 1e-12 * mass0 * 40
    assert rho.min() >= 0.0
    assert removed_mass > 0.0


def test_positivity_with_touching_zero_data():
    g = GridSpec(1, 128)
    p = SolverParams(gamma=2.0, dt_max=1e-2)
    x = g.meshgrid()[0]
    rho = ScalarField(g, np.maximum(np.cos(3 * x), 0.0))
    v = VectorField.from_arrays(g, [np.sin(x)])
    mass0 = rho.integral()
    dt = cfl_dt(v, p)
    removed_mass = 0.0
    for _ in range(60):
        rho, removed = continuity_step(rho, v, dt, p)
        removed_mass += drag_mass(removed, g)
        assert rho.min() >= 0.0
    assert abs(rho.integral() + removed_mass - mass0) <= 1e-12 * max(mass0, 1.0) * 60


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_max_principle_advection(seed):
    g = GridSpec(2, 48)
    p = SolverParams(gamma=2.0, dt_max=2e-3)
    rho = smooth_positive(g, seed)
    v = smooth_velocity(g, 100 + seed)
    dt = cfl_dt(v, p)
    bound = 1.0 + 1.1 * dt * div(v).linf_norm()
    out, _ = continuity_step(rho, v, dt, p)
    assert out.max() <= rho.max() * bound


@pytest.mark.parametrize("seed", [4, 5])
def test_l2_gronwall_bound(seed):
    g = GridSpec(2, 48)
    p = SolverParams(gamma=1.8, eps=0.02, eta=0.1, dt_max=2e-3)
    rho = smooth_positive(g, seed)
    v = smooth_velocity(g, 200 + seed)
    dt = cfl_dt(v, p)
    bound = 1.0 + 1.1 * dt * div(v).linf_norm()
    out, _ = continuity_step(rho, v, dt, p)
    assert 0.5 * out.l2_norm() ** 2 <= 0.5 * rho.l2_norm() ** 2 * bound


# ------------------------------------------------------------ properties

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None, database=None)


@st.composite
def transport_states(draw):
    """A positive density, an arbitrary velocity and a CFL-admissible dt."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(4, 24 if dim == 1 else 10))
    shape = (n,) * dim
    rho = draw(arrays(np.float64, shape, elements=st.floats(1e-3, 10.0)))
    v = draw(arrays(np.float64, (dim,) + shape, elements=st.floats(-3.0, 3.0)))
    fraction = draw(st.floats(0.05, 1.0))
    g = GridSpec(dim, n)
    return ScalarField(g, rho), VectorField.from_arrays(g, v), fraction


def central_divergence(v):
    """The discrete divergence the order-1 upwind fluxes telescope to."""
    h = v.grid.h
    return sum(
        (np.roll(v[a].data, -1, axis=a) - np.roll(v[a].data, 1, axis=a)) / (2.0 * h)
        for a in range(v.grid.dim)
    )


@PROPERTY_SETTINGS
@given(state=transport_states(), eps=st.sampled_from([0.0, 0.05]), eta=st.sampled_from([0.0, 0.3]))
def test_step_keeps_the_ledger_identity_and_positivity(state, eps, eta):
    rho, v, fraction = state
    p = SolverParams(gamma=1.7, eps=eps, eta=eta, dt_max=5e-2)
    dt = fraction * cfl_dt(v, p)
    mass0 = rho.integral()
    removed_mass = 0.0
    for _ in range(3):
        rho, removed = continuity_step(rho, v, dt, p)
        removed_mass += drag_mass(removed, rho.grid)
        assert rho.min() >= 0.0
    assert abs(rho.integral() + removed_mass - mass0) <= 1e-12 * mass0 * 3


@PROPERTY_SETTINGS
@given(state=transport_states())
def test_order_one_step_obeys_the_max_principle(state):
    # without drag or diffusion each new value is a nonnegative combination
    # of old ones whose weights sum to 1 - dt * (central divergence)
    rho, v, fraction = state
    p = SolverParams(gamma=2.0, dt_max=5e-2)
    dt = fraction * cfl_dt(v, p)
    out, _ = continuity_step(rho, v, dt, p)
    growth = 1.0 + dt * max(0.0, float(-central_divergence(v).min()))
    assert out.max() <= rho.max() * growth * (1.0 + 1e-12)
    assert out.min() >= 0.0
