"""Fixed-point slab tests: contraction, chaining, halving, direct stepping."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

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
from anisostokes import fields, marching
from anisostokes.marching import (
    Slab,
    SlabCollapse,
    Trajectory,
    _Account,
    _Momentum,
    apply_B,
    direct_march,
    march,
    picard_solve,
)
from anisostokes.stokes import StokesOperator, residual
from anisostokes.transport import SolverParams, pressure_field
from anisostokes.viscosity import ConstantFull, DiagNu, VaryingFull, isotropic_strain_tensor


CUMULATIVES = ("work_cum", "drag_hi_cum", "drag_lo_cum", "pgamma_l2_sq_cum", "divu_l1_cum")


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
    traj, history = picard_solve(DiagNu((1.0,)), rho0, None, p, Slab(0.0, 0.05, 5))
    assert history == []
    for u in traj.velocities:
        assert u.linf_norm() == 0.0
    # drag still burns mass
    assert traj.densities[-1].max() < 1.0


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
    traj_zero, _ = picard_solve(tensor, rho0, None, p, slab)
    rng = np.random.default_rng(7)
    xs = g.meshgrid()
    comps = [
        0.05 * np.sin(xs[0] + rng.uniform(0, 2 * np.pi))
        + 0.05 * np.cos(xs[2] + rng.uniform(0, 2 * np.pi))
        for _ in range(3)
    ]
    start = VectorField.from_arrays(g, comps)
    traj_rand, _ = picard_solve(tensor, rho0, None, p, slab, v0=[start] * 5)
    dt = slab.dt
    total = sum(
        grad_l2_norm(a - b) ** 2
        for a, b in zip(traj_zero.velocities[:5], traj_rand.velocities[:5])
    )
    assert np.sqrt(dt * total) <= 10 * p.fp_tol


def test_picard_trajectory_contracts_stokes_residual():
    g = GridSpec(2, 24)
    p = canonical_params(delta=0.3)
    rho0 = cosine_density(g)
    tensor = DiagNu((1.0, 4.0))
    traj, _ = picard_solve(tensor, rho0, None, p, Slab(0.0, 0.04, 4))
    op = StokesOperator.build(tensor, g, rtol=p.stokes_rtol)
    kernel = MollifierKernel(g, p.delta)
    for rho, u in zip(traj.densities, traj.velocities):
        q = mollify(pressure_field(rho, p.gamma), kernel) * (-1.0)
        assert residual(op, u, q) <= p.stokes_rtol * max(grad(q).l2_norm(), 1e-30)
        for c in u.components:
            assert abs(c.mean()) <= 1e-13
    assert all(b > a for a, b in zip(traj.times, traj.times[1:]))


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

    uhat, w = mom.pair(rho, 0.0)
    u = VectorField.from_arrays(g, g.irfft(uhat))
    stencil_w = mollify(u, kernel)
    assert (w - stencil_w).linf_norm() <= 1e-13 * u.linf_norm()
    q = mollify(pressure_field(rho, p.gamma), kernel) * (-1.0)
    if forced:
        q = q + f
    op = mom.at(0.0)
    assert op.mode == "symbol"
    assert residual(op, u, q) <= p.stokes_rtol * grad(q).l2_norm()
    for c in u.components:
        assert abs(c.mean()) <= 1e-13


def test_pair_without_mollifier_repeats_the_velocity():
    g = GridSpec(2, 16)
    p = canonical_params(delta=0.0)
    mom = _Momentum(DiagNu((1.0, 4.0)), g, None, p)
    assert mom.kernel is None
    pair = mom.pair(cosine_density(g), 0.0)
    uhat, w = pair
    assert np.array_equal(w.stacked(), g.irfft(uhat))
    assert mom.velocity(pair) is w


def test_advance_releases_its_inputs_and_sums_the_distance():
    tensor, rho0, p = multi_slab_scenario()
    g = rho0.grid
    mom = _Momentum(tensor, g, None, p)
    start = mom.pair(rho0, 0.0)
    dt = 0.005
    pairs = [start] * 4
    out, dist = marching._iterate(mom, pairs, rho0, start, 0.0, dt)
    assert pairs == [None] * 4
    assert len(out) == 4 and out[0] is start
    total = sum(grad_norm_sq_hat(g, uhat - start[0]) for uhat, _w in out)
    assert dist == np.sqrt(dt * total)
    u0 = mom.velocity(start)
    real = sum(grad_l2_norm(mom.velocity(pair) - u0) ** 2 for pair in out)
    assert dist == pytest.approx(np.sqrt(dt * real), rel=1e-13)


# ------------------------------------------------------------ march

def test_march_constant_data_follows_drag_ode():
    g = GridSpec(1, 16)
    p = canonical_params(eta=0.1, dt_max=1e-3)
    traj = march(DiagNu((1.0,)), ScalarField.constant(g, 1.0), None, p, 0.1, 0.05)
    assert traj.final_time == pytest.approx(0.1, abs=1e-12)
    sol = solve_ivp(
        lambda t, y: -0.1 * (y**4 + y**3), (0.0, 0.1), [1.0], rtol=1e-11, atol=1e-13
    )
    assert np.allclose(traj.final_density.data, sol.y[0, -1], atol=1e-4)
    for u in traj.velocities:
        assert u.linf_norm() == 0.0
    for led in traj.ledgers:
        assert led.identity_defect() <= 1e-10 * led.mass_initial


def test_march_t_end_zero_returns_initial_state():
    g = GridSpec(2, 16)
    p = canonical_params()
    rho0 = cosine_density(g)
    traj = march(DiagNu((1.0, 1.0)), rho0, None, p, 0.0, 0.05)
    assert len(traj.times) == 1
    assert traj.times[0] == 0.0
    assert np.array_equal(traj.densities[0].data, rho0.data)


def test_single_slab_equals_chained_half_slabs():
    g = GridSpec(2, 16)
    p = canonical_params()
    rho0 = cosine_density(g)
    tensor = DiagNu((1.0, 4.0))
    whole, _ = picard_solve(tensor, rho0, None, p, Slab(0.0, 0.08, 16))
    first, _ = picard_solve(tensor, rho0, None, p, Slab(0.0, 0.04, 8))
    second, _ = picard_solve(
        tensor, first.final_density, None, p, Slab(0.04, 0.08, 8)
    )
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
    assert traj.final_time == pytest.approx(0.05, abs=1e-12)


def test_march_slab_collapse_when_iteration_is_starved():
    g = GridSpec(2, 16)
    p = canonical_params(fp_max_iter=1)
    rho0 = cosine_density(g, amp=0.3)
    with pytest.raises(SlabCollapse):
        march(DiagNu((1.0, 4.0)), rho0, None, p, 0.05, 0.05)


@pytest.mark.parametrize("fp_tol", [1e9, 1e-7])
def test_converged_iterate_that_breaks_cfl_retries_the_slab(fp_tol):
    # the forcing switches on mid-slab; at fp_tol = 1e9 the first pass is
    # accepted, and its speed of 50 outruns the two-substep budget
    g = GridSpec(1, 32)
    on = ScalarField(g, 50.0 * np.cos(g.meshgrid()[0]))
    off = ScalarField.constant(g, 0.0)
    p = SolverParams(fp_tol=fp_tol)
    traj = march(DiagNu((1.0,)), ScalarField.constant(g, 1.0),
                 lambda t: on if t >= 0.005 else off, p, 0.02, 0.02)
    assert traj.final_time == pytest.approx(0.02, abs=1e-12)
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
    ledgers = counting(monkeypatch, marching, "continuity_step", lambda args: args[4])
    traj = march(tensor, rho0, None, p, 0.09, 0.03)

    assert traj.slab_halvings == 0
    iters = [report[2] for report in traj.fixed_point_reports]
    steps = slab_steps(traj)
    assert len(steps) >= 3 and min(iters) >= 2
    assert len(builds) == 1
    # substep 0 of each slab reuses the velocity stored at the end of the
    # previous one; only the very first state is solved up front
    assert len(solves) == 1 + sum(k * (s - 1) + s for k, s in zip(iters, steps))
    with_ledger = [led for led in ledgers if led is not None]
    assert len(with_ledger) == sum(steps)
    assert len(ledgers) - len(with_ledger) == sum(k * s for k, s in zip(iters, steps))


def test_symbol_march_takes_no_real_space_derivatives(monkeypatch):
    # the distance, the divergence and the stress power all come from half
    # spectra; every binding of the real-space helpers in the package counts
    tensor, rho0, p = multi_slab_scenario()
    logs = []
    for name in ("grad_l2_norm", "jacobian", "div"):
        original = getattr(fields, name)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("anisostokes")
                    and vars(module).get(name) is original):
                logs.append(counting(monkeypatch, module, name, lambda args: args))
    assert len(logs) >= 3
    traj = march(tensor, rho0, None, p, 0.09, 0.03)
    assert len(traj.fixed_point_reports) >= 3
    assert [log for log in logs if log] == []


def test_march_matches_chained_picard_solves():
    tensor, rho0, p = multi_slab_scenario()
    traj = march(tensor, rho0, None, p, 0.09, 0.03)
    chain = Trajectory(grid=rho0.grid, params=p, tensor=tensor)
    account = _Account.fresh(rho0)
    rho = rho0
    for report, steps in zip(traj.fixed_point_reports, slab_steps(traj)):
        piece, _ = picard_solve(
            tensor, rho, None, p, Slab(report[0], report[1], steps), account=account
        )
        # each piece opens with the state the previous one closed on
        skip = 1 if chain.times else 0
        for name in ("times", "densities", "velocities", "ledgers") + CUMULATIVES:
            getattr(chain, name).extend(getattr(piece, name)[skip:])
        chain.min_rho_ever = piece.min_rho_ever
        chain.max_principle_margin = piece.max_principle_margin
        rho = piece.final_density
    assert chain.times == traj.times
    for a, b in zip(chain.densities, traj.densities):
        assert np.array_equal(a.data, b.data)
    for a, b in zip(chain.velocities, traj.velocities):
        assert np.array_equal(a.stacked(), b.stacked())
    for name in ("ledgers", "work_cum", "drag_hi_cum", "drag_lo_cum", "pgamma_l2_sq_cum",
                 "divu_l1_cum", "min_rho_ever", "max_principle_margin"):
        assert getattr(chain, name) == getattr(traj, name), name


def test_march_keeps_one_slab_of_time_dependent_operators(monkeypatch):
    g = GridSpec(1, 16)
    base = np.ones((1, 1, 1, 1) + g.shape)
    tensor = VaryingFull(g, np.stack([base, 2.0 * base]), times=[0.0, 1.0])
    held = []
    original_at = _Momentum.at

    def at(self, t):
        op = original_at(self, t)
        held.append((t, len(self._by_time)))
        return op

    monkeypatch.setattr(_Momentum, "at", at)
    p = canonical_params(delta=0.5)
    traj = march(tensor, cosine_density(g, amp=0.3), None, p, 0.09, 0.03)
    steps = slab_steps(traj)
    assert len(steps) >= 3
    assert len({t for t, _ in held}) > max(steps) + 1
    assert max(size for _, size in held) <= max(steps) + 1


SYMBOL_MARCH_SCRIPT = """
import sys
import numpy as np
import anisostokes
from anisostokes import DiagNu, GridSpec, ScalarField, SolverParams, march
g = GridSpec(1, 32)
rho = ScalarField(g, 1.0 + 0.2 * np.cos(g.meshgrid()[0]))
march(DiagNu((1.0,)), rho, None, SolverParams(gamma=2.0, delta=0.3), 0.02, 0.01)
print(sorted(m for m in ("scipy.sparse.linalg", "scipy.ndimage") if m in sys.modules))
"""


def test_symbol_march_never_loads_the_stencil_or_krylov_modules():
    src = os.path.dirname(os.path.dirname(marching.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", SYMBOL_MARCH_SCRIPT], env=env, capture_output=True, text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


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


def test_direct_march_matches_constant_drag_ode():
    g = GridSpec(1, 16)
    p = canonical_params(delta=0.0, eta=0.1, dt_max=1e-3)
    traj = direct_march(DiagNu((1.0,)), ScalarField.constant(g, 1.0), None, p, 0.1)
    sol = solve_ivp(
        lambda t, y: -0.1 * (y**4 + y**3), (0.0, 0.1), [1.0], rtol=1e-11, atol=1e-13
    )
    assert np.allclose(traj.final_density.data, sol.y[0, -1], atol=1e-4)


def test_march_approaches_direct_as_delta_shrinks():
    g = GridSpec(1, 128)
    base = dict(gamma=2.0, eps=0.02, eta=0.05, dt_max=5e-3)
    x = g.meshgrid()[0]
    rho0 = ScalarField(g, 1.0 + 0.25 * np.cos(x) + 0.1 * np.sin(2 * x))
    tensor = DiagNu((1.0,))
    t_end = 0.2
    direct = direct_march(tensor, rho0, None, SolverParams(delta=0.0, **base), t_end)
    gaps = []
    for delta in (0.4, 0.2):
        traj = march(tensor, rho0, None, SolverParams(delta=delta, **base), t_end, 0.05)
        gaps.append((traj.final_density - direct.final_density).l2_norm())
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
    out = {name: list(getattr(traj, name)) for name in CUMULATIVES}
    out["times"] = list(traj.times)
    out["ledgers"] = [dataclasses.astuple(led) for led in traj.ledgers]
    out["min_rho_ever"] = traj.min_rho_ever
    out["max_principle_margin"] = traj.max_principle_margin
    return out


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
