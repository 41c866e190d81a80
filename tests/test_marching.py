"""Fixed-point slab tests: contraction, chaining, halving, direct stepping."""

import dataclasses
import json
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
    mollify,
)
from anisostokes import marching
from anisostokes.marching import (
    Slab,
    SlabCollapse,
    Trajectory,
    _Account,
    _OperatorCache,
    apply_B,
    direct_march,
    march,
    picard_solve,
)
from anisostokes.stokes import StokesOperator, residual
from anisostokes.transport import SolverParams, pressure_field
from anisostokes.viscosity import DiagNu, VaryingFull


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
    solves = counting(monkeypatch, marching, "solve", lambda args: None)
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
    original_at = _OperatorCache.at

    def at(self, t):
        op = original_at(self, t)
        held.append((t, len(self._by_time)))
        return op

    monkeypatch.setattr(_OperatorCache, "at", at)
    p = canonical_params(delta=0.5)
    traj = march(tensor, cosine_density(g, amp=0.3), None, p, 0.09, 0.03)
    steps = slab_steps(traj)
    assert len(steps) >= 3
    assert len({t for t, _ in held}) > max(steps) + 1
    assert max(size for _, size in held) <= max(steps) + 1


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


def accounting_cases():
    """A 2-slab march stored every other substep and a direct march, 1D, eta > 0."""
    g = GridSpec(1, 32)
    x = g.meshgrid()[0]
    rho0 = ScalarField(g, 1.0 + 0.3 * np.cos(x) + 0.1 * np.sin(2 * x))
    tensor = DiagNu((1.0,))
    base = dict(gamma=2.0, eps=0.01, eta=0.05, dt_max=0.005)
    marched = march(tensor, rho0, None, SolverParams(delta=0.3, **base), 0.06, 0.03,
                    store_every=2)
    direct = direct_march(tensor, rho0, None, SolverParams(delta=0.0, **base), 0.03,
                          store_every=2)
    return {"march": marched, "direct_march": direct}


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
    assert len(cases["march"].fixed_point_reports) == 2
    assert cases["march"].slab_halvings == 0
    for case, traj in cases.items():
        got = json.loads(json.dumps(accounting_record(traj)))
        assert len(got["times"]) >= 4, case
        for name, values in golden[case].items():
            assert got[name] == values, f"{case}: {name}"


if __name__ == "__main__":
    # python tests/test_marching.py writes the pinned accounting data
    records = {case: accounting_record(t) for case, t in accounting_cases().items()}
    ACCOUNTING_GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
