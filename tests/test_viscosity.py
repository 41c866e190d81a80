"""Viscosity tensor construction, stress application, coercivity, audits."""

import numpy as np
import pytest

from anisostokes import stokes
from anisostokes.fields import GridSpec, VectorField, jacobian
from anisostokes.stokes import audit_hypotheses
from anisostokes.viscosity import (
    ConstantFull,
    DiagNu,
    VaryingFull,
    coercivity_estimate,
    isotropic_strain_tensor,
    minor_symmetrize,
)


def random_symmetric_gradient(grid, seed):
    rng = np.random.default_rng(seed)
    d = grid.dim
    du = rng.standard_normal((d, d) + grid.shape)
    return 0.5 * (du + np.swapaxes(du, 0, 1))


def naive_contraction(a, du):
    """Quadruple-loop reference for tau_ij = A_ijkl du_kl."""
    d = a.shape[0]
    tau = np.zeros_like(du)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    tau[i, j] += a[i, j, k, l] * du[k, l]
    return tau


# ------------------------------------------------------------- construction

def test_diagnu_validation():
    with pytest.raises(ValueError):
        DiagNu((1.0, -2.0))
    with pytest.raises(ValueError):
        DiagNu((1.0, 2.0, 3.0, 4.0))
    t = DiagNu((2.0, 1.0, 1.0))
    assert t.dim == 3 and t.kind == "diag"


def test_constantfull_minor_symmetrized():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((3, 3, 3, 3))
    t = ConstantFull(raw)
    a = t.a
    assert np.array_equal(a, np.swapaxes(a, 0, 1))
    assert np.array_equal(a, np.swapaxes(a, 2, 3))
    du = random_symmetric_gradient(GridSpec(3, 4), seed=1)
    tau = t.apply(du)
    assert np.allclose(tau, np.swapaxes(tau, 0, 1), atol=1e-13)


def test_varyingfull_shape_checks():
    g = GridSpec(2, 8)
    good = np.zeros((2, 2, 2, 2) + g.shape)
    VaryingFull(g, good)
    with pytest.raises(ValueError):
        VaryingFull(g, np.zeros((2, 2, 2) + g.shape))
    with pytest.raises(ValueError):
        VaryingFull(g, np.stack([good, good]))


# ------------------------------------------------------------- tensor.apply

@pytest.mark.parametrize("dim", [2, 3])
def test_apply_tau_matches_naive_loop(dim):
    g = GridSpec(dim, 6)
    rng = np.random.default_rng(42)
    t = ConstantFull(rng.standard_normal((dim,) * 4))
    du = random_symmetric_gradient(g, seed=3)
    tau = t.apply(du)
    ref = naive_contraction(t.a, du)
    assert np.allclose(tau, ref, atol=1e-13)


def test_apply_tau_linear_in_du():
    g = GridSpec(2, 8)
    rng = np.random.default_rng(7)
    t = ConstantFull(rng.standard_normal((2,) * 4))
    du1 = random_symmetric_gradient(g, seed=4)
    du2 = random_symmetric_gradient(g, seed=5)
    lhs = t.apply(2.0 * du1 + du2)
    rhs = 2.0 * t.apply(du1) + t.apply(du2)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_diagnu_isotropic_stress_is_nu_d():
    g = GridSpec(3, 4)
    du = random_symmetric_gradient(g, seed=6)
    t = DiagNu((1.7, 1.7, 1.7))
    assert np.allclose(t.apply(du), 1.7 * du, atol=1e-14)


def test_diagnu_stress_matches_equivalent_tensor():
    du = random_symmetric_gradient(GridSpec(3, 4), seed=8)
    t = DiagNu((2.0, 1.0, 0.5))
    full = ConstantFull(t.tensor_at())
    assert np.allclose(t.apply(du), full.apply(du), atol=1e-13)


def test_varying_apply_tau_matches_cellwise_loop():
    g = GridSpec(1, 8)
    rng = np.random.default_rng(9)
    vals = rng.standard_normal((1, 1, 1, 1) + g.shape)
    t = VaryingFull(g, vals)
    du = random_symmetric_gradient(g, seed=10)
    tau = t.apply(du)
    for c in range(8):
        assert tau[0, 0, c] == pytest.approx(vals[0, 0, 0, 0, c] * du[0, 0, c])


# --------------------------------------------------------------- coercivity

def test_coercivity_isotropic_unit():
    # tau = D(u): the Rayleigh quotient is identically 1
    t = ConstantFull(isotropic_strain_tensor(3, 1.0))
    rep = coercivity_estimate(t)
    assert rep.passed
    assert rep.c_est == pytest.approx(1.0, rel=0.05)


def test_coercivity_scaling_homogeneity():
    rng = np.random.default_rng(11)
    base = minor_symmetrize(rng.standard_normal((2,) * 4))
    a = isotropic_strain_tensor(2, 3.0) + 0.1 * base
    c1 = coercivity_estimate(ConstantFull(a)).c_est
    c2 = coercivity_estimate(ConstantFull(2.0 * a)).c_est
    assert c2 == pytest.approx(2.0 * c1, rel=1e-12)


def test_coercivity_detects_forced_negative_eigenvalue():
    d = 2
    e12 = np.zeros((d, d))
    e12[0, 1] = e12[1, 0] = 1.0 / np.sqrt(2.0)
    a = isotropic_strain_tensor(d, 1.0) - 2.0 * np.einsum("ij,kl->ijkl", e12, e12)
    rep = coercivity_estimate(ConstantFull(a))
    assert not rep.passed
    assert rep.c_est == pytest.approx(-1.0, abs=1e-9)


def test_coercivity_diagnu_is_min_nu():
    rep = coercivity_estimate(DiagNu((2.0, 0.3, 1.0)))
    assert rep.passed
    assert rep.c_est == pytest.approx(0.3, abs=1e-9)


def test_coercivity_varying_minimum_over_cells():
    g = GridSpec(1, 8)
    vals = np.zeros((1, 1, 1, 1) + g.shape)
    vals[0, 0, 0, 0] = np.linspace(0.5, 2.0, 8)
    t = VaryingFull(g, vals)
    rep = coercivity_estimate(t)
    assert rep.c_est == pytest.approx(0.5, abs=1e-12)


def sampled_unit_strains(d, rng, count):
    """Random unit symmetric matrices plus the sym(k (x) v) family."""
    raw = rng.standard_normal((count, d, d))
    mats = list(0.5 * (raw + np.swapaxes(raw, 1, 2)))
    dirs = np.concatenate([np.eye(d), rng.standard_normal((40, d))])
    for k in dirs:
        for v in dirs:
            mats.append(0.5 * (np.outer(k, v) + np.outer(v, k)))
    mats = np.stack(mats)
    norms = np.sqrt(np.einsum("sij,sij->s", mats, mats))
    return mats[norms > 1e-12] / norms[norms > 1e-12, None, None]


def test_coercivity_is_a_lower_bound_of_sampled_quotients():
    rng = np.random.default_rng(13)
    tensor = ConstantFull(
        isotropic_strain_tensor(3, 2.0) + 0.2 * minor_symmetrize(rng.standard_normal((3,) * 4))
    )
    c_est = coercivity_estimate(tensor).c_est
    mats = sampled_unit_strains(3, rng, 1000)
    quotients = np.einsum("sij,ijkl,skl->s", mats, tensor.a, mats)
    assert quotients.min() >= c_est - 1e-12 * np.linalg.norm(tensor.a)
    # the minimum is attained, so the samples also come close to it
    assert quotients.min() <= c_est + 0.5


# ------------------------------------------------------------------- audits

def test_audit_h1_isotropic_machine_zero():
    g = GridSpec(2, 16)
    rep = audit_hypotheses(ConstantFull(isotropic_strain_tensor(2, 2.0)), g, seed=1)
    assert rep.h1_passed
    assert rep.h1_max_residual <= 1e-12
    assert rep.passed


def test_audit_h1_random_anisotropic():
    g = GridSpec(2, 16)
    rng = np.random.default_rng(17)
    a = isotropic_strain_tensor(2, 2.0) + 0.3 * minor_symmetrize(
        rng.standard_normal((2,) * 4)
    )
    rep = audit_hypotheses(ConstantFull(a), g, seed=2)
    assert rep.h1_passed


def test_audit_diagnu_symbol_invertible_1d():
    g = GridSpec(1, 16)
    rep = audit_hypotheses(DiagNu((1.5,)), g)
    assert rep.h4_symbol_invertible is True
    assert rep.h4_sample_norm is not None and np.isfinite(rep.h4_sample_norm)
    assert rep.passed


def test_audit_h1_against_jacobian_contraction():
    # cross-check the audit quantity with an explicit contraction here
    g = GridSpec(2, 12)
    rng = np.random.default_rng(23)
    t = ConstantFull(isotropic_strain_tensor(2, 1.0))
    u = VectorField(g, rng.standard_normal((2,) + g.shape))
    J = jacobian(u)
    D = 0.5 * (J + np.swapaxes(J, 0, 1))
    tau = t.apply(D)
    gap = np.einsum("ij...,ij...->...", tau, J - D)
    assert np.abs(gap).max() <= 1e-12


def test_audit_h2_recorded():
    g = GridSpec(1, 16)
    rep = audit_hypotheses(DiagNu((1.0,)), g)
    assert "coercivity" in rep.h2_note


def _embedded_2d_law():
    # a 2D isotropic law in 3D: zero response along x3, so M(e3) = 0
    a = np.zeros((3, 3, 3, 3))
    a[:2, :2, :2, :2] = isotropic_strain_tensor(2, 1.0)
    return ConstantFull(a)


def _indefinite_2d_law():
    # indefinite, but its symbol is invertible on every grid wavevector
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    return ConstantFull(isotropic_strain_tensor(2, 1.0) - 1.5 * np.einsum("ij,kl->ijkl", e11, e11))


@pytest.mark.parametrize(
    "law,grid,invertible,coercive",
    [
        pytest.param(DiagNu((1.0, 2.0)), GridSpec(2, 16), True, True, id="diag"),
        pytest.param(ConstantFull(isotropic_strain_tensor(2, 2.0)), GridSpec(2, 16), True, True,
                     id="coercive"),
        pytest.param(_indefinite_2d_law(), GridSpec(2, 16), True, False, id="not-coercive"),
        pytest.param(_embedded_2d_law(), GridSpec(3, 8), False, False, id="singular"),
    ],
)
def test_audit_estimates_the_coercivity_once(monkeypatch, law, grid, invertible, coercive):
    calls = []
    estimate = stokes.coercivity_estimate

    def counted(tensor):
        calls.append(tensor)
        return estimate(tensor)

    monkeypatch.setattr(stokes, "coercivity_estimate", counted)
    rep = audit_hypotheses(law, grid)
    assert calls == [law]
    assert rep.h4_symbol_invertible is invertible
    assert rep.coercivity.passed == coercive
    assert (rep.h4_sample_norm is not None) == (invertible and coercive)
    assert rep.passed == (rep.h1_passed and coercive and invertible)
