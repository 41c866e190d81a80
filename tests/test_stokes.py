"""Momentum solve tests: symbols, closed forms, Krylov path, error paths."""

import numpy as np
import pytest
from scipy.sparse import linalg as spla

from anisostokes import stokes
from anisostokes.fields import GridSpec, ScalarField, VectorField, _div_rows, grad, sym_grad
from anisostokes.stokes import (
    KrylovNoConvergence,
    NotCoercive,
    SingularSymbol,
    StokesOperator,
    residual_rhs,
    solve,
    solve_rhs,
)
from anisostokes.viscosity import (
    ConstantFull,
    DiagNu,
    VaryingFull,
    isotropic_strain_tensor,
)
from test_fields import bits, reference_wavenumbers
from traced import peak


# ------------------------------------------------ diagonal law, closed form

def test_diagnu_single_mode_closed_form():
    # nu = (2,1,1), q = -cos x1  ->  u = (0.5 sin x1, 0, 0)
    g = GridSpec(3, 16)
    op = StokesOperator.build(DiagNu((2.0, 1.0, 1.0)), g)
    q = ScalarField.from_function(g, lambda x, y, z: -np.cos(x))
    u = solve(op, q)
    x, _, _ = g.meshgrid()
    assert np.allclose(u[0].data, 0.5 * np.sin(x), atol=1e-10)
    assert np.allclose(u[1].data, 0.0, atol=1e-12)
    assert np.allclose(u[2].data, 0.0, atol=1e-12)


def test_diagnu_cross_axis_mode():
    # q = -cos x2 with nu = (2,1,1): symbol at k = e2 is nu_2 = 1
    g = GridSpec(3, 16)
    op = StokesOperator.build(DiagNu((2.0, 1.0, 1.0)), g)
    q = ScalarField.from_function(g, lambda x, y, z: -np.cos(y))
    u = solve(op, q)
    _, y, _ = g.meshgrid()
    assert np.allclose(u[1].data, np.sin(y), atol=1e-10)


def test_solve_mean_free_and_residual_contract():
    g = GridSpec(2, 32)
    op = StokesOperator.build(DiagNu((1.0, 4.0)), g)
    rng = np.random.default_rng(3)
    q = ScalarField(g, rng.standard_normal(g.shape))
    u = solve(op, q)
    for c in u.components:
        assert abs(c.mean()) <= 1e-14 * max(1.0, c.linf_norm())
    gq = grad(q)
    assert residual_rhs(op, u, gq) <= 1e-10 * gq.l2_norm()


def test_residual_of_zero_velocity_is_grad_q_norm():
    g = GridSpec(1, 64)
    op = StokesOperator.build(DiagNu((1.0,)), g)
    q = ScalarField.from_function(g, np.cos)
    u0 = VectorField.zeros(g)
    gq = grad(q)
    assert residual_rhs(op, u0, gq) == pytest.approx(gq.l2_norm(), rel=1e-13)


# ----------------------------------------------------- full-tensor symbols

def roll_diff(arr, axis, h):
    """Independent second-order central difference with periodic wrap."""
    return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2 * h)


def fd_momentum_apply(u_arrays, nu, h):
    """-div(2 nu D(u)) assembled purely from central differences."""
    d = len(u_arrays)
    D = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            D[i][j] = 0.5 * (
                roll_diff(u_arrays[i], j, h) + roll_diff(u_arrays[j], i, h)
            )
    out = []
    for i in range(d):
        acc = np.zeros_like(u_arrays[0])
        for j in range(d):
            acc = acc + roll_diff(2.0 * nu * D[i][j], j, h)
        out.append(-acc)
    return out


def test_lame_symbol_against_fd_assembly():
    # the classical symbol nu(|k|^2 I + k kT), with k replaced by sin(kh)/h,
    # must reproduce the central-difference assembly exactly on Fourier modes
    g = GridSpec(3, 8)
    nu = 1.3
    h = g.h
    x, y, z = g.meshgrid()
    rng = np.random.default_rng(5)
    for kvec in [(1, 0, 0), (2, 1, 0), (1, 1, 1), (3, 2, 1)]:
        amp = rng.standard_normal(3)
        phase = kvec[0] * x + kvec[1] * y + kvec[2] * z
        mode = np.exp(1j * phase)
        u = [amp[i] * mode for i in range(3)]
        got = fd_momentum_apply(u, nu, h)
        kfd = np.array([np.sin(k * h) / h for k in kvec])
        m = nu * (np.dot(kfd, kfd) * np.eye(3) + np.outer(kfd, kfd))
        want = m @ amp
        for i in range(3):
            assert np.allclose(got[i], want[i] * mode, atol=1e-12)


def test_constant_full_symbol_matches_lame_formula():
    g = GridSpec(3, 8)
    nu = 0.7
    t = ConstantFull(isotropic_strain_tensor(3, 2.0 * nu))  # tau = 2 nu D(u)
    op = StokesOperator.build(t, g)
    rng = np.random.default_rng(8)
    for kvec in [(1, 0, 0), (1, 2, 0), (2, 1, 3)]:
        amp = rng.standard_normal(3)
        x, y, z = g.meshgrid()
        phase = kvec[0] * x + kvec[1] * y + kvec[2] * z
        u = VectorField(
            g, [amp[i] * np.cos(phase) for i in range(3)]
        )
        got = op.apply(u)
        k = np.asarray(kvec, dtype=float)
        m = nu * (np.dot(k, k) * np.eye(3) + np.outer(k, k))
        want = m @ amp
        for i in range(3):
            assert np.allclose(got[i].data, want[i] * np.cos(phase), atol=1e-10)


def test_full_isotropic_matches_diagonal_fast_path():
    # DiagNu(nu,nu,nu) and the full tensor tau = nu D(u) produce identical
    # velocities: both invert to i k q_hat / (nu |k|^2) on gradient data
    g = GridSpec(3, 16)
    nu = 1.8
    rng = np.random.default_rng(11)
    q = ScalarField(g, rng.standard_normal(g.shape))
    u_diag = solve(StokesOperator.build(DiagNu((nu, nu, nu)), g), q)
    u_full = solve(
        StokesOperator.build(ConstantFull(isotropic_strain_tensor(3, nu)), g), q
    )
    for a in range(3):
        scale = max(u_diag[a].linf_norm(), 1e-30)
        assert np.allclose(u_diag[a].data, u_full[a].data, atol=1e-10 * scale)


# ------------------------------------------------------------- error paths

def test_singular_symbol_detected_before_coercivity():
    # a 2D isotropic law embedded in 3D: zero stress response along x3,
    # so the symbol at k = e3 is the zero matrix
    a = np.zeros((3, 3, 3, 3))
    a[:2, :2, :2, :2] = isotropic_strain_tensor(2, 1.0)
    with pytest.raises(SingularSymbol):
        StokesOperator.build(ConstantFull(a), GridSpec(3, 8))


def test_not_coercive_constant_tensor():
    # indefinite but invertible on every rational direction: subtracting
    # 1.5 x the e1(x)e1 projector sends the det zero-crossing to an
    # irrational slope, so the symbol check passes and coercivity fails
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    a = isotropic_strain_tensor(2, 1.0) - 1.5 * np.einsum("ij,kl->ijkl", e11, e11)
    with pytest.raises(NotCoercive):
        StokesOperator.build(ConstantFull(a), GridSpec(2, 16))


def test_not_coercive_varying_tensor():
    g = GridSpec(1, 8)
    vals = np.full((1, 1, 1, 1) + g.shape, 1.0)
    vals[0, 0, 0, 0, 3] = -0.2
    with pytest.raises(NotCoercive):
        StokesOperator.build(VaryingFull(g, vals), g)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        StokesOperator.build(DiagNu((1.0, 1.0)), GridSpec(3, 8))


# ------------------------------------------------------------- Krylov path

def varying_isotropic(grid, fn):
    base = isotropic_strain_tensor(grid.dim, 1.0)
    x = grid.meshgrid()
    nu = fn(*x)
    vals = base.reshape(base.shape + (1,) * grid.dim) * nu
    return VaryingFull(grid, vals)


def test_varying_manufactured_round_trip():
    # nu(x) = 1 + 0.1 sin x1, u* = (sin x2, 0); the forward application is
    # not a gradient, so the round trip exercises the raw right-side solve
    g = GridSpec(2, 32)
    t = varying_isotropic(g, lambda x, y: 1.0 + 0.1 * np.sin(x))
    op = StokesOperator.build(t, g)
    ustar = VectorField(g, [np.sin(g.meshgrid()[1]), np.zeros(g.shape)])
    rhs = op.apply(ustar)
    u = solve_rhs(op, rhs)
    err = (u - ustar).l2_norm()
    assert err <= 1e-7 * ustar.l2_norm()
    assert residual_rhs(op, u, rhs) <= stokes._KRYLOV_RTOL * rhs.l2_norm()


def test_varying_scalar_solve_contract():
    g = GridSpec(2, 32)
    t = varying_isotropic(g, lambda x, y: 1.0 + 0.3 * np.cos(x + y))
    op = StokesOperator.build(t, g)
    q = ScalarField.from_function(g, lambda x, y: np.cos(x) + 0.5 * np.sin(2 * y))
    u = solve(op, q)
    gq = grad(q)
    assert residual_rhs(op, u, gq) <= stokes._KRYLOV_RTOL * gq.l2_norm()
    for c in u.components:
        assert abs(c.mean()) <= 1e-14


def test_varying_uses_cg_only_with_major_symmetry():
    g = GridSpec(2, 16)
    t = varying_isotropic(g, lambda x, y: 1.0 + 0.1 * np.sin(x))
    op = StokesOperator.build(t, g)
    assert op._use_cg
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((2, 2, 2, 2))
    base = isotropic_strain_tensor(2, 2.0) + 0.05 * raw
    vals = np.broadcast_to(
        base.reshape(base.shape + (1,) * 2), base.shape + g.shape
    ).copy()
    op2 = StokesOperator.build(VaryingFull(g, vals), g)
    assert not op2._use_cg
    q = ScalarField.from_function(g, lambda x, y: np.cos(x))
    u = solve(op2, q)
    gq = grad(q)
    assert residual_rhs(op2, u, gq) <= stokes._KRYLOV_RTOL * gq.l2_norm()


def test_krylov_no_convergence_raises(monkeypatch):
    monkeypatch.setattr(stokes, "_KRYLOV_MAX_ITER", 1)
    g = GridSpec(2, 32)
    t = varying_isotropic(g, lambda x, y: 1.0 + 0.5 * np.sin(x) * np.sin(y))
    op = StokesOperator.build(t, g)
    op._precond_inv = None  # cripple the preconditioner to force a miss
    q = ScalarField.from_function(g, lambda x, y: np.cos(x) + np.sin(3 * y))
    with pytest.raises(KrylovNoConvergence):
        solve(op, q)


def test_krylov_no_convergence_names_the_iterations_that_ran(monkeypatch):
    # CG stops early at a loose tolerance, then the solve's residual check
    # fails: the message counts CG's iterations, not the cap
    real = stokes._cg
    ran = []

    def loose(matvec, psolve, b, atol):
        def counted(x):
            ran.append(None)
            return matvec(x)

        return real(counted, psolve, b, 1e4 * atol)

    monkeypatch.setattr(stokes, "_cg", loose)
    g = GridSpec(2, 32)
    t = varying_isotropic(g, lambda x, y: 1.0 + 0.5 * np.sin(x) * np.sin(y))
    op = StokesOperator.build(t, g)
    q = ScalarField.from_function(g, lambda x, y: np.cos(x) + np.sin(3 * y))
    with pytest.raises(KrylovNoConvergence) as info:
        solve(op, q)
    assert 0 < len(ran) < stokes._KRYLOV_MAX_ITER
    assert info.value.iterations == len(ran)
    assert str(info.value).startswith(f"no convergence after {len(ran)} iterations: ")


def cg_against_scipy(monkeypatch, op, q):
    """(our iterate, scipy's iterate, scipy's exit code) for the CG solve of q.

    ``solve_rhs``'s own operator, preconditioner, right side and absolute
    tolerance are captured from its call of ``_cg`` and handed to
    ``scipy.sparse.linalg.cg`` with ``rtol=0``.
    """
    seen = []
    real = stokes._cg

    def spy(matvec, psolve, b, atol):
        x = real(matvec, psolve, b, atol)
        seen.append((matvec, psolve, b, atol, x))
        return x

    monkeypatch.setattr(stokes, "_cg", spy)
    try:
        solve(op, q)
    except KrylovNoConvergence:
        pass
    ((matvec, psolve, b, atol, x),) = seen
    size = b.size
    lin = spla.LinearOperator((size, size), matvec=matvec, dtype=np.float64)
    pre = spla.LinearOperator((size, size), matvec=psolve, dtype=np.float64)
    y, info = spla.cg(lin, b, rtol=0.0, atol=atol, maxiter=stokes._KRYLOV_MAX_ITER, M=pre)
    return x, y, info


@pytest.mark.parametrize("preconditioned", [True, False])
def test_cg_equals_scipy_cg(monkeypatch, preconditioned):
    """``stokes._cg`` returns scipy's conjugate-gradient iterate bit for bit.

    It is a port of ``scipy.sparse.linalg.cg`` as of scipy 1.17.1, checked
    here on a small varying law with and without its preconditioner.
    """
    g = GridSpec(2, 16)
    op = StokesOperator.build(varying_isotropic(g, lambda x, y: 1.0 + 0.3 * np.cos(x + y)), g)
    assert op._use_cg
    if not preconditioned:
        op._precond_inv = None
    q = ScalarField.from_function(g, lambda x, y: np.cos(x) + 0.5 * np.sin(2 * y))
    x, y, info = cg_against_scipy(monkeypatch, op, q)
    assert info == 0
    assert np.array_equal(x, y)


def test_cg_equals_scipy_cg_at_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(stokes, "_KRYLOV_MAX_ITER", 3)
    g = GridSpec(2, 16)
    t = varying_isotropic(g, lambda x, y: 1.0 + 0.5 * np.sin(x) * np.sin(y))
    op = StokesOperator.build(t, g)
    q = ScalarField.from_function(g, lambda x, y: np.cos(x) + np.sin(3 * y))
    with pytest.raises(KrylovNoConvergence):
        solve(op, q)
    x, y, info = cg_against_scipy(monkeypatch, op, q)
    assert info == 3  # scipy too stopped at the cap
    assert np.array_equal(x, y)


def test_a_krylov_solve_holds_b_x_r_and_p_through_each_matvec():
    # in units of one scalar field: grad q, x, r and p, two fields each,
    # plus one matvec's stress and spectra peak at 22.14; keeping z and the
    # previous A p through every matvec, as scipy's loop does, reads 26.15
    g = GridSpec(2, 64)
    op = StokesOperator.build(varying_isotropic(g, lambda x, y: 1.0 + 0.3 * np.cos(x + y)), g)
    assert op._use_cg
    q = ScalarField.from_function(g, lambda x, y: np.cos(x) + 0.5 * np.sin(2 * y))
    solve(op, q)  # warm every cache a solve fills once
    assert peak(lambda: solve(op, q))[1] < 24 * q.data.nbytes


def test_solve_zero_rhs_returns_zero():
    g = GridSpec(1, 16)
    op = StokesOperator.build(DiagNu((1.0,)), g)
    q = ScalarField.constant(g, 4.2)  # gradient-free
    u = solve(op, q)
    assert u.l2_norm() == 0.0


# ------------------------------------------------ stress symmetry, tau reuse

def stress_laws(grid):
    """One law of each kind on ``grid``; the varying ones drawn cell by cell."""
    d = grid.dim
    rng = np.random.default_rng(d)
    cells = (d, d, d, d) + grid.shape
    return {
        "diag": DiagNu(tuple(1.0 + np.arange(d))),
        "constant": ConstantFull(rng.standard_normal((d,) * 4)),
        "varying": VaryingFull(grid, rng.standard_normal(cells)),
    }


@pytest.mark.parametrize("kind", ["diag", "constant", "varying"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stress_is_symmetric_bit_for_bit(dim, kind):
    # _div_rows transforms tau_ij once for tau_ji, which needs bit equality
    g = GridSpec(dim, 8)
    rng = np.random.default_rng(10 + dim)
    u = VectorField(g, rng.standard_normal((dim,) + g.shape))
    tau = stress_laws(g)[kind].apply(sym_grad(u))
    for i in range(dim):
        for j in range(dim):
            assert np.array_equal(tau[i, j], tau[j, i]), (i, j)


@pytest.mark.parametrize("case", ["row", "diag", "constant", "varying"])
@pytest.mark.parametrize("dim,n", [(1, 8), (1, 9), (2, 8), (2, 7), (3, 8), (3, 5)])
def test_div_rows_matches_one_transform_per_entry(dim, n, case):
    # one row is div's case; a law's symmetric stress is StokesOperator.apply's
    g = GridSpec(dim, n)
    rng = np.random.default_rng(10 * dim + n)
    u = VectorField(g, rng.standard_normal((dim,) + g.shape))
    rows = u.data[None] if case == "row" else stress_laws(g)[case].apply(sym_grad(u))
    ks = reference_wavenumbers(g)
    expected = [
        np.fft.ifftn(sum((1j * ks[j]) * np.fft.fftn(row[j]) for j in range(dim))).real
        for row in rows
    ]
    assert np.array_equal(bits(_div_rows(g, rows)), bits(np.array(expected)))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_div_rows_transforms_each_symmetric_pair_once(monkeypatch, dim):
    g = GridSpec(dim, 6)
    u = VectorField(g, np.random.default_rng(dim).standard_normal((dim,) + g.shape))
    tau = stress_laws(g)["varying"].apply(sym_grad(u))
    fft = GridSpec.fft
    calls = []
    monkeypatch.setattr(GridSpec, "fft", lambda self, data: calls.append(1) or fft(self, data))
    _div_rows(g, tau)
    assert len(calls) == dim * (dim + 1) // 2
    calls.clear()
    _div_rows(g, u.data[None])
    assert len(calls) == dim
