"""Grid, spectral calculus, mollifier and snapshot tests."""

import logging

import numpy as np
import pytest

from anisostokes.fields import (
    GridSpec,
    MollifierKernel,
    ScalarField,
    VectorField,
    commutator_residual,
    div,
    grad,
    grad_l2_norm,
    jacobian,
    l2_inner,
    laplacian,
    mollify,
    read_snapshot,
    sym_grad,
    write_snapshot,
)


def random_field(grid, seed, smooth=True):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(grid.shape)
    if smooth:
        f = ScalarField(grid, data)
        k = MollifierKernel(grid, 6 * grid.h)
        f = mollify(f, k)
        return f
    return ScalarField(grid, data)


def random_vector(grid, seed, smooth=True):
    return VectorField(
        [random_field(grid, seed + 13 * a, smooth) for a in range(grid.dim)]
    )


# ---------------------------------------------------------------- grid spec

def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(4, 8)
    with pytest.raises(ValueError):
        GridSpec(2, (8, 3))
    with pytest.raises(ValueError):
        GridSpec(2, (8, 16))  # unequal cell widths at default lengths
    g = GridSpec(2, (8, 16), length=(2 * np.pi, 4 * np.pi))
    assert g.h == pytest.approx(2 * np.pi / 8)
    assert g.ncells == 128


def test_gridspec_equality_and_volume():
    a = GridSpec(1, 64)
    b = GridSpec(1, 64)
    assert a == b and hash(a) == hash(b)
    assert a.volume == pytest.approx(2 * np.pi)
    assert a.cell_volume * a.ncells == pytest.approx(a.volume)


def test_scalarfield_rejects_nonfinite():
    g = GridSpec(1, 8)
    bad = np.zeros(8)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        ScalarField(g, bad)


# ---------------------------------------------------------- spectral calculus

def test_grad_single_mode_hand_value():
    g = GridSpec(1, 64)
    f = ScalarField.from_function(g, lambda x: np.sin(2 * x))
    gf = grad(f)
    x = g.axis_coords(0)
    assert np.allclose(gf[0].data, 2 * np.cos(2 * x), atol=1e-12)


def test_sym_grad_hand_value_2d():
    g = GridSpec(2, 32)
    u = VectorField(
        [
            ScalarField.from_function(g, lambda x, y: np.sin(y)),
            ScalarField.zeros(g),
        ]
    )
    D = sym_grad(u)
    _, y = g.meshgrid()
    assert np.allclose(D[0, 1], 0.5 * np.cos(y), atol=1e-12)
    assert np.allclose(D[1, 0], 0.5 * np.cos(y), atol=1e-12)
    assert np.allclose(D[0, 0], 0.0, atol=1e-13)
    assert np.allclose(D[1, 1], 0.0, atol=1e-13)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 12)])
def test_grad_div_adjointness(dim, n):
    g = GridSpec(dim, n)
    f = random_field(g, seed=dim, smooth=False)
    v = random_vector(g, seed=100 + dim, smooth=False)
    lhs = sum(l2_inner(grad(f)[a], v[a]) for a in range(dim))
    rhs = -l2_inner(f, div(v))
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-12 * scale


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
def test_div_grad_is_laplacian(dim, n):
    g = GridSpec(dim, n)
    f = random_field(g, seed=7 + dim, smooth=False)
    lhs = div(grad(f))
    rhs = laplacian(f)
    assert np.allclose(lhs.data, rhs.data, atol=1e-10)


def test_derivative_has_zero_mean():
    g = GridSpec(2, 32)
    f = random_field(g, seed=3, smooth=False)
    for a in range(2):
        assert abs(grad(f)[a].mean()) < 1e-14


# ----------------------------------------------------------------- mollifier

def independent_kernel_1d(n, delta):
    """Reference 1D kernel weights via direct sampling, written separately."""
    h = 2 * np.pi / n
    m = int(np.ceil(delta / h))
    offsets = np.arange(-m, m + 1) * h
    w = np.zeros_like(offsets)
    for i, x in enumerate(offsets):
        r = abs(x) / delta
        if r < 1.0:
            w[i] = np.exp(1.0 - 1.0 / (1.0 - r * r))
    return offsets, w / w.sum()


def test_mollify_cosine_coefficient_oracle():
    # 1D cos(x) with delta = 0.5 comes back as a * cos(x); a is the kernel's
    # discrete mode-1 coefficient computed here by independent quadrature.
    g = GridSpec(1, 64)
    f = ScalarField.from_function(g, np.cos)
    kernel = MollifierKernel(g, 0.5)
    out = mollify(f, kernel)
    offsets, w = independent_kernel_1d(64, 0.5)
    a = float(np.sum(w * np.cos(offsets)))
    x = g.axis_coords(0)
    assert 0.0 < a < 1.0
    assert np.allclose(out.data, a * np.cos(x), atol=1e-13)


def test_mollify_preserves_constant_and_mean():
    g = GridSpec(2, 32)
    kernel = MollifierKernel(g, 0.5)
    c = ScalarField.constant(g, 3.7)
    out = mollify(c, kernel)
    assert np.allclose(out.data, 3.7, rtol=1e-14)
    f = random_field(g, seed=11, smooth=False)
    assert mollify(f, kernel).mean() == pytest.approx(f.mean(), abs=1e-14)


def test_mollify_nonnegativity_and_sup_bound():
    g = GridSpec(1, 128)
    rng = np.random.default_rng(5)
    f = ScalarField(g, np.abs(rng.standard_normal(128)))
    kernel = MollifierKernel(g, 0.3)
    out = mollify(f, kernel)
    assert out.min() >= 0.0
    assert out.linf_norm() <= f.linf_norm() * (1 + 1e-14)


def test_mollifier_weights_even_and_normalized():
    g = GridSpec(2, 64)
    kernel = MollifierKernel(g, 0.4)
    w = kernel.weights
    assert np.all(w >= 0)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(w, w[::-1, ::-1])


def test_mollify_commutes_with_grad():
    g = GridSpec(2, 48)
    f = random_field(g, seed=2, smooth=False)
    kernel = MollifierKernel(g, 0.5)
    a = grad(mollify(f, kernel))
    b = [mollify(grad(f)[i], kernel) for i in range(2)]
    for i in range(2):
        scale = max(b[i].linf_norm(), 1.0)
        assert np.allclose(a[i].data, b[i].data, atol=1e-11 * scale)


def test_mollify_subcell_radius_is_identity(caplog):
    g = GridSpec(1, 16)  # h ~ 0.39
    with caplog.at_level(logging.WARNING, logger="anisostokes"):
        kernel = MollifierKernel(g, 0.1)
    assert kernel.is_identity
    assert any("identity" in r.message for r in caplog.records)
    f = random_field(g, seed=1, smooth=False)
    out = mollify(f, kernel)
    assert np.array_equal(out.data, f.data)


@pytest.mark.parametrize(
    "dim, n, cells",
    [(1, 32, 3.5), (1, 31, 3.5), (2, 16, 2.5), (2, 15, 2.5), (3, 8, 1.5), (3, 9, 1.5),
     (1, 8, 5.0), (2, 8, 5.0), (3, 8, 5.0)],
)
def test_symbol_multiplier_matches_stencil(dim, n, cells):
    # K times the half spectrum is the periodic convolution, also when the
    # stencil (n = 8, delta = 5h) is wider than the grid and wraps
    g = GridSpec(dim, n)
    kernel = MollifierKernel(g, cells * g.h)
    if cells == 5.0:
        assert 2 * kernel.radius_cells + 1 > n
    f = random_field(g, seed=dim * n, smooth=False)
    via_symbol = g.irfft(kernel.symbol * g.rfft(f.data))
    assert kernel.symbol.shape == g.half_shape
    assert np.max(np.abs(via_symbol - mollify(f, kernel).data)) <= 1e-14 * f.linf_norm()


def test_identity_kernel_symbol_is_one():
    g = GridSpec(2, 16)
    assert np.array_equal(MollifierKernel(g, 0.1).symbol, np.ones(g.half_shape))


def test_mollifier_rejects_nonpositive_delta():
    g = GridSpec(1, 16)
    with pytest.raises(ValueError):
        MollifierKernel(g, 0.0)


# ---------------------------------------------------------------- commutator

def test_commutator_zero_for_constant_rho():
    g = GridSpec(2, 48)
    rho = ScalarField.constant(g, 2.0)
    u = random_vector(g, seed=9)
    assert commutator_residual(rho, u, 0.4) <= 1e-13


def test_commutator_zero_for_constant_velocity():
    g = GridSpec(2, 48)
    rho = random_field(g, seed=4)
    u = VectorField(
        [ScalarField.constant(g, 1.3), ScalarField.constant(g, -0.7)]
    )
    scale = rho.linf_norm()
    assert commutator_residual(rho, u, 0.4) <= 1e-12 * max(scale, 1.0)


def test_commutator_decays_with_radius():
    g = GridSpec(1, 256)
    rho = ScalarField.from_function(g, lambda x: 1.0 + 0.5 * np.sin(3 * x))
    u = VectorField([ScalarField.from_function(g, lambda x: np.cos(2 * x))])
    values = [commutator_residual(rho, u, d) for d in (0.4, 0.2, 0.1)]
    assert values[0] > 0
    # empirical order >= 1: halving the radius at least halves the residual
    assert values[0] / values[1] >= 2.0
    assert values[1] / values[2] >= 2.0
    # monotone decrease with 5% ripple allowance
    assert values[1] <= values[0] * 1.05
    assert values[2] <= values[1] * 1.05


# ----------------------------------------------------------------- snapshots

@pytest.mark.parametrize("dim,n", [(1, 8), (2, (8, 8)), (3, (4, 4, 4))])
def test_snapshot_roundtrip(tmp_path, dim, n):
    g = GridSpec(dim, n)
    f = random_field(g, seed=21, smooth=False)
    path = tmp_path / "field.asf"
    write_snapshot(path, f, t=0.6251)
    back, t = read_snapshot(path)
    assert t == 0.6251
    assert back.grid == g
    assert np.array_equal(back.data, f.data)


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.asf"
    path.write_bytes(b"NOPE" + b"1 8 0.0\n" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        read_snapshot(path)


def test_snapshot_detects_truncation(tmp_path):
    g = GridSpec(1, 8)
    f = ScalarField.constant(g, 1.0)
    path = tmp_path / "field.asf"
    write_snapshot(path, f, t=0.0)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_snapshot(path)


def test_grad_l2_norm_matches_hand_value():
    g = GridSpec(1, 64)
    u = VectorField([ScalarField.from_function(g, np.sin)])
    # int_0^{2pi} cos^2 = pi
    assert grad_l2_norm(u) == pytest.approx(np.sqrt(np.pi), rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [7, 8])
def test_grad_l2_norm_parseval_matches_jacobian(dim, n):
    # rough random data exercises every mode, the Nyquist plane included
    g = GridSpec(dim, n)
    rng = np.random.default_rng(10 * dim + n)
    v = VectorField.from_arrays(g, [rng.standard_normal(g.shape) for _ in range(dim)])
    J = jacobian(v)
    expected = np.sqrt(np.sum(J**2) * g.cell_volume)
    assert grad_l2_norm(v) == pytest.approx(expected, rel=1e-12)
