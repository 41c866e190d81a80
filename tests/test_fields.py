"""Grid, spectral calculus, mollifier and snapshot tests."""

import ast
import logging
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from anisostokes.fields import (
    GridSpec,
    MollifierKernel,
    NonFiniteField,
    ScalarField,
    VectorField,
    _periodic_stencil,
    commutator_residual,
    div,
    div_hat,
    grad,
    grad_l2_norm,
    grad_norm_sq_hat,
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
        GridSpec(2, (8, 16))  # unequal cell widths on the 2 pi box


def test_gridspec_equality_and_volume():
    a = GridSpec(1, 64)
    b = GridSpec(1, 64)
    assert a == b and hash(a) == hash(b)
    assert a.volume == pytest.approx(2 * np.pi)
    assert a.cell_volume * a.ncells == pytest.approx(a.volume)


def test_scalarfield_rejects_nonfinite():
    g = GridSpec(1, 8)
    for value in (np.inf, -np.inf, np.nan):
        bad = np.zeros(8)
        bad[3] = value
        with pytest.raises(NonFiniteField):
            ScalarField(g, bad)


# ---------------------------------------------------------------- transforms

def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("dim,n", [(1, 8), (1, 9), (2, 8), (2, 7), (3, 6), (3, 5)])
@pytest.mark.parametrize("stack", [False, True])
def test_grid_transforms_equal_numpy_nd_transforms_bit_for_bit(dim, n, stack):
    g = GridSpec(dim, n)
    axes = tuple(range(-dim, 0))
    rng = np.random.default_rng(10 * dim + n)
    lead = (dim,) if stack else ()
    real = rng.standard_normal(lead + g.shape)
    cplx = real + 1j * rng.standard_normal(real.shape)
    half = np.fft.rfftn(real, axes=axes)
    cases = [
        (g.fft, np.fft.fftn, real, {}),
        (g.fft, np.fft.fftn, cplx, {}),
        (g.ifft, np.fft.ifftn, real, {}),
        (g.ifft, np.fft.ifftn, cplx, {}),
        (g.rfft, np.fft.rfftn, real, {}),
        (g.irfft, np.fft.irfftn, half, {"s": g.shape}),
    ]
    for ours, numpys, data, kwargs in cases:
        before = data.copy()
        got = ours(data)
        want = numpys(data, axes=axes, **kwargs)
        assert got.shape == want.shape and got.dtype == want.dtype, ours.__name__
        assert np.array_equal(bits(got), bits(want)), ours.__name__
        assert np.array_equal(bits(data), bits(before)), ours.__name__


@pytest.mark.parametrize("name", ["fft", "ifft", "rfft"])
def test_grid_transform_peak_memory_is_its_output(name):
    # the passes after the first run in place: numpy's n-D functions would
    # hold two outputs at once
    g = GridSpec(3, 32)
    data = np.random.default_rng(5).standard_normal(g.shape)
    transform = getattr(g, name)
    transform(data)
    tracemalloc.start()
    try:
        out = transform(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.01 * out.nbytes


def test_every_transform_goes_through_gridspec():
    # numpy's n-D transforms allocate per pass; the package calls them
    # nowhere but inside GridSpec
    banned = {"fftn", "ifftn", "rfftn", "irfftn"}
    package = Path(__file__).resolve().parents[1] / "src" / "anisostokes"
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "GridSpec":
                skip.update(id(inner) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in skip:
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in banned:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


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


@pytest.mark.parametrize(
    "dim, n, delta, features",
    [(1, 32, 0.4, ""), (1, 31, 0.9, ""), (1, 32, 5.0, "wide"),
     (2, 15, 0.9, ""), (2, 24, 0.75, "tiny"), (2, 16, 3.0, "tiny wide"),
     (3, 12, 1.2, ""), (3, 9, 1.0, "tiny"), (3, 8, 2.5, "tiny wide")],
)
def test_stencil_equals_ndimage_convolve(dim, n, delta, features):
    """``_periodic_stencil`` and ``mollify`` equal scipy's stencil bit for bit.

    The oracle is ``scipy.ndimage.convolve(..., mode="wrap")``; the numpy
    stencil follows its correlation loop as of scipy 1.17.1.  "tiny" kernels
    hold weights in (0, DBL_EPSILON], which ndimage leaves out and whose
    terms change bits when summed; "wide" stencils are wider than the grid.
    """
    g = GridSpec(dim, n)
    kernel = MollifierKernel(g, delta)
    w = kernel.weights
    assert ("tiny" in features) == bool(np.any((w > 0) & (w <= np.finfo(float).eps)))
    assert ("wide" in features) == (w.shape[0] > n)
    f = random_field(g, seed=dim * n, smooth=False)
    expected = ndimage.convolve(f.data, w, mode="wrap")
    assert np.array_equal(_periodic_stencil(f.data, w), expected)
    assert np.array_equal(mollify(f, kernel).data, expected)


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


def test_snapshot_rejects_empty_header(tmp_path):
    path = tmp_path / "blank.asf"
    path.write_bytes(b"ASF1" + b" \n" + b"\x00" * 64)
    with pytest.raises(ValueError, match="malformed header"):
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


@pytest.mark.parametrize("cells", ["100000", "10000000"])
def test_snapshot_header_larger_than_its_file_is_rejected_before_reading(tmp_path, cells):
    # the header's cell count is weighed against the file size, so a bogus
    # header costs no allocation (8e21 bytes at 10^7 cells per axis)
    path = tmp_path / "field.asf"
    path.write_bytes(b"ASF1" + f"3 {cells} {cells} {cells} 0\n".encode() + bytes(64))
    with pytest.raises(ValueError, match="truncated payload: .* 64 follow"):
        read_snapshot(path)


PROPERTY_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None, database=None)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def snapshot_files(draw):
    """The bytes of a snapshot: dim 1-3, 4-9 cells per axis, finite samples and time."""
    g = GridSpec(draw(st.integers(1, 3)), draw(st.integers(4, 9)))
    field = ScalarField(g, draw(arrays(np.float64, g.shape, elements=_FINITE)))
    t = draw(_FINITE)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.asf")
        write_snapshot(path, field, t)
        return field, t, Path(path).read_bytes()


def read_bytes_as_snapshot(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.asf"
        path.write_bytes(raw)
        return read_snapshot(path)


@PROPERTY_SETTINGS
@given(snapshot_files())
def test_snapshot_round_trip_is_bit_exact(snapshot):
    field, t, raw = snapshot
    back, t_back = read_bytes_as_snapshot(raw)
    assert back.grid == field.grid
    assert back.data.tobytes() == field.data.tobytes()
    assert np.float64(t_back).tobytes() == np.float64(t).tobytes()


@PROPERTY_SETTINGS
@given(snapshot_files(), st.data())
def test_every_proper_prefix_of_a_snapshot_is_rejected(snapshot, data):
    # every cut through the magic and the header line, the first sample,
    # and one drawn cut anywhere short of the end
    _field, _t, raw = snapshot
    header_end = raw.index(b"\n") + 1
    cuts = set(range(header_end + 9)) | {data.draw(st.integers(0, len(raw) - 1))}
    for cut in sorted(cuts):
        with pytest.raises(ValueError):
            read_bytes_as_snapshot(raw[:cut])


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


# ------------------------------------------------------------ half spectra

def rough_vector_hat(grid, seed):
    """rfft of rough random components: every mode, Nyquist planes included."""
    rng = np.random.default_rng(seed)
    return grid.rfft(rng.standard_normal((grid.dim,) + grid.shape))


def from_hat(grid, hat):
    return VectorField.from_arrays(grid, grid.irfft(hat))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [7, 8])
def test_parseval_distance_matches_grad_l2_norm(dim, n):
    g = GridSpec(dim, n)
    uhat, vhat = rough_vector_hat(g, 3 * n + dim), rough_vector_hat(g, 5 * n + dim)
    expected = grad_l2_norm(from_hat(g, uhat) - from_hat(g, vhat))
    assert np.sqrt(grad_norm_sq_hat(g, uhat - vhat)) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [7, 8])
def test_parseval_weight_gives_the_discrete_inner_product(dim, n):
    g = GridSpec(dim, n)
    rng = np.random.default_rng(11 * n + dim)
    f, h = rng.standard_normal((2,) + g.shape)
    fhat, hhat = g.rfft(f), g.rfft(h)
    got = np.sum(g.parseval_weight * (fhat.real * hhat.real + fhat.imag * hhat.imag))
    assert got == pytest.approx(l2_inner(ScalarField(g, f), ScalarField(g, h)), rel=1e-12)
    k2 = sum(ika.imag**2 for ika in g.ik)
    assert np.array_equal(g.grad_norm_weight, k2 * g.parseval_weight)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [7, 8])
def test_half_spectrum_jacobian_and_div_match_real_ones(dim, n):
    g = GridSpec(dim, n)
    uhat = rough_vector_hat(g, 7 * n + dim)
    u = from_hat(g, uhat)
    d = div(u)
    assert np.max(np.abs(div_hat(g, uhat).data - d.data)) <= 1e-13 * d.linf_norm()


def test_half_spectrum_ik_differentiates_a_single_mode():
    g = GridSpec(2, 8)
    x, y = g.meshgrid()
    f = np.sin(x + 3 * y)
    dx, dy = g.irfft(g.ik * g.rfft(f))
    np.testing.assert_allclose(dx, np.cos(x + 3 * y), atol=1e-13)
    np.testing.assert_allclose(dy, 3 * np.cos(x + 3 * y), atol=1e-13)
