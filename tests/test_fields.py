"""Grid, spectral calculus, mollifier and snapshot tests."""

import ast
import logging
import math
import os
import tempfile
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
    _Field,
    _periodic_stencil,
    commutator_residual,
    div,
    div_hat,
    grad,
    grad_l2_norm,
    grad_norm_sq_hat,
    jacobian,
    l2_inner,
    mollify,
    read_snapshot,
    sym_grad,
    write_snapshot,
)

from traced import peak


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
        grid, [random_field(grid, seed + 13 * a, smooth).data for a in range(grid.dim)]
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


# ------------------------------------------------------------- vector field

GRIDS = [GridSpec(1, 16), GridSpec(2, 8), GridSpec(3, 6)]


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"{g.dim}d")
def test_vectorfield_rejects_a_wrong_shape(g):
    d = g.dim
    for shape in (g.shape, (d + 1,) + g.shape, (d,) + g.shape[:-1] + (g.n[-1] + 1,),
                  (d * g.ncells,), g.shape + (d,)):
        with pytest.raises(ValueError, match="does not match"):
            VectorField(g, np.zeros(shape))


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"{g.dim}d")
def test_vectorfield_rejects_a_nonfinite_entry_in_any_row(g):
    for a in range(g.dim):
        for value in (np.inf, -np.inf, np.nan):
            bad = np.zeros((g.dim,) + g.shape)
            bad[(a,) + (-1,) * g.dim] = value
            with pytest.raises(NonFiniteField):
                VectorField(g, bad)


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"{g.dim}d")
def test_vectorfield_components_are_views_of_its_rows(g):
    data = np.random.default_rng(g.dim).standard_normal((g.dim,) + g.shape)
    v = VectorField(g, data)
    assert v.data is data and len(v) == len(v.components) == g.dim
    for a, c in enumerate(v.components):
        assert c.grid == g and c.data.shape == g.shape
        assert np.shares_memory(c.data, v.data[a]) and v[a] is c
        c.data[(0,) * g.dim] = 7.0 + a
        assert v.data[(a,) + (0,) * g.dim] == 7.0 + a


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"{g.dim}d")
def test_vectorfield_norms_equal_the_per_component_sums_bit_for_bit(g):
    # the sums of the component-list layout, each component its own array
    rng = np.random.default_rng(10 + g.dim)
    comps = [ScalarField(g, rng.standard_normal(g.shape) * 10.0**a) for a in range(g.dim)]
    v = VectorField(g, [c.data for c in comps])
    l2 = float(np.sqrt(sum(np.sum(c.data**2) for c in comps) * g.cell_volume))
    assert v.l2_norm() == l2
    assert v.max_component_sum() == float(sum(np.abs(c.data).max() for c in comps))
    assert v.linf_norm() == max(c.linf_norm() for c in comps)


# ---------------------------------------------------- shared field contract

KINDS = [ScalarField, VectorField]
SHARED = ("__init__", "zeros", "copy", "linf_norm", "__add__", "__sub__", "__mul__", "__rmul__")


def kind_shape(kind, g):
    return g.shape if kind is ScalarField else (g.dim,) + g.shape


def random_of_kind(kind, g, seed):
    return kind(g, np.random.default_rng(seed).standard_normal(kind_shape(kind, g)))


def test_neither_kind_redefines_a_shared_method():
    for name in SHARED:
        assert name in vars(_Field)
        for kind in KINDS:
            assert name not in vars(kind), (kind.__name__, name)


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"{g.dim}d")
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_zeros_has_the_kind_shape_and_a_copy_is_independent(kind, g):
    z = kind.zeros(g)
    assert type(z) is kind and z.grid == g
    assert z.data.shape == kind_shape(kind, g) and not z.data.any()
    f = random_of_kind(kind, g, 3)
    c = f.copy()
    assert type(c) is kind and c.grid == g and np.array_equal(c.data, f.data)
    assert not np.shares_memory(c.data, f.data)
    c.data[...] = 0.0
    assert f.data.any()


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"{g.dim}d")
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_arithmetic_returns_the_same_kind(kind, g):
    a, b = random_of_kind(kind, g, 4), random_of_kind(kind, g, 5)
    for out, want in ((a + b, a.data + b.data), (a - b, a.data - b.data),
                      (a * 2.5, a.data * 2.5), (2.5 * a, a.data * 2.5)):
        assert type(out) is kind and out.grid == g
        assert np.array_equal(out.data, want)
    assert a.linf_norm() == float(np.abs(a.data).max())


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_mixing_grids_raises(kind):
    a, b = kind.zeros(GridSpec(2, 8)), kind.zeros(GridSpec(2, 16))
    for op in (lambda: a + b, lambda: a - b):
        with pytest.raises(ValueError, match="different grids"):
            op()


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"{g.dim}d")
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_a_nonfinite_entry_raises(kind, g):
    for value in (np.inf, -np.inf, np.nan):
        bad = np.zeros(kind_shape(kind, g))
        bad.flat[-1] = value
        with pytest.raises(NonFiniteField):
            kind(g, bad)


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"{g.dim}d")
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_a_wrong_shape_raises_a_flat_array_too(kind, g):
    shape = kind_shape(kind, g)
    wrong = [(1,) + shape, shape[:-1] + (shape[-1] + 1,), shape + (1,), shape[1:]]
    if g.dim > 1 or kind is VectorField:
        wrong.append((math.prod(shape),))  # the flat array of every sample
    for bad in wrong:
        with pytest.raises(ValueError, match="does not match"):
            kind(g, np.zeros(bad))


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
        if ours in (g.ifft, g.irfft):
            # overwrite_x: the passes run on the caller's complex array itself
            scratch = data.copy()
            got = ours(scratch, overwrite_x=True)
            assert np.array_equal(bits(got), bits(want)), ours.__name__
            if ours == g.ifft and np.iscomplexobj(data):
                assert got is scratch


def test_an_inverse_transform_of_a_temporary_passes_overwrite_x():
    # an argument that is an arithmetic expression is a temporary no one
    # else holds, so its inverse transform need not copy it first
    package = Path(__file__).resolve().parents[1] / "src" / "anisostokes"
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("ifft", "irfft")
                and node.args
                and isinstance(node.args[0], (ast.BinOp, ast.UnaryOp))
            ):
                flags = [kw.value.value for kw in node.keywords
                         if kw.arg == "overwrite_x" and isinstance(kw.value, ast.Constant)]
                if flags != [True]:
                    found.append(f"{path.name}:{node.lineno} {node.func.attr}")
    assert found == []


@pytest.mark.parametrize("name", ["fft", "ifft", "rfft"])
def test_grid_transform_peak_memory_is_its_output(name):
    # the passes after the first run in place: numpy's n-D functions would
    # hold two outputs at once
    g = GridSpec(3, 32)
    data = np.random.default_rng(5).standard_normal(g.shape)
    transform = getattr(g, name)
    transform(data)
    out, held = peak(lambda: transform(data))
    assert held <= 1.01 * out.nbytes


def nodes_outside_gridspec():
    """(file name, node) for every ``ast`` node of the package outside ``GridSpec``."""
    package = Path(__file__).resolve().parents[1] / "src" / "anisostokes"
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "GridSpec":
                skip.update(id(inner) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if id(node) not in skip:
                yield path.name, node


def called_name(node):
    """The name a call node calls, or None for any other node."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_every_transform_goes_through_gridspec():
    # numpy's n-D transforms allocate per pass; the package calls them
    # nowhere but inside GridSpec
    banned = {"fftn", "ifftn", "rfftn", "irfftn"}
    found = [
        f"{name}:{node.lineno} {called_name(node)}"
        for name, node in nodes_outside_gridspec()
        if called_name(node) in banned
    ]
    assert found == []


def test_i_k_is_formed_in_gridspec_alone():
    # every spectral derivative reads GridSpec.ik_full or its half-spectrum
    # cut GridSpec.ik, so no other code forms wavenumbers or multiplies by i
    found = []
    for name, node in nodes_outside_gridspec():
        if called_name(node) == "fftfreq":
            found.append(f"{name}:{node.lineno} fftfreq")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            operands = (node.left, node.right)
            if any(isinstance(x, ast.Constant) and x.value == 1j for x in operands):
                found.append(f"{name}:{node.lineno} 1j")
    assert found == []


def reference_wavenumbers(g):
    """k_a per axis from ``np.fft.fftfreq``, Nyquist zeroed, broadcastable:
    the derivative wavenumbers built apart from GridSpec."""
    out = []
    for a, n in enumerate(g.n):
        k = 2 * np.pi * np.fft.fftfreq(n, d=2 * np.pi / n)
        if n % 2 == 0:
            k[n // 2] = 0.0
        out.append(k.reshape([n if b == a else 1 for b in range(g.dim)]))
    return out


@pytest.mark.parametrize("dim,n", [(1, 8), (1, 9), (2, 8), (2, 7), (3, 6), (3, 5)])
def test_spectral_derivatives_equal_an_fftn_reference_bit_for_bit(dim, n):
    g = GridSpec(dim, n)
    rng = np.random.default_rng(100 + 10 * dim + n)
    f = ScalarField(g, rng.standard_normal(g.shape))
    v = VectorField(g, rng.standard_normal((dim,) + g.shape))
    ks = reference_wavenumbers(g)
    fhat = np.fft.fftn(f.data)
    vhat = [np.fft.fftn(row) for row in v.data]

    def back(hat):
        return np.fft.ifftn(hat).real

    want = {
        "grad": [back((1j * k) * fhat) for k in ks],
        "jacobian": [[back((1j * k) * vhat[i]) for k in ks] for i in range(dim)],
        "div": back(sum((1j * k) * vhat[a] for a, k in enumerate(ks))),
    }
    got = {
        "grad": grad(f).data,
        "jacobian": jacobian(v),
        "div": div(v).data,
    }
    for name in want:
        assert np.array_equal(bits(got[name]), bits(np.array(want[name]))), name


# ---------------------------------------------------------- spectral calculus

def test_grad_single_mode_hand_value():
    g = GridSpec(1, 64)
    f = ScalarField.from_function(g, lambda x: np.sin(2 * x))
    gf = grad(f)
    x = g.axis_coords(0)
    assert np.allclose(gf[0].data, 2 * np.cos(2 * x), atol=1e-12)


def test_sym_grad_hand_value_2d():
    g = GridSpec(2, 32)
    _, y = g.meshgrid()
    u = VectorField(g, [np.sin(y), np.zeros(g.shape)])
    D = sym_grad(u)
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
    rhs = np.fft.ifftn(-sum(k**2 for k in reference_wavenumbers(g)) * np.fft.fftn(f.data)).real
    assert np.allclose(lhs.data, rhs, atol=1e-10)


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
    assert commutator_residual(rho, u, MollifierKernel(g, 0.4)) <= 1e-13


def test_commutator_zero_for_constant_velocity():
    g = GridSpec(2, 48)
    rho = random_field(g, seed=4)
    u = VectorField(g, [np.full(g.shape, 1.3), np.full(g.shape, -0.7)])
    scale = rho.linf_norm()
    assert commutator_residual(rho, u, MollifierKernel(g, 0.4)) <= 1e-12 * max(scale, 1.0)


def test_commutator_decays_with_radius():
    g = GridSpec(1, 256)
    rho = ScalarField.from_function(g, lambda x: 1.0 + 0.5 * np.sin(3 * x))
    u = VectorField(g, [np.cos(2 * g.meshgrid()[0])])
    values = [commutator_residual(rho, u, MollifierKernel(g, d)) for d in (0.4, 0.2, 0.1)]
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


def test_snapshot_longer_than_its_header_is_rejected(tmp_path):
    path = tmp_path / "field.asf"
    write_snapshot(path, ScalarField.constant(GridSpec(2, 8), 1.0), t=0.0)
    path.write_bytes(path.read_bytes() + bytes(512))
    with pytest.raises(ValueError) as info:
        read_snapshot(path)
    assert str(info.value) == f"{path}: overlong payload: (8, 8) cells need 512 bytes, 1024 follow"


@pytest.mark.parametrize("cells", ["100000", "10000000"])
def test_snapshot_header_larger_than_its_file_is_rejected_before_reading(tmp_path, cells):
    # the header's cell count is weighed against the file size, so a bogus
    # header costs no allocation (8e21 bytes at 10^7 cells per axis)
    path = tmp_path / "field.asf"
    path.write_bytes(b"ASF1" + f"3 {cells} {cells} {cells} 0\n".encode() + bytes(64))
    with pytest.raises(ValueError, match="truncated payload: .* 64 follow"):
        read_snapshot(path)


def test_snapshot_header_past_its_cap_is_rejected(tmp_path):
    # the header is one capped readline: a line that runs past the cap is
    # malformed, however the bytes after it parse
    path = tmp_path / "padded.asf"
    path.write_bytes(b"ASF1" + b"1 8 0.0" + b" " * 1000 + b"\n" + bytes(64))
    with pytest.raises(ValueError, match="malformed header"):
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
    u = VectorField(g, [np.sin(g.meshgrid()[0])])
    # int_0^{2pi} cos^2 = pi
    assert grad_l2_norm(u) == pytest.approx(np.sqrt(np.pi), rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [7, 8])
def test_grad_l2_norm_parseval_matches_jacobian(dim, n):
    # rough random data exercises every mode, the Nyquist plane included
    g = GridSpec(dim, n)
    rng = np.random.default_rng(10 * dim + n)
    v = VectorField(g, [rng.standard_normal(g.shape) for _ in range(dim)])
    J = jacobian(v)
    expected = np.sqrt(np.sum(J**2) * g.cell_volume)
    assert grad_l2_norm(v) == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------ half spectra

def rough_vector_hat(grid, seed):
    """rfft of rough random components: every mode, Nyquist planes included."""
    rng = np.random.default_rng(seed)
    return grid.rfft(rng.standard_normal((grid.dim,) + grid.shape))


def from_hat(grid, hat):
    return VectorField(grid, grid.irfft(hat))


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
