"""Periodic grids, scalar/vector fields, spectral calculus and mollification.

Everything lives on a uniform tensor grid over the periodic box [0, L)^d,
d in {1, 2, 3}, with the same cell width on every axis.  Derivatives are
spectral (FFT).  The mollifier is a nonnegative physical-space stencil,
applied in one of two equivalent ways: :func:`mollify` convolves with the
stencil (the Krylov momentum path and the commutator diagnostic), while
the symbol-mode momentum path multiplies half spectra by
:attr:`MollifierKernel.symbol`, the DFT of the same stencil wrapped onto
the grid.  All operations allocate fresh arrays and never mutate their
inputs.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy import ndimage

logger = logging.getLogger("anisostokes")

TWO_PI = 2.0 * np.pi

SNAPSHOT_MAGIC = b"ASF1"


class GridSpec:
    """Uniform periodic tensor grid.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1, 2 or 3.
    n : int or sequence of int
        Cells per axis.  A bare int is replicated across axes.
    length : float or sequence of float, optional
        Physical period per axis (default 2*pi on every axis).  All axes
        must share the same cell width length/n.
    """

    def __init__(self, dim, n, length=None):
        if dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
        if np.isscalar(n):
            n = (int(n),) * dim
        n = tuple(int(m) for m in n)
        if len(n) != dim:
            raise ValueError(f"need {dim} extents, got {n}")
        if any(m < 4 for m in n):
            raise ValueError(f"every axis needs at least 4 cells, got {n}")
        if length is None:
            length = (TWO_PI,) * dim
        elif np.isscalar(length):
            length = (float(length),) * dim
        length = tuple(float(v) for v in length)
        if len(length) != dim:
            raise ValueError(f"need {dim} lengths, got {length}")
        if any(v <= 0 for v in length):
            raise ValueError(f"lengths must be positive, got {length}")
        widths = [v / m for v, m in zip(length, n)]
        if max(widths) - min(widths) > 1e-12 * max(widths):
            raise ValueError(f"axes must share one cell width, got {widths}")

        self.dim = dim
        self.n = n
        self.length = length
        self.h = widths[0]
        self.shape = n
        self.ncells = int(np.prod(n))
        self.cell_volume = self.h**dim
        self.volume = float(np.prod(length))
        self.half_shape = n[:-1] + (n[-1] // 2 + 1,)
        self._axes = tuple(range(-dim, 0))
        self._kd = None
        self._k2_full = None
        self._grad_norm_weight = None

    def __eq__(self, other):
        return (
            isinstance(other, GridSpec)
            and self.dim == other.dim
            and self.n == other.n
            and self.length == other.length
        )

    def __hash__(self):
        return hash((self.dim, self.n, self.length))

    def __repr__(self):
        return f"GridSpec(dim={self.dim}, n={self.n}, length={self.length})"

    def axis_coords(self, axis):
        """Cell-center coordinates along one axis (left-closed convention)."""
        return np.arange(self.n[axis]) * self.h

    def meshgrid(self):
        """Full coordinate arrays, one per axis, each of shape ``self.shape``."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        return np.meshgrid(*axes, indexing="ij")

    def rfft(self, data):
        """``rfftn`` over the trailing ``dim`` axes: one field or a stack of them."""
        return np.fft.rfftn(data, axes=self._axes)

    def irfft(self, hat):
        """Inverse of :meth:`rfft`, back to real samples of ``self.shape``."""
        return np.fft.irfftn(hat, s=self.shape, axes=self._axes)

    def _axis_wavenumbers(self, axis):
        m = self.n[axis]
        return TWO_PI * np.fft.fftfreq(m, d=self.h)

    @property
    def deriv_wavenumbers(self):
        """Broadcastable angular wavenumber arrays for first derivatives.

        The Nyquist mode (even n) is zeroed so d/dx stays skew-adjoint and
        real; consequently div(grad f) equals the Laplacian built from these
        same wavenumbers.
        """
        if self._kd is None:
            out = []
            for a in range(self.dim):
                k = self._axis_wavenumbers(a).copy()
                m = self.n[a]
                if m % 2 == 0:
                    k[m // 2] = 0.0
                shape = [1] * self.dim
                shape[a] = m
                out.append(k.reshape(shape))
            self._kd = tuple(out)
        return self._kd

    @property
    def k2_full(self):
        """|k|^2 with the Nyquist mode kept (used by the diffusion symbol)."""
        if self._k2_full is None:
            k2 = np.zeros(self.shape)
            for a in range(self.dim):
                k = self._axis_wavenumbers(a)
                shape = [1] * self.dim
                shape[a] = self.n[a]
                k2 = k2 + (k.reshape(shape)) ** 2
            self._k2_full = k2
        return self._k2_full

    @property
    def grad_norm_weight(self):
        """Parseval weights for ||grad f||^2 on the ``rfftn`` half spectrum.

        Entry k is c(k) |k|^2 h^d / N with the Nyquist-zeroed derivative
        wavenumbers, so sum(weight * |rfftn(f)|^2) equals the discrete
        h^d sum_x |grad f|^2.  c(k) = 2 counts the mirrored partner of a
        mode on the halved last axis; c(k) = 1 on the zero mode and, for
        even n, on the Nyquist plane, which have no partner.
        """
        if self._grad_norm_weight is None:
            m = self.n[-1]
            half = self.half_shape[-1]
            k2 = np.zeros(self.half_shape)
            for a, k in enumerate(self.deriv_wavenumbers):
                if a == self.dim - 1:
                    k = k[..., :half]
                k2 = k2 + k**2
            mult = np.full(half, 2.0)
            mult[0] = 1.0
            if m % 2 == 0:
                mult[-1] = 1.0
            self._grad_norm_weight = k2 * mult * (self.cell_volume / self.ncells)
        return self._grad_norm_weight


class ScalarField:
    """A real scalar sample per cell, row-major, tied to a grid."""

    def __init__(self, grid, data):
        data = np.asarray(data, dtype=np.float64)
        if data.shape != grid.shape:
            if data.size == grid.ncells:
                data = data.reshape(grid.shape)
            else:
                raise ValueError(
                    f"data shape {data.shape} does not match grid {grid.shape}"
                )
        if not np.all(np.isfinite(data)):
            raise ValueError("field data must be finite")
        self.grid = grid
        self.data = np.ascontiguousarray(data)

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid, fn):
        """Sample ``fn(*coords)`` at cell centers."""
        coords = grid.meshgrid()
        return cls(grid, np.asarray(fn(*coords), dtype=np.float64))

    def copy(self):
        return ScalarField(self.grid, self.data.copy())

    def integral(self):
        return float(self.data.sum()) * self.grid.cell_volume

    def mean(self):
        return float(self.data.mean())

    def min(self):
        return float(self.data.min())

    def max(self):
        return float(self.data.max())

    def l2_norm(self):
        return float(np.sqrt(np.sum(self.data**2) * self.grid.cell_volume))

    def linf_norm(self):
        return float(np.max(np.abs(self.data)))

    def __add__(self, other):
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.data + other.data)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.data - other.data)

    def __mul__(self, scalar):
        return ScalarField(self.grid, self.data * float(scalar))

    __rmul__ = __mul__


class VectorField:
    """dim scalar components sharing one grid."""

    def __init__(self, components):
        components = tuple(components)
        grid = components[0].grid
        if len(components) != grid.dim:
            raise ValueError(
                f"need {grid.dim} components, got {len(components)}"
            )
        for c in components[1:]:
            if c.grid != grid:
                raise ValueError("components live on different grids")
        self.grid = grid
        self.components = components

    @classmethod
    def zeros(cls, grid):
        return cls([ScalarField.zeros(grid) for _ in range(grid.dim)])

    @classmethod
    def from_arrays(cls, grid, arrays):
        return cls([ScalarField(grid, a) for a in arrays])

    def copy(self):
        return VectorField([c.copy() for c in self.components])

    def __getitem__(self, i):
        return self.components[i]

    def __len__(self):
        return len(self.components)

    def __add__(self, other):
        return VectorField(
            [a + b for a, b in zip(self.components, other.components)]
        )

    def __sub__(self, other):
        return VectorField(
            [a - b for a, b in zip(self.components, other.components)]
        )

    def __mul__(self, scalar):
        return VectorField([c * scalar for c in self.components])

    __rmul__ = __mul__

    def stacked(self):
        """Components as one (dim, *shape) array."""
        return np.stack([c.data for c in self.components])

    def l2_norm(self):
        total = sum(np.sum(c.data**2) for c in self.components)
        return float(np.sqrt(total * self.grid.cell_volume))

    def linf_norm(self):
        return max(c.linf_norm() for c in self.components)

    def max_component_sum(self):
        """sum_a max_x |v_a(x)|, the advective CFL speed.

        Summing per-component sup norms (rather than taking the sup of the
        pointwise sum) is what the donor-cell monotonicity argument needs:
        the per-axis outflow coefficients are bounded by per-axis sups that
        can be attained at different cells.
        """
        return float(sum(np.abs(c.data).max() for c in self.components))


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


# ----------------------------------------------------------------------
# spectral calculus
# ----------------------------------------------------------------------

def _deriv_hat(grid, fhat, axis):
    return 1j * grid.deriv_wavenumbers[axis] * fhat


def grad(f):
    """Spectral gradient of a scalar field, returned as a VectorField."""
    grid = f.grid
    fhat = np.fft.fftn(f.data)
    comps = []
    for a in range(grid.dim):
        comps.append(np.fft.ifftn(_deriv_hat(grid, fhat, a)).real)
    return VectorField.from_arrays(grid, comps)


def div(v):
    """Spectral divergence of a vector field, returned as a ScalarField."""
    grid = v.grid
    acc = np.zeros(grid.shape, dtype=complex)
    for a in range(grid.dim):
        acc += _deriv_hat(grid, np.fft.fftn(v[a].data), a)
    return ScalarField(grid, np.fft.ifftn(acc).real)


def jacobian(v):
    """Full velocity gradient J[i, j] = d u_i / d x_j as a (d, d, *shape) array."""
    grid = v.grid
    d = grid.dim
    J = np.empty((d, d) + grid.shape)
    for i in range(d):
        fhat = np.fft.fftn(v[i].data)
        for j in range(d):
            J[i, j] = np.fft.ifftn(_deriv_hat(grid, fhat, j)).real
    return J


def sym_grad(v):
    """Symmetric gradient D(u) = (grad u + grad u^T)/2 as a (d, d, *shape) array."""
    J = jacobian(v)
    return 0.5 * (J + np.swapaxes(J, 0, 1))


def laplacian(f):
    """div(grad f): spectral Laplacian with the derivative wavenumbers."""
    grid = f.grid
    fhat = np.fft.fftn(f.data)
    k2 = np.zeros(grid.shape)
    for a in range(grid.dim):
        k2 = k2 + grid.deriv_wavenumbers[a] ** 2
    return ScalarField(grid, np.fft.ifftn(-k2 * fhat).real)


def l2_inner(f, g):
    """Discrete L2 inner product of two scalar fields."""
    _check_same_grid(f, g)
    return float(np.sum(f.data * g.data) * f.grid.cell_volume)


def grad_l2_norm(v):
    """L2 norm of the full velocity gradient, ||grad v||_{L2}.

    Evaluated by Parseval from one real forward transform per component:
    sum_k c(k) |k|^2 |v_hat(k)|^2 over the ``rfftn`` half spectrum (see
    :attr:`GridSpec.grad_norm_weight`).  The wavenumbers are the
    Nyquist-zeroed derivative ones, so the value agrees with the norm of
    :func:`jacobian` up to rounding, for even and odd n alike.
    """
    weight = v.grid.grad_norm_weight
    total = 0.0
    for c in v.components:
        chat = np.fft.rfftn(c.data)
        total += float(np.sum(weight * (chat.real**2 + chat.imag**2)))
    return math.sqrt(total)


def vector_lp_norm(v, p):
    """Discrete L^p norm of |v| (cellwise Euclidean magnitude)."""
    mag2 = np.zeros(v.grid.shape)
    for c in v.components:
        mag2 += c.data**2
    mag = np.sqrt(mag2)
    return float((np.sum(mag**p) * v.grid.cell_volume) ** (1.0 / p))


# ----------------------------------------------------------------------
# mollification
# ----------------------------------------------------------------------

def _bump(r):
    """The C-infinity bump exp(1 - 1/(1 - r^2)) on |r| < 1, zero outside."""
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    ri = r[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ri**2))
    return out


class MollifierKernel:
    """Discrete periodic mollifier of radius delta on a given grid.

    The built-in profile is the normalized radial bump
    ``exp(1 - 1/(1 - |x/delta|^2))`` sampled at cell offsets inside the
    Euclidean ball of radius delta and renormalized so the weights sum to
    one.  Weights are nonnegative and even under index reflection by
    construction.  A radius below one cell width degrades to the identity
    (a warning is logged once per kernel).
    """

    def __init__(self, grid, delta):
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.grid = grid
        self.delta = float(delta)
        self._symbol = None
        h = grid.h
        self.is_identity = self.delta < h
        if self.is_identity:
            logger.warning(
                "mollifier radius %.3g below cell width %.3g; using identity",
                self.delta,
                h,
            )
            self.weights = np.ones((1,) * grid.dim)
            self.radius_cells = 0
            return
        m = int(np.ceil(self.delta / h))
        offsets = [np.arange(-m, m + 1) * h for _ in range(grid.dim)]
        mesh = np.meshgrid(*offsets, indexing="ij")
        r = np.sqrt(sum(x**2 for x in mesh)) / self.delta
        w = _bump(r)
        total = w.sum()
        if total <= 0:  # pragma: no cover - m >= 1 always keeps the center
            raise ValueError("empty mollifier stencil")
        self.weights = w / total
        self.radius_cells = m

    @property
    def symbol(self):
        """The Fourier multiplier K of the kernel on the ``rfftn`` half spectrum.

        The stencil is wrapped onto the grid, offsets accumulated modulo the
        cell counts so that a stencil wider than the grid still wraps
        correctly, and transformed once per kernel.  The weights are even,
        so K is real; ``grid.irfft(K * grid.rfft(f))`` equals
        ``mollify(f, kernel)`` up to rounding.
        """
        if self._symbol is None:
            grid = self.grid
            m = self.radius_cells
            offsets = np.meshgrid(
                *[np.arange(-m, m + 1) % n for n in grid.n], indexing="ij"
            )
            wrapped = np.zeros(grid.shape)
            np.add.at(wrapped, tuple(offsets), self.weights)
            self._symbol = grid.rfft(wrapped).real
        return self._symbol


def mollify(field, kernel):
    """Periodic discrete convolution of a field with a mollifier kernel.

    Preserves the mean exactly (weights sum to one), preserves
    nonnegativity (weights are nonnegative) and commutes with the spectral
    gradient (discrete convolutions are diagonal in Fourier space).

    Parameters
    ----------
    field : ScalarField or VectorField
    kernel : MollifierKernel
        Must live on the same grid as the field.

    Returns
    -------
    Same type as ``field``.
    """
    if isinstance(field, VectorField):
        return VectorField([mollify(c, kernel) for c in field.components])
    if field.grid != kernel.grid:
        raise ValueError("kernel built for a different grid")
    if kernel.is_identity:
        return field.copy()
    out = ndimage.convolve(field.data, kernel.weights, mode="wrap")
    return ScalarField(field.grid, out)


def commutator_residual(rho, u, delta):
    """L1 norm of the transport commutator of mollification.

    Computes r_delta = u . grad(rho_delta) - (u . grad rho)_delta with the
    built-in kernel at radius delta and returns its integral of absolute
    value.  Vanishes identically for constant rho (both terms are zero) and
    for constant u (convolution commutes with the gradient), and decays as
    the kernel shrinks on smooth data.

    Parameters
    ----------
    rho : ScalarField
    u : VectorField
    delta : float
        Mollification radius.

    Returns
    -------
    float
        integral of |r_delta| over the box.
    """
    grid = rho.grid
    if u.grid != grid:
        raise ValueError("rho and u live on different grids")
    kernel = MollifierKernel(grid, delta)
    grad_rho = grad(rho)
    grad_rho_mol = grad(mollify(rho, kernel))
    advect = np.zeros(grid.shape)
    advect_mol = np.zeros(grid.shape)
    for a in range(grid.dim):
        advect += u[a].data * grad_rho[a].data
        advect_mol += u[a].data * grad_rho_mol[a].data
    smoothed = mollify(ScalarField(grid, advect), kernel)
    r = advect_mol - smoothed.data
    return float(np.sum(np.abs(r)) * grid.cell_volume)


# ----------------------------------------------------------------------
# snapshot files
# ----------------------------------------------------------------------

def write_snapshot(path, field, t):
    """Write one scalar field to a snapshot file.

    Layout: the 4 magic bytes ``ASF1``, an ASCII header line
    ``dim n1 [n2 [n3]] t\\n``, then the samples as little-endian float64 in
    row-major order.
    """
    grid = field.grid
    dims = " ".join(str(m) for m in grid.n)
    header = f"{grid.dim} {dims} {t:.17g}\n".encode("ascii")
    payload = np.ascontiguousarray(field.data, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(header)
        fh.write(payload)


def read_snapshot(path, length=None):
    """Read a snapshot file written by :func:`write_snapshot`.

    Returns
    -------
    (ScalarField, float)
        The field and its time stamp.  ``length`` optionally overrides the
        default 2*pi period per axis.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected ASF1")
        header = b""
        while not header.endswith(b"\n"):
            byte = fh.read(1)
            if not byte:
                raise ValueError(f"{path}: truncated header")
            header += byte
        parts = header.decode("ascii").split()
        dim = int(parts[0])
        if len(parts) != dim + 2:
            raise ValueError(f"{path}: malformed header {header!r}")
        n = tuple(int(p) for p in parts[1 : 1 + dim])
        t = float(parts[1 + dim])
        count = int(np.prod(n))
        raw = fh.read(count * 8)
        if len(raw) != count * 8:
            raise ValueError(f"{path}: truncated payload")
    data = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(n)
    grid = GridSpec(dim, n, length)
    return ScalarField(grid, data), t
