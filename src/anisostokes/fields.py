"""Periodic grids, scalar/vector fields, spectral calculus and mollification.

Everything lives on a uniform tensor grid over the periodic box [0, 2*pi)^d,
d in {1, 2, 3}, with the same cell width on every axis.  A vector field is
one (d, *shape) array, the layout the transforms and the Krylov solve use;
its components are views of the rows.  Derivatives are spectral (FFT).
Every transform goes through :class:`GridSpec` (``fft``, ``ifft``,
``rfft``, ``irfft``), which runs numpy's one-axis passes in place on one
buffer per call.  Callers that already hold a field's ``rfftn`` half
spectrum take its divergence and gradient norm from it directly
(:func:`div_hat`, :func:`grad_norm_sq_hat`), with the same Nyquist-zeroed
wavenumbers as :func:`div` and :func:`grad_l2_norm`.  The mollifier is a
nonnegative physical-space stencil, applied in one of two equivalent ways:
:func:`mollify` convolves with the stencil (the Krylov momentum path and
the commutator diagnostic), while the symbol-mode momentum path multiplies
half spectra by :attr:`MollifierKernel.symbol`, the DFT of the same stencil
wrapped onto the grid.  All operations allocate fresh arrays and never
mutate their inputs, except an inverse transform asked to ``overwrite_x``.
"""

from __future__ import annotations

import copyreg
import functools
import logging
import math
import os

import numpy as np

logger = logging.getLogger("anisostokes")

TWO_PI = 2.0 * np.pi

SNAPSHOT_MAGIC = b"ASF1"
# the longest snapshot header line read, newline included; write_snapshot's
# is under 80 bytes (three extents and a 17-digit time)
SNAPSHOT_HEADER_CAP = 256


class GridSpec:
    """Uniform periodic tensor grid.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1, 2 or 3.
    n : int or sequence of int
        Cells per axis, the same on every axis since each spans 2*pi.  A
        bare int is replicated across axes.
    """

    def __init__(self, dim, n):
        if dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
        if np.isscalar(n):
            n = (int(n),) * dim
        n = tuple(int(m) for m in n)
        if len(n) != dim:
            raise ValueError(f"need {dim} extents, got {n}")
        if any(m < 4 for m in n):
            raise ValueError(f"every axis needs at least 4 cells, got {n}")
        if len(set(n)) > 1:
            raise ValueError(f"axes must share one cell width, got {n} cells")

        self.dim = dim
        self.n = n
        self.h = TWO_PI / n[0]
        self.shape = n
        self.ncells = math.prod(n)
        self.cell_volume = self.h**dim
        self.volume = float(np.prod((TWO_PI,) * dim))
        self.half_shape = n[:-1] + (n[-1] // 2 + 1,)
        self._axes = tuple(range(-dim, 0))

    def __eq__(self, other):
        return isinstance(other, GridSpec) and self.dim == other.dim and self.n == other.n

    def __hash__(self):
        return hash((self.dim, self.n))

    def __repr__(self):
        return f"GridSpec(dim={self.dim}, n={self.n})"

    def axis_coords(self, axis):
        """Cell-center coordinates along one axis (left-closed convention)."""
        return np.arange(self.n[axis]) * self.h

    def meshgrid(self):
        """Full coordinate arrays, one per axis, each of shape ``self.shape``."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        return np.meshgrid(*axes, indexing="ij")

    # The four transforms run numpy's own one-axis passes in the order of
    # its n-D functions, so every bit matches fftn/ifftn/rfftn/irfftn over
    # the trailing ``dim`` axes; the passes after the first work in place
    # on one buffer the method owns, where numpy allocates one per pass.
    # ``ifft`` and ``irfft`` take ``overwrite_x`` (scipy.fft's name): a
    # caller whose spectrum is a temporary lets the passes run on it
    # instead of on a copy.

    def fft(self, data):
        """``fftn`` over the trailing ``dim`` axes: one field or a stack of them."""
        buf = np.array(data, dtype=complex)
        for a in reversed(self._axes):
            np.fft.fft(buf, axis=a, out=buf)
        return buf

    def ifft(self, hat, *, overwrite_x=False):
        """``ifftn`` over the trailing ``dim`` axes, the inverse of :meth:`fft`.

        With ``overwrite_x`` a complex ``hat`` is transformed in place and
        returned; pass it only for a temporary that no one else holds.
        """
        buf = (np.asarray if overwrite_x else np.array)(hat, dtype=complex)
        for a in reversed(self._axes):
            np.fft.ifft(buf, axis=a, out=buf)
        return buf

    def rfft(self, data):
        """``rfftn`` over the trailing ``dim`` axes: one field or a stack of them."""
        buf = np.fft.rfft(data, axis=-1)
        for a in reversed(self._axes[:-1]):
            np.fft.fft(buf, axis=a, out=buf)
        return buf

    def irfft(self, hat, *, overwrite_x=False):
        """Inverse of :meth:`rfft`, back to real samples of ``self.shape``.

        With ``overwrite_x`` the passes before the last run in place on a
        complex ``hat``, which is left holding scratch values.
        """
        if self.dim > 1:
            hat = (np.asarray if overwrite_x else np.array)(hat, dtype=complex)
            for a in self._axes[:-1]:
                np.fft.ifft(hat, axis=a, out=hat)
        return np.fft.irfft(hat, n=self.n[-1], axis=-1)

    def _axis_wavenumbers(self, axis):
        m = self.n[axis]
        return TWO_PI * np.fft.fftfreq(m, d=self.h)

    @functools.cached_property
    def ik_full(self):
        """i k_a on the full spectrum, one broadcastable complex array per axis.

        The one place the derivative symbol is formed: every spectral
        derivative reads this table, so ``ifft(ik_full[a] * fft(f))`` is
        d f / d x_a.  The Nyquist mode (even n) is zeroed so d/dx stays
        skew-adjoint and real; consequently div(grad f) equals the Laplacian
        built from these same wavenumbers.
        """
        out = []
        for a in range(self.dim):
            k = self._axis_wavenumbers(a)
            if self.n[a] % 2 == 0:
                k[self.n[a] // 2] = 0.0
            shape = [1] * self.dim
            shape[a] = self.n[a]
            out.append((1j * k).reshape(shape))
        return tuple(out)

    @functools.cached_property
    def k2_full(self):
        """|k|^2 with the Nyquist mode kept (used by the diffusion symbol)."""
        k2 = np.zeros(self.shape)
        for a in range(self.dim):
            k = self._axis_wavenumbers(a)
            shape = [1] * self.dim
            shape[a] = self.n[a]
            k2 = k2 + (k.reshape(shape)) ** 2
        return k2

    @functools.cached_property
    def ik(self):
        """i k_a on the ``rfftn`` half spectrum, a (d, *half_shape) complex array.

        :attr:`ik_full` cut to the half spectrum, so ``irfft(ik[a] *
        rfft(f))`` is the spectral d f / d x_a.  Built once per grid.
        """
        ik = np.empty((self.dim,) + self.half_shape, dtype=complex)
        for a, ika in enumerate(self.ik_full):
            ik[a] = ika[..., : self.half_shape[-1]]
        return ik

    @functools.cached_property
    def parseval_weight(self):
        """Parseval weights c(k) h^d / N on the ``rfftn`` half spectrum.

        Broadcast over :attr:`half_shape`, so that sum(weight * Re(conj(f_hat)
        * g_hat)) equals the discrete h^d sum_x f g of two real fields f, g.
        c(k) = 2 counts the mirrored partner of a mode on the halved last
        axis; c(k) = 1 on the zero mode and, for even n, on the Nyquist
        plane, which have no partner.
        """
        mult = np.full(self.half_shape[-1], 2.0)
        mult[0] = 1.0
        if self.n[-1] % 2 == 0:
            mult[-1] = 1.0
        return mult * (self.cell_volume / self.ncells)

    @functools.cached_property
    def grad_norm_weight(self):
        """Parseval weights for ||grad f||^2 on the ``rfftn`` half spectrum.

        Entry k is :attr:`parseval_weight` times |k|^2 with the
        Nyquist-zeroed derivative wavenumbers of :attr:`ik`, so
        sum(weight * |rfftn(f)|^2) equals the discrete h^d sum_x |grad f|^2.
        """
        k2 = np.zeros(self.half_shape)
        for ika in self.ik:
            k2 = k2 + ika.imag**2
        return k2 * self.parseval_weight


class PicklableError:
    """Mixin for an exception whose ``__init__`` takes other arguments than
    its ``args``.  A copy is rebuilt from ``args`` and the attributes, not
    through ``__init__``, so the message (with any context added to it) and
    the attributes cross a process boundary unchanged."""

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class SolverFailure(PicklableError, Exception):
    """A solver breakdown: it ends a study with one ``FAIL solver`` line."""


class NonFiniteField(SolverFailure, ValueError):
    """Field data holding an inf or a nan, such as an overflowed solve."""


class _Field:
    """The contract both field kinds share.

    ``data`` is a C-contiguous float64 array of exactly the kind's shape
    (``_shape(grid)``), checked finite once; arithmetic and copies build a
    field of the same kind.
    """

    def __init__(self, grid, data):
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.shape != self._shape(grid):
            raise ValueError(f"data shape {data.shape} does not match {self._shape(grid)}")
        if not np.isfinite(data).all():
            raise NonFiniteField("field data must be finite")
        self.grid = grid
        self.data = data

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(cls._shape(grid)))

    def copy(self):
        return type(self)(self.grid, self.data.copy())

    def linf_norm(self):
        return float(np.max(np.abs(self.data)))

    def __add__(self, other):
        _check_same_grid(self, other)
        return type(self)(self.grid, self.data + other.data)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return type(self)(self.grid, self.data - other.data)

    def __mul__(self, scalar):
        return type(self)(self.grid, self.data * float(scalar))

    __rmul__ = __mul__


class ScalarField(_Field):
    """A real scalar sample per cell, row-major, tied to a grid."""

    @staticmethod
    def _shape(grid):
        return grid.shape

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid, fn):
        """Sample ``fn(*coords)`` at cell centers."""
        coords = grid.meshgrid()
        return cls(grid, fn(*coords))

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


class VectorField(_Field):
    """dim scalar components sharing one grid, held as one (dim, *shape) array.

    ``components`` are :class:`ScalarField` views of the rows of ``data``,
    made on first use, so writing one writes the other.
    """

    @staticmethod
    def _shape(grid):
        return (grid.dim,) + grid.shape

    @functools.cached_property
    def components(self):
        return tuple(ScalarField(self.grid, row) for row in self.data)

    def __getitem__(self, i):
        return self.components[i]

    def __len__(self):
        return self.grid.dim

    def l2_norm(self):
        total = sum(np.sum(row**2) for row in self.data)
        return float(np.sqrt(total * self.grid.cell_volume))

    def max_component_sum(self):
        """sum_a max_x |v_a(x)|, the advective CFL speed.

        Summing per-component sup norms (rather than taking the sup of the
        pointwise sum) is what the donor-cell monotonicity argument needs:
        the per-axis outflow coefficients are bounded by per-axis sups that
        can be attained at different cells.
        """
        return float(sum(np.abs(row).max() for row in self.data))


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


# ----------------------------------------------------------------------
# spectral calculus
# ----------------------------------------------------------------------

def grad(f):
    """Spectral gradient of a scalar field, the one row of its :func:`jacobian`."""
    return VectorField(f.grid, jacobian(f)[0])


def div(v):
    """Spectral divergence of a vector field, the one row of :func:`_div_rows`."""
    return ScalarField(v.grid, _div_rows(v.grid, v.data[None])[0])


def _div_rows(grid, rows):
    """Row divergences (div rows)_i = sum_j d_j rows_ij of an (m, d, *shape) stack.

    One row is the divergence of a vector field.  The leading m x m block
    is taken to be symmetric, as the stress of a minor-symmetric law is bit
    for bit: entry (i, j) with i < j < m is transformed once, and row j
    takes entry (j, i) from that transform, kept until then.
    """
    m = len(rows)
    upper = {}
    out = np.empty((m,) + grid.shape)
    for i in range(m):
        acc = np.zeros(grid.shape, dtype=complex)
        for j, ikj in enumerate(grid.ik_full):
            if j < i:
                that = upper.pop((j, i))
            else:
                that = grid.fft(rows[i, j])
                if i < j < m:
                    upper[i, j] = that
            acc += ikj * that
        out[i] = grid.ifft(acc, overwrite_x=True).real
    return out


def div_hat(grid, vhat):
    """Spectral divergence from a half spectrum, as a ScalarField.

    ``vhat`` is ``grid.rfft`` of the d components, a (d, *half_shape)
    stack; the result is irfft(sum_a i k_a vhat_a), which equals
    :func:`div` of the real field up to rounding.
    """
    ik = grid.ik
    acc = ik[0] * vhat[0]
    for a in range(1, grid.dim):
        acc += ik[a] * vhat[a]
    return ScalarField(grid, grid.irfft(acc, overwrite_x=True))


def jacobian(v):
    """Full velocity gradient J[i, j] = d u_i / d x_j as a (d, d, *shape) array.

    A ScalarField is the one-row case, J of shape (1, d, *shape).
    """
    grid = v.grid
    rows = v.data.reshape((-1,) + grid.shape)
    J = np.empty((len(rows), grid.dim) + grid.shape)
    for i, row in enumerate(rows):
        fhat = grid.fft(row)
        for j, ikj in enumerate(grid.ik_full):
            J[i, j] = grid.ifft(ikj * fhat, overwrite_x=True).real
    return J


def sym_grad(v):
    """Symmetric gradient D(u) = (grad u + grad u^T)/2 as a (d, d, *shape) array."""
    J = jacobian(v)
    return 0.5 * (J + np.swapaxes(J, 0, 1))


def l2_inner(f, g):
    """Discrete L2 inner product of two scalar fields."""
    _check_same_grid(f, g)
    return float(np.sum(f.data * g.data) * f.grid.cell_volume)


def grad_norm_sq_hat(grid, hats):
    """||grad f||^2 summed over fields given by their half spectra.

    ``hats`` yields ``grid.rfft`` of each component (a (d, *half_shape)
    stack works); by Parseval the result is sum_k c(k) |k|^2 |hat(k)|^2
    with the weights of :attr:`GridSpec.grad_norm_weight`, no transform
    needed.
    """
    weight = grid.grad_norm_weight
    total = 0.0
    for chat in hats:
        total += float(np.sum(weight * (chat.real**2 + chat.imag**2)))
    return total


def grad_l2_norm(v):
    """L2 norm of the full velocity gradient, ||grad v||_{L2}.

    Evaluated by Parseval (:func:`grad_norm_sq_hat`) from one real forward
    transform per component.  The wavenumbers are the Nyquist-zeroed
    derivative ones, so the value agrees with the norm of :func:`jacobian`
    up to rounding, for even and odd n alike.
    """
    return math.sqrt(grad_norm_sq_hat(v.grid, (v.grid.rfft(row) for row in v.data)))


def vector_lp_norm(v, p):
    """Discrete L^p norm of |v| (cellwise Euclidean magnitude)."""
    mag2 = np.zeros(v.grid.shape)
    for row in v.data:
        mag2 += row**2
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

    @functools.cached_property
    def symbol(self):
        """The Fourier multiplier K of the kernel on the ``rfftn`` half spectrum.

        The stencil is wrapped onto the grid, offsets accumulated modulo the
        cell counts so that a stencil wider than the grid still wraps
        correctly, and transformed once per kernel.  The weights are even,
        so K is real; ``grid.irfft(K * grid.rfft(f))`` equals
        ``mollify(f, kernel)`` up to rounding.
        """
        grid = self.grid
        m = self.radius_cells
        offsets = np.meshgrid(*[np.arange(-m, m + 1) % n for n in grid.n], indexing="ij")
        wrapped = np.zeros(grid.shape)
        np.add.at(wrapped, tuple(offsets), self.weights)
        return grid.rfft(wrapped).real


def _periodic_stencil(data, weights):
    """Periodic correlation of ``data`` with an odd-sided stencil (see :func:`mollify`).

    The stencil runs over the trailing ``weights.ndim`` axes, so a stack
    of fields, such as a vector field's rows, is smoothed row by row.
    Padding wraps the data once by the stencil radius, which also wraps a
    stencil wider than the grid.
    """
    m = weights.shape[0] // 2
    lead = data.ndim - weights.ndim
    padded = np.pad(data, [(0, 0)] * lead + [(m, m)] * weights.ndim, mode="wrap")
    out = np.zeros(data.shape)
    eps = np.finfo(float).eps
    for idx in np.ndindex(weights.shape):
        w = weights[idx]
        if abs(w) > eps:
            window = tuple(slice(i, i + n) for i, n in zip(idx, data.shape[lead:]))
            out += w * padded[(...,) + window]
    return out


def mollify(field, kernel):
    """Periodic discrete convolution of a field with a mollifier kernel.

    Preserves the mean exactly (weights sum to one), preserves
    nonnegativity (weights are nonnegative) and commutes with the spectral
    gradient (discrete convolutions are diagonal in Fourier space).

    The stencil is applied by :func:`_periodic_stencil`.  The weights are
    even under index reflection bit for bit, so convolution is correlation.
    Each cell sums ``w * neighbour`` from 0.0 over the weights in C order and
    leaves out weights at or below ``DBL_EPSILON``: that order and that
    footprint are scipy.ndimage's, so the result equals
    ``ndimage.convolve(data, weights, mode="wrap")`` bit for bit.  Both
    matter, since floating-point sums depend on their order and a term of
    order ``DBL_EPSILON`` times a neighbour moves the last bit.

    Parameters
    ----------
    field : ScalarField or VectorField
    kernel : MollifierKernel
        Must live on the same grid as the field.

    Returns
    -------
    Same type as ``field``.
    """
    if field.grid != kernel.grid:
        raise ValueError("kernel built for a different grid")
    if kernel.is_identity:
        return field.copy()
    return type(field)(field.grid, _periodic_stencil(field.data, kernel.weights))


def commutator_residual(rho, u, kernel):
    """L1 norm of the transport commutator of mollification.

    Computes r_delta = u . grad(rho_delta) - (u . grad rho)_delta with the
    mollifier ``kernel`` of radius delta and returns its integral of
    absolute value.  Vanishes identically for constant rho (both terms are
    zero) and for constant u (convolution commutes with the gradient), and
    decays as the kernel shrinks on smooth data.

    Parameters
    ----------
    rho : ScalarField
    u : VectorField
    kernel : MollifierKernel
        The mollifier, built once by the caller for every state it audits.

    Returns
    -------
    float
        integral of |r_delta| over the box.
    """
    grid = rho.grid
    if u.grid != grid:
        raise ValueError("rho and u live on different grids")
    grad_rho = grad(rho)
    grad_rho_mol = grad(mollify(rho, kernel))
    advect = np.zeros(grid.shape)
    advect_mol = np.zeros(grid.shape)
    for a in range(grid.dim):
        advect += u.data[a] * grad_rho.data[a]
        advect_mol += u.data[a] * grad_rho_mol.data[a]
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


def read_snapshot(path):
    """Read a snapshot file written by :func:`write_snapshot`.

    Every failure to parse the file is a ``ValueError`` whose message
    begins with ``path``; a header line longer than
    ``SNAPSHOT_HEADER_CAP`` bytes is malformed, and so is a payload that
    is not exactly the header's cell count of float64 samples.

    Returns
    -------
    (ScalarField, float)
        The field and its time stamp, on the [0, 2*pi)^d box.
    """
    try:
        with open(path, "rb") as fh:
            return _read_snapshot(fh)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_snapshot(fh):
    magic = fh.read(4)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected ASF1")
    header = fh.readline(SNAPSHOT_HEADER_CAP)
    if not header.endswith(b"\n"):
        if len(header) == SNAPSHOT_HEADER_CAP:
            raise ValueError(f"malformed header: no newline in {SNAPSHOT_HEADER_CAP} bytes")
        raise ValueError("truncated header")
    parts = header.decode("ascii").split()
    dim = int(parts[0]) if parts else 0
    if len(parts) != dim + 2:
        raise ValueError(f"malformed header {header!r}")
    n = tuple(int(p) for p in parts[1 : 1 + dim])
    t = float(parts[1 + dim])
    grid = GridSpec(dim, n)
    # the payload is exactly the header's cells: a header that promises
    # more than the file holds must not make the read below allocate them
    size = grid.ncells * 8
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if remaining != size:
        what = "truncated" if remaining < size else "overlong"
        raise ValueError(f"{what} payload: {n} cells need {size} bytes, {remaining} follow")
    data = np.frombuffer(fh.read(size), dtype="<f8").astype(np.float64).reshape(n)
    return ScalarField(grid, data), t
