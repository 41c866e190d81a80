"""Anisotropic viscosity tensors, stress application and power, and coercivity.

Three tensor variants share one interface: a diagonal per-axis law (the
weighted-Laplacian fast path), a constant rank-4 tensor, and a cellwise
varying rank-4 tensor.  Each has a ``kind`` ("diag", "constant" or
"varying"), a ``dim``, ``tensor_at()`` (the (d,d,d,d) tensor, or
(d,d,d,d,*cells) for a varying law) and ``apply(du)``, the stress
tau_ij = A_ijkl [du]_kl as a (d, d, *shape) array of the symmetric
gradient from :func:`anisostokes.fields.sym_grad`.  Every law is constant
in time.  Minor symmetries A_ijkl = A_jikl = A_ijlk are enforced by
symmetrization at construction so the stress is always a symmetric matrix;
major symmetry is not assumed anywhere (``major_symmetric`` tests for it).
This module works in real space only: the symbols of a law, and the audit
that builds its momentum operator, live in :mod:`anisostokes.stokes`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from anisostokes.fields import ScalarField, jacobian


def minor_symmetrize(a):
    """Average a rank-4 array over both minor index swaps (leading 4 axes).

    Done one swap at a time so the result is bitwise symmetric.
    """
    a = np.asarray(a, dtype=np.float64)
    a = 0.5 * (a + np.swapaxes(a, 0, 1))
    a = 0.5 * (a + np.swapaxes(a, 2, 3))
    return a


_MAJOR_SYMMETRY_RTOL = 1e-12


def major_symmetric(a):
    """Whether A_ijkl = A_klij to 1e-12 relative, for a (d,d,d,d,...) array."""
    swapped = np.swapaxes(np.swapaxes(a, 0, 2), 1, 3)
    scale = max(float(np.abs(a).max()), 1e-300)
    return float(np.abs(a - swapped).max()) <= _MAJOR_SYMMETRY_RTOL * scale


def isotropic_strain_tensor(dim, nu):
    """Constant tensor with stress law tau = nu * D(u)."""
    eye = np.eye(dim)
    a = 0.5 * nu * (
        np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye)
    )
    return a


class DiagNu:
    """Per-axis viscosities nu = (nu_1, ..., nu_d), the weighted-Laplacian law.

    The momentum operator is sum_a nu_a d_a^2 applied componentwise (handled
    as a scalar Fourier symbol by the Stokes solver).  The stress used in
    work diagnostics is tau_ij = (nu_i + nu_j)/2 * D_ij, which is symmetric,
    reduces to nu*D for isotropic nu, and whose contraction with grad u
    equals sum_ij nu_j |d_j u_i|^2 pointwise on the gradient velocity fields
    the solver produces.
    """

    kind = "diag"

    def __init__(self, nu):
        nu = tuple(float(v) for v in np.atleast_1d(nu))
        if len(nu) not in (1, 2, 3):
            raise ValueError(f"need 1 to 3 viscosities, got {nu}")
        if any(v <= 0 for v in nu):
            raise ValueError(f"viscosities must be positive, got {nu}")
        self.nu = nu
        self.dim = len(nu)
        # pairwise weights (nu_i + nu_j)/2
        arr = np.asarray(nu)
        self.weights = 0.5 * (arr[:, None] + arr[None, :])

    def tensor_at(self):
        return self.weights[:, :, None, None] * isotropic_strain_tensor(self.dim, 1.0)

    def apply(self, du):
        d = self.dim
        w = self.weights.reshape((d, d) + (1,) * (du.ndim - 2))
        return w * du

    def __repr__(self):
        return f"DiagNu(nu={self.nu})"


class ConstantFull:
    """A constant rank-4 viscosity tensor (d, d, d, d)."""

    kind = "constant"

    def __init__(self, a):
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 4 or len(set(a.shape)) != 1 or a.shape[0] not in (1, 2, 3):
            raise ValueError(f"expected a (d,d,d,d) array, got shape {a.shape}")
        self.a = minor_symmetrize(a)
        self.dim = a.shape[0]

    def tensor_at(self):
        return self.a

    def apply(self, du):
        return np.einsum("ijkl,kl...->ij...", self.a, du)

    def __repr__(self):
        return f"ConstantFull(dim={self.dim})"


class VaryingFull:
    """A cellwise rank-4 tensor, constant in time.

    Parameters
    ----------
    grid : GridSpec
    values : ndarray
        Shape (d,d,d,d,*grid.shape).
    """

    kind = "varying"

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=np.float64)
        d = grid.dim
        per_cell = (d, d, d, d) + grid.shape
        if values.shape != per_cell:
            raise ValueError(f"expected shape {per_cell}, got {values.shape}")
        self.values = minor_symmetrize(values)
        self.grid = grid
        self.dim = d

    def tensor_at(self):
        return self.values

    def apply(self, du):
        return np.einsum("ijkl...,kl...->ij...", self.values, du)

    def __repr__(self):
        return f"VaryingFull(dim={self.dim})"


@dataclass(frozen=True)
class ViscousWork:
    total: float
    pointwise: ScalarField
    h1_residual: float


def viscous_work(tensor, u):
    """Pointwise stress power tau : grad u, its integral, and the H1 gap.

    The gap max|tau : grad u - tau : D(u)| vanishes (to rounding) whenever
    the stress is symmetric, which every shipped tensor guarantees.
    """
    grid = u.grid
    J = jacobian(u)
    D = 0.5 * (J + np.swapaxes(J, 0, 1))
    tau = tensor.apply(D)
    work_grad = np.einsum("ij...,ij...->...", tau, J)
    work_sym = np.einsum("ij...,ij...->...", tau, D)
    pointwise = ScalarField(grid, work_grad)
    return ViscousWork(
        total=pointwise.integral(),
        pointwise=pointwise,
        h1_residual=float(np.abs(work_grad - work_sym).max()),
    )


# ----------------------------------------------------------------------
# coercivity
# ----------------------------------------------------------------------

@dataclass
class CoercivityReport:
    c_est: float
    passed: bool


def _voigt_basis(d):
    """Orthonormal (Frobenius) basis of symmetric d x d matrices."""
    basis = []
    for a in range(d):
        e = np.zeros((d, d))
        e[a, a] = 1.0
        basis.append(e)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for a in range(d):
        for b in range(a + 1, d):
            e = np.zeros((d, d))
            e[a, b] = inv_sqrt2
            e[b, a] = inv_sqrt2
            basis.append(e)
    return np.stack(basis)


def _min_strain_eigenvalue(a):
    """Minimum of (A D):D / |D|^2 over unit symmetric D and over cells.

    ``a`` is a (d,d,d,d) or (d,d,d,d,*cells) array.  The quadratic form is
    written in the orthonormal symmetric basis (the Voigt form) and
    symmetrized; its smallest eigenvalue is the exact minimum.
    """
    basis = _voigt_basis(a.shape[0])
    q = np.einsum("pij,ijkl...,qkl->pq...", basis, a, basis)
    q = 0.5 * (q + np.swapaxes(q, 0, 1))
    m = q.shape[0]
    qcells = q.reshape(m, m, -1).transpose(2, 0, 1)
    return float(np.linalg.eigvalsh(qcells)[:, 0].min())


def coercivity_estimate(tensor):
    """The pointwise coercivity constant of the stress law, computed exactly.

    ``c_est`` is the smallest eigenvalue of the symmetrized strain form, not
    a sampled Rayleigh minimum.  Returns a :class:`CoercivityReport`;
    ``passed`` is ``c_est > 0``.  For a varying tensor the constant is the
    minimum over cells.
    """
    c = _min_strain_eigenvalue(tensor.tensor_at())
    return CoercivityReport(c_est=c, passed=c > 0)
