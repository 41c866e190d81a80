"""Momentum solves: A u = grad q with A v = -div tau(D(v)).

Constant-coefficient laws (diagonal or full tensor) are solved exactly in
Fourier space ("symbol mode").  Cellwise-varying tensors go through a
preconditioned Krylov iteration (conjugate gradients when the tensor has
the major symmetry, a residual-minimizing iteration otherwise) with the
cell-averaged constant tensor as preconditioner.  Conjugate gradients is
the numpy :func:`_cg`; only the residual-minimizing branch, scipy's
LGMRES, imports scipy, when it first runs.

The diagonal law uses the scalar symbol sum_a nu_a k_a^2 (the weighted
Laplacian applied componentwise); full tensors use the d x d matrix symbol
M_ik(k) = sum_jl A_ijkl k_j k_l.  In symbol mode the operator keeps one
gain G(k) = M(k)^{-1} i k on the ``rfftn`` half spectrum, so the velocity
spectrum is u_hat = G q_hat: one real forward transform of q, one multiply
and one inverse transform per component.  Callers that hold q_hat already
(the marcher, which mollifies by a Fourier multiplier too) use
:meth:`StokesOperator.solve_hat`.  Wavevectors are the first-derivative
wavenumbers of the grid (Nyquist zeroed), which keeps the symbol
application identical to composing the spectral operators; G vanishes on
modes whose derivative wavevector vanishes entirely, which is what makes
the velocity mean-free.
"""

from __future__ import annotations

import numpy as np

from anisostokes.fields import SolverFailure, VectorField, grad, sym_grad
from anisostokes.viscosity import coercivity_estimate, major_symmetric


class SingularSymbol(SolverFailure):
    """Some nonzero wavevector has a non-invertible momentum symbol."""


class NotCoercive(SolverFailure):
    """The stress law fails the coercivity audit."""


class KrylovNoConvergence(SolverFailure):
    """The iterative solve missed the residual target."""

    def __init__(self, iterations, residual, target):
        self.iterations = iterations
        self.residual = residual
        self.target = target
        super().__init__(
            f"no convergence after {iterations} iterations: "
            f"residual {residual:.3e} > target {target:.3e}"
        )


def _wavevectors(grid):
    """Derivative wavevectors as a (d, *shape) array plus the active-mode mask."""
    d = grid.dim
    kvec = np.zeros((d,) + grid.shape)
    for a in range(d):
        kvec[a] = np.broadcast_to(grid.deriv_wavenumbers[a], grid.shape)
    active = np.any(kvec != 0.0, axis=0)
    return kvec, active


def _div_tensor(grid, tau):
    """Row divergence (div tau)_i = sum_j d_j tau_ij, spectrally.

    The stress of a minor-symmetric law is symmetric bit for bit, so only
    tau_ij with j >= i is transformed; row j takes tau_ji from the transform
    of tau_ij, kept until then.
    """
    d = grid.dim
    upper = {}
    out = np.empty((d,) + grid.shape)
    for i in range(d):
        acc = np.zeros(grid.shape, dtype=complex)
        for j in range(d):
            if j < i:
                that = upper.pop((j, i))
            else:
                that = grid.fft(tau[i, j])
                if j > i:
                    upper[i, j] = that
            acc += 1j * grid.deriv_wavenumbers[j] * that
        out[i] = grid.ifft(acc).real
    return VectorField(grid, out)


class StokesOperator:
    """A momentum operator bound to a tensor and a grid.

    Build with :meth:`build`; solve right sides with :func:`solve`.
    """

    def __init__(self, tensor, grid, mode):
        self.tensor = tensor
        self.grid = grid
        self.mode = mode
        self._scalar_symbol = None
        self._gain = None
        self._precond_inv = None
        self._use_cg = False

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, tensor, grid):
        """Bind a viscosity tensor to a grid, validating its symbols.

        Raises
        ------
        SingularSymbol
            If a nonzero wavevector has a singular symbol (checked first,
            it is a structural defect of the tensor).
        NotCoercive
            If the coercivity audit fails.
        """
        if tensor.dim != grid.dim:
            raise ValueError(
                f"tensor dimension {tensor.dim} != grid dimension {grid.dim}"
            )
        mode = "krylov" if tensor.kind == "varying" else "symbol"
        op = cls(tensor, grid, mode)
        kvec, active = _wavevectors(grid)
        half = grid.half_shape[-1]
        ik, ahalf = grid.ik, active[..., :half]

        if tensor.kind == "diag":
            nu = np.asarray(tensor.nu)
            sym = np.einsum("a,a...->...", nu, kvec**2)
            if np.any(sym[active] <= 0):  # unreachable for positive nu
                raise SingularSymbol("diagonal symbol vanishes on an active mode")
            op._scalar_symbol = sym
            op._gain = np.zeros((grid.dim,) + grid.half_shape, dtype=complex)
            np.divide(ik, sym[..., :half], out=op._gain, where=ahalf)
        elif tensor.kind == "constant":
            a = tensor.tensor_at()
            khalf = ik.imag
            sym = np.einsum("ijkl,j...,l...->ik...", a, khalf, khalf)
            inv = _invert_symbol(sym, ahalf)
            op._gain = np.einsum("ik...,k...->i...", inv, ik)
        else:
            avg = tensor.averaged_constant()
            asym = np.einsum("ijkl,j...,l...->ik...", avg.tensor_at(), kvec, kvec)
            try:
                op._precond_inv = _invert_symbol(asym, active)
            except SingularSymbol:
                op._precond_inv = None
            op._use_cg = major_symmetric(avg.tensor_at()) and major_symmetric(tensor.tensor_at())

        report = coercivity_estimate(tensor)
        if not report.passed:
            raise NotCoercive(
                f"coercivity estimate {report.c_est:.3e} is not positive"
            )
        op.coercivity = report
        return op

    # -- application ----------------------------------------------------

    def apply(self, v):
        """A v = -div tau(D(v)) on a vector field."""
        grid = self.grid
        if self.tensor.kind == "diag":
            out = np.empty_like(v.data)
            for a, row in enumerate(v.data):
                out[a] = grid.ifft(self._scalar_symbol * grid.fft(row)).real
            return VectorField(grid, out)
        du = sym_grad(v)
        tau = self.tensor.apply(du)
        return -1.0 * _div_tensor(grid, tau)

    def solve_hat(self, qhat):
        """Half spectrum of the symbol-mode u solving A u = grad q.

        ``qhat`` is ``grid.rfft(q)``; the result has shape (d, *half) and
        ``grid.irfft`` of it is the velocity.
        """
        return self._gain * qhat


def _invert_symbol(sym, active):
    """Invert the (d, d, *shape) symbol on active modes; zero elsewhere."""
    d = sym.shape[0]
    shape = sym.shape[2:]
    mats = np.moveaxis(sym.reshape(d, d, -1), -1, 0)
    act = active.reshape(-1)
    sel = mats[act]
    if sel.size:
        svals = np.linalg.svd(sel, compute_uv=False)
        smin, smax = svals[:, -1], svals[:, 0]
        bad = smin <= 1e-12 * np.maximum(smax, 1e-300)
        if np.any(bad):
            idx = int(np.argmax(bad))
            raise SingularSymbol(
                f"singular momentum symbol on {int(bad.sum())} modes "
                f"(first singular values {svals[idx]})"
            )
    inv = np.zeros_like(mats)
    inv[act] = np.linalg.inv(sel)
    return np.moveaxis(inv, 0, -1).reshape((d, d) + shape)


def solve(op, q):
    """Solve A u = grad q for a mean-free velocity field.

    In symbol mode this is ``irfft(G * rfft(q))`` with the operator's
    half-spectrum gain G (see :meth:`StokesOperator.solve_hat`); varying
    tensors go through :func:`solve_rhs` on grad q.

    Parameters
    ----------
    op : StokesOperator
    q : ScalarField
        The scalar whose gradient drives the momentum balance
        (q = f - p in the coupled system).

    Returns
    -------
    VectorField
        u with componentwise zero mean and
        ``||A u - grad q||_2 <= _KRYLOV_RTOL * ||grad q||_2``.
    """
    if q.grid != op.grid:
        raise ValueError("q lives on a different grid")
    if op.mode == "symbol":
        grid = op.grid
        return VectorField(grid, grid.irfft(op.solve_hat(grid.rfft(q.data))))
    return solve_rhs(op, grad(q))


# the Krylov contract: residual at most this times ||rhs||, within this many iterations
_KRYLOV_RTOL = 1e-8
_KRYLOV_MAX_ITER = 400


def solve_rhs(op, rhs):
    """Solve A u = rhs for an arbitrary mean-free vector right side.

    This is the Krylov workhorse behind :func:`solve` for varying tensors;
    it also backs manufactured-solution round trips where the forward
    application of a varying tensor is not a gradient field.
    """
    grid = op.grid
    d = grid.dim
    size = d * grid.ncells

    def matvec(x):
        return op.apply(VectorField(grid, x.reshape((d,) + grid.shape))).data.reshape(size)

    def precvec(x):
        if op._precond_inv is None:
            return x
        xhat = grid.fft(x.reshape((d,) + grid.shape))
        phat = np.einsum("ik...,k...->i...", op._precond_inv, xhat)
        del xhat
        # one contiguous real output: BLAS would sum a strided .real view
        # in another order, and a whole-stack inverse peaks higher
        out = np.empty((d,) + grid.shape)
        for a in range(d):
            out[a] = grid.ifft(phat[a]).real
        return out.reshape(size)

    b = rhs.data.reshape(size)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return VectorField.zeros(grid)
    # aim below the contract so its physical-norm check has margin
    target = 0.05 * _KRYLOV_RTOL
    if op._use_cg:
        x = _cg(matvec, precvec, b, target * bnorm)
    else:
        from scipy.sparse import linalg as spla  # only LGMRES loads scipy

        lin = spla.LinearOperator((size, size), matvec=matvec, dtype=np.float64)
        pre = spla.LinearOperator((size, size), matvec=precvec, dtype=np.float64)
        x, _ = spla.lgmres(lin, b, rtol=target, atol=0.0, maxiter=_KRYLOV_MAX_ITER, M=pre)
    u = _project_mean_free(VectorField(grid, x.reshape((d,) + grid.shape)))
    res = residual_rhs(op, u, rhs)
    scale = rhs.l2_norm()
    if res > _KRYLOV_RTOL * scale:
        raise KrylovNoConvergence(_KRYLOV_MAX_ITER, res, _KRYLOV_RTOL * scale)
    return u


def _cg(matvec, psolve, b, atol):
    """Preconditioned conjugate gradients from x = 0, stopping at ``||r|| < atol``.

    A line-for-line port of ``scipy.sparse.linalg.cg`` (scipy 1.17.1) for
    real vectors, so it returns the same iterate bit for bit; after
    ``_KRYLOV_MAX_ITER`` iterations it returns the last one.
    """
    x = np.zeros_like(b)
    r = b.copy()
    for iteration in range(_KRYLOV_MAX_ITER):
        if np.linalg.norm(r) < atol:
            break
        z = psolve(r)
        rho = np.dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x


def _project_mean_free(u):
    out = np.empty_like(u.data)
    for a, row in enumerate(u.data):
        np.subtract(row, row.mean(), out=out[a])
    return VectorField(u.grid, out)


def residual(op, u, q):
    """||A u - grad q||_2, the momentum residual of a candidate velocity."""
    return residual_rhs(op, u, grad(q))


def residual_rhs(op, u, rhs):
    return (op.apply(u) - rhs).l2_norm()
