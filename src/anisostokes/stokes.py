"""Momentum solves: A u = grad q with A v = -div tau(D(v)).

Constant-coefficient laws (diagonal or full tensor) are solved exactly in
Fourier space ("symbol mode").  Cellwise-varying tensors go through a
preconditioned Krylov iteration (conjugate gradients when the tensor has
the major symmetry, a residual-minimizing iteration otherwise) with the
cell-averaged constant tensor as preconditioner.

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
from scipy.sparse import linalg as spla

from anisostokes.fields import VectorField, grad, sym_grad
from anisostokes.viscosity import apply_tau, coercivity_estimate, major_symmetric


class SingularSymbol(Exception):
    """Some nonzero wavevector has a non-invertible momentum symbol."""


class NotCoercive(Exception):
    """The stress law fails the coercivity audit."""


class KrylovNoConvergence(Exception):
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
    """Row divergence (div tau)_i = sum_j d_j tau_ij, spectrally."""
    d = grid.dim
    comps = []
    for i in range(d):
        acc = np.zeros(grid.shape, dtype=complex)
        for j in range(d):
            that = np.fft.fftn(tau[i, j])
            acc += 1j * grid.deriv_wavenumbers[j] * that
        comps.append(np.fft.ifftn(acc).real)
    return VectorField.from_arrays(grid, comps)


class StokesOperator:
    """A momentum operator bound to a tensor, a grid and a time.

    Build with :meth:`build`; solve right sides with :func:`solve`.
    """

    def __init__(self, tensor, grid, t, mode, rtol, max_iter):
        self.tensor = tensor
        self.grid = grid
        self.t = t
        self.mode = mode
        self.rtol = rtol
        self.max_iter = max_iter
        self._scalar_symbol = None
        self._gain = None
        self._precond_inv = None
        self._use_cg = False

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, tensor, grid, t=0.0, rtol=1e-8, max_iter=400):
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
        op = cls(tensor, grid, t, mode, rtol, max_iter)
        kvec, active = _wavevectors(grid)
        half = grid.half_shape[-1]
        khalf, ahalf = kvec[..., :half], active[..., :half]

        if tensor.kind == "diag":
            nu = np.asarray(tensor.nu)
            sym = np.einsum("a,a...->...", nu, kvec**2)
            if np.any(sym[active] <= 0):  # unreachable for positive nu
                raise SingularSymbol("diagonal symbol vanishes on an active mode")
            op._scalar_symbol = sym
            op._gain = np.zeros((grid.dim,) + grid.half_shape, dtype=complex)
            np.divide(1j * khalf, sym[..., :half], out=op._gain, where=ahalf)
        elif tensor.kind == "constant":
            a = tensor.tensor_at(t)
            sym = np.einsum("ijkl,j...,l...->ik...", a, khalf, khalf)
            inv = _invert_symbol(sym, ahalf)
            op._gain = np.einsum("ik...,k...->i...", inv, 1j * khalf)
        else:
            avg = tensor.averaged_constant(t)
            asym = np.einsum("ijkl,j...,l...->ik...", avg.tensor_at(t), kvec, kvec)
            try:
                op._precond_inv = _invert_symbol(asym, active)
            except SingularSymbol:
                op._precond_inv = None
            op._use_cg = major_symmetric(avg.tensor_at(t)) and major_symmetric(tensor.tensor_at(t))

        report = coercivity_estimate(tensor, t=None if tensor.time_dependent else t)
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
            comps = []
            for c in v.components:
                chat = np.fft.fftn(c.data)
                comps.append(np.fft.ifftn(self._scalar_symbol * chat).real)
            return VectorField.from_arrays(grid, comps)
        du = sym_grad(v)
        tau = apply_tau(self.tensor, du, self.t)
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
        ``||A u - grad q||_2 <= rtol * ||grad q||_2``.
    """
    if q.grid != op.grid:
        raise ValueError("q lives on a different grid")
    if op.mode == "symbol":
        grid = op.grid
        return VectorField.from_arrays(grid, grid.irfft(op.solve_hat(grid.rfft(q.data))))
    return solve_rhs(op, grad(q))


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
        v = VectorField.from_arrays(grid, x.reshape((d,) + grid.shape))
        return op.apply(v).stacked().reshape(size)

    def precvec(x):
        if op._precond_inv is None:
            return x
        arr = x.reshape((d,) + grid.shape)
        ahat = np.stack([np.fft.fftn(arr[a]) for a in range(d)])
        phat = np.einsum("ik...,k...->i...", op._precond_inv, ahat)
        out = np.stack([np.fft.ifftn(phat[a]).real for a in range(d)])
        return out.reshape(size)

    b = rhs.stacked().reshape(size)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return VectorField.zeros(grid)
    lin = spla.LinearOperator((size, size), matvec=matvec, dtype=np.float64)
    pre = spla.LinearOperator((size, size), matvec=precvec, dtype=np.float64)
    # aim below rtol so the physical-norm contract check has margin
    target = 0.05 * op.rtol
    if op._use_cg:
        x, _ = spla.cg(lin, b, rtol=target, atol=0.0, maxiter=op.max_iter, M=pre)
    else:
        x, _ = spla.lgmres(
            lin, b, rtol=target, atol=0.0, maxiter=op.max_iter, M=pre
        )
    u = VectorField.from_arrays(grid, x.reshape((d,) + grid.shape))
    u = _project_mean_free(u)
    res = residual_rhs(op, u, rhs)
    scale = rhs.l2_norm()
    if res > op.rtol * scale:
        raise KrylovNoConvergence(op.max_iter, res, op.rtol * scale)
    return u


def _project_mean_free(u):
    comps = []
    for c in u.components:
        comps.append(c.data - c.data.mean())
    return VectorField.from_arrays(u.grid, comps)


def residual(op, u, q):
    """||A u - grad q||_2, the momentum residual of a candidate velocity."""
    return residual_rhs(op, u, grad(q))


def residual_rhs(op, u, rhs):
    return (op.apply(u) - rhs).l2_norm()
