"""Momentum solves: A u = grad q with A v = -div tau(D(v)).

This is the one module that turns a stress law into spectral tables.
Constant-coefficient laws (diagonal or full tensor) are solved exactly in
Fourier space ("symbol mode").  Cellwise-varying tensors go through a
preconditioned Krylov iteration (conjugate gradients when the tensor has
the major symmetry, a residual-minimizing iteration otherwise) with the
symbol of the cell-averaged tensor as preconditioner.  Conjugate gradients
is the numpy :func:`_cg`; only the residual-minimizing branch, scipy's
LGMRES, imports scipy, when it first runs.

The diagonal law uses the scalar symbol sum_a nu_a k_a^2 (the weighted
Laplacian applied componentwise); full tensors use the d x d matrix symbol
M_ik(k) = sum_jl A_ijkl k_j k_l.  In symbol mode the operator keeps one
gain G(k) = M(k)^{-1} i k on the ``rfftn`` half spectrum, so the velocity
spectrum is u_hat = G q_hat: one real forward transform of q, one multiply
and one inverse transform per component.  Callers that hold q_hat already
(the marcher, which mollifies by a Fourier multiplier too) use
:meth:`StokesOperator.solve_hat`.  The operator also keeps the stress
power as half-spectrum weights (``power_weights``), which the march's
ledger reads.  Wavevectors are the first-derivative wavenumbers of the
grid (Nyquist zeroed), which keeps the symbol application identical to
composing the spectral operators; G vanishes on modes whose derivative
wavevector vanishes entirely, which is what makes the velocity mean-free.
:func:`audit_hypotheses` audits a law on a grid through the operator it
builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from anisostokes.fields import (
    SolverFailure,
    VectorField,
    _div_rows,
    div,
    grad,
    sym_grad,
    vector_lp_norm,
)
from anisostokes.viscosity import (
    CoercivityReport,
    coercivity_estimate,
    major_symmetric,
    viscous_work,
)


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


class StokesOperator:
    """A momentum operator bound to a tensor and a grid.

    Build with :meth:`build`; solve right sides with :func:`solve`.
    ``power_weights`` is None for a varying law (see :meth:`build`).
    """

    def __init__(self, tensor, grid, mode):
        self.tensor = tensor
        self.grid = grid
        self.mode = mode
        self._scalar_symbol = None
        self._gain = None
        self.power_weights = None
        self._precond_inv = None
        self._use_cg = False

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, tensor, grid):
        """Bind a viscosity tensor to a grid, validating its symbols.

        A law constant in space has each symbol formed once, on the
        ``rfftn`` half spectrum of ``grid.ik``: the gain, the diagonal law's
        scalar symbol, and M(k) of ``tensor.tensor_at()`` (for the diagonal
        law, its work tensor), which a constant law's gain inverts and
        ``power_weights`` reuses.  With J_hat_ij = i k_j u_hat_i and the
        minor symmetry of A, conj(J_hat) : tau_hat = conj(u_hat) . M u_hat,
        so by Parseval int tau(D(u)) : grad u is the sum over the half
        spectrum of c(k) h^d / N Re(conj(u_hat) . M u_hat).
        ``power_weights`` lists (i, j, weight) for i <= j, the weight being
        :attr:`GridSpec.parseval_weight` times M_ii on the diagonal and
        times M_ij + M_ji off it; the integral is then
        sum Re(vdot(u_hat_i, weight * u_hat_j)).

        Raises
        ------
        SingularSymbol
            If a nonzero wavevector has a singular symbol (checked first,
            it is a structural defect of the tensor).
        NotCoercive
            If the coercivity audit fails.
        """
        op = cls._bind(tensor, grid)
        report = coercivity_estimate(tensor)
        if not report.passed:
            raise NotCoercive(
                f"coercivity estimate {report.c_est:.3e} is not positive"
            )
        return op

    @classmethod
    def _bind(cls, tensor, grid):
        """:meth:`build` without its coercivity audit: the symbols, checked
        for :class:`SingularSymbol`."""
        if tensor.dim != grid.dim:
            raise ValueError(
                f"tensor dimension {tensor.dim} != grid dimension {grid.dim}"
            )
        d = grid.dim
        if tensor.kind == "varying":
            op = cls(tensor, grid, "krylov")
            kvec = np.array(np.broadcast_arrays(*(ika.imag for ika in grid.ik_full)))
            avg = tensor.values.reshape(d**4, -1).mean(axis=1).reshape((d,) * 4)
            asym = np.einsum("ijkl,j...,l...->ik...", avg, kvec, kvec)
            try:
                op._precond_inv = _invert_symbol(asym, np.any(kvec != 0.0, axis=0))
            except SingularSymbol:
                op._precond_inv = None
            op._use_cg = major_symmetric(avg) and major_symmetric(tensor.values)
        else:
            op = cls(tensor, grid, "symbol")
            ik = grid.ik
            k = ik.imag
            active = np.any(k != 0.0, axis=0)
            m = np.einsum("ijkl,j...,l...->ik...", tensor.tensor_at(), k, k)
            if tensor.kind == "diag":
                sym = np.einsum("a,a...->...", np.asarray(tensor.nu), k**2)
                op._scalar_symbol = sym
                op._gain = np.zeros((d,) + grid.half_shape, dtype=complex)
                np.divide(ik, sym, out=op._gain, where=active)
            else:
                op._gain = np.einsum("ik...,k...->i...", _invert_symbol(m, active), ik)
            pw = grid.parseval_weight
            op.power_weights = [
                (i, j, (m[i, i] if i == j else m[i, j] + m[j, i]) * pw)
                for i in range(d)
                for j in range(i, d)
            ]
        return op

    # -- application ----------------------------------------------------

    def apply(self, v):
        """A v = -div tau(D(v)) on a vector field."""
        grid = self.grid
        if self.tensor.kind == "diag":
            hat = self._scalar_symbol * grid.rfft(v.data)
            return VectorField(grid, grid.irfft(hat, overwrite_x=True))
        tau = self.tensor.apply(sym_grad(v))
        return VectorField(grid, -_div_rows(grid, tau))

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
        uhat = op.solve_hat(grid.rfft(q.data))
        return VectorField(grid, grid.irfft(uhat, overwrite_x=True))
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
    matvecs = 0  # the iterations that ran, for KrylovNoConvergence

    def matvec(x):
        nonlocal matvecs
        matvecs += 1
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
            out[a] = grid.ifft(phat[a], overwrite_x=True).real
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
        raise KrylovNoConvergence(matvecs, res, _KRYLOV_RTOL * scale)
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
        # each matvec runs with only b, x, r and p alive
        del z
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        del q
        rho_prev = rho
    return x


def _project_mean_free(u):
    out = np.empty_like(u.data)
    for a, row in enumerate(u.data):
        np.subtract(row, row.mean(), out=out[a])
    return VectorField(u.grid, out)


def residual_rhs(op, u, rhs):
    """||A u - rhs||_2, the momentum residual of a candidate velocity."""
    return (op.apply(u) - rhs).l2_norm()


# ----------------------------------------------------------------------
# hypothesis audits
# ----------------------------------------------------------------------

@dataclass
class HypothesesReport:
    h1_max_residual: float
    h1_passed: bool
    coercivity: CoercivityReport
    h4_symbol_invertible: bool | None
    h4_sample_norm: float | None
    h2_note: str
    passed: bool


def _random_velocity(grid, rng):
    return VectorField(grid, rng.standard_normal((grid.dim,) + grid.shape))


_AUDIT_SAMPLES = 10
_H1_RTOL = 1e-12


def audit_hypotheses(tensor, grid, seed=0):
    """Audit the structural hypotheses of the stress law on a grid.

    * symmetric-stress identity: max over sampled velocity fields of
      ``|tau : grad u - tau : D(u)|`` (must sit at machine level because the
      stress is symmetric);
    * coercivity: exact minimum of the strain form, must be positive;
    * invertibility: for constant-coefficient laws, every nonzero grid
      wavevector must have an invertible momentum symbol, and the sampled
      operator norm of ``Ainv grad div`` in the discrete L^{3/2} norm is
      reported (finite by construction when the symbols are invertible);
    * weak lower semicontinuity of the dissipation is implied by coercivity
      plus convexity of the quadratic form and is recorded, not tested.
    """
    rng = np.random.default_rng(seed)
    h1_max = 0.0
    work_scale = 1e-300
    for _ in range(_AUDIT_SAMPLES):
        work = viscous_work(tensor, _random_velocity(grid, rng))
        h1_max = max(h1_max, work.h1_residual)
        work_scale = max(work_scale, float(np.abs(work.pointwise.data).max()))
    h1_passed = h1_max <= _H1_RTOL * max(work_scale, 1.0)

    coer = coercivity_estimate(tensor)

    h4_invertible = None
    h4_norm = None
    if tensor.kind in ("diag", "constant"):
        try:
            op = StokesOperator._bind(tensor, grid)
            h4_invertible = True
        except SingularSymbol:
            h4_invertible = False
        if h4_invertible and coer.passed:
            worst = 0.0
            for _ in range(_AUDIT_SAMPLES):
                w = _random_velocity(grid, rng)
                qfield = div(w)
                v = solve(op, qfield)
                denom = vector_lp_norm(w, 1.5)
                worst = max(worst, vector_lp_norm(v, 1.5) / denom)
            h4_norm = worst

    passed = h1_passed and coer.passed and (h4_invertible is not False)
    return HypothesesReport(
        h1_max_residual=h1_max,
        h1_passed=h1_passed,
        coercivity=coer,
        h4_symbol_invertible=h4_invertible,
        h4_sample_norm=h4_norm,
        h2_note="implied by coercivity and convexity of the quadratic form",
        passed=passed,
    )
