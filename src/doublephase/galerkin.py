"""Spectral Galerkin semidiscretization and implicit time stepping.

The approximating solutions are sine series u(x,t) = sum_j c_j(t) phi_j(x)
over the Dirichlet-Laplacian eigenbasis of the unit box, with coefficients
solving the projected gradient-flow system

    c_j' = - int_Omega F_eps(z, grad u) grad u . grad phi_j dx
           + int_Omega f phi_j dx .

Each implicit Euler step is a convex proximal problem (the energy density is
convex in the gradient for eps > 0) solved by damped Newton with the exact
flux Jacobian; the per-step discrete energy inequality then holds up to the
Newton tolerance and is recorded per step.  Exponents and coefficients are
frozen at the step's end time inside the solve, keeping each step a single
convex minimization.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import flux
from .fields import ExponentData, Field, tensor_axis
from .spaces import QuadratureGrid, tensor_gauss_legendre

_CHUNK = 4096


class StepFailure(RuntimeError):
    """Newton failed to converge on one implicit step."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class SolverError(RuntimeError):
    """A solve aborted; carries the partial trajectory."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """Sine eigenbasis of the Dirichlet Laplacian on (0,1)^N.

    Modes are the full tensor set {1..m_per_dim}^N sorted by eigenvalue then
    lexicographic index; phi_k(x) = 2^(N/2) prod_i sin(k_i pi x_i) with
    eigenvalue pi^2 |k|^2.  L2-orthonormal, and (grad phi_i, grad phi_j)
    = lambda_i delta_ij.
    """

    dim: int
    m_per_dim: int
    modes: np.ndarray        # (m, N) int
    eigenvalues: np.ndarray  # (m,)

    @property
    def size(self) -> int:
        return self.modes.shape[0]

    def _trig(self, x):
        """sin and cos of pi * x_d * k_d at points x (M, N), each (M, m, N).

        One sin and one cos per (point, axis, distinct mode index on that
        axis), gathered to the modes.  The angle is formed as in the direct
        pi * x[:, None, :] * modes, so the tables equal it bit for bit.
        """
        # one block for both tables: two separate blocks left the allocator
        # holding more heap, about 5 % more peak RSS on a whole run
        s, c = np.empty((2, self.dim, x.shape[0], self.size))
        for d, (k, inv) in enumerate(self._axis_modes):
            angles = (np.pi * x[:, d])[:, None] * k
            # inv is in range; mode="raise" would buffer the out= copy
            np.take(np.sin(angles), inv, axis=1, out=s[d], mode="clip")
            np.take(np.cos(angles), inv, axis=1, out=c[d], mode="clip")
        return np.moveaxis(s, 0, -1), np.moveaxis(c, 0, -1)

    @cached_property
    def _axis_modes(self) -> list:
        """Per axis, the distinct mode indices and where each mode's index sits among them."""
        return [np.unique(self.modes[:, d], return_inverse=True) for d in range(self.dim)]

    @cached_property
    def tensor_index(self) -> np.ndarray:
        """Flat index of each mode in the lexicographic (m_per_dim,) * dim mode tensor."""
        return np.ravel_multi_index(tuple((self.modes - 1).T), (self.m_per_dim,) * self.dim)

    def line_tables(self, axis) -> np.ndarray:
        """sqrt(2) sin(k pi x) and its first two derivatives on 1D points, (3, n, m_per_dim).

        Built as a one-dimensional basis, so the factors are the basis' own.
        """
        line = build_basis(1, self.m_per_dim)
        x = np.asarray(axis, dtype=float)[:, None]
        return np.stack([line.values(x), line.gradients(x)[:, 0], line.hessians(x)[:, 0, 0]])

    def lattice(self, lines, coeffs, order: int = 0) -> np.ndarray:
        """Values (order 0), gradients (1) or Hessians (2) on a tensor lattice.

        lines = line_tables(axis); coeffs (..., m) -> (..., n^N) + (N,) * order on
        tensor_points(axis, dim).  Each component contracts the mode tensor one
        axis at a time, O(n * m_per_dim) tables instead of (n^N, m) ones.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        rows = coeffs.reshape(-1, self.size)
        full = np.zeros((rows.shape[0], self.m_per_dim ** self.dim))
        full[:, self.tensor_index] = rows
        comps = _components(self.dim, order)
        out = np.empty((rows.shape[0], lines.shape[1] ** self.dim, len(comps)))
        for c, d in enumerate(comps):
            first = comps.index(d)  # a mixed Hessian entry copies its transpose
            out[..., c] = out[..., first] if first < c else _axiswise(full, [lines[i] for i in d])
        return out.reshape(coeffs.shape[:-1] + out.shape[1:2] + (self.dim,) * order)

    def lattice_adjoint(self, lines, values, order: int = 0) -> np.ndarray:
        """Transpose of `lattice`: values (..., n^N) + (N,) * order -> (..., m).

        Entry j sums values times the order-th derivatives of phi_j over the
        lattice points and the derivative components.
        """
        values = np.asarray(values, dtype=float)
        lead = values.shape[:values.ndim - 1 - order]
        comps = _components(self.dim, order)
        flat = values.reshape(-1, lines.shape[1] ** self.dim, len(comps))
        full = sum(_axiswise(flat[..., c], [lines[i].T for i in d]) for c, d in enumerate(comps))
        return full[:, self.tensor_index].reshape(lead + (self.size,))

    def values(self, x) -> np.ndarray:
        """Basis values at points x (M, N) -> (M, m), chunked over points."""
        return self._chunked(x, self._values_chunk)

    def gradients(self, x) -> np.ndarray:
        """Basis gradients at points x -> (M, N, m)."""
        return self._chunked(x, self._gradients_chunk)

    def hessians(self, x) -> np.ndarray:
        """Basis second derivatives at points x -> (M, N, N, m)."""
        return self._chunked(x, self._hessians_chunk)

    def _chunked(self, x, fn):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        # zero points still make one (empty) chunk, so the tables keep their shape
        parts = [fn(*self._trig(x[i:i + _CHUNK]))
                 for i in range(0, max(x.shape[0], 1), _CHUNK)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)

    # The chunk kernels take the sin/cos tables of _trig for a block of points
    # and multiply in place into their output, in the order of the formula.
    def _values_chunk(self, s, c):
        return 2.0 ** (self.dim / 2.0) * np.prod(s, axis=-1)

    def _gradients_chunk(self, s, c):
        norm = 2.0 ** (self.dim / 2.0)
        kpi = np.pi * self.modes.T  # (N, m)
        out = np.empty((s.shape[0], self.dim, self.size))
        for d in range(self.dim):
            prod = np.multiply(norm * kpi[d], c[:, :, d], out=out[:, d, :])
            for l in range(self.dim):
                if l != d:
                    prod *= s[:, :, l]
        return out

    def _hessians_chunk(self, s, c):
        norm = 2.0 ** (self.dim / 2.0)
        kpi = np.pi * self.modes.T
        vals = norm * np.prod(s, axis=-1)
        out = np.empty((s.shape[0], self.dim, self.dim, self.size))
        for d in range(self.dim):
            np.multiply(-(kpi[d] ** 2), vals, out=out[:, d, d, :])
            for e in range(d + 1, self.dim):
                prod = np.multiply(norm * kpi[d] * kpi[e], c[:, :, d], out=out[:, d, e, :])
                prod *= c[:, :, e]
                for l in range(self.dim):
                    if l != d and l != e:
                        prod *= s[:, :, l]
                out[:, e, d, :] = prod
        return out


@cache
def _components(dim: int, order: int) -> tuple:
    """Derivative degree on each axis, per component of the order-th derivative tensor."""
    return tuple(tuple(c.count(i) for i in range(dim)) for c in product(range(dim), repeat=order))


def _axiswise(arr, mats) -> np.ndarray:
    """Contract tensor axis i of arr (K, a^N) with mats[i] (b, a), one at a time -> (K, b^N)."""
    k = arr.shape[0]
    c = arr.T
    for mat in mats:  # the contracted axis moves to the end
        c = c.reshape(mat.shape[1], -1).T @ mat.T
    return c.reshape(k, -1)


def mode_basis(modes, dim: int) -> EigenBasis:
    """Sine basis over the given mode rows (m, N), in that order."""
    modes = np.asarray(modes, dtype=int).reshape(-1, dim)
    return EigenBasis(dim=dim, m_per_dim=int(modes.max(initial=1)), modes=modes,
                      eigenvalues=np.pi ** 2 * np.sum(modes.astype(float) ** 2, axis=-1))


def build_basis(dim: int, m_per_dim: int) -> EigenBasis:
    """Assemble the sorted tensor sine basis with m_per_dim modes per axis."""
    if m_per_dim < 1:
        raise ValueError("m_per_dim must be at least 1")
    grids = np.meshgrid(*([np.arange(1, m_per_dim + 1)] * dim), indexing="ij")
    modes = np.stack([g.ravel() for g in grids], axis=-1)
    lam = np.pi ** 2 * np.sum(modes.astype(float) ** 2, axis=-1)
    order = np.lexsort(tuple(modes[:, d] for d in reversed(range(dim))) + (lam,))
    return mode_basis(modes[order], dim)


@dataclass(frozen=True, eq=False)
class SpectralState:
    """Galerkin coefficient vector at one instant."""

    t: float
    coeffs: np.ndarray
    basis: EigenBasis

    def __post_init__(self):
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("spectral coefficients must be finite")

    def l2_norm_sq(self) -> float:
        return float(self.coeffs @ self.coeffs)


def evaluate(state: SpectralState, points) -> tuple[np.ndarray, np.ndarray]:
    """Exact evaluation of the sine series and its gradient at points.

    Points must lie in the closed unit box.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if np.any(x < -1e-12) or np.any(x > 1.0 + 1e-12):
        raise ValueError("evaluation points must lie in the closed unit box")
    u = state.basis.values(x) @ state.coeffs
    grad = np.tensordot(state.basis.gradients(x), state.coeffs, axes=([2], [0]))
    return u, grad


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and Newton parameters for one solve."""

    m_per_dim: int
    eps: float
    tau: float
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    max_damping_halvings: int = 20
    tau_retry_cap: int = 4
    quad_order: Optional[int] = None
    output_cadence: int = 1

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("time step must be positive")
        if self.eps <= 0:
            raise ValueError("the implicit solver needs eps > 0; the degenerate "
                             "limit is reached by continuation only")

    @property
    def resolved_quad_order(self) -> int:
        # Oversampled: integrands are non-polynomial powers of spectral
        # fields; +10 is the empirical margin that keeps the basis Gram
        # matrix at identity to 1e-10 under this rule.
        return self.quad_order or (2 * self.m_per_dim + 10)


class Workspace:
    """Basis tables on the solver quadrature grid.

    The grid must be a tensor lattice in `tensor_points` order (as from
    `tensor_gauss_legendre`): every table is one-dimensional, and fields and
    the Newton matrix are contracted one axis at a time.
    """

    def __init__(self, basis: EigenBasis, grid: QuadratureGrid):
        self.basis = basis
        self.grid = grid
        self.x = grid.space_nodes
        self.w = grid.space_weights
        self._lines = basis.line_tables(tensor_axis(self.x, basis.dim))
        # pairs[dp, dq][x, (k, l)] is the product of 1D factor k (derivative
        # if dp) and factor l (derivative if dq)
        f = self._lines[:2]
        n, m1 = f.shape[1:]
        self._pairs = (f[:, None, :, :, None] * f[None, :, :, None, :]).reshape(2, 2, n, m1 * m1)

    def gradient_of(self, coeffs) -> np.ndarray:
        return self.basis.lattice(self._lines, coeffs, 1)

    def stiffness(self, fvec) -> np.ndarray:
        """Projection int F . grad phi_j dx of a flux field fvec (M, N) onto the basis."""
        return self.basis.lattice_adjoint(self._lines, self.w[:, None] * fvec, 1)

    def source_vector(self, f_field: Field, t: float) -> np.ndarray:
        return self.basis.lattice_adjoint(self._lines, self.w * f_field(self.x, t))

    def project(self, u0: Field) -> SpectralState:
        """L2 projection of the initial datum onto the basis (`project_initial`)."""
        vals = u0(self.x, 0.0)
        if not np.all(np.isfinite(vals)):
            raise ValueError("initial datum is not finite on the quadrature nodes")
        coeffs = self.basis.lattice_adjoint(self._lines, self.w * vals)
        return SpectralState(t=0.0, coeffs=coeffs, basis=self.basis)

    def step_matrix(self, jac_flux, tau: float) -> np.ndarray:
        """Newton matrix I + tau * int grad phi_p . J grad phi_q dx for J (M, N, N).

        Sum-factorized: each (a, b) term contracts the tensor axes one at a
        time against the 1D pair tables, derivative factors on axes a and b.
        """
        dim, m1 = self.basis.dim, self.basis.m_per_dim
        wj = self.w[:, None, None] * jac_flux
        # each contracted axis becomes the pair (p_i, q_i)
        acc = sum(_axiswise(wj[None, :, a, b], [self._pairs[int(i == a), int(i == b)].T
                                                for i in range(dim)])
                  for a in range(dim) for b in range(dim))
        order = list(range(0, 2 * dim, 2)) + list(range(1, 2 * dim, 2))
        full = np.reshape(acc, (m1,) * (2 * dim)).transpose(order).reshape(m1 ** dim, -1)
        pos = self.basis.tensor_index
        mat = tau * full[np.ix_(pos, pos)]
        mat.flat[::mat.shape[0] + 1] += 1.0
        return mat

    def rhs(self, coeffs, fields, eps: float, f_vec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Galerkin right-hand side -int F_eps(z, grad u) grad u . grad phi_j dx + f_vec.

        fields are (a, b, p, q) on the nodes and f_vec the projected source,
        both frozen at one time; returns (rhs, grad u, flux vector field).
        """
        grad = self.gradient_of(coeffs)
        fvec = flux.vector_kernel(*fields, grad, eps)
        return -self.stiffness(fvec) + f_vec, grad, fvec


def project_initial(u0: Field, basis: EigenBasis, grid: QuadratureGrid) -> SpectralState:
    """L2 projection of the initial datum onto the first m eigenfunctions."""
    return Workspace(basis, grid).project(u0)


def ode_rhs(state: SpectralState, t: float, eps: float, data: ExponentData,
            f_field: Field, ws: Workspace) -> np.ndarray:
    """Right-hand side of the coefficient ODE system at time t."""
    return ws.rhs(state.coeffs, data.sample(ws.x, t), eps, ws.source_vector(f_field, t))[0]


@dataclass
class StepStats:
    newton_iters: int
    residual_norm: float
    energy_slack: float
    ut_sq_increment: float  # tau * ||(U' - U)/tau||^2


def step_implicit(state: SpectralState, tau: float, eps: float, data: ExponentData,
                  f_field: Field, cfg: SolverConfig, ws: Workspace) -> tuple[SpectralState, StepStats]:
    """One damped-Newton implicit Euler step from state.t to state.t + tau.

    Solves V = U + tau*rhs(V, t+tau), which minimizes the convex per-step
    functional  ||V-U||^2/2 + tau*(int energy_density(grad v) - int f v).
    Damping halves the Newton step until the residual decreases.
    """
    t1 = state.t + tau
    u = state.coeffs
    fields = data.sample(ws.x, t1)
    f_vec = ws.source_vector(f_field, t1)

    def residual(v):
        rhs, grad_v, fvec = ws.rhs(v, fields, eps, f_vec)
        return v - u - tau * rhs, grad_v, fvec

    tol = cfg.newton_tol * (1.0 + np.linalg.norm(u))
    v = u.copy()
    res, grad_v, fvec = residual(v)
    norm_res = np.linalg.norm(res)
    trace = [norm_res]
    for it in range(cfg.newton_max_iter):
        if norm_res <= tol:
            break
        jac_flux = flux.jacobian_kernel(*fields, grad_v, eps)
        # I plus a weighted Gram form of the PSD flux Jacobian: positive definite
        chol = cho_factor(ws.step_matrix(jac_flux, tau), check_finite=False)
        delta = cho_solve(chol, -res, check_finite=False)
        alpha = 1.0
        for _ in range(cfg.max_damping_halvings):
            cand = v + alpha * delta
            res_c, grad_c, fvec_c = residual(cand)
            norm_c = np.linalg.norm(res_c)
            if norm_c < norm_res:
                break
            alpha *= 0.5
        else:
            raise StepFailure(f"damping exhausted at t={t1:.6g}", trace)
        v, res, grad_v, fvec, norm_res = cand, res_c, grad_c, fvec_c, norm_c
        trace.append(norm_res)
    else:
        raise StepFailure(f"newton did not converge at t={t1:.6g}", trace)

    flux_energy = float(ws.w @ np.sum(fvec * grad_v, axis=-1))
    source_work = float(f_vec @ v)
    slack = (v @ v - u @ u) / (2.0 * tau) + flux_energy - source_work
    stats = StepStats(newton_iters=len(trace) - 1, residual_norm=norm_res,
                      energy_slack=slack, ut_sq_increment=float((v - u) @ (v - u)) / tau)
    return SpectralState(t=t1, coeffs=v, basis=state.basis), stats


@dataclass(eq=False)
class Trajectory:
    """A computed trajectory plus the per-step bookkeeping diagnostics need."""

    data: ExponentData
    cfg: SolverConfig
    eps: float
    basis: EigenBasis
    grid: QuadratureGrid          # spatial solver quadrature
    times: np.ndarray             # (K+1,)
    coeffs: np.ndarray            # (K+1, m)
    ut_sq_accum: np.ndarray       # (K+1,) running sum of tau*||u_t||^2
    newton_iters: np.ndarray
    newton_residual: np.ndarray
    energy_slack: np.ndarray      # per-checkpoint proximal inequality slack

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    # Per-checkpoint arrays on the solver grid, computed once and shared by
    # every monitor that reads the trajectory.
    @cached_property
    def fields(self) -> tuple:
        """(a, b, p, q) at every checkpoint, each (K+1, M)."""
        return self.data.sample(self.grid.space_nodes, self.times)

    @cached_property
    def lines(self) -> np.ndarray:
        """The basis' 1D tables on the solver grid's axis (`EigenBasis.line_tables`)."""
        return self.basis.line_tables(tensor_axis(self.grid.space_nodes, self.basis.dim))

    @cached_property
    def grads(self) -> np.ndarray:
        """Gradients at every checkpoint, (K+1, M, N)."""
        return self.basis.lattice(self.lines, self.coeffs, 1)

    @cached_property
    def values(self) -> np.ndarray:
        """Values at every checkpoint, (K+1, M)."""
        return self.basis.lattice(self.lines, self.coeffs)

    def spacetime_grid(self) -> QuadratureGrid:
        return self.grid.with_time(self.times)


def _advance(s, dt, depth, data, f_field, cfg, ws):
    """One implicit step of dt, retried on two halved substeps on failure.

    A module function, not a closure in `solve`: a self-referencing closure
    is a reference cycle that keeps the Workspace alive until the cyclic
    garbage collector runs.
    """
    try:
        new, st = step_implicit(s, dt, cfg.eps, data, f_field, cfg, ws)
    except StepFailure:
        if depth >= cfg.tau_retry_cap:
            raise
        half, st1 = _advance(s, dt / 2.0, depth + 1, data, f_field, cfg, ws)
        full, st2 = _advance(half, dt / 2.0, depth + 1, data, f_field, cfg, ws)
        merged = StepStats(
            newton_iters=st1.newton_iters + st2.newton_iters,
            residual_norm=max(st1.residual_norm, st2.residual_norm),
            energy_slack=st1.energy_slack + st2.energy_slack,
            ut_sq_increment=st1.ut_sq_increment + st2.ut_sq_increment)
        return full, merged
    return new, st


def solve(cfg: SolverConfig, data: ExponentData, u0: Field, f_field: Field,
          validate: bool = True) -> Trajectory:
    """March the implicit scheme over [0, T] and record the trajectory.

    Deterministic for a fixed configuration.  A failed step is retried on
    halved substeps up to cfg.tau_retry_cap splittings; a step that still
    fails aborts the solve with the partial trajectory attached.
    """
    if validate:
        data.validate().raise_if_failed()
    basis = build_basis(data.dim, cfg.m_per_dim)
    grid = tensor_gauss_legendre(data.dim, cfg.resolved_quad_order)
    ws = Workspace(basis, grid)

    n_steps = max(1, int(round(data.horizon / cfg.tau)))
    tau = data.horizon / n_steps
    state = ws.project(u0)

    times = [0.0]
    coeffs = [state.coeffs.copy()]
    ut_accum = [0.0]
    iters = [0]
    residuals = [0.0]
    slacks = [0.0]
    running_ut = 0.0

    for k in range(n_steps):
        try:
            state, st = _advance(state, tau, 0, data, f_field, cfg, ws)
        except StepFailure as exc:
            partial = Trajectory(
                data=data, cfg=cfg, eps=cfg.eps, basis=basis, grid=grid,
                times=np.asarray(times), coeffs=np.asarray(coeffs),
                ut_sq_accum=np.asarray(ut_accum), newton_iters=np.asarray(iters),
                newton_residual=np.asarray(residuals), energy_slack=np.asarray(slacks))
            raise SolverError(f"step {k + 1}/{n_steps} failed: {exc}", partial) from exc
        running_ut += st.ut_sq_increment
        if (k + 1) % cfg.output_cadence == 0 or (k + 1) == n_steps:
            times.append(state.t)
            coeffs.append(state.coeffs.copy())
            ut_accum.append(running_ut)
            iters.append(st.newton_iters)
            residuals.append(st.residual_norm)
            slacks.append(st.energy_slack)

    return Trajectory(
        data=data, cfg=cfg, eps=cfg.eps, basis=basis, grid=grid,
        times=np.asarray(times), coeffs=np.asarray(coeffs),
        ut_sq_accum=np.asarray(ut_accum), newton_iters=np.asarray(iters),
        newton_residual=np.asarray(residuals), energy_slack=np.asarray(slacks))


def _field_spatial_gradient(fld: Field, x, t, h: float = 1e-6) -> np.ndarray:
    """Central-difference spatial gradient of a field; families are entire
    expressions, so probing slightly outside the box is safe."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for d in range(x.shape[1]):
        xp = x.copy(); xp[:, d] += h
        xm = x.copy(); xm[:, d] -= h
        out[:, d] = (fld(xp, t) - fld(xm, t)) / (2.0 * h)
    return out


def manufactured_source(data: ExponentData, eps: float, mode=(1, 1),
                        amplitude: float = 1.0, rate: float = 1.0) -> Field:
    """Forcing that makes u = amplitude * e^(-rate*t) * phi_mode exact.

    Computes f = u_t - div(F_eps(z, grad u) grad u) pointwise from the flux
    kernels and the analytic derivatives of the single-mode solution.  Since
    the exact solution stays inside the Galerkin span, the semidiscrete
    system reproduces it up to time-discretization error only.
    """
    if eps <= 0:
        raise ValueError("manufactured source needs eps > 0")
    mode = tuple(int(m) for m in mode)
    single = mode_basis([mode], len(mode))

    def fn(x, t):
        decay = amplitude * np.exp(-rate * np.asarray(t, dtype=float))
        trig = single._trig(x)  # shared by the value, gradient and Hessian
        val, grad, hess = (part(*trig)[..., 0] for part in (
            single._values_chunk, single._gradients_chunk, single._hessians_chunk))
        u = decay * val
        gu = np.atleast_1d(decay)[..., None] * grad
        hu = np.atleast_1d(decay)[..., None, None] * hess

        a, b = data.a(x, t), data.b(x, t)
        p, q = data.p(x, t), data.q(x, t)
        beta = flux.beta_eps(gu, eps)
        dens = flux.density_kernel(a, b, p, q, gu, eps)
        lap = np.trace(hu, axis1=-2, axis2=-1)

        grad_a = _field_spatial_gradient(data.a, x, t)
        grad_b = _field_spatial_gradient(data.b, x, t)
        grad_p = _field_spatial_gradient(data.p, x, t)
        grad_q = _field_spatial_gradient(data.q, x, t)
        beta_x = 2.0 * np.einsum("...ij,...j->...i", hu, gu)
        log_beta = np.log(beta)

        ta = flux.powf(beta, (p - 2.0) / 2.0)
        tb = flux.powf(beta, (q - 2.0) / 2.0)
        grad_f = (grad_a * ta[..., None]
                  + (a * ta)[..., None] * (0.5 * grad_p * log_beta[..., None]
                                           + (0.5 * (p - 2.0) / beta)[..., None] * beta_x)
                  + grad_b * tb[..., None]
                  + (b * tb)[..., None] * (0.5 * grad_q * log_beta[..., None]
                                           + (0.5 * (q - 2.0) / beta)[..., None] * beta_x))
        div_flux = dens * lap + np.sum(grad_f * gu, axis=-1)
        return -rate * u - div_flux

    desc = {"family": "manufactured", "mode": list(mode),
            "amplitude": amplitude, "rate": rate, "eps": eps}
    return Field(dim=data.dim, descriptor=desc, _fn=fn)
