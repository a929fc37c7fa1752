"""Spectral Galerkin semidiscretization and implicit time stepping.

The approximating solutions are sine series u(x,t) = sum_j c_j(t) phi_j(x)
over the Dirichlet-Laplacian eigenbasis of the unit box, with coefficients
solving the projected gradient-flow system

    c_j' = - int_Omega F_eps(z, grad u) grad u . grad phi_j dx
           + int_Omega f phi_j dx .

Each implicit Euler step is a convex proximal problem (the energy density is
convex in the gradient for eps > 0) solved by a chord Newton method: an
iteration first tries the inverse of the last Newton matrix built for its
step size, and keeps that step only when it cuts the residual by CHORD_RHO;
otherwise it builds the Newton matrix from the exact flux Jacobian at the
current iterate and takes a damped Newton step, starting from a polynomial
extrapolation of the accepted checkpoints (`solve`).  Either way an iterate is
accepted only within the Newton tolerance, so the per-step discrete energy
inequality holds up to that tolerance and is recorded per step.  Exponents
and coefficients are frozen at the step's end time inside the solve,
keeping each step a single convex minimization.

Each Newton residual is one flux-kernel call between a gradient and a
stiffness contraction: one matmul each with a dense gradient table on a small
basis (DENSE_ENTRIES), sum-factorized one axis at a time on a large one.  A
discretization's basis, grid and tables are built once per process.

Solves that share the data, the configuration and the discretization can
march in lockstep (`solve_lockstep`; `solve` marches one member): each step
is one `step_implicit` call on all their coefficients, which evaluates each
round of their Newton residuals in one batched call while every member
keeps its own Newton iteration.  A batch's rows round differently from the
same rows alone, by about 1e-13 relative, so a member's bits depend on its group.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from typing import Optional

import numpy as np

from . import flux
from .fields import ExponentData, Field, point_memo, sample_field, tensor_axis
from .spaces import QuadratureGrid, tensor_gauss_legendre

_CHUNK = 4096
# A chord step with a cached Newton inverse is kept when it cuts the residual
# by at least this factor; otherwise the iteration builds a fresh Jacobian.
CHORD_RHO = 0.1
# The solver keeps the dense basis-gradient table of a discretization while it
# has at most this many entries (nodes x dim x modes): a residual's gradient
# and stiffness are then one matmul each.  Per gradient-plus-stiffness call,
# dense against sum-factorized (one BLAS thread, shared 2-core x86 box): 2D
# m_per_dim 8 (86,528 entries) 22 against 36 us, 2D 9 (127,008) 55 against
# 37 us, 2D 16 (903,168) 607 against 46 us, 3D 3 (331,776) 261 against 95 us.
DENSE_ENTRIES = 100_000


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

        Built on a one-dimensional basis' `_trig`, with the roundings of its
        scattered tables.
        """
        line = build_basis(1, self.m_per_dim)
        s, c = (t[..., 0] for t in line._trig(np.asarray(axis, dtype=float)[:, None]))
        kpi, norm = np.pi * line.modes[:, 0], 2.0 ** 0.5
        v = norm * s
        return np.stack([v, (norm * kpi) * c, -(kpi ** 2) * v])

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
        return self._chunked(x, 0)

    def gradients(self, x) -> np.ndarray:
        """Basis gradients at points x -> (M, N, m)."""
        return self._chunked(x, 1)

    def hessians(self, x) -> np.ndarray:
        """Basis second derivatives at points x -> (M, N, N, m)."""
        return self._chunked(x, 2)

    def _chunked(self, x, order: int) -> np.ndarray:
        """The order-th derivative tensor of every mode at points x, (M,) + (N,) * order + (m,).

        Per chunk of points, each component of `_components` multiplies one
        factor per axis in axis order (sin, k pi cos or -(k pi)^2 sin for
        derivative degree 0, 1 or 2), then 2^(N/2); a mixed Hessian entry and
        its transpose share their degrees, so they are equal bit for bit.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        comps = _components(self.dim, order)
        out = np.empty((x.shape[0], len(comps), self.size))
        kpi = np.pi * self.modes.T[:, None, :]  # (N, 1, m)
        for i in range(0, x.shape[0], _CHUNK):
            # axis first, so that each axis' factor is one contiguous block
            s, c = (np.moveaxis(t, -1, 0) for t in self._trig(x[i:i + _CHUNK]))
            factors = (s, kpi * c if order else None, -(kpi ** 2) * s if order > 1 else None)
            for j, degrees in enumerate(comps):
                prod = out[i:i + _CHUNK, j]
                prod[...] = factors[degrees[0]][0]
                for d in range(1, self.dim):
                    prod *= factors[degrees[d]][d]
                prod *= 2.0 ** (self.dim / 2.0)
        return out.reshape(out.shape[:1] + (self.dim,) * order + out.shape[2:])


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


@cache
def build_basis(dim: int, m_per_dim: int) -> EigenBasis:
    """The sorted tensor sine basis with m_per_dim modes per axis, read-only.

    Built once per process for each (dim, m_per_dim).
    """
    if m_per_dim < 1:
        raise ValueError("m_per_dim must be at least 1")
    grids = np.meshgrid(*([np.arange(1, m_per_dim + 1)] * dim), indexing="ij")
    modes = np.stack([g.ravel() for g in grids], axis=-1)
    lam = np.pi ** 2 * np.sum(modes.astype(float) ** 2, axis=-1)
    order = np.lexsort(tuple(modes[:, d] for d in reversed(range(dim))) + (lam,))
    basis = mode_basis(modes[order], dim)
    basis.modes.flags.writeable = basis.eigenvalues.flags.writeable = False
    return basis


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

    def __post_init__(self):
        if self.m_per_dim < 1:
            raise ValueError("m_per_dim must be at least 1")
        if not 0 < self.tau < np.inf:
            raise ValueError(f"time step {self.tau} must be positive and finite")
        if not self.eps < np.inf:
            raise ValueError(f"eps {self.eps} is not finite")
        if self.eps <= 0:
            raise ValueError("the implicit solver needs eps > 0; the degenerate limit is reached "
                             "by continuation, each member warm-started from its coarser neighbour")
        if self.quad_order is not None and self.quad_order < 1:
            raise ValueError(f"quad_order {self.quad_order} is below 1")
        if not 0 < self.newton_tol < np.inf:
            raise ValueError(f"newton_tol {self.newton_tol} must be positive and finite")
        for name, least in (("newton_max_iter", 1), ("max_damping_halvings", 1),
                            ("tau_retry_cap", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} {getattr(self, name)} is below {least}")

    def newton_tolerance(self, coeffs) -> np.ndarray:
        """newton_tol * (1 + ||v||) per row v: the bound Newton accepts an iterate v against."""
        # np.linalg.norm(coeffs, axis=-1) bit for bit, without its dispatch
        return self.newton_tol * (1.0 + np.sqrt(np.add.reduce(coeffs * coeffs, axis=-1)))

    @property
    def resolved_quad_order(self) -> int:
        # Oversampled: integrands are non-polynomial powers of spectral
        # fields; +10 is the empirical margin that keeps the basis Gram
        # matrix at identity to 1e-10 under this rule.
        return self.quad_order or (2 * self.m_per_dim + 10)


@cache
def _discretization_tables(basis: EigenBasis, grid: QuadratureGrid) -> tuple:
    """The line, pair and dense gradient tables of a basis on a tensor grid, read-only.

    Built once per process for each (basis, grid); `build_basis` and
    `tensor_gauss_legendre` return one object per discretization.  pairs[dp,
    dq][x, (k, l)] is the product of 1D factor k (derivative if dp) and factor
    l (derivative if dq).  The dense table is the basis gradients (M * N, m),
    kept only up to DENSE_ENTRIES entries, else None.
    """
    lines = basis.line_tables(tensor_axis(grid.space_nodes, basis.dim))
    f = lines[:2]
    n, m1 = f.shape[1:]
    pairs = (f[:, None, :, :, None] * f[None, :, :, None, :]).reshape(2, 2, n, m1 * m1)
    dense = None
    if grid.space_nodes.size * basis.size <= DENSE_ENTRIES:
        dense = basis.gradients(grid.space_nodes).reshape(-1, basis.size)
    for table in (lines, pairs, dense):
        if table is not None:
            table.flags.writeable = False
    return lines, pairs, dense


def discretization(dim: int, cfg: SolverConfig) -> tuple:
    """The basis and quadrature grid of a solve on cfg, their tables built.

    Each is built once per process and shared by every solve on cfg's basis
    and grid.
    """
    basis = build_basis(dim, cfg.m_per_dim)
    grid = tensor_gauss_legendre(dim, cfg.resolved_quad_order)
    _discretization_tables(basis, grid)
    return basis, grid


def _steady_samples(fields, sample) -> tuple:
    """sample(field), read-only, for each steady field, once per distinct one; None for the others."""
    out = []
    for i, fld in enumerate(fields):
        vals = next((out[j] for j in range(i) if fields[j] is fld), None)
        if vals is None and fld.steady:
            vals = sample(fld)
            vals.flags.writeable = False
        out.append(vals)
    return tuple(out)


class Workspace:
    """Basis tables on the solver quadrature grid, and the data, sources and caches of one march.

    The grid must be a tensor lattice in `tensor_points` order (as from
    `tensor_gauss_legendre`).  The tables, shared by every Workspace of the
    same basis and grid, come from `_discretization_tables`: a residual's
    gradient and stiffness use the dense gradient table when there is one,
    and are otherwise contracted one axis at a time, like the Newton matrix.
    Each steady one of the data's (a, b, p, q) and of the members' sources
    is sampled (a source also projected) here, once and read-only; with all
    four data steady, so are the residual's flux exponents.
    `newton_inverses[i]` maps a step size to member i's last Newton inverse.
    """

    def __init__(self, basis: EigenBasis, grid: QuadratureGrid, data=None, sources=()):
        self.basis = basis
        self.x, self.w = grid.space_nodes, grid.space_weights
        self.lines, self._pairs, self.dense = _discretization_tables(basis, grid)
        self.sources = list(sources)
        self.newton_inverses = [{} for _ in self.sources]
        self._data = () if data is None else (data.a, data.b, data.p, data.q)
        self._fields = _steady_samples(self._data, lambda fld: fld(self.x, 0.0))
        self._steady = all(vals is not None for vals in self._fields)
        self._exponents = tuple((r - 2.0) / 2.0 for r in self._fields[2:]) if self._steady else None
        self._source_vecs = _steady_samples(
            self.sources, lambda f: self.basis.lattice_adjoint(self.lines, self.w * f(self.x, 0.0)))

    def gradient_of(self, coeffs) -> np.ndarray:
        """Gradient of the coefficients (..., m) on the nodes, (..., M, N).

        A stack of B rows is one contraction; its rows can round differently
        from the same rows contracted alone.
        """
        if self.dense is None:
            return self.basis.lattice(self.lines, coeffs, 1)
        return (coeffs @ self.dense.T).reshape(coeffs.shape[:-1] + self.x.shape)

    def stiffness(self, fvec) -> np.ndarray:
        """Projection int F . grad phi_j dx of flux fields fvec (..., M, N) onto the basis."""
        wf = self.w[:, None] * fvec
        if self.dense is None:
            return self.basis.lattice_adjoint(self.lines, wf, 1)
        return wf.reshape(fvec.shape[:-2] + (-1,)) @ self.dense

    def source_vectors(self, members, t: float) -> list:
        """The projected sources of members at t, one (m,) row each: a steady one's made
        once, and the time-dependent ones in one contraction, in member order."""
        steady = [self._source_vecs[i] for i in members]
        moving = [self.sources[i](self.x, t) for i, vec in zip(members, steady) if vec is None]
        projected = iter(self.basis.lattice_adjoint(self.lines, self.w * np.stack(moving))
                         if moving else ())
        return [next(projected) if vec is None else vec for vec in steady]

    def fields_at(self, t: float) -> tuple:
        """(a, b, p, q) on the nodes at time t; with all four steady, one tuple made once."""
        if self._steady:
            return self._fields
        return tuple(fld(self.x, t) if vals is None else vals
                     for fld, vals in zip(self._data, self._fields))

    def project(self, u0: Field) -> np.ndarray:
        """L2 projection of the initial datum onto the basis: its coefficients, checked finite."""
        vals = u0(self.x, 0.0)
        coeffs = self.basis.lattice_adjoint(self.lines, self.w * vals)
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(coeffs))):
            raise ValueError("initial datum is not finite on the nodes or in its coefficients")
        return coeffs

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
        The steady fields of `fields_at` come with their exponents bound.
        """
        grad = self.gradient_of(coeffs)
        exponents = self._exponents if fields is self._fields else None
        fvec = flux.vector_kernel(*fields, grad, eps, exponents)
        return -self.stiffness(fvec) + f_vec, grad, fvec


@dataclass
class StepStats:
    newton_iters: int
    jacobians: int  # Newton matrices built from a fresh flux Jacobian
    residual_norm: float
    residual_bound: float  # the Newton tolerance the residual was accepted against
    energy_slack: float
    ut_sq_increment: float  # tau * ||(U' - U)/tau||^2


def step_implicit(us, t: float, tau: float, cfg: SolverConfig, ws: Workspace, members,
                  starts) -> tuple[list, list]:
    """One chord-Newton implicit Euler step of each member's coefficients from t to t + tau.

    members are the indices in ws of the members to step; ws holds the
    data, their sources and their Newton inverses.  us and starts are their
    coefficient rows and Newton starts (None: the row itself).  Each solves
    V = U + tau*rhs(V, t+tau), which minimizes the convex per-step
    functional  ||V-U||^2/2 + tau*(int energy_kernel(grad v) - int f v),
    and accepts the first iterate v within `cfg.newton_tolerance(v)`.  An
    iteration first tries the chord step with the member's
    `ws.newton_inverses[i][tau]`, kept when it cuts the residual by CHORD_RHO;
    otherwise it builds and caches the Newton matrix's inverse at v and
    takes a damped Newton step, halving it until the residual decreases.  A
    member builds at most `cfg.newton_max_iter` Newton matrices per step;
    chord steps come on top, and end on their own since each one kept cuts
    the residual tenfold.

    Each round of residuals of the members still iterating is one call on
    the tables and sampled data of ws, batched for several members and
    unstacked for one, and so is each round's flux Jacobians of the members
    that build a Newton matrix.  Returns per member its new row (a failed
    member's last iterate) and its StepStats or the StepFailure that ended
    it; raises the first member's StepFailure when every member failed.
    """
    t1 = t + tau
    f_vecs = ws.source_vectors(members, t1)
    fields = ws.fields_at(t1)

    def residual(idx, cands):
        """Residuals, gradients, fluxes and residual norms of members idx at cands, in one call."""
        if len(idx) == 1:  # unstacked: the kernels broadcast a lone member's arrays faster
            cand, f_vec, u_i = cands[0], f_vecs[idx[0]], us[idx[0]]
        else:
            cand, f_vec, u_i = (np.stack(rows) for rows in
                                (cands, [f_vecs[i] for i in idx], [us[i] for i in idx]))
        rhs, grad_c, fvec_c = ws.rhs(cand, fields, cfg.eps, f_vec)
        res_c = cand - u_i - tau * rhs
        if len(idx) == 1:
            return [res_c], [grad_c], [fvec_c], [np.sqrt(res_c @ res_c)]
        return list(res_c), list(grad_c), list(fvec_c), [np.sqrt(r @ r) for r in res_c]

    def attempt(idx, cands, keeps):
        """Move each member of idx to its candidate where keeps(new norm, old norm); the others."""
        refused = []
        for i, cand, res_i, grad_i, fvec_i, norm_i in zip(idx, cands, *residual(idx, cands)):
            if keeps(norm_i, norm[i]):
                v[i], res[i], grad_v[i], fvec[i], norm[i] = cand, res_i, grad_i, fvec_i, norm_i
                traces[i].append(norm_i)
            else:
                refused.append(i)
        return refused

    def jacobians_at(idx):
        """Flux Jacobians of members idx at their iterates, in one call."""
        if not idx:
            return []
        if len(idx) == 1:  # unstacked, as in `residual`
            return [flux.jacobian_kernel(*fields, grad_v[idx[0]], cfg.eps)]
        return flux.jacobian_kernel(*fields, np.stack([grad_v[i] for i in idx]), cfg.eps)

    def fail(i, message, cause=None):
        # the cause without its traceback, which refers to this frame
        failures[i] = (message, cause and cause.with_traceback(None))

    v = [np.array(u if start is None else start) for u, start in zip(us, starts)]
    batch = range(len(us))
    res, grad_v, fvec, norm = residual(batch, v)
    traces = [[n] for n in norm]
    jacobians, failures = [0] * len(us), [None] * len(us)
    active = batch
    while active := [i for i in active if failures[i] is None
                     and not norm[i] <= cfg.newton_tolerance(v[i])]:
        chord, cands, fresh = [], [], []
        for i in active:
            inv = ws.newton_inverses[members[i]].get(tau)
            if inv is None:
                fresh.append(i)
            else:
                chord.append(i)
                cands.append(v[i] - inv @ res[i])
        if chord:
            fresh += attempt(chord, cands, lambda new, old: new <= CHORD_RHO * old)
        for i in fresh:
            if jacobians[i] == cfg.newton_max_iter:
                fail(i, f"newton did not converge at t={t1:.6g}")
        fresh = [i for i in fresh if failures[i] is None]
        deltas = {}
        for i, jac_flux in zip(fresh, jacobians_at(fresh)):
            jacobians[i] += 1
            # I plus a weighted Gram form of the PSD flux Jacobian: positive
            # definite and well conditioned, so pivoted LU is stable here
            mat = ws.step_matrix(jac_flux, tau)
            try:
                inv = np.linalg.solve(mat, np.eye(len(mat)))
            except np.linalg.LinAlgError as exc:
                fail(i, f"newton solve failed at t={t1:.6g}: {exc}", exc)
                continue
            ws.newton_inverses[members[i]][tau] = inv
            deltas[i] = -(inv @ res[i])
        damped, alpha = list(deltas), 1.0
        for _ in range(cfg.max_damping_halvings):
            if not damped:
                break
            damped = attempt(damped, [v[i] + alpha * deltas[i] for i in damped], operator.lt)
            alpha *= 0.5
        for i in damped:
            fail(i, f"damping exhausted at t={t1:.6g}")

    if None not in failures:
        raise StepFailure(failures[0][0], traces[0]) from failures[0][1]
    stats = []
    for i in batch:
        if failures[i] is not None:
            stats.append(StepFailure(failures[i][0], traces[i]))
            stats[-1].__cause__ = failures[i][1]
            continue
        flux_energy = float(ws.w @ flux._dot_last(fvec[i], grad_v[i]))
        source_work = float(f_vecs[i] @ v[i])
        slack = (v[i] @ v[i] - us[i] @ us[i]) / (2.0 * tau) + flux_energy - source_work
        stats.append(StepStats(newton_iters=len(traces[i]) - 1, jacobians=jacobians[i],
                               residual_norm=norm[i], residual_bound=cfg.newton_tolerance(v[i]),
                               energy_slack=slack,
                               ut_sq_increment=float((v[i] - us[i]) @ (v[i] - us[i])) / tau))
    return v, stats


@dataclass(eq=False)
class Trajectory:
    """A computed trajectory, the data it was solved from, and per-step bookkeeping."""

    data: ExponentData
    initial: Field                # the initial datum u(., 0) given to `solve`
    source: Field                 # the source f given to `solve`
    cfg: SolverConfig
    basis: EigenBasis
    grid: QuadratureGrid          # spatial solver quadrature
    lines: np.ndarray             # the basis' 1D tables on the grid's axis (`EigenBasis.line_tables`)
    times: np.ndarray             # (K+1,)
    coeffs: np.ndarray            # (K+1, m)
    ut_sq_accum: np.ndarray       # (K+1,) running sum of tau*||u_t||^2
    newton_iters: np.ndarray
    jacobians: np.ndarray         # fresh Newton matrices per step (`StepStats.jacobians`)
    newton_residual: np.ndarray
    newton_bound: np.ndarray      # the tolerance each newton_residual was accepted against
    energy_slack: np.ndarray      # per-checkpoint proximal inequality slack

    @property
    def eps(self) -> float:
        return self.cfg.eps

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
    def source_values(self) -> np.ndarray:
        """The source f at every checkpoint, (K+1, M)."""
        return sample_field(self.source, self.grid.space_nodes, self.times)

    @cached_property
    def grads(self) -> np.ndarray:
        """Gradients at every checkpoint, (K+1, M, N)."""
        return self.basis.lattice(self.lines, self.coeffs, 1)

    @cached_property
    def density(self) -> np.ndarray:
        """The flux density a beta^((p-2)/2) + b beta^((q-2)/2) at eps, (K+1, M)."""
        return flux.density_kernel(*self.fields, self.grads, self.eps)

    @cached_property
    def values(self) -> np.ndarray:
        """Values at every checkpoint, (K+1, M)."""
        return self.basis.lattice(self.lines, self.coeffs)

    def spacetime_grid(self) -> QuadratureGrid:
        return self.grid.with_time(self.times)


def _advance(u, t, dt, depth, cfg, ws, i, failure):
    """Redo member i's step of dt from (t, u), which failed with `failure`, on two substeps of dt/2.

    A substep starts Newton from its initial state and, if it fails, is
    redone the same way one level deeper; at depth cfg.tau_retry_cap the
    failure is raised instead.  Returns the coefficients and merged StepStats.

    A module function, not a closure in `_march`: a self-referencing closure
    is a reference cycle that keeps the Workspace alive until the cyclic
    garbage collector runs.
    """
    if depth >= cfg.tau_retry_cap:
        raise failure
    subs = []
    for t_sub in (t, t + dt / 2.0):
        try:
            (u,), (st,) = step_implicit([u], t_sub, dt / 2.0, cfg, ws, [i], [None])
        except StepFailure as exc:
            u, st = _advance(u, t_sub, dt / 2.0, depth + 1, cfg, ws, i, exc)
        subs.append(st)
    st1, st2 = subs
    # the larger substep residual, with the bound of the substep state it was accepted at
    worse = max(st1, st2, key=lambda st: st.residual_norm)
    return u, StepStats(
        newton_iters=st1.newton_iters + st2.newton_iters,
        jacobians=st1.jacobians + st2.jacobians,
        residual_norm=worse.residual_norm,
        residual_bound=worse.residual_bound,
        energy_slack=st1.energy_slack + st2.energy_slack,
        ut_sq_increment=st1.ut_sq_increment + st2.ut_sq_increment)


def solve(cfg: SolverConfig, data: ExponentData, u0: Field, f_field: Field, guess=None) -> Trajectory:
    """March the implicit scheme over [0, T] and record the trajectory.

    Raises ValidationError when the data fail their (cached) validation.
    Deterministic for a fixed configuration.  A failed step is redone on
    halved substeps up to cfg.tau_retry_cap splittings; a step that still
    fails aborts the solve with the partial trajectory attached.  The
    checkpoints are uniform in t, retried steps included.

    Step k's Newton starts from a predictor.  Without a guess it extrapolates
    the accepted checkpoints: u_0 at k = 0, 2 u_1 - u_0 at k = 1, and the
    quadratic 3 (u_k - u_{k-1}) + u_{k-2} after that.  `guess`, the (K+1, m)
    coefficients of a neighbour on the same basis and time grid, replaces it
    with guess[k+1] + (u_k - guess[k]).  The halved substeps of a retried step
    start from their own initial state.
    """
    return _march(cfg, data, [u0], [f_field], guess)[0]


def solve_lockstep(cfg: SolverConfig, data: ExponentData, initials, sources) -> list[Trajectory]:
    """`solve` of each pair of initials and sources, marched in lockstep.

    The members share cfg, the data and the discretization.  Each step is
    one `step_implicit` call on all of them, so each round of their Newton
    residuals is one batched call.  A member whose step fails redoes it alone
    on halved substeps and rejoins the group at the next step; past the
    retry cap it aborts the group with the SolverError its `solve` gives.
    A member's coefficients depend on its group: they are bit for bit those
    of the same group solved again, and within rounding (about 1e-13
    relative) of its own `solve`.
    """
    return _march(cfg, data, list(initials), list(sources))


def _march(cfg: SolverConfig, data: ExponentData, initials: list, sources: list,
           guess=None) -> list[Trajectory]:
    """March the members over [0, T] together, one `step_implicit` call per step.

    Every member keeps one clock, t_{k+1} = t_k + tau.  A member whose step
    fails redoes it through `_advance` and stays in the group; a step that
    fails even on the last halved substeps raises SolverError with that
    member's partial trajectory.
    """
    data.report.raise_if_failed()
    basis, grid = discretization(data.dim, cfg)
    n_steps = max(1, int(round(data.horizon / cfg.tau)))
    if guess is not None and np.shape(guess) != (n_steps + 1, basis.size):
        raise ValueError(f"guess shape {np.shape(guess)} is not {(n_steps + 1, basis.size)}")
    ws = Workspace(basis, grid, data, sources)
    tau = data.horizon / n_steps
    t = 0.0
    # per member the initial row, then one per step: the trailing Trajectory
    # fields, times to energy_slack
    rows = [[(t, ws.project(u0), 0.0, 0, 0, 0.0, 0.0, 0.0)] for u0 in initials]
    heads = [(data, u0, f_field, cfg, basis, grid, ws.lines)
             for u0, f_field in zip(initials, sources)]

    for k in range(n_steps):
        us = [r[-1][1] for r in rows]
        starts = [_predictor(k, r, guess) for r in rows]
        try:
            new, stats = step_implicit(us, t, tau, cfg, ws, range(len(us)), starts)
        except StepFailure as exc:
            # every member failed, and the first one's failure stands for all;
            # without its traceback, which refers to this frame
            new, stats = list(us), [exc.with_traceback(None)] * len(us)
        for i, st in enumerate(stats):
            if isinstance(st, StepFailure):
                try:
                    new[i], st = _advance(us[i], t, tau, 0, cfg, ws, i, st)
                except StepFailure as exc:
                    # without the traceback whose `_advance` frames refer to it
                    raise SolverError(f"step {k + 1}/{n_steps} failed: {exc}",
                                      _trajectory(heads[i], rows[i])) from exc.with_traceback(None)
            rows[i].append((t + tau, new[i], rows[i][-1][2] + st.ut_sq_increment, st.newton_iters,
                            st.jacobians, st.residual_norm, st.residual_bound, st.energy_slack))
        t += tau
    return [_trajectory(head, r) for head, r in zip(heads, rows)]


def _predictor(k: int, rows: list, guess=None):
    """Step k's Newton start from a member's checkpoint rows (`_march`), as in `solve`."""
    u = rows[-1][1]
    if guess is not None:
        return guess[k + 1] + (u - guess[k])
    if k == 0:
        return None
    if k == 1:
        return 2.0 * u - rows[-2][1]
    return 3.0 * (u - rows[-2][1]) + rows[-3][1]


def _trajectory(head, rows) -> Trajectory:
    """The Trajectory of a solve's leading fields and its checkpoint rows."""
    return Trajectory(*head, *(np.asarray(col) for col in zip(*rows)))


def _mode_factors(single: EigenBasis, x) -> tuple:
    """phi, grad phi, |grad phi|^2, lap phi and grad phi . (D^2 phi) grad phi at x (M, N)."""
    phi, grad = single.values(x)[:, 0], single.gradients(x)[..., 0]
    ghg = np.sum(grad[:, :, None] * single.hessians(x)[..., 0] * grad[:, None, :], axis=(1, 2))
    return phi, grad, flux.beta_eps(grad, 0.0), -single.eigenvalues[0] * phi, ghg


def _data_terms(data: ExponentData, gphi, x, t) -> tuple:
    """a, b, p and q at (x, t), then grad phi . grad of each, for grad phi (M, N)."""
    flds = (data.a, data.b, data.p, data.q)
    return data.sample(x, t) + tuple(sum(gphi[:, d] * g[:, d] for d in range(x.shape[1]))
                                     for g in (fld.grad(x, t) for fld in flds))


def manufactured_source(data: ExponentData, eps: float, mode=(1, 1),
                        amplitude: float = 1.0, rate: float = 1.0) -> Field:
    """Forcing that makes u = amplitude * e^(-rate*t) * phi_mode exact.

    Computes f = u_t - div(F_eps(z, grad u) grad u) in closed form from the
    derivatives of the single-mode solution and the exact gradients of a, b,
    p and q.  The mode's time-free factors are computed once per point set
    (the last one is kept), and with them, when a, b, p and q are all steady,
    the data and their contractions with grad phi; a call scales them by the
    decay.  Since the exact solution stays inside the Galerkin span, the
    semidiscrete system reproduces it up to time-discretization error only.
    """
    if eps <= 0:
        raise ValueError("manufactured source needs eps > 0")
    mode = tuple(int(m) for m in mode)
    single = mode_basis([mode], len(mode))

    def time_free(x):
        factors = _mode_factors(single, x)
        return factors + (_data_terms(data, factors[1], x, 0.0) if data.steady else ())

    at_points = point_memo(time_free)

    def fn(x, t):
        phi, gphi, gsq, lap, ghg, *terms = at_points(x)
        decay = amplitude * np.exp(-rate * t)
        a, b, p, q, da, db, dp, dq = terms or _data_terms(data, gphi, x, t)
        beta = eps * eps + decay * decay * gsq
        log_beta = np.log(beta)
        ta = flux.powf(beta, (p - 2.0) / 2.0)
        tb = flux.powf(beta, (q - 2.0) / 2.0)
        a_ta, b_tb = a * ta, b * tb
        # div(dens grad u) = dens lap u + grad dens . grad u, with grad u = decay grad phi
        # and grad beta . grad u = 2 decay^3 ghg
        div_flux = (decay * ((a_ta + b_tb) * lap + ta * da + tb * db
                             + 0.5 * log_beta * (a_ta * dp + b_tb * dq))
                    + decay ** 3 * ghg / beta * (a_ta * (p - 2.0) + b_tb * (q - 2.0)))
        return -rate * decay * phi - div_flux

    desc = {"family": "manufactured", "mode": list(mode),
            "amplitude": amplitude, "rate": rate, "eps": eps}
    return Field(dim=data.dim, descriptor=desc, _fn=fn)
