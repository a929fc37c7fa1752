"""Inequality monitors and continuation studies over computed trajectories.

Every bound the analysis proves for the continuum problem is evaluated here
on discrete trajectories: the energy identity, the Gronwall-type a-priori
energy bound, the eps-free gradient-energy bound, higher gradient
integrability, the interpolation-inequality budget, the time-derivative
bound, second-order regularity of the square-root flux, data-stability, the
sup bound, and the eps- and m-refinement Cauchy studies.

Checks split into two classes: bounds whose constants the derivations pin
down exactly (energy identity, Gronwall factor e^T, the small-gradient
branch constants, nonnegative monotonicity pairings) are asserted; bounds
the analysis leaves with an unquantified constant are monitored as reported
ratios against regression ceilings frozen in the scenario configs.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import flux, spaces
from .fields import ExponentData, Field, sample_field, tensor_axis, tensor_points
from .galerkin import SolverConfig, Trajectory, solve

_REL_FLOOR = 1e-30


def _flux_energy(traj: Trajectory, eps) -> np.ndarray:
    """int F_eps(z, grad u)|grad u|^2 dx at every checkpoint."""
    fv = flux.vector_kernel(*traj.fields, traj.grads, eps)
    return np.einsum("kmn,kmn,m->k", fv, traj.grads, traj.grid.space_weights, optimize=True)


def _s_lower(traj: Trajectory) -> np.ndarray:
    """min(p, q) at every checkpoint on the solver grid."""
    a, b, p, q = traj.fields
    return np.minimum(p, q)


def _cumtrapz(y, t):
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


@dataclass(frozen=True)
class CoreSeries:
    """The standard per-checkpoint time series of a run."""

    times: np.ndarray
    l2_sq: np.ndarray
    flux_energy_eps: np.ndarray
    flux_energy_0: np.ndarray
    grad_l2_sq: np.ndarray
    source_work: np.ndarray
    linf: np.ndarray
    ut_sq_accum: np.ndarray
    energy_residual: np.ndarray
    energy_residual_rel: np.ndarray


def lattice_points(dim: int, n: int) -> np.ndarray:
    """Uniform lattice of n^dim points on the closed unit box."""
    return tensor_points(np.linspace(0.0, 1.0, n), dim)


def _lattice_sup(traj: Trajectory, n: int) -> np.ndarray:
    """max |u| over the uniform n^dim lattice at every checkpoint."""
    lines = traj.basis.line_tables(np.linspace(0.0, 1.0, n))
    return np.abs(traj.basis.lattice(lines, traj.coeffs)).max(axis=1)


def core_series(traj: Trajectory, f_field: Field, linf_lattice: int = 65) -> CoreSeries:
    """Assemble the monitored time series, including the energy residual.

    The energy residual at each checkpoint is
    |1/2||u(t)||^2 + int_0^t flux_energy - 1/2||u0||^2 - int_0^t int u f|
    with the time integrals taken by the trapezoid rule on checkpoints; the
    relative form divides by the largest participating term.
    """
    times = traj.times
    l2 = np.einsum("kj,kj->k", traj.coeffs, traj.coeffs)
    fe_eps = _flux_energy(traj, traj.eps)
    fe_0 = _flux_energy(traj, 0.0)
    grads = traj.grads
    grad_l2 = np.einsum("kmn,kmn,m->k", grads, grads, traj.grid.space_weights, optimize=True)
    f_vals = sample_field(f_field, traj.grid.space_nodes, times)
    work = (traj.values * f_vals) @ traj.grid.space_weights

    linf = _lattice_sup(traj, linf_lattice)

    diss = _cumtrapz(fe_eps, times)
    pumped = _cumtrapz(work, times)
    residual = np.abs(0.5 * l2 + diss - 0.5 * l2[0] - pumped)
    scale = np.maximum.reduce([0.5 * l2, diss, np.full_like(l2, 0.5 * l2[0]), np.abs(pumped)])
    rel = residual / np.maximum(scale, _REL_FLOOR)
    return CoreSeries(times=times, l2_sq=l2, flux_energy_eps=fe_eps, flux_energy_0=fe_0,
                      grad_l2_sq=grad_l2, source_work=work, linf=linf,
                      ut_sq_accum=traj.ut_sq_accum, energy_residual=residual,
                      energy_residual_rel=rel)


@dataclass(frozen=True)
class BoundReport:
    name: str
    lhs: float
    rhs: float
    passed: bool
    detail: dict = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs > 0 else np.inf


# Constant in the Gronwall energy bound; the e^{-t}-weighted derivation
# bounds sup||u||^2 by e^T*K and the dissipation integral by e^T*K/2.
APRIORI_CONSTANT = 1.5


def apriori_energy_bound(traj: Trajectory, f_field: Field,
                         series: Optional[CoreSeries] = None) -> BoundReport:
    """sup_t ||u||^2 + int_QT F_eps|grad u|^2 against C1 e^T (||f||^2 + ||u0||^2)."""
    series = series or core_series(traj, f_field)
    lhs = float(series.l2_sq.max() + np.trapezoid(series.flux_energy_eps, traj.times))
    f_vals = sample_field(f_field, traj.grid.space_nodes, traj.times)
    f_sq = traj.spacetime_grid().integrate(f_vals ** 2)
    rhs = APRIORI_CONSTANT * np.exp(traj.horizon) * (f_sq + series.l2_sq[0])
    slack = 1e-8 * max(1.0, rhs)
    return BoundReport(name="apriori_energy_bound", lhs=lhs, rhs=float(rhs),
                       passed=bool(lhs <= rhs + slack),
                       detail={"f_sq": float(f_sq), "u0_sq": float(series.l2_sq[0]),
                               "constant": APRIORI_CONSTANT})


def gradbound_check(traj: Trajectory, series: CoreSeries) -> BoundReport:
    """Per-checkpoint eps-free energy bound with exact branch constants.

    int F_0 |grad u|^2 <= 2 int F_eps |grad u|^2 + int small-gradient branch
    constant; both sides are evaluated on the same quadrature.
    """
    c3 = flux.null_eps_branch_bound(*traj.fields, traj.eps) @ traj.grid.space_weights
    rhs = 2.0 * series.flux_energy_eps + c3
    slack = 1e-8 * np.maximum(1.0, rhs)
    worst = float((series.flux_energy_0 - rhs).max())
    return BoundReport(name="gradbound", lhs=float(series.flux_energy_0.max()),
                       rhs=float(rhs.max()),
                       passed=bool(np.all(series.flux_energy_0 <= rhs + slack)),
                       detail={"worst_gap": worst, "c3_max": float(c3.max())})


def higher_integrability(traj: Trajectory, sigma_grid: Sequence[float]) -> dict:
    """int_QT |grad u|^(s_lower + r_sharp - sigma) dz for each sigma."""
    r_sharp = traj.data.r_sharp
    for s in sigma_grid:
        if not (0.0 < s < r_sharp):
            raise ValueError(f"sigma {s} outside (0, {r_sharp})")
    s_low = _s_lower(traj)
    mag = np.sqrt(np.sum(traj.grads ** 2, axis=-1))
    st = traj.spacetime_grid()
    return {float(s): float(st.integrate(flux.powf(mag, s_low + r_sharp - s)))
            for s in sigma_grid}


@dataclass(frozen=True)
class InterpolationReport:
    varsigma: float
    beta: float
    lhs: float
    second_order_term: float
    implied_constant: float


def interpolation_ratio(traj: Trajectory, varsigma: float, beta: float) -> InterpolationReport:
    """Implied additive constant in the integrated interpolation inequality.

    Evaluates alpha * int |grad u|^(s_lower + r_sharp - varsigma) minus
    beta * int F_eps(grad u)|u_xx|^2 over the cylinder; the overshoot is the
    constant the inequality requires, a monitored (unquantified) quantity.
    """
    h = higher_integrability(traj, [varsigma])[float(varsigma)]
    lhs = traj.data.alpha * h
    grads = traj.grads
    hess = traj.basis.lattice(traj.lines, traj.coeffs, 2)
    uxx_sq = np.sum(hess ** 2, axis=(-2, -1))
    dens = flux.density_kernel(*traj.fields, grads, traj.eps)
    term = traj.spacetime_grid().integrate(dens * uxx_sq)
    return InterpolationReport(varsigma=float(varsigma), beta=float(beta), lhs=float(lhs),
                               second_order_term=float(term),
                               implied_constant=float(lhs - beta * term))


def time_derivative_bound(traj: Trajectory, f_field: Field) -> BoundReport:
    """Accumulated ||u_t||^2 plus the sup of the full-power modular, as a ratio.

    The right-hand side carries the analysis' unquantified constant, so this
    is a monitored ratio (finiteness asserted, magnitude reported).
    """
    a, b, p, q = traj.fields
    grads = traj.grads
    beta = flux.beta_eps(grads, traj.eps)
    full_power = (a * flux.powf(beta, p / 2.0) + b * flux.powf(beta, q / 2.0))
    sup_modular = float((full_power @ traj.grid.space_weights).max())
    lhs = float(traj.ut_sq_accum[-1] + sup_modular)

    g0 = grads[0]
    a0, b0, p0, q0 = a[0], b[0], p[0], q[0]
    fv0 = flux.vector_kernel(a0, b0, p0, q0, g0, 0.0)
    ini = float((np.sum(fv0 * g0, axis=-1)) @ traj.grid.space_weights)
    f_vals = sample_field(f_field, traj.grid.space_nodes, traj.times)
    f_sq = traj.spacetime_grid().integrate(f_vals ** 2)
    rhs = 1.0 + ini + f_sq
    return BoundReport(name="time_derivative_bound", lhs=lhs, rhs=float(rhs),
                       passed=bool(np.isfinite(lhs)),
                       detail={"ut_sq": float(traj.ut_sq_accum[-1]),
                               "sup_modular": sup_modular, "initial_flux_energy": ini,
                               "f_sq": float(f_sq)})


@dataclass(frozen=True)
class SecondOrderReport:
    h: float
    margin: float
    norms: np.ndarray        # (N, N): ||D_i(sqrt(F_eps) D_j u)||^2 over the cylinder
    total: float


def second_order_flux_norm(traj: Trajectory, h: float = 1.0 / 256.0,
                           margin: float = 1.0 / 64.0,
                           time_stride: int = 1) -> SecondOrderReport:
    """Interior norms of first differences of the square-root flux field.

    The composite sqrt(F_eps(z, grad u)) D_j u is evaluated spectrally on a
    uniform interior lattice and differenced centrally; termwise
    differentiation is avoided because the square root is a non-smooth
    composite.  The lattice keeps a fixed boundary margin so norms at
    different h are comparable.
    """
    if margin < 2.0 * h:
        raise ValueError("margin must be at least 2h to avoid the boundary layer")
    dim = traj.data.dim
    n_inner = int(np.floor((1.0 - 2.0 * margin) / h + 0.5)) + 1
    axis = margin + h * np.arange(-1, n_inner + 1)  # one ghost layer each side
    pts = tensor_points(axis, dim)
    shape = (len(axis),) * dim
    lines = traj.basis.line_tables(axis)

    idx = list(range(0, len(traj.times), max(1, time_stride)))
    if idx[-1] != len(traj.times) - 1:
        idx.append(len(traj.times) - 1)
    sel_times = traj.times[idx]

    # trapezoid weights over the interior lattice (endpoints half-weight)
    w1 = np.full(n_inner, h)
    w1[0] = w1[-1] = h / 2.0
    w_spatial = w1
    for _ in range(dim - 1):
        w_spatial = np.multiply.outer(w_spatial, w1)

    # one kept checkpoint at a time, so the lattice arrays do not grow with
    # the number of checkpoints
    accum = np.zeros((len(idx), dim, dim))
    for row, k in enumerate(idx):
        grad_u = traj.basis.lattice(lines, traj.coeffs[k], 1)
        dens = flux.density_kernel(*traj.data.sample(pts, traj.times[k]), grad_u, traj.eps)
        comp = (np.sqrt(dens)[:, None] * grad_u).reshape(shape + (dim,))
        for i in range(dim):
            upper = [slice(1, -1)] * dim
            lower = [slice(1, -1)] * dim
            upper[i] = slice(2, None)
            lower[i] = slice(0, -2)
            diff = (comp[tuple(upper)] - comp[tuple(lower)]) / (2.0 * h)  # (..., N)
            for j in range(dim):
                accum[row, i, j] = np.sum(diff[..., j] ** 2 * w_spatial)
    norms = np.trapezoid(accum, sel_times, axis=0)
    return SecondOrderReport(h=h, margin=margin, norms=norms, total=float(norms.sum()))


@dataclass(frozen=True)
class GronwallReport:
    times: np.ndarray
    diff_l2_sq: np.ndarray
    bound: float
    slack: float
    grad_modular: float
    pairing: float
    passed: bool


def stability_experiment(traj_u: Trajectory, traj_v: Trajectory,
                         f_field: Field, g_field: Field) -> GronwallReport:
    """Gronwall stability of two solves on identical grids.

    Checks ||(u-v)(t)||^2 <= e^T (||u0-v0||^2 + ||f-g||^2) at every
    checkpoint and reports the gradient modular int |grad(u-v)|^(s_lower)
    plus the monotonicity pairing of the two gradient fields.
    """
    if traj_u.basis.size != traj_v.basis.size or not np.array_equal(traj_u.times, traj_v.times):
        raise ValueError("stability experiment needs identical discretizations")
    dc = traj_u.coeffs - traj_v.coeffs
    diff = np.einsum("kj,kj->k", dc, dc)
    st = traj_u.spacetime_grid()
    x = traj_u.grid.space_nodes
    fg = sample_field(f_field, x, traj_u.times) - sample_field(g_field, x, traj_u.times)
    fg_sq = st.integrate(fg ** 2)
    bound = np.exp(traj_u.horizon) * (diff[0] + fg_sq)
    slack = 1e-6 * max(1.0, bound)

    dgrad = traj_u.grads - traj_v.grads
    grad_mod = st.integrate(flux.powf(np.sqrt(np.sum(dgrad ** 2, axis=-1)), _s_lower(traj_u)))
    gu = spaces.SampledField(traj_u.grads, st, vector=True)
    gv = spaces.SampledField(traj_v.grads, st, vector=True)
    pairing = spaces.pairing_G_eps(gu, gv, traj_u.eps, traj_u.data)
    return GronwallReport(times=traj_u.times, diff_l2_sq=diff, bound=float(bound),
                          slack=slack, grad_modular=float(grad_mod), pairing=float(pairing),
                          passed=bool(np.all(diff <= bound + slack)))


@dataclass(frozen=True)
class EnvelopeReport:
    times: np.ndarray
    lattice_sup: np.ndarray
    envelope: np.ndarray
    slack: float
    passed: bool


def linf_bound_check(traj: Trajectory, u0_field: Field, f_field: Field,
                     lattice_n: int = 65, slack: float = 1e-3) -> EnvelopeReport:
    """Lattice sup of |u| against ||u0||_inf + int_0^t ||f||_inf ds.

    The lattice maximum underestimates the true sup, which the absolute
    slack covers; the data sups use a twice-finer lattice.
    """
    sup_u = _lattice_sup(traj, lattice_n)

    fine = lattice_points(traj.data.dim, 2 * lattice_n - 1)
    u0_sup = float(np.abs(u0_field(fine, 0.0)).max())
    f_sup = np.array([np.abs(f_field(fine, t)).max() for t in traj.times])
    envelope = u0_sup + _cumtrapz(f_sup, traj.times) + slack
    return EnvelopeReport(times=traj.times, lattice_sup=sup_u, envelope=envelope,
                          slack=slack, passed=bool(np.all(sup_u <= envelope)))


@dataclass(frozen=True)
class CauchyReport:
    labels: list
    distances: np.ndarray    # consecutive gradient modulars
    pairings: np.ndarray     # monotonicity pairings of consecutive members
    monotone: bool
    final_distance: float
    tolerance: float


def _gradient_cauchy(trajs: Sequence[Trajectory], labels, tolerance: float,
                     pair_eps=None) -> CauchyReport:
    base = trajs[-1]
    st = base.spacetime_grid()
    s_low = _s_lower(base)
    axis = tensor_axis(base.grid.space_nodes, base.data.dim)
    members = {}  # one lattice evaluation per distinct basis, keyed by its modes
    for k, tr in enumerate(trajs):
        members.setdefault((tr.basis.modes.shape, tr.basis.modes.tobytes()), []).append(k)
    grads = [None] * len(trajs)
    for ks in members.values():
        basis = trajs[ks[0]].basis
        stacked = np.stack([trajs[k].coeffs for k in ks])
        for k, g in zip(ks, basis.lattice(basis.line_tables(axis), stacked, 1)):
            grads[k] = g
    dist, pair = [], []
    for k in range(len(trajs) - 1):
        d = grads[k] - grads[k + 1]
        dist.append(st.integrate(flux.powf(np.sqrt(np.sum(d * d, axis=-1)), s_low)))
        eps_k = pair_eps[k] if pair_eps is not None else trajs[k + 1].eps
        gu = spaces.SampledField(grads[k], st, vector=True)
        gv = spaces.SampledField(grads[k + 1], st, vector=True)
        pair.append(spaces.pairing_G_eps(gu, gv, eps_k, base.data))
    dist = np.asarray(dist)
    floor = 1e-14 * max(1.0, float(dist.max(initial=0.0)))
    monotone = bool(np.all(dist[1:] <= (1.0 + tolerance) * dist[:-1] + floor))
    return CauchyReport(labels=list(labels), distances=dist, pairings=np.asarray(pair),
                        monotone=monotone, final_distance=float(dist[-1]) if len(dist) else 0.0,
                        tolerance=tolerance)


def eps_continuation_study(cfg: SolverConfig, data: ExponentData, u0: Field, f_field: Field,
                           eps_seq: Sequence[float], tolerance: float = 0.10) -> CauchyReport:
    """Cauchy study of the vanishing-regularization limit.

    Solves along the decreasing eps sequence and reports the consecutive
    gradient modulars d_k = int |grad(u_k - u_{k+1})|^(s_lower) together
    with the monotonicity pairings at the finer eps.  The finest member
    stands in for the degenerate solution.
    """
    eps_seq = list(eps_seq)
    if any(e2 >= e1 for e1, e2 in zip(eps_seq, eps_seq[1:])):
        raise ValueError("eps sequence must be strictly decreasing")
    data.validate().raise_if_failed()
    trajs = [solve(replace(cfg, eps=e), data, u0, f_field, validate=False) for e in eps_seq]
    return _gradient_cauchy(trajs, [f"eps={e:g}" for e in eps_seq], tolerance,
                            pair_eps=eps_seq[1:])


def m_refinement_study(cfg: SolverConfig, data: ExponentData, u0: Field, f_field: Field,
                       m_list: Sequence[int], tolerance: float = 0.10) -> CauchyReport:
    """Cauchy study under basis refinement at fixed eps and time step."""
    m_list = list(m_list)
    if any(m2 <= m1 for m1, m2 in zip(m_list, m_list[1:])):
        raise ValueError("m list must be strictly increasing")
    data.validate().raise_if_failed()
    trajs = [solve(replace(cfg, m_per_dim=m), data, u0, f_field, validate=False) for m in m_list]
    return _gradient_cauchy(trajs, [f"m={m}" for m in m_list], tolerance)
