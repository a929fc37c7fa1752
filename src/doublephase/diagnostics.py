"""Inequality monitors and Cauchy studies over computed trajectories.

Every bound the analysis proves for the continuum problem is evaluated here
on discrete trajectories: the energy identity, the Gronwall-type a-priori
energy bound, the eps-free gradient-energy bound, higher gradient
integrability, the interpolation-inequality budget, the time-derivative
bound, second-order regularity of the square-root flux, data-stability and
the sup bound.  `_gradient_cauchy` gives the Cauchy distances and pairings
of any member sequence; the sweep runs its eps-continuation and
basis-refinement studies through it, and so can any chain of `solve` calls.
It and the Gronwall study share one gradient distance, `_gradient_distance`,
and one pairing integrand, `flux.pairing_kernel`.

Checks split into two classes: bounds whose constants the derivations pin
down exactly (energy identity, Gronwall factor e^T, the small-gradient
branch constants, nonnegative monotonicity pairings) are asserted; bounds
the analysis leaves with an unquantified constant are reported as monitored
ratios, and the sweep holds their eps/m-uniformity to its ceilings.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import flux, spaces
from .fields import ExponentData, lattice_axis, lattice_points, tensor_axis, tensor_points
from .galerkin import Trajectory

_REL_FLOOR = 1e-30
# Points per axis of the lattice the sup of |u| and the sup envelope's data
# sups are taken on.  Its nodes are every other node of the 129-point
# lattice (128 = 2 * 64), so its data sups, and the envelope, are never
# above that finer lattice's: the check is at least as strict.
SUP_LATTICE = 65
# Kept checkpoints `second_order_flux_norm` evaluates at once: its memory grows
# with the block, not with their number.
SECOND_ORDER_BLOCK = 4
# Checkpoints `_lattice_sup` evaluates on the sup lattice at once, for the same reason.
SUP_BLOCK = 8
# Relative growth between consecutive Cauchy distances still read as monotone.
CAUCHY_TOLERANCE = 0.10


def _flux_energy(traj: Trajectory, eps) -> np.ndarray:
    """int F_eps(z, grad u)|grad u|^2 dx at every checkpoint; the run's eps reads its density."""
    if eps == traj.eps:
        fv = traj.density[..., None] * traj.grads
    else:
        fv = flux.vector_kernel(*traj.fields, traj.grads, eps)
    return flux._dot_last(fv, traj.grads) @ traj.grid.space_weights


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
    """The standard per-checkpoint time series of a run, and its int int f^2."""

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
    f_sq: float


def _lattice_sup(traj: Trajectory, n: int) -> np.ndarray:
    """max |u| over the uniform n^dim lattice at every checkpoint, SUP_BLOCK checkpoints at a time.

    Taken as max(max u, -min u), which equals it bit for bit without an |u| copy.
    """
    lines = traj.basis.line_tables(lattice_axis(n))
    sup = np.empty(len(traj.coeffs))
    for start in range(0, len(sup), SUP_BLOCK):
        u = traj.basis.lattice(lines, traj.coeffs[start:start + SUP_BLOCK])
        sup[start:start + SUP_BLOCK] = np.maximum(u.max(axis=1), -u.min(axis=1))
    return sup


def core_series(traj: Trajectory) -> CoreSeries:
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
    grad_l2 = flux._dot_last(grads, grads) @ traj.grid.space_weights
    work = (traj.values * traj.source_values) @ traj.grid.space_weights

    linf = _lattice_sup(traj, SUP_LATTICE)

    diss = _cumtrapz(fe_eps, times)
    pumped = _cumtrapz(work, times)
    residual = np.abs(0.5 * l2 + diss - 0.5 * l2[0] - pumped)
    scale = np.maximum.reduce([0.5 * l2, diss, np.full_like(l2, 0.5 * l2[0]), np.abs(pumped)])
    rel = residual / np.maximum(scale, _REL_FLOOR)
    return CoreSeries(times=times, l2_sq=l2, flux_energy_eps=fe_eps, flux_energy_0=fe_0,
                      grad_l2_sq=grad_l2, source_work=work, linf=linf,
                      ut_sq_accum=traj.ut_sq_accum, energy_residual=residual,
                      energy_residual_rel=rel,
                      f_sq=float(traj.spacetime_grid().integrate(traj.source_values ** 2)))


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


def apriori_energy_bound(traj: Trajectory, series: CoreSeries) -> BoundReport:
    """sup_t ||u||^2 + int_QT F_eps|grad u|^2 against C1 e^T (||f||^2 + ||u0||^2)."""
    lhs = float(series.l2_sq.max() + np.trapezoid(series.flux_energy_eps, traj.times))
    rhs = APRIORI_CONSTANT * np.exp(traj.horizon) * (series.f_sq + series.l2_sq[0])
    slack = 1e-8 * max(1.0, rhs)
    return BoundReport(name="apriori_energy_bound", lhs=lhs, rhs=float(rhs),
                       passed=bool(lhs <= rhs + slack),
                       detail={"f_sq": series.f_sq, "u0_sq": float(series.l2_sq[0]),
                               "constant": APRIORI_CONSTANT})


def gradbound_check(traj: Trajectory, series: CoreSeries) -> BoundReport:
    """Per-checkpoint eps-free energy bound with exact branch constants.

    int F_0 |grad u|^2 <= 2 int F_eps |grad u|^2 + int small-gradient branch
    constant; both sides are evaluated on the same quadrature.
    """
    # steady data repeat one row: it is formed once and tiled, so the matvec sees the same rows
    rows = 1 if traj.data.steady else len(traj.times)
    c3 = flux.null_eps_branch_bound(*(f[:rows] for f in traj.fields), traj.eps)
    c3 = np.tile(c3, (len(traj.times) // rows, 1)) @ traj.grid.space_weights
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
    mag = np.sqrt(flux._dot_last(traj.grads, traj.grads))
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


def interpolation_ratio(traj: Trajectory, varsigma: float, beta: float,
                        integrability: dict | None = None) -> InterpolationReport:
    """Implied additive constant in the integrated interpolation inequality.

    Evaluates alpha * int |grad u|^(s_lower + r_sharp - varsigma) minus
    beta * int F_eps(grad u)|u_xx|^2 over the cylinder; the overshoot is the
    constant the inequality requires, a monitored (unquantified) quantity.
    `integrability`, a `higher_integrability` table of this trajectory, gives
    the first integral when it holds varsigma.
    """
    if float(varsigma) not in (integrability or {}):
        integrability = higher_integrability(traj, [varsigma])
    lhs = traj.data.alpha * integrability[float(varsigma)]
    hess = traj.basis.lattice(traj.lines, traj.coeffs, 2)
    flat = hess.reshape(hess.shape[:-2] + (-1,))
    uxx_sq = flux._dot_last(flat, flat)
    term = traj.spacetime_grid().integrate(traj.density * uxx_sq)
    return InterpolationReport(varsigma=float(varsigma), beta=float(beta), lhs=float(lhs),
                               second_order_term=float(term),
                               implied_constant=float(lhs - beta * term))


def time_derivative_bound(traj: Trajectory, series: CoreSeries) -> BoundReport:
    """Accumulated ||u_t||^2 plus the sup of the full-power modular, as a ratio.

    The right-hand side, 1 + int F_0 |grad u0|^2 + int int f^2 with both
    integrals from the series, carries the analysis' unquantified constant,
    so this is a monitored ratio (finiteness asserted, magnitude reported).
    """
    a, b, p, q = traj.fields
    beta = flux.beta_eps(traj.grads, traj.eps)
    full_power = (a * flux.powf(beta, p / 2.0) + b * flux.powf(beta, q / 2.0))
    sup_modular = float((full_power @ traj.grid.space_weights).max())
    lhs = float(traj.ut_sq_accum[-1] + sup_modular)

    ini = float(series.flux_energy_0[0])
    return BoundReport(name="time_derivative_bound", lhs=lhs, rhs=1.0 + ini + series.f_sq,
                       passed=bool(np.isfinite(lhs)),
                       detail={"ut_sq": float(traj.ut_sq_accum[-1]),
                               "sup_modular": sup_modular, "initial_flux_energy": ini,
                               "f_sq": series.f_sq})


@dataclass(frozen=True)
class SecondOrderReport:
    margin: float
    norms: np.ndarray        # (N, N): ||D_i(sqrt(F_eps) D_j u)||^2 over the cylinder
    total: float


def second_order_flux_norm(traj: Trajectory, margin: float = 1.0 / 64.0,
                           time_stride: int = 1) -> SecondOrderReport:
    """Norms of D_i(sqrt(F_eps) D_j u) over [margin, 1 - margin]^N x [0, T].

    For eps > 0, F = a beta^((p-2)/2) + b beta^((q-2)/2) is positive (a + b
    >= alpha, beta >= eps^2) and as smooth as the data, so the chain rule
    D_i(sqrt(F) D_j u) = sqrt(F) D_ij u + D_j u D_i F / (2 sqrt(F)) holds,
    with D_i F from the exact gradients of a, b, p, q and D_i beta =
    2 sum_k D_k u D_ik u.  Space integrals use the solver's Gauss rule mapped
    onto the box, time integrals the trapezoid rule on every
    time_stride-th checkpoint and the last.
    """
    if not 0.0 <= margin < 0.5:
        raise ValueError(f"margin {margin} outside [0, 1/2)")
    data, dim, scale = traj.data, traj.data.dim, 1.0 - 2.0 * margin
    axis = margin + scale * tensor_axis(traj.grid.space_nodes, dim)
    pts, lines = tensor_points(axis, dim), traj.basis.line_tables(axis)
    weights = scale ** dim * traj.grid.space_weights

    idx = list(range(0, len(traj.times), max(1, time_stride)))
    if idx[-1] != len(traj.times) - 1:
        idx.append(len(traj.times) - 1)

    flds = (data.a, data.b, data.p, data.q)

    def sampled(t):
        """a, b, p, q at pts and t, then their gradients."""
        return data.sample(pts, t) + tuple(fld.grad(pts, t) for fld in flds)

    # steady data take the same values at every t: sampled once per call
    once = sampled(traj.times[0]) if data.steady else None
    accum = np.zeros((len(idx), dim, dim))
    for start in range(0, len(idx), SECOND_ORDER_BLOCK):
        ks = idx[start:start + SECOND_ORDER_BLOCK]
        grad_u = traj.basis.lattice(lines, traj.coeffs[ks], 1)  # (B, M, N)
        hess_u = traj.basis.lattice(lines, traj.coeffs[ks], 2)  # (B, M, N, N)
        beta = flux.beta_eps(grad_u, traj.eps)
        log_beta = np.log(beta)[..., None]
        dlog_beta = 2.0 * flux._dot_last(grad_u[..., None, :], hess_u) / beta[..., None]
        a, b, p, q, da, db, dp, dq = once or map(np.stack, zip(*map(sampled, traj.times[ks])))
        dens, d_dens = 0.0, 0.0
        for c, dc, r, dr in ((a, da, p, dp), (b, db, q, dq)):
            # D_i(c beta^e) = beta^e (D_i c + c (log beta D_i e + e D_i log beta)), e = (r-2)/2
            power = flux.powf(beta, (r - 2.0) / 2.0)
            dens = dens + c * power
            d_dens = d_dens + power[..., None] * (dc + c[..., None] * (
                0.5 * dr * log_beta + (0.5 * r - 1.0)[..., None] * dlog_beta))
        root = np.sqrt(dens)[..., None, None]
        comp = root * hess_u + d_dens[..., None] * grad_u[..., None, :] / (2.0 * root)
        accum[start:start + len(ks)] = np.einsum("bmij,bmij,m->bij", comp, comp, weights)
    norms = np.trapezoid(accum, traj.times[idx], axis=0)
    return SecondOrderReport(margin=margin, norms=norms, total=float(norms.sum()))


@dataclass(frozen=True)
class GronwallReport:
    times: np.ndarray
    diff_l2_sq: np.ndarray
    bound: float
    slack: float
    grad_modular: float
    pairing: float
    passed: bool


def _gradient_distance(st: spaces.QuadratureGrid, grad_u, grad_v, s_low) -> float:
    """The gradient distance int |grad u - grad v|^(s_lower) over the cylinder."""
    d = grad_u - grad_v
    return st.integrate(flux.powf(np.sqrt(flux._dot_last(d, d)), s_low))


def stability_experiments(traj_u: Trajectory, others) -> list[GronwallReport]:
    """Gronwall stability of traj_u against each of others, in order.

    Every pair is solved on identical grids.  Checks ||(u-v)(t)||^2 <= e^T
    (||u0-v0||^2 + ||f-g||^2) at every checkpoint, with f and g the two
    trajectories' own sources, and reports the gradient distance of u and v
    plus the monotonicity pairing of their gradient fields.  The base's
    sampled data, exponent and flux field are formed once for all, and so
    are its source values for each other whose source is the base's own.
    The others' gradient and source tables are not cached on them, so the
    group holds one pair's tables at a time.
    """
    st = traj_u.spacetime_grid()
    s_lower = _s_lower(traj_u)
    flux_u = flux.vector_kernel(*traj_u.fields, traj_u.grads, traj_u.eps)
    reports = []
    for traj_v in others:
        if (traj_u.basis.size != traj_v.basis.size
                or not spaces.same_grid(st, traj_v.spacetime_grid())):
            raise ValueError("stability experiment needs identical discretizations")
        grads_v = Trajectory.grads.func(traj_v)
        dc = traj_u.coeffs - traj_v.coeffs
        diff = np.einsum("kj,kj->k", dc, dc)
        g = (traj_u.source_values if traj_v.source is traj_u.source
             else Trajectory.source_values.func(traj_v))
        fg_sq = st.integrate((traj_u.source_values - g) ** 2)
        bound = np.exp(traj_u.horizon) * (diff[0] + fg_sq)
        slack = 1e-6 * max(1.0, bound)

        grad_mod = _gradient_distance(st, traj_u.grads, grads_v, s_lower)
        pairing = st.integrate(flux.pairing_kernel(*traj_u.fields, traj_u.grads, grads_v,
                                                   traj_u.eps, flux_u))
        reports.append(GronwallReport(times=traj_u.times, diff_l2_sq=diff, bound=float(bound),
                                      slack=slack, grad_modular=float(grad_mod),
                                      pairing=float(pairing),
                                      passed=bool(np.all(diff <= bound + slack))))
    return reports


@dataclass(frozen=True)
class EnvelopeReport:
    times: np.ndarray
    lattice_sup: np.ndarray
    envelope: np.ndarray
    slack: float
    passed: bool


def linf_bound_check(traj: Trajectory, series: CoreSeries, slack: float = 1e-3) -> EnvelopeReport:
    """The series' lattice sup of |u| against ||u0||_inf + int_0^t ||f||_inf ds.

    The data sups are lattice maxima on the SUP_LATTICE^N lattice of the
    series' sup.  A lattice maximum underestimates the true sup, of the data
    as of u, and the absolute slack covers both.  That lattice is a
    sub-lattice of the 129^N one, so the envelope is never above the one
    taken there: a finer data lattice could only loosen the check.  A
    steady source is sampled once and its sup repeated over the checkpoints.
    """
    sup_u = series.linf
    lattice = lattice_points(traj.data.dim, SUP_LATTICE)
    u0_sup = float(np.abs(traj.initial(lattice, 0.0)).max())
    times = traj.times[:1] if traj.source.steady else traj.times
    # one checkpoint at a time: `sample_field` would hold (K+1) x SUP_LATTICE^N values at once
    f_sup = np.array([np.abs(traj.source(lattice, t)).max() for t in times])
    envelope = u0_sup + _cumtrapz(np.resize(f_sup, traj.times.shape), traj.times) + slack
    return EnvelopeReport(times=traj.times, lattice_sup=sup_u, envelope=envelope,
                          slack=slack, passed=bool(np.all(sup_u <= envelope)))


@dataclass(frozen=True)
class CauchyReport:
    labels: list
    distances: np.ndarray    # gradient distances of consecutive members
    pairings: np.ndarray | None  # monotonicity pairings of consecutive members, if asked
    monotone: bool
    final_distance: float


def _gradient_cauchy(data: ExponentData, st: spaces.QuadratureGrid, members: Sequence[tuple],
                     labels, pairings: bool = True) -> CauchyReport:
    """Gradient distances and pairings of consecutive (basis, coeffs, eps) members.

    st is the finest member's space-time grid; a pairing uses the finer
    member's eps.  The data are sampled once and released after the
    pairings: held through the distances too, they raise the study's peak.
    With ``pairings=False`` they are not computed and the report holds None.
    """
    axis = tensor_axis(st.space_nodes, data.dim)
    by_basis = {}  # one lattice evaluation per distinct basis, keyed by its modes
    for k, (basis, _, _) in enumerate(members):
        by_basis.setdefault((basis.modes.shape, basis.modes.tobytes()), []).append(k)
    grads = {}
    for ks in by_basis.values():
        basis = members[ks[0]][0]
        stacked = np.stack([members[k][1] for k in ks])
        grads.update(zip(ks, basis.lattice(basis.line_tables(axis), stacked, 1)))
    pairs = range(len(members) - 1)
    fields = data.sample(st.space_nodes, st.time_nodes)
    pair = np.array([st.integrate(flux.pairing_kernel(*fields, grads[k], grads[k + 1],
                                                      members[k + 1][2]))
                     for k in pairs]) if pairings else None
    s_low = np.minimum(*fields[2:])
    del fields
    dist = np.array([_gradient_distance(st, grads[k], grads[k + 1], s_low) for k in pairs])
    return CauchyReport(labels=list(labels), distances=dist, pairings=pair,
                        monotone=decays(dist), final_distance=float(dist[-1]) if len(dist) else 0.0)


def decays(values: np.ndarray) -> bool:
    """Each entry within (1 + CAUCHY_TOLERANCE) times the one before, up to 1e-14 * max(1, max)."""
    floor = 1e-14 * max(1.0, float(np.max(values, initial=0.0)))
    return bool(np.all(values[1:] <= (1.0 + CAUCHY_TOLERANCE) * values[:-1] + floor))

