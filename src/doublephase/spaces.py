"""Numerical toolkit for variable-exponent and Musielak-Orlicz quantities.

Carries discrete fields on tensor Gauss-Legendre quadrature grids over the
unit box (optionally crossed with a trapezoid partition of (0,T)) and
computes the integral quantities the analysis is phrased in: modulars
``int |f|^r(x)``, Luxemburg norms, Holder pairings, the Musielak modular of
the initial data, the composite gradient modular

    N(grad w) = int_QT ( a|grad w|^p + b|grad w|^q ) dz,

and the monotonicity pairing

    G_eps(grad u, grad v)
        = int_QT (F_eps(z,grad u)grad u - F_eps(z,grad v)grad v) . grad(u-v) dz.

All operations are pure functions of immutable inputs; reductions use
numpy's pairwise summation, so results are bit-stable for a fixed grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from . import flux
from .fields import ExponentData, tensor_points

# Conjugate exponents are capped here; a larger cap only tightens the
# constant-field norms the cap is used for (upper-bound checks stay valid).
CONJUGATE_CAP = 1e6


class NumericsError(RuntimeError):
    """A bracket or iteration failed; signals a pathological field."""


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Tensor-product spatial quadrature on (0,1)^N plus optional time rule.

    Spatial nodes/weights come from Gauss-Legendre mapped to the unit box;
    the temporal rule is the trapezoid rule on a given partition of [0, T].
    """

    space_nodes: np.ndarray      # (M, N)
    space_weights: np.ndarray    # (M,)
    time_nodes: Optional[np.ndarray] = None    # (K,)
    time_weights: Optional[np.ndarray] = None  # (K,)

    def __post_init__(self):
        w = self.space_weights
        if np.any(w <= 0):
            raise ValueError("spatial quadrature weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("spatial weights must sum to the box volume 1")
        if self.time_weights is not None:
            tw = self.time_weights
            horizon = self.time_nodes[-1] - self.time_nodes[0]
            if np.any(tw < 0):
                raise ValueError("time weights must be nonnegative")
            if abs(tw.sum() - horizon) > 1e-12 * max(1.0, horizon):
                raise ValueError("time weights must sum to the horizon")

    @property
    def dim(self) -> int:
        return self.space_nodes.shape[1]

    @property
    def n_space(self) -> int:
        return self.space_nodes.shape[0]

    @property
    def is_spacetime(self) -> bool:
        return self.time_nodes is not None

    def with_time(self, times) -> "QuadratureGrid":
        """Attach a trapezoid rule on the given increasing checkpoint times."""
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or len(times) < 2 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing with at least two entries")
        dt = np.diff(times)
        w = np.zeros_like(times)
        w[:-1] += dt / 2.0
        w[1:] += dt / 2.0
        return QuadratureGrid(self.space_nodes, self.space_weights, times, w)

    def integrate(self, values) -> float:
        """Integrate scalar node values over the box or the cylinder.

        Spatial values have shape (M,), space-time values (K, M).
        """
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            return float(values @ self.space_weights)
        if values.ndim == 2 and self.is_spacetime:
            return float(self.time_weights @ (values @ self.space_weights))
        raise ValueError(f"cannot integrate values of shape {values.shape} on this grid")


@cache
def tensor_gauss_legendre(dim: int, order: int) -> QuadratureGrid:
    """Gauss-Legendre rule with `order` points per dimension on (0,1)^dim.

    Built once per process for each (dim, order); its arrays are read-only.
    """
    nodes1, weights1 = np.polynomial.legendre.leggauss(order)
    nodes1 = 0.5 * (nodes1 + 1.0)
    weights1 = 0.5 * weights1
    nodes = tensor_points(nodes1, dim)
    weights = np.prod(tensor_points(weights1, dim), axis=-1)
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureGrid(space_nodes=nodes, space_weights=weights)


def same_grid(g1: QuadratureGrid, g2: QuadratureGrid) -> bool:
    if g1 is g2:
        return True
    if not np.array_equal(g1.space_nodes, g2.space_nodes):
        return False
    if (g1.time_nodes is None) != (g2.time_nodes is None):
        return False
    return g1.time_nodes is None or np.array_equal(g1.time_nodes, g2.time_nodes)


@dataclass(frozen=True, eq=False)
class SampledField:
    """Field values at the nodes of a QuadratureGrid.

    Scalar shapes: (M,) spatial, (K, M) space-time.  Vector fields carry a
    trailing axis of length N and set ``vector=True``.
    """

    values: np.ndarray
    grid: QuadratureGrid
    vector: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        base = v.shape[:-1] if self.vector else v.shape
        want_spatial = (self.grid.n_space,)
        want_spacetime = (len(self.grid.time_nodes), self.grid.n_space) if self.grid.is_spacetime else None
        if base != want_spatial and base != want_spacetime:
            raise ValueError(f"value shape {v.shape} does not match the grid")
        if self.vector and v.shape[-1] != self.grid.dim:
            raise ValueError("vector values must end with an axis of length dim")
        if not np.all(np.isfinite(v)):
            raise ValueError("sampled values must be finite")

    @property
    def spacetime(self) -> bool:
        return (self.values.ndim - int(self.vector)) == 2

    def magnitude(self) -> np.ndarray:
        if self.vector:
            return np.sqrt(flux._dot_last(self.values, self.values))
        return np.abs(self.values)


def modular(f: SampledField, r) -> float:
    """Quadrature value of int |f|^r(x) over the box or the cylinder."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 1.0):
        raise ValueError("modular exponent must exceed 1 at every node")
    mag = f.magnitude()
    return f.grid.integrate(flux.powf(mag, np.broadcast_to(r, mag.shape)))


def _modular_allow_inf(mag, r, grid: QuadratureGrid) -> float:
    """Quadrature value of int mag^r over the grid, inf where a power overflows."""
    vals = flux.powf(mag, np.broadcast_to(np.asarray(r, float), mag.shape))
    if np.any(np.isinf(vals)):
        return np.inf
    return grid.integrate(vals)


def luxemburg_norm(f: SampledField, r, rel_tol: float = 1e-10) -> float:
    """Luxemburg norm inf{lam > 0 : modular(f/lam) <= 1}.

    log modular(f/lam) against log lam has slope in [-r_max, -r_min]; it is
    linear for a constant exponent.  The bracket starts from the closed forms
    ``A^(1/r_max)``, ``A^(1/r_min)`` with A = modular(f).  An end on the
    wrong side of the root moves by the slope bound: log lam changes by
    log modular / r_min, which reaches the root or passes it, by one ulp at
    least and by a factor 2 at most (so an overflowing or underflowing end
    doubles or halves, up to 60 steps each way).  Inside the bracket, a
    safeguarded Illinois false-position iteration runs on the same relation,
    so one step lands on a constant exponent's closed form.  By the slope
    bound, modular(f/lam) >= exp(-r_min*width) places lam within the
    relative width of the root.  On return,
    modular(f/lam) lies in [1 - 10*rel_tol, 1] whenever lam > 0; the width is
    rel_tol tightened by min(1, 10/r_max) so this holds for arbitrarily large
    exponents.
    """
    if not (1e-14 < rel_tol < 1e-2):
        raise ValueError("rel_tol must lie in (1e-14, 1e-2)")
    r = np.asarray(r, dtype=float)
    if np.any(r <= 1.0):
        raise ValueError("luxemburg exponent must exceed 1 at every node")
    mag = f.magnitude()
    if not mag.any():
        return 0.0
    rmin = float(r.min())
    rmax = float(np.broadcast_to(r, mag.shape)[mag > 0].max())
    width = rel_tol * min(1.0, 10.0 / rmax)

    def log_mod(lam):
        # -inf for a modular that underflows to 0, inf for one that overflows
        with np.errstate(divide="ignore"):
            return float(np.log(_modular_allow_inf(mag / lam, r, f.grid)))

    def toward_root(lam, g):
        # the slope bound from lam, which cannot stop short of the root,
        # clamped to [one ulp, a factor 2]: a large finite g on a wide
        # exponent range would otherwise overshoot into underflow
        if g > 0.0:
            return max(min(lam * math.exp(g / rmin), 2.0 * lam), math.nextafter(lam, math.inf))
        return min(max(lam * math.exp(g / rmin), 0.5 * lam), math.nextafter(lam, 0.0))

    a0 = _modular_allow_inf(mag, r, f.grid)
    if np.isfinite(a0) and a0 > 0:
        lo, hi = sorted((a0 ** (1.0 / rmin), a0 ** (1.0 / rmax)))
    else:
        lo = hi = 1.0
    for _ in range(60):
        g_hi = log_mod(hi)
        if g_hi <= 0.0:
            break
        hi = toward_root(hi, g_hi)
    else:
        raise NumericsError("luxemburg bracket expansion failed on the upper end")
    if -g_hi <= rmin * width:
        return hi
    if lo >= hi:
        lo = toward_root(hi, g_hi)
    for _ in range(60):
        g_lo = log_mod(lo)
        if g_lo >= 0.0:
            break
        lo = toward_root(lo, g_lo)
    else:
        raise NumericsError("luxemburg bracket expansion failed on the lower end")

    u_lo, u_hi = math.log(lo), math.log(hi)
    kept = 0  # +1 if the last step kept hi (replaced lo), -1 if it kept lo
    for _ in range(500):
        if (hi - lo) <= width * hi:
            return hi
        lam = 0.5 * (lo + hi)
        if math.isfinite(g_lo) and math.isfinite(g_hi):
            lam = math.exp(u_lo + g_lo * (u_hi - u_lo) / (g_lo - g_hi))
            if lam <= lo:
                # the root sits on lo: step to the slope bound from lo, which
                # cannot undershoot the root
                lam = max(lo * math.exp(g_lo / rmin), float(np.nextafter(lo, hi)))
            if lam >= hi:
                lam = 0.5 * (lo + hi)
        if not lo < lam < hi:
            return hi  # bracket at float resolution
        g = log_mod(lam)
        if g > 0.0:
            lo, u_lo, g_lo = lam, math.log(lam), g
            if kept > 0:
                g_hi *= 0.5  # Illinois: hi kept twice running
            kept = 1
        else:
            if -g <= rmin * width:
                return lam
            hi, u_hi, g_hi = lam, math.log(lam), g
            if kept < 0:
                g_lo *= 0.5
            kept = -1
    raise NumericsError("luxemburg iteration failed to converge")


@dataclass(frozen=True)
class SandwichReport:
    """Slacks of min/max(||f||^r-, ||f||^r+) around the modular."""

    modular: float
    norm: float
    r_min: float
    r_max: float
    lower_slack: float
    upper_slack: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.lower_slack >= -self.tolerance and self.upper_slack >= -self.tolerance


def check_modular_norm_sandwich(f: SampledField, r, rel_tol: float = 1e-10) -> SandwichReport:
    """Check min{||f||^r-, ||f||^r+} <= modular <= max{...} with slack floor."""
    r = np.asarray(r, dtype=float)
    a = modular(f, r)
    norm = luxemburg_norm(f, r, rel_tol)
    rmin, rmax = float(r.min()), float(r.max())
    bounds = sorted((norm ** rmin, norm ** rmax))
    tol = 1e-8 * max(1.0, a)
    return SandwichReport(modular=a, norm=norm, r_min=rmin, r_max=rmax,
                          lower_slack=a - bounds[0], upper_slack=bounds[1] - a,
                          tolerance=tol)


@dataclass(frozen=True)
class HolderReport:
    pairing: float
    norm_f: float
    norm_g: float
    slack: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.slack >= -self.tolerance


def conjugate_exponent(r) -> np.ndarray:
    """r' = r/(r-1), capped at CONJUGATE_CAP for exponents approaching 1."""
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        rp = r / (r - 1.0)
    return np.minimum(rp, CONJUGATE_CAP)


def holder_pairing_check(f: SampledField, g: SampledField, r, rel_tol: float = 1e-10) -> HolderReport:
    """Check the generalized Holder inequality int|fg| <= 2 ||f||_r ||g||_r'."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 1.0):
        raise ValueError("holder exponent must exceed 1 at every node")
    pairing = f.grid.integrate(f.magnitude() * g.magnitude())
    nf = luxemburg_norm(f, r, rel_tol)
    ng = luxemburg_norm(g, conjugate_exponent(r), rel_tol)
    rhs = 2.0 * nf * ng
    tol = 1e-8 * max(1.0, rhs)
    return HolderReport(pairing=pairing, norm_f=nf, norm_g=ng, slack=rhs - pairing, tolerance=tol)


def musielak_modular(u: SampledField, data: ExponentData) -> float:
    """Modular of the generating function built from the data at t = 0.

    Returns int_Omega (|u|^s + a0 |u|^r + b0 |u|^sigma) dx with
    s = max(2, min(p0, q0)), r = max(2, p0), sigma = max(2, q0).  Finiteness
    of this modular for u0 and |grad u0| certifies admissible initial data.
    """
    a0, b0, p0, q0 = data.sample(u.grid.space_nodes, 0.0)
    s = np.maximum(2.0, np.minimum(p0, q0))
    rr = np.maximum(2.0, p0)
    sg = np.maximum(2.0, q0)
    mag = u.magnitude()
    vals = flux.powf(mag, s) + a0 * flux.powf(mag, rr) + b0 * flux.powf(mag, sg)
    return u.grid.integrate(vals)


def _spacetime_fields(data: ExponentData, grid: QuadratureGrid):
    if not grid.is_spacetime:
        raise ValueError("cylinder integrals need a grid with a time rule")
    return data.sample(grid.space_nodes, grid.time_nodes)


def composite_N(grad_w: SampledField, data: ExponentData) -> float:
    """Composite gradient modular int_QT (a|grad w|^p + b|grad w|^q) dz."""
    if not (grad_w.vector and grad_w.spacetime):
        raise ValueError("composite_N needs a space-time vector field")
    a, b, p, q = _spacetime_fields(data, grad_w.grid)
    mag = grad_w.magnitude()
    return grad_w.grid.integrate(a * flux.powf(mag, p) + b * flux.powf(mag, q))


def pairing_G_eps(grad_u: SampledField, grad_v: SampledField, eps: float, data: ExponentData) -> float:
    """Monotonicity pairing of the two gradient fields over the cylinder.

    Nonnegative for any eps in [0,1) by strict monotonicity of the flux.
    """
    if not same_grid(grad_u.grid, grad_v.grid):
        raise ValueError("gradient fields must share a grid")
    fields = _spacetime_fields(data, grad_u.grid)
    return grad_u.grid.integrate(flux.pairing_kernel(*fields, grad_u.values, grad_v.values, eps))


@dataclass(frozen=True)
class EmbeddingReport:
    """Both sides of the coercive embedding bound for the gradient modular."""

    lhs: float          # alpha * int |grad u|^s_lower
    rhs: float          # 4 (C_a + C_b)(A+ + B+)(N^(s-/s+) + N^(s+/s-))
    c_a: float
    c_b: float
    a_plus: float
    b_plus: float
    composite: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + 1e-8 * max(1.0, self.rhs)


def embedding_bound_check(grad_u: SampledField, data: ExponentData) -> EmbeddingReport:
    """Check alpha*int |grad u|^s_lower against the composite-modular bound.

    The constants follow the chain that proves the continuous embedding of
    the finite-energy class into the s_lower-gradient class: Holder with
    exponent p/s_lower (conjugate norms of the constant 1 computed
    numerically) and the modular-norm sandwich.
    """
    grid = grad_u.grid
    a, b, p, q = _spacetime_fields(data, grid)
    s_low = np.minimum(p, q)
    mag = grad_u.magnitude()
    lhs = data.alpha * grid.integrate(flux.powf(mag, s_low))

    comp = grid.integrate(a * flux.powf(mag, p) + b * flux.powf(mag, q))
    a_plus = float(flux.powf(a, 1.0 - s_low / p).max())
    b_plus = float(flux.powf(b, 1.0 - s_low / q).max())
    ones = SampledField(np.ones_like(mag), grid)
    c_a = luxemburg_norm(ones, conjugate_exponent(p / s_low))
    c_b = luxemburg_norm(ones, conjugate_exponent(q / s_low))
    s_minus = float(s_low.min())
    s_plus = float(np.maximum(p, q).max())
    rhs = 4.0 * (c_a + c_b) * (a_plus + b_plus) * (
        comp ** (s_minus / s_plus) + comp ** (s_plus / s_minus))
    return EmbeddingReport(lhs=lhs, rhs=rhs, c_a=c_a, c_b=c_b,
                           a_plus=a_plus, b_plus=b_plus, composite=comp)


@dataclass(frozen=True)
class MonotoneEnvelopeReport:
    """N(grad u - grad v) against the assembled monotonicity envelope."""

    lhs: float
    rhs: float
    pairing: float
    constant: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + 1e-8 * max(1.0, self.rhs)


def monotone_envelope_check(grad_u: SampledField, grad_v: SampledField, eps: float,
                            data: ExponentData,
                            singular_constant_safety: float = 0.5) -> MonotoneEnvelopeReport:
    """Check N(grad u - grad v) <= C (G^(s+/2) + G^(s-/2) + G).

    The constant is assembled from the proof chain: on {p >= 2} the gap
    dominates |xi-eta|^p / (2 C_p); on {p < 2} a Holder step with exponent
    2/(2-p) (its constant-field norm computed numerically) reduces to the
    singular-branch gap bound with constant (p_min - 1), which is not pinned
    down by the analysis, so it enters with a calibrated safety factor.
    """
    grid = grad_u.grid
    a, b, p, q = _spacetime_fields(data, grid)
    gu, gv = grad_u.values, grad_v.values
    du = gu - gv
    dmag = np.sqrt(flux._dot_last(du, du))
    lhs = grid.integrate(a * flux.powf(dmag, p) + b * flux.powf(dmag, q))
    pairing = pairing_G_eps(grad_u, grad_v, eps, data)
    g = max(pairing, 0.0)

    mag_sq = flux._dot_last(gu, gu) + flux._dot_last(gv, gv)
    s_minus = float(np.minimum(p, q).min())
    s_plus = float(np.maximum(p, q).max())

    constant = 0.0
    for coef, expo in ((a, p), (b, q)):
        e_plus = float(expo.max())
        constant += 2.0 * flux.sum_power_constant(max(2.0, e_plus))
        low = expo < 2.0
        if np.any(low):
            if float(expo[low].min()) <= 1.0:
                raise ValueError("monotone envelope needs exponents above 1")
            c_sing = singular_constant_safety * (float(expo[low].min()) - 1.0)
            coef_plus = float(flux.powf(coef[low], 1.0 - expo[low] / 2.0).max())
            # R^(p/2) with R = (eps^2+|grad u|^2+|grad v|^2)^((2-p)/2), zero off {p<2}
            rvals = np.where(low, flux.powf(eps ** 2 + mag_sq, (2.0 - expo) * expo / 4.0), 0.0)
            rexp = np.where(low, 2.0 / (2.0 - expo), 2.0)
            holder_norm = luxemburg_norm(SampledField(rvals, grid), rexp, rel_tol=1e-8)
            constant += 4.0 * coef_plus * holder_norm * max(1.0, 1.0 / c_sing)
    rhs = constant * (g ** (s_plus / 2.0) + g ** (s_minus / 2.0) + g)
    return MonotoneEnvelopeReport(lhs=lhs, rhs=rhs, pairing=pairing, constant=constant)
