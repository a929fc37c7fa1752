"""Pointwise algebra of the regularized double-phase flux.

The regularization replaces |xi|^2 by ``beta_eps(xi) = eps^2 + |xi|^2``.  The
shifted flux density is

    density(z, xi) = a(z) beta_eps^((p+s1-2)/2) + b(z) beta_eps^((q+s2-2)/2),

the flux vector is ``density * xi`` (with shifts s1 = s2 = 0), and the energy
density ``(a/p) beta_eps^(p/2) + (b/q) beta_eps^(q/2)`` has the flux vector as
its xi-gradient.  All kernels are pure functions of arrays, elementwise over
the leading axes, so one call on a stack of gradients (B, M, N) serves B
solves: the solver stacks a lockstep group's members this way.

Evaluation policy at the degenerate point (eps = 0, xi = 0): the flux vector
and the monotonicity gap extend continuously by zero, while the raw density
refuses queries whose effective exponent is negative with a nonzero
coefficient.
"""
from __future__ import annotations

import numpy as np


class FluxSingularityError(ValueError):
    """Raw density queried at a genuinely singular point (eps=0, xi=0, negative exponent)."""


def powf(base, exponent):
    """Elementwise base**exponent for nonnegative bases and real exponents.

    Equivalent to exp(exponent*log(base)) with the IEEE conventions
    0**e = 0 (e > 0), 0**0 = 1, 0**e = inf (e < 0); overflow yields inf
    silently.  Variable exponents preclude integer fast paths.
    """
    with np.errstate(over="ignore", divide="ignore"):
        return np.power(np.asarray(base, dtype=float), exponent)


def beta_eps(xi, eps) -> np.ndarray:
    """beta_eps(xi) = eps^2 + |xi|^2 for xi of shape (..., N)."""
    xi = np.asarray(xi, dtype=float)
    return np.asarray(eps, dtype=float) ** 2 + _dot_last(xi, xi)


def _dot_last(x, y) -> np.ndarray:
    """sum_i x[..., i] * y[..., i] over a short last axis of x and y, one component at a time.

    On the N = 1, 2 or 3 components of a gradient, or the 4 entries of a 2D
    Hessian, the dispatch of a reduction (np.sum, np.einsum) costs more than
    its arithmetic.  Below 8 components np.sum adds in this same order, so the
    bits equal np.sum(x * y, axis=-1); a sum that starts from the first
    product also keeps a signed zero, which np.sum's does not.
    """
    out = x[..., 0] * y[..., 0]
    for i in range(1, x.shape[-1]):
        out += x[..., i] * y[..., i]
    return out


def _term(coef, exponent, beta):
    """coef * beta**exponent in one elementwise pass, exactly 0 where coef is 0.

    The zero coefficient wins even where the power overflows or, at beta = 0,
    divides by zero; `_checked_sum` refuses the singular point for the raw
    densities, and the flux vector zeroes it.
    """
    coef = np.asarray(coef, dtype=float)
    with np.errstate(invalid="ignore"):
        return _masked(coef, coef * powf(beta, exponent))


def _masked(coef, term):
    """term, exactly 0 where coef is 0; the mask is formed only where coef vanishes somewhere."""
    return term if np.all(coef) else np.where(coef != 0.0, term, 0.0)


def _checked_sum(beta, p_term, q_term, *, what: str):
    """Sum of two (coef, exponent) terms; refuses beta = 0 where a negative
    exponent meets a nonzero coefficient."""
    if not np.all(beta):  # beta vanishes only at eps = 0, xi = 0
        for coef, exponent in (p_term, q_term):
            if np.any((beta == 0.0) & (np.asarray(exponent) < 0.0) & (np.asarray(coef) != 0.0)):
                raise FluxSingularityError(
                    f"{what}: beta_eps = 0 with negative effective exponent; "
                    "use the flux vector, which extends by zero"
                )
    return _term(*p_term, beta) + _term(*q_term, beta)


def density_kernel(a, b, p, q, xi, eps, s1=0.0, s2=0.0) -> np.ndarray:
    """Shifted flux density a*beta^((p+s1-2)/2) + b*beta^((q+s2-2)/2)."""
    return _checked_sum(beta_eps(xi, eps), (a, (np.asarray(p) + s1 - 2.0) / 2.0),
                        (b, (np.asarray(q) + s2 - 2.0) / 2.0), what="density")


def vector_kernel(a, b, p, q, xi, eps, exponents=None) -> np.ndarray:
    """Flux vector density*xi, extended by zero where beta_eps vanishes.

    The extension is continuous because |xi|^(p-1) -> 0 as xi -> 0 for any
    p > 1, and likewise for q.  The density is zeroed before it meets xi, so
    an infinite density at beta = 0 never multiplies a zero gradient.

    The arithmetic of `_term` written out under one errstate: the residual
    of every Newton step calls this kernel, and on small bases the calls'
    overhead, not their arithmetic, is its cost.  exponents, the pair
    ((p-2)/2, (q-2)/2) when the caller already holds it, is not formed
    again.  The solver passes a scalar eps, which skips the zero extension
    when eps^2 > 0 after one float test; an array eps (per point, as from
    `monotonicity_gap`) is always extended.
    """
    xi = np.asarray(xi, dtype=float)
    beta = beta_eps(xi, eps)
    ea, eb = ((p - 2.0) / 2.0, (q - 2.0) / 2.0) if exponents is None else exponents
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dens = _masked(a, a * np.power(beta, ea)) + _masked(b, b * np.power(beta, eb))
    if isinstance(eps, np.ndarray) or not eps ** 2 > 0.0:  # else beta > 0 everywhere
        dens = np.where(beta > 0.0, dens, 0.0)
    return dens[..., None] * xi


def jacobian_kernel(a, b, p, q, xi, eps) -> np.ndarray:
    """xi-derivative of the flux vector, shape (..., N, N).

    Equals density*I + rank1 xi xi^T with A = a beta^((p-2)/2),
    B = b beta^((q-2)/2), density = A + B and rank1 = ((p-2)A + (q-2)B)/beta:
    the Hessian of the convex energy density, hence symmetric positive
    semidefinite.  Requires eps > 0.
    """
    if not np.all(np.asarray(eps) > 0):
        raise ValueError("flux jacobian requires eps > 0")
    xi = np.asarray(xi, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    beta = beta_eps(xi, eps)
    ta = _term(a, (p - 2.0) / 2.0, beta)
    tb = _term(b, (q - 2.0) / 2.0, beta)
    dens = ta + tb
    rank1 = ((p - 2.0) * ta + (q - 2.0) * tb) / beta
    n = xi.shape[-1]
    jac = np.empty(dens.shape + (n, n))
    for i in range(n):
        for j in range(i, n):
            # xi_i * xi_j before the scaling, and one value for both
            # triangles, keep the matrix exactly symmetric
            jac[..., i, j] = jac[..., j, i] = rank1 * (xi[..., i] * xi[..., j])
        jac[..., i, i] += dens
    return jac


def energy_kernel(a, b, p, q, xi, eps) -> np.ndarray:
    """Energy density (a/p) beta^(p/2) + (b/q) beta^(q/2)."""
    beta = beta_eps(xi, eps)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return _checked_sum(beta, (np.asarray(a, float) / p, p / 2.0),
                        (np.asarray(b, float) / q, q / 2.0), what="energy")


def monotonicity_gap(xi, eta, p_val, eps) -> np.ndarray:
    """Monotonicity gap (gamma(xi)xi - gamma(eta)eta) . (xi - eta).

    gamma is beta_eps^((p-2)/2).  Nonnegative for all p > 1 and eps in [0,1);
    for p >= 2 it dominates (gamma(xi)+gamma(eta))|xi-eta|^2 / 2.  At eps = 0
    the products gamma(.)*(.) extend by zero at the origin.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    p_val = np.asarray(p_val, dtype=float)
    ones = np.ones(np.broadcast_shapes(xi.shape[:-1], eta.shape[:-1], p_val.shape))
    return pairing_kernel(ones, 0.0 * ones, p_val, 2.0, xi, eta, eps)


def pairing_kernel(a, b, p, q, xi, eta, eps, flux_xi=None) -> np.ndarray:
    """Monotonicity pairing integrand (F_eps(xi) xi - F_eps(eta) eta) . (xi - eta).

    flux_xi, the flux vector at xi when the caller already holds it, is not
    formed again.
    """
    if flux_xi is None:
        flux_xi = vector_kernel(a, b, p, q, xi, eps)
    return _dot_last(flux_xi - vector_kernel(a, b, p, q, eta, eps), xi - eta)


def gap_lower_bound(xi, eta, p_val, eps) -> np.ndarray:
    """The p >= 2 branch lower bound (gamma(xi)+gamma(eta))|xi-eta|^2 / 2."""
    beta_x = beta_eps(xi, eps)
    beta_e = beta_eps(eta, eps)
    p_val = np.asarray(p_val, dtype=float)
    gx = powf(beta_x, (p_val - 2.0) / 2.0)
    ge = powf(beta_e, (p_val - 2.0) / 2.0)
    d = np.asarray(xi, float) - np.asarray(eta, float)
    diff = _dot_last(d, d)
    return 0.5 * (gx + ge) * diff


def sum_power_constant(p: float) -> float:
    """C_p with (s+t)^(p-2) <= C_p (s^(p-2) + t^(p-2)) for s,t >= 0, p >= 2."""
    return max(1.0, 2.0 ** (p - 3.0))


def null_eps_branch_bound(a, b, p, q, eps, s1=0.0, s2=0.0) -> np.ndarray:
    """Small-gradient branch bound a(2eps^2)^((p+s1)/2) + b(2eps^2)^((q+s2)/2).

    On |xi| <= eps one has beta_eps <= 2 eps^2, so density*beta_eps is bounded
    by this constant; on |xi| > eps it is bounded by 2*density*|xi|^2.
    """
    two_eps_sq = 2.0 * np.asarray(eps, dtype=float) ** 2
    return (np.asarray(a, float) * powf(two_eps_sq, (np.asarray(p, float) + s1) / 2.0)
            + np.asarray(b, float) * powf(two_eps_sq, (np.asarray(q, float) + s2) / 2.0))

