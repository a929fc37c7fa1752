import warnings

import numpy as np
import pytest

from doublephase import flux
from doublephase.fields import ExponentData, make_field


def data_const(p=1.8, q=2.2, a=0.5, b=0.5, dim=2):
    return ExponentData(dim=dim, horizon=0.1, p=make_field(p, dim), q=make_field(q, dim),
                        a=make_field(a, dim), b=make_field(b, dim), alpha=0.9,
                        lipschitz_probe_resolution=9, time_probe_resolution=3)


def test_beta_eps_values():
    assert flux.beta_eps(np.zeros(2), 0.1) == pytest.approx(0.01)
    assert flux.beta_eps(np.array([3.0, 4.0]), 0.0) == pytest.approx(25.0)


def test_beta_interchange_sandwich_exact():
    # |xi|^(2 mu) <= beta^mu <= 2^mu (1 + |xi|^(2 mu)), no slack allowed
    rng = np.random.default_rng(1)
    n = 100_000
    xi = rng.normal(scale=2.0, size=(n, 2))
    mu = rng.uniform(0.05, 4.0, size=n)
    eps = rng.uniform(0.0, 0.999, size=n)
    beta_mu = flux.powf(flux.beta_eps(xi, eps), mu)
    mag2mu = flux.powf(np.sum(xi * xi, axis=-1), mu)
    assert np.all(mag2mu <= beta_mu)
    assert np.all(beta_mu <= 2.0 ** mu * (1.0 + mag2mu))


def _short_axis_pairs(rng, n):
    """(x, y) with n last-axis components: contiguous, broadcast over the leading axes, sliced."""
    x = rng.normal(size=(6, 50, n)) * 10.0 ** rng.uniform(-8, 8, size=(6, 50, n))
    return [(x, rng.normal(size=(6, 50, n))),
            (rng.normal(size=(50, n)), rng.normal(size=(6, 1, n))),
            (rng.normal(size=(6, 50, 2 * n))[..., ::2], x[::-1, :, ::-1])]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dot_last_equals_the_reduction_bitwise(n):
    rng = np.random.default_rng(n)
    for x, y in _short_axis_pairs(rng, n):
        assert np.array_equal(flux._dot_last(x, y), np.sum(x * y, axis=-1))
    # a sum of negative zeros keeps its sign; np.sum's starts from +0.0
    zeros = np.array([[-0.0] * n, [0.0] * n])
    assert np.signbit(flux._dot_last(zeros, np.ones(n))).tolist() == [True, False]
    assert not np.signbit(np.sum(zeros * np.ones(n), axis=-1)).any()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dot_last_over_flattened_hessians(dim):
    # the interpolation monitor sums D^2 u squared over its N^2 entries this way
    h = np.random.default_rng(dim).normal(size=(5, 40, dim, dim))
    flat = h.reshape(h.shape[:-2] + (-1,))
    got, want = flux._dot_last(flat, flat), np.sum(h ** 2, axis=(-2, -1))
    if dim <= 2:
        assert np.array_equal(got, want)
    else:
        # 9 entries reach numpy's pairwise sum, which adds blocks of 8 in 8
        # accumulators: the roundings differ, by a few ulp
        assert not np.array_equal(got, want)
        assert np.allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0.0)


def test_density_constant_cases():
    d = data_const(p=2.0, q=2.0, a=1.0, b=0.0)
    x = np.array([[0.3, 0.4]])
    xi = np.array([[1.7, -0.3]])
    assert flux.density_kernel(*d.sample(x, 0.0), xi, 0.2)[0] == pytest.approx(1.0)
    # merged terms when p = q: density = beta^((p-2)/2)
    d2 = data_const(p=1.8, q=1.8)
    beta = flux.beta_eps(xi, 0.2)[0]
    assert flux.density_kernel(*d2.sample(x, 0.0), xi, 0.2)[0] == pytest.approx(beta ** -0.1)


def test_null_eps_lower_bound():
    # a|xi|^(p+s1) + b|xi|^(q+s2) <= density_(s1,s2) * beta for random inputs
    rng = np.random.default_rng(2)
    n = 20_000
    xi = rng.normal(size=(n, 2))
    a = rng.uniform(0, 1, n); b = rng.uniform(0, 1, n)
    p = rng.uniform(1.2, 3.0, n); q = rng.uniform(1.2, 3.0, n)
    s1 = rng.uniform(0, 1.5, n); s2 = rng.uniform(0, 1.5, n)
    eps = rng.uniform(1e-4, 0.99, n)
    beta = flux.beta_eps(xi, eps)
    dens = flux.density_kernel(a, b, p, q, xi, eps, s1, s2)
    mag = np.sqrt(np.sum(xi * xi, axis=-1))
    lower = a * flux.powf(mag, p + s1) + b * flux.powf(mag, q + s2)
    assert np.all(lower <= dens * beta * (1 + 1e-12))


def test_null_eps_two_branch_bound():
    # density*beta <= branch constant on |xi| <= eps, <= 2*density*|xi|^2 beyond
    rng = np.random.default_rng(3)
    n = 50_000
    eps = rng.uniform(1e-3, 0.99, n)
    scale = np.where(rng.uniform(size=n) < 0.5, eps, 3.0)
    xi = rng.normal(size=(n, 2)) * scale[:, None]
    a = rng.uniform(0, 1, n); b = rng.uniform(0, 1, n)
    p = rng.uniform(1.2, 3.0, n); q = rng.uniform(1.2, 3.0, n)
    s1 = rng.uniform(0, 1.0, n); s2 = rng.uniform(0, 1.0, n)
    beta = flux.beta_eps(xi, eps)
    dens = flux.density_kernel(a, b, p, q, xi, eps, s1, s2)
    mag_sq = np.sum(xi * xi, axis=-1)
    small = mag_sq <= eps ** 2
    branch = flux.null_eps_branch_bound(a, b, p, q, eps, s1, s2)
    lhs = dens * beta
    assert np.all(lhs[small] <= branch[small] * (1 + 1e-12))
    assert np.all(lhs[~small] <= 2.0 * (dens * mag_sq)[~small] * (1 + 1e-12))
    # combined form with the eps < 1 constant
    cap = (a * flux.powf(np.full(n, 2.0), (p + s1) / 2.0)
           + b * flux.powf(np.full(n, 2.0), (q + s2) / 2.0))
    assert np.all(lhs <= cap + 2.0 * dens * mag_sq + 1e-12)


def test_flux_vector_cases_and_extension():
    d = data_const(p=2.0, q=2.0, a=0.6, b=0.4)
    x = np.array([[0.2, 0.9]])
    xi = np.array([[0.0, 0.0]])
    fields = d.sample(x, 0.0)
    assert np.allclose(flux.vector_kernel(*fields, xi, 0.3), 0.0)
    xi = np.array([[1.2, -0.7]])
    assert np.allclose(flux.vector_kernel(*fields, xi, 0.3), xi)  # a+b = 1, p = q = 2
    # continuous extension by zero at the degenerate point
    fields2 = data_const(p=1.5, q=1.7).sample(x, 0.0)
    assert np.allclose(flux.vector_kernel(*fields2, np.zeros((1, 2)), 0.0), 0.0)
    with pytest.raises(flux.FluxSingularityError):
        flux.density_kernel(*fields2, np.zeros((1, 2)), 0.0)


def test_flux_vector_is_energy_gradient():
    rng = np.random.default_rng(5)
    d = data_const(p=1.7, q=2.3, a=0.4, b=0.6)
    x = rng.uniform(0.1, 0.9, size=(20, 2))
    xi = rng.normal(size=(20, 2))
    eps = 0.15
    h = 1e-6
    fields = d.sample(x, 0.05)
    fv = flux.vector_kernel(*fields, xi, eps)
    for dim in range(2):
        e = np.zeros(2); e[dim] = h
        fd = (flux.energy_kernel(*fields, xi + e, eps)
              - flux.energy_kernel(*fields, xi - e, eps)) / (2 * h)
        assert np.allclose(fd, fv[:, dim], rtol=1e-6, atol=1e-8)


def test_flux_jacobian_symmetry_psd_and_fd():
    rng = np.random.default_rng(6)
    d = data_const(p=1.6, q=2.4, a=0.7, b=0.3)
    x = rng.uniform(0.1, 0.9, size=(30, 2))
    xi = rng.normal(size=(30, 2)) * rng.uniform(0.01, 3.0, size=(30, 1))
    eps = 0.05
    fields = d.sample(x, 0.02)
    jac = flux.jacobian_kernel(*fields, xi, eps)
    assert np.allclose(jac, np.swapaxes(jac, -1, -2), atol=1e-12)
    eig = np.linalg.eigvalsh(jac)
    assert np.all(eig >= -1e-12)
    h = 1e-6
    for dim in range(2):
        e = np.zeros(2); e[dim] = h
        fd = (flux.vector_kernel(*fields, xi + e, eps)
              - flux.vector_kernel(*fields, xi - e, eps)) / (2 * h)
        scale = np.abs(jac[:, :, dim]).max()
        assert np.allclose(fd, jac[:, :, dim], rtol=1e-5, atol=1e-5 * scale)
    with pytest.raises(ValueError):
        flux.jacobian_kernel(*fields, xi, 0.0)


def test_identity_jacobian_for_linear_flux():
    d = data_const(p=2.0, q=2.0, a=0.5, b=0.5)
    x = np.array([[0.4, 0.6]])
    xi = np.array([[0.3, -1.1]])
    jac = flux.jacobian_kernel(*d.sample(x, 0.0), xi, 0.2)
    assert np.allclose(jac[0], np.eye(2), atol=1e-14)


def _masked_term(coef, exponent, beta):
    # reference term: broadcast, then take the power only where the
    # coefficient is nonzero (a boolean-mask gather and scatter)
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    coef = np.broadcast_to(np.asarray(coef, dtype=float), beta.shape)
    exponent = np.broadcast_to(np.asarray(exponent, dtype=float), beta.shape)
    out = np.zeros_like(beta)
    live = coef != 0.0
    out[live] = coef[live] * flux.powf(beta[live], exponent[live])
    return out


def _masked_kernels(a, b, p, q, xi, eps):
    beta = eps ** 2 + np.sum(xi * xi, axis=-1)
    dens = _masked_term(a, (p - 2.0) / 2.0, beta) + _masked_term(b, (q - 2.0) / 2.0, beta)
    rank1 = (_masked_term(a * (p - 2.0), (p - 4.0) / 2.0, beta)
             + _masked_term(b * (q - 2.0), (q - 4.0) / 2.0, beta))
    jac = (dens[..., None, None] * np.eye(xi.shape[-1])
           + rank1[..., None, None] * (xi[..., :, None] * xi[..., None, :]))
    return dens[..., None] * xi, dens, jac


@pytest.mark.parametrize("seed", range(4))
def test_kernels_match_the_masked_definition(seed):
    rng = np.random.default_rng(seed)
    n, dim = 3000, 2 + seed % 2
    a = rng.uniform(0.0, 2.0, n) * (rng.uniform(size=n) < 0.7)  # a = 0 at ~30 %
    b = rng.uniform(0.0, 2.0, n) * (rng.uniform(size=n) < 0.7)
    p, q = rng.uniform(1.05, 4.5, size=(2, n))
    # gradients on two time levels over the same nodes, as diagnostics passes them
    xi = rng.normal(size=(2, n, dim)) * 10.0 ** rng.uniform(-4, 2, size=(2, n, 1))
    eps = 10.0 ** rng.uniform(-6, -0.1)
    vec, dens, jac = _masked_kernels(a, b, p, q, xi, eps)
    assert np.array_equal(flux.vector_kernel(a, b, p, q, xi, eps), vec)
    assert np.array_equal(flux.density_kernel(a, b, p, q, xi, eps), dens)
    got = flux.jacobian_kernel(a, b, p, q, xi, eps)
    # beta^((p-4)/2) against beta^((p-2)/2)/beta: the exponents round apart,
    # which moves the power by about one ulp times |ln beta|
    log_beta = np.abs(np.log(eps ** 2 + np.sum(xi * xi, axis=-1)))
    scale = np.abs(jac).max(axis=(-2, -1)) * np.maximum(1.0, log_beta)
    assert np.all(np.abs(got - jac) <= 1e-15 * scale[..., None, None])


def _wrapped_vector_kernel(a, b, p, q, xi, eps):
    """vector_kernel as it read with one errstate per power and per term."""
    def powf(base, exponent):
        with np.errstate(over="ignore", divide="ignore"):
            return np.power(np.asarray(base, dtype=float), exponent)

    def term(coef, exponent, beta):
        coef = np.asarray(coef, dtype=float)
        with np.errstate(invalid="ignore"):
            return np.where(coef != 0.0, coef * powf(beta, exponent), 0.0)

    xi = np.asarray(xi, dtype=float)
    beta = np.asarray(eps, dtype=float) ** 2 + sum(xi[..., i] * xi[..., i]
                                                  for i in range(xi.shape[-1]))
    dens = term(a, (np.asarray(p) - 2.0) / 2.0, beta) + term(b, (np.asarray(q) - 2.0) / 2.0, beta)
    return np.where(beta > 0.0, dens, 0.0)[..., None] * xi


@pytest.mark.parametrize("eps", [0.0, 1e-200, 1e-3, 0.3])
@pytest.mark.parametrize("seed", range(3))
def test_vector_kernel_equals_the_wrapped_formula_bitwise(seed, eps):
    rng = np.random.default_rng(seed)
    n, dim = 4000, 2 + seed % 2
    a = rng.uniform(0.0, 2.0, n) * (rng.uniform(size=n) < 0.7)  # zero coefficients
    b = rng.uniform(0.0, 2.0, n) * (rng.uniform(size=n) < 0.7)
    p, q = rng.uniform(1.05, 4.5, size=(2, n))  # half-exponents of both signs
    xi = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-6, 2, size=(n, 1))
    xi[::7] = 0.0  # beta = 0 at eps = 0 (and at eps = 1e-200, whose square underflows)
    xi[3::11] *= 1e120  # the power overflows where p or q is large
    xi[5::13] = 1e200  # beta itself overflows
    with np.errstate(all="ignore"):
        got = flux.vector_kernel(a, b, p, q, xi, eps)
        bound = flux.vector_kernel(a, b, p, q, xi, eps, ((p - 2.0) / 2.0, (q - 2.0) / 2.0))
        want = _wrapped_vector_kernel(a, b, p, q, xi, eps)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes() == bound.tobytes()


def test_zero_coefficient_term_is_zero_where_the_power_overflows():
    xi = np.array([1e200, 0.0])
    with np.errstate(over="ignore"):  # beta itself overflows to inf
        alone = flux.density_kernel(0.0, 0.0, 4.0, 1.5, xi, 0.1)
        dens = flux.density_kernel(0.0, 0.5, 4.0, 1.5, xi, 0.1)
        vec = flux.vector_kernel(0.0, 0.5, 4.0, 1.5, xi, 0.1)
    assert alone == 0.0
    assert dens == 0.0  # the q-term decays, the p-term adds 0, not NaN
    assert np.array_equal(vec, np.zeros(2))


def test_degenerate_point_rules_at_eps_zero():
    rng = np.random.default_rng(11)
    n = 50
    a, b = rng.uniform(0.2, 1.0, size=(2, n))
    p, q = rng.uniform(1.2, 1.9, size=(2, n))  # negative density exponents
    xi = rng.normal(size=(n, 2))
    xi[::3] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no inf * 0 on the way
        vec = flux.vector_kernel(a, b, p, q, xi, 0.0)
    assert np.array_equal(vec[::3], np.zeros_like(vec[::3]))
    live = np.any(xi != 0.0, axis=-1)
    oracle = _masked_kernels(a[live], b[live], p[live], q[live], xi[live], 0.0)[0]
    assert np.array_equal(vec[live], oracle)
    with pytest.raises(flux.FluxSingularityError):
        flux.density_kernel(a, b, p, q, xi, 0.0)
    with pytest.raises(ValueError):
        flux.jacobian_kernel(a, b, p, q, xi, 0.0)


def test_monotonicity_gap_cases():
    xi = np.array([0.5, -0.2])
    assert flux.monotonicity_gap(xi, xi, 2.7, 0.1) == pytest.approx(0.0)
    eta = np.array([-1.0, 0.4])
    s2 = flux.monotonicity_gap(xi, eta, 2.0, 0.37)
    assert s2 == pytest.approx(np.sum((xi - eta) ** 2))
    assert flux.monotonicity_gap(np.zeros(2), np.zeros(2), 1.5, 0.0) == pytest.approx(0.0)


def test_monotonicity_gap_sweep_nonnegative_and_p_ge_2_branch():
    rng = np.random.default_rng(7)
    n = 100_000
    xi = rng.normal(scale=1.5, size=(n, 2))
    eta = rng.normal(scale=1.5, size=(n, 2))
    p = rng.uniform(1.05, 4.5, n)
    eps = rng.uniform(0.0, 0.99, n)
    gap = flux.monotonicity_gap(xi, eta, p, eps)
    assert np.all(gap >= 0.0)
    mask = p >= 2.0
    lower = flux.gap_lower_bound(xi, eta, p, eps)
    assert np.all(gap[mask] >= lower[mask] * (1 - 1e-12) - 1e-15)


def test_gap_power_bound_p3_constant_by_ratio_search():
    # |xi-eta|^3 <= 2 C_3 gap with C_3 = max(1, 2^(3-3)) = 1; brute-force the ratio
    rng = np.random.default_rng(8)
    n = 100_000
    xi = rng.normal(scale=2.0, size=(n, 2))
    eta = rng.normal(scale=2.0, size=(n, 2))
    gap = flux.monotonicity_gap(xi, eta, 3.0, 0.0)
    diff = np.sum((xi - eta) ** 2, axis=-1) ** 1.5
    live = gap > 0
    ratio = diff[live] / gap[live]
    c3 = flux.sum_power_constant(3.0)
    assert c3 == 1.0
    assert ratio.max() <= 2.0 * c3 * (1 + 1e-10)


def test_singular_branch_constant_reported():
    # for p < 2 the gap dominates (p-1)|xi-eta|^2 (eps^2+|xi|^2+|eta|^2)^((p-2)/2);
    # the calibrated half-constant must hold on a large sample
    rng = np.random.default_rng(9)
    n = 100_000
    xi = rng.normal(size=(n, 2)) * rng.uniform(1e-3, 3.0, size=(n, 1))
    eta = rng.normal(size=(n, 2)) * rng.uniform(1e-3, 3.0, size=(n, 1))
    p = rng.uniform(1.05, 1.999, n)
    eps = rng.uniform(0.0, 0.99, n)
    gap = flux.monotonicity_gap(xi, eta, p, eps)
    weight = flux.powf(eps ** 2 + np.sum(xi * xi, -1) + np.sum(eta * eta, -1),
                       (p - 2.0) / 2.0)
    lower_full = (p - 1.0) * np.sum((xi - eta) ** 2, -1) * weight
    violations = np.sum(gap < 0.5 * lower_full * (1 - 1e-10) - 1e-300)
    assert violations == 0
    live = lower_full > 0
    empirical = float((gap[live] / lower_full[live]).min())
    assert empirical > 0.5  # reported calibration headroom


def test_energy_density_convexity():
    rng = np.random.default_rng(10)
    d = data_const(p=1.5, q=2.5, a=0.5, b=0.5)
    x = rng.uniform(0.1, 0.9, size=(200, 2))
    xi = rng.normal(size=(200, 2)); eta = rng.normal(size=(200, 2))
    lam = rng.uniform(0, 1, size=200)
    mid = lam[:, None] * xi + (1 - lam[:, None]) * eta
    fields = d.sample(x, 0.0)
    e_mid = flux.energy_kernel(*fields, mid, 0.2)
    bound = (lam * flux.energy_kernel(*fields, xi, 0.2)
             + (1 - lam) * flux.energy_kernel(*fields, eta, 0.2))
    scale = np.maximum(1.0, np.abs(bound))
    assert np.all(e_mid <= bound + 1e-12 * scale)
