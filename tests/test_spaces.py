import numpy as np
import pytest
from scipy import integrate, optimize, special

from doublephase import flux, spaces
from doublephase.fields import ExponentData, make_field
from doublephase.galerkin import build_basis


def grid2(order=24):
    return spaces.tensor_gauss_legendre(2, order)


def data_const(p=1.8, q=2.2, a=0.5, b=0.5, alpha=0.9, dim=2):
    return ExponentData(dim=dim, horizon=0.1, p=make_field(p, dim), q=make_field(q, dim),
                        a=make_field(a, dim), b=make_field(b, dim), alpha=alpha,
                        lipschitz_probe_resolution=9, time_probe_resolution=3)


def spectral_grad_field(grid, coeffs_rows, m_per_dim=4, scale=1.0):
    basis = build_basis(2, m_per_dim)
    gp = basis.gradients(grid.space_nodes)
    vals = np.einsum("mnj,kj->kmn", gp, np.asarray(coeffs_rows)) * scale
    return spaces.SampledField(vals, grid, vector=True)


# --- quadrature grid ---------------------------------------------------------

def test_grid_invariants():
    g = grid2(8)
    assert np.all(g.space_weights > 0)
    assert g.space_weights.sum() == pytest.approx(1.0, abs=1e-13)
    st = g.with_time(np.linspace(0, 0.3, 7))
    assert st.time_weights.sum() == pytest.approx(0.3, abs=1e-13)
    with pytest.raises(ValueError):
        g.with_time([0.0, 0.0, 0.1])
    with pytest.raises(ValueError):
        g.integrate(np.ones((3, 4, 5)))


def test_sampled_field_shape_checks():
    g = grid2(4)
    spaces.SampledField(np.ones(g.n_space), g)
    spaces.SampledField(np.ones((g.n_space, 2)), g, vector=True)
    with pytest.raises(ValueError):
        spaces.SampledField(np.ones(g.n_space + 1), g)
    with pytest.raises(ValueError):
        spaces.SampledField(np.full(g.n_space, np.inf), g)


# --- modular -----------------------------------------------------------------

def test_modular_constants():
    g = grid2()
    ones = spaces.SampledField(np.ones(g.n_space), g)
    r_var = 2.0 + g.space_nodes[:, 1]
    assert spaces.modular(ones, r_var) == pytest.approx(1.0, abs=1e-13)
    twos = spaces.SampledField(2.0 * np.ones(g.n_space), g)
    assert spaces.modular(twos, np.full(g.n_space, 3.0)) == pytest.approx(8.0, abs=1e-12)


def test_modular_against_adaptive_quadrature_oracle():
    # f(x) = x1, r(x) = 2 + x1 on the unit square; the y-integral is trivial,
    # so the oracle is a 1D adaptive quadrature of x^(2+x).
    oracle, err = integrate.quad(lambda x: x ** (2.0 + x), 0.0, 1.0, epsabs=1e-13)
    assert err < 1e-8  # the integrand has log-type endpoint derivatives
    g = grid2()
    f = spaces.SampledField(g.space_nodes[:, 0], g)
    val = spaces.modular(f, 2.0 + g.space_nodes[:, 0])
    assert val == pytest.approx(oracle, abs=1e-8)


def test_modular_rejects_exponent_at_most_one():
    g = grid2(4)
    f = spaces.SampledField(np.ones(g.n_space), g)
    with pytest.raises(ValueError, match="exceed 1"):
        spaces.modular(f, np.full(g.n_space, 1.0))


# --- luxemburg norm ----------------------------------------------------------

def test_luxemburg_constant_exponent_closed_form():
    g = grid2()
    f = spaces.SampledField(3.0 * np.ones(g.n_space), g)
    lam = spaces.luxemburg_norm(f, np.full(g.n_space, 2.0), rel_tol=1e-10)
    assert lam == pytest.approx(3.0, abs=1e-10)
    zero = spaces.SampledField(np.zeros(g.n_space), g)
    assert spaces.luxemburg_norm(zero, np.full(g.n_space, 2.0)) == 0.0


def test_luxemburg_contract_and_rootfind_oracle():
    # variable exponent: the returned lambda must satisfy
    # modular(f/lambda) in [1 - 10*rel_tol, 1]; cross-check against a
    # monotone root find at double quadrature resolution
    g = grid2(24)
    f_vals = 1.0 + g.space_nodes[:, 0]
    r_vals = 2.0 + np.sin(np.pi * g.space_nodes[:, 0])
    f = spaces.SampledField(f_vals, g)
    lam = spaces.luxemburg_norm(f, r_vals, rel_tol=1e-10)
    mod = spaces.modular(spaces.SampledField(f_vals / lam, g), r_vals)
    assert 1.0 - 1e-9 <= mod <= 1.0

    g2 = grid2(48)
    fv2 = 1.0 + g2.space_nodes[:, 0]
    rv2 = 2.0 + np.sin(np.pi * g2.space_nodes[:, 0])
    lam_oracle = optimize.brentq(
        lambda lm: g2.integrate((fv2 / lm) ** rv2) - 1.0, 1e-3, 1e3, xtol=1e-13)
    assert lam == pytest.approx(lam_oracle, rel=1e-9)


def test_luxemburg_capped_constant_one_takes_a_few_evaluations(monkeypatch):
    # the embedding check's norm of 1 with the capped conjugate exponent: the
    # closed form reads modular 1 + O(1e-10) because one ulp of lambda moves
    # it by r*eps, and the bracket must close from there without doubling
    # into underflow and bisecting back
    g = grid2(8).with_time(np.linspace(0.0, 0.1, 5))
    ones = spaces.SampledField(np.ones((5, g.n_space)), g)
    r = np.full((5, g.n_space), spaces.CONJUGATE_CAP)
    calls = []
    counted = spaces._modular_allow_inf
    monkeypatch.setattr(spaces, "_modular_allow_inf", lambda *a: calls.append(1) or counted(*a))
    lam = spaces.luxemburg_norm(ones, r, rel_tol=1e-10)
    assert len(calls) <= 4
    total = g.integrate(np.ones((5, g.n_space)))
    assert lam == pytest.approx(total ** (1.0 / spaces.CONJUGATE_CAP), rel=1e-12)
    mod = spaces.modular(spaces.SampledField(ones.values / lam, g), r)
    assert 1.0 - 1e-9 <= mod <= 1.0


def test_luxemburg_with_a_few_capped_nodes_matches_a_log_space_root_find():
    # Holder's conjugate exponent with r -> 1 at a few nodes: r' jumps from
    # about 2 to CONJUGATE_CAP, so log modular(f/lam) has slopes 2 and 1e6
    g = grid2(16)
    x = g.space_nodes[:, 0]
    base = 2.0 + np.sin(np.pi * x)
    base[::37] = 1.0
    r = spaces.conjugate_exponent(base)
    assert np.count_nonzero(r == spaces.CONJUGATE_CAP) == len(base[::37])
    f_vals = 1.0 + x
    lam = spaces.luxemburg_norm(spaces.SampledField(f_vals, g), r, rel_tol=1e-10)
    mod = spaces.modular(spaces.SampledField(f_vals / lam, g), r)
    assert 1.0 - 1e-9 <= mod <= 1.0

    # independent oracle: log modular as a log-sum-exp in u = log lam, which
    # neither overflows nor underflows, and a bracketing root find on it
    log_w, log_f = np.log(g.space_weights), np.log(f_vals)
    u_root = optimize.brentq(lambda u: special.logsumexp(log_w + r * (log_f - u)),
                             -5.0, 5.0, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    assert lam == pytest.approx(np.exp(u_root), rel=1e-12)


def test_luxemburg_bracket_steps_at_most_a_factor_two():
    # the modular overflows at lam = 1 and reads e^689 at lam = 2, all of it
    # from the capped nodes: the slope bound from there, log lam += 689/2,
    # would put the upper end near 1e150, where every node underflows but
    # the r = 2 ones, and bisecting back from it does not converge
    g = grid2(4)
    capped = np.arange(g.n_space) % 2 == 0
    r = np.where(capped, spaces.CONJUGATE_CAP, 2.0)
    f_vals = np.where(capped, 2.0 * 1.00069, 0.01)
    lam = spaces.luxemburg_norm(spaces.SampledField(f_vals, g), r, rel_tol=1e-10)
    mod = spaces.modular(spaces.SampledField(f_vals / lam, g), r)
    assert 1.0 - 1e-9 <= mod <= 1.0


def test_luxemburg_bracket_failure_is_numerics_error():
    # astronomically scaled field: the modular overflows for every bracket
    # candidate, and the expansion cap must signal the pathology
    g = grid2(4)
    f = spaces.SampledField(np.full(g.n_space, 1e300), g)
    with pytest.raises(spaces.NumericsError):
        spaces.luxemburg_norm(f, np.full(g.n_space, 3.0))


def test_luxemburg_homogeneity():
    rng = np.random.default_rng(11)
    g = grid2(16)
    basis = build_basis(2, 3)
    vals = basis.values(g.space_nodes) @ rng.normal(size=basis.size)
    r = 1.8 + 0.4 * g.space_nodes[:, 0]
    f = spaces.SampledField(vals, g)
    lam = spaces.luxemburg_norm(f, r)
    for c in (0.37, 2.0, 11.5):
        scaled = spaces.SampledField(c * vals, g)
        assert spaces.luxemburg_norm(scaled, r) == pytest.approx(c * lam, rel=1e-8)


def test_norm_and_modular_co_monotone_decay():
    # f_k = f + g/k: both the norm and the modular of f_k - f decay
    # monotonically to zero
    rng = np.random.default_rng(12)
    g = grid2(16)
    basis = build_basis(2, 3)
    base = basis.values(g.space_nodes) @ rng.normal(size=basis.size)
    pert = basis.values(g.space_nodes) @ rng.normal(size=basis.size)
    r = 2.0 + 0.3 * np.sin(np.pi * g.space_nodes[:, 1])
    norms, mods = [], []
    for k in (1, 2, 4, 8, 16):
        diff = spaces.SampledField(pert / k, g)
        norms.append(spaces.luxemburg_norm(diff, r))
        mods.append(spaces.modular(diff, r))
    assert all(n2 < n1 for n1, n2 in zip(norms, norms[1:]))
    assert all(m2 < m1 for m1, m2 in zip(mods, mods[1:]))
    assert norms[-1] < 0.2 * norms[0] and mods[-1] < 1e-2 * mods[0]


# --- sandwich and Holder -----------------------------------------------------

def test_sandwich_constant_exponent_is_equality():
    g = grid2(16)
    rng = np.random.default_rng(13)
    vals = 0.5 + rng.uniform(size=g.n_space)
    rep = spaces.check_modular_norm_sandwich(
        spaces.SampledField(vals, g), np.full(g.n_space, 2.0))
    assert rep.passed
    assert rep.modular == pytest.approx(rep.norm ** 2, rel=1e-8)
    ones = spaces.SampledField(np.ones(g.n_space), g)
    rep1 = spaces.check_modular_norm_sandwich(ones, np.full(g.n_space, 2.5))
    assert rep1.modular == pytest.approx(1.0, abs=1e-12)
    assert rep1.norm == pytest.approx(1.0, abs=1e-9)


def test_sandwich_property_sweep():
    rng = np.random.default_rng(14)
    g = grid2(12)
    basis = build_basis(2, 3)
    phi = basis.values(g.space_nodes)
    r = 1.8 + 0.4 * g.space_nodes[:, 0]
    for _ in range(100):
        f = spaces.SampledField(phi @ rng.normal(size=basis.size)
                                * rng.uniform(0.1, 10.0), g)
        assert spaces.check_modular_norm_sandwich(f, r).passed


def test_holder_pairing_sweep():
    rng = np.random.default_rng(15)
    g = grid2(12)
    basis = build_basis(2, 3)
    phi = basis.values(g.space_nodes)
    for _ in range(100):
        f = spaces.SampledField(phi @ rng.normal(size=basis.size), g)
        gg = spaces.SampledField(phi @ rng.normal(size=basis.size), g)
        r = rng.uniform(1.3, 3.0) + rng.uniform(0.0, 0.4) * g.space_nodes[:, 0]
        assert spaces.holder_pairing_check(f, gg, r).passed


def test_holder_trivial_cases():
    g = grid2(8)
    f = spaces.SampledField(np.ones(g.n_space), g)
    zero = spaces.SampledField(np.zeros(g.n_space), g)
    rep = spaces.holder_pairing_check(f, zero, np.full(g.n_space, 2.0))
    assert rep.pairing == 0.0 and rep.passed
    # Cauchy-Schwarz with slack factor 2
    rep2 = spaces.holder_pairing_check(f, f, np.full(g.n_space, 2.0))
    assert rep2.pairing == pytest.approx(1.0, abs=1e-12)
    assert rep2.slack == pytest.approx(1.0, abs=1e-8)


# --- musielak modular --------------------------------------------------------

def test_musielak_modular_cases_and_oracle():
    g = grid2(30)
    d = data_const(p=1.8, q=2.2, a=0.5, b=0.5)
    zero = spaces.SampledField(np.zeros(g.n_space), g)
    assert spaces.musielak_modular(zero, d) == 0.0
    ones = spaces.SampledField(np.ones(g.n_space), g)
    assert spaces.musielak_modular(ones, d) == pytest.approx(2.0, abs=1e-12)

    u_vals = np.sin(np.pi * g.space_nodes[:, 0]) * np.sin(np.pi * g.space_nodes[:, 1])
    got = spaces.musielak_modular(spaces.SampledField(u_vals, g), d)
    o1 = integrate.dblquad(
        lambda y, x: (np.sin(np.pi * x) * np.sin(np.pi * y)) ** 2,
        0, 1, 0, 1, epsabs=1e-12)[0]
    o2 = integrate.dblquad(
        lambda y, x: (np.sin(np.pi * x) * np.sin(np.pi * y)) ** 2.2,
        0, 1, 0, 1, epsabs=1e-12)[0]
    oracle = 1.5 * o1 + 0.5 * o2
    assert got == pytest.approx(oracle, abs=1e-8)


# --- composite modulars over the cylinder ------------------------------------

def st_grid(order=12, nt=6, horizon=0.1):
    return spaces.tensor_gauss_legendre(2, order).with_time(np.linspace(0, horizon, nt))


def test_composite_N_cases_and_decomposition():
    d = data_const(p=2.0, q=2.2, a=1.0, b=0.0)
    g = st_grid()
    zero = spaces.SampledField(np.zeros((6, g.n_space, 2)), g, vector=True)
    assert spaces.composite_N(zero, d) == 0.0
    const = spaces.SampledField(
        np.broadcast_to(np.array([1.0, 0.0]), (6, g.n_space, 2)).copy(), g, vector=True)
    assert spaces.composite_N(const, d) == pytest.approx(0.1, abs=1e-12)

    rng = np.random.default_rng(16)
    d2 = data_const(p=1.9, q=2.1, a=0.3, b=0.7)
    gw = spectral_grad_field(g, rng.normal(size=(6, 16)))
    total = spaces.composite_N(gw, d2)
    # decomposition: the same value from two single-term data sets
    d_a = data_const(p=1.9, q=2.1, a=0.3, b=0.0, alpha=0.1)
    d_b = data_const(p=1.9, q=2.1, a=0.0, b=0.7, alpha=0.1)
    assert total == pytest.approx(spaces.composite_N(gw, d_a)
                                  + spaces.composite_N(gw, d_b), rel=1e-12)


def test_pairing_G_eps_properties():
    rng = np.random.default_rng(17)
    g = st_grid()
    d = data_const(p=1.9, q=2.1, a=0.3, b=0.7)
    gu = spectral_grad_field(g, rng.normal(size=(6, 16)))
    assert spaces.pairing_G_eps(gu, gu, 0.1, d) == 0.0
    # linear flux: the pairing is exactly the squared-difference energy
    d_lin = data_const(p=2.0, q=2.0, a=0.4, b=0.6)
    gv = spectral_grad_field(g, rng.normal(size=(6, 16)))
    diff = spaces.SampledField(gu.values - gv.values, g, vector=True)
    expect = g.integrate(np.sum(diff.values ** 2, axis=-1))
    assert spaces.pairing_G_eps(gu, gv, 0.37, d_lin) == pytest.approx(expect, rel=1e-12)
    # nonnegativity sweep
    for _ in range(100):
        gu = spectral_grad_field(g, rng.normal(size=(6, 16)))
        gv = spectral_grad_field(g, rng.normal(size=(6, 16)))
        assert spaces.pairing_G_eps(gu, gv, rng.uniform(0, 0.9), d) >= 0.0


def test_embedding_bound_sampled_fields():
    rng = np.random.default_rng(18)
    g = st_grid()
    d = data_const(p=1.8, q=2.1, a=0.4, b=0.6)
    for scale in (0.1, 1.0, 10.0):
        gu = spectral_grad_field(g, rng.normal(size=(6, 16)), scale=scale)
        rep = spaces.embedding_bound_check(gu, d)
        assert rep.passed, (rep.lhs, rep.rhs)


def test_monotone_envelope_assembled_constant():
    rng = np.random.default_rng(19)
    g = st_grid()
    d = data_const(p=1.8, q=2.1, a=0.4, b=0.6)
    for _ in range(10):
        gu = spectral_grad_field(g, rng.normal(size=(6, 16)))
        gv = spectral_grad_field(g, rng.normal(size=(6, 16)))
        rep = spaces.monotone_envelope_check(gu, gv, rng.uniform(0.0, 0.5), d)
        assert rep.passed, (rep.lhs, rep.rhs)
        assert rep.pairing >= 0.0


def test_vanishing_pairing_forces_vanishing_modular():
    # interpolate grad v_k = grad u + (grad v - grad u)/k: the pairing and the
    # gradient modular both decay monotonically to zero
    rng = np.random.default_rng(20)
    g = st_grid()
    d = data_const(p=1.9, q=2.1, a=0.5, b=0.5)
    gu = spectral_grad_field(g, rng.normal(size=(6, 16)))
    gv = spectral_grad_field(g, rng.normal(size=(6, 16)))
    x = g.space_nodes
    s_low = np.stack([np.minimum(d.p(x, t), d.q(x, t)) for t in g.time_nodes])
    pairings, mods = [], []
    for k in (1, 2, 4, 8):
        vk = spaces.SampledField(gu.values + (gv.values - gu.values) / k, g, vector=True)
        pairings.append(spaces.pairing_G_eps(gu, vk, 0.05, d))
        diff = np.sqrt(np.sum((gu.values - vk.values) ** 2, axis=-1))
        mods.append(g.integrate(flux.powf(diff, s_low)))
    assert all(p2 < p1 for p1, p2 in zip(pairings, pairings[1:]))
    assert all(m2 < m1 for m1, m2 in zip(mods, mods[1:]))
    assert pairings[-1] < 0.05 * pairings[0] and mods[-1] < 0.05 * mods[0]
