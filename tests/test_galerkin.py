import gc
import math
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from doublephase import diagnostics, flux, galerkin, runner, spaces
from doublephase.fields import ExponentData, Field, ValidationError, make_field, tensor_points
from doublephase.galerkin import (
    _CHUNK, EigenBasis, SolverConfig, SolverError, StepFailure, Workspace,
    build_basis, manufactured_source, mode_basis, solve, step_implicit,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
LAM11 = 2.0 * math.pi ** 2


def data_const(p=2.0, q=2.0, a=0.5, b=0.5, alpha=0.9, dim=2):
    return ExponentData(dim=dim, horizon=0.1, p=make_field(p, dim), q=make_field(q, dim),
                        a=make_field(a, dim), b=make_field(b, dim), alpha=alpha,
                        lipschitz_probe_resolution=9, time_probe_resolution=3)


def mode_field(coeffs, dim=2):
    return make_field({"family": "modes", "coeffs": coeffs}, dim)


ZERO2 = make_field(0.0, 2)


def test_basis_eigenvalues_and_ordering():
    b2 = build_basis(2, 3)
    assert np.allclose(b2.modes[0], [1, 1])
    assert b2.eigenvalues[0] == pytest.approx(2 * math.pi ** 2)
    assert np.all(np.diff(b2.eigenvalues) >= -1e-12)
    b1 = build_basis(1, 4)
    assert b1.eigenvalues[2] == pytest.approx(9 * math.pi ** 2)


def test_basis_orthonormal_under_solver_quadrature():
    # first 16 modes: Gram matrix equals identity to 1e-10, stiffness is
    # diagonal with the eigenvalues
    basis = build_basis(2, 4)
    grid = spaces.tensor_gauss_legendre(2, SolverConfig(4, 0.1, 0.1).resolved_quad_order)
    phi = basis.values(grid.space_nodes)
    gram = phi.T @ (grid.space_weights[:, None] * phi)
    assert np.abs(gram - np.eye(basis.size)).max() < 1e-10
    gp = basis.gradients(grid.space_nodes)
    stiff = np.einsum("mnj,mnl,m->jl", gp, gp, grid.space_weights, optimize=True)
    assert np.abs(stiff - np.diag(basis.eigenvalues)).max() < 1e-8 * basis.eigenvalues.max()


def _direct_trig(basis, x):
    angles = np.pi * x[:, None, :] * basis.modes[None, :, :]
    return np.sin(angles), np.cos(angles)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("m_per_dim", [1, 4, 16])
def test_trig_tables_equal_direct_formula_bitwise(dim, m_per_dim):
    basis = build_basis(dim, m_per_dim)
    x = np.random.default_rng(dim * 100 + m_per_dim).uniform(size=(7, dim))
    for got, want in zip(basis._trig(x), _direct_trig(basis, x)):
        assert got.shape == (7, basis.size, dim)
        assert np.array_equal(got, want)


def test_trig_tables_of_single_mode_basis_equal_direct_formula_bitwise():
    k = np.array([[3, 1]])  # the one-mode basis as manufactured_source builds it
    basis = EigenBasis(dim=2, m_per_dim=3, modes=k,
                       eigenvalues=np.pi ** 2 * np.sum(k ** 2, axis=-1).astype(float))
    x = np.random.default_rng(31).uniform(size=(50, 2))
    for got, want in zip(basis._trig(x), _direct_trig(basis, x)):
        assert got.shape == (50, 1, 2)
        assert np.array_equal(got, want)


def test_tables_across_a_chunk_boundary_equal_one_chunk_row_for_row():
    # every row of a table over several chunks equals the same row evaluated
    # in a chunk of its own, on either side of the boundary and across it
    basis = build_basis(2, 3)
    x = np.random.default_rng(5).uniform(size=(_CHUNK + 1, 2))
    for got, want in zip(basis._trig(x), _direct_trig(basis, x)):
        assert np.array_equal(got, want)
    for method in ("values", "gradients", "hessians"):
        table = getattr(basis, method)
        whole = table(x)
        for rows in (slice(0, _CHUNK), slice(_CHUNK, None), slice(_CHUNK - 2, _CHUNK + 1)):
            assert np.array_equal(whole[rows], table(x[rows]))


def _sine_product(basis, x):
    """2^(N/2) * (sin_0 * sin_1 * ...) from the direct angles, multiplied in axis order."""
    s = _direct_trig(basis, x)[0]
    prod = s[..., 0]
    for d in range(1, basis.dim):
        prod = prod * s[..., d]
    return 2.0 ** (basis.dim / 2.0) * prod


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("m_per_dim", [1, 4])
def test_values_equal_normed_sine_product_bitwise(dim, m_per_dim):
    basis = build_basis(dim, m_per_dim)
    x = np.random.default_rng(dim + 10 * m_per_dim).uniform(size=(40, dim))
    assert np.array_equal(basis.values(x), _sine_product(basis, x))
    single = mode_basis([(3,) * dim], dim)
    assert np.array_equal(single.values(x), _sine_product(single, x))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_line_tables_equal_sqrt2_formula_bitwise(dim):
    basis = build_basis(dim, 5)
    axis = np.random.default_rng(dim).uniform(size=13)
    kpi = np.pi * np.arange(1, 6)
    angles = np.pi * axis[:, None] * np.arange(1, 6)
    v = 2.0 ** 0.5 * np.sin(angles)
    want = np.stack([v, (2.0 ** 0.5 * kpi) * np.cos(angles), -(kpi ** 2) * v])
    assert np.array_equal(basis.line_tables(axis), want)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hessians_are_exactly_symmetric(dim):
    basis = build_basis(dim, 4)
    x = np.random.default_rng(7 * dim).uniform(size=(30, dim))
    hess = basis.hessians(x)
    assert np.array_equal(hess, np.swapaxes(hess, 1, 2))


@pytest.mark.parametrize("method, shape", [
    ("values", (0, 9)), ("gradients", (0, 2, 9)), ("hessians", (0, 2, 2, 9))])
def test_basis_tables_on_zero_points_are_empty(method, shape):
    basis = build_basis(2, 3)
    assert getattr(basis, method)(np.zeros((0, 2))).shape == shape


def _assert_lattice_matches_dense(basis, axis, coeffs):
    x = tensor_points(axis, basis.dim)
    lines = basis.line_tables(axis)
    dense = (basis.values(x), basis.gradients(x), basis.hessians(x))
    for order, table in enumerate(dense):
        want = np.moveaxis(np.tensordot(table, np.atleast_2d(coeffs), axes=([-1], [-1])), -1, 0)
        want = want if coeffs.ndim == 2 else want[0]
        got = basis.lattice(lines, coeffs, order)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("m_per_dim", [1, 4, 16])
@pytest.mark.parametrize("rows", [1, 3])
def test_lattice_equals_dense_tables_on_tensor_points(dim, m_per_dim, rows):
    basis = build_basis(dim, m_per_dim)
    rng = np.random.default_rng(100 * dim + m_per_dim)
    axis = rng.uniform(size={1: 9, 2: 7, 3: 4}[dim])
    _assert_lattice_matches_dense(basis, axis, rng.normal(size=(rows, basis.size)))


def test_lattice_of_single_mode_basis_equals_dense_tables():
    basis = mode_basis([(1, 1)], 2)  # the basis manufactured_source builds by default
    _assert_lattice_matches_dense(basis, np.linspace(0.0, 1.0, 11), np.array([[0.7], [-2.0]]))
    _assert_lattice_matches_dense(mode_basis([(3, 1)], 2), np.linspace(0.0, 1.0, 11),
                                  np.array([1.3]))


@pytest.mark.parametrize("dim, m_per_dim", [(1, 4), (2, 3), (2, 16), (3, 3)])
def test_workspace_contractions_equal_dense_forms(dim, m_per_dim):
    basis = build_basis(dim, m_per_dim)
    grid = spaces.tensor_gauss_legendre(dim, SolverConfig(m_per_dim, 0.1, 0.1).resolved_quad_order)
    field = make_field({"family": "bump", "amp": 1.0, "center": [0.3] * dim}, dim)
    ws = Workspace(basis, grid, sources=[field])
    x, w = grid.space_nodes, grid.space_weights
    phi, gp = basis.values(x), basis.gradients(x)
    rng = np.random.default_rng(dim * 10 + m_per_dim)
    coeffs = rng.normal(size=basis.size)
    fvec = rng.normal(size=(x.shape[0], dim))

    def close(got, want):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    close(ws.gradient_of(coeffs), np.tensordot(gp, coeffs, axes=([2], [0])))
    close(ws.stiffness(fvec), np.einsum("mn,mnj->j", w[:, None] * fvec, gp))
    close(ws.source_vectors([0], 0.0)[0], phi.T @ (w * field(x, 0.0)))
    close(ws.project(field), phi.T @ (w * field(x, 0.0)))


def test_evaluate_on_zero_points_is_empty():
    basis = build_basis(2, 3)
    coeffs = np.ones(basis.size)
    none = np.zeros((0, 2))
    u, grad = basis.values(none) @ coeffs, basis.gradients(none) @ coeffs
    assert u.shape == (0,) and grad.shape == (0, 2)


def test_project_initial_eigenmode_and_zero():
    basis = build_basis(2, 4)
    ws = Workspace(basis, spaces.tensor_gauss_legendre(2, 18))
    coeffs = ws.project(mode_field([[1, 1, 1.0]]))
    expect = np.zeros(basis.size); expect[0] = 1.0
    assert np.abs(coeffs - expect).max() < 1e-10
    assert np.abs(ws.project(ZERO2)).max() == 0.0


def test_project_refuses_a_datum_not_finite_on_the_nodes():
    ws = Workspace(build_basis(2, 2), spaces.tensor_gauss_legendre(2, 8))
    nan_at_one_node = galerkin.Field(dim=2, descriptor={},
                                     _fn=lambda x, t: np.where(np.arange(len(x)) == 3, np.nan, 1.0))
    with pytest.raises(ValueError, match="not finite"):
        ws.project(nan_at_one_node)


def test_project_initial_bubble_against_sine_series_oracle():
    # u0 = x1(1-x1)x2(1-x2): the coefficient of mode (k1,k2) factorizes into
    # 1D sine coefficients 4*sqrt(2)/(pi^3 k^3) for odd k, 0 for even k
    basis = build_basis(2, 5)
    grid = spaces.tensor_gauss_legendre(2, 24)
    u0 = make_field({"family": "bubble", "amp": 1.0}, 2)
    coeffs = Workspace(basis, grid).project(u0)

    def coeff_1d(k):
        return 4.0 * math.sqrt(2.0) / (math.pi ** 3 * k ** 3) if k % 2 == 1 else 0.0

    expect = np.array([coeff_1d(k1) * coeff_1d(k2) for k1, k2 in basis.modes])
    assert np.abs(coeffs - expect).max() < 1e-8
    # Bessel: projected mass cannot exceed the datum's mass (plus quadrature slack)
    u0_sq = grid.integrate(u0(grid.space_nodes, 0.0) ** 2)
    assert coeffs @ coeffs <= u0_sq + 1e-10


def test_projection_error_modular_decreases_with_m():
    # generating-function modular of (u0 - projection) and its gradient both
    # shrink as the basis grows
    data = data_const(p=1.8, q=2.2)
    u0 = make_field({"family": "bubble", "amp": 1.0}, 2)
    grid = spaces.tensor_gauss_legendre(2, 40)
    x = grid.space_nodes
    u_vals = u0(x, 0.0)
    gx = (1.0 - 2.0 * x[:, 0]) * x[:, 1] * (1.0 - x[:, 1])
    gy = x[:, 0] * (1.0 - x[:, 0]) * (1.0 - 2.0 * x[:, 1])
    grads = np.stack([gx, gy], axis=-1)
    totals = []
    # the bubble is even about the center, so only odd-odd modes carry mass;
    # step through odd mode counts so each refinement adds content
    for m in (1, 3, 5, 7):
        basis = build_basis(2, m)
        coeffs = Workspace(basis, grid).project(u0)
        diff = basis.values(x) @ coeffs - u_vals
        gdiff = np.tensordot(basis.gradients(x), coeffs, axes=([2], [0])) - grads
        rho_u = spaces.musielak_modular(spaces.SampledField(diff, grid), data)
        rho_g = spaces.musielak_modular(
            spaces.SampledField(np.sqrt(np.sum(gdiff ** 2, -1)), grid), data)
        totals.append(rho_u + rho_g)
    assert all(t2 < t1 for t1, t2 in zip(totals, totals[1:]))
    assert totals[-1] < 0.05 * totals[0]  # algebraic decay: 1/k^3 coefficients


def test_ode_rhs_zero_and_heat_diagonal():
    data = data_const()
    basis = build_basis(2, 3)
    grid = spaces.tensor_gauss_legendre(2, 16)
    ws = Workspace(basis, grid, data, [ZERO2])
    fields, f_vec = data.sample(ws.x, 0.0), ws.source_vectors([0], 0.0)[0]
    assert np.abs(ws.rhs(np.zeros(basis.size), fields, 0.1, f_vec)[0]).max() == 0.0
    for k in (0, 2, 5):
        e = np.zeros(basis.size); e[k] = 1.0
        rhs = ws.rhs(e, fields, 0.1, f_vec)[0]
        expect = -basis.eigenvalues[k] * e
        assert np.abs(rhs - expect).max() < 1e-9 * basis.eigenvalues[k]


@pytest.mark.parametrize("which", ["sweep", "zero_a", "moving"])
def test_rhs_with_bound_exponents_equals_the_kernel_bitwise(monkeypatch, moving_data, which):
    # steady data bind (p-2)/2 and (q-2)/2 once per Workspace; the kernel
    # forms them itself for moving data and for fields passed from outside
    data = {"sweep": runner.load_config(SCENARIOS / "unordered_sweep.yaml").data,
            "zero_a": data_const(p=1.5, q=2.5, a=0.0, b=1.0), "moving": moving_data}[which]
    basis = build_basis(2, 4)
    ws = Workspace(basis, spaces.tensor_gauss_legendre(2, 12), data, [ZERO2])
    coeffs = np.random.default_rng(3).normal(size=(2, basis.size))
    bound = []
    kernel = flux.vector_kernel
    monkeypatch.setattr(flux, "vector_kernel", lambda *args: bound.append(args[6]) or kernel(*args))
    for t in (0.0, 0.07):
        fields, f_vec = ws.fields_at(t), ws.source_vectors([0], t)[0]
        rhs, grad, fvec = ws.rhs(coeffs, fields, 1e-2, f_vec)
        want = kernel(*fields, grad, 1e-2)
        assert np.array_equal(fvec, want)
        assert np.array_equal(rhs, -ws.stiffness(want) + f_vec)
        ws.rhs(coeffs, tuple(np.copy(f) for f in fields), 1e-2, f_vec)
    assert [e is not None for e in bound] == [which != "moving", False] * 2


def test_ode_rhs_matches_refined_quadrature_oracle():
    # quadratic exponents with genuinely variable coefficients: the assembly
    # integrand is trigonometric-times-affine and the default rule matches a
    # doubled-order oracle to 1e-8
    dim = 2
    data = ExponentData(
        dim=dim, horizon=0.1, p=make_field(2.0, dim), q=make_field(2.0, dim),
        a=make_field({"family": "affine", "base": 0.2, "slope": [0.6, 0.0]}, dim),
        b=make_field({"family": "affine", "base": 0.8, "slope": [-0.6, 0.0]}, dim),
        alpha=0.9, lipschitz_probe_resolution=9, time_probe_resolution=3)
    basis = build_basis(2, 4)
    rng = np.random.default_rng(21)
    coeffs = rng.normal(size=basis.size)
    f = mode_field([[1, 2, 0.7]])
    base_order = SolverConfig(4, 0.1, 0.1).resolved_quad_order
    vals = {}
    for order in (base_order, 2 * base_order):
        ws = Workspace(basis, spaces.tensor_gauss_legendre(2, order), sources=[f])
        f_vec = ws.source_vectors([0], 0.03)[0]
        vals[order] = ws.rhs(coeffs, data.sample(ws.x, 0.03), 0.1, f_vec)[0]
    scale = max(1, np.abs(vals[2 * base_order]).max())
    assert np.abs(vals[base_order] - vals[2 * base_order]).max() < 1e-8 * scale


def test_ode_rhs_refined_quadrature_nonquadratic_flux():
    # fractional powers of the regularized gradient carry eps-scale features,
    # so the refined-oracle agreement is at the resolved-state level (~1e-4
    # relative at the default rule), not machine precision
    data = data_const(p=1.8, q=2.1, a=0.3, b=0.7)
    basis = build_basis(2, 4)
    rng = np.random.default_rng(21)
    smooth = np.exp(-0.8 * np.sqrt(basis.eigenvalues) / np.pi)
    coeffs = rng.normal(size=basis.size) * smooth
    f = mode_field([[1, 2, 0.7]])
    vals = {}
    for order in (SolverConfig(4, 0.1, 0.1).resolved_quad_order, 60):
        ws = Workspace(basis, spaces.tensor_gauss_legendre(2, order), sources=[f])
        f_vec = ws.source_vectors([0], 0.03)[0]
        vals[order] = ws.rhs(coeffs, data.sample(ws.x, 0.03), 0.1, f_vec)[0]
    scale = max(1, np.abs(vals[60]).max())
    assert np.abs(vals[18] - vals[60]).max() < 1e-4 * scale


def test_step_implicit_zero_and_heat_closed_form():
    data = data_const()
    cfg = SolverConfig(m_per_dim=3, eps=1e-2, tau=1e-2)
    basis = build_basis(2, cfg.m_per_dim)
    grid = spaces.tensor_gauss_legendre(2, cfg.resolved_quad_order)
    ws = Workspace(basis, grid, data, [ZERO2])
    (new,), stats = step_implicit([np.zeros(basis.size)], 0.0, cfg.tau, cfg, ws, [0])
    assert np.abs(new).max() == 0.0

    e = np.zeros(basis.size); e[0] = 1.0
    (new,), stats = step_implicit([e], 0.0, cfg.tau, cfg, ws, [0])
    assert new[0] == pytest.approx(1.0 / (1.0 + LAM11 * cfg.tau), abs=1e-9)
    assert np.abs(new[1:]).max() < 1e-9
    # proximal inequality: (||v||^2-||u||^2)/(2 tau) + flux energy <= work + tol slack
    assert stats.energy_slack[0] <= cfg.newton_tol * 2.0 / cfg.tau


def test_step_failure_raises_with_trace():
    data = data_const(p=1.8, q=1.8, a=1.0, b=0.0)
    cfg = SolverConfig(m_per_dim=2, eps=1e-6, tau=50.0, newton_max_iter=1)
    basis = build_basis(2, cfg.m_per_dim)
    ws = Workspace(basis, spaces.tensor_gauss_legendre(2, cfg.resolved_quad_order), data, [ZERO2])
    with pytest.raises(StepFailure) as info:
        step_implicit([np.full(basis.size, 2.0)], 0.0, cfg.tau, cfg, ws, [0])
    assert len(info.value.trace) >= 1


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("m_per_dim", [1, 3, 5])
@pytest.mark.parametrize("order", [7, 8])
def test_step_matrix_equals_dense_gram_form(dim, m_per_dim, order):
    # reference: the dense three-operand contraction over all quadrature nodes
    basis = build_basis(dim, m_per_dim)
    ws = Workspace(basis, spaces.tensor_gauss_legendre(dim, order))
    rng = np.random.default_rng(100 * dim + 10 * m_per_dim + order)
    m = ws.x.shape[0]
    a, b = rng.uniform(0.1, 1.0, size=(2, m))
    p, q = rng.uniform(1.5, 2.5, size=(2, m))
    jac_flux = flux.jacobian_kernel(a, b, p, q, rng.normal(size=(m, dim)), 0.1)
    tau = 0.37
    gp = basis.gradients(ws.x)
    ref = np.eye(basis.size) + tau * np.einsum(
        "map,mab,mbq->pq", gp, ws.w[:, None, None] * jac_flux, gp, optimize=True)
    got = ws.step_matrix(jac_flux, tau)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("dim, m_per_dim, dense", [(2, 4, True), (2, 6, True), (2, 8, True),
                                                   (2, 16, False), (3, 3, False)])
def test_dense_and_sum_factorized_residual_contractions_agree(dim, m_per_dim, dense):
    basis = build_basis(dim, m_per_dim)
    grid = spaces.tensor_gauss_legendre(dim, SolverConfig(m_per_dim, 0.1, 0.1).resolved_quad_order)
    ws = Workspace(basis, grid)
    assert (ws.dense is not None) == dense
    assert dense == (grid.space_nodes.size * basis.size <= galerkin.DENSE_ENTRIES)
    rng = np.random.default_rng(dim * 100 + m_per_dim)
    coeffs, fvec = rng.normal(size=basis.size), rng.normal(size=ws.x.shape)
    wf = ws.w[:, None] * fvec
    table = basis.gradients(ws.x).reshape(-1, basis.size)
    by_table = ((table @ coeffs).reshape(ws.x.shape), wf.reshape(-1) @ table)
    by_axis = (basis.lattice(ws.lines, coeffs, 1), basis.lattice_adjoint(ws.lines, wf, 1))
    got = (ws.gradient_of(coeffs), ws.stiffness(fvec))
    for chosen, other, out in zip(*(by_table, by_axis) if dense else (by_axis, by_table), got):
        assert np.array_equal(out, chosen)
        assert np.abs(other - chosen).max() <= 1e-13 * np.abs(chosen).max()


def test_discretization_tables_are_built_once_and_read_only():
    assert build_basis(2, 5) is build_basis(2, 5)
    assert spaces.tensor_gauss_legendre(2, 20) is spaces.tensor_gauss_legendre(2, 20)
    basis, grid = build_basis(2, 5), spaces.tensor_gauss_legendre(2, 20)
    first, second = Workspace(basis, grid), Workspace(basis, grid)
    assert first.lines is second.lines and first.dense is second.dense
    assert first.newton_inverses is not second.newton_inverses  # the caches of one solve
    for arr in (basis.modes, basis.eigenvalues, grid.space_nodes, grid.space_weights,
                first.lines, first.dense):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_workspace_rejects_non_tensor_grid():
    basis = build_basis(2, 3)
    grid = spaces.tensor_gauss_legendre(2, 8)
    # the same lattice with the first axis fastest, and scattered nodes
    first_fastest = spaces.QuadratureGrid(grid.space_nodes[:, ::-1], grid.space_weights)
    rng = np.random.default_rng(5)
    scattered = spaces.QuadratureGrid(rng.uniform(size=(64, 2)), np.full(64, 1.0 / 64))
    for bad in (first_fastest, scattered):
        with pytest.raises(ValueError, match="tensor"):
            Workspace(basis, bad)


def test_fresh_jacobian_newton_converges_quadratically():
    # an inexact Newton matrix (one without the a != b cross terms, or one
    # scaled by 0.9) converges only linearly: r2 / r1^2 reads 4.3 and 2.9 here
    config = runner.load_config(SCENARIOS / "unordered_sweep.yaml")
    # newton_tol below any reachable residual: the failure carries every iterate
    cfg = replace(config.solver, m_per_dim=4, eps=1e-2, tau=0.05, newton_tol=1e-300,
                  newton_max_iter=4)
    basis = build_basis(2, cfg.m_per_dim)
    ws = Workspace(basis, spaces.tensor_gauss_legendre(2, cfg.resolved_quad_order), config.data,
                   [config.source_field()])
    # every round finds no inverse to take a chord step with
    ws.inverses = lambda tau: (np.empty((1, basis.size, basis.size)), np.zeros(1, dtype=bool))
    with pytest.raises(StepFailure) as info:
        step_implicit([ws.project(config.initial)], 0.0, cfg.tau, cfg, ws, [0])
    r = np.array(info.value.trace)
    assert r[0] > 0.1 and r[3] < 1e-14  # from far off down to rounding
    above = r[:-1] > 1e-7  # below, rounding takes over from the quadratic term
    assert above.sum() == 2
    assert np.all(r[1:][above] <= r[:-1][above] ** 2)


def test_wrong_cached_inverse_only_costs_fresh_jacobians(monkeypatch):
    config = runner.load_config(SCENARIOS / "unordered_sweep.yaml")
    cfg = replace(config.solver, m_per_dim=4, eps=1e-2, tau=5e-3)
    args = (cfg, config.data, config.initial, config.source_field())
    clean = solve(*args)
    wrong = -np.eye(clean.basis.size)  # every chord step goes the wrong way

    class StaleWorkspace(Workspace):
        def inverses(self, tau):  # every round finds the wrong inverse, and keeps none
            return wrong[None].copy(), np.ones(1, dtype=bool)

    monkeypatch.setattr(galerkin, "Workspace", StaleWorkspace)
    stale = solve(*args)
    assert np.all(stale.newton_residual <= stale.newton_bound)
    assert np.abs(stale.coeffs - clean.coeffs).max() < 1e-9
    assert np.array_equal(stale.jacobians, stale.newton_iters)  # no chord step was kept
    assert stale.jacobians.sum() > clean.jacobians.sum() > 0


def test_step_calls_each_flux_kernel_once_per_residual_and_iteration(monkeypatch):
    # perfbench counts Jacobian builds and residual evaluations from the
    # flux.jacobian_kernel / flux.vector_kernel spans under step_implicit
    data = data_const(p=1.1, q=2.0)
    cfg = SolverConfig(m_per_dim=3, eps=1e-2, tau=1.0)
    basis = build_basis(2, cfg.m_per_dim)
    ws = Workspace(basis, spaces.tensor_gauss_legendre(2, cfg.resolved_quad_order), data, [ZERO2])
    calls = []

    def counting(name, kernel):
        def wrapped(*args):
            calls.append(name)
            return kernel(*args)
        return wrapped

    monkeypatch.setattr(flux, "vector_kernel", counting("residual", flux.vector_kernel))
    monkeypatch.setattr(flux, "jacobian_kernel", counting("jacobian", flux.jacobian_kernel))
    _, stats = step_implicit([np.ones(basis.size)], 0.0, cfg.tau, cfg, ws, [0])
    (iters,), (jacobians,) = stats.newton_iters, stats.jacobians
    # perfbench reads a residual right after another one as a halving or a chord step
    follow_ups = sum(1 for prev, cur in zip(calls, calls[1:]) if prev == cur == "residual")
    assert calls[0] == "residual"
    assert calls.count("jacobian") == jacobians
    assert calls.count("residual") == 1 + jacobians + follow_ups
    # one residual per iteration, one per refused chord step (every fresh
    # build but the first, on an empty cache) and one per halving
    halvings = calls.count("residual") - 1 - iters - (jacobians - 1)
    assert iters > jacobians > 1 and halvings > 0  # every branch ran


def test_non_finite_newton_matrix_fails_the_step(monkeypatch):
    # the LU solve passes NaN on to the damping loop, which fails the step,
    # so the solve's retry by halving still applies
    data = data_const(p=1.8, q=2.1)
    cfg = SolverConfig(m_per_dim=2, eps=1e-2, tau=1e-2)
    basis = build_basis(2, cfg.m_per_dim)
    ws = Workspace(basis, spaces.tensor_gauss_legendre(2, cfg.resolved_quad_order), data, [ZERO2])
    nan_jacobian = np.full((ws.x.shape[0], 2, 2), np.nan)
    monkeypatch.setattr(flux, "jacobian_kernel", lambda *args: nan_jacobian)
    with pytest.raises(StepFailure):
        step_implicit([np.ones(basis.size)], 0.0, cfg.tau, cfg, ws, [0])


def singular_once(monkeypatch):
    """Make the first Newton solve raise as on a singular matrix; returns the call log."""
    original, calls = np.linalg.solve, []

    def solve_or_raise(mat, rhs):
        calls.append(mat.shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return original(mat, rhs)

    monkeypatch.setattr(np.linalg, "solve", solve_or_raise)
    return calls


def test_failed_newton_solve_is_a_step_failure(monkeypatch):
    singular_once(monkeypatch)
    data = data_const(p=1.8, q=2.1)
    cfg = SolverConfig(m_per_dim=2, eps=1e-2, tau=1e-2)
    basis = build_basis(2, cfg.m_per_dim)
    ws = Workspace(basis, spaces.tensor_gauss_legendre(2, cfg.resolved_quad_order), data, [ZERO2])
    with pytest.raises(StepFailure, match="newton solve failed") as info:
        step_implicit([np.ones(basis.size)], 0.0, cfg.tau, cfg, ws, [0])
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    assert len(info.value.trace) == 1


def test_failed_newton_solve_is_retried_by_halving(monkeypatch):
    calls = singular_once(monkeypatch)
    data, u0 = data_const(p=1.8, q=2.1), mode_field([[1, 1, 1.0]])
    cfg = SolverConfig(m_per_dim=2, eps=1e-2, tau=0.05)
    traj = solve(cfg, data, u0, ZERO2)
    assert traj.horizon == pytest.approx(0.1) and len(traj.times) == 3
    assert len(calls) > 1 and np.all(traj.newton_residual[1:] <= 1e-9)
    singular_once(monkeypatch)
    with pytest.raises(SolverError, match="newton solve failed"):
        solve(replace(cfg, tau_retry_cap=0), data, u0, ZERO2)


def test_retried_step_records_the_bound_of_its_worse_substep(monkeypatch):
    # a decaying solution: the first half was accepted against the larger
    # bound of its own state, which the stored (second half) state does not meet
    substeps = iter([(1, 2e-10, 3e-10), (2, 1e-10, 2e-10)])

    def halves_only(us, t, tau, *args):
        assert tau == 0.05
        iters, res, bound = next(substeps)
        return us, galerkin.StepStats(
            newton_iters=np.array([iters]), jacobians=np.array([iters - 1]),
            residual_norm=np.array([res]), residual_bound=np.array([bound]),
            energy_slack=np.zeros(1), ut_sq_increment=np.zeros(1), failures=[None])

    monkeypatch.setattr(galerkin, "step_implicit", halves_only)
    cfg = SolverConfig(m_per_dim=2, eps=1e-2, tau=0.1)
    _, st = galerkin._advance(np.zeros(4), 0.0, cfg.tau, 0, cfg, None, 0, StepFailure("forced"))
    assert (st.newton_iters[0], st.jacobians[0], st.residual_norm[0], st.residual_bound[0]) == \
        (3, 1, 2e-10, 3e-10)


def test_solve_frees_its_workspace_without_the_cycle_collector(monkeypatch):
    # a reference cycle through the workspace would hold its basis tables
    # (about 11 MB at m_per_dim=16) until the cyclic collector runs; so would
    # a kept StepFailure whose traceback refers to the march's frames
    made = []

    class Tracked(Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(galerkin, "Workspace", Tracked)
    cfg = SolverConfig(m_per_dim=2, eps=1e-2, tau=1e-2)
    gc.disable()
    try:
        # no failure; the last of 10 steps retried; step 3 failing with no
        # retry; its first half failing at the cap
        for cap, fail_call in ((4, None), (4, 10), (0, 3), (1, 4)):
            recorded_starts(monkeypatch, fail_call)
            try:
                solve(replace(cfg, tau_retry_cap=cap), data_const(), mode_field([[1, 1, 1.0]]),
                      ZERO2)
            except SolverError:
                assert cap < 4
        alive = [ref() is not None for ref in made]
    finally:
        gc.enable()
    assert alive == [False] * 4


def test_solve_heat_benchmark_small():
    data = data_const()
    cfg = SolverConfig(m_per_dim=4, eps=1e-2, tau=1e-3)
    traj = solve(cfg, data, mode_field([[1, 1, 1.0]]), ZERO2)
    exact = math.exp(-LAM11 * 0.1)
    err = abs(traj.coeffs[-1][0] - exact)
    assert err < 5e-3
    assert np.abs(traj.coeffs[-1][1:]).max() < 1e-9


def test_solve_deterministic_bitwise():
    data = data_const(p=1.9, q=2.1, a=0.4, b=0.6)
    cfg = SolverConfig(m_per_dim=3, eps=5e-2, tau=5e-3)
    u0 = mode_field([[1, 1, 0.8], [2, 1, 0.1]])
    f = mode_field([[1, 2, 0.5]])
    t1 = solve(cfg, data, u0, f)
    t2 = solve(cfg, data, u0, f)
    assert np.array_equal(t1.coeffs, t2.coeffs)
    assert np.array_equal(t1.newton_residual, t2.newton_residual)


def test_solve_self_convergence_first_order():
    data = data_const(p=1.9, q=2.1, a=0.4, b=0.6)
    u0 = mode_field([[1, 1, 0.8]])
    finals = {}
    for tau in (4e-3, 2e-3, 1e-3):
        cfg = SolverConfig(m_per_dim=4, eps=5e-2, tau=tau)
        finals[tau] = solve(cfg, data, u0, ZERO2).coeffs[-1]
    d1 = np.linalg.norm(finals[4e-3] - finals[2e-3])
    d2 = np.linalg.norm(finals[2e-3] - finals[1e-3])
    order = math.log2(d1 / d2)
    assert 0.8 <= order <= 1.2


def test_solve_per_step_energy_inequality_recorded():
    data = data_const(p=1.9, q=2.1, a=0.4, b=0.6)
    cfg = SolverConfig(m_per_dim=4, eps=5e-2, tau=2e-3)
    f = mode_field([[2, 1, 0.4]])
    traj = solve(cfg, data, mode_field([[1, 1, 0.8]]), f)
    bound = traj.newton_residual * np.linalg.norm(traj.coeffs, axis=1) / cfg.tau + 1e-12
    assert np.all(traj.energy_slack <= bound)


def test_evaluate_center_boundary_and_fd_gradient():
    basis = build_basis(2, 3)
    e = np.zeros(basis.size); e[0] = 1.0
    center = np.array([[0.5, 0.5]])
    assert (basis.values(center) @ e)[0] == pytest.approx(2.0)
    assert np.abs(basis.gradients(center) @ e).max() < 1e-12
    u_b = basis.values(np.array([[0.0, 0.3], [1.0, 0.7], [0.2, 1.0]])) @ e
    assert np.abs(u_b).max() < 1e-12
    rng = np.random.default_rng(22)
    coeffs = rng.normal(size=basis.size)
    pts = rng.uniform(0.05, 0.95, size=(40, 2))
    grad = basis.gradients(pts) @ coeffs
    h = 1e-6
    for d in range(2):
        e_h = np.zeros(2); e_h[d] = h
        up = basis.values(pts + e_h) @ coeffs
        um = basis.values(pts - e_h) @ coeffs
        assert np.abs((up - um) / (2 * h) - grad[:, d]).max() < 1e-6


def test_galerkin_orthogonality_at_accepted_steps():
    # residual of the implicit equation tested against every basis function
    data = data_const(p=1.9, q=2.1, a=0.4, b=0.6)
    cfg = SolverConfig(m_per_dim=3, eps=5e-2, tau=2e-3)
    traj = solve(cfg, data, mode_field([[1, 1, 0.8]]), ZERO2)
    tol = cfg.newton_tol * (1.0 + np.linalg.norm(traj.coeffs, axis=1))
    assert np.all(traj.newton_residual <= tol)
    assert np.array_equal(traj.newton_bound[1:], tol[1:])  # no step was retried


def test_warm_started_solve_matches_cold_solve_in_fewer_iterations():
    # the sweep's continuation: eps2 started from the eps1 trajectory
    data = data_const(p=1.9, q=2.1, a=0.4, b=0.6)
    cfg = SolverConfig(m_per_dim=4, eps=1e-1, tau=2.5e-3)
    u0 = mode_field([[1, 1, 0.8], [2, 1, 0.2]])
    coarse = solve(cfg, data, u0, ZERO2)
    cold = solve(replace(cfg, eps=1e-2), data, u0, ZERO2)
    warm = solve(replace(cfg, eps=1e-2), data, u0, ZERO2, coarse.coeffs)
    assert np.abs(warm.coeffs - cold.coeffs).max() < 1e-9
    assert warm.newton_iters.sum() < cold.newton_iters.sum()


def recorded_starts(monkeypatch, fail_call=None):
    """Record (t, dt, start) of every one-member step_implicit call; the fail_call-th fails."""
    calls, original = [], galerkin.step_implicit

    def recording(us, t, tau, cfg, ws, members, starts=None):
        calls.append((t, tau, None if starts is None else starts[0].copy()))
        if len(calls) == fail_call:
            raise StepFailure("forced")
        return original(us, t, tau, cfg, ws, members, starts)

    monkeypatch.setattr(galerkin, "step_implicit", recording)
    return calls


def test_cold_solve_starts_each_step_from_the_extrapolated_checkpoints(monkeypatch):
    # heat on one mode: u_k = r^k with r = 1/(1 + lam tau), so the quadratic
    # predictor misses u_{k+1} by (lam tau)^2 = 0.04 of the step's change
    calls = recorded_starts(monkeypatch)
    cfg = SolverConfig(m_per_dim=3, eps=1e-2, tau=1e-2)
    c = solve(cfg, data_const(), mode_field([[1, 1, 1.0]]), ZERO2).coeffs
    starts = [start for _, _, start in calls]
    assert len(starts) == 10 and starts[0] is None
    assert np.array_equal(starts[1], 2.0 * c[1] - c[0])
    for k in range(2, 10):
        assert np.array_equal(starts[k], 3.0 * (c[k] - c[k - 1]) + c[k - 2])
        assert np.linalg.norm(starts[k] - c[k + 1]) <= 0.1 * np.linalg.norm(c[k] - c[k + 1])


def test_retried_substeps_start_from_their_own_state(monkeypatch):
    # the first attempt of step 3 fails: its halves start cold, and the merged
    # step still records one full, uniform step for the next predictor
    calls = recorded_starts(monkeypatch, fail_call=3)
    data = data_const(p=1.9, q=2.1, a=0.4, b=0.6)
    cfg = SolverConfig(m_per_dim=3, eps=5e-2, tau=1e-2)
    traj = solve(cfg, data, mode_field([[1, 1, 0.8], [2, 1, 0.2]]), ZERO2)
    c = traj.coeffs
    assert [(t, dt) for t, dt, _ in calls[2:5]] == [(0.02, 0.01), (0.02, 0.005), (0.025, 0.005)]
    assert calls[2][2] is not None and calls[3][2] is None and calls[4][2] is None
    assert traj.times[3] == pytest.approx(0.03)
    assert traj.newton_residual[3] <= traj.newton_bound[3]
    assert np.all(traj.newton_residual <= traj.newton_bound)
    assert np.array_equal(calls[5][2], 3.0 * (c[3] - c[2]) + c[1])


def test_a_retried_step_keeps_the_clock_of_an_unretried_solve(monkeypatch):
    # the stability base with its step 3 redone on halves: its checkpoints
    # are those of the unretried solve bit for bit (not (t + tau/2) + tau/2,
    # which is one ulp off t + tau here), so the Gronwall experiments accept
    # it against the lockstep members
    config, members = stability_members()
    cfg, data, f = config.solver, config.data, config.source_field()
    plain = solve(cfg, data, config.initial, f)
    calls, step = [], galerkin.step_implicit

    def third_fails(*args):
        calls.append(1)
        if len(calls) == 3:
            raise StepFailure("forced")
        return step(*args)

    monkeypatch.setattr(galerkin, "step_implicit", third_fails)
    base = solve(cfg, data, config.initial, f)
    monkeypatch.undo()
    assert len(calls) == 22 and base.newton_iters[3] > plain.newton_iters[3]  # step 3 on halves
    assert np.array_equal(base.times, plain.times)
    reports = diagnostics.stability_experiments(
        base, galerkin.solve_lockstep(cfg, data, *zip(*members[:3])))
    assert len(reports) == 3 and all(rep.passed for rep in reports)


def test_solve_samples_steady_data_once_and_moving_data_every_step(monkeypatch):
    # a and the source decay in time; p, q and b are steady
    dim = 2
    data = ExponentData(
        dim=dim, horizon=0.1,
        p=make_field({"family": "affine", "base": 1.9, "slope": [0.2, 0.0]}, dim),
        q=make_field({"family": "bump", "base": 2.0, "amp": 0.1, "tdecay": 0.0}, dim),
        a=make_field({"family": "bump", "base": 0.5, "amp": 0.2, "tdecay": 1.0}, dim),
        b=make_field(0.5, dim), alpha=0.9, lipschitz_probe_resolution=9, time_probe_resolution=3)
    f = make_field({"family": "modes", "coeffs": [[1, 2, 0.5]], "tdecay": 2.0}, dim)
    u0 = mode_field([[1, 1, 0.8]])
    cfg = SolverConfig(m_per_dim=3, eps=1e-2, tau=0.02)
    calls, original = [], galerkin.Field.__call__

    def counting(self, x, t):
        calls.append((self, np.array(x), float(t)))
        return original(self, x, t)

    monkeypatch.setattr(galerkin.Field, "__call__", counting)
    traj = solve(cfg, data, u0, f)
    nodes = traj.grid.space_nodes
    # the steady ones once, when the march's Workspace is built, at t = 0
    on_nodes = [(fld, t) for fld, x, t in calls if np.array_equal(x, nodes)]
    for fld, moving in ((data.p, False), (data.q, False), (data.b, False),
                        (data.a, True), (f, True)):
        times = [t for g, t in on_nodes if g is fld]
        assert times == (list(traj.times[1:]) if moving else [0.0])
    # marked steady or not, the field is the same bit for bit, and so is the solve
    monkeypatch.setattr(galerkin.Field, "__call__", original)
    moving = replace(data, **{k: replace(getattr(data, k), steady=False) for k in "pqab"})
    assert np.array_equal(solve(cfg, moving, u0, f).coeffs, traj.coeffs)


def test_solve_refuses_a_guess_of_the_wrong_shape():
    data = data_const()
    cfg = SolverConfig(m_per_dim=2, eps=1e-2, tau=1e-2)  # 10 steps, 4 modes
    for shape in [(10, 4), (11, 3), (44,)]:
        with pytest.raises(ValueError, match="guess"):
            solve(cfg, data, mode_field([[1, 1, 1.0]]), ZERO2, np.zeros(shape))


def test_newton_accepts_against_the_iterate_it_returns():
    # a start whose residual lies between tol(1 + |start|) and tol(1 + |u|) is
    # not accepted: the step iterates, and its residual meets the bound of
    # the galerkin_orthogonality check on the state it returns
    data = data_const(p=1.9, q=2.1, a=0.4, b=0.6)
    cfg = SolverConfig(m_per_dim=3, eps=5e-2, tau=2e-2)
    basis = build_basis(2, cfg.m_per_dim)
    ws = Workspace(basis, spaces.tensor_gauss_legendre(2, cfg.resolved_quad_order), data, [ZERO2])
    u = np.zeros(basis.size); u[0] = 10.0
    (exact,), _ = step_implicit([u], 0.0, cfg.tau, cfg, ws, [0])
    fields, f_vec = data.sample(ws.x, cfg.tau), ws.source_vectors([0], cfg.tau)[0]

    def residual_norm(v):
        return np.linalg.norm(v - u - cfg.tau * ws.rhs(v, fields, cfg.eps, f_vec)[0])

    d = 1e-8 * np.random.default_rng(5).normal(size=basis.size)  # small: the residual is linear
    lo, hi = cfg.newton_tolerance(exact), cfg.newton_tolerance(u)
    start = exact + 0.5 * (lo + hi) / residual_norm(exact + d) * d
    assert cfg.newton_tolerance(start) < residual_norm(start) < hi
    (new,), stats = step_implicit([u], 0.0, cfg.tau, cfg, ws, [0], [start])
    assert stats.newton_iters[0] >= 1
    assert stats.residual_norm[0] <= cfg.newton_tolerance(new)


def stability_members():
    """The stability scenario's config and the (u0, f) pairs of its 24 seed-11 Gronwall jobs."""
    config = runner.load_config(SCENARIOS / "stability.yaml")
    jobs = runner._stability_jobs(config, runner._sweep(config)[4])
    f = config.source_field()
    return config, [runner._perturbed(config, f, job) for job in jobs]


def lockstep_in_one_batch(monkeypatch, cfg, data, initials, sources):
    """`solve_lockstep`, asserting that every step was one call on the whole group."""
    sizes, step = [], galerkin.step_implicit
    monkeypatch.setattr(galerkin, "step_implicit", lambda us, *args: sizes.append(len(us))
                        or step(us, *args))
    trajs = galerkin.solve_lockstep(cfg, data, initials, sources)
    monkeypatch.setattr(galerkin, "step_implicit", step)
    assert set(sizes) == {len(initials)}
    return trajs


def assert_lockstep_matches_solve(monkeypatch, cfg, data, members):
    """Each member of the runner's lockstep groups against its own `solve`."""
    for group in runner._stability_groups(members):
        trajs = lockstep_in_one_batch(monkeypatch, cfg, data, *zip(*group))
        for (u0, f), traj in zip(group, trajs):
            alone = solve(cfg, data, u0, f)
            assert traj.initial is u0 and traj.source is f
            assert np.array_equal(traj.times, alone.times)
            # BLAS rounds a batch's rows differently from one row
            scale = np.abs(alone.coeffs).max()
            assert np.abs(traj.coeffs - alone.coeffs).max() <= 1e-13 * scale
            assert np.array_equal(traj.newton_iters, alone.newton_iters)
            assert np.array_equal(traj.jacobians, alone.jacobians)
            assert np.all(traj.newton_residual <= traj.newton_bound)
            # the slack's largest terms are |v|^2 / (2 tau)
            assert np.abs(traj.energy_slack - alone.energy_slack).max() <= \
                1e-12 * (1.0 + scale ** 2 / cfg.tau)
            assert np.abs(traj.ut_sq_accum - alone.ut_sq_accum).max() <= \
                1e-12 * alone.ut_sq_accum.max()


def test_lockstep_members_match_their_own_solves(monkeypatch):
    config, members = stability_members()
    assert len(members) == 24
    assert_lockstep_matches_solve(monkeypatch, config.solver, config.data, members)


def test_lockstep_members_match_their_own_solves_without_a_dense_table(monkeypatch):
    # m_per_dim 9: 784 nodes x 2 x 81 modes exceed DENSE_ENTRIES, so each
    # batched residual is sum-factorized; four steps, six members
    config, members = stability_members()
    cfg = replace(config.solver, m_per_dim=9)
    assert Workspace(*galerkin.discretization(2, cfg)).dense is None
    assert_lockstep_matches_solve(monkeypatch, cfg, replace(config.data, horizon=0.01), members[:6])


def test_lockstep_takes_steady_and_moving_sources(monkeypatch):
    # steady sources keep their once-made projections, moving ones are
    # projected together; the zero member is converged from its first
    # residual on, so the others' residuals are batched without it
    data = data_const(p=1.9, q=2.1, a=0.4, b=0.6)
    cfg = SolverConfig(m_per_dim=3, eps=5e-2, tau=1e-2)
    u0s = [ZERO2, mode_field([[1, 1, 0.8]]), mode_field([[1, 2, 0.3]]), mode_field([[2, 1, 0.5]])]
    sources = [ZERO2, ZERO2, mode_field([[1, 2, 0.5]]),
               make_field({"family": "modes", "coeffs": [[2, 2, 0.4]], "tdecay": 3.0}, 2)]
    for n in (3, 4):  # all steady, then mixed
        trajs = lockstep_in_one_batch(monkeypatch, cfg, data, u0s[:n], sources[:n])
        assert np.all(trajs[0].coeffs == 0.0) and np.all(trajs[0].newton_iters == 0)
        for u0, f, traj in zip(u0s[1:], sources[1:], trajs[1:]):
            alone = solve(cfg, data, u0, f)
            assert np.abs(traj.coeffs - alone.coeffs).max() <= 1e-13 * np.abs(alone.coeffs).max()
            assert np.array_equal(traj.newton_iters, alone.newton_iters)


def test_lockstep_samples_a_shared_source_once_per_step(monkeypatch):
    # three members share one moving source object and a fourth has its own:
    # each step samples and projects each distinct source once, and the
    # members march as they do on equal copies of the shared source
    data = data_const(p=1.9, q=2.1, a=0.4, b=0.6)
    cfg = SolverConfig(m_per_dim=3, eps=5e-2, tau=1e-2)
    shared = make_field({"family": "modes", "coeffs": [[1, 2, 0.5]], "tdecay": 2.0}, 2)
    own = make_field({"family": "modes", "coeffs": [[2, 2, 0.4]], "tdecay": 3.0}, 2)
    u0s = [mode_field([[1, 1, amp]]) for amp in (0.8, 0.5, -0.3, 0.6)]
    calls, call = [], galerkin.Field.__call__
    monkeypatch.setattr(galerkin.Field, "__call__",
                        lambda self, x, t: calls.append((self, float(t))) or call(self, x, t))
    trajs = lockstep_in_one_batch(monkeypatch, cfg, data, u0s, [shared] * 3 + [own])
    monkeypatch.undo()
    for fld in (shared, own):
        assert [t for g, t in calls if g is fld] == list(trajs[0].times[1:])
    copies = [make_field(shared.descriptor, 2) for _ in range(3)]
    assert_lockstep_matches(trajs, galerkin.solve_lockstep(cfg, data, u0s, copies + [own]))


def test_a_stacked_step_matches_each_members_own_step():
    # a four-member step, one member at rest: the first step builds every
    # Newton inverse, the second takes chord steps on them; each member takes
    # the iterations and Jacobians of its own step, to within rounding
    data = data_const(p=1.9, q=2.1, a=0.4, b=0.6)
    cfg = SolverConfig(m_per_dim=3, eps=5e-2, tau=1e-2)
    basis = build_basis(2, cfg.m_per_dim)
    grid = spaces.tensor_gauss_legendre(2, cfg.resolved_quad_order)
    sources = [ZERO2, ZERO2, mode_field([[1, 2, 0.5]]),
               make_field({"family": "modes", "coeffs": [[2, 2, 0.4]], "tdecay": 3.0}, 2)]
    group, alone = Workspace(basis, grid, data, sources), [Workspace(basis, grid, data, [f])
                                                            for f in sources]
    us = np.stack([np.zeros(basis.size)] + [group.project(mode_field([[1, 1, amp], [2, 1, 0.2]]))
                                            for amp in (0.8, -0.5, 0.3)])
    for t in (0.0, cfg.tau):
        new, stats = step_implicit(us, t, cfg.tau, cfg, group, range(4))
        assert stats.failures == [None] * 4
        assert stats.newton_iters[0] == 0 and np.all(new[0] == 0.0)
        assert np.all(stats.residual_norm <= stats.residual_bound)
        for i, ws in enumerate(alone):
            (own,), st = step_implicit(us[i:i + 1], t, cfg.tau, cfg, ws, [0])
            assert np.abs(new[i] - own).max() <= 1e-12 * np.abs(own).max()
            assert (stats.newton_iters[i], stats.jacobians[i]) == (st.newton_iters[0],
                                                                  st.jacobians[0])
        assert stats.jacobians[1:].min() > 0 if t == 0.0 else stats.jacobians.max() == 0
        us = new


def poison_once(monkeypatch, targets, t_end, original=Workspace.source_vectors):
    """Project the sources in targets to NaN at t_end in the first call that holds one of them.

    The step that ends at t_end fails there (refused chord, damping
    exhausted), once: the halved substeps of its retry see the true source.
    """
    hit = []

    def poisoning(self, members, t):
        vecs = original(self, members, t)
        poisoned = [any(self.sources[i] is g for g in targets) for i in members]
        if t != t_end or hit or not any(poisoned):
            return vecs
        hit.append(t)
        vecs[np.array(poisoned)] = np.nan
        return vecs

    monkeypatch.setattr(Workspace, "source_vectors", poisoning)


def recorded_steps(monkeypatch):
    """Record, per step_implicit call, its member count, step size and failure texts."""
    calls, step = [], galerkin.step_implicit

    def recording(us, t, tau, *args):
        try:
            new, stats = step(us, t, tau, *args)
        except StepFailure as exc:
            calls.append((len(us), tau, [str(exc)]))
            raise
        calls.append((len(us), tau, [str(f) for f in stats.failures if f is not None]))
        return new, stats

    monkeypatch.setattr(galerkin, "step_implicit", recording)
    return calls


def assert_lockstep_matches(trajs, refs):
    """Each lockstep member against its reference solve, within the batch's rounding."""
    for traj, ref in zip(trajs, refs):
        assert np.array_equal(traj.times, ref.times)
        assert np.abs(traj.coeffs - ref.coeffs).max() <= 1e-13 * np.abs(ref.coeffs).max()
        assert np.array_equal(traj.newton_iters, ref.newton_iters)
        assert np.array_equal(traj.jacobians, ref.jacobians)
        assert np.all(traj.newton_residual <= traj.newton_bound)


def forced_retry_solves(monkeypatch, cfg, data, members, t_end, failing):
    """Each member's own `solve`; those in failing have the step ending at t_end fail once."""
    refs = []
    for k, (u0, f) in enumerate(members):
        if k in failing:
            poison_once(monkeypatch, [f], t_end)
        refs.append(solve(cfg, data, u0, f))
        monkeypatch.undo()
    return refs


def test_lockstep_round_builds_its_jacobians_in_one_call(monkeypatch):
    # perfbench reads a step's kernel calls as: one initial residual, then a
    # residual after each Jacobian call and after each residual (a chord step
    # or a halving); so a round's fresh members get their Jacobians from one
    # call on stacked gradients, whose rows equal each member's own call
    config, members = stability_members()
    data = replace(config.data, horizon=0.01)
    steps, sizes = [], []
    step, vector, jacobian = galerkin.step_implicit, flux.vector_kernel, flux.jacobian_kernel

    def batched(a, b, p, q, xi, eps):
        steps[-1].append("jacobian")
        jac = jacobian(a, b, p, q, xi, eps)
        if xi.ndim == 3:
            for row, grad in zip(jac, xi):
                assert np.array_equal(row, jacobian(a, b, p, q, grad, eps))
        sizes.append(len(xi) if xi.ndim == 3 else 1)
        return jac

    monkeypatch.setattr(galerkin, "step_implicit", lambda *a: steps.append([]) or step(*a))
    monkeypatch.setattr(flux, "vector_kernel", lambda *a: steps[-1].append("residual")
                        or vector(*a))
    monkeypatch.setattr(flux, "jacobian_kernel", batched)
    trajs = galerkin.solve_lockstep(config.solver, data, *zip(*members[:runner.GROUP]))
    assert max(sizes) > 1
    assert sum(sizes) == sum(int(traj.jacobians.sum()) for traj in trajs)
    for calls in steps:
        assert calls[0] == calls[-1] == "residual"
        assert ["jacobian", "jacobian"] not in [calls[i:i + 2] for i in range(len(calls))]


def test_a_member_failing_in_the_batch_retries_alone_and_rejoins(monkeypatch):
    # member 4's own source (job 4 perturbs the source) projects to NaN at
    # step 3's end time in the batch: it redoes step 3 alone on two depth-1
    # substeps and steps with the batch again from step 4 on
    config, members = stability_members()
    cfg, data, group = config.solver, config.data, members[:5]
    target = group[4][1]
    assert sum(f is target for _, f in members) == 1
    t3 = solve(cfg, data, *group[0]).times[3]
    refs = forced_retry_solves(monkeypatch, cfg, data, group, t3, failing={4})
    assert refs[4].newton_iters[3] > refs[0].newton_iters[3]  # its own solve redid step 3 too
    poison_once(monkeypatch, [target], t3)
    calls = recorded_steps(monkeypatch)
    trajs = galerkin.solve_lockstep(cfg, data, *zip(*group))
    half = cfg.tau / 2.0
    assert calls[2] == (5, cfg.tau, [f"damping exhausted at t={t3:.6g}"])
    assert calls[3:6] == [(1, half, []), (1, half, []), (5, cfg.tau, [])]
    assert [n for n, _, _ in calls] == [5] * 3 + [1, 1] + [5] * 17
    assert_lockstep_matches(trajs, refs)


def test_a_retried_member_reads_the_steady_data_of_its_march(monkeypatch):
    # the retry above: member 4's halved substeps read the one Workspace's
    # samples of the steady data, which are not sampled again
    config, members = stability_members()
    cfg, data, group = config.solver, config.data, members[:5]
    t3 = solve(cfg, data, *group[0]).times[3]
    poison_once(monkeypatch, [group[4][1]], t3)
    calls = recorded_steps(monkeypatch)
    made, evals = [], []
    init, call = Workspace.__init__, galerkin.Field.__call__

    def tracked(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    def counting(self, x, t):
        evals.append((self, np.array(x)))
        return call(self, x, t)

    monkeypatch.setattr(Workspace, "__init__", tracked)
    monkeypatch.setattr(galerkin.Field, "__call__", counting)
    galerkin.solve_lockstep(cfg, data, *zip(*group))
    assert [n for n, _, _ in calls[2:6]] == [5, 1, 1, 5]  # step 3 retried by member 4 alone
    nodes = galerkin.discretization(data.dim, cfg)[1].space_nodes
    for fld in (data.a, data.b, data.p, data.q):
        assert fld.steady
        assert sum(g is fld and np.array_equal(x, nodes) for g, x in evals) == 1
    assert len(made) == 1


def test_every_member_failing_in_the_batch_retries_alone(monkeypatch):
    # the batch's step 3 fails for both members, so step_implicit raises;
    # each redoes the step alone, and both march on together
    config, members = stability_members()
    cfg, data, group = config.solver, config.data, [members[0], members[4]]
    t3 = solve(cfg, data, *group[0]).times[3]
    refs = forced_retry_solves(monkeypatch, cfg, data, group, t3, failing={0, 1})
    poison_once(monkeypatch, [f for _, f in group], t3)
    calls = recorded_steps(monkeypatch)
    trajs = galerkin.solve_lockstep(cfg, data, *zip(*group))
    assert calls[2] == (2, cfg.tau, [f"damping exhausted at t={t3:.6g}"])
    assert [n for n, _, _ in calls] == [2] * 3 + [1] * 4 + [2] * 17
    assert_lockstep_matches(trajs, refs)


def test_a_member_that_fails_alone_too_raises_its_own_solver_error(monkeypatch):
    # member 1's source turns NaN after t = 0.01: in the batch and alone, its
    # step 5 fails on the full step and on the first half of its retry, and
    # the march aborts with the SolverError `solve` gives
    config, members = stability_members()
    cfg, data = replace(config.solver, tau_retry_cap=1), config.data
    u0, f = members[1]
    broken = Field(dim=2, descriptor={"family": "broken"},
                   _fn=lambda x, t: f(x, t) + (np.nan if t > 0.0101 else 0.0))
    with pytest.raises(SolverError) as alone:
        solve(cfg, data, u0, broken)
    assert str(alone.value) == "step 5/20 failed: damping exhausted at t=0.01125"
    with pytest.raises(SolverError) as grouped:
        galerkin.solve_lockstep(cfg, data, *zip(members[0], (u0, broken), members[2]))
    assert str(grouped.value) == str(alone.value)
    assert_lockstep_matches([grouped.value.partial], [alone.value.partial])
    # when member 0 fails the batch's step 5 as well, every member failed; the
    # abort still reports member 1's own failure, not the batch's
    t5 = alone.value.partial.times[-1] + cfg.tau
    poison_once(monkeypatch, [members[0][1]], t5)
    calls = recorded_steps(monkeypatch)
    with pytest.raises(SolverError) as both:
        galerkin.solve_lockstep(cfg, data, *zip(members[0], (u0, broken)))
    assert calls[4] == (2, cfg.tau, [f"damping exhausted at t={t5:.6g}"])
    assert [n for n, _, _ in calls[5:]] == [1, 1, 1]  # member 0's two halves, member 1's first
    assert str(both.value) == str(alone.value)


def test_m_refinement_cauchy_decreasing():
    # the sweep's basis-refinement study: solve each m, then the gradient
    # Cauchy distances of consecutive members
    from doublephase import diagnostics as dg
    dim = 2
    data = ExponentData(
        dim=dim, horizon=0.02,
        p=make_field({"family": "affine", "base": 1.9, "slope": [0.2, 0.0]}, dim),
        q=make_field(2.0, dim),
        a=make_field(0.5, dim), b=make_field(0.5, dim), alpha=0.9,
        lipschitz_probe_resolution=9, time_probe_resolution=3)
    cfg = SolverConfig(m_per_dim=2, eps=1e-2, tau=2.5e-3)
    u0 = mode_field([[1, 1, 0.7], [2, 2, 0.15]])
    m_list = [2, 4, 8, 16]
    trajs = [solve(replace(cfg, m_per_dim=m), data, u0, ZERO2) for m in m_list]
    rep = dg._gradient_cauchy(data, trajs[-1].spacetime_grid(),
                              [(tr.basis, tr.coeffs, tr.eps) for tr in trajs],
                              [f"m={m}" for m in m_list])
    assert len(rep.distances) == 3
    assert rep.monotone, rep.distances


def test_solver_config_invariants_and_cadence():
    with pytest.raises(ValueError):
        SolverConfig(m_per_dim=4, eps=1e-2, tau=0.0)
    with pytest.raises(ValueError):
        SolverConfig(m_per_dim=4, eps=0.0, tau=1e-3)
    with pytest.raises(ValueError, match="m_per_dim"):
        SolverConfig(m_per_dim=0, eps=1e-2, tau=1e-3)
    data = data_const()
    cfg = SolverConfig(m_per_dim=2, eps=1e-2, tau=1e-3)
    traj = solve(cfg, data, mode_field([[1, 1, 1.0]]), ZERO2)
    # one row per step
    assert len(traj.times) == 100 + 1
    assert len(traj.energy_slack) == len(traj.coeffs) == 100 + 1
    assert traj.times[-1] == pytest.approx(0.1)
    assert np.all(np.diff(traj.ut_sq_accum) >= 0)


def test_solver_error_carries_partial_trajectory():
    data = data_const(p=1.6, q=1.6, a=1.0, b=0.0)
    # no iterate meets newton_tol 1e-300, so the first step fails
    cfg = SolverConfig(m_per_dim=2, eps=1e-8, tau=0.05, newton_tol=1e-300,
                       tau_retry_cap=1, max_damping_halvings=1)
    with pytest.raises(SolverError) as info:
        solve(cfg, data, mode_field([[1, 1, 5.0]]), ZERO2)
    partial = info.value.partial
    assert partial is not None and len(partial.times) >= 1


def test_solve_refuses_invalid_data():
    with pytest.raises(ValidationError, match="exponent_gap"):
        solve(SolverConfig(m_per_dim=2, eps=1e-2, tau=0.05), data_const(p=2.0, q=2.6),
              mode_field([[1, 1, 1.0]]), ZERO2)


def test_failed_step_recovers_by_halving_within_retry_cap():
    # one Newton matrix cannot take the whole horizon in one step; one halving can
    data = data_const(p=1.6, q=1.6, a=1.0, b=0.0)
    u0 = mode_field([[1, 1, 5.0]])
    cfg = SolverConfig(m_per_dim=3, eps=1e-2, tau=0.1, newton_max_iter=1, tau_retry_cap=0)
    with pytest.raises(SolverError, match="newton did not converge"):
        solve(cfg, data, u0, ZERO2)
    traj = solve(replace(cfg, tau_retry_cap=1), data, u0, ZERO2)
    assert list(traj.times) == [0.0, 0.05 + 0.05]
    # merged over the two sub-steps, one Newton matrix each
    assert list(traj.newton_iters) == [0, 14]
    assert list(traj.jacobians) == [0, 2]


def test_newton_max_iter_one_accepts_a_converged_newton_step():
    # a linear heat step converges in one Newton step; later steps reuse its
    # inverse, which solves them exactly
    cfg = SolverConfig(m_per_dim=3, eps=1e-2, tau=1e-2, newton_max_iter=1)
    traj = solve(cfg, data_const(), mode_field([[1, 1, 1.0]]), ZERO2)
    assert list(traj.newton_iters) == [0] + [1] * 10
    assert list(traj.jacobians) == [0, 1] + [0] * 9
    assert traj.coeffs[-1][0] == pytest.approx((1.0 + LAM11 * cfg.tau) ** -10, rel=1e-12)


def test_chord_steps_do_not_count_against_newton_max_iter():
    # six and seven iterations on one Newton matrix: chord steps ride on it
    data = data_const(p=1.6, q=1.6, a=1.0, b=0.0)
    cfg = SolverConfig(m_per_dim=2, eps=1e-2, tau=0.05, newton_max_iter=3, tau_retry_cap=0)
    traj = solve(cfg, data, mode_field([[1, 1, 5.0]]), ZERO2)
    assert list(traj.newton_iters) == [0, 6, 7]
    assert list(traj.jacobians) == [0, 1, 0]  # the second step reuses the first one's inverse
    assert np.all(traj.newton_residual <= traj.newton_bound)


def test_manufactured_source_consistency():
    # formula check against a finite-difference divergence of the flux field:
    # constant a, b and q, then an affine p moving in time and a sinusoidal a
    dim = 2
    p_moving = {"family": "affine", "base": 1.9, "slope": [0.05, -0.03], "tslope": 0.5}
    a_wave = {"family": "sinusoidal", "base": 0.6, "amp": 0.1, "wave": [1.0, 2.0],
              "phase": 0.3, "tfreq": 2.0}
    for p, a in (({"family": "affine", "base": 1.9, "slope": [0.05, 0.0]}, 0.5), (p_moving, a_wave)):
        data = ExponentData(
            dim=dim, horizon=0.1, p=make_field(p, dim), q=make_field(2.05, dim),
            a=make_field(a, dim), b=make_field(0.5, dim), alpha=0.9,
            lipschitz_probe_resolution=9, time_probe_resolution=3)
        eps, t, rate = 0.3, 0.04, 1.0
        f = manufactured_source(data, eps, mode=(1, 1), amplitude=1.0, rate=rate)
        mode11 = build_basis(2, 1)  # the single mode (1, 1)

        def flux_field(x):
            decay = math.exp(-rate * t)
            grad = mode11.gradients(x)[..., 0]
            return flux.vector_kernel(*data.sample(x, t), decay * grad, eps)

        rng = np.random.default_rng(23)
        pts = rng.uniform(0.1, 0.9, size=(8, 2))
        h = 1e-5
        div_fd = np.zeros(len(pts))
        for d in range(2):
            e = np.zeros(2); e[d] = h
            div_fd += (flux_field(pts + e)[:, d] - flux_field(pts - e)[:, d]) / (2 * h)
        decay = math.exp(-rate * t)
        val = mode11.values(pts)[:, 0]
        expect_f = -rate * decay * val - div_fd
        assert np.abs(f(pts, t) - expect_f).max() < 1e-6


def test_manufactured_source_memo_cannot_go_stale():
    # the source keeps the mode's factors of the last point set; a new set, or
    # the same array changed in place, must not see them
    dim = 2
    data = ExponentData(
        dim=dim, horizon=0.1,
        p=make_field({"family": "affine", "base": 1.9, "slope": [0.05, 0.0], "tslope": 0.5}, dim),
        q=make_field(2.05, dim),
        a=make_field({"family": "sinusoidal", "base": 0.6, "amp": 0.1}, dim),
        b=make_field(0.5, dim), alpha=0.9)
    args = (data, 0.05, (1, 2), 1.3, 0.7)
    f = manufactured_source(*args)
    rng = np.random.default_rng(41)
    x, y = rng.uniform(size=(30, dim)), rng.uniform(size=(20, dim))
    for pts, t in ((x, 0.02), (x, 0.05), (y, 0.05), (x, 0.06)):
        assert np.array_equal(f(pts, t), manufactured_source(*args)(pts, t))
    x[3, 1] += 0.25  # the same object and shape as the last call, new values
    assert np.array_equal(f(x, 0.07), manufactured_source(*args)(x, 0.07))
    with pytest.raises(NotImplementedError, match="manufactured"):
        f.grad(x, 0.0)  # f itself has no closed-form gradient


def _grad_counted(fld, calls, steady=None):
    """fld with each Field.grad call recorded in `calls`; `steady` overrides its flag."""
    return Field(dim=fld.dim, descriptor=fld.descriptor, _fn=fld._fn,
                 steady=fld.steady if steady is None else steady,
                 _grad=lambda x, t: calls.append(fld.descriptor) or fld.grad(x, t))


@pytest.mark.parametrize("a_tdecay", [0.0, 1.0])
def test_manufactured_source_keeps_steady_data_terms_per_point_set(a_tdecay):
    # with steady data, grad a .. grad q are formed once per point set; once
    # a moves, once per call; either way the values equal the per-call path
    dim = 2
    specs = {"a": {"family": "bump", "base": 0.5, "amp": 0.1, "tdecay": a_tdecay},
             "b": 0.5, "p": {"family": "affine", "base": 1.9, "slope": [0.05, -0.03]},
             "q": {"family": "sinusoidal", "base": 2.05, "amp": 0.02, "wave": [1.0, 2.0]}}
    calls = []

    def data(steady=None):
        flds = {k: _grad_counted(make_field(v, dim), calls, steady) for k, v in specs.items()}
        return ExponentData(dim=dim, horizon=0.1, alpha=0.4, **flds)

    args = (0.05, (1, 2), 1.3, 0.7)
    f = manufactured_source(data(), *args)
    assert f.steady is False
    rng = np.random.default_rng(8)
    x, y = rng.uniform(size=(30, dim)), rng.uniform(size=(20, dim))
    calls_at = list(zip((x, x, x, y), (0.02, 0.04, 0.06, 0.08)))
    per_call = [manufactured_source(data(steady=False), *args)(pts, t).tobytes()
                for pts, t in calls_at]
    calls.clear()
    assert [f(pts, t).tobytes() for pts, t in calls_at] == per_call
    assert len(calls) == (2 if a_tdecay == 0.0 else 4) * 4  # four fields each time
