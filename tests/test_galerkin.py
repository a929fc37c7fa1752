import gc
import math
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from doublephase import flux, galerkin, runner, spaces
from doublephase.fields import ExponentData, make_field, tensor_points
from doublephase.galerkin import (
    _CHUNK, EigenBasis, SolverConfig, SolverError, SpectralState, StepFailure, Workspace,
    build_basis, evaluate, manufactured_source, mode_basis, ode_rhs, project_initial,
    solve, step_implicit,
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
    basis = build_basis(2, 3)
    x = np.random.default_rng(5).uniform(size=(_CHUNK + 1, 2))
    one_chunk = _direct_trig(basis, x)
    for got, want in zip(basis._trig(x), one_chunk):
        assert np.array_equal(got, want)
    assert np.array_equal(basis.values(x), basis._values_chunk(*one_chunk))
    assert np.array_equal(basis.gradients(x), basis._gradients_chunk(*one_chunk))
    assert np.array_equal(basis.hessians(x), basis._hessians_chunk(*one_chunk))


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
    ws = Workspace(basis, grid)
    x, w = grid.space_nodes, grid.space_weights
    phi, gp = basis.values(x), basis.gradients(x)
    rng = np.random.default_rng(dim * 10 + m_per_dim)
    coeffs = rng.normal(size=basis.size)
    fvec = rng.normal(size=(x.shape[0], dim))
    field = make_field({"family": "bump", "amp": 1.0, "center": [0.3] * dim}, dim)

    def close(got, want):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    close(ws.gradient_of(coeffs), np.tensordot(gp, coeffs, axes=([2], [0])))
    close(ws.stiffness(fvec), np.einsum("mn,mnj->j", w[:, None] * fvec, gp))
    close(ws.source_vector(field, 0.0), phi.T @ (w * field(x, 0.0)))
    close(project_initial(field, basis, grid).coeffs, phi.T @ (w * field(x, 0.0)))


def test_evaluate_on_zero_points_is_empty():
    basis = build_basis(2, 3)
    state = SpectralState(t=0.0, coeffs=np.ones(basis.size), basis=basis)
    u, grad = evaluate(state, np.zeros((0, 2)))
    assert u.shape == (0,) and grad.shape == (0, 2)


def test_project_initial_eigenmode_and_zero():
    basis = build_basis(2, 4)
    grid = spaces.tensor_gauss_legendre(2, 18)
    state = project_initial(mode_field([[1, 1, 1.0]]), basis, grid)
    expect = np.zeros(basis.size); expect[0] = 1.0
    assert np.abs(state.coeffs - expect).max() < 1e-10
    zero_state = project_initial(ZERO2, basis, grid)
    assert np.abs(zero_state.coeffs).max() == 0.0


def test_project_initial_bubble_against_sine_series_oracle():
    # u0 = x1(1-x1)x2(1-x2): the coefficient of mode (k1,k2) factorizes into
    # 1D sine coefficients 4*sqrt(2)/(pi^3 k^3) for odd k, 0 for even k
    basis = build_basis(2, 5)
    grid = spaces.tensor_gauss_legendre(2, 24)
    u0 = make_field({"family": "bubble", "amp": 1.0}, 2)
    state = project_initial(u0, basis, grid)

    def coeff_1d(k):
        return 4.0 * math.sqrt(2.0) / (math.pi ** 3 * k ** 3) if k % 2 == 1 else 0.0

    expect = np.array([coeff_1d(k1) * coeff_1d(k2) for k1, k2 in basis.modes])
    assert np.abs(state.coeffs - expect).max() < 1e-8
    # Bessel: projected mass cannot exceed the datum's mass (plus quadrature slack)
    u0_sq = grid.integrate(u0(grid.space_nodes, 0.0) ** 2)
    assert state.l2_norm_sq() <= u0_sq + 1e-10


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
        state = project_initial(u0, basis, grid)
        diff = basis.values(x) @ state.coeffs - u_vals
        gdiff = np.tensordot(basis.gradients(x), state.coeffs, axes=([2], [0])) - grads
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
    ws = Workspace(basis, grid)
    zero = SpectralState(t=0.0, coeffs=np.zeros(basis.size), basis=basis)
    assert np.abs(ode_rhs(zero, 0.0, 0.1, data, ZERO2, ws)).max() == 0.0
    for k in (0, 2, 5):
        e = np.zeros(basis.size); e[k] = 1.0
        state = SpectralState(t=0.0, coeffs=e, basis=basis)
        rhs = ode_rhs(state, 0.0, 0.1, data, ZERO2, ws)
        expect = -basis.eigenvalues[k] * e
        assert np.abs(rhs - expect).max() < 1e-9 * basis.eigenvalues[k]


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
    state = SpectralState(t=0.0, coeffs=rng.normal(size=basis.size), basis=basis)
    f = mode_field([[1, 2, 0.7]])
    base_order = SolverConfig(4, 0.1, 0.1).resolved_quad_order
    vals = {}
    for order in (base_order, 2 * base_order):
        ws = Workspace(basis, spaces.tensor_gauss_legendre(2, order))
        vals[order] = ode_rhs(state, 0.03, 0.1, data, f, ws)
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
    state = SpectralState(t=0.0, coeffs=rng.normal(size=basis.size) * smooth, basis=basis)
    f = mode_field([[1, 2, 0.7]])
    vals = {}
    for order in (SolverConfig(4, 0.1, 0.1).resolved_quad_order, 60):
        ws = Workspace(basis, spaces.tensor_gauss_legendre(2, order))
        vals[order] = ode_rhs(state, 0.03, 0.1, data, f, ws)
    scale = max(1, np.abs(vals[60]).max())
    assert np.abs(vals[18] - vals[60]).max() < 1e-4 * scale


def test_step_implicit_zero_and_heat_closed_form():
    data = data_const()
    cfg = SolverConfig(m_per_dim=3, eps=1e-2, tau=1e-2)
    basis = build_basis(2, cfg.m_per_dim)
    grid = spaces.tensor_gauss_legendre(2, cfg.resolved_quad_order)
    ws = Workspace(basis, grid)
    zero = SpectralState(t=0.0, coeffs=np.zeros(basis.size), basis=basis)
    new, stats = step_implicit(zero, cfg.tau, cfg.eps, data, ZERO2, cfg, ws)
    assert np.abs(new.coeffs).max() == 0.0

    e = np.zeros(basis.size); e[0] = 1.0
    state = SpectralState(t=0.0, coeffs=e, basis=basis)
    new, stats = step_implicit(state, cfg.tau, cfg.eps, data, ZERO2, cfg, ws)
    assert new.coeffs[0] == pytest.approx(1.0 / (1.0 + LAM11 * cfg.tau), abs=1e-9)
    assert np.abs(new.coeffs[1:]).max() < 1e-9
    # proximal inequality: (||v||^2-||u||^2)/(2 tau) + flux energy <= work + tol slack
    assert stats.energy_slack <= cfg.newton_tol * 2.0 / cfg.tau


def test_step_failure_raises_with_trace():
    data = data_const(p=1.8, q=1.8, a=1.0, b=0.0)
    cfg = SolverConfig(m_per_dim=2, eps=1e-6, tau=50.0, newton_max_iter=1)
    basis = build_basis(2, cfg.m_per_dim)
    ws = Workspace(basis, spaces.tensor_gauss_legendre(2, cfg.resolved_quad_order))
    state = SpectralState(t=0.0, coeffs=np.full(basis.size, 2.0), basis=basis)
    with pytest.raises(StepFailure) as info:
        step_implicit(state, cfg.tau, cfg.eps, data, ZERO2, cfg, ws)
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


def test_newton_iterations_of_unordered_sweep_member():
    # an inexact Newton matrix (e.g. one without the a != b cross terms)
    # still converges but needs more iterations: 60 here instead of 2 per step
    config = runner.load_config(SCENARIOS / "unordered_sweep.yaml")
    cfg = replace(config.solver, m_per_dim=4, eps=1e-4, tau=2.5e-3)
    traj = solve(cfg, config.data, config.initial, config.source_field(), validate=False)
    assert len(traj.times) == 21
    assert traj.newton_iters.sum() == 40


def test_non_finite_newton_matrix_fails_the_step(monkeypatch):
    # unchecked Cholesky passes NaN on to the damping loop, which fails the
    # step, so the solve's retry by halving still applies
    data = data_const(p=1.8, q=2.1)
    cfg = SolverConfig(m_per_dim=2, eps=1e-2, tau=1e-2)
    basis = build_basis(2, cfg.m_per_dim)
    ws = Workspace(basis, spaces.tensor_gauss_legendre(2, cfg.resolved_quad_order))
    state = SpectralState(t=0.0, coeffs=np.ones(basis.size), basis=basis)
    nan_jacobian = np.full((ws.x.shape[0], 2, 2), np.nan)
    monkeypatch.setattr(flux, "jacobian_kernel", lambda *args: nan_jacobian)
    with pytest.raises(StepFailure):
        step_implicit(state, cfg.tau, cfg.eps, data, ZERO2, cfg, ws)


def test_solve_frees_its_workspace_without_the_cycle_collector(monkeypatch):
    # a reference cycle through the workspace would hold its basis tables
    # (about 11 MB at m_per_dim=16) until the cyclic collector runs
    made = []

    class Tracked(Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(galerkin, "Workspace", Tracked)
    gc.disable()
    try:
        solve(SolverConfig(m_per_dim=2, eps=1e-2, tau=1e-2), data_const(),
              mode_field([[1, 1, 1.0]]), ZERO2)
        alive = [ref() is not None for ref in made]
    finally:
        gc.enable()
    assert alive == [False]


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
        finals[tau] = solve(cfg, data, u0, ZERO2, validate=False).coeffs[-1]
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
    state = SpectralState(t=0.0, coeffs=e, basis=basis)
    u, grad = evaluate(state, np.array([[0.5, 0.5]]))
    assert u[0] == pytest.approx(2.0)
    assert np.abs(grad).max() < 1e-12
    u_b, _ = evaluate(state, np.array([[0.0, 0.3], [1.0, 0.7], [0.2, 1.0]]))
    assert np.abs(u_b).max() < 1e-12
    rng = np.random.default_rng(22)
    state = SpectralState(t=0.0, coeffs=rng.normal(size=basis.size), basis=basis)
    pts = rng.uniform(0.05, 0.95, size=(40, 2))
    _, grad = evaluate(state, pts)
    h = 1e-6
    for d in range(2):
        e_h = np.zeros(2); e_h[d] = h
        up, _ = evaluate(state, pts + e_h)
        um, _ = evaluate(state, pts - e_h)
        assert np.abs((up - um) / (2 * h) - grad[:, d]).max() < 1e-6
    with pytest.raises(ValueError):
        evaluate(state, np.array([[1.2, 0.5]]))


def test_galerkin_orthogonality_at_accepted_steps():
    # residual of the implicit equation tested against every basis function
    data = data_const(p=1.9, q=2.1, a=0.4, b=0.6)
    cfg = SolverConfig(m_per_dim=3, eps=5e-2, tau=2e-3)
    traj = solve(cfg, data, mode_field([[1, 1, 0.8]]), ZERO2)
    tol = cfg.newton_tol * (1.0 + np.linalg.norm(traj.coeffs, axis=1))
    assert np.all(traj.newton_residual <= tol)


def test_m_refinement_cauchy_decreasing():
    from doublephase.diagnostics import m_refinement_study
    dim = 2
    data = ExponentData(
        dim=dim, horizon=0.02,
        p=make_field({"family": "affine", "base": 1.9, "slope": [0.2, 0.0]}, dim),
        q=make_field(2.0, dim),
        a=make_field(0.5, dim), b=make_field(0.5, dim), alpha=0.9,
        lipschitz_probe_resolution=9, time_probe_resolution=3)
    cfg = SolverConfig(m_per_dim=2, eps=1e-2, tau=2.5e-3)
    u0 = mode_field([[1, 1, 0.7], [2, 2, 0.15]])
    rep = m_refinement_study(cfg, data, u0, ZERO2, [2, 4, 8, 16], tolerance=0.10)
    assert len(rep.distances) == 3
    assert rep.monotone, rep.distances


def test_solver_config_invariants_and_cadence():
    with pytest.raises(ValueError):
        SolverConfig(m_per_dim=4, eps=1e-2, tau=0.0)
    with pytest.raises(ValueError):
        SolverConfig(m_per_dim=4, eps=0.0, tau=1e-3)
    data = data_const()
    cfg = SolverConfig(m_per_dim=2, eps=1e-2, tau=1e-3, output_cadence=5)
    traj = solve(cfg, data, mode_field([[1, 1, 1.0]]), ZERO2, validate=False)
    assert len(traj.times) == 100 // 5 + 1
    assert traj.times[-1] == pytest.approx(0.1)
    assert np.all(np.diff(traj.ut_sq_accum) >= 0)


def test_solver_error_carries_partial_trajectory():
    data = data_const(p=1.6, q=1.6, a=1.0, b=0.0)
    cfg = SolverConfig(m_per_dim=2, eps=1e-8, tau=0.05, newton_max_iter=1,
                       tau_retry_cap=1, max_damping_halvings=1)
    with pytest.raises(SolverError) as info:
        solve(cfg, data, mode_field([[1, 1, 5.0]]), ZERO2, validate=False)
    partial = info.value.partial
    assert partial is not None and len(partial.times) >= 1


def test_failed_step_recovers_by_halving_within_retry_cap():
    # three Newton iterations cannot take the full step; two halvings can
    data = data_const(p=1.6, q=1.6, a=1.0, b=0.0)
    u0 = mode_field([[1, 1, 5.0]])
    cfg = SolverConfig(m_per_dim=2, eps=1e-2, tau=0.05, newton_max_iter=3, tau_retry_cap=0)
    with pytest.raises(SolverError):
        solve(cfg, data, u0, ZERO2)
    traj = solve(replace(cfg, tau_retry_cap=2), data, u0, ZERO2)
    assert traj.horizon == pytest.approx(0.1)  # the sub-steps end at 0.09999999999999999
    assert list(traj.newton_iters) == [0, 8, 8]  # merged over each step's sub-steps


def test_manufactured_source_consistency():
    # formula check against a finite-difference divergence of the flux field
    dim = 2
    data = ExponentData(
        dim=dim, horizon=0.1,
        p=make_field({"family": "affine", "base": 1.9, "slope": [0.05, 0.0]}, dim),
        q=make_field(2.05, dim),
        a=make_field(0.5, dim), b=make_field(0.5, dim), alpha=0.9,
        lipschitz_probe_resolution=9, time_probe_resolution=3)
    eps, t, rate = 0.3, 0.04, 1.0
    f = manufactured_source(data, eps, mode=(1, 1), amplitude=1.0, rate=rate)
    mode11 = build_basis(2, 1)  # the single mode (1, 1)

    def flux_field(x):
        decay = math.exp(-rate * t)
        grad = mode11.gradients(x)[..., 0]
        return flux.flux_vector(x, t, decay * grad, eps, data)

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
