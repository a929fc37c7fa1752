import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from doublephase import diagnostics as dg, runner, spaces
from doublephase.fields import ExponentData, make_field
from doublephase.galerkin import EigenBasis, SolverConfig, solve

LAM11 = 2.0 * math.pi ** 2


def data_const(p=2.0, q=2.0, a=0.5, b=0.5, alpha=0.9, dim=2, horizon=0.1):
    return ExponentData(dim=dim, horizon=horizon, p=make_field(p, dim),
                        q=make_field(q, dim), a=make_field(a, dim), b=make_field(b, dim),
                        alpha=alpha, lipschitz_probe_resolution=9, time_probe_resolution=3)


def mode_field(coeffs, dim=2):
    return make_field({"family": "modes", "coeffs": coeffs}, dim)


ZERO2 = make_field(0.0, 2)


@pytest.fixture(scope="module")
def heat_traj():
    cfg = SolverConfig(m_per_dim=4, eps=1e-2, tau=1e-3)
    return solve(cfg, data_const(), mode_field([[1, 1, 1.0]]), ZERO2)


def test_zero_solution_all_monitors_trivial():
    cfg = SolverConfig(m_per_dim=2, eps=1e-1, tau=5e-3)
    data = data_const(p=1.8, q=2.1)
    traj = solve(cfg, data, ZERO2, ZERO2)
    series = dg.core_series(traj, ZERO2)
    assert np.all(series.energy_residual == 0.0)
    assert np.all(series.l2_sq == 0.0)
    hi = dg.higher_integrability(traj, [0.1, 0.5])
    assert all(v == 0.0 for v in hi.values())
    ir = dg.interpolation_ratio(traj, 0.5, 0.5)
    assert ir.implied_constant == 0.0
    so = dg.second_order_flux_norm(traj, h=1.0 / 64.0, margin=1.0 / 32.0)
    assert so.total == 0.0
    ap = dg.apriori_energy_bound(traj, ZERO2, series)
    assert ap.lhs == 0.0 and ap.passed
    # stationary zero state: the sup modular equals the analytic constant
    td = dg.time_derivative_bound(traj, ZERO2)
    expect = 0.5 * cfg.eps ** 1.8 + 0.5 * cfg.eps ** 2.1
    assert td.detail["sup_modular"] == pytest.approx(expect, rel=1e-12)
    assert td.detail["ut_sq"] == 0.0


def test_heat_series_match_discrete_closed_form(heat_traj):
    # every step multiplies the first coefficient by 1/(1 + lambda tau); the
    # flux energy is lambda * ||u||^2
    traj = heat_traj
    series = dg.core_series(traj, ZERO2)
    k = np.arange(len(traj.times))
    u_hat = (1.0 + LAM11 * traj.cfg.tau) ** (-k.astype(float))
    assert np.allclose(series.l2_sq, u_hat ** 2, rtol=1e-7)
    assert np.allclose(series.flux_energy_eps, LAM11 * u_hat ** 2, rtol=1e-7)
    assert np.allclose(series.flux_energy_0, series.flux_energy_eps, rtol=1e-12)
    assert np.allclose(series.grad_l2_sq, LAM11 * u_hat ** 2, rtol=1e-7)
    # maximum principle for the linear case: the lattice sup decays
    assert np.all(np.diff(series.linf) <= 1e-12)


def test_energy_residual_halves_with_tau():
    data = data_const()
    u0 = mode_field([[1, 1, 1.0]])
    rels = {}
    for tau in (1e-3, 5e-4):
        traj = solve(SolverConfig(m_per_dim=4, eps=1e-2, tau=tau), data, u0, ZERO2,
                     validate=False)
        rels[tau] = dg.core_series(traj, ZERO2).energy_residual_rel.max()
    assert rels[1e-3] <= 1e-2
    ratio = rels[1e-3] / rels[5e-4]
    assert 1.5 <= ratio <= 3.0


def test_apriori_bound_heat_ratio_below_one(heat_traj):
    series = dg.core_series(heat_traj, ZERO2)
    rep = dg.apriori_energy_bound(heat_traj, ZERO2, series)
    assert rep.passed and rep.ratio < 1.0
    # analytic check of the left side: sup ||u||^2 = 1, dissipation ~ (1-e^(-2 lam T))/2
    assert rep.lhs == pytest.approx(1.0 + 0.5 * (1 - math.exp(-2 * LAM11 * 0.1)), rel=2e-2)


def test_gradbound_checkpointwise(heat_traj):
    series = dg.core_series(heat_traj, ZERO2)
    rep = dg.gradbound_check(heat_traj, series)
    assert rep.passed


def test_higher_integrability_heat_vs_refined_quadrature(heat_traj):
    # s_lower = 2, sigma = 0.5: integral of |grad u|^2.5 over the cylinder.
    # |grad u|^2.5 has a C^1 kink at the gradient zeros, so the 1e-6 match
    # against the refined rule needs the solver grid at order 32.
    data = data_const()
    traj = solve(SolverConfig(m_per_dim=4, eps=1e-2, tau=1e-3, quad_order=32),
                 data, mode_field([[1, 1, 1.0]]), ZERO2, validate=False)
    got = dg.higher_integrability(traj, [0.5])[0.5]
    fine = spaces.tensor_gauss_legendre(2, 64).with_time(traj.times)
    gp = traj.basis.gradients(fine.space_nodes)
    grads = np.einsum("mnj,kj->kmn", gp, traj.coeffs)
    mag = np.sqrt(np.sum(grads ** 2, axis=-1))
    oracle = fine.integrate(mag ** 2.5)
    assert got == pytest.approx(oracle, abs=1e-6 * max(1, oracle))
    with pytest.raises(ValueError):
        dg.higher_integrability(heat_traj, [1.5])


def test_interpolation_constant_stable_under_tau_halving():
    data = data_const()
    u0 = mode_field([[1, 1, 1.0]])
    consts = []
    for tau in (2e-3, 1e-3):
        traj = solve(SolverConfig(m_per_dim=4, eps=1e-2, tau=tau), data, u0, ZERO2,
                     validate=False)
        consts.append(dg.interpolation_ratio(traj, 0.5, 0.5).implied_constant)
    assert abs(consts[0] - consts[1]) <= 0.2 * max(abs(consts[0]), abs(consts[1]))


def test_time_derivative_bound_heat(heat_traj):
    rep = dg.time_derivative_bound(heat_traj, ZERO2)
    assert rep.passed and np.isfinite(rep.ratio)
    # accumulated tau*||u_t||^2 for the discrete heat flow has a closed form
    tau = heat_traj.cfg.tau
    r = 1.0 / (1.0 + LAM11 * tau)
    k = np.arange(1, len(heat_traj.times))
    increments = ((r ** k - r ** (k - 1)) ** 2) / tau
    assert rep.detail["ut_sq"] == pytest.approx(increments.sum(), rel=1e-7)


def test_second_order_norms_heat_analytic():
    # p = q = 2: the composite field is just grad u, whose difference-quotient
    # norms integrate analytically over the interior subdomain
    data = data_const()
    cfg = SolverConfig(m_per_dim=4, eps=1e-2, tau=1e-3)
    traj = solve(cfg, data, mode_field([[1, 1, 1.0]]), ZERO2, validate=False)
    margin = 1.0 / 32.0
    rep = dg.second_order_flux_norm(traj, h=1.0 / 128.0, margin=margin, time_stride=1)

    def sin_sq(a, b):
        return (b - a) / 2.0 - (math.sin(2 * math.pi * b) - math.sin(2 * math.pi * a)) / (4 * math.pi)

    def cos_sq(a, b):
        return (b - a) / 2.0 + (math.sin(2 * math.pi * b) - math.sin(2 * math.pi * a)) / (4 * math.pi)

    # time factor: trapezoid of the discrete decay on the checkpoint grid
    k = np.arange(len(traj.times))
    u_sq = (1.0 + LAM11 * cfg.tau) ** (-2.0 * k.astype(float))
    tfac = np.trapezoid(u_sq, traj.times)
    # D_1 (D_1 u) = -2 pi^2 sin sin and D_1 (D_2 u) = 2 pi^2 cos cos, so the
    # squared fields integrate to 4 pi^4 times products of sin^2/cos^2 masses
    a_, b_ = margin, 1.0 - margin
    diag = 4 * math.pi ** 4 * sin_sq(a_, b_) * sin_sq(a_, b_) * tfac
    off = 4 * math.pi ** 4 * cos_sq(a_, b_) * cos_sq(a_, b_) * tfac
    assert rep.norms[0, 0] == pytest.approx(diag, rel=2e-2)
    assert rep.norms[0, 1] == pytest.approx(off, rel=2e-2)
    assert rep.norms[1, 0] == pytest.approx(rep.norms[0, 1], rel=1e-10)


def test_second_order_h_stability(heat_traj):
    reps = [dg.second_order_flux_norm(heat_traj, h=h, margin=1.0 / 64.0, time_stride=10)
            for h in (1.0 / 128.0, 1.0 / 256.0)]
    assert abs(reps[0].total - reps[1].total) <= 0.25 * max(reps[0].total, reps[1].total)
    with pytest.raises(ValueError):
        dg.second_order_flux_norm(heat_traj, h=1.0 / 16.0, margin=1.0 / 32.0)


def test_stability_identical_and_heat_perturbation():
    data = data_const()
    cfg = SolverConfig(m_per_dim=4, eps=1e-2, tau=2e-3)
    u0 = mode_field([[1, 1, 1.0]])
    base = solve(cfg, data, u0, ZERO2)
    same = solve(cfg, data, u0, ZERO2)
    rep = dg.stability_experiment(base, same, ZERO2, ZERO2)
    assert rep.passed and np.all(rep.diff_l2_sq == 0.0)

    delta = 1e-2
    pert = mode_field([[1, 1, 1.0], [2, 1, delta]])
    other = solve(cfg, data, pert, ZERO2, validate=False)
    rep2 = dg.stability_experiment(base, other, ZERO2, ZERO2)
    assert rep2.passed
    # linear decoupling: the difference is the (2,1) mode decaying at 5 pi^2
    lam21 = 5.0 * math.pi ** 2
    k = np.arange(len(base.times))
    expect = delta ** 2 * (1.0 + lam21 * cfg.tau) ** (-2.0 * k.astype(float))
    assert np.allclose(rep2.diff_l2_sq, expect, rtol=1e-6)
    assert rep2.bound == pytest.approx(math.exp(0.1) * delta ** 2, rel=1e-9)


def test_run_diagnostics_samples_solver_fields_once(monkeypatch):
    # every monitor reads a, b, p, q on the solver grid from the trajectory
    config = runner.config_from_dict({
        "name": "count_samples", "dim": 2, "horizon": 0.02, "alpha": 0.9,
        "fields": {"p": {"family": "affine", "base": 1.9, "slope": [0.1, 0.0]},
                   "q": 2.1, "a": 0.5, "b": 0.5},
        "initial": {"family": "modes", "coeffs": [[1, 1, 1.0]]}, "source": 0.0,
        "solver": {"m_per_dim": 3, "eps": 1.0e-2, "tau": 2.0e-3},
        "diagnostics": {"second_order": {"h": 1.0 / 64.0, "margin": 1.0 / 32.0}}})
    f_field = config.source_field()
    traj = solve(config.solver, config.data, config.initial, f_field, validate=False)
    nodes = traj.grid.space_nodes
    calls = []
    original = ExponentData.sample

    def counting(self, x, t):
        if np.shape(x) == nodes.shape and np.array_equal(x, nodes):
            calls.append(np.ndim(t))
        return original(self, x, t)

    monkeypatch.setattr(ExponentData, "sample", counting)
    runner.run_diagnostics(traj, config, f_field)
    assert calls == [1]


def test_second_order_peak_memory_does_not_grow_with_checkpoints(heat_traj):
    # the composite is formed one kept checkpoint at a time; forming it for
    # all kept checkpoints at once roughly doubles the peak here
    def peak(stride):
        tracemalloc.start()
        try:
            dg.second_order_flux_norm(heat_traj, h=1.0 / 128.0, margin=1.0 / 64.0,
                                      time_stride=stride)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert len(heat_traj.times) == 101  # 51 checkpoints kept at stride 2, 101 at stride 1
    assert peak(1) <= 1.25 * peak(2)


def test_linf_envelope_with_unit_source():
    # f = 1 pumps the sup envelope linearly: max|u| <= ||u0||_inf + t + slack
    data = data_const()
    cfg = SolverConfig(m_per_dim=6, eps=1e-2, tau=2e-3)
    one = make_field(1.0, 2)
    traj = solve(cfg, data, mode_field([[1, 1, 0.5]]), one)
    rep = dg.linf_bound_check(traj, mode_field([[1, 1, 0.5]]), one)
    assert rep.passed
    assert rep.envelope[-1] == pytest.approx(1.0 + 0.1 + 1e-3, abs=1e-12)


def test_eps_continuation_linear_flux_identical():
    data = data_const()
    cfg = SolverConfig(m_per_dim=3, eps=1e-1, tau=5e-3, quad_order=12)
    rep = dg.eps_continuation_study(cfg, data, mode_field([[1, 1, 1.0]]), ZERO2,
                                    [1e-1, 5e-2, 2.5e-2])
    assert rep.monotone
    assert np.all(rep.distances == 0.0)
    assert np.all(rep.pairings == 0.0)


def test_eps_continuation_plap_decreasing():
    data = data_const(p=1.8, q=1.8, a=1.0, b=0.0, horizon=0.02)
    cfg = SolverConfig(m_per_dim=4, eps=1e-1, tau=2.5e-3)
    rep = dg.eps_continuation_study(cfg, data, mode_field([[1, 1, 0.8]]), ZERO2,
                                    [1e-1, 5e-2, 2.5e-2, 1.25e-2])
    assert rep.monotone
    assert np.all(rep.distances[:-1] > rep.distances[1:])
    assert np.all(rep.pairings >= 0.0)
    with pytest.raises(ValueError):
        dg.eps_continuation_study(cfg, data, ZERO2, ZERO2, [1e-2, 1e-1])


def test_gradient_cauchy_builds_one_gradient_table_per_basis(monkeypatch):
    # the members of an eps study share one basis, so its gradient table on
    # the base grid is built once, not once per member
    data = data_const(p=1.8, q=1.8, a=1.0, b=0.0, horizon=0.01)
    cfg = SolverConfig(m_per_dim=3, eps=1e-1, tau=2.5e-3)
    eps_seq = [1e-1, 5e-2, 2.5e-2]
    trajs = [solve(replace(cfg, eps=e), data, mode_field([[1, 1, 0.8]]), ZERO2)
             for e in eps_seq]
    calls = []
    original = EigenBasis.gradients

    def counting(self, x):
        calls.append(self.m_per_dim)
        return original(self, x)

    monkeypatch.setattr(EigenBasis, "gradients", counting)
    rep = dg._gradient_cauchy(trajs, [f"eps={e:g}" for e in eps_seq], 0.1,
                              pair_eps=eps_seq[1:])
    assert calls == [3]
    assert rep.distances.shape == (2,) and np.all(rep.distances > 0.0)


def test_one_dimensional_pipeline_end_to_end():
    # the whole chain is dimension-generic; in one dimension the critical
    # shift is 4/3 and the admissible gap is 2/3
    from doublephase.fields import ExponentData, make_field
    data = ExponentData(
        dim=1, horizon=0.05,
        p=make_field({"family": "affine", "base": 1.9, "slope": [0.2]}, 1),
        q=make_field(2.0, 1),
        a=make_field(0.5, 1), b=make_field(0.5, 1), alpha=0.9,
        lipschitz_probe_resolution=17, time_probe_resolution=5)
    assert data.r_sharp == pytest.approx(4.0 / 3.0)
    assert data.r_star == pytest.approx(2.0 / 3.0)
    u0 = make_field({"family": "modes", "coeffs": [[1, 0.8]]}, 1)
    z1 = make_field(0.0, 1)
    cfg = SolverConfig(m_per_dim=6, eps=1e-2, tau=2.5e-3)
    traj = solve(cfg, data, u0, z1)
    series = dg.core_series(traj, z1)
    assert series.energy_residual_rel.max() < 2e-2
    hi = dg.higher_integrability(traj, [0.3])
    assert np.isfinite(hi[0.3]) and hi[0.3] > 0
    so = dg.second_order_flux_norm(traj, h=1.0 / 128.0, margin=1.0 / 64.0, time_stride=4)
    assert so.norms.shape == (1, 1) and np.isfinite(so.total)
    assert dg.linf_bound_check(traj, u0, z1).passed
    rep = dg.eps_continuation_study(cfg, data, u0, z1, [1e-1, 5e-2, 2.5e-2])
    assert rep.monotone
