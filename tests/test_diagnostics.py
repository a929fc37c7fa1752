import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from doublephase import diagnostics as dg, flux, runner, spaces
from doublephase.fields import (ExponentData, Field, lattice_axis, lattice_points, make_field,
                                tensor_axis, tensor_points)
from doublephase.galerkin import EigenBasis, SolverConfig, solve

LAM11 = 2.0 * math.pi ** 2
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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
    series = dg.core_series(traj)
    assert np.all(series.energy_residual == 0.0)
    assert np.all(series.l2_sq == 0.0)
    hi = dg.higher_integrability(traj, [0.1, 0.5])
    assert all(v == 0.0 for v in hi.values())
    ir = dg.interpolation_ratio(traj, 0.5, 0.5)
    assert ir.implied_constant == 0.0
    so = dg.second_order_flux_norm(traj, margin=1.0 / 32.0)
    assert so.total == 0.0
    ap = dg.apriori_energy_bound(traj, series)
    assert ap.lhs == 0.0 and ap.passed
    # stationary zero state: the sup modular equals the analytic constant
    td = dg.time_derivative_bound(traj, series)
    expect = 0.5 * cfg.eps ** 1.8 + 0.5 * cfg.eps ** 2.1
    assert td.detail["sup_modular"] == pytest.approx(expect, rel=1e-12)
    assert td.detail["ut_sq"] == 0.0


def test_heat_series_match_discrete_closed_form(heat_traj):
    # every step multiplies the first coefficient by 1/(1 + lambda tau); the
    # flux energy is lambda * ||u||^2
    traj = heat_traj
    series = dg.core_series(traj)
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
        traj = solve(SolverConfig(m_per_dim=4, eps=1e-2, tau=tau), data, u0, ZERO2)
        rels[tau] = dg.core_series(traj).energy_residual_rel.max()
    assert rels[1e-3] <= 1e-2
    ratio = rels[1e-3] / rels[5e-4]
    assert 1.5 <= ratio <= 3.0


def test_apriori_bound_heat_ratio_below_one(heat_traj):
    series = dg.core_series(heat_traj)
    rep = dg.apriori_energy_bound(heat_traj, series)
    assert rep.passed and rep.ratio < 1.0
    # analytic check of the left side: sup ||u||^2 = 1, dissipation ~ (1-e^(-2 lam T))/2
    assert rep.lhs == pytest.approx(1.0 + 0.5 * (1 - math.exp(-2 * LAM11 * 0.1)), rel=2e-2)


def test_gradbound_checkpointwise(heat_traj):
    series = dg.core_series(heat_traj)
    rep = dg.gradbound_check(heat_traj, series)
    assert rep.passed


def test_higher_integrability_heat_vs_refined_quadrature(heat_traj):
    # s_lower = 2, sigma = 0.5: integral of |grad u|^2.5 over the cylinder.
    # |grad u|^2.5 has a C^1 kink at the gradient zeros, so the 1e-6 match
    # against the refined rule needs the solver grid at order 32.
    data = data_const()
    traj = solve(SolverConfig(m_per_dim=4, eps=1e-2, tau=1e-3, quad_order=32),
                 data, mode_field([[1, 1, 1.0]]), ZERO2)
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
        traj = solve(SolverConfig(m_per_dim=4, eps=1e-2, tau=tau), data, u0, ZERO2)
        consts.append(dg.interpolation_ratio(traj, 0.5, 0.5).implied_constant)
    assert abs(consts[0] - consts[1]) <= 0.2 * max(abs(consts[0]), abs(consts[1]))


def test_time_derivative_bound_heat(heat_traj):
    rep = dg.time_derivative_bound(heat_traj, dg.core_series(heat_traj))
    assert rep.passed and np.isfinite(rep.ratio)
    # accumulated tau*||u_t||^2 for the discrete heat flow has a closed form
    tau = heat_traj.cfg.tau
    r = 1.0 / (1.0 + LAM11 * tau)
    k = np.arange(1, len(heat_traj.times))
    increments = ((r ** k - r ** (k - 1)) ** 2) / tau
    assert rep.detail["ut_sq"] == pytest.approx(increments.sum(), rel=1e-7)


def test_second_order_norms_heat_analytic():
    # p = q = 2: the composite field is just grad u, whose derivative norms
    # integrate analytically over the interior subdomain; the Gauss rule
    # integrates the smooth squared fields to rounding
    data = data_const()
    cfg = SolverConfig(m_per_dim=4, eps=1e-2, tau=1e-3)
    traj = solve(cfg, data, mode_field([[1, 1, 1.0]]), ZERO2)
    margin = 1.0 / 32.0
    rep = dg.second_order_flux_norm(traj, margin=margin, time_stride=1)

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
    assert rep.norms[0, 0] == pytest.approx(diag, rel=1e-10)
    assert rep.norms[0, 1] == pytest.approx(off, rel=1e-10)
    assert rep.norms[1, 0] == pytest.approx(rep.norms[0, 1], rel=1e-10)


def test_second_order_margin_rule(heat_traj):
    # the box [margin, 1 - margin]^N must be nonempty; margin 0 is the whole
    # box, where the rule is the solver's own
    for margin in (0.5, -0.01):
        with pytest.raises(ValueError, match="outside"):
            dg.second_order_flux_norm(heat_traj, margin=margin)
    whole = dg.second_order_flux_norm(heat_traj, margin=0.0, time_stride=10)
    inner = dg.second_order_flux_norm(heat_traj, margin=1.0 / 8.0, time_stride=10)
    assert np.all(inner.norms < whole.norms)


def test_stability_identical_and_heat_perturbation():
    data = data_const()
    cfg = SolverConfig(m_per_dim=4, eps=1e-2, tau=2e-3)
    u0 = mode_field([[1, 1, 1.0]])
    base = solve(cfg, data, u0, ZERO2)
    same = solve(cfg, data, u0, ZERO2)
    rep = dg.stability_experiments(base, [same])[0]
    assert rep.passed and np.all(rep.diff_l2_sq == 0.0)

    delta = 1e-2
    pert = mode_field([[1, 1, 1.0], [2, 1, delta]])
    other = solve(cfg, data, pert, ZERO2)
    rep2 = dg.stability_experiments(base, [other])[0]
    assert rep2.passed
    # linear decoupling: the difference is the (2,1) mode decaying at 5 pi^2
    lam21 = 5.0 * math.pi ** 2
    k = np.arange(len(base.times))
    expect = delta ** 2 * (1.0 + lam21 * cfg.tau) ** (-2.0 * k.astype(float))
    assert np.allclose(rep2.diff_l2_sq, expect, rtol=1e-6)
    assert rep2.bound == pytest.approx(math.exp(0.1) * delta ** 2, rel=1e-9)


def test_grouped_stability_experiments_equal_the_per_pair_formula(monkeypatch):
    # the Gronwall quantities of each pair as the per-pair experiment forms
    # them (data sampled and both fluxes formed in `spaces.pairing_G_eps`),
    # bit for bit, with the base's flux formed once for the group
    config = runner.load_config(SCENARIOS / "stability.yaml")
    data, f = replace(config.data, horizon=0.01), config.source_field()
    base = solve(config.solver, data, config.initial, f)
    jobs = runner._stability_jobs(config, runner._sweep(config)[4])[:5]
    others = [solve(config.solver, data, *runner._perturbed(config, f, job)) for job in jobs]
    kernel, calls = flux.vector_kernel, []
    monkeypatch.setattr(flux, "vector_kernel", lambda *args: calls.append(1) or kernel(*args))
    reports = dg.stability_experiments(base, others)
    assert len(calls) == 1 + len(others)
    monkeypatch.setattr(flux, "vector_kernel", kernel)
    st = base.spacetime_grid()
    a, b, p, q = data.sample(st.space_nodes, st.time_nodes)
    gu = spaces.SampledField(base.grads, st, vector=True)
    for other, rep in zip(others, reports):
        dc = base.coeffs - other.coeffs
        diff = np.einsum("kj,kj->k", dc, dc)
        bound = np.exp(base.horizon) * (
            diff[0] + st.integrate((base.source_values - other.source_values) ** 2))
        dgrad = base.grads - other.grads
        grad_mod = st.integrate(flux.powf(np.sqrt(np.sum(dgrad ** 2, axis=-1)), np.minimum(p, q)))
        pairing = spaces.pairing_G_eps(gu, spaces.SampledField(other.grads, st, vector=True),
                                       base.eps, data)
        assert np.array_equal(rep.diff_l2_sq, diff) and rep.bound == float(bound)
        assert rep.grad_modular == float(grad_mod) and rep.pairing == float(pairing)
        assert rep.slack == 1e-6 * max(1.0, bound) and rep.passed
        assert rep.pairing > 0.0  # p varies in x, so the pairing is no identity 0 == 0
        one = dg.stability_experiments(base, [other])[0]
        assert (one.bound, one.grad_modular, one.pairing) == (rep.bound, rep.grad_modular,
                                                              rep.pairing)


def _counted_run(source=0.0):
    config = runner.config_from_dict({
        "name": "count_samples", "dim": 2, "horizon": 0.02, "alpha": 0.9,
        "fields": {"p": {"family": "affine", "base": 1.9, "slope": [0.1, 0.0]},
                   "q": 2.1, "a": 0.5, "b": 0.5},
        "initial": {"family": "modes", "coeffs": [[1, 1, 1.0]]}, "source": source,
        "solver": {"m_per_dim": 3, "eps": 1.0e-2, "tau": 2.0e-3}})
    traj = solve(config.solver, config.data, config.initial, config.source_field())
    return config, traj


def test_run_diagnostics_samples_solver_fields_once(monkeypatch):
    # every monitor reads a, b, p, q on the solver grid from the trajectory
    config, traj = _counted_run()
    nodes = traj.grid.space_nodes
    calls = []
    original = ExponentData.sample

    def counting(self, x, t):
        if np.shape(x) == nodes.shape and np.array_equal(x, nodes):
            calls.append(np.ndim(t))
        return original(self, x, t)

    monkeypatch.setattr(ExponentData, "sample", counting)
    runner.run_diagnostics(traj, config)
    assert calls == [1]


def _source_calls_on_nodes(monkeypatch, source):
    """The times at which run_diagnostics calls the run's source on the solver nodes."""
    config, traj = _counted_run(source)
    nodes = traj.grid.space_nodes
    calls = []
    original = Field.__call__

    def counting(self, x, t):
        if self is traj.source and np.shape(x) == nodes.shape and np.array_equal(x, nodes):
            calls.append(float(t))
        return original(self, x, t)

    monkeypatch.setattr(Field, "__call__", counting)
    runner.run_diagnostics(traj, config)
    return calls, list(traj.times)


def test_run_diagnostics_samples_the_source_once_per_checkpoint(monkeypatch):
    # core_series, apriori_energy_bound and time_derivative_bound share the
    # trajectory's one sampling of f on the solver nodes
    decaying = {"family": "modes", "coeffs": [[1, 1, 0.5]], "tdecay": 1.0}
    calls, times = _source_calls_on_nodes(monkeypatch, decaying)
    assert calls == times


def test_run_diagnostics_samples_a_steady_source_once(monkeypatch):
    calls, times = _source_calls_on_nodes(monkeypatch, 0.0)
    assert calls == [times[0]]


def test_second_order_peak_memory_does_not_grow_with_checkpoints(heat_traj):
    # the composite is formed one kept checkpoint at a time; forming it for
    # all kept checkpoints at once roughly doubles the peak here
    def peak(stride):
        tracemalloc.start()
        try:
            dg.second_order_flux_norm(heat_traj, margin=1.0 / 64.0, time_stride=stride)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert len(heat_traj.times) == 101  # 51 checkpoints kept at stride 2, 101 at stride 1
    assert peak(1) <= 1.25 * peak(2)


def _second_order_one_checkpoint_at_a_time(traj, margin, time_stride):
    """The norms of `second_order_flux_norm`, formed one kept checkpoint per pass with einsum."""
    data, dim, scale = traj.data, traj.data.dim, 1.0 - 2.0 * margin
    axis = margin + scale * tensor_axis(traj.grid.space_nodes, dim)
    pts, lines = tensor_points(axis, dim), traj.basis.line_tables(axis)
    weights = scale ** dim * traj.grid.space_weights
    idx = list(range(0, len(traj.times), time_stride))
    if idx[-1] != len(traj.times) - 1:
        idx.append(len(traj.times) - 1)
    flds = (data.a, data.b, data.p, data.q)
    accum = np.zeros((len(idx), dim, dim))
    for row, k in enumerate(idx):
        grad_u = traj.basis.lattice(lines, traj.coeffs[k], 1)
        hess_u = traj.basis.lattice(lines, traj.coeffs[k], 2)
        beta = flux.beta_eps(grad_u, traj.eps)
        log_beta = np.log(beta)[:, None]
        dlog_beta = 2.0 * np.einsum("mk,mik->mi", grad_u, hess_u) / beta[:, None]
        a, b, p, q = data.sample(pts, traj.times[k])
        da, db, dp, dq = (fld.grad(pts, traj.times[k]) for fld in flds)
        dens, d_dens = 0.0, 0.0
        for c, dc, r, dr in ((a, da, p, dp), (b, db, q, dq)):
            power = flux.powf(beta, (r - 2.0) / 2.0)
            dens = dens + c * power
            d_dens = d_dens + power[:, None] * (dc + c[:, None] * (
                0.5 * dr * log_beta + (0.5 * r - 1.0)[:, None] * dlog_beta))
        root = np.sqrt(dens)[:, None, None]
        comp = root * hess_u + d_dens[:, :, None] * grad_u[:, None, :] / (2.0 * root)
        accum[row] = np.einsum("mij,mij,m->ij", comp, comp, weights)
    return np.trapezoid(accum, traj.times[idx], axis=0)


@pytest.mark.parametrize("moving", [False, True])
def test_second_order_blocks_equal_one_checkpoint_at_a_time_bitwise(moving, moving_data):
    # 41 checkpoints: at stride 1 and at K/8 = 5 the last block is partial
    cfg = SolverConfig(m_per_dim=4, eps=1e-2, tau=2.5e-3)
    data = moving_data if moving else data_const(p=1.8, q=2.2, horizon=moving_data.horizon)
    assert data.steady is not moving
    traj = solve(cfg, data, mode_field([[1, 1, 1.0], [2, 1, 0.3]]), ZERO2)
    k = len(traj.times) - 1
    for stride in (1, k // 8):
        assert (len(range(0, k + 1, stride)) + 1) % dg.SECOND_ORDER_BLOCK != 0
        got = dg.second_order_flux_norm(traj, margin=1.0 / 64.0, time_stride=stride).norms
        assert np.array_equal(got, _second_order_one_checkpoint_at_a_time(traj, 1.0 / 64.0, stride))


def test_linf_envelope_with_unit_source():
    # f = 1 pumps the sup envelope linearly: max|u| <= ||u0||_inf + t + slack
    data = data_const()
    cfg = SolverConfig(m_per_dim=6, eps=1e-2, tau=2e-3)
    one = make_field(1.0, 2)
    traj = solve(cfg, data, mode_field([[1, 1, 0.5]]), one)
    rep = dg.linf_bound_check(traj, dg.core_series(traj))
    assert rep.passed
    assert rep.envelope[-1] == pytest.approx(1.0 + 0.1 + 1e-3, abs=1e-12)


def _envelope_source_calls(monkeypatch, source):
    """(points, time) of every call one linf_bound_check makes to u0 and to f."""
    _, traj = _counted_run(source)
    series = dg.core_series(traj)
    calls = {"initial": [], "source": []}
    original = Field.__call__

    def counting(self, x, t):
        for name in calls:
            if self is getattr(traj, name):
                calls[name].append((len(x), float(t)))
        return original(self, x, t)

    monkeypatch.setattr(Field, "__call__", counting)
    dg.linf_bound_check(traj, series)
    return calls, [float(t) for t in traj.times]


def test_sup_envelope_samples_a_steady_source_once(monkeypatch):
    calls, times = _envelope_source_calls(monkeypatch, {"family": "modes", "coeffs": [[1, 1, 0.5]]})
    assert calls == {"initial": [(dg.SUP_LATTICE ** 2, 0.0)],
                     "source": [(dg.SUP_LATTICE ** 2, times[0])]}


def test_sup_envelope_samples_a_decaying_source_once_per_checkpoint(monkeypatch):
    decaying = {"family": "modes", "coeffs": [[1, 1, 0.5]], "tdecay": 1.0}
    calls, times = _envelope_source_calls(monkeypatch, decaying)
    assert calls == {"initial": [(dg.SUP_LATTICE ** 2, 0.0)],
                     "source": [(dg.SUP_LATTICE ** 2, t) for t in times]}


def _envelope_on(traj, n, slack=1e-3):
    """The sup envelope with the data sups on the n^dim lattice, f sampled at every checkpoint."""
    pts = lattice_points(traj.data.dim, n)
    u0_sup = float(np.abs(traj.initial(pts, 0.0)).max())
    f_sup = np.array([np.abs(traj.source(pts, t)).max() for t in traj.times])
    return u0_sup + dg._cumtrapz(f_sup, traj.times) + slack


@pytest.fixture(scope="module")
def forced_mms_traj():
    config = runner.load_config(SCENARIOS / "forced_mms.yaml")
    return solve(config.solver, config.data, config.initial, config.source_field())


def test_sup_envelope_is_never_above_the_finer_lattice_envelope(forced_mms_traj,
                                                                random_sup_trajectories):
    # the sup lattice's axis is every other node of the 129-point axis, so
    # its data sups, and the envelope with them, can only be lower
    fine = 2 * dg.SUP_LATTICE - 1
    assert np.array_equal(lattice_axis(fine)[::2], lattice_axis(dg.SUP_LATTICE))
    pairs = [(dg.linf_bound_check(traj, dg.core_series(traj)).envelope, _envelope_on(traj, fine))
             for traj in [forced_mms_traj] + random_sup_trajectories]
    assert all(np.all(envelope <= finer) for envelope, finer in pairs)
    # on the manufactured solution the two lattices give the same sups
    assert np.array_equal(*pairs[0])


def test_run_diagnostics_forms_the_eps_density_once(monkeypatch):
    # core_series and interpolation_ratio share the trajectory's density
    config, traj = _counted_run()
    whole = traj.grads.shape  # (K+1, M, N)
    calls = []
    for name in ("density_kernel", "vector_kernel"):
        def counting(a, b, p, q, xi, eps, *rest, _name=name, _kernel=getattr(flux, name)):
            if np.shape(xi) == whole and eps == traj.eps:
                calls.append(_name)
            return _kernel(a, b, p, q, xi, eps, *rest)

        monkeypatch.setattr(flux, name, counting)
    runner.run_diagnostics(traj, config)
    assert calls == ["density_kernel"]


def test_run_diagnostics_integrates_each_sigma_once(monkeypatch):
    config, traj = _counted_run()
    sigmas = []
    original = dg.higher_integrability

    def counting(tr, sigma_grid):
        sigmas.extend(float(s) for s in sigma_grid)
        return original(tr, sigma_grid)

    monkeypatch.setattr(dg, "higher_integrability", counting)
    _, _, extras = runner.run_diagnostics(traj, config)
    assert runner.VARSIGMA in runner.SIGMA_GRID
    assert sigmas == list(runner.SIGMA_GRID)
    # a varsigma the table lacks is integrated on its own
    sigmas.clear()
    dg.interpolation_ratio(traj, 0.2, 0.5, extras["higher_integrability"])
    assert sigmas == [0.2]


def test_shared_density_gives_the_kernels_values_bitwise():
    decaying = {"family": "modes", "coeffs": [[1, 1, 0.5]], "tdecay": 1.0}
    _, traj = _counted_run(decaying)
    series = dg.core_series(traj)
    fv = flux.vector_kernel(*traj.fields, traj.grads, traj.eps)
    assert np.array_equal(traj.density[..., None] * traj.grads, fv)
    fe = np.sum(fv * traj.grads, axis=-1) @ traj.grid.space_weights
    assert np.array_equal(series.flux_energy_eps, fe)
    # the einsum this contraction replaced adds the same nonnegative terms in
    # another order: each sum is within (n - 1) ulp-sized steps of the exact one
    old = np.einsum("kmn,kmn,m->k", fv, traj.grads, traj.grid.space_weights, optimize=True)
    assert np.all(np.abs(fe - old) <= 2 * (fv[0].size + 2) * np.finfo(float).eps * old)

    ir = dg.interpolation_ratio(traj, 0.5, 0.25, dg.higher_integrability(traj, (0.1, 0.5)))
    h = dg.higher_integrability(traj, [0.5])[0.5]
    hess = traj.basis.lattice(traj.lines, traj.coeffs, 2)
    dens = flux.density_kernel(*traj.fields, traj.grads, traj.eps)
    term = traj.spacetime_grid().integrate(dens * np.sum(hess ** 2, axis=(-2, -1)))
    assert ir.lhs == traj.data.alpha * h
    assert ir.second_order_term == term
    assert ir.implied_constant == traj.data.alpha * h - 0.25 * term
    assert dg.interpolation_ratio(traj, 0.5, 0.25) == ir


def test_second_order_samples_steady_data_once(monkeypatch, heat_traj):
    # marked unsteady, the same data are sampled at each kept checkpoint and
    # give the same norms bit for bit
    data = heat_traj.data
    unsteady = replace(heat_traj, data=replace(data, **{
        name: replace(getattr(data, name), steady=False) for name in "abpq"}))
    calls = []
    original = ExponentData.sample

    def counting(self, x, t):
        calls.append(self)
        return original(self, x, t)

    monkeypatch.setattr(ExponentData, "sample", counting)
    once = dg.second_order_flux_norm(heat_traj, time_stride=10)
    assert len(calls) == 1
    calls.clear()
    each = dg.second_order_flux_norm(unsteady, time_stride=10)
    assert len(calls) == 11  # checkpoints 0, 10, ..., 100
    assert np.array_equal(once.norms, each.norms)


def test_eps_continuation_linear_flux_identical(eps_chain):
    data = data_const()
    cfg = SolverConfig(m_per_dim=3, eps=1e-1, tau=5e-3, quad_order=12)
    rep = eps_chain(cfg, data, mode_field([[1, 1, 1.0]]), ZERO2, [1e-1, 5e-2, 2.5e-2])
    assert rep.monotone
    assert np.all(rep.distances == 0.0)
    assert np.all(rep.pairings == 0.0)


def test_eps_continuation_plap_decreasing(eps_chain):
    data = data_const(p=1.8, q=1.8, a=1.0, b=0.0, horizon=0.02)
    cfg = SolverConfig(m_per_dim=4, eps=1e-1, tau=2.5e-3)
    rep = eps_chain(cfg, data, mode_field([[1, 1, 0.8]]), ZERO2, [1e-1, 5e-2, 2.5e-2, 1.25e-2])
    assert rep.monotone
    assert np.all(rep.distances[:-1] > rep.distances[1:])
    assert np.all(rep.pairings >= 0.0)


def test_gradient_cauchy_builds_one_gradient_table_per_basis(monkeypatch):
    # the members of an eps study share one basis, so its line tables on
    # the base grid are built once, not once per member
    data = data_const(p=1.8, q=1.8, a=1.0, b=0.0, horizon=0.01)
    cfg = SolverConfig(m_per_dim=3, eps=1e-1, tau=2.5e-3)
    eps_seq = [1e-1, 5e-2, 2.5e-2]
    trajs = [solve(replace(cfg, eps=e), data, mode_field([[1, 1, 0.8]]), ZERO2)
             for e in eps_seq]
    calls = []
    original = EigenBasis.line_tables

    def counting(self, axis):
        calls.append(self.m_per_dim)
        return original(self, axis)

    monkeypatch.setattr(EigenBasis, "line_tables", counting)
    rep = dg._gradient_cauchy(data, trajs[-1].spacetime_grid(),
                              [(tr.basis, tr.coeffs, tr.eps) for tr in trajs],
                              [f"eps={e:g}" for e in eps_seq])
    assert calls == [3]
    assert rep.distances.shape == (2,) and np.all(rep.distances > 0.0)


def test_gradient_cauchy_samples_the_data_once(monkeypatch):
    # one sample of a, b, p, q serves every pairing and distance of the
    # study, and its pairings are `spaces.pairing_G_eps` of the gradient
    # tables it formed, bit for bit
    data = ExponentData(dim=2, horizon=0.01,
                        p=make_field({"family": "affine", "base": 1.8, "slope": [0.2, 0.0]}, 2),
                        q=make_field(2.1, 2), a=make_field(0.5, 2), b=make_field(0.5, 2),
                        alpha=0.9, lipschitz_probe_resolution=9, time_probe_resolution=3)
    cfg = SolverConfig(m_per_dim=3, eps=1e-1, tau=2.5e-3)
    trajs = [solve(replace(cfg, eps=e), data, mode_field([[1, 1, 0.8]]), ZERO2)
             for e in (1e-1, 5e-2, 2.5e-2, 1.25e-2)]
    st = trajs[-1].spacetime_grid()
    samples, tables = [], []
    sample, lattice = ExponentData.sample, EigenBasis.lattice
    monkeypatch.setattr(ExponentData, "sample",
                        lambda self, x, t: samples.append(1) or sample(self, x, t))
    monkeypatch.setattr(EigenBasis, "lattice",
                        lambda *args: tables.append(lattice(*args)) or tables[-1])
    rep = dg._gradient_cauchy(data, st, [(tr.basis, tr.coeffs, tr.eps) for tr in trajs],
                              ["eps"] * len(trajs))
    monkeypatch.undo()
    assert len(samples) == 1 and len(tables) == 1
    grads = [spaces.SampledField(g, st, vector=True) for g in tables[0]]
    expect = [spaces.pairing_G_eps(gu, gv, tr.eps, data)
              for gu, gv, tr in zip(grads, grads[1:], trajs[1:])]
    assert rep.pairings.tolist() == expect and np.all(rep.pairings > 0.0)


def test_one_dimensional_pipeline_end_to_end(eps_chain):
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
    series = dg.core_series(traj)
    assert series.energy_residual_rel.max() < 2e-2
    hi = dg.higher_integrability(traj, [0.3])
    assert np.isfinite(hi[0.3]) and hi[0.3] > 0
    so = dg.second_order_flux_norm(traj, margin=1.0 / 64.0, time_stride=4)
    assert so.norms.shape == (1, 1) and np.isfinite(so.total)
    assert dg.linf_bound_check(traj, series).passed
    rep = eps_chain(cfg, data, u0, z1, [1e-1, 5e-2, 2.5e-2])
    assert rep.monotone
