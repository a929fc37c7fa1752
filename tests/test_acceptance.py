"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  The bundled scenario files under scenarios/ are the single source
of problem data; criteria that pin solver parameters override tau or eps
explicitly.
"""
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from doublephase import diagnostics as dg, flux, runner, spaces
from doublephase.fields import make_field, tensor_points
from doublephase.galerkin import build_basis, solve

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
LAM11 = 2.0 * math.pi ** 2

BUNDLED_SOLVABLE = ["heat_mms", "forced_mms", "unordered_sweep", "plap_slow",
                    "linear_flux", "stability"]


def verdict(num, name, passed, detail=""):
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def scenario(name):
    return runner.load_config(SCENARIOS / f"{name}.yaml")


@pytest.fixture(scope="module")
def heat_run():
    config = scenario("heat_mms")
    start = time.perf_counter()
    traj = solve(config.solver, config.data, config.initial, config.source_field())
    elapsed = time.perf_counter() - start
    return config, traj, elapsed


@pytest.fixture(scope="module")
def residual_table():
    """Max relative energy residual for every bundled scenario at two taus."""
    table = {}
    for name in BUNDLED_SOLVABLE:
        config = scenario(name)
        f_field = config.source_field()
        for tau in (1e-3, 5e-4):
            traj = solve(replace(config.solver, tau=tau), config.data,
                         config.initial, f_field)
            series = dg.core_series(traj)
            table[(name, tau)] = float(series.energy_residual_rel.max())
    return table


def test_criterion_1_heat_exactness(heat_run):
    config, traj, elapsed = heat_run
    basis = traj.basis
    exact = np.zeros(basis.size)
    exact[0] = math.exp(-LAM11 * config.data.horizon)
    err = float(np.linalg.norm(traj.coeffs[-1] - exact))
    passed = err <= 5e-3 and elapsed <= 30.0
    verdict(1, "heat benchmark exactness", passed,
            f"L2 error {err:.3e} (<= 5e-3), runtime {elapsed:.1f}s (<= 30s)")


def test_criterion_2_forced_mms_order():
    config = scenario("forced_mms")
    f_field = config.source_field()
    finals = {}
    for tau in (4e-3, 2e-3, 1e-3):
        traj = solve(replace(config.solver, tau=tau), config.data,
                     config.initial, f_field)
        finals[tau] = traj.coeffs[-1]
    d1 = float(np.linalg.norm(finals[4e-3] - finals[2e-3]))
    d2 = float(np.linalg.norm(finals[2e-3] - finals[1e-3]))
    order = math.log2(d1 / d2)
    exact = np.zeros_like(finals[1e-3])
    exact[0] = math.exp(-config.data.horizon)
    recovery = float(np.linalg.norm(finals[1e-3] - exact))
    passed = (0.7 <= order <= 1.3) and recovery <= 2e-4
    verdict(2, "forced manufactured-solution order", passed,
            f"observed order {order:.3f} in [0.7, 1.3], recovery {recovery:.2e}")


def test_criterion_3_energy_equality(residual_table):
    bad = []
    details = []
    for name in BUNDLED_SOLVABLE:
        r1 = residual_table[(name, 1e-3)]
        r2 = residual_table[(name, 5e-4)]
        ratio = r1 / r2 if r2 > 0 else math.inf
        details.append(f"{name}: {r1:.2e} ratio {ratio:.2f}")
        if r1 > 1e-2 or not (1.5 <= ratio <= 3.0):
            bad.append(name)
    verdict(3, "energy equality residuals", not bad, "; ".join(details))


def test_criterion_4_gronwall_stability():
    config = scenario("stability")
    f_field = config.source_field()
    base = solve(config.solver, config.data, config.initial, f_field)
    rng = np.random.default_rng(11)
    violations = 0
    for k in range(20):
        delta = 0.1 * 0.5 ** (k % 4)
        kvec = [int(v) for v in rng.integers(1, 4, size=2)]
        u0p = runner._field_sum(config.initial, make_field(
            {"family": "modes", "coeffs": [kvec + [delta]]}, 2))
        if rng.integers(0, 2):
            gvec = [int(v) for v in rng.integers(1, 4, size=2)]
            g_field = runner._field_sum(f_field, make_field(
                {"family": "modes", "coeffs": [gvec + [delta]]}, 2))
        else:
            g_field = f_field
        other = solve(config.solver, config.data, u0p, g_field)
        rep = dg.stability_experiments(base, [other])[0]
        if not rep.passed:
            violations += 1
    verdict(4, "gronwall stability over 20 pairs", violations == 0,
            f"{violations} violations")


def test_criterion_5_monotonicity_suite():
    rng = np.random.default_rng(55)
    n = 100_000
    xi = rng.normal(scale=1.5, size=(n, 2))
    eta = rng.normal(scale=1.5, size=(n, 2))
    p = rng.uniform(1.05, 4.5, n)
    eps = rng.uniform(0.0, 0.99, n)
    gap = flux.monotonicity_gap(xi, eta, p, eps)
    nonneg_ok = bool(np.all(gap >= 0.0))
    mask = p >= 2.0
    lower = flux.gap_lower_bound(xi, eta, p, eps)
    branch_ok = bool(np.all(gap[mask] >= lower[mask] * (1 - 1e-12) - 1e-15))

    config = scenario("unordered_sweep")
    grid = spaces.tensor_gauss_legendre(2, 10).with_time(np.linspace(0, 0.05, 4))
    basis = build_basis(2, 3)
    gp = basis.gradients(grid.space_nodes)
    pair_min = math.inf
    for _ in range(100):
        gu = spaces.SampledField(
            np.einsum("mnj,kj->kmn", gp, rng.normal(size=(4, basis.size))),
            grid, vector=True)
        gv = spaces.SampledField(
            np.einsum("mnj,kj->kmn", gp, rng.normal(size=(4, basis.size))),
            grid, vector=True)
        pair_min = min(pair_min, spaces.pairing_G_eps(gu, gv, rng.uniform(0, 0.9),
                                                      config.data))
    pairs_ok = pair_min >= 0.0
    verdict(5, "monotonicity suite", nonneg_ok and branch_ok and pairs_ok,
            f"min gap {gap.min():.2e}, min pairing {pair_min:.2e}")


def test_criterion_6_variable_exponent_suite():
    rng = np.random.default_rng(66)
    grid = spaces.tensor_gauss_legendre(2, 12)
    basis = build_basis(2, 3)
    phi = basis.values(grid.space_nodes)

    # constant-exponent closed forms to 1e-10
    const_ok = True
    for value, r in ((3.0, 2.0), (0.25, 3.0), (7.0, 1.5)):
        f = spaces.SampledField(np.full(grid.n_space, value), grid)
        lam = spaces.luxemburg_norm(f, np.full(grid.n_space, r), rel_tol=1e-10)
        const_ok = const_ok and abs(lam - value) < 1e-10

    contract_ok = sandwich_ok = holder_ok = True
    for _ in range(100):
        vals = phi @ rng.normal(size=basis.size) * rng.uniform(0.1, 10.0)
        r = rng.uniform(1.3, 2.6) + rng.uniform(0.0, 0.6) * grid.space_nodes[:, 0]
        f = spaces.SampledField(vals, grid)
        lam = spaces.luxemburg_norm(f, r, rel_tol=1e-10)
        if lam > 0:
            mod = spaces.modular(spaces.SampledField(vals / lam, grid), r)
            contract_ok = contract_ok and (1.0 - 1e-9 <= mod <= 1.0)
        sandwich_ok = sandwich_ok and spaces.check_modular_norm_sandwich(f, r).passed
        g = spaces.SampledField(phi @ rng.normal(size=basis.size), grid)
        holder_ok = holder_ok and spaces.holder_pairing_check(f, g, r).passed
    verdict(6, "variable-exponent space suite",
            const_ok and contract_ok and sandwich_ok and holder_ok,
            f"closed forms {const_ok}, contract {contract_ok}, "
            f"sandwich {sandwich_ok}, holder {holder_ok}")


@pytest.fixture(scope="module")
def unordered_sweep_result(tmp_path_factory):
    config = scenario("unordered_sweep")
    outdir = tmp_path_factory.mktemp("unordered_sweep")
    code, manifest = runner.perform_sweep(config, outdir)
    return code, manifest


def test_criterion_7_higher_integrability_uniform(unordered_sweep_result):
    code, manifest = unordered_sweep_result
    check = {c["name"]: c for c in manifest["checks"]}["higher_integrability_uniform"]
    member_ok = all(m["exit"] == 0 for m in manifest["members"])
    verdict(7, "higher integrability eps/m-uniformity",
            check["passed"] and member_ok,
            f"max/min ratio {check['value']:.4f} <= {check['threshold']}, "
            f"{len(manifest['members'])} members")


def test_criterion_8_eps_continuation_decay(eps_chain):
    halvings = [1e-1 * 0.5 ** k for k in range(5)]
    details = []
    all_ok = True
    for name in ("plap_slow", "unordered_sweep"):
        config = scenario(name)
        cfg = replace(config.solver, tau=2.5e-3)
        rep = eps_chain(cfg, config.data, config.initial, config.source_field(), halvings)
        strict = bool(np.all(rep.distances[1:] <= 1.1 * rep.distances[:-1]))
        nonzero = bool(np.all(rep.distances > 0))
        all_ok = all_ok and strict and nonzero and len(rep.distances) == 4
        details.append(f"{name}: d {[f'{d:.2e}' for d in rep.distances]}")
    config = scenario("linear_flux")
    rep = eps_chain(config.solver, config.data, config.initial, config.source_field(), halvings)
    zero_ok = bool(np.all(rep.distances == 0.0))
    details.append("linear: all zero" if zero_ok else "linear: NONZERO")
    verdict(8, "vanishing-regularization cauchy decay", all_ok and zero_ok,
            "; ".join(details))


def _difference_norms(traj, h, margin, time_stride):
    """||D_i(sqrt(F_eps) D_j u)||^2 by central differences of the composite
    sqrt(F_eps) D_j u on a uniform lattice of step h over the interior box,
    with trapezoid weights in space and time: an O(h^2) approximation built
    independently of the monitor's chain rule."""
    dim = traj.data.dim
    n = int(round((1.0 - 2.0 * margin) / h)) + 1
    axis = margin + h * np.arange(-1, n + 1)  # one ghost point each side
    pts = tensor_points(axis, dim)
    lines = traj.basis.line_tables(axis)
    w1 = np.full(n, h)
    w1[[0, -1]] = h / 2.0
    weights = np.prod(np.meshgrid(*([w1] * dim), indexing="ij"), axis=0)
    idx = sorted(set(range(0, len(traj.times), time_stride)) | {len(traj.times) - 1})
    rows = []
    for k in idx:
        grad = traj.basis.lattice(lines, traj.coeffs[k], 1)
        dens = flux.density_kernel(*traj.data.sample(pts, traj.times[k]), grad, traj.eps)
        comp = (np.sqrt(dens)[:, None] * grad).reshape((n + 2,) * dim + (dim,))
        inner = (slice(1, -1),) * dim
        rows.append([[np.sum(((np.roll(comp, -1, i) - np.roll(comp, 1, i))[inner][..., j]
                              / (2.0 * h)) ** 2 * weights) for j in range(dim)]
                     for i in range(dim)])
    return np.trapezoid(np.asarray(rows), traj.times[idx], axis=0)


def test_criterion_9_second_order_uniformity(unordered_sweep_result):
    code, manifest = unordered_sweep_result
    check = {c["name"]: c for c in manifest["checks"]}["second_order_uniform"]
    sweep_ok = check["passed"]

    # eps-uniformity along the eps sweep at m = 8
    config = scenario("unordered_sweep")
    f_field = config.source_field()
    cfg = replace(config.solver, tau=2.5e-3)
    margin = 1.0 / 64.0
    totals, converging = {}, True
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        traj = solve(replace(cfg, eps=eps), config.data, config.initial, f_field)
        norms = dg.second_order_flux_norm(traj, margin=margin, time_stride=4).norms
        totals[eps] = float(norms.sum())
        if eps == 1e-3:
            # central differences converge to the chain-rule norms at their
            # own order: the error falls about 4x per halving of h
            errs = [np.abs(_difference_norms(traj, h, margin, 4) - norms).max()
                    for h in (1.0 / 64.0, 1.0 / 128.0, 1.0 / 256.0)]
            rates = [e0 / e1 for e0, e1 in zip(errs, errs[1:])]
            converging = all(3.0 <= r <= 5.0 for r in rates)
    finite = all(np.isfinite(v) for v in totals.values())
    ratio = max(totals.values()) / min(totals.values())
    verdict(9, "second-order flux norms", sweep_ok and converging and finite and ratio <= 3.0,
            f"sweep ratio {check['value']:.4f}, eps-ratio {ratio:.4f}, "
            f"difference rates {', '.join(f'{r:.2f}' for r in rates)}")


def test_criterion_10_sup_envelope_random_scenarios(random_sup_trajectories):
    violations = 0
    apriori_violations = 0
    for traj in random_sup_trajectories:
        series = dg.core_series(traj)
        rep = dg.linf_bound_check(traj, series)
        if not rep.passed:
            violations += 1
        if not dg.apriori_energy_bound(traj, series).passed:
            apriori_violations += 1
    verdict(10, "sup envelope over 50 random scenarios",
            violations == 0 and apriori_violations == 0,
            f"{violations} envelope / {apriori_violations} energy-bound violations")
