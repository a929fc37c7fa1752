"""Scenario orchestration: configs, runs, sweeps, artifacts, digest.

A scenario is one YAML file (key-value, no code) that fully determines an
experiment: problem data, initial datum, source, solver parameters,
diagnostics options with their ceilings, and optional sweep blocks.  A run
writes a manifest plus CSV artifacts into its output directory; a sweep
runs one member per parameter combination and adds a summary table with the
Cauchy distances, bound ratios, and monotonicity verdicts.

Check rows come in three kinds: "exact" for inequalities whose constants
the derivations pin down, "regression" for monitored quantities compared
against ceilings frozen in the config, and "monitor" for reported-only
values.
"""
from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import __version__, diagnostics as dg
from .fields import ConfigurationError, ExponentData, Field, make_field
from .galerkin import (SolverConfig, SolverError, Trajectory, _field_spatial_gradient,
                       build_basis, manufactured_source, solve)
from .spaces import tensor_gauss_legendre


# ---------------------------------------------------------------------------
# config


@dataclass
class RunConfig:
    name: str
    data: ExponentData
    initial: Field
    source_descriptor: dict
    solver: SolverConfig
    diagnostics: dict
    sweep: dict
    output: dict
    workers: int
    seed: int
    raw: dict

    def source_field(self) -> Field:
        return resolve_source(self.source_descriptor, self.data, self.solver.eps)


def resolve_source(descriptor, data: ExponentData, eps: float) -> Field:
    """Build the source field; the manufactured family closes over the data."""
    if isinstance(descriptor, dict) and descriptor.get("family") == "manufactured":
        return manufactured_source(data, eps,
                                   mode=descriptor.get("mode", [1] * data.dim),
                                   amplitude=float(descriptor.get("amplitude", 1.0)),
                                   rate=float(descriptor.get("rate", 1.0)))
    return make_field(descriptor, data.dim)


def load_config(path) -> RunConfig:
    """Parse and resolve a scenario file; errors carry the file location."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot read config: {exc}")
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark else str(path)
        raise ConfigurationError(f"{where}: malformed config: {exc}")
    return config_from_dict(raw, where=str(path))


def config_from_dict(raw, where: str = "<config>") -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{where}: config must be a mapping")

    def need(key):
        if key not in raw:
            raise ConfigurationError(f"{where}: missing required key '{key}'")
        return raw[key]

    try:
        dim = int(need("dim"))
        field_descriptors = need("fields")
        data = ExponentData(
            dim=dim,
            horizon=float(need("horizon")),
            p=make_field(field_descriptors["p"], dim),
            q=make_field(field_descriptors["q"], dim),
            a=make_field(field_descriptors["a"], dim),
            b=make_field(field_descriptors["b"], dim),
            alpha=float(need("alpha")),
            lipschitz_probe_resolution=int(raw.get("probe_resolution", 65)),
            time_probe_resolution=int(raw.get("time_probe_resolution", 33)),
        )
        solver_block = dict(need("solver"))
        solver = SolverConfig(
            m_per_dim=int(solver_block.pop("m_per_dim")),
            eps=float(solver_block.pop("eps")),
            tau=float(solver_block.pop("tau")),
            **{k: (int(v) if k not in ("newton_tol",) else float(v))
               for k, v in solver_block.items()},
        )
        initial = make_field(need("initial"), dim)
    except KeyError as exc:
        raise ConfigurationError(f"{where}: missing key {exc}")
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{where}: bad value: {exc}")

    return RunConfig(
        name=str(raw.get("name", Path(where).stem)),
        data=data,
        initial=initial,
        source_descriptor=raw.get("source", 0.0),
        solver=solver,
        diagnostics=dict(raw.get("diagnostics", {})),
        sweep=dict(raw.get("sweep", {})),
        output=dict(raw.get("output", {})),
        workers=int(raw.get("workers", int(os.environ.get("DOUBLEPHASE_WORKERS", "1")))),
        seed=int(raw.get("seed", 0)),
        raw=raw,
    )


# ---------------------------------------------------------------------------
# checks


@dataclass
class Check:
    name: str
    kind: str           # exact | regression | monitor
    passed: bool
    value: float
    threshold: Optional[float] = None
    detail: str = ""

    def as_dict(self):
        return {"name": self.name, "kind": self.kind, "passed": bool(self.passed),
                "value": float(self.value),
                "threshold": None if self.threshold is None else float(self.threshold),
                "detail": self.detail}


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_csv(path: Path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# single run


def _source_certificate(f_field: Field, data: ExponentData, n: int = 33) -> dict:
    """Report-only certificate that the source is admissible in space.

    Probes f = 0 on the boundary and finiteness of the squared spatial
    gradient over the cylinder (finite differences on a lattice).
    """
    pts = dg.lattice_points(data.dim, n)
    boundary = pts[np.any((pts == 0.0) | (pts == 1.0), axis=1)]
    times = np.linspace(0.0, data.horizon, 5)
    bmax = max(float(np.abs(f_field(boundary, t)).max()) for t in times) if len(boundary) else 0.0
    gsq = 0.0
    for t in times:
        g = _field_spatial_gradient(f_field, pts, t)
        gsq = max(gsq, float(np.sum(g * g) / len(pts)))
    return {"boundary_max": bmax, "boundary_zero": bool(bmax <= 1e-9),
            "grad_sq_mean_max": gsq, "grad_finite": bool(np.isfinite(gsq))}


def perform_run(config: RunConfig, outdir) -> tuple[int, dict, Optional[Trajectory]]:
    """Execute one scenario run; returns (exit_code, manifest, trajectory).

    Exit codes: 0 all assertions passed, 1 validation failure, 2 assertion
    failure, 3 solver failure.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"name": config.name, "version": __version__,
                      "seed": config.seed, "workers": config.workers,
                      "config": config.raw, "timings": {}}
    t0 = time.perf_counter()

    report = config.data.validate()
    manifest["validation"] = report.as_dict()
    manifest["timings"]["validate"] = time.perf_counter() - t0
    if not report.passed:
        manifest["failure"] = f"validation failed: {', '.join(report.failed_names())}"
        _write_manifest(outdir, manifest, exit_code=1)
        return 1, manifest, None

    f_field = config.source_field()
    manifest["source_certificate"] = _source_certificate(f_field, config.data)

    t1 = time.perf_counter()
    try:
        traj = solve(config.solver, config.data, config.initial, f_field, validate=False)
    except SolverError as exc:
        manifest["failure"] = str(exc)
        partial = exc.partial
        if partial is not None and len(partial.times) > 1:
            _write_timeseries(outdir, dg.core_series(partial, f_field), partial)
        _write_manifest(outdir, manifest, exit_code=3)
        return 3, manifest, None
    manifest["timings"]["solve"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    checks, series, extras = run_diagnostics(traj, config, f_field)
    manifest["timings"]["diagnostics"] = time.perf_counter() - t2
    manifest["checks"] = [c.as_dict() for c in checks]
    manifest["summary"] = extras

    _write_timeseries(outdir, series, traj)
    if "higher_integrability" in extras:
        _write_csv(outdir / "higher_integrability.csv", ["varsigma", "value"],
                   sorted(extras["higher_integrability"].items()))
    if "second_order_norms" in extras:
        rows = [(i, j, extras["second_order_norms"][i][j])
                for i in range(len(extras["second_order_norms"]))
                for j in range(len(extras["second_order_norms"]))]
        _write_csv(outdir / "second_order.csv", ["i", "j", "norm_sq"], rows)
    _write_snapshots(outdir, traj, config)

    code = 0 if all(c.passed for c in checks) else 2
    _write_manifest(outdir, manifest, exit_code=code)
    return code, manifest, traj


def run_diagnostics(traj: Trajectory, config: RunConfig, f_field: Field):
    """Evaluate every per-run monitor; returns (checks, core series, extras)."""
    opts = config.diagnostics
    ceil = dict(opts.get("ceilings", {}))
    checks: list[Check] = []
    extras: dict = {}

    series = dg.core_series(traj, f_field, linf_lattice=int(opts.get("linf_lattice", 65)))

    res_ceiling = float(opts.get("energy_residual_ceiling", 1e-2))
    worst_rel = float(series.energy_residual_rel.max())
    checks.append(Check("energy_equality", "exact", worst_rel <= res_ceiling,
                        worst_rel, res_ceiling,
                        "max relative residual of the energy identity"))

    ap = dg.apriori_energy_bound(traj, f_field, series)
    checks.append(Check("apriori_energy_bound", "exact", ap.passed, ap.ratio, 1.0,
                        f"lhs={ap.lhs:.6g} rhs={ap.rhs:.6g} (constant {dg.APRIORI_CONSTANT})"))

    gb = dg.gradbound_check(traj, series)
    checks.append(Check("gradbound", "exact", gb.passed, gb.detail["worst_gap"], 0.0,
                        "eps-free energy vs 2*eps-energy + branch constant, per checkpoint"))

    mono = bool(np.all(np.diff(series.ut_sq_accum) >= -1e-12))
    checks.append(Check("accumulators_monotone", "exact", mono,
                        float(np.diff(series.ut_sq_accum).min(initial=0.0)), 0.0,
                        "accumulated ||u_t||^2 must be nondecreasing"))

    newton_ok = bool(np.all(traj.newton_residual <= traj.cfg.newton_tol
                            * (1.0 + np.linalg.norm(traj.coeffs, axis=1)) + 1e-30))
    checks.append(Check("galerkin_orthogonality", "exact", newton_ok,
                        float(traj.newton_residual.max()), traj.cfg.newton_tol,
                        "accepted-step residual against every basis function"))

    slack_bound = (traj.newton_residual * np.linalg.norm(traj.coeffs, axis=1)
                   / traj.cfg.tau + 1e-10 * np.maximum(1.0, np.abs(series.flux_energy_eps)))
    prox_ok = bool(np.all(traj.energy_slack <= slack_bound))
    checks.append(Check("proximal_energy_inequality", "exact", prox_ok,
                        float(traj.energy_slack.max()), float(slack_bound.max()),
                        "per-step discrete energy inequality up to Newton tolerance"))

    env = dg.linf_bound_check(traj, config.initial, f_field,
                              lattice_n=int(opts.get("linf_lattice", 65)))
    checks.append(Check("sup_envelope", "exact", env.passed,
                        float((env.lattice_sup - env.envelope).max()), 0.0,
                        "lattice sup of |u| against data envelope"))

    sigma_grid = opts.get("sigma_grid", [0.1, 0.3, 0.5])
    hi = dg.higher_integrability(traj, sigma_grid)
    extras["higher_integrability"] = hi
    finite = all(np.isfinite(v) for v in hi.values())
    if "higher_integrability" in ceil:
        bound = float(ceil["higher_integrability"])
        checks.append(Check("higher_integrability", "regression",
                            finite and max(hi.values()) <= bound,
                            max(hi.values()), bound, "gradient modular table vs ceiling"))
    else:
        checks.append(Check("higher_integrability", "monitor", finite,
                            max(hi.values()), None, "gradient modular table (finiteness)"))

    interp = opts.get("interpolation", {})
    ir = dg.interpolation_ratio(traj, float(interp.get("varsigma", 0.5)),
                                float(interp.get("beta", 0.5)))
    extras["interpolation"] = {"varsigma": ir.varsigma, "beta": ir.beta, "lhs": ir.lhs,
                               "second_order_term": ir.second_order_term,
                               "implied_constant": ir.implied_constant}
    checks.append(Check("interpolation_constant", "monitor", np.isfinite(ir.implied_constant),
                        ir.implied_constant, None,
                        "additive constant implied by the interpolation inequality"))

    td = dg.time_derivative_bound(traj, f_field)
    extras["time_derivative"] = td.detail | {"lhs": td.lhs, "rhs": td.rhs}
    if "time_derivative_ratio" in ceil:
        bound = float(ceil["time_derivative_ratio"])
        checks.append(Check("time_derivative_bound", "regression",
                            td.passed and td.ratio <= bound, td.ratio, bound,
                            "accumulated u_t plus sup modular vs data functional"))
    else:
        checks.append(Check("time_derivative_bound", "monitor", td.passed, td.ratio,
                            None, "ratio reported; finiteness asserted"))

    so_opts = opts.get("second_order", {})
    so = dg.second_order_flux_norm(
        traj, h=float(so_opts.get("h", 1.0 / 256.0)),
        margin=float(so_opts.get("margin", 1.0 / 64.0)),
        time_stride=int(so_opts.get("time_stride", max(1, (len(traj.times) - 1) // 8))))
    extras["second_order_norms"] = so.norms.tolist()
    extras["second_order_total"] = so.total
    if "second_order_total" in ceil:
        bound = float(ceil["second_order_total"])
        checks.append(Check("second_order_regularity", "regression",
                            np.isfinite(so.total) and so.total <= bound, so.total, bound,
                            f"sum of square-root-flux difference norms at h={so.h}"))
    else:
        checks.append(Check("second_order_regularity", "monitor", np.isfinite(so.total),
                            so.total, None, f"norms at h={so.h} (finiteness)"))
    return checks, series, extras


def _write_timeseries(outdir: Path, series: dg.CoreSeries, traj: Trajectory):
    rows = zip(series.times, series.l2_sq, series.flux_energy_eps, series.flux_energy_0,
               series.grad_l2_sq, series.energy_residual, series.ut_sq_accum, series.linf)
    _write_csv(Path(outdir) / "timeseries.csv",
               ["t", "l2_sq", "flux_energy_eps", "flux_energy_0", "grad_l2_sq",
                "energy_residual", "ut_sq_accum", "linf"],
               [[float(v) for v in row] for row in rows])


def _write_snapshots(outdir: Path, traj: Trajectory, config: RunConfig):
    snaps = config.output.get("snapshots")
    if not snaps:
        return
    n = int(config.output.get("snapshot_resolution", 33))
    lat = dg.lattice_points(traj.data.dim, n)
    lines = traj.basis.line_tables(np.linspace(0.0, 1.0, n))
    for t_want in snaps:
        k = int(np.argmin(np.abs(traj.times - float(t_want))))
        u = traj.basis.lattice(lines, traj.coeffs[k])
        g = traj.basis.lattice(lines, traj.coeffs[k], 1)
        rows = [list(map(float, lat[i])) + [float(u[i]), float(np.linalg.norm(g[i]))]
                for i in range(len(lat))]
        name = f"snapshot_t{traj.times[k]:.6g}.csv"
        _write_csv(Path(outdir) / name,
                   [f"x{d + 1}" for d in range(traj.data.dim)] + ["u", "grad_norm"], rows)


def _write_manifest(outdir: Path, manifest: dict, exit_code: int):
    manifest["exit_code"] = exit_code
    with open(Path(outdir) / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=_json_default)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# sweeps


def _member_entry(kind, label, value, passed=None):
    return {"kind": kind, "label": label, "value": float(value),
            "passed": ("" if passed is None else bool(passed))}


def _run_member(args):
    """Worker entry: rebuilds the config from its raw dict (picklable)."""
    raw, member_overrides, outdir, name = args
    config = config_from_dict(raw)
    solver = replace(config.solver, **member_overrides)
    diag = dict(config.diagnostics)
    diag.update(dict(raw.get("sweep", {}).get("diagnostics_overrides", {})))
    member = replace_config(config, solver=solver, diagnostics=diag, name=name)
    code, manifest, traj = perform_run(member, outdir)
    return {"name": name, "code": code, "overrides": member_overrides,
            "coeffs": None if traj is None else traj.coeffs,
            "times": None if traj is None else traj.times,
            "summary": manifest.get("summary", {}),
            "checks": manifest.get("checks", [])}


def replace_config(config: RunConfig, **kw) -> RunConfig:
    return replace(config, **kw)


def _table_ratio(tables):
    """Max over table keys of max/min of the entries across sweep members."""
    tables = [t for t in tables if t]
    if len(tables) < 2:
        return None
    ratios = []
    for key in tables[0]:
        vals = [t[key] for t in tables if key in t]
        if len(vals) >= 2 and min(vals) > 0:
            ratios.append(max(vals) / min(vals))
    return max(ratios) if ratios else None


def perform_sweep(config: RunConfig, outdir) -> tuple[int, dict]:
    """Run the configured sweep and write member artifacts plus the summary.

    Sweep axes: an eps list and an m list form a cross product of members;
    per m-row the eps sequence feeds the vanishing-regularization Cauchy
    study, and at the finest eps the m list feeds the basis-refinement
    study.  A stability block adds perturbed-pair members with the Gronwall
    verdicts.  Member failures are recorded and the sweep continues; the
    exit status reflects the worst member.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    sweep = config.sweep
    eps_list = [float(e) for e in sweep.get("eps", [config.solver.eps])]
    m_list = [int(m) for m in sweep.get("m_per_dim", [config.solver.m_per_dim])]
    tol = float(sweep.get("cauchy_tolerance", 0.10))
    summary_rows: list[dict] = []
    worst = 0

    base_overrides = dict(sweep.get("solver_overrides", {}))
    jobs = []
    for m in m_list:
        for e in eps_list:
            name = f"m{m}_eps{e:g}"
            overrides = dict(base_overrides)
            overrides.update({"eps": e, "m_per_dim": m})
            jobs.append((config.raw, overrides, str(outdir / name), name))

    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_run_member, jobs))
    else:
        results = [_run_member(j) for j in jobs]

    by_key = {}
    for res in results:
        worst = max(worst, res["code"])
        by_key[(res["overrides"]["m_per_dim"], res["overrides"]["eps"])] = res
        summary_rows.append(_member_entry("member_exit", res["name"], res["code"],
                                          res["code"] == 0))
        for s, v in (res["summary"].get("higher_integrability") or {}).items():
            summary_rows.append(_member_entry("higher_integrability",
                                              f"{res['name']}_vs{s:g}", v))
        if "second_order_total" in res["summary"]:
            summary_rows.append(_member_entry("second_order_total", res["name"],
                                              res["summary"]["second_order_total"]))

    # cross-member regression checks
    checks: list[Check] = []
    ceil = dict(config.sweep.get("ceilings", {}))
    # (check, ratio name = ceiling key, member table, detail), in summary order
    uniformity = (
        ("higher_integrability_uniform", "higher_integrability_ratio",
         lambda s: s.get("higher_integrability"),
         "max/min of the gradient modular table across members"),
        ("second_order_uniform", "second_order_ratio",
         lambda s: {"total": s["second_order_total"]} if "second_order_total" in s else None,
         "eps/m-uniformity of the square-root-flux norms"),
        ("time_derivative_uniform", "time_derivative_ratio",
         lambda s: {"lhs": s["time_derivative"]["lhs"]} if "time_derivative" in s else None,
         "eps/m-uniformity of accumulated u_t plus the sup modular"),
    )
    summaries = [res["summary"] for res in results if res["code"] in (0, 2)]
    for check_name, ratio_name, table, detail in uniformity:
        ratio = _table_ratio([table(s) for s in summaries])
        if ratio is not None:
            bound = float(ceil.get(ratio_name, 3.0))
            checks.append(Check(check_name, "regression", ratio <= bound, ratio, bound, detail))
            summary_rows.append(_member_entry(ratio_name, "all", ratio, ratio <= bound))

    # vanishing-regularization Cauchy study per m row
    if len(eps_list) > 1:
        for m in m_list:
            rows = [by_key[(m, e)] for e in eps_list]
            if any(r["coeffs"] is None for r in rows):
                continue
            trajs = [_rebuild_trajectory(config, m, e, r) for e, r in zip(eps_list, rows)]
            rep = dg._gradient_cauchy(trajs, [f"eps={e:g}" for e in eps_list], tol,
                                      pair_eps=eps_list[1:])
            for k, d in enumerate(rep.distances):
                summary_rows.append(_member_entry("eps_cauchy_distance",
                                                  f"m{m}_k{k}", d))
            for k, g in enumerate(rep.pairings):
                summary_rows.append(_member_entry("eps_cauchy_pairing", f"m{m}_k{k}", g,
                                                  g >= -1e-10 * max(1.0, abs(g))))
            ok = rep.monotone
            if "final_distance" in ceil:
                ok = ok and rep.final_distance <= float(ceil["final_distance"])
            checks.append(Check(f"eps_continuation_m{m}", "regression", ok,
                                rep.final_distance, ceil.get("final_distance"),
                                f"distances {[f'{d:.3g}' for d in rep.distances]}"))
            summary_rows.append(_member_entry("eps_cauchy_monotone", f"m{m}",
                                              float(rep.monotone), rep.monotone))

    # basis-refinement Cauchy study at the finest eps
    if len(m_list) > 1:
        e = eps_list[-1]
        rows = [by_key[(m, e)] for m in m_list]
        if all(r["coeffs"] is not None for r in rows):
            trajs = [_rebuild_trajectory(config, m, e, r) for m, r in zip(m_list, rows)]
            rep = dg._gradient_cauchy(trajs, [f"m={m}" for m in m_list], tol)
            for k, d in enumerate(rep.distances):
                summary_rows.append(_member_entry("m_cauchy_distance", f"eps{e:g}_k{k}", d))
            checks.append(Check("m_refinement", "regression", rep.monotone,
                                rep.final_distance, None,
                                f"distances {[f'{d:.3g}' for d in rep.distances]}"))
            summary_rows.append(_member_entry("m_cauchy_monotone", f"eps{e:g}",
                                              float(rep.monotone), rep.monotone))

    # stability block
    stab = sweep.get("stability")
    if stab:
        stab_checks, stab_rows = _stability_block(config, stab, outdir)
        checks.extend(stab_checks)
        summary_rows.extend(stab_rows)

    rows = [[r["kind"], r["label"], float(r["value"]), str(r["passed"])]
            for r in summary_rows]
    with open(outdir / "sweep_summary.csv", "w") as fh:
        fh.write("kind,label,value,passed\n")
        for row in rows:
            fh.write(f"{row[0]},{row[1]},{_fmt(row[2])},{row[3]}\n")

    manifest = {"name": config.name, "version": __version__, "kind": "sweep",
                "members": [{"name": r["name"], "exit": r["code"]} for r in results],
                "checks": [c.as_dict() for c in checks],
                "config": config.raw}
    code = worst if worst else (0 if all(c.passed for c in checks) else 2)
    _write_manifest(outdir, manifest, exit_code=code)
    return code, manifest


def _rebuild_trajectory(config: RunConfig, m: int, eps: float, res: dict) -> Trajectory:
    cfg = replace(config.solver, m_per_dim=m, eps=eps)
    basis = build_basis(config.data.dim, m)
    grid = tensor_gauss_legendre(config.data.dim, cfg.resolved_quad_order)
    n = len(res["times"])
    zeros = np.zeros(n)
    return Trajectory(data=config.data, cfg=cfg, eps=eps, basis=basis, grid=grid,
                      times=np.asarray(res["times"]), coeffs=np.asarray(res["coeffs"]),
                      ut_sq_accum=zeros, newton_iters=zeros, newton_residual=zeros,
                      energy_slack=zeros)


def _stability_block(config: RunConfig, stab: dict, outdir: Path):
    """Perturbed-pair Gronwall experiments driven by the sweep seed."""
    rng = np.random.default_rng(int(stab.get("seed", config.seed)))
    pairs = int(stab.get("pairs", 4))
    base_delta = float(stab.get("base_delta", 1e-1))
    halvings = int(stab.get("halvings", 3))
    f_field = config.source_field()
    base = solve(config.solver, config.data, config.initial, f_field)
    checks, rows = [], []
    modes = config.data.dim * (1,)
    all_pass = True
    worst_margin = -np.inf

    for k in range(pairs):
        delta = base_delta * 0.5 ** (k % (halvings + 1))
        kvec = tuple(int(v) for v in rng.integers(1, min(3, config.solver.m_per_dim) + 1,
                                                  size=config.data.dim))
        pert_u0 = {"family": "modes", "coeffs": [list(kvec) + [delta]]}
        u0p = _field_sum(config.initial, make_field(pert_u0, config.data.dim))
        perturb_source = bool(rng.integers(0, 2))
        if perturb_source:
            gvec = tuple(int(v) for v in rng.integers(1, min(3, config.solver.m_per_dim) + 1,
                                                      size=config.data.dim))
            g_field = _field_sum(f_field, make_field(
                {"family": "modes", "coeffs": [list(gvec) + [delta]]}, config.data.dim))
        else:
            g_field = f_field
        other = solve(config.solver, config.data, u0p, g_field, validate=False)
        rep = dg.stability_experiment(base, other, f_field, g_field)
        margin = float((rep.diff_l2_sq - rep.bound).max())
        worst_margin = max(worst_margin, margin)
        all_pass = all_pass and rep.passed
        rows.append(_member_entry("gronwall_bound", f"pair{k}_delta{delta:g}",
                                  margin, rep.passed))
        rows.append(_member_entry("gronwall_grad_modular", f"pair{k}_delta{delta:g}",
                                  rep.grad_modular))
        rows.append(_member_entry("gronwall_pairing", f"pair{k}_delta{delta:g}",
                                  rep.pairing, rep.pairing >= -1e-10))
    checks.append(Check("gronwall_stability", "exact", all_pass, worst_margin, 0.0,
                        f"{pairs} perturbed pairs, worst margin over checkpoints"))

    # shrinking perturbations: the gradient modular must decrease
    mods = []
    for j in range(halvings + 1):
        delta = base_delta * 0.5 ** j
        u0p = _field_sum(config.initial, make_field(
            {"family": "modes", "coeffs": [list(modes) + [delta]]}, config.data.dim))
        other = solve(config.solver, config.data, u0p, f_field, validate=False)
        rep = dg.stability_experiment(base, other, f_field, f_field)
        mods.append(rep.grad_modular)
        rows.append(_member_entry("stability_shrink", f"delta{delta:g}", rep.grad_modular))
    decreasing = all(m2 <= m1 * 1.10 + 1e-14 for m1, m2 in zip(mods, mods[1:]))
    checks.append(Check("stability_gradient_decay", "exact", decreasing,
                        mods[-1], mods[0], "gradient modular under shrinking data perturbations"))
    return checks, rows


def _field_sum(f1: Field, f2: Field) -> Field:
    return Field(dim=f1.dim, descriptor={"family": "sum",
                                         "terms": [dict(f1.descriptor), dict(f2.descriptor)]},
                 _fn=lambda x, t: f1(x, t) + f2(x, t))


# ---------------------------------------------------------------------------
# digest


def write_report(run_dir) -> str:
    """Produce the human-readable digest and plot-ready .dat files."""
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"{manifest_path} not found")
    manifest = json.loads(manifest_path.read_text())
    lines = [f"run: {manifest.get('name')}  (exit {manifest.get('exit_code')})",
             f"version: {manifest.get('version')}"]
    if "failure" in manifest:
        lines.append(f"FAILURE: {manifest['failure']}")
    checks = manifest.get("checks", [])
    if checks:
        lines.append("")
        lines.append(f"{'check':34s} {'kind':11s} {'verdict':8s} {'value':>13s} {'threshold':>13s}")
        for c in checks:
            thr = "-" if c.get("threshold") is None else f"{c['threshold']:.6g}"
            lines.append(f"{c['name']:34s} {c['kind']:11s} "
                         f"{'pass' if c['passed'] else 'FAIL':8s} {c['value']:13.6g} {thr:>13s}")

    plots = run_dir / "plots"
    plots.mkdir(exist_ok=True)
    ts = run_dir / "timeseries.csv"
    if ts.exists():
        header, *rows = [line.split(",") for line in ts.read_text().strip().splitlines()]
        cols = np.array([[float(v) for v in row] for row in rows]) if rows else np.zeros((0, len(header)))
        for j, name in enumerate(header[1:], start=1):
            with open(plots / f"{name}.dat", "w") as fh:
                for i in range(len(cols)):
                    fh.write(f"{cols[i, 0]:.17g} {cols[i, j]:.17g}\n")
    hi = run_dir / "higher_integrability.csv"
    if hi.exists():
        body = hi.read_text().strip().splitlines()[1:]
        with open(plots / "higher_integrability.dat", "w") as fh:
            fh.write("\n".join(line.replace(",", " ") for line in body) + "\n")
    sw = run_dir / "sweep_summary.csv"
    if sw.exists():
        lines.append("")
        lines.append("sweep summary:")
        groups: dict = {}
        for line in sw.read_text().strip().splitlines()[1:]:
            kind, label, value, passed = line.split(",")
            groups.setdefault(kind, []).append((label, value, passed))
        for kind, rows in groups.items():
            lines.append(f"  {kind}:")
            for label, value, passed in rows:
                suffix = "" if passed == "" else ("  [pass]" if passed == "True" else "  [FAIL]")
                lines.append(f"    {label:28s} {float(value):13.6g}{suffix}")
            with open(plots / f"{kind}.dat", "w") as fh:
                for i, (label, value, _) in enumerate(rows):
                    fh.write(f"{i} {float(value):.17g}\n")
    return "\n".join(lines) + "\n"
