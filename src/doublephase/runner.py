"""Scenario orchestration: configs, runs, sweeps, artifacts, digest.

A scenario is one YAML file (key-value, no code) that fully determines an
experiment: problem data, initial datum, source, solver parameters,
diagnostics options, and an optional sweep block.  A run
writes a manifest plus CSV artifacts into its output directory; a sweep
runs one member per parameter combination and adds a summary table with the
Cauchy distances, bound ratios, and monotonicity verdicts.

Check rows come in three kinds: "exact" for inequalities whose constants
the derivations pin down, "regression" for the sweep's eps/m-uniformity
checks against UNIFORMITY_CEILING and its continuation checks against the
`final_distance` of its `ceilings` block, and "monitor" for reported-only
values.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import __version__, diagnostics as dg
from .fields import (ConfigurationError, ExponentData, Field, integer, lattice_axis, lattice_points,
                     make_field)
from .galerkin import (SolverConfig, SolverError, Trajectory, manufactured_source, solve,
                       solve_lockstep)


# ---------------------------------------------------------------------------
# config
#
# Each scenario block has one reader here.  A reader owns its block's key
# names, conversions, defaults and range checks, and refuses unknown keys.
# `config_from_dict` calls every reader, so a bad block is refused at load;
# the readers are pure, and the runs call them again for the values.

# Points per axis of the lattice the snapshot CSVs are written on.
SNAPSHOT_LATTICE = 33
# Largest max/min ratio of a monitor across sweep members that still
# counts as eps/m-uniform.
UNIFORMITY_CEILING = 3.0
# The shifts sigma of the higher-integrability table, and the interpolation
# budget's varsigma (one of them, so its integral is read from the table)
# and beta.  Every shift lies in (0, 4/(N+2)) for each admitted N.
SIGMA_GRID = (0.1, 0.3, 0.5)
VARSIGMA = 0.5
BETA = 0.5
# Most Gronwall experiments solved in one lockstep group (`_stability_groups`):
# the smallest batch whose per-member CPU time came within 10 % of the
# minimum over batch sizes in every measured run (README, Numerical notes).
GROUP = 12


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
    seed: int
    raw: dict

    def source_field(self) -> Field:
        return resolve_source(self.source_descriptor, self.data, self.solver.eps)


def _block(block, keys, what: str) -> dict:
    """A config block as a dict; refuses keys outside `keys`."""
    block = dict(block)
    unknown = sorted(map(str, set(block) - set(keys)))
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")
    return block


def _number(value, key: str) -> float:
    """`value` as a float, refused unless finite: `float` alone reads .nan, .inf and `true`."""
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from None
    if isinstance(value, bool) or not math.isfinite(number):
        raise ValueError(f"{key} {value!r} is not a finite number")
    return number


def resolve_source(descriptor, data: ExponentData, eps: float) -> Field:
    """Build the source field; the manufactured family closes over the data."""
    if not (isinstance(descriptor, dict) and descriptor.get("family") == "manufactured"):
        return make_field(descriptor, data.dim)
    src = _block(descriptor, ("family", "mode", "amplitude", "rate"), "manufactured source")
    mode = [integer(k, "manufactured mode") for k in src.get("mode", [1] * data.dim)]
    if len(mode) != data.dim or min(mode) < 1:
        raise ValueError(f"manufactured mode {mode} invalid for dim {data.dim}")
    amplitude, rate = (_number(src.get(k, 1.0), f"manufactured {k}") for k in ("amplitude", "rate"))
    return manufactured_source(data, eps, mode=mode, amplitude=amplitude, rate=rate)


def load_config(path) -> RunConfig:
    """Parse and resolve a scenario file; errors carry the file location."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot read config: {exc}")
    try:
        # libyaml's parser where PyYAML was built with it; both report the same line
        raw = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
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
        _block(raw, ("name", "dim", "horizon", "alpha", "fields", "initial", "source", "solver",
                     "diagnostics", "sweep", "output", "seed"), "top-level")
        dim = integer(need("dim"), "dim")
        fields = _block(need("fields"), ("p", "q", "a", "b"), "fields")
        data = ExponentData(
            dim=dim, horizon=_number(need("horizon"), "horizon"),
            alpha=_number(need("alpha"), "alpha"),
            **{k: make_field(fields[k], dim) for k in ("p", "q", "a", "b")},
        )
        config = RunConfig(
            name=str(raw.get("name", Path(where).stem)),
            data=data,
            initial=make_field(need("initial"), dim),
            source_descriptor=raw.get("source", 0.0),
            solver=SolverConfig(**_solver_values(need("solver"))),
            diagnostics=dict(raw.get("diagnostics", {})),
            sweep=dict(raw.get("sweep", {})),
            output=dict(raw.get("output", {})),
            seed=integer(raw.get("seed", 0), "seed"),
            raw=raw,
        )
        # the data and the source at t = 0 and the horizon, and the initial datum,
        # are probed on the validation lattice, so that no run meets a non-finite
        # one after the output directory exists
        x = data.probe_lattice()[0]
        source = config.source_field()
        # the probes test finiteness themselves, so numpy's overflow warnings
        # would only print ahead of the error line
        with np.errstate(all="ignore"):
            probes = [("initial datum", config.initial(x, 0.0))]
            for t in (0.0, data.horizon):
                probes += zip(("field 'a'", "field 'b'", "field 'p'", "field 'q'", "source"),
                              data.sample(x, t) + (source(x, t),))
        for name, values in probes:
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} is not finite on the probe lattice")
        # the remaining readers, so that no block is first read after the solve
        _diagnostics(config)
        _output(config)
        _sweep(config)
    except KeyError as exc:
        raise ConfigurationError(f"{where}: missing key {exc}")
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{where}: bad value: {exc}")
    return config


def _solver_values(block) -> dict:
    """A `solver` block or the sweep's `solver_overrides`, as SolverConfig values."""
    return {k: _number(v, k) if k in ("eps", "tau", "newton_tol") else integer(v, k)
            for k, v in dict(block).items()}


def _diagnostics(config: RunConfig) -> float:
    """The diagnostics block's energy_residual_ceiling, refused unless positive."""
    opts = _block(config.diagnostics, ("energy_residual_ceiling",), "diagnostics")
    ceiling = _number(opts.get("energy_residual_ceiling", 1e-2), "energy_residual_ceiling")
    if ceiling <= 0.0:
        raise ValueError(f"energy_residual_ceiling {ceiling} must be positive")
    return ceiling


def _output(config: RunConfig) -> tuple:
    """The output block's snapshot times, each in [0, horizon]."""
    out = _block(config.output, ("snapshots",), "output")
    times = tuple(_number(t, "snapshot time") for t in out.get("snapshots") or ())
    for t in times:
        if not 0.0 <= t <= config.data.horizon:
            raise ValueError(f"snapshot time {t} outside [0, {config.data.horizon}]")
    return times


def _sweep(config: RunConfig) -> tuple:
    """Read the sweep block: (m list, eps list, members, final distance, stability).

    `members` maps (m, eps) to the member's RunConfig: its diagnostics are
    the base block shallow-merged with `diagnostics_overrides`, and its
    solver is the base solver, then `solver_overrides`, then its axis
    values.  The final distance is the `ceilings` block's `final_distance`,
    None when unset; `stability` is (pairs, halvings, base_delta, seed), or
    None when the block is absent, empty or null.
    """
    sweep = _block(config.sweep, ("eps", "m_per_dim", "solver_overrides", "diagnostics_overrides",
                                  "ceilings", "stability"), "sweep")
    eps_list = [_number(e, "sweep eps") for e in sweep.get("eps", [config.solver.eps])]
    m_list = [integer(m, "m_per_dim") for m in sweep.get("m_per_dim", [config.solver.m_per_dim])]
    if (not eps_list or not m_list or eps_list != sorted(set(eps_list), reverse=True)
            or m_list != sorted(set(m_list))):
        raise ValueError("sweep eps must decrease strictly and m_per_dim increase strictly, "
                         "each from at least one value")
    overrides = _solver_values(sweep.get("solver_overrides", {}))
    diagnostics = config.diagnostics | dict(sweep.get("diagnostics_overrides", {}))
    members = {(m, e): replace(config, name=f"m{m}_eps{e:g}", diagnostics=diagnostics,
                               solver=replace(config.solver,
                                              **(overrides | {"eps": e, "m_per_dim": m})))
               for m in m_list for e in eps_list}
    _diagnostics(replace(config, diagnostics=diagnostics))
    final = _block(sweep.get("ceilings", {}), ("final_distance",), "ceilings").get("final_distance")
    stab = _block(sweep.get("stability") or {}, ("pairs", "halvings", "base_delta", "seed"),
                  "stability")
    pairs = integer(stab.get("pairs", 4), "stability pairs")
    halvings = integer(stab.get("halvings", 3), "stability halvings")
    if pairs < 0 or halvings < 0:
        raise ValueError("stability pairs and halvings must be nonnegative")
    stability = (pairs, halvings, _number(stab.get("base_delta", 1e-1), "stability base_delta"),
                 integer(stab.get("seed", config.seed), "stability seed")) if stab else None
    return (m_list, eps_list, members,
            None if final is None else _number(final, "final_distance"), stability)


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


def _field_spatial_gradients(fld: Field, x, times, h: float = 1e-6) -> list:
    """Central-difference spatial gradient (M, N) of a field at each time, by time.

    Each shifted lattice is built once and evaluated at every time in a row,
    so a field's point-set memo serves all the times.  Families are entire
    expressions, so probing slightly outside the box is safe.
    """
    x = np.asarray(x, dtype=float)
    per_axis = []
    for e in h * np.eye(x.shape[1]):
        ahead, behind = x + e, x - e
        fwd = [fld(ahead, t) for t in times]
        bwd = [fld(behind, t) for t in times]
        per_axis.append([(f - b) / (2.0 * h) for f, b in zip(fwd, bwd)])
    return [np.stack(axes, axis=-1) for axes in zip(*per_axis)]


def _source_certificate(f_field: Field, data: ExponentData, n: int = 33) -> dict:
    """Report-only certificate that the source is admissible in space.

    Probes f = 0 on the boundary and finiteness of the squared spatial
    gradient over the cylinder (finite differences on a lattice), at 5
    times; a steady source takes the same values at each, so at the first.
    """
    pts = lattice_points(data.dim, n)
    boundary = pts[np.any((pts == 0.0) | (pts == 1.0), axis=1)]
    times = np.linspace(0.0, data.horizon, 5)[:1 if f_field.steady else None]
    bmax = max(float(np.abs(f_field(boundary, t)).max()) for t in times) if len(boundary) else 0.0
    gsq = 0.0
    for g in _field_spatial_gradients(f_field, pts, times):
        gsq = max(gsq, float(np.sum(g * g) / len(pts)))
    return {"boundary_max": bmax, "boundary_zero": bool(bmax <= 1e-9),
            "grad_sq_mean_max": gsq, "grad_finite": bool(np.isfinite(gsq))}


def perform_run(config: RunConfig, outdir, guess=None) -> tuple[int, dict, Optional[Trajectory]]:
    """Execute one scenario run, its solve warm-started from `guess` (see `solve`);
    returns (exit_code, manifest, trajectory), without a trajectory when it failed.

    Exit codes: 0 all assertions passed, 1 validation failure, 2 assertion
    failure, 3 solver failure.
    """
    t0 = time.perf_counter()
    # data that cannot even be probed raise ConfigurationError here, before
    # the output directory exists
    report = config.data.report
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"name": config.name, "version": __version__, "seed": config.seed,
                      "config": config.raw, "timings": {}}
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
        traj = solve(config.solver, config.data, config.initial, f_field, guess)
    except SolverError as exc:
        manifest["failure"] = str(exc)
        partial = exc.partial
        if partial is not None and len(partial.times) > 1:
            _write_timeseries(outdir, dg.core_series(partial))
        _write_manifest(outdir, manifest, exit_code=3)
        return 3, manifest, None
    manifest["timings"]["solve"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    checks, series, extras = run_diagnostics(traj, config)
    manifest["timings"]["diagnostics"] = time.perf_counter() - t2
    manifest["checks"] = [c.as_dict() for c in checks]
    manifest["summary"] = extras

    _write_timeseries(outdir, series)
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


def run_diagnostics(traj: Trajectory, config: RunConfig):
    """Evaluate every per-run monitor; returns (checks, core series, extras)."""
    res_ceiling = _diagnostics(config)
    checks: list[Check] = []
    extras: dict = {}

    series = dg.core_series(traj)

    worst_rel = float(series.energy_residual_rel.max())
    checks.append(Check("energy_equality", "exact", worst_rel <= res_ceiling,
                        worst_rel, res_ceiling,
                        "max relative residual of the energy identity"))

    ap = dg.apriori_energy_bound(traj, series)
    checks.append(Check("apriori_energy_bound", "exact", ap.passed, ap.ratio, 1.0,
                        f"lhs={ap.lhs:.6g} rhs={ap.rhs:.6g} (constant {dg.APRIORI_CONSTANT})"))

    gb = dg.gradbound_check(traj, series)
    checks.append(Check("gradbound", "exact", gb.passed, gb.detail["worst_gap"], 0.0,
                        "eps-free energy vs 2*eps-energy + branch constant, per checkpoint"))

    mono = bool(np.all(np.diff(series.ut_sq_accum) >= -1e-12))
    checks.append(Check("accumulators_monotone", "exact", mono,
                        float(np.diff(series.ut_sq_accum).min(initial=0.0)), 0.0,
                        "accumulated ||u_t||^2 must be nondecreasing"))

    newton_ok = bool(np.all(traj.newton_residual <= traj.newton_bound + 1e-30))
    checks.append(Check("galerkin_orthogonality", "exact", newton_ok,
                        float((traj.newton_residual / (traj.newton_bound + 1e-30)).max()), 1.0,
                        "accepted-step residual against every basis function, "
                        "over the Newton tolerance it was accepted at"))

    slack_bound = (traj.newton_residual * np.linalg.norm(traj.coeffs, axis=1)
                   / traj.cfg.tau + 1e-10 * np.maximum(1.0, np.abs(series.flux_energy_eps)))
    prox_ok = bool(np.all(traj.energy_slack <= slack_bound))
    checks.append(Check("proximal_energy_inequality", "exact", prox_ok,
                        float(traj.energy_slack.max()), float(slack_bound.max()),
                        "per-step discrete energy inequality up to Newton tolerance"))

    env = dg.linf_bound_check(traj, series)
    checks.append(Check("sup_envelope", "exact", env.passed,
                        float((env.lattice_sup - env.envelope).max()), 0.0,
                        "lattice sup of |u| against data envelope"))

    hi = dg.higher_integrability(traj, SIGMA_GRID)
    extras["higher_integrability"] = hi
    checks.append(Check("higher_integrability", "monitor", all(np.isfinite(v) for v in hi.values()),
                        max(hi.values()), None, "gradient modular table (finiteness)"))

    ir = dg.interpolation_ratio(traj, VARSIGMA, BETA, hi)
    extras["interpolation"] = asdict(ir)
    checks.append(Check("interpolation_constant", "monitor", np.isfinite(ir.implied_constant),
                        ir.implied_constant, None,
                        "additive constant implied by the interpolation inequality"))

    td = dg.time_derivative_bound(traj, series)
    extras["time_derivative"] = td.detail | {"lhs": td.lhs, "rhs": td.rhs}
    checks.append(Check("time_derivative_bound", "monitor", td.passed, td.ratio,
                        None, "ratio reported; finiteness asserted"))

    so = dg.second_order_flux_norm(traj, time_stride=max(1, (len(traj.times) - 1) // 8))
    extras["second_order_norms"] = so.norms.tolist()
    extras["second_order_total"] = so.total
    checks.append(Check("second_order_regularity", "monitor", np.isfinite(so.total),
                        so.total, None, f"norms at margin={so.margin:g} (finiteness)"))
    return checks, series, extras


def _write_timeseries(outdir: Path, series: dg.CoreSeries):
    rows = zip(series.times, series.l2_sq, series.flux_energy_eps, series.flux_energy_0,
               series.grad_l2_sq, series.energy_residual, series.ut_sq_accum, series.linf)
    _write_csv(Path(outdir) / "timeseries.csv",
               ["t", "l2_sq", "flux_energy_eps", "flux_energy_0", "grad_l2_sq",
                "energy_residual", "ut_sq_accum", "linf"],
               [[float(v) for v in row] for row in rows])


def _write_snapshots(outdir: Path, traj: Trajectory, config: RunConfig):
    snaps = _output(config)
    if not snaps:
        return
    lat = lattice_points(traj.data.dim, SNAPSHOT_LATTICE)
    lines = traj.basis.line_tables(lattice_axis(SNAPSHOT_LATTICE))
    for t_want in snaps:
        k = int(np.argmin(np.abs(traj.times - t_want)))
        u = traj.basis.lattice(lines, traj.coeffs[k])
        g = traj.basis.lattice(lines, traj.coeffs[k], 1)
        # vecdot runs the dot loop of the one-row norm, so each |grad u| is bitwise that norm
        rows = np.column_stack([lat, u, np.sqrt(np.vecdot(g, g))]).tolist()
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


def _member_entry(kind, label, value, passed=None) -> list:
    """One `sweep_summary.csv` row; `passed` None leaves the verdict cell empty."""
    return [kind, label, float(value), "" if passed is None else str(bool(passed))]


def _sweep_row(row: list[RunConfig], dirs: list[str]) -> list[dict]:
    """Run one m row's members in eps order, each warm-started from
    the one before (cold after a member with no trajectory).

    Returns each member reduced to what the sweep reads, with its own summary rows.
    """
    results, guess = [], None
    for member, outdir in zip(row, dirs):
        code, manifest, traj = perform_run(member, outdir, guess)
        guess = None if traj is None else traj.coeffs
        summary = manifest.get("summary", {})
        rows = [_member_entry("member_exit", member.name, code, code == 0)]
        rows += [_member_entry("higher_integrability", f"{member.name}_vs{s:g}", v)
                 for s, v in (summary.get("higher_integrability") or {}).items()]
        if "second_order_total" in summary:
            rows.append(_member_entry("second_order_total", member.name,
                                      summary["second_order_total"]))
        results.append({"name": member.name, "code": code, "rows": rows, "summary": summary,
                        "member": None if traj is None else (traj.basis, traj.coeffs, traj.eps),
                        "grid": None if traj is None else traj.spacetime_grid()})
        # the trajectory's cached diagnostic tables are not kept through the next run
        del traj
    return results


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
    each m row solves its eps list by continuation and feeds the
    vanishing-regularization Cauchy study, and at the finest eps the m list
    feeds the basis-refinement study.  The m rows run one after another
    (`_sweep_row`), then a stability block's Gronwall experiments, in
    lockstep groups against one base solve (`_stability_chunk`), all in the
    calling process.  Member failures are
    recorded and the sweep continues; the exit status reflects the worst
    member, and a failed stability solve drops the block's rows and exits 3.
    """
    # members are built here and share config.data, so the data validate
    # once, and data that cannot be probed leave no output directory
    report = config.data.report
    m_list, eps_list, members, final_distance, stab = _sweep(config)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    results = []
    for m in m_list:
        row = [members[(m, e)] for e in eps_list]
        results += _sweep_row(row, [str(outdir / member.name) for member in row])
    # stability block; on invalid data the members already exit 1
    jobs = _stability_jobs(config, stab) if stab and report.passed else []
    reports, failure = _stability_chunk(config, _stability_groups(jobs)) if jobs else ([], None)

    summary_rows = [row for res in results for row in res["rows"]]

    # cross-member regression checks
    checks: list[Check] = []
    # (check, summary row, member table, detail), in summary order
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
            ok = ratio <= UNIFORMITY_CEILING
            checks.append(Check(check_name, "regression", ok, ratio, UNIFORMITY_CEILING, detail))
            summary_rows.append(_member_entry(ratio_name, "all", ratio, ok))

    # Cauchy studies, each (check, row kind, label, members, labels, ceiling): the
    # vanishing regularization along each m row, then the basis refinement at
    # the finest eps; a study of one member or with an unsolved one is left out
    by_key, e = dict(zip(members, results)), eps_list[-1]
    studies = [(f"eps_continuation_m{m}", "eps", f"m{m}", [by_key[(m, x)] for x in eps_list],
                [f"eps={x:g}" for x in eps_list], final_distance) for m in m_list]
    studies.append(("m_refinement", "m", f"eps{e:g}", [by_key[(m, e)] for m in m_list],
                    [f"m={m}" for m in m_list], None))
    for check_name, kind, label, study, labels, ceiling in studies:
        if len(study) < 2 or any(r["member"] is None for r in study):
            continue
        rep = dg._gradient_cauchy(config.data, study[-1]["grid"], [r["member"] for r in study],
                                  labels, pairings=kind == "eps")
        summary_rows += [_member_entry(f"{kind}_cauchy_distance", f"{label}_k{k}", d)
                         for k, d in enumerate(rep.distances)]
        if kind == "eps":
            summary_rows += [_member_entry("eps_cauchy_pairing", f"{label}_k{k}", g, g >= -1e-10)
                             for k, g in enumerate(rep.pairings)]
        ok = rep.monotone and (ceiling is None or rep.final_distance <= ceiling)
        checks.append(Check(check_name, "regression", ok, rep.final_distance, ceiling,
                            f"distances {[f'{d:.3g}' for d in rep.distances]}"))
        summary_rows.append(_member_entry(f"{kind}_cauchy_monotone", label,
                                          float(rep.monotone), rep.monotone))

    if jobs and not failure:
        stab_checks, stab_rows = _stability_block(jobs, reports)
        checks.extend(stab_checks)
        summary_rows.extend(stab_rows)

    _write_csv(outdir / "sweep_summary.csv", ["kind", "label", "value", "passed"], summary_rows)

    manifest = {"name": config.name, "version": __version__, "kind": "sweep",
                "members": [{"name": r["name"], "exit": r["code"]} for r in results],
                "checks": [c.as_dict() for c in checks],
                "config": config.raw}
    if failure:
        manifest["failure"] = failure
    worst = max(res["code"] for res in results)
    code = 3 if failure else worst if worst else (0 if all(c.passed for c in checks) else 2)
    _write_manifest(outdir, manifest, exit_code=code)
    return code, manifest


def _stability_jobs(config: RunConfig, stab: tuple) -> list[tuple]:
    """Perturbed-pair and shrinking experiments drawn from the sweep seed.

    `stab` is the read stability block, (pairs, halvings, base_delta, seed).
    Each job is (kind, label, u0 mode row, source mode row or None); a mode
    row [k_1..k_N, delta] is added to the initial datum or the source.
    """
    pairs, halvings, base_delta, seed = stab
    rng = np.random.default_rng(seed)
    top, dim = min(3, config.solver.m_per_dim) + 1, config.data.dim
    jobs = []
    for k in range(pairs):
        delta = base_delta * 0.5 ** (k % (halvings + 1))
        kvec = [int(v) for v in rng.integers(1, top, size=dim)]
        gvec = [int(v) for v in rng.integers(1, top, size=dim)] if rng.integers(0, 2) else None
        jobs.append(("pair", f"pair{k}_delta{delta:g}", kvec + [delta],
                     None if gvec is None else gvec + [delta]))
    for j in range(halvings + 1):
        delta = base_delta * 0.5 ** j
        jobs.append(("shrink", f"delta{delta:g}", [1] * dim + [delta], None))
    return jobs


def _stability_groups(jobs: list) -> list[list]:
    """The jobs in ceil(len / GROUP) near-equal contiguous groups, fixed by job index.

    A member's bits depend on the group it is solved in (`solve_lockstep`).
    """
    parts = np.array_split(np.arange(len(jobs)), -(-len(jobs) // GROUP))
    return [[jobs[i] for i in idx] for idx in parts]


def _stability_chunk(config: RunConfig, groups: list[list]):
    """Solve the base alone, then each group's perturbed solves in lockstep.

    Returns (Gronwall reports in job order, None), or (None, message) when a
    solve fails.
    """
    f_field = config.source_field()
    try:
        base = solve(config.solver, config.data, config.initial, f_field)
        reports = []
        for group in groups:
            initials, sources = zip(*(_perturbed(config, f_field, job) for job in group))
            reports.extend(dg.stability_experiments(
                base, solve_lockstep(config.solver, config.data, initials, sources)))
    except SolverError as exc:
        return None, f"stability experiment: {exc}"
    return reports, None


def _perturbed(config: RunConfig, f_field: Field, job: tuple) -> tuple[Field, Field]:
    """A stability job's initial datum and source: the run's plus the job's mode rows."""
    _, _, u0_row, f_row = job
    dim = config.data.dim
    u0 = _field_sum(config.initial, make_field({"family": "modes", "coeffs": [u0_row]}, dim))
    if f_row is None:
        return u0, f_field
    return u0, _field_sum(f_field, make_field({"family": "modes", "coeffs": [f_row]}, dim))


def _stability_block(jobs: list[tuple], reports: list):
    """The Gronwall checks and summary rows of the solved jobs, in job order."""
    rows, margins, passed, mods = [], [], [], []
    for (kind, label, _, _), rep in zip(jobs, reports):
        if kind == "shrink":
            mods.append(rep.grad_modular)
            rows.append(_member_entry("stability_shrink", label, rep.grad_modular))
            continue
        margins.append(float((rep.diff_l2_sq - rep.bound).max()))
        passed.append(rep.passed)
        rows.append(_member_entry("gronwall_bound", label, margins[-1], rep.passed))
        rows.append(_member_entry("gronwall_grad_modular", label, rep.grad_modular))
        rows.append(_member_entry("gronwall_pairing", label, rep.pairing, rep.pairing >= -1e-10))
    checks = [Check("gronwall_stability", "exact", all(passed), max(margins, default=-np.inf),
                    0.0, f"{len(margins)} perturbed pairs, worst margin over checkpoints"),
              # shrinking perturbations: the gradient modular must decrease
              Check("stability_gradient_decay", "exact", dg.decays(np.array(mods)), mods[-1], mods[0],
                    "gradient modular under shrinking data perturbations")]
    return checks, rows


def _field_sum(f1: Field, f2: Field) -> Field:
    """f1 + f2, steady when both terms are."""
    return Field(dim=f1.dim, descriptor={"family": "sum",
                                         "terms": [dict(f1.descriptor), dict(f2.descriptor)]},
                 _fn=lambda x, t: f1(x, t) + f2(x, t), steady=f1.steady and f2.steady)


# ---------------------------------------------------------------------------
# digest


def write_report(run_dir) -> str:
    """Produce the human-readable digest and plot-ready .dat files."""
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"{manifest_path} not found")
    manifest = json.loads(manifest_path.read_text())
    lines = [f"{manifest.get('kind', 'run')}: {manifest.get('name')}  "
             f"(exit {manifest.get('exit_code')})",
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
