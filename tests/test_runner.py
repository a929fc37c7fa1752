import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from doublephase import cli, diagnostics as dg, fields, flux, galerkin, runner
from doublephase.fields import ConfigurationError

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def small_heat_raw(**overrides):
    raw = {
        "name": "tiny_heat",
        "dim": 2, "horizon": 0.02, "alpha": 0.9,
        "fields": {"p": 2.0, "q": 2.0, "a": 0.5, "b": 0.5},
        "initial": {"family": "modes", "coeffs": [[1, 1, 1.0]]},
        "source": 0.0,
        "solver": {"m_per_dim": 3, "eps": 1.0e-2, "tau": 2.0e-3},
        "diagnostics": {"energy_residual_ceiling": 2.0e-2},
        "seed": 9,
    }
    raw.update(overrides)
    return raw


def write_config(tmp_path, raw, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


def test_load_config_errors(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    with pytest.raises(ConfigurationError, match="cannot read"):
        runner.load_config(missing)
    bad = tmp_path / "bad.yaml"
    bad.write_text("fields: [unclosed\n  - ]broken: {{\n")
    with pytest.raises(ConfigurationError, match="bad.yaml"):
        runner.load_config(bad)
    nokey = write_config(tmp_path, {"dim": 2}, "nokey.yaml")
    with pytest.raises(ConfigurationError, match="missing required key"):
        runner.load_config(nokey)
    badfam = write_config(
        tmp_path, small_heat_raw(fields={"p": {"family": "woops"}, "q": 2.0,
                                         "a": 0.5, "b": 0.5}), "fam.yaml")
    with pytest.raises(ConfigurationError, match="woops"):
        runner.load_config(badfam)
    # refused at load: `run` prints an error line and creates no output directory
    solver, fields = small_heat_raw()["solver"], small_heat_raw()["fields"]
    manufactured = {"family": "manufactured", "mode": [1, 1]}
    refused = [("m_per_dim", small_heat_raw(solver=solver | {"m_per_dim": 0})),
               ("output_cadence", small_heat_raw(solver=solver | {"output_cadence": 5})),
               ("tau nan", small_heat_raw(solver=solver | {"tau": float("nan")})),
               ("quad_order -3", small_heat_raw(solver=solver | {"quad_order": -3})),
               ("newton_tol 0.0", small_heat_raw(solver=solver | {"newton_tol": 0.0})),
               ("newton_tol nan", small_heat_raw(solver=solver | {"newton_tol": float("nan")})),
               ("newton_max_iter 0", small_heat_raw(solver=solver | {"newton_max_iter": 0})),
               ("max_damping_halvings -1",
                small_heat_raw(solver=solver | {"max_damping_halvings": -1})),
               ("tau_retry_cap -1", small_heat_raw(solver=solver | {"tau_retry_cap": -1})),
               ("m_per_dim 2.7", small_heat_raw(solver=solver | {"m_per_dim": 2.7})),
               ("dim 2.5", small_heat_raw(dim=2.5)),
               ("seed 1.5", small_heat_raw(seed=1.5)),
               ("seed True", small_heat_raw(seed=True)),
               ("horizon inf", small_heat_raw(horizon=float("inf"))),
               # the removed process pool's setting
               (r"unknown top-level key\(s\): workers", small_heat_raw(workers=1)),
               ("one", small_heat_raw(seed="one")),
               ("horizn", small_heat_raw(horizn=0.02)),
               ("fields key", small_heat_raw(fields=fields | {"c": 1.0})),
               ("slop", small_heat_raw(fields=fields | {"p": {"family": "affine", "base": 1.9,
                                                                "slop": [0.2, 0.0]}})),
               ("snapshot", small_heat_raw(output={"snapshot": [0.0]})),
               ("unknown output", small_heat_raw(output={"snapshots": [0.0],
                                                         "snapshot_resolution": 33})),
               ("end", small_heat_raw(output={"snapshots": [0.0, "end"]})),
               ("snapshot time 5", small_heat_raw(output={"snapshots": [0.0, 5.0]})),
               ("snapshot time nan", small_heat_raw(output={"snapshots": [float("nan")]})),
               ("energy_residual_ceiling nan",
                small_heat_raw(diagnostics={"energy_residual_ceiling": float("nan")})),
               ("initial datum", small_heat_raw(initial=float("nan"))),
               ("source is not finite", small_heat_raw(source=float("nan"))),
               ("source is not finite",  # finite at t = 0, overflows by the horizon
                small_heat_raw(source={"family": "bump", "amp": 1.0, "tdecay": -1.0e5})),
               ("manufactured amplitude nan",
                small_heat_raw(source=manufactured | {"amplitude": float("nan")})),
               ("manufactured rate inf",
                small_heat_raw(source=manufactured | {"rate": float("inf")})),
               # interpolation's varsigma and beta are code constants now
               (r"unknown diagnostics key\(s\): interpolation",
                small_heat_raw(diagnostics={"interpolation": {"beta": float("nan")}})),
               ("big", small_heat_raw(source=manufactured | {"amplitude": "big"})),
               ("mode", small_heat_raw(source=manufactured | {"mode": [1]})),
               ("mode", small_heat_raw(source=manufactured | {"mode": [0, 1]})),
               ("woops", small_heat_raw(source={"family": "woops"}))]
    for i, (match, raw) in enumerate(refused):
        cfgfile = write_config(tmp_path, raw, f"refused{i}.yaml")
        with pytest.raises(ConfigurationError, match=match):
            runner.load_config(cfgfile)
        out = tmp_path / f"refused{i}_out"
        assert cli.main(["run", str(cfgfile), "--outdir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


def test_yaml_loaders_agree(tmp_path, monkeypatch):
    # load_config parses with libyaml's CSafeLoader where PyYAML has it and
    # with the pure-Python SafeLoader otherwise: every bundled scenario reads
    # the same under both, and a malformed file is located on the same line
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML is built without libyaml")
    for path in sorted(SCENARIOS.glob("*.yaml")):
        text = path.read_text()
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\nfields: [unclosed\n  - ]broken: {{\n")
    located = []
    for fallback in (False, True):
        if fallback:
            monkeypatch.delattr(yaml, "CSafeLoader")
        with pytest.raises(ConfigurationError, match="malformed config") as exc:
            runner.load_config(bad)
        located.append(str(exc.value).split(": malformed")[0])
    assert located == [f"{bad}:3"] * 2
    assert runner.load_config(SCENARIOS / "heat_mms.yaml").name == "heat_mms"  # the fallback


@pytest.mark.parametrize("match, overrides", [
    ("eps True", {"solver": {"m_per_dim": 3, "eps": True, "tau": 2.0e-3}}),
    ("got True", {"fields": {"p": 2.0, "q": 2.0, "a": True, "b": 0.5}}),
    ("mode index 2.5", {"initial": {"family": "modes", "coeffs": [[2.5, 1, 1.0]]}}),
])
def test_booleans_and_fractional_mode_indices_are_refused_at_load(tmp_path, capsys, match,
                                                                  overrides):
    # `float` read eps true as 1.0, the number shorthand read a: true as the
    # constant 1.0, and `int` ran mode index 2.5 as mode 2
    cfgfile = write_config(tmp_path, small_heat_raw(**overrides))
    with pytest.raises(ConfigurationError, match=match):
        runner.load_config(cfgfile)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfgfile), "--outdir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_run_writes_artifacts_and_passes(tmp_path):
    cfgfile = write_config(tmp_path, small_heat_raw(output={"snapshots": [0.0, 0.02]}))
    config = runner.load_config(cfgfile)
    out = tmp_path / "out"
    code, manifest, traj = runner.perform_run(config, out)
    assert code == 0
    for name in ("manifest.json", "timeseries.csv", "higher_integrability.csv",
                 "second_order.csv"):
        assert (out / name).exists()
    snaps = list(out.glob("snapshot_t*.csv"))
    assert len(snaps) == 2
    header = (out / "timeseries.csv").read_text().splitlines()[0]
    assert header == ("t,l2_sq,flux_energy_eps,flux_energy_0,grad_l2_sq,"
                      "energy_residual,ut_sq_accum,linf")
    m = json.loads((out / "manifest.json").read_text())
    assert m["exit_code"] == 0 and m["validation"]["passed"]
    kinds = {c["name"]: c["kind"] for c in m["checks"]}
    assert kinds["energy_equality"] == "exact"
    assert kinds["interpolation_constant"] == "monitor"
    # snapshot columns: coordinates, value, gradient magnitude
    first = snaps[0].read_text().splitlines()
    assert first[0] == "x1,x2,u,grad_norm"


def test_snapshot_grad_norm_is_the_per_row_norm(tmp_path):
    # the column is written from one array, each entry bitwise the norm of its row
    config = runner.load_config(write_config(tmp_path, small_heat_raw(
        output={"snapshots": [0.02]})))
    code, _, traj = runner.perform_run(config, tmp_path / "out")
    assert code == 0
    lines = traj.basis.line_tables(fields.lattice_axis(runner.SNAPSHOT_LATTICE))
    g = traj.basis.lattice(lines, traj.coeffs[-1], 1)
    rows = (tmp_path / "out" / "snapshot_t0.02.csv").read_text().splitlines()[1:]
    assert len(rows) == len(g) == runner.SNAPSHOT_LATTICE ** 2
    assert [float(row.split(",")[-1]) for row in rows] == [np.linalg.norm(gi) for gi in g]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_vecdot_row_norms_are_the_one_row_norms(dim):
    # the snapshots' |grad u| relies on vecdot summing like the 1-D norm's dot
    g = np.random.default_rng(dim).standard_normal((20000, dim)) * np.logspace(-8, 8, 20000)[:, None]
    assert np.array_equal(np.sqrt(np.vecdot(g, g)), [np.linalg.norm(row) for row in g])


def test_a_run_reports_one_value_per_quantity(tmp_path):
    # on every bundled run the manifest's t = 0 flux energy is the
    # timeseries' flux_energy_0 at t = 0, and both bounds that read
    # int int f^2 read the same number
    for path in sorted(SCENARIOS.glob("*.yaml")):
        code, manifest, traj = runner.perform_run(runner.load_config(path), tmp_path / path.stem)
        if traj is None:
            continue
        with open(tmp_path / path.stem / "timeseries.csv") as fh:
            first = next(csv.DictReader(fh))
        td = manifest["summary"]["time_derivative"]
        assert td["initial_flux_energy"] == float(first["flux_energy_0"]), path.stem
        series = dg.core_series(traj)
        assert dg.apriori_energy_bound(traj, series).detail["f_sq"] == td["f_sq"], path.stem


def test_run_reproducible_byte_identical(tmp_path):
    cfgfile = write_config(tmp_path, small_heat_raw())
    config = runner.load_config(cfgfile)
    runner.perform_run(config, tmp_path / "a")
    runner.perform_run(config, tmp_path / "b")
    for name in ("timeseries.csv", "higher_integrability.csv", "second_order.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_validation_failure_exit_1(tmp_path):
    cfgfile = write_config(tmp_path, small_heat_raw(
        fields={"p": 2.0, "q": 2.6, "a": 0.5, "b": 0.5}))
    config = runner.load_config(cfgfile)
    code, manifest, traj = runner.perform_run(config, tmp_path / "out")
    assert code == 1 and traj is None
    assert "exponent_gap" in manifest["failure"]


def test_run_assertion_failure_exit_2(tmp_path):
    raw = small_heat_raw()
    raw["diagnostics"]["energy_residual_ceiling"] = 1e-12
    config = runner.load_config(write_config(tmp_path, raw))
    code, manifest, _ = runner.perform_run(config, tmp_path / "out")
    assert code == 2
    failed = [c["name"] for c in manifest["checks"] if not c["passed"]]
    assert failed == ["energy_equality"]


def test_run_solver_failure_exit_3(tmp_path):
    raw = small_heat_raw(fields={"p": 1.6, "q": 1.6, "a": 1.0, "b": 0.0},
                         initial={"family": "modes", "coeffs": [[1, 1, 40.0]]})
    raw["solver"] = {"m_per_dim": 2, "eps": 1.0e-8, "tau": 2.0e-2,
                     "newton_tol": 1.0e-300, "tau_retry_cap": 0,
                     "max_damping_halvings": 1}
    config = runner.load_config(write_config(tmp_path, raw))
    code, manifest, _ = runner.perform_run(config, tmp_path / "out")
    assert code == 3 and "failed" in manifest["failure"]


def test_failed_newton_solve_exits_3_with_a_manifest(tmp_path, monkeypatch):
    original, calls = np.linalg.solve, []

    def singular_once(mat, rhs):
        calls.append(1)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return original(mat, rhs)

    raw = small_heat_raw()
    raw["solver"] = dict(raw["solver"], tau_retry_cap=0)
    monkeypatch.setattr(np.linalg, "solve", singular_once)
    config = runner.load_config(write_config(tmp_path, raw))
    code, manifest, _ = runner.perform_run(config, tmp_path / "out")
    assert code == 3 and "newton solve failed" in manifest["failure"]
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["exit_code"] == 3


def test_solver_failure_after_two_steps_writes_partial_timeseries(tmp_path, monkeypatch):
    # the partial trajectory carries its own source, so its series are the
    # first rows of the complete run's (up to the rounding of batched lattices)
    raw = small_heat_raw()
    raw["solver"] = dict(raw["solver"], tau_retry_cap=0)
    config = runner.load_config(write_config(tmp_path, raw))
    runner.perform_run(config, tmp_path / "full")
    original = galerkin.step_implicit
    calls = []

    def failing_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise galerkin.StepFailure("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(galerkin, "step_implicit", failing_third)
    code, manifest, traj = runner.perform_run(config, tmp_path / "out")
    assert code == 3 and traj is None and "step 3/10 failed" in manifest["failure"]
    partial = np.loadtxt(tmp_path / "out" / "timeseries.csv", delimiter=",", skiprows=1)
    full = np.loadtxt(tmp_path / "full" / "timeseries.csv", delimiter=",", skiprows=1)
    assert partial.shape == (3, 8)
    assert np.allclose(partial, full[:3], rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("axes", [{"eps": [1.0e-3, 1.0e-1]}, {"eps": [1.0e-2, 1.0e-2]},
                                  {"m_per_dim": [4, 3]},
                                  {"eps": [1.0e-2], "solver_overrides": {"tau": -1.0}},
                                  {"eps": [1.0e-2], "solver_overrides": {"bogus": 3}},
                                  {"eps": [1.0e-1, 0.0]}, {"m_per_dim": [0, 2]},
                                  {"eps": [1.0e-2], "stability": {"halvings": -1}},
                                  {"eps": [1.0e-2], "stability": {"pairs": -1}},
                                  {"eps": [1.0e-2], "solver_overrides": {"newton_max_iter": "ten"}},
                                  {"eps": [1.0e-2], "cauchy_tolerence": 0.1},
                                  {"eps": [1.0e-2], "ceilings": {"final_distanse": 1.0e-9}},
                                  {"eps": [1.0e-2], "stability": {"pair": 2}},
                                  {"eps": [1.0e-2], "cauchy_tolerance": 0.10},
                                  {"eps": [1.0e-2], "ceilings": {"final_distance": "tiny"}},
                                  {"eps": [1.0e-2], "stability": {"base_delta": "big"}},
                                  {"eps": []}, {"m_per_dim": []},
                                  {"eps": [1.0e-2], "ceilings": {"higher_integrability_ratio": 3.0}},
                                  {"eps": [1.0e-2], "ceilings": {"second_order_ratio": 3.0}},
                                  {"eps": [1.0e-2], "ceilings": {"time_derivative_ratio": 3.0}},
                                  {"m_per_dim": [2.5, 3]},
                                  {"eps": [1.0e-2], "stability": {"pairs": 2.5}},
                                  {"eps": [1.0e-2], "stability": {"base_delta": float("nan")}},
                                  {"eps": [1.0e-2], "ceilings": {"final_distance": float("nan")}}])
def test_sweep_axes_out_of_order_exit_1(tmp_path, capsys, axes):
    # eps must decrease and m_per_dim increase, or the Cauchy studies run backwards, and
    # an empty axis would run no member and read as a pass;
    # every member's solver, the stability counts, and every sweep key and
    # value are checked at load too; the removed `cauchy_tolerance` and ratio
    # ceilings are unknown keys even at their old defaults
    cfgfile = write_config(tmp_path, small_heat_raw(sweep=axes))
    with pytest.raises(ConfigurationError,
                       match="strictly|time step|bogus|eps > 0|m_per_dim|nonnegative"
                             "|unknown|not an integer|could not convert|not a finite number"):
        runner.load_config(cfgfile)
    out = tmp_path / "out"
    assert cli.main(["sweep", str(cfgfile), "--outdir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_usage_errors_exit_1(tmp_path, capsys, verb):
    # argparse exits 2 on a usage error, which the CLI reserves for an
    # assertion failure: a stale `--workers` flag (the process pool is gone)
    # and a missing config print argparse's message and exit 1, and write
    # nothing; --help still exits 0
    cfgfile = write_config(tmp_path, small_heat_raw(sweep={"eps": [1.0e-2]}))
    out = tmp_path / "out"
    for argv, message in (([str(cfgfile), "--outdir", str(out), "--workers", "2"],
                           "unrecognized arguments: --workers 2"),
                          (["--outdir", str(out)], "the following arguments are required: config")):
        assert cli.main([verb] + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: doublephase") and message in err
        assert not out.exists()
    assert cli.main([verb, "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: doublephase")


@pytest.mark.parametrize("verb, overrides", [
    ("run", {"diagnostics": {"sigma_grid": [1.5]}}),
    ("run", {"diagnostics": {"sigma_grid": [0.0, 0.3]}}),
    ("run", {"diagnostics": {"interpolation": {"varsigma": 1.0}}}),
    ("run", {"diagnostics": {"second_order": {"h": 1.0 / 64.0, "margin": 1.0 / 32.0}}}),
    ("sweep", {"sweep": {"eps": [1.0e-2], "diagnostics_overrides": {"sigma_grid": [1.5]}}}),
    ("run", {"diagnostics": {"linf_lattice": 65}}),
    ("run", {"diagnostics": {"second_order": {"margin": 1.0 / 64.0}}}),
    ("run", {"diagnostics": {"second_order": {}}}),
    ("run", {"diagnostics": {"sigma_grid": []}}),
    ("run", {"diagnostics": {"sigma_gird": [0.1]}}),
    ("run", {"diagnostics": {"interpolation": {"varsigma": 0.5, "bta": 0.5}}}),
    ("run", {"diagnostics": {"second_order": {"margin": 1.0 / 32.0, "hh": 1.0 / 64.0}}}),
    ("run", {"diagnostics": {"ceilings": {"second_order_total": 1.0}}}),
    ("run", {"diagnostics": {"second_order": {"margin": 1.0 / 32.0, "time_stride": 2}}}),
    ("run", {"diagnostics": {"energy_residual_ceiling": "tight"}}),
    ("run", {"diagnostics": {"interpolation": {"beta": "half"}}}),
    ("run", {"diagnostics": {"sigma_grid": [0.1, 0.3, 0.5],
                             "interpolation": {"varsigma": 0.5, "beta": 0.5}}}),
])
def test_out_of_range_diagnostics_options_exit_1(tmp_path, capsys, verb, overrides):
    # unknown keys are refused at load, before the solve: the removed
    # `ceilings`, `time_stride`, `h`, `linf_lattice`, `second_order`,
    # `sigma_grid` and `interpolation` among them, the last four even at their
    # old defaults; so are values that are not numbers
    cfgfile = write_config(tmp_path, small_heat_raw(**overrides))
    with pytest.raises(ConfigurationError,
                       match="outside|below|empty|positive|unknown|could not convert"):
        runner.load_config(cfgfile)
    out = tmp_path / "out"
    assert cli.main([verb, str(cfgfile), "--outdir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_sweep_single_member_matches_run(tmp_path):
    raw = small_heat_raw(sweep={"eps": [1.0e-2]})
    config = runner.load_config(write_config(tmp_path, raw))
    code, manifest = runner.perform_sweep(config, tmp_path / "sweep")
    assert code == 0
    member = tmp_path / "sweep" / "m3_eps0.01"
    runner.perform_run(config, tmp_path / "single")
    assert (member / "timeseries.csv").read_bytes() == \
        (tmp_path / "single" / "timeseries.csv").read_bytes()
    assert (tmp_path / "sweep" / "sweep_summary.csv").exists()
    # solver_overrides are converted as the base solver block is
    over = runner.config_from_dict(small_heat_raw(
        sweep={"eps": [1.0e-2], "solver_overrides": {"newton_max_iter": 3.0}}))
    base = runner.config_from_dict(small_heat_raw(
        solver=raw["solver"] | {"newton_max_iter": 3.0}))
    assert runner._sweep(over)[2][(3, 1.0e-2)].solver == base.solver


def test_sweep_row_warm_starts_each_member_from_the_one_before(tmp_path, monkeypatch):
    # rows m = 3 and 4 over three eps; the first solve fails (exit 3), so the
    # second member of its row solves cold
    solve, guesses, trajs = runner.solve, {}, {}

    def recording_solve(cfg, data, u0, f_field, guess=None):
        key = (cfg.m_per_dim, cfg.eps)
        guesses[key] = guess
        if key == (3, 1.0e-1):
            raise galerkin.SolverError("forced failure")
        trajs[key] = solve(cfg, data, u0, f_field, guess)
        return trajs[key]

    monkeypatch.setattr(runner, "solve", recording_solve)
    raw = small_heat_raw(sweep={"eps": [1.0e-1, 1.0e-2, 1.0e-3], "m_per_dim": [3, 4]})
    raw["horizon"] = 0.01
    code, manifest = runner.perform_sweep(runner.load_config(write_config(tmp_path, raw)),
                                          tmp_path / "sweep")
    assert code == 3 and [m["exit"] for m in manifest["members"]] == [3, 0, 0, 0, 0, 0]
    assert {key for key, g in guesses.items() if g is None} == {(3, 1e-1), (4, 1e-1), (3, 1e-2)}
    for m, e, prev in ((3, 1e-3, 1e-2), (4, 1e-2, 1e-1), (4, 1e-3, 1e-2)):
        assert guesses[m, e] is trajs[m, prev].coeffs  # the previous member's coeffs


def test_sweep_members_equal_runs_warm_started_from_the_previous_member(tmp_path):
    # a sweep member is `perform_run` of the member, given the coefficients of
    # the member before it in its row as its guess; p varies, so the guess
    # moves the Newton iterates
    raw = small_heat_raw(fields={"p": {"family": "affine", "base": 1.9, "slope": [0.1, 0.0]},
                                 "q": 2.0, "a": 0.5, "b": 0.5},
                         sweep={"eps": [1.0e-1, 1.0e-2]})
    raw["horizon"] = 0.01
    config = runner.load_config(write_config(tmp_path, raw))
    assert runner.perform_sweep(config, tmp_path / "sweep")[0] == 0
    members, guess = runner._sweep(config)[2], None
    for eps in (1.0e-1, 1.0e-2):
        member = members[(3, eps)]
        code, _, traj = runner.perform_run(member, tmp_path / "runs" / member.name, guess)
        assert code == 0
        files = sorted(p.name for p in (tmp_path / "runs" / member.name).glob("*.csv"))
        assert "timeseries.csv" in files and "second_order.csv" in files
        assert files == sorted(p.name for p in (tmp_path / "sweep" / member.name).glob("*.csv"))
        for name in files:
            assert ((tmp_path / "runs" / member.name / name).read_bytes()
                    == (tmp_path / "sweep" / member.name / name).read_bytes())
        guess = traj.coeffs
    # the warm start reaches the solve: a cold second member differs
    cold = tmp_path / "cold"
    runner.perform_run(members[(3, 1.0e-2)], cold)
    assert ((cold / "timeseries.csv").read_bytes()
            != (tmp_path / "sweep" / "m3_eps0.01" / "timeseries.csv").read_bytes())


def test_galerkin_orthogonality_holds_a_retried_step_to_its_substep_bound(tmp_path, monkeypatch):
    # step 1 is retried on halves, and the first half records a residual above
    # the stored state's newton_tol * (1 + |v|) but within its own bound
    step, calls = galerkin.step_implicit, []

    def first_step_retried(us, t, tau, *args):
        calls.append(tau)
        if len(calls) == 1:
            raise galerkin.StepFailure("forced")
        new, stats = step(us, t, tau, *args)
        if len(calls) == 2:
            stats.residual_norm[0], stats.residual_bound[0] = 5e-7, 1e-6
        return new, stats

    monkeypatch.setattr(galerkin, "step_implicit", first_step_retried)
    config = runner.load_config(write_config(tmp_path, small_heat_raw()))
    _, manifest, traj = runner.perform_run(config, tmp_path / "run")
    assert calls[1] == calls[2] == calls[0] / 2
    assert traj.newton_residual[1] == 5e-7 > config.solver.newton_tolerance(traj.coeffs[1])
    check = next(c for c in manifest["checks"] if c["name"] == "galerkin_orthogonality")
    assert check["passed"]


def small_stability_raw(**solver):
    raw = small_heat_raw(fields={"p": {"family": "affine", "base": 1.95, "slope": [0.1, 0.0]},
                                 "q": 2.0, "a": 0.25, "b": 0.25},
                         source={"family": "modes", "coeffs": [[2, 1, 0.3]], "tdecay": 1.0},
                         sweep={"stability": {"pairs": 3, "base_delta": 0.1, "halvings": 1,
                                              "seed": 11}})
    raw["alpha"] = 0.45
    raw["horizon"] = 0.01
    raw["solver"].update(solver)
    return raw


def stability_sweep_solves(tmp_path, monkeypatch, **overrides):
    """The small stability sweep at GROUP 2 with these solver_overrides: the
    `solve` calls, the lockstep group sizes, and the summary's row kinds."""
    solves, groups = [], []
    solve, lockstep = runner.solve, runner.solve_lockstep
    monkeypatch.setattr(runner, "GROUP", 2)
    monkeypatch.setattr(runner, "solve", lambda *a: solves.append(a) or solve(*a))
    monkeypatch.setattr(runner, "solve_lockstep", lambda cfg, data, initials, sources:
                        groups.append(len(initials)) or lockstep(cfg, data, initials, sources))
    raw = small_stability_raw()
    raw["sweep"]["solver_overrides"] = overrides
    config = runner.load_config(write_config(tmp_path, raw))
    code, _ = runner.perform_sweep(config, tmp_path / "sweep")
    assert code == 0
    kinds = [line.split(",")[0] for line in
             (tmp_path / "sweep" / "sweep_summary.csv").read_text().splitlines()[1:]]
    return solves, groups, kinds


def test_sweep_solves_the_stability_base_once(tmp_path, monkeypatch):
    # one member, then the stability block: 3 pairs and halvings + 1 = 2
    # shrinking experiments, in fixed lockstep groups of at most GROUP jobs,
    # all measured against one base: the member, solved cold on the sweep's
    # own solver
    solves, groups, kinds = stability_sweep_solves(tmp_path, monkeypatch)
    assert len(solves) == 1 and groups == [2, 2, 1]
    assert kinds.count("gronwall_bound") == 3 and kinds.count("stability_shrink") == 2


def test_sweep_solves_its_own_stability_base_when_the_member_differs(tmp_path, monkeypatch):
    # solver_overrides give the member another solver, so the base is solved apart
    solves, groups, kinds = stability_sweep_solves(tmp_path, monkeypatch, newton_tol=1e-11)
    assert len(solves) == 1 + 1 and groups == [2, 2, 1]
    assert solves[0][0].newton_tol == 1e-11 and solves[1][0].newton_tol == 1e-10
    assert kinds.count("gronwall_bound") == 3 and kinds.count("stability_shrink") == 2


def test_gronwall_rows_equal_those_against_a_separately_solved_base(tmp_path, monkeypatch):
    # with eps [0.1, 0.01] the sweep's own member (eps 0.01) is warm-started,
    # so the base is solved apart; with eps [0.01] alone the member is the
    # base.  Either way the Gronwall rows are the same bytes.
    solves, solve = [], runner.solve
    monkeypatch.setattr(runner, "solve", lambda *a: solves.append(a) or solve(*a))

    def gronwall_rows(eps):
        raw = small_stability_raw()
        raw["sweep"]["eps"] = eps
        out = tmp_path / f"sweep{len(eps)}"
        assert runner.perform_sweep(runner.load_config(write_config(tmp_path, raw)), out)[0] == 0
        return [line for line in (out / "sweep_summary.csv").read_text().splitlines()
                if line.startswith(("gronwall_", "stability_shrink"))]

    shared = gronwall_rows([1.0e-2])
    assert len(solves) == 1
    apart = gronwall_rows([1.0e-1, 1.0e-2])
    assert len(solves) == 1 + 3
    assert len(shared) == 3 * 3 + 2 and apart == shared


def test_stability_solver_failure_writes_the_summary_and_exits_3(tmp_path, capsys):
    # the member keeps the default Newton tolerance; the stability solves get one no
    # iterate meets
    raw = small_stability_raw(newton_tol=1e-300, tau_retry_cap=0, max_damping_halvings=1)
    raw["sweep"]["solver_overrides"] = {"newton_tol": 1e-10, "tau_retry_cap": 4,
                                        "max_damping_halvings": 20}
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(write_config(tmp_path, raw)), "--outdir", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 3 and manifest["failure"].startswith("stability experiment")
    assert [m["exit"] for m in manifest["members"]] == [0]
    assert manifest["checks"] == []
    kinds = {line.split(",")[0] for line in
             (out / "sweep_summary.csv").read_text().splitlines()[1:]}
    assert "member_exit" in kinds
    assert not kinds & {"gronwall_bound", "gronwall_grad_modular", "gronwall_pairing",
                        "stability_shrink"}
    assert "solver failure: stability experiment" in capsys.readouterr().err


def test_sweep_member_failure_recorded_and_continues(tmp_path):
    raw = small_heat_raw(sweep={"eps": [1.0e-2, 1.0e-3]})
    raw["fields"] = {"p": 2.0, "q": 2.6, "a": 0.5, "b": 0.5}
    config = runner.load_config(write_config(tmp_path, raw))
    code, manifest = runner.perform_sweep(config, tmp_path / "sweep")
    assert code == 1
    assert all(m["exit"] == 1 for m in manifest["members"])


def test_sweep_validates_the_data_once(tmp_path, monkeypatch):
    calls = []
    validate = fields.ExponentData.validate
    monkeypatch.setattr(fields.ExponentData, "validate",
                        lambda self: calls.append(self) or validate(self))
    raw = small_heat_raw(sweep={"eps": [1.0e-1, 1.0e-2], "m_per_dim": [2, 3]})
    raw["horizon"] = 0.01
    config = runner.load_config(write_config(tmp_path, raw))
    code, manifest = runner.perform_sweep(config, tmp_path / "sweep")
    assert code == 0 and len(manifest["members"]) == 4
    assert len(calls) == 1 and calls[0] is config.data


def test_sweep_with_stability_block_on_invalid_data_exit_1(tmp_path):
    raw = yaml.safe_load((SCENARIOS / "stability.yaml").read_text())
    raw["fields"]["q"] = 2.6  # |p - q| above 2/(N+2)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(write_config(tmp_path, raw)), "--outdir", str(out)]) == 1
    assert json.loads((out / "manifest.json").read_text())["exit_code"] == 1
    kinds = [line.split(",")[0] for line in
             (out / "sweep_summary.csv").read_text().splitlines()[1:]]
    assert kinds == ["member_exit"]


def test_m_sweep_on_heat_has_zero_distances(tmp_path):
    # the eigenmode datum lies in every basis and the flux is linear, so all
    # refinement members coincide and the Cauchy distances vanish
    raw = small_heat_raw(sweep={"m_per_dim": [2, 3, 4]})
    config = runner.load_config(write_config(tmp_path, raw))
    code, manifest = runner.perform_sweep(config, tmp_path / "sweep")
    assert code == 0
    rows = (tmp_path / "sweep" / "sweep_summary.csv").read_text().splitlines()
    dists = [float(r.split(",")[2]) for r in rows if r.startswith("m_cauchy_distance")]
    # projections of the eigenmode onto foreign modes are 1e-16-level, so the
    # refinement distances sit at the roundoff floor rather than exact zero
    assert len(dists) == 2 and all(d <= 1e-25 for d in dists)


def test_cli_end_to_end(tmp_path, capsys):
    cfgfile = write_config(tmp_path, small_heat_raw())
    out = tmp_path / "cliout"
    assert cli.main(["run", str(cfgfile), "--outdir", str(out)]) == 0
    assert cli.main(["report", str(out)]) == 0
    digest = capsys.readouterr().out
    assert "energy_equality" in digest and "pass" in digest
    assert (out / "plots" / "l2_sq.dat").exists()
    assert cli.main(["validate", str(cfgfile)]) == 0
    assert cli.main(["report", str(tmp_path / "emptydir")]) == 1


def test_report_on_a_sweep_directory(tmp_path, capsys):
    # a residual ceiling no member meets fails every member (exit 2), so the
    # summary holds [FAIL] rows beside the Cauchy studies' [pass] rows
    raw = small_heat_raw(name="tiny_sweep", horizon=0.01, sweep={
        "eps": [1.0e-1, 1.0e-2], "m_per_dim": [2, 3],
        "diagnostics_overrides": {"energy_residual_ceiling": 1.0e-300}})
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(write_config(tmp_path, raw)), "--outdir", str(out)]) == 2
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sweep: tiny_sweep  (exit 2)"

    checks = json.loads((out / "manifest.json").read_text())["checks"]
    summary = lines.index("sweep summary:")
    table = [line.split() for line in lines[4:summary - 1]]
    assert lines[3].split() == ["check", "kind", "verdict", "value", "threshold"]
    assert [(row[0], row[2]) for row in table] == \
        [(c["name"], "pass" if c["passed"] else "FAIL") for c in checks]
    assert [row[0] for row in table] == [
        "higher_integrability_uniform", "second_order_uniform", "time_derivative_uniform",
        "eps_continuation_m2", "eps_continuation_m3", "m_refinement"]

    # each kind's rows under its heading, in the summary's order, with the
    # summary's verdict as a suffix
    csv_rows = [line.split(",") for line in
                (out / "sweep_summary.csv").read_text().splitlines()[1:]]
    suffix = {"": "", "True": "  [pass]", "False": "  [FAIL]"}
    expected = []
    for kind in dict.fromkeys(kind for kind, *_ in csv_rows):
        expected.append(f"  {kind}:")
        expected += [f"    {label:28s} {float(value):13.6g}{suffix[passed]}"
                     for k, label, value, passed in csv_rows if k == kind]
    assert lines[summary + 1:] == expected
    assert lines[lines.index("  member_exit:") + 1] == f"    {'m2_eps0.1':28s} {2:13d}  [FAIL]"
    assert lines[lines.index("  eps_cauchy_monotone:") + 1].endswith("1  [pass]")
    assert lines[lines.index("  eps_cauchy_distance:") + 1].endswith(" 0")

    for kind, label_count in (("eps_cauchy_distance", 2), ("m_cauchy_distance", 1)):
        values = [float(v) for k, _, v, _ in csv_rows if k == kind]
        dat = (out / "plots" / f"{kind}.dat").read_text().splitlines()
        assert len(dat) == label_count
        assert dat == [f"{i} {v:.17g}" for i, v in enumerate(values)]


def test_sweep_pairs_only_the_eps_studies(tmp_path, monkeypatch):
    # only the eps continuation writes eps_cauchy_pairing rows, so the m
    # refinement's pairing is never formed: one pairing per consecutive eps
    # pair of each m row, none for the m study
    raw = small_heat_raw(name="tiny_sweep", horizon=0.01,
                         sweep={"eps": [1.0e-1, 1.0e-2], "m_per_dim": [2, 3]})
    calls = []
    kernel = flux.pairing_kernel
    monkeypatch.setattr(flux, "pairing_kernel", lambda *a: calls.append(1) or kernel(*a))
    code, _ = runner.perform_sweep(runner.load_config(write_config(tmp_path, raw)),
                                   tmp_path / "sweep")
    assert code == 0
    rows = (tmp_path / "sweep" / "sweep_summary.csv").read_text().splitlines()
    assert sum(row.startswith("eps_cauchy_pairing,") for row in rows) == 2
    assert sum(row.startswith("m_cauchy_distance,") for row in rows) == 1
    assert len(calls) == 2


def test_cli_gap_violation_exit_1(tmp_path):
    assert cli.main(["validate", str(SCENARIOS / "gap_violation.yaml")]) == 1
    out = tmp_path / "gap"
    assert cli.main(["run", str(SCENARIOS / "gap_violation.yaml"),
                     "--outdir", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert "exponent_gap" in manifest["failure"]


@pytest.mark.parametrize("resolution", [{"probe_resolution": 1}, {"probe_resolution": 0},
                                        {"time_probe_resolution": 0}])
def test_bad_probe_resolution_is_a_config_error(tmp_path, capsys, resolution):
    # the probe resolutions are no scenario keys: any value is an unknown key
    cfgfile = write_config(tmp_path, small_heat_raw(**resolution))
    with pytest.raises(ConfigurationError, match="unknown top-level"):
        runner.load_config(cfgfile)
    assert cli.main(["validate", str(cfgfile)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("verb", ["validate", "run", "sweep"])
def test_non_finite_data_are_a_config_error(tmp_path, capsys, verb):
    raw = small_heat_raw()
    raw["fields"]["a"] = {"family": "affine", "base": 1.0e308, "slope": [1.0e308, 0.0]}
    args = [verb, str(write_config(tmp_path, raw))]
    if verb != "validate":
        args += ["--outdir", str(tmp_path / "out")]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not finite" in err
    assert not (tmp_path / "out").exists()


def test_non_finite_data_print_the_error_line_first(tmp_path):
    # numpy's overflow warnings from the load probes would print ahead of it
    raw = small_heat_raw()
    raw["fields"]["a"] = {"family": "affine", "base": 1.0e308, "slope": [1.0e308, 0.0]}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", "import sys, doublephase.cli; "
                           "sys.exit(doublephase.cli.main(sys.argv[1:]))",
                           "validate", str(write_config(tmp_path, raw))],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "not finite" in proc.stderr


def test_sum_of_steady_fields_is_steady_bitwise():
    dim = 2
    steady = fields.make_field({"family": "bump", "amp": 0.3, "base": 0.4}, dim)
    modes = fields.make_field({"family": "modes", "coeffs": [[2, 1, 0.2]]}, dim)
    moving = fields.make_field({"family": "modes", "coeffs": [[2, 1, 0.2]], "tdecay": 1.0}, dim)
    total = runner._field_sum(steady, modes)
    assert total.steady and not runner._field_sum(steady, moving).steady
    unmarked = fields.Field(dim=dim, descriptor=total.descriptor, _fn=total._fn)
    x, times = fields.lattice_points(dim, 9), np.linspace(0.0, 0.1, 4)
    assert (fields.sample_field(total, x, times).tobytes()
            == fields.sample_field(unmarked, x, times).tobytes())
    # the steady second term is evaluated once per point set, with the bits of every call
    calls = []
    counted = fields.Field(dim=dim, descriptor=modes.descriptor, steady=True,
                           _fn=lambda x, t: calls.append(t) or modes(x, t))
    for first in (steady, moving):
        calls.clear()
        total = runner._field_sum(first, counted)
        for t in times:
            assert total(x, t).tobytes() == (first(x, t) + modes(x, t)).tobytes()
        assert len(calls) == 1
    with pytest.raises(NotImplementedError, match="sum"):
        total.grad(np.full((1, 2), 0.5), 0.0)  # a sum has no closed-form gradient


def test_cli_import_leaves_scipy_optimize_out():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", "import sys, doublephase.cli; "
                          "print('scipy.optimize' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_cli_import_loads_no_scipy_and_no_process_pool(tmp_path):
    # scipy is imported where it is used: at module level it would add to
    # every command's start-up, which perfbench's setup_s measures on every
    # workload; a sweep with two m rows and a stability block runs in this
    # process and loads no process-pool machinery either
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    raw = small_stability_raw()
    raw["sweep"]["m_per_dim"] = [2, 3]
    cfgfile = write_config(tmp_path, raw)
    listing = ("; print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', "
               "'multiprocessing') or m.startswith('concurrent.futures')))")
    for work in ("import sys, doublephase.cli",
                 "import sys; from doublephase import runner; assert runner.perform_sweep("
                 "runner.load_config(sys.argv[1]), sys.argv[2])[0] == 0"):
        out = subprocess.run([sys.executable, "-c", work + listing, str(cfgfile),
                              str(tmp_path / "sweep")],
                             env=env, capture_output=True, text=True, check=True).stdout
        assert out.strip() == "[]"


def test_cli_malformed_config_exit_1(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("solver: [1, 2\n")
    assert cli.main(["run", str(bad)]) == 1


def test_bundled_scenarios_parse():
    for f in sorted(SCENARIOS.glob("*.yaml")):
        config = runner.load_config(f)
        assert config.data.dim == 2
        assert config.solver.tau > 0


def test_source_certificate_flags_nonvanishing_boundary(tmp_path):
    raw = small_heat_raw(source=1.0)
    config = runner.load_config(write_config(tmp_path, raw))
    code, manifest, _ = runner.perform_run(config, tmp_path / "out")
    cert = manifest["source_certificate"]
    assert not cert["boundary_zero"] and cert["grad_finite"]
    # a span source vanishes on the boundary
    raw2 = small_heat_raw(source={"family": "modes", "coeffs": [[1, 1, 0.5]]})
    config2 = runner.load_config(write_config(tmp_path, raw2, "s2.yaml"))
    _, manifest2, _ = runner.perform_run(config2, tmp_path / "out2")
    assert manifest2["source_certificate"]["boundary_zero"]


def test_source_certificate_evaluates_each_shifted_lattice_once(monkeypatch):
    config = runner.load_config(SCENARIOS / "forced_mms.yaml")
    f_field, data = config.source_field(), config.data
    calls = []
    original = galerkin._mode_factors
    monkeypatch.setattr(galerkin, "_mode_factors",
                        lambda single, x: calls.append(len(x)) or original(single, x))
    cert = runner._source_certificate(f_field, data)
    # the boundary, then the four shifted lattices, each at all five times
    assert len(calls) == 1 + 2 * data.dim
    # the same values as one evaluation per lattice and time
    pts = fields.lattice_points(data.dim, 33)
    boundary = pts[np.any((pts == 0.0) | (pts == 1.0), axis=1)]
    times = np.linspace(0.0, data.horizon, 5)
    h = 1e-6
    gsq = 0.0
    for t in times:
        g = np.stack([(f_field(pts + e, t) - f_field(pts - e, t)) / (2.0 * h)
                      for e in h * np.eye(data.dim)], axis=-1)
        gsq = max(gsq, float(np.sum(g * g) / len(pts)))
    assert cert["grad_sq_mean_max"] == gsq
    assert cert["boundary_max"] == max(float(np.abs(f_field(boundary, t)).max()) for t in times)


def test_source_certificate_samples_a_steady_source_at_one_time():
    data = runner.load_config(SCENARIOS / "stability.yaml").data
    steady = fields.make_field({"family": "bump", "base": 0.1, "amp": 0.5}, data.dim)
    times = []

    def timed(fld):
        return replace(fld, _fn=lambda x, t: times.append(float(t)) or fld(x, t))

    cert = runner._source_certificate(timed(steady), data)
    assert set(times) == {0.0} and len(times) == 1 + 2 * data.dim
    # marked moving, the same field is probed at all five times, to the same certificate
    times.clear()
    assert runner._source_certificate(timed(replace(steady, steady=False)), data) == cert
    assert len(set(times)) == 5
