"""The benchmark's own contract: inputs, counters and the correctness check.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""
import copy
import json
from dataclasses import replace

import numpy as np
import pytest
import yaml

import reference
import tracing
import workloads
from doublephase import galerkin, runner


def _fingerprint(inputs):
    if isinstance(inputs, list) and inputs and isinstance(inputs[0], dict):
        return [{k: (v.values if hasattr(v, "values") and not isinstance(v, dict) else v)
                 for k, v in c.items() if k != "data"} for c in inputs]
    configs = inputs if isinstance(inputs, list) else [inputs]
    return [c.raw for c in configs]


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("workload", ["sweep_unordered", "scenario_runs",
                                      "stability_pool", "toolkit_norms"])
def test_seeded_inputs_are_deterministic(workload):
    first = _fingerprint(workloads.prepare(workload, 3))
    assert _same(first, _fingerprint(workloads.prepare(workload, 3)))
    assert not _same(first, _fingerprint(workloads.prepare(workload, 4)))


def test_default_seed_runs_the_files_as_shipped():
    for config in workloads.prepare("scenario_runs", workloads.DEFAULT_SEED):
        path = workloads.SCENARIOS / f"{config.name}.yaml"
        assert config.raw == yaml.safe_load(path.read_text())


def _tiny_config():
    raw = {"name": "tiny", "dim": 2, "horizon": 0.02, "alpha": 0.5,
           "fields": {"p": 1.5, "q": 1.7, "a": 0.5, "b": 0.5},
           "initial": {"family": "modes", "coeffs": [[1, 1, 1.0], [2, 1, 0.5]]},
           "source": 0.0, "solver": {"m_per_dim": 3, "eps": 1e-3, "tau": 5e-3}}
    return runner.config_from_dict(raw)


def test_step_counters_on_a_tiny_scenario():
    config = _tiny_config()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.pass"):
            traj = galerkin.solve(config.solver, config.data, config.initial,
                                  config.source_field())
    finally:
        tracer.remove()
    assert tracing.installed_wrappers() == []
    m = tracing.layer_metrics(tracer.spans, 1)
    steps = m["galerkin.step_implicit.calls"]
    assert steps == m["galerkin.steps_accepted"] == len(traj.times) - 1
    assert m["galerkin.residual_evals"] == steps + m["galerkin.newton_iters"] \
        + m["galerkin.damping_halvings"]
    # the solver's own per-step count agrees with the Jacobian evaluations seen
    assert m["galerkin.newton_iters"] == traj.newton_iters.sum() > steps
    own = tracing.self_times(tracer.spans)
    assert own.min() >= 0.0
    assert own.sum() == pytest.approx(tracer.spans[0][tracing.END] - tracer.spans[0][tracing.START])


def test_damping_halvings_follow_span_order():
    # step: residual, jacobian, residual, residual (one halving), jacobian, residual
    names = ["galerkin.step_implicit", "flux.vector_kernel", "flux.jacobian_kernel",
             "flux.vector_kernel", "flux.vector_kernel", "flux.jacobian_kernel",
             "flux.vector_kernel"]
    spans = [[n, float(i), float(i) + 0.5, 0 if i else -1, 1 if i else None, False]
             for i, n in enumerate(names)]
    spans[0][tracing.END] = 10.0
    m = tracing.layer_metrics(spans, 1)
    assert m["galerkin.damping_halvings"] == 1
    assert m["galerkin.newton_iters"] == 2
    assert m["galerkin.residual_evals"] == 4
    assert m["galerkin.newton_useful_ratio"] == pytest.approx(3 / 4)


def _ops_from_reference(ref):
    return [workloads.Op(key=k, exit_code=e["exit_code"], verdicts=dict(e["verdicts"]),
                         values=copy.deepcopy(e["values"])) for k, e in ref["ops"].items()]


def test_corrupted_reference_value_is_a_failed_operation():
    ref = reference.load("stability_pool")
    ops = _ops_from_reference(ref)
    assert not any(reference.judge(ops, ref, compare_values=True).values())

    bad = json.loads(json.dumps(ref))
    column = bad["ops"]["member:m6_eps0.01"]["values"]["timeseries.l2_sq"]
    column[3] *= 1.0 + 1e-2
    judged = reference.judge(ops, bad, compare_values=True)
    assert [k for k, problems in judged.items() if problems] == ["member:m6_eps0.01"]
    # values are compared at the default seed only
    assert not any(reference.judge(ops, bad, compare_values=False).values())

    # a change at the level of the Newton tolerance stays within the reference
    near = json.loads(json.dumps(ref))
    near["ops"]["member:m6_eps0.01"]["values"]["timeseries.l2_sq"][3] *= 1.0 + 1e-7
    assert not any(reference.judge(ops, near, compare_values=True).values())


def test_missing_and_extra_operations_fail():
    ref = reference.load("toolkit_norms")
    ops = _ops_from_reference(ref)
    extra = workloads.Op(key="toolkit:new")
    judged = reference.judge(ops[1:] + [extra], ref, compare_values=True)
    assert judged[ops[0].key] == ["missing from the pass"]
    assert judged["toolkit:new"] == ["not in the reference"]


def test_gap_violation_exit_1_counts_as_success(tmp_path):
    configs = [c for c in workloads.prepare("scenario_runs", workloads.DEFAULT_SEED)
               if c.name == "gap_violation"]
    (op,) = workloads.run_scenarios(configs, tmp_path)
    assert op.exit_code == 1 and not op.problems
    ref = reference.load("scenario_runs")
    ref = {"ops": {op.key: ref["ops"][op.key]}}
    assert reference.judge([op], ref, compare_values=True) == {op.key: []}
    op.exit_code = 0
    assert reference.judge([op], ref, compare_values=True)[op.key]


def _forced_mms(**solver):
    configs = workloads.prepare("scenario_runs", workloads.DEFAULT_SEED)
    config = next(c for c in configs if c.name == "forced_mms")
    return runner.replace_config(config, solver=replace(config.solver, **solver))


def test_reference_tolerance_separates_newton_change_from_wrong_basis(tmp_path, monkeypatch):
    ref = reference.load("scenario_runs")
    ref = {"ops": {"run:forced_mms": ref["ops"]["run:forced_mms"]}}

    (op,) = workloads.run_scenarios([_forced_mms(newton_tol=1e-11)], tmp_path / "tol")
    assert reference.judge([op], ref, compare_values=True) == {op.key: []}

    def shifted_trig(self, x):
        angles = np.pi * x[:, None, :] * (self.modes[None, :, :] + 1)
        return np.sin(angles), np.cos(angles)

    monkeypatch.setattr(galerkin.EigenBasis, "_trig", shifted_trig)
    (op,) = workloads.run_scenarios([_forced_mms()], tmp_path / "basis")
    assert any("value" in p for p in reference.judge([op], ref, compare_values=True)[op.key])
