"""Property tests of the documented contracts, driven by hypothesis.

Skipped as a whole where hypothesis is not installed.  The examples are
derandomized, so every run checks the same cases.
"""
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from doublephase import flux, runner, spaces  # noqa: E402
from doublephase.fields import ConfigurationError  # noqa: E402

GRID = spaces.tensor_gauss_legendre(2, 4)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# field values whose largest magnitude keeps the modular at lam = 1 away from
# underflow, the documented NumericsError case
field_values = hnp.arrays(float, GRID.n_space, elements=st.floats(-1e3, 1e3)).filter(
    lambda v: np.abs(v).max() > 1e-3)
exponents = hnp.arrays(float, GRID.n_space, elements=st.floats(1.05, 6.0))
rel_tols = st.sampled_from([1e-10, 1e-8, 1e-6])
scales = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)


@st.composite
def capped_constant_cases(draw):
    """A constant exponent log-uniform on [1.05, CONJUGATE_CAP], with the field
    scaled down where needed so that its modular at lam = 1 is finite.  The
    draw is taken down from the cap, so that hypothesis leans to the cap."""
    span = math.log(spaces.CONJUGATE_CAP / 1.05)
    r = max(spaces.CONJUGATE_CAP * math.exp(-draw(st.floats(0.0, span))), 1.05)
    values = draw(field_values)
    top = 1e300 ** (1.0 / r)
    values = values * min(1.0, top / np.abs(values).max())
    return values, np.full(GRID.n_space, r)


@settings(PROPERTY, max_examples=120)
@given(case=st.tuples(field_values, exponents) | capped_constant_cases(), rel_tol=rel_tols)
def test_luxemburg_norm_meets_modular_contract(case, rel_tol):
    values, r = case
    f = spaces.SampledField(values, GRID)
    lam = spaces.luxemburg_norm(f, r, rel_tol=rel_tol)
    assert lam > 0
    mod = spaces.modular(spaces.SampledField(values / lam, GRID), r)
    assert 1.0 - 10.0 * rel_tol <= mod <= 1.0


@PROPERTY
@given(values=field_values, r=exponents, rel_tol=rel_tols, c=scales)
def test_luxemburg_norm_is_absolutely_homogeneous(values, r, rel_tol, c):
    lam = spaces.luxemburg_norm(spaces.SampledField(values, GRID), r, rel_tol=rel_tol)
    scaled = spaces.luxemburg_norm(spaces.SampledField(c * values, GRID), r, rel_tol=rel_tol)
    assert scaled == pytest.approx(abs(c) * lam, rel=rel_tol)


coefficient = st.floats(0.0, 5.0)
exponent = st.floats(1.05, 6.0)
vectors = st.integers(1, 3).flatmap(
    lambda n: hnp.arrays(float, n, elements=st.floats(-1e3, 1e3)))
vector_pairs = st.integers(1, 3).flatmap(lambda n: st.tuples(
    *[hnp.arrays(float, n, elements=st.floats(-1e3, 1e3))] * 2))


@PROPERTY
@given(a=coefficient, b=coefficient, p=exponent, q=exponent, xi=vectors,
       eps=st.floats(1e-6, 1.0))
def test_flux_jacobian_is_symmetric_psd(a, b, p, q, xi, eps):
    jac = flux.jacobian_kernel(a, b, p, q, xi, eps)
    assert jac.shape == (xi.size, xi.size)
    assert np.array_equal(jac, jac.T)
    scale = np.abs(jac).max()
    assert np.linalg.eigvalsh(jac).min() >= -1e-12 * scale


@PROPERTY
@given(pair=vector_pairs, p=exponent, eps=st.floats(0.0, 0.99))
def test_monotonicity_gap_is_nonnegative(pair, p, eps):
    xi, eta = pair
    assert flux.monotonicity_gap(xi, eta, p, eps) >= 0.0


@PROPERTY
@given(pair=vector_pairs, a=coefficient, b=coefficient, p=exponent, q=exponent,
       eps=st.floats(0.0, 0.99), t=st.floats(0.0, 1.0))
def test_energy_density_is_convex(pair, a, b, p, q, eps, t):
    xi, eta = pair
    energy = [flux.energy_kernel(a, b, p, q, v, eps)
              for v in (xi, eta, (1 - t) * xi + t * eta)]
    chord = (1 - t) * energy[0] + t * energy[1]
    assert energy[2] <= chord + 1e-12 * max(energy[0], energy[1])


# A bundled scenario with one value of its parsed YAML replaced: the config
# loads and runs to an exit code with a manifest, or it is refused at load.
SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.yaml"))
REPLACEMENTS = [float("nan"), float("inf"), float("-inf"), 0, -1, 2.5, "x", [], None, {}]
CUT = 2.0e-3  # horizon of a run, a step or two


def _key_paths(node, path=()):
    """Every key or index path below node, parents before their children."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _key_paths(child, path + (key,))


def _cut(raw):
    """raw with a finite horizon and the snapshot times cut to CUT at most."""
    def cut(t):
        return min(t, CUT) if isinstance(t, (int, float)) and math.isfinite(t) else t

    raw["horizon"] = cut(raw.get("horizon"))
    output = raw.get("output")
    if isinstance(output, dict) and isinstance(output.get("snapshots"), list):
        output["snapshots"] = [cut(t) for t in output["snapshots"]]
    return raw


@st.composite
def replaced_scenarios(draw):
    raw = yaml.safe_load(draw(st.sampled_from(SCENARIOS)).read_text())
    path = draw(st.sampled_from(list(_key_paths(raw))))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(st.sampled_from(REPLACEMENTS))
    return path, raw


@PROPERTY
@given(case=replaced_scenarios())
def test_replaced_scenario_value_is_refused_at_load_or_runs_to_an_exit_code(case):
    path, raw = case
    try:
        config = runner.config_from_dict(_cut(raw))
    except ConfigurationError:
        return
    with tempfile.TemporaryDirectory() as out:
        code, _, _ = runner.perform_run(config, out)
        assert code in (0, 1, 2, 3), path
        assert (Path(out) / "manifest.json").exists(), path
