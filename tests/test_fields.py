import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from doublephase.fields import (
    ConfigurationError, ExponentData, Field, ValidationError, make_field, point_memo,
    sample_field, tensor_axis, tensor_points,
)
from doublephase.galerkin import EigenBasis, mode_basis


def constant_data(p=1.8, q=2.2, a=0.5, b=0.5, alpha=0.9, dim=2, res=17, tres=5):
    return ExponentData(
        dim=dim, horizon=0.1,
        p=make_field(p, dim), q=make_field(q, dim),
        a=make_field(a, dim), b=make_field(b, dim), alpha=alpha,
        lipschitz_probe_resolution=res, time_probe_resolution=tres,
    )


def test_validate_passes_admissible_constants():
    # |p-q| = 0.4 < 1/2, a+b = 1 >= 0.9, both exponents above 2N/(N+2) = 1
    report = constant_data().validate()
    assert report.passed
    names = [c.name for c in report.checks]
    assert "exponent_gap" in names and "coercivity_floor" in names


def test_validate_fails_on_gap():
    report = constant_data(p=2.0, q=2.6).validate()
    assert not report.passed
    assert report.failed_names() == ["exponent_gap"]
    with pytest.raises(ValidationError, match="exponent_gap"):
        report.raise_if_failed()


def affine_data(a_base=0.6, a_slope=-0.2, b=0.5):
    # p = 2 - 0.2 x1 - 0.5 t and a = a_base + a_slope x2 on a 5 x 5 x 3 probe lattice
    p = {"family": "affine", "base": 2.0, "slope": [-0.2, 0.0], "tslope": -0.5}
    a = {"family": "affine", "base": a_base, "slope": [0.0, a_slope]}
    return ExponentData(dim=2, horizon=0.1, p=make_field(p, 2), q=make_field(1.85, 2),
                        a=make_field(a, 2), b=make_field(b, 2), alpha=0.8,
                        lipschitz_probe_resolution=5, time_probe_resolution=3)


def test_validate_reports_each_condition_at_its_worst_node():
    rows = {c.name: c for c in affine_data().validate().checks}
    # (value, threshold, worst node (x1, x2, t), description); the first
    # worst node in (t, x1, x2) order, the last coordinate fastest
    want = {
        "exponent_floor": (1.75, 1.0, (1.0, 0.0, 0.1), "min(p,q) must exceed 2N/(N+2) everywhere"),
        "coefficient_sign": (0.4, 0.0, (0.0, 1.0, 0.0), "a and b must be nonnegative"),
        "coercivity_floor": (0.9, 0.8, (0.0, 1.0, 0.0),
                             "a + b must stay above the coercivity floor alpha"),
        "exponent_gap": (0.15, 0.5, (0.0, 0.0, 0.0), "|p - q| must stay below 2/(N+2) everywhere"),
    }
    for name, (value, threshold, node, description) in want.items():
        row = rows[name]
        assert row.passed, name
        assert row.value == pytest.approx(value, abs=1e-14), name
        assert row.threshold == threshold and row.description == description, name
        assert row.worst_node == pytest.approx(node, abs=1e-15), name
        assert row.as_dict()["worst_node"] == pytest.approx(list(node), abs=1e-15)


def test_validate_fails_a_negative_coefficient():
    # a = 0.6 - 0.7 x2 dips to -0.1 on x2 = 1, while a + b >= 1.1 stays coercive
    report = affine_data(a_slope=-0.7, b=1.2).validate()
    assert report.failed_names() == ["coefficient_sign"]
    sign = next(c for c in report.checks if c.name == "coefficient_sign")
    assert sign.value == pytest.approx(-0.1, abs=1e-14)
    assert sign.worst_node == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)
    with pytest.raises(ValidationError, match="coefficient_sign"):
        report.raise_if_failed()


def test_p_laplacian_special_case_passes():
    # single-term flux: a = 1, b = 0
    report = constant_data(p=2.0, q=2.0, a=1.0, b=0.0, alpha=1.0).validate()
    assert report.passed


def test_validate_fails_below_floor():
    report = constant_data(p=0.9, q=1.1, dim=2).validate()
    assert "exponent_floor" in report.failed_names()


def test_validate_fails_on_coercivity():
    report = constant_data(a=0.3, b=0.3, alpha=0.9).validate()
    assert "coercivity_floor" in report.failed_names()


def test_constants_for_two_dimensions():
    data = constant_data()
    assert data.r_sharp == pytest.approx(1.0)
    assert data.r_star == pytest.approx(0.5)
    assert data.exponent_floor == pytest.approx(1.0)


def test_lipschitz_estimates_reported():
    dim = 2
    data = ExponentData(
        dim=dim, horizon=0.1,
        p=make_field({"family": "affine", "base": 1.9, "slope": [0.2, 0.0]}, dim),
        q=make_field(2.0, dim),
        a=make_field(0.5, dim), b=make_field(0.5, dim), alpha=0.9,
        lipschitz_probe_resolution=33, time_probe_resolution=5,
    )
    report = data.validate()
    assert report.passed
    assert report.lipschitz["p"] == pytest.approx(0.2, rel=1e-10)
    assert report.lipschitz["pq"] == pytest.approx(0.2, rel=1e-10)
    assert report.lipschitz["ab"] == 0.0


def test_gap_implies_shift_exponents_positive():
    # r1, r2 >= r_sharp - r_star > 0 and 2(s_upper - s_lower) < r_sharp
    dim = 2
    data = ExponentData(
        dim=dim, horizon=0.1,
        p=make_field({"family": "sinusoidal", "base": 2.0, "amp": 0.2,
                      "wave": [1.0, 1.0]}, dim),
        q=make_field({"family": "sinusoidal", "base": 2.0, "amp": 0.2,
                      "wave": [1.0, -1.0], "phase": 1.0}, dim),
        a=make_field(0.5, dim), b=make_field(0.5, dim), alpha=0.9,
        lipschitz_probe_resolution=17, time_probe_resolution=3,
    )
    assert data.report.passed
    x, times = data.probe_lattice()
    _, _, p, q = data.sample(x, times[::8])
    s_lower, s_upper = np.minimum(p, q), np.maximum(p, q)
    floor = data.r_sharp - data.r_star
    assert np.all(s_lower + data.r_sharp - p >= floor - 1e-12)  # r1
    assert np.all(s_lower + data.r_sharp - q >= floor - 1e-12)  # r2
    assert np.all(2.0 * (s_upper - s_lower) < data.r_sharp)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tensor_axis_inverts_tensor_points(dim):
    axis = np.array([0.1, 0.5, 0.2, 0.9])
    x = tensor_points(axis, dim)
    assert np.array_equal(tensor_axis(x, dim), axis)
    # a lattice of another dimension, one point missing, the first axis
    # fastest, scattered points
    bad = [tensor_points(axis, dim + 1)]
    if dim > 1:
        bad += [x[:-1], x[:, ::-1], np.random.default_rng(dim).uniform(size=x.shape)]
    for nodes in bad:
        with pytest.raises(ValueError, match="tensor"):
            tensor_axis(nodes, dim)


def test_sample_stacks_per_time_calls_and_tensor_points_order():
    dim = 2
    data = ExponentData(
        dim=dim, horizon=0.1,
        p=make_field({"family": "affine", "base": 1.9, "slope": [0.1, 0.0], "tslope": 1.0}, dim),
        q=make_field({"family": "sinusoidal", "base": 2.0, "amp": 0.1, "tfreq": 3.0}, dim),
        a=make_field({"family": "bump", "amp": 0.3, "base": 0.4, "tdecay": 2.0}, dim),
        b=make_field(0.5, dim), alpha=0.9)
    axis = [0.0, 0.3, 1.0]
    x = tensor_points(axis, dim)
    # first axis slowest, the node order of tensor_gauss_legendre
    assert x.tolist() == [[u, v] for u in axis for v in axis]
    assert tensor_points(axis, 1).tolist() == [[u] for u in axis]

    times = np.linspace(0.0, data.horizon, 4)
    stacked = data.sample(x, times)
    for rows, fld in zip(stacked, (data.a, data.b, data.p, data.q)):
        assert rows.shape == (len(times), len(x))
        for k, t in enumerate(times):
            assert np.array_equal(rows[k], fld(x, t))
    single = data.sample(x, times[2])
    assert [v.shape for v in single] == [(len(x),)] * 4
    assert all(np.array_equal(v, rows[2]) for v, rows in zip(single, stacked))


def test_field_families_and_errors():
    dim = 2
    bump = make_field({"family": "bump", "amp": 2.0, "center": [0.5, 0.5],
                       "width": 0.2}, dim)
    x = np.array([[0.5, 0.5]])
    assert bump(x, 0.0)[0] == pytest.approx(2.0)
    modes = make_field({"family": "modes", "coeffs": [[1, 1, 1.0]]}, dim)
    assert modes(x, 0.0)[0] == pytest.approx(2.0)  # 2 sin^2(pi/2)
    bubble = make_field({"family": "bubble", "amp": 16.0}, dim)
    assert bubble(x, 0.0)[0] == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        make_field({"family": "nope"}, dim)
    with pytest.raises(ConfigurationError):
        make_field({"family": "affine", "base": 1.0, "slope": [1.0]}, dim)
    with pytest.raises(ConfigurationError, match="slop"):  # a key its family does not list
        make_field({"family": "affine", "base": 1.9, "slop": [0.2, 0.0]}, dim)
    for center in ([0.2], [0.2, 0.3, 0.4]):  # would broadcast, or fail only when evaluated
        with pytest.raises(ConfigurationError, match="center"):
            make_field({"family": "bump", "amp": 1.0, "center": center}, dim)
    with pytest.raises(ConfigurationError):
        ExponentData(dim=3, horizon=0.1, p=make_field(2.0, 3), q=make_field(2.0, 3),
                     a=make_field(0.5, 3), b=make_field(0.5, 3), alpha=0.9)


def family_spec(family, dim):
    """A descriptor of the family that exercises every one of its parameters."""
    v = [0.3, -0.7][:dim]
    return {"constant": 2.5,
            "affine": {"family": "affine", "base": 1.9, "slope": v, "tslope": 0.7},
            "sinusoidal": {"family": "sinusoidal", "base": 2.0, "amp": 0.3,
                           "wave": [1.5, 2.0][:dim], "phase": 0.4, "tfreq": 3.0},
            "bump": {"family": "bump", "base": 0.4, "amp": 0.3, "center": [0.4, 0.6][:dim],
                     "width": 0.2, "tdecay": 2.0},
            "modes": {"family": "modes", "coeffs": [[1] * dim + [0.7], [2] + [3] * (dim - 1) + [-0.3]],
                      "tdecay": 1.5},
            "bubble": {"family": "bubble", "amp": 16.0, "tdecay": 0.5}}[family]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", ["constant", "affine", "sinusoidal", "bump", "modes", "bubble"])
def test_field_grad_equals_central_differences(family, dim):
    fld = make_field(family_spec(family, dim), dim)
    rng = np.random.default_rng(dim)
    x = rng.uniform(0.1, 0.9, size=(40, dim))
    h = 1e-6
    for t in (0.3, rng.uniform(0.0, 1.0, size=len(x))):  # a scalar time and one per point
        got = fld.grad(x, t)
        assert got.shape == x.shape
        fd = np.stack([(fld(x + h * e, t) - fld(x - h * e, t)) / (2.0 * h) for e in np.eye(dim)],
                      axis=-1)
        if family == "constant":
            assert np.array_equal(got, np.zeros_like(x))
        else:
            assert np.abs(got - fd).max() < 1e-7


def test_nonfinite_field_is_configuration_error():
    dim = 1
    bad = make_field(2.0, dim)
    object.__setattr__(bad, "_fn", lambda x, t: np.full(x.shape[0], np.nan))
    data = ExponentData(dim=dim, horizon=0.1, p=bad, q=make_field(2.0, dim),
                        a=make_field(0.5, dim), b=make_field(0.5, dim), alpha=0.9,
                        lipschitz_probe_resolution=9, time_probe_resolution=3)
    with pytest.raises(ConfigurationError, match="not finite"):
        data.validate()


TIME_KEY = {"affine": "tslope", "sinusoidal": "tfreq", "bump": "tdecay", "modes": "tdecay",
            "bubble": "tdecay"}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", ["constant", "affine", "sinusoidal", "bump", "modes", "bubble"])
def test_field_with_time_parameter_zero_is_steady_bitwise(family, dim):
    moving = family_spec(family, dim)
    if family != "constant":
        assert not make_field(moving, dim).steady
    fld = make_field(moving if family == "constant" else moving | {TIME_KEY[family]: 0.0}, dim)
    assert fld.steady
    x = np.random.default_rng(dim).uniform(0.0, 1.0, size=(40, dim))
    at0 = fld(x, 0.0).tobytes()
    for t in (1e-3, 0.37, 2.0, 1e3):
        assert fld(x, t).tobytes() == at0


def test_refused_field_values():
    # a boolean is no number, and a mode index must be an integer: 2.5 ran as mode 2
    with pytest.raises(ConfigurationError, match="got True"):
        make_field(True, 2)
    with pytest.raises(ConfigurationError, match="mode index 2.5 is not an integer"):
        make_field({"family": "modes", "coeffs": [[2.5, 1, 1.0]]}, 2)
    assert make_field({"family": "modes", "coeffs": [[2.0, 1, 1.0]]}, 2).steady


@pytest.mark.parametrize("method", ["values", "gradients"])
def test_modes_field_builds_its_table_once_per_point_set(monkeypatch, method):
    dim, tdecay, rows = 2, 2.0, [[1, 2, 0.7], [3, 1, -0.4]]
    fld = make_field({"family": "modes", "coeffs": rows, "tdecay": tdecay}, dim)
    evaluate = fld if method == "values" else fld.grad
    basis, cs = mode_basis([r[:-1] for r in rows], dim), np.array([r[-1] for r in rows])
    rng = np.random.default_rng(5)
    x, y = rng.uniform(size=(30, dim)), rng.uniform(size=(20, dim))
    moved, y_moved = x.copy(), y.copy()
    moved[3, 1] += 0.25
    y_moved[0, 0] += 0.25

    def direct(pts, t):
        decay = np.exp(-tdecay * t)
        return getattr(basis, method)(pts) @ cs * (decay if method == "values" else decay[..., None])

    times = (0.0, 0.03, 0.1)
    want = [[direct(pts, t).tobytes() for t in times] for pts in (x, moved, y, y_moved)]
    built = []
    original = getattr(EigenBasis, method)

    def counting(self, pts):
        built.append(len(pts))
        return original(self, pts)

    monkeypatch.setattr(EigenBasis, method, counting)
    for pts, expected in zip((x, moved, y), want):
        assert [evaluate(pts, t).tobytes() for t in times] == expected
    assert built == [30, 30, 20]  # one table per point set, whatever the time
    y[0, 0] += 0.25  # the last point set's array, changed in place
    assert [evaluate(y, t).tobytes() for t in times] == want[3]
    assert built == [30, 30, 20, 20]


def test_point_memo_drops_its_entry_when_the_points_are_freed():
    built = []
    at = point_memo(lambda pts: built.append(len(pts)) or pts.sum(axis=-1))
    x = np.random.default_rng(2).uniform(size=(10, 2))
    same = x.copy()
    assert at(x).tobytes() == at(same).tobytes()
    assert built == [10]  # equal bytes share the entry while x lives
    del x
    at(same)
    assert built == [10, 10]


def test_a_freed_point_memo_frees_its_table_without_the_cycle_collector():
    x = np.random.default_rng(4).uniform(size=(10, 2))
    table = np.ones(10)
    at = point_memo(lambda pts: table)
    at(x)
    freed = weakref.ref(table)
    del table
    gc.disable()
    try:
        del at
        assert freed() is None
    finally:
        gc.enable()


def _counted(fld, calls):
    """fld with every call recorded in `calls`."""
    return Field(dim=fld.dim, descriptor=fld.descriptor, steady=fld.steady,
                 _fn=lambda x, t: calls.append(float(t)) or fld(x, t))


def test_sample_field_evaluates_a_steady_field_once_read_only():
    dim, times = 2, np.linspace(0.0, 0.1, 5)
    x = np.random.default_rng(3).uniform(size=(25, dim))
    bump = {"family": "bump", "base": 0.4, "amp": 0.3, "center": [0.4, 0.6], "width": 0.2}
    calls = []
    steady = _counted(make_field(bump | {"tdecay": 0.0}, dim), calls)
    sampled = sample_field(steady, x, times)
    assert calls == [times[0]]
    assert not sampled.flags.writeable
    assert sampled.tobytes() == np.stack([steady(x, t) for t in times]).tobytes()
    calls.clear()
    moving = _counted(make_field(bump | {"tdecay": 1.0}, dim), calls)
    sample_field(moving, x, times)
    assert calls == list(times)


@pytest.mark.parametrize("gap", [0.3, 0.6])  # passes, fails the exponent gap
def test_validate_probes_one_time_slice_of_steady_data(gap):
    dim = 2
    steady = dict(
        p=make_field({"family": "affine", "base": 1.9, "slope": [0.05, -0.02]}, dim),
        q=make_field({"family": "sinusoidal", "base": 1.9 + gap, "amp": 0.1,
                      "wave": [1.0, 2.0]}, dim),
        a=make_field({"family": "bump", "base": 0.5, "amp": 0.3, "center": [0.3, 0.6]}, dim),
        b=make_field(0.5, dim))
    assert all(fld.steady for fld in steady.values())
    seen = []

    def counted(fld):
        return replace(fld, _fn=lambda x, t: seen.append(np.ndim(t)) or fld._fn(x, t))

    args = dict(dim=dim, horizon=0.3, alpha=0.9, lipschitz_probe_resolution=17,
                time_probe_resolution=9)
    report = ExponentData(**args, **{k: counted(f) for k, f in steady.items()}).validate()
    assert len(seen) == 4  # one time slice per field
    # the same fields, not marked steady, are probed at all nine times
    full = ExponentData(**args, **{k: replace(f, steady=False) for k, f in steady.items()})
    assert report.passed == (gap < 0.5)
    assert report == full.validate()
    assert report.as_dict() == full.validate().as_dict()
