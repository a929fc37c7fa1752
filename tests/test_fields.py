import numpy as np
import pytest

from doublephase.fields import (
    ConfigurationError, ExponentData, ValidationError, derive, make_field, tensor_axis,
    tensor_points,
)


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


def test_derive_equal_exponents_collapse():
    data = constant_data(p=2.0, q=2.0)
    der = derive(data)
    x = np.array([[0.3, 0.7], [0.5, 0.5]])
    assert np.allclose(der.s_lower(x, 0.05), 2.0)
    assert np.allclose(der.s_upper(x, 0.05), 2.0)
    assert np.allclose(der.r1(x, 0.05), der.r_sharp)
    assert np.allclose(der.r2(x, 0.05), der.r_sharp)


def test_derive_affine_exponent_fields():
    # p = 2 + 0.2 x1, q = 2: s_lower = 2, r1 = r_sharp - 0.2 x1 pointwise
    dim = 2
    data = ExponentData(
        dim=dim, horizon=0.1,
        p=make_field({"family": "affine", "base": 2.0, "slope": [0.2, 0.0]}, dim),
        q=make_field(2.0, dim),
        a=make_field(0.5, dim), b=make_field(0.5, dim), alpha=0.9,
        lipschitz_probe_resolution=17, time_probe_resolution=3,
    )
    der = derive(data)
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, size=(50, 2))
    assert np.allclose(der.s_lower(x, 0.0), 2.0)
    assert np.allclose(der.r1(x, 0.0), der.r_sharp - 0.2 * x[:, 0], atol=1e-14)
    # defining identity: p + r1 = s_lower + r_sharp = q + r2 to machine precision
    for t in (0.0, 0.05, 0.1):
        lhs1 = data.p(x, t) + der.r1(x, t)
        lhs2 = data.q(x, t) + der.r2(x, t)
        mid = der.s_lower(x, t) + der.r_sharp
        assert np.allclose(lhs1, mid, atol=1e-14)
        assert np.allclose(lhs2, mid, atol=1e-14)


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
    der = derive(data)
    x, times = data.probe_lattice()
    for t in times[::8]:
        floor = der.r_sharp - der.r_star
        assert np.all(der.r1(x, t) >= floor - 1e-12)
        assert np.all(der.r2(x, t) >= floor - 1e-12)
        assert np.all(2.0 * (der.s_upper(x, t) - der.s_lower(x, t)) < der.r_sharp)


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


def test_derive_refuses_invalid_data():
    with pytest.raises(ValidationError):
        derive(constant_data(p=2.0, q=2.6))


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
    with pytest.raises(ConfigurationError):
        ExponentData(dim=3, horizon=0.1, p=make_field(2.0, 3), q=make_field(2.0, 3),
                     a=make_field(0.5, 3), b=make_field(0.5, 3), alpha=0.9)


def test_nonfinite_field_is_configuration_error():
    dim = 1
    bad = make_field(2.0, dim)
    object.__setattr__(bad, "_fn", lambda x, t: np.full(x.shape[0], np.nan))
    data = ExponentData(dim=dim, horizon=0.1, p=bad, q=make_field(2.0, dim),
                        a=make_field(0.5, dim), b=make_field(0.5, dim), alpha=0.9,
                        lipschitz_probe_resolution=9, time_probe_resolution=3)
    with pytest.raises(ConfigurationError, match="not finite"):
        data.validate()
