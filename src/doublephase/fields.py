"""Problem data for the double-phase parabolic operator.

The flux is ``a(z)|grad u|^(p(z)-2) + b(z)|grad u|^(q(z)-2)`` on the cylinder
``[0,1]^N x [0,T]``.  This module holds the coefficient/exponent fields
(p, q, a, b) and validates the structural assumptions they must satisfy
(exponent floor, coercivity of a+b, gap between p and q).

Fields are built from a small set of parametric families selected by config
descriptors, so a run is fully reproducible from its config file.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Optional

import numpy as np


class ConfigurationError(Exception):
    """A field descriptor or run config cannot be realized."""


class ValidationError(Exception):
    """A structural assumption on the data fails at some probe node."""


def _as_points(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    return x


@dataclass(frozen=True)
class Field:
    """Scalar field on [0,1]^N x [0,T], evaluable at arrays of points.

    ``field(x, t)`` takes ``x`` of shape (M, N) (a single point is accepted
    as shape (N,)) and ``t`` scalar or shape (M,), and returns shape (M,);
    ``field.grad(x, t)`` returns the exact spatial gradient, shape (M, N).
    A ``steady`` field takes the same values at every t, bit for bit, so
    `sample_field` evaluates it once for many times.  A call returns a fresh array.
    """

    dim: int
    descriptor: Mapping
    _fn: Callable = field(repr=False)
    _grad: Optional[Callable] = field(default=None, repr=False)
    steady: bool = False

    def __call__(self, x, t) -> np.ndarray:
        x = _as_points(x)
        out = np.asarray(self._fn(x, np.asarray(t, dtype=float)), dtype=float)
        return np.broadcast_to(out, x.shape[:1]).copy() if out.ndim == 0 else out

    def grad(self, x, t) -> np.ndarray:
        """Spatial gradient at points x, (M, N); only the make_field families have one."""
        if self._grad is None:
            raise NotImplementedError(
                f"field family {self.descriptor.get('family')!r} has no closed-form gradient")
        return self._grad(_as_points(x), np.asarray(t, dtype=float))

    def __reduce__(self):
        # pickles as its descriptor; a family make_field does not know fails at unpickle
        return make_field, (dict(self.descriptor), self.dim)


def sample_field(fld, x, t) -> np.ndarray:
    """fld at points x: (M,) for a scalar t, (K, M) for K times, one time at a time.

    A steady field is evaluated once, at the first time, and broadcast over the
    times: a read-only view, which a caller that writes into it must copy.
    """
    if np.ndim(t) == 0:
        return fld(x, t)
    if fld.steady:
        once = fld(x, t[0])
        return np.broadcast_to(once, (len(t),) + once.shape)
    return np.stack([fld(x, tk) for tk in t], axis=0)


def point_memo(build: Callable) -> Callable:
    """build(x) memoized for the last point set x (M, N), keyed by its shape and bytes.

    The key and its value are stored and read as one tuple, so a key is
    never paired with another point set's value.  The entry is dropped when
    the array x is freed, so that a long-lived field keeps no table of a
    point set nobody holds.
    """
    entry = (None, None)

    def drop(_):
        nonlocal entry
        entry = (None, None)

    def at(x):
        nonlocal entry
        key = (x.shape, x.tobytes())
        last = entry
        if last[0] != key:
            # a replaced entry takes its weak reference along, so that
            # reference's callback can no longer drop the new entry
            last = entry = (key, build(x), weakref.ref(x, drop))
        return last[1]

    return at


def tensor_points(axis, dim: int) -> np.ndarray:
    """Tensor lattice axis^dim as (len(axis)^dim, dim) points, first axis slowest."""
    mesh = np.meshgrid(*([np.asarray(axis, dtype=float)] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def lattice_axis(n: int) -> np.ndarray:
    """n uniform nodes on [0, 1], both ends included: the axis of every uniform lattice."""
    return np.linspace(0.0, 1.0, n)


def lattice_points(dim: int, n: int) -> np.ndarray:
    """Uniform lattice of n^dim points on the closed unit box."""
    return tensor_points(lattice_axis(n), dim)


def tensor_axis(nodes, dim: int) -> np.ndarray:
    """The axis of nodes = tensor_points(axis, dim); the inverse of tensor_points.

    Raises ValueError when the nodes are no tensor lattice in that order.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = round(nodes.shape[0] ** (1.0 / dim))
    axis = nodes[:n, -1]  # the last coordinate varies fastest
    if not np.array_equal(tensor_points(axis, dim), nodes):
        raise ValueError("nodes are not a tensor lattice in tensor_points order")
    return axis


# The complete parameter set of each family; make_field refuses any other key.
_FAMILY_KEYS = {"constant": ("value",), "affine": ("base", "slope", "tslope"),
                "sinusoidal": ("base", "amp", "wave", "phase", "tfreq"),
                "bump": ("base", "amp", "center", "width", "tdecay"),
                "modes": ("coeffs", "tdecay"), "bubble": ("amp", "tdecay")}
# The time parameter of each family but the constant one.  At 0 the time
# term is exactly 0.0 or the time factor exactly 1.0, so the field is steady.
_TIME_KEY = {"affine": "tslope", "sinusoidal": "tfreq", "bump": "tdecay",
             "modes": "tdecay", "bubble": "tdecay"}


def integer(value, key: str) -> int:
    """`value` as an int, refused unless integral: `int` alone runs 2.5 as 2 and `true` as 1."""
    try:
        if not isinstance(value, bool) and (isinstance(value, str) or int(value) == value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{key} {value!r} is not an integer")


def make_field(spec, dim: int) -> Field:
    """Build a Field, with its exact spatial gradient, from a config descriptor.

    A bare number is shorthand for the constant family.  Supported families,
    each with the complete set of parameters it accepts (any other key is a
    ConfigurationError):

    constant     value
    affine       base, slope (length-N), tslope
    sinusoidal   base, amp, wave (length-N), phase, tfreq
                 -> base + amp*sin(pi*(wave.x) + phase)*cos(pi*tfreq*t)
    bump         base, amp, center (length-N), width, tdecay
                 -> base + amp*exp(-|x-center|^2/(2 width^2))*exp(-tdecay*t)
    modes        coeffs ([k_1..k_N, value] rows), tdecay
                 -> sum of value*phi_k(x), all damped by exp(-tdecay*t)
    bubble       amp, tdecay -> amp * prod_i x_i(1-x_i) * exp(-tdecay*t)
    """
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        spec = {"family": "constant", "value": float(spec)}
    if not isinstance(spec, Mapping):
        raise ConfigurationError(f"field descriptor must be a number or mapping, got {spec!r}")
    fam = spec.get("family")
    if not isinstance(fam, str) or fam not in _FAMILY_KEYS:
        raise ConfigurationError(f"unknown field family {fam!r}")
    p = dict(spec)
    unknown = [k for k in p if k != "family" and k not in _FAMILY_KEYS[fam]]
    if unknown:
        raise ConfigurationError(f"family '{fam}' has no parameter(s) {unknown}; "
                                 f"it takes {list(_FAMILY_KEYS[fam])}")

    def need(key, default=None):
        if default is None and key not in p:
            raise ConfigurationError(f"family '{fam}' needs parameter '{key}'")
        return p.get(key, default)

    if fam == "constant":
        v = float(need("value"))
        fn = lambda x, t: np.full(x.shape[0], v)
        grad = lambda x, t: np.zeros(x.shape)
    elif fam == "affine":
        base = float(need("base"))
        slope = np.asarray(need("slope", [0.0] * dim), dtype=float)
        tslope = float(need("tslope", 0.0))
        if slope.shape != (dim,):
            raise ConfigurationError(f"affine slope must have length {dim}")
        fn = lambda x, t: base + x @ slope + tslope * t
        grad = lambda x, t: np.tile(slope, (x.shape[0], 1))
    elif fam == "sinusoidal":
        base = float(need("base"))
        amp = float(need("amp"))
        wave = np.asarray(need("wave", [1.0] * dim), dtype=float)
        phase = float(need("phase", 0.0))
        tfreq = float(need("tfreq", 0.0))
        if wave.shape != (dim,):
            raise ConfigurationError(f"sinusoidal wave must have length {dim}")
        fn = lambda x, t: base + amp * np.sin(np.pi * (x @ wave) + phase) * np.cos(np.pi * tfreq * t)
        grad = lambda x, t: (amp * np.pi * np.cos(np.pi * (x @ wave) + phase)
                             * np.cos(np.pi * tfreq * t))[:, None] * wave
    elif fam == "bump":
        base = float(need("base", 0.0))
        amp = float(need("amp"))
        center = np.asarray(need("center", [0.5] * dim), dtype=float)
        width = float(need("width", 0.15))
        tdecay = float(need("tdecay", 0.0))
        if center.shape != (dim,):
            raise ConfigurationError(f"bump center must have length {dim}")
        if width <= 0:
            raise ConfigurationError("bump width must be positive")
        bump = lambda x, t: amp * np.exp(
            -np.sum((x - center) ** 2, axis=-1) / (2.0 * width ** 2)) * np.exp(-tdecay * t)
        fn = lambda x, t: base + bump(x, t)
        grad = lambda x, t: bump(x, t)[:, None] * (center - x) / width ** 2
    elif fam == "modes":
        rows = need("coeffs")
        tdecay = float(need("tdecay", 0.0))
        try:
            ks = [tuple(integer(v, "mode index") for v in row[:-1]) for row in rows]
            cs = [float(row[-1]) for row in rows]
        except (TypeError, ValueError, IndexError, OverflowError) as exc:
            raise ConfigurationError(f"modes coeffs rows must be [k_1..k_N, value]: {exc}")
        for k in ks:
            if len(k) != dim or any(ki < 1 for ki in k):
                raise ConfigurationError(f"mode index {k} invalid for dim {dim}")

        from .galerkin import mode_basis  # galerkin imports this module
        basis, cs = mode_basis(ks, dim), np.asarray(cs)
        # the time-free sums, once per point set; a call scales a fresh copy
        values = point_memo(lambda x: basis.values(x) @ cs)
        grads = point_memo(lambda x: basis.gradients(x) @ cs)
        fn = lambda x, t: values(x) * np.exp(-tdecay * t)
        grad = lambda x, t: grads(x) * np.exp(-tdecay * t)[..., None]
    else:  # bubble
        amp = float(need("amp"))
        tdecay = float(need("tdecay", 0.0))
        fn = lambda x, t: amp * np.prod(x * (1.0 - x), axis=-1) * np.exp(-tdecay * t)
        grad = lambda x, t: (amp * np.exp(-tdecay * t))[..., None] * (1.0 - 2.0 * x) * np.stack(
            [np.prod(np.delete(x * (1.0 - x), d, axis=-1), axis=-1) for d in range(dim)], axis=-1)
    steady = fam == "constant" or float(need(_TIME_KEY[fam], 0.0)) == 0.0
    return Field(dim=dim, descriptor=dict(spec), _fn=fn, _grad=grad, steady=steady)


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    value: float
    threshold: float
    worst_node: tuple
    description: str

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": float(self.value),
            "threshold": float(self.threshold),
            "worst_node": [float(v) for v in self.worst_node],
            "description": self.description,
        }


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple
    lipschitz: Mapping

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self):
        return [c.name for c in self.checks if not c.passed]

    def raise_if_failed(self):
        if not self.passed:
            bad = ", ".join(self.failed_names())
            raise ValidationError(f"data violates condition(s): {bad}")

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
            "lipschitz": {k: float(v) for k, v in self.lipschitz.items()},
        }


# Strictness margin for float-boundary comparisons in validate().
STRICT_MARGIN = 1e-9


@dataclass(frozen=True)
class ExponentData:
    """The data of the problem: exponents, coefficients, domain, horizon.

    Immutable; all evaluations are pure, so one instance is shared by every
    member of a sweep, and the validation report is computed once per
    instance (`report`) and pickles with it.
    """

    dim: int
    horizon: float
    p: Field
    q: Field
    a: Field
    b: Field
    alpha: float
    lipschitz_probe_resolution: int = 65
    time_probe_resolution: int = 33

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigurationError(f"space dimension must be 1 or 2, got {self.dim}")
        if not 0 < self.horizon < np.inf:
            raise ConfigurationError(f"horizon {self.horizon} must be positive and finite")
        if not (self.alpha > 0):
            raise ConfigurationError("coercivity floor alpha must be positive")
        if self.lipschitz_probe_resolution < 2 or self.time_probe_resolution < 1:
            raise ConfigurationError("lipschitz_probe_resolution must be at least 2 and "
                                     "time_probe_resolution at least 1")

    @property
    def steady(self) -> bool:
        """Whether a, b, p and q all take the same values at every t."""
        return all(fld.steady for fld in (self.a, self.b, self.p, self.q))

    @property
    def exponent_floor(self) -> float:
        """Lower admissibility threshold 2N/(N+2) for both exponents."""
        return 2.0 * self.dim / (self.dim + 2.0)

    @property
    def r_sharp(self) -> float:
        return 4.0 / (self.dim + 2.0)

    @property
    def r_star(self) -> float:
        return 2.0 / (self.dim + 2.0)

    def sample(self, x, t):
        """(a, b, p, q) at points x: (M,) arrays for a scalar t, (K, M) for K times."""
        return tuple(sample_field(fld, x, t) for fld in (self.a, self.b, self.p, self.q))

    def probe_lattice(self):
        """Uniform probe lattice on [0,1]^N x [0,T] used by validate()."""
        x = lattice_points(self.dim, self.lipschitz_probe_resolution)
        times = np.linspace(0.0, self.horizon, self.time_probe_resolution)
        return x, times

    def _probe_values(self):
        x, times = self.probe_lattice()
        if self.steady:
            # every slice equals the first: the time slope is 0, and the first
            # worst node of the cube lies in the slice at t = 0
            times = times[:1]
        vals = dict(zip("abpq", self.sample(x, times)))  # (Kt, M) each
        for name in "pqab":
            if not np.all(np.isfinite(vals[name])):
                raise ConfigurationError(f"field '{name}' is not finite on the probe lattice")
        return x, times, vals

    @cached_property
    def report(self) -> ValidationReport:
        """validate(), once: the data are frozen and validate() is pure."""
        return self.validate()

    def validate(self) -> ValidationReport:
        """Check every structural assumption on a probe lattice.

        Reports, per condition, the worst-case probe node and the margin, and
        estimates the Lipschitz constants of all four fields by finite
        differences.  Strict inequalities carry a margin of 1e-9 to avoid
        float-boundary ambiguity.
        """
        x, times, vals = self._probe_values()
        p, q, a, b = vals["p"], vals["q"], vals["a"], vals["b"]
        checks = []

        def node_of(flat_index) -> tuple:
            it, ix = np.unravel_index(flat_index, p.shape)
            return tuple(x[ix]) + (times[it],)

        floor = self.exponent_floor
        # name, the probe values (formed one row at a time), the worst-node
        # rule, the pass rule, the threshold, the description
        rows = (
            ("exponent_floor", lambda: np.minimum(p, q), np.argmin,
             lambda v: v >= floor + STRICT_MARGIN, floor,
             "min(p,q) must exceed 2N/(N+2) everywhere"),
            ("coefficient_sign", lambda: np.minimum(a, b), np.argmin,
             lambda v: v >= -0.0, 0.0, "a and b must be nonnegative"),
            ("coercivity_floor", lambda: a + b, np.argmin,
             lambda v: v >= self.alpha - STRICT_MARGIN, self.alpha,
             "a + b must stay above the coercivity floor alpha"),
            ("exponent_gap", lambda: np.abs(p - q), np.argmax,
             lambda v: v <= self.r_star - STRICT_MARGIN, self.r_star,
             "|p - q| must stay below 2/(N+2) everywhere"),
        )
        for name, values, worst, holds, threshold, description in rows:
            arr = values()
            i = int(worst(arr))
            checks.append(ConditionCheck(name=name, passed=bool(holds(arr.flat[i])),
                                         value=float(arr.flat[i]), threshold=threshold,
                                         worst_node=node_of(i), description=description))

        lip = {}
        hx = 1.0 / (self.lipschitz_probe_resolution - 1)
        ht = self.horizon / max(self.time_probe_resolution - 1, 1)
        shape = (len(times),) + (self.lipschitz_probe_resolution,) * self.dim
        for name in ("p", "q", "a", "b"):
            cube = vals[name].reshape(shape)
            slopes = [np.abs(np.diff(cube, axis=0)).max() / ht if cube.shape[0] > 1 else 0.0]
            for ax in range(1, 1 + self.dim):
                slopes.append(np.abs(np.diff(cube, axis=ax)).max() / hx)
            lip[name] = float(max(slopes))
        lip["pq"] = max(lip["p"], lip["q"])
        lip["ab"] = max(lip["a"], lip["b"])
        finite = all(math.isfinite(v) for v in lip.values())
        checks.append(ConditionCheck(
            name="lipschitz_finite",
            passed=finite,
            value=float(max(lip.values())),
            threshold=math.inf,
            worst_node=(),
            description="finite-difference Lipschitz estimates must be finite",
        ))

        return ValidationReport(checks=tuple(checks), lipschitz=lip)

