"""Problem data for the double-phase parabolic operator.

The flux is ``a(z)|grad u|^(p(z)-2) + b(z)|grad u|^(q(z)-2)`` on the cylinder
``[0,1]^N x [0,T]``.  This module holds the coefficient/exponent fields
(p, q, a, b), validates the structural assumptions they must satisfy
(exponent floor, coercivity of a+b, gap between p and q), and derives the
secondary exponent fields built from them (pointwise min/max, the shifted
exponents used by the interpolation diagnostics).

Fields are built from a small set of parametric families selected by config
descriptors, so a run is fully reproducible from its config file.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

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
    as shape (N,)) and ``t`` scalar or shape (M,), and returns shape (M,).
    """

    dim: int
    descriptor: Mapping
    _fn: Callable = field(repr=False)

    def __call__(self, x, t) -> np.ndarray:
        x = _as_points(x)
        out = np.asarray(self._fn(x, np.asarray(t, dtype=float)), dtype=float)
        return np.broadcast_to(out, x.shape[:1]).copy() if out.ndim == 0 else out


def sample_field(fld, x, t) -> np.ndarray:
    """fld at points x: (M,) for a scalar t, (K, M) for K times, one time at a time."""
    if np.ndim(t) == 0:
        return fld(x, t)
    return np.stack([fld(x, tk) for tk in t], axis=0)


def tensor_points(axis, dim: int) -> np.ndarray:
    """Tensor lattice axis^dim as (len(axis)^dim, dim) points, first axis slowest."""
    mesh = np.meshgrid(*([np.asarray(axis, dtype=float)] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


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


def make_field(spec, dim: int) -> Field:
    """Build a Field from a config descriptor.

    A bare number is shorthand for the constant family.  Supported families:

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
    if isinstance(spec, (int, float)):
        spec = {"family": "constant", "value": float(spec)}
    if not isinstance(spec, Mapping):
        raise ConfigurationError(f"field descriptor must be a number or mapping, got {spec!r}")
    fam = spec.get("family")
    p = dict(spec)

    def need(key, default=None):
        if default is None and key not in p:
            raise ConfigurationError(f"family '{fam}' needs parameter '{key}'")
        return p.get(key, default)

    if fam == "constant":
        v = float(need("value"))
        fn = lambda x, t: np.full(x.shape[0], v)
    elif fam == "affine":
        base = float(need("base"))
        slope = np.asarray(need("slope", [0.0] * dim), dtype=float)
        tslope = float(need("tslope", 0.0))
        if slope.shape != (dim,):
            raise ConfigurationError(f"affine slope must have length {dim}")
        fn = lambda x, t: base + x @ slope + tslope * t
    elif fam == "sinusoidal":
        base = float(need("base"))
        amp = float(need("amp"))
        wave = np.asarray(need("wave", [1.0] * dim), dtype=float)
        phase = float(need("phase", 0.0))
        tfreq = float(need("tfreq", 0.0))
        if wave.shape != (dim,):
            raise ConfigurationError(f"sinusoidal wave must have length {dim}")
        fn = lambda x, t: base + amp * np.sin(np.pi * (x @ wave) + phase) * np.cos(np.pi * tfreq * t)
    elif fam == "bump":
        base = float(need("base", 0.0))
        amp = float(need("amp"))
        center = np.asarray(need("center", [0.5] * dim), dtype=float)
        width = float(need("width", 0.15))
        tdecay = float(need("tdecay", 0.0))
        if width <= 0:
            raise ConfigurationError("bump width must be positive")
        fn = lambda x, t: base + amp * np.exp(
            -np.sum((x - center) ** 2, axis=-1) / (2.0 * width ** 2)
        ) * np.exp(-tdecay * t)
    elif fam == "modes":
        rows = need("coeffs")
        tdecay = float(need("tdecay", 0.0))
        try:
            ks = [tuple(int(v) for v in row[:-1]) for row in rows]
            cs = [float(row[-1]) for row in rows]
        except (TypeError, ValueError, IndexError) as exc:
            raise ConfigurationError(f"modes coeffs rows must be [k_1..k_N, value]: {exc}")
        for k in ks:
            if len(k) != dim or any(ki < 1 for ki in k):
                raise ConfigurationError(f"mode index {k} invalid for dim {dim}")

        from .galerkin import mode_basis  # galerkin imports this module
        basis, cs = mode_basis(ks, dim), np.asarray(cs)
        fn = lambda x, t: (basis.values(x) @ cs) * np.exp(-tdecay * t)
    elif fam == "bubble":
        amp = float(need("amp"))
        tdecay = float(need("tdecay", 0.0))
        fn = lambda x, t: amp * np.prod(x * (1.0 - x), axis=-1) * np.exp(-tdecay * t)
    else:
        raise ConfigurationError(f"unknown field family {fam!r}")
    return Field(dim=dim, descriptor=dict(spec), _fn=fn)


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

    Immutable; all evaluations are pure, so instances are safe to share
    across workers.
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
        if not (self.horizon > 0):
            raise ConfigurationError("horizon must be positive")
        if not (self.alpha > 0):
            raise ConfigurationError("coercivity floor alpha must be positive")

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
        x = tensor_points(np.linspace(0.0, 1.0, self.lipschitz_probe_resolution), self.dim)
        times = np.linspace(0.0, self.horizon, self.time_probe_resolution)
        return x, times

    def _probe_values(self):
        x, times = self.probe_lattice()
        vals = dict(zip("abpq", self.sample(x, times)))  # (Kt, M) each
        for name in "pqab":
            if not np.all(np.isfinite(vals[name])):
                raise ConfigurationError(f"field '{name}' is not finite on the probe lattice")
        return x, times, vals

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
        m = np.minimum(p, q)
        i = int(np.argmin(m))
        checks.append(ConditionCheck(
            name="exponent_floor",
            passed=bool(m.flat[i] >= floor + STRICT_MARGIN),
            value=float(m.flat[i]),
            threshold=floor,
            worst_node=node_of(i),
            description="min(p,q) must exceed 2N/(N+2) everywhere",
        ))

        j = int(np.argmin(np.minimum(a, b)))
        checks.append(ConditionCheck(
            name="coefficient_sign",
            passed=bool(np.minimum(a, b).flat[j] >= -0.0),
            value=float(np.minimum(a, b).flat[j]),
            threshold=0.0,
            worst_node=node_of(j),
            description="a and b must be nonnegative",
        ))

        s = a + b
        k = int(np.argmin(s))
        checks.append(ConditionCheck(
            name="coercivity_floor",
            passed=bool(s.flat[k] >= self.alpha - STRICT_MARGIN),
            value=float(s.flat[k]),
            threshold=self.alpha,
            worst_node=node_of(k),
            description="a + b must stay above the coercivity floor alpha",
        ))

        gap = np.abs(p - q)
        g = int(np.argmax(gap))
        checks.append(ConditionCheck(
            name="exponent_gap",
            passed=bool(gap.flat[g] <= self.r_star - STRICT_MARGIN),
            value=float(gap.flat[g]),
            threshold=self.r_star,
            worst_node=node_of(g),
            description="|p - q| must stay below 2/(N+2) everywhere",
        ))

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


@dataclass(frozen=True)
class DerivedExponents:
    """Secondary exponent fields derived from validated data.

    s_lower/s_upper are the pointwise min/max of p and q; r1 and r2 are the
    shift exponents ``s_lower + r_sharp - p`` and ``s_lower + r_sharp - q``
    used by the higher-integrability diagnostics.
    """

    data: ExponentData
    r_sharp: float
    r_star: float

    def s_lower(self, x, t):
        return np.minimum(self.data.p(x, t), self.data.q(x, t))

    def s_upper(self, x, t):
        return np.maximum(self.data.p(x, t), self.data.q(x, t))

    def r1(self, x, t):
        return self.s_lower(x, t) + self.r_sharp - self.data.p(x, t)

    def r2(self, x, t):
        return self.s_lower(x, t) + self.r_sharp - self.data.q(x, t)


def derive(data: ExponentData) -> DerivedExponents:
    """Validate the data and return the derived exponent fields."""
    data.validate().raise_if_failed()
    return DerivedExponents(data=data, r_sharp=data.r_sharp, r_star=data.r_star)
