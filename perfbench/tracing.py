"""Traced run: spans around the public functions of the package's modules.

Wrappers are installed from the benchmark's own files, where callers look
the function up: on every ``doublephase`` module attribute that holds the
function (so ``runner.solve`` is wrapped as well as ``galerkin.solve``), and
on the class for methods (``EigenBasis.values``, ``Field.__call__``).  A
span records name, start, end, parent and an optional count taken from the
call's arguments or result; spans stay in memory until the run ends.  Self
time is a span's duration minus the durations of its children.

Pool members forked by a sweep inherit the wrappers, but their spans stay
in the child; member numbers come from the member manifests instead.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

import numpy as np

PACKAGE = "doublephase"
MODULES = ("fields", "flux", "galerkin", "diagnostics", "spaces", "runner", "cli")
METHODS = {("fields", "Field"): ("__call__",),
           ("fields", "ExponentData"): ("validate",),
           ("galerkin", "EigenBasis"): ("values", "gradients", "hessians")}
# Private functions that carry a layer metric of their own.
PRIVATE = {("diagnostics", "_gradient_cauchy"), ("spaces", "_modular_allow_inf")}
MARK = "__perfbench_original__"

NAME, START, END, PARENT, INFO, ERROR = range(6)


def _points(x) -> int:
    return 1 if np.ndim(x) == 1 else int(np.shape(x)[0])


def _kernel_points(args, out):
    xi = args[4]
    return int(np.prod(np.shape(xi)[:-1]))


def _basis_info(args, out):
    return (_points(args[1]) * args[0].size, out.nbytes)


def _discretization(args, out):
    cfg, data = args[0], args[1]
    return (data.dim, cfg.m_per_dim, cfg.resolved_quad_order, cfg.tau, data.horizon)


def _constant_exponent(args, out):
    return bool(np.ptp(np.asarray(args[1], dtype=float)) == 0.0)


# Counts taken from a call's arguments and result, by span name.
COUNTERS = {"flux.vector_kernel": _kernel_points,
            "flux.jacobian_kernel": _kernel_points,
            "fields.Field.__call__": lambda args, out: _points(args[1]),
            "galerkin.EigenBasis.values": _basis_info,
            "galerkin.EigenBasis.gradients": _basis_info,
            "galerkin.EigenBasis.hessians": _basis_info,
            "galerkin.solve": _discretization,
            "spaces.luxemburg_norm": _constant_exponent}


class Tracer:
    """Installs the wrappers, keeps the spans, and removes the wrappers."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, out)
            return out

        setattr(wrapper, MARK, fn)
        return wrapper

    @contextmanager
    def span(self, name):
        """A span of the benchmark's own, such as one whole pass."""
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def install(self):
        mods = _modules()
        wrappers = {}
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or (mname, attr) in PRIVATE)):
                    wrappers[id(obj)] = (obj, self._wrap(f"{mname}.{attr}", obj))
        for mod in [importlib.import_module(PACKAGE)] + list(mods.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))
        for (mname, cname), meths in METHODS.items():
            cls = getattr(mods[mname], cname)
            for meth in meths:
                fn = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(f"{mname}.{cname}.{meth}", fn))
                self._patched.append((cls, meth, fn))

    def remove(self):
        """Restore every original; raise if any wrapper is still reachable."""
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()
        left = installed_wrappers()
        if left:
            raise RuntimeError(f"wrappers still installed: {', '.join(left)}")


def _modules() -> dict:
    return {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}


def installed_wrappers() -> list[str]:
    """Every package attribute that still holds a benchmark wrapper."""
    mods = _modules()
    owners = [(PACKAGE, importlib.import_module(PACKAGE))] + list(mods.items())
    owners += [(f"{m}.{c}", getattr(mods[m], c)) for m, c in METHODS]
    return [f"{label}.{attr}" for label, owner in owners
            for attr, obj in vars(owner).items() if hasattr(obj, MARK)]


# ---------------------------------------------------------------------------
# per-layer metrics


MONITORS = ("core_series", "apriori_energy_bound", "gradbound_check", "higher_integrability",
            "interpolation_ratio", "time_derivative_bound", "second_order_flux_norm",
            "linf_bound_check", "stability_experiment")


def self_times(spans) -> np.ndarray:
    dur = np.array([s[END] - s[START] for s in spans])
    child = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
    return dur - child


def layer_metrics(spans, passes: int) -> dict:
    """The named per-layer metrics, per traced pass, from the span list."""
    dur = np.array([s[END] - s[START] for s in spans])
    own = self_times(spans)
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name, arr=dur):
        return float(arr[idx(name)].sum())

    def calls(name):
        return len(idx(name))

    def info_sum(name, k=None):
        vals = [spans[i][INFO] for i in idx(name)]
        return float(sum(v if k is None else v[k] for v in vals))

    m = {}
    m["fields.validate_s"] = total("fields.ExponentData.validate")
    m["fields.eval_calls"] = calls("fields.Field.__call__")
    m["fields.eval_points"] = info_sum("fields.Field.__call__")
    m["fields.eval_self_s"] = total("fields.Field.__call__", own)
    for k in ("vector_kernel", "jacobian_kernel"):
        m[f"flux.{k}.calls"] = calls(f"flux.{k}")
        m[f"flux.{k}.points"] = info_sum(f"flux.{k}")
        m[f"flux.{k}.s"] = total(f"flux.{k}")
    m["flux.density_kernel.s"] = total("flux.density_kernel")

    basis = [f"galerkin.EigenBasis.{k}" for k in ("values", "gradients", "hessians")]
    for name in basis:
        m[f"galerkin.basis.{name.rsplit('.', 1)[1]}_s"] = total(name)
    m["galerkin.basis.point_modes"] = sum(info_sum(n, 0) for n in basis)
    m["galerkin.basis.table_mb"] = sum(info_sum(n, 1) for n in basis) / 1e6

    steps = idx("galerkin.step_implicit")
    step_set = set(steps)
    children: dict = {i: [] for i in steps}
    for i, s in enumerate(spans):
        if s[PARENT] in step_set and s[NAME] in ("flux.vector_kernel", "flux.jacobian_kernel"):
            children[s[PARENT]].append(s[NAME])
    solves = set(idx("galerkin.solve"))
    m["galerkin.solve.calls"] = len(solves)
    m["galerkin.solve.s"] = total("galerkin.solve")
    m["galerkin.solve.setup_s"] = m["galerkin.solve.s"] - float(
        sum(dur[i] for i in steps if spans[i][PARENT] in solves))
    m["galerkin.step_implicit.calls"] = len(steps)
    m["galerkin.step_implicit.self_s"] = total("galerkin.step_implicit", own)
    accepted = [i for i in steps if not spans[i][ERROR]]
    m["galerkin.steps_accepted"] = len(accepted)
    m["galerkin.step_failures"] = len(steps) - len(accepted)
    jac = {i: children[i].count("flux.jacobian_kernel") for i in steps}
    res = {i: children[i].count("flux.vector_kernel") for i in steps}
    # A halving is a residual evaluation that follows another one with no
    # Jacobian between them; the first residual of a step is the initial one.
    halvings = sum(sum(1 for a, b in zip(seq, seq[1:]) if a == b == "flux.vector_kernel")
                   for seq in children.values())
    m["galerkin.newton_iters"] = sum(jac.values())
    m["galerkin.residual_evals"] = sum(res.values())
    m["galerkin.damping_halvings"] = halvings
    useful = sum(1 + jac[i] for i in accepted)
    m["galerkin.newton_useful_ratio"] = useful / m["galerkin.residual_evals"] \
        if m["galerkin.residual_evals"] else 0.0

    for mon in MONITORS:
        m[f"diagnostics.{mon}.s"] = total(f"diagnostics.{mon}")
    m["diagnostics.gradient_cauchy.s"] = total("diagnostics._gradient_cauchy")

    lux = idx("spaces.luxemburg_norm")
    lux_set = set(lux)
    m["spaces.luxemburg_norm.calls"] = len(lux)
    m["spaces.luxemburg_norm.s"] = total("spaces.luxemburg_norm")
    m["spaces.luxemburg_norm.modular_evals"] = sum(
        1 for i in idx("spaces._modular_allow_inf") if spans[i][PARENT] in lux_set)
    for k in ("check_modular_norm_sandwich", "holder_pairing_check", "embedding_bound_check",
              "monotone_envelope_check", "composite_N"):
        m[f"spaces.{k}.s"] = total(f"spaces.{k}")
    m["spaces.pairing_G_eps.calls"] = calls("spaces.pairing_G_eps")
    m["spaces.pairing_G_eps.s"] = total("spaces.pairing_G_eps")

    m["runner.perform_run.self_s"] = total("runner.perform_run", own)
    m["runner.perform_sweep.self_s"] = total("runner.perform_sweep", own)

    per_pass = {k: v / passes for k, v in m.items() if not k.endswith("_ratio")}
    per_pass["galerkin.newton_useful_ratio"] = m["galerkin.newton_useful_ratio"]
    per_pass["share.constant_exponent_norms"] = (
        sum(1 for i in lux if spans[i][INFO]) / len(lux) if lux else 0.0)
    per_pass["share.repeated_discretization_solves"] = _repeat_share(spans, idx("galerkin.solve"))
    return per_pass


def _repeat_share(spans, solves) -> float:
    """Share of solves whose discretization an earlier solve of its pass used."""
    seen: dict = {}
    repeats = 0
    for i in solves:
        j = spans[i][PARENT]
        while j >= 0 and spans[j][NAME] != "bench.pass":
            j = spans[j][PARENT]
        keys = seen.setdefault(j, set())
        repeats += spans[i][INFO] in keys
        keys.add(spans[i][INFO])
    return repeats / len(solves) if solves else 0.0
