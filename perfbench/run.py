"""Benchmark of the doublephase package: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_unordered --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20      # every workload, one table

One run prepares the workload's inputs from ``--seed``, then repeats full
passes of the workload until ``--seconds`` have elapsed, checking every
operation of every pass (see workloads.py and reference.py).  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
traced passes first, removes the wrappers, runs untraced passes, and
reports the per-layer metrics and the tracing overhead.  Set-up time is
measured in fresh interpreters after the passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  A full record, with the environment and the
workload sizes, is written to ``perfbench/_out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("sweep_unordered", "scenario_runs", "stability_pool", "toolkit_norms")
# BLAS threads per process, for every workload.  On a 2-core machine the
# OpenBLAS default (one thread per core) left the unordered sweep's wall time
# unchanged (12.1 s against 12.3 s) while raising its CPU time from 12 to 20 s,
# which made the run sensitive to other load; one thread also keeps the
# pool's two workers from oversubscribing the cores.
BLAS_THREADS = 1
SETUP_PROBES = 3
HASH_SEED = "0"
END_TO_END = {"study_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="run one default-seed pass and store it as the reference")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing orders sets, and with it the order in which the
        # package frees large arrays; a random seed moved the sweep's peak
        # RSS between 256 and 289 MB from one run to the next.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    args = parse(sys.argv[1:])
    if not (SRC / "doublephase").is_dir() or not (ROOT / "scenarios").is_dir():
        print(f"error: run from a checkout of the repository; {SRC / 'doublephase'} "
              "or the scenarios directory is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # before numpy is imported, and inherited by pool workers and probes
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


def setup_probe(args) -> int:
    """In a fresh interpreter: import the package, load configs, make inputs."""
    t0 = time.perf_counter()
    import doublephase.cli  # noqa: F401  (imports every module of the package)
    t_import = time.perf_counter() - t0
    import workloads
    workloads.prepare(args.workload, args.seed)
    print(json.dumps({"import_s": t_import, "setup_s": time.perf_counter() - t0}))
    return 0


def run(args) -> int:
    import workloads
    import reference
    import tracing

    inputs = workloads.prepare(args.workload, args.seed)
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.write_reference:
            if args.seed != workloads.DEFAULT_SEED:
                print("error: the reference is recorded at the default seed", file=sys.stderr)
                return 2
            ops = workloads.run_pass(args.workload, inputs, work)
            bad = [op.key for op in ops if op.problems]
            if bad:
                print(f"error: operations failed: {', '.join(bad)}", file=sys.stderr)
                return 1
            print(f"wrote {reference.write(args.workload, args.seed, ops)}")
            return 0
        ref = reference.load(args.workload)
        stats = Passes(args, inputs, ref, work)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                stats.repeat(args.seconds / 2.0, traced=True, tracer=tracer)
            finally:
                tracer.remove()
        stats.repeat(args.seconds - stats.elapsed, traced=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()     # only when no other run is using it
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    probes = [probe(args) for _ in range(SETUP_PROBES)]

    metrics = {
        "study_s": stats.median("wall_s"),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(),
              "sizes": workloads.sizes(args.workload, inputs),
              "passes": stats.records, "setup_probes": probes, "end_to_end": metrics,
              "attempted": stats.attempted, "failed": stats.failed,
              "failures": stats.failures[:50], "properties": stats.properties()}
    correct = stats.failed == 0
    if args.trace:
        layers, checks = traced_metrics(stats, tracer, probes)
        record["per_layer"] = layers
        record["trace_checks"] = checks
        correct = correct and all(checks.values())
        reported = {k: (v, per_layer_unit(k)) for k, v in layers.items()}
    else:
        reported = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    record["correct"] = correct
    out = HERE / "_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    report(args, stats, metrics, record)
    print(json.dumps({"correct": correct, "attempted": stats.attempted, "failed": stats.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}}))
    return 0


class Passes:
    """Repeats full passes, judging every operation, and keeps the tallies."""

    def __init__(self, args, inputs, ref, work: Path):
        import workloads
        self.workloads = workloads
        self.args, self.inputs, self.ref, self.work = args, inputs, ref, work
        self.records: list = []     # one dict per pass
        self.attempted = self.failed = 0
        self.failures: list = []
        self.elapsed = 0.0

    def repeat(self, budget: float, traced: bool, tracer=None):
        """Passes while less than budget seconds have gone, and at least one."""
        import reference
        start = time.perf_counter()
        first = True
        while first or time.perf_counter() - start < budget:
            first = False
            cpu0, t0 = _cpu(), time.perf_counter()
            if tracer is not None:
                with tracer.span("bench.pass"):
                    ops, judged = self._one(reference)
            else:
                ops, judged = self._one(reference)
            wall = time.perf_counter() - t0
            rec = {"traced": traced, "wall_s": wall, "cpu_s": _cpu() - cpu0,
                   "artifact_bytes": self.workloads.artifact_bytes(self.work)}
            members = [op for op in ops if op.key.startswith("member:")]
            m16 = [op for op in members if op.key.startswith("member:m16_")]
            rec["member_s"] = sum(sum(op.timings.values()) for op in members)
            if self.args.workload == "sweep_unordered":
                rec["m16_share"] = sum(sum(op.timings.values()) for op in m16) / wall
                rec["m16_solve_s"] = sum(op.timings.get("solve", 0.0) for op in m16)
                rec["m16_diagnostics_s"] = sum(op.timings.get("diagnostics", 0.0) for op in m16)
            self.records.append(rec)
            self.attempted += len(judged)
            for key, problems in judged.items():
                if problems:
                    self.failed += 1
                    self.failures.append(f"{key}: {'; '.join(problems)}")
        self.elapsed += time.perf_counter() - start

    def _one(self, reference):
        ops = self.workloads.run_pass(self.args.workload, self.inputs, self.work)
        judged = reference.judge(ops, self.ref,
                                 compare_values=self.args.seed == self.workloads.DEFAULT_SEED)
        return ops, judged

    def values(self, key: str, traced: bool) -> list:
        return [r[key] for r in self.records if r["traced"] == traced and key in r]

    def median(self, key: str, traced: bool = False) -> float:
        vals = self.values(key, traced)
        return statistics.median(vals) if vals else 0.0

    def properties(self) -> dict:
        """Untraced medians of the workload properties later changes rely on."""
        if self.args.workload != "sweep_unordered":
            return {}
        return {k: self.median(k) for k in ("m16_share", "m16_solve_s", "m16_diagnostics_s")}


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def traced_metrics(stats: Passes, tracer, probes) -> tuple[dict, dict]:
    import tracing
    traced = stats.values("wall_s", True)
    n = len(traced)
    layers = tracing.layer_metrics(tracer.spans, n)
    workers = getattr(stats.inputs, "workers", 1)
    member_s = stats.median("member_s", True)
    sweep_wall = sum(s[tracing.END] - s[tracing.START] for s in tracer.spans
                     if s[tracing.NAME] == "runner.perform_sweep") / n
    layers["runner.sweep.member_s"] = member_s
    layers["runner.sweep.pool_efficiency"] = member_s / (workers * sweep_wall) if sweep_wall else 0.0
    layers["runner.cpu_s"] = stats.median("cpu_s", True)
    layers["runner.artifact_bytes"] = stats.median("artifact_bytes", True)
    layers["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    layers["share.m16_wall"] = stats.median("m16_share", True)
    layers["bench.traced_study_s"] = statistics.median(traced)
    layers["bench.trace_overhead_s"] = statistics.median(traced) - stats.median("wall_s")
    own = tracing.self_times(tracer.spans)
    outside = sum(own[i] for i, s in enumerate(tracer.spans) if s[tracing.NAME] == "bench.pass")
    layers["bench.layer_share"] = 1.0 - outside / sum(traced)
    checks = {
        # the span tree is well nested: self times are nonnegative and add
        # up to the traced pass wall time
        "self_times_account_for_wall": bool(own.min() >= -1e-9
                                            and abs(own.sum() - sum(traced)) <= 1e-3 * n),
        "wrappers_removed": not tracing.installed_wrappers(),
        "steps_identity": layers["galerkin.residual_evals"] == layers["galerkin.step_implicit.calls"]
        + layers["galerkin.newton_iters"] + layers["galerkin.damping_halvings"],
    }
    return layers, checks


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_efficiency", "_share")) or name.startswith("share."):
        return "ratio"
    return "count"


def probe(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas": numpy.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
            "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "caches": caches(), "src_lines": src_lines()}


def blas_threads() -> dict:
    """Threads each loaded OpenBLAS library will use, by library file name."""
    import ctypes
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def high_percentile(values):
    """The highest percentile with at least ten samples above it, or None."""
    n = len(values)
    pct = int(100 * (1 - 10 / n)) if n else 0
    if pct <= 50:
        return None
    return pct, statistics.quantiles(values, n=100)[pct - 1]


def report(args, stats: Passes, metrics: dict, record: dict):
    untraced = stats.values("wall_s", False)
    hp = high_percentile(untraced)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes "
          f"{len(untraced)} untraced, {len(stats.values('wall_s', True))} traced")
    print(f"study_s      {metrics['study_s']:.4f} s   median of {len(untraced)} passes"
          + (f", p{hp[0]} {hp[1]:.4f} s" if hp else ""))
    print(f"setup_s      {metrics['setup_s']:.4f} s   median of {SETUP_PROBES} fresh interpreters")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB  workload process + largest child")
    print(f"failed_frac  {stats.failed / max(stats.attempted, 1):.4g}     "
          f"{stats.failed} of {stats.attempted} operations failed")
    for line in stats.failures[:10]:
        print(f"  FAILED {line}")
    for k, v in record["properties"].items():
        print(f"{k:12s} {v:.4f}")
    if "per_layer" in record:
        for k, v in record["per_layer"].items():
            print(f"  {k:44s} {v:.6g} {per_layer_unit(k)}")
        print(f"trace checks: {record['trace_checks']}")
    env = record["environment"]
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"OpenBLAS {env['openblas']}, BLAS threads {env['blas_threads']}, "
          f"nproc {env['nproc']}, caches {env['caches']}, src lines {env['src_lines']}")
    print(f"sizes: {json.dumps(record['sizes'])}")


def run_all(args) -> int:
    """Every workload in turn, one table of the metrics by name and unit."""
    rows = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        if done.returncode != 0:
            print(f"{workload}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        rows.append((workload, result))
    for workload, result in rows:
        print(f"{workload}  correct={result['correct']}")
        for name, m in result["metrics"].items():
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
        frac = result["failed"] / result["attempted"]
        print(f"  {'failed_frac':44s} {frac:.6g} ratio ({result['failed']} of {result['attempted']})")
    return 0 if all(r["correct"] for _, r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
