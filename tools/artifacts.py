"""Digest every bundled scenario's artifacts, and compare two checkouts' outputs.

Usage (from any directory):

    python tools/artifacts.py OUTDIR
    python tools/artifacts.py --compare BEFORE AFTER

The first form runs ``doublephase run`` on each scenario under
``scenarios/`` and ``doublephase sweep`` on each scenario with a top-level
``sweep:`` block, all with ``--workers 1`` and one BLAS thread, writing into
OUTDIR/run/<name> and OUTDIR/sweep/<name>.  Then it writes OUTDIR/digest.json
with the BLAS thread count, the exit code of every command, the sha256 of
every CSV, and the sha256 of every manifest with its wall-clock ``timings``
removed.  The package is imported from the ``src/`` next to this script, so
two checkouts compare with one run of the script in each and one ``diff`` of
the two digests.  The thread count sets the order of BLAS sums, and with it
the last bits of the m_per_dim = 16 sweep members' CSVs.

Where the arithmetic changes, the digests differ and ``--compare`` reads
the two output directories instead.  It reports every exit code that
differs, every check whose name or verdict differs (from the manifests),
and per CSV column the worst |after - before| divided by the column's
largest |value|.  It exits 1 when an exit code, a check, a file's presence
or a non-numeric cell differs, or a column deviates by more than 1e-9.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOLERANCE = 1e-9
BLAS_THREADS = 1


def _has_sweep(path: Path) -> bool:
    return any(line.startswith("sweep:") for line in path.read_text().splitlines())


def _manifest_digest(path: Path) -> str:
    manifest = json.loads(path.read_text())
    manifest.pop("timings", None)
    text = json.dumps(manifest, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digest(out: Path) -> int:
    # read by OpenBLAS when numpy is first imported, which is below
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    from doublephase import cli

    scenarios = sorted((ROOT / "scenarios").glob("*.yaml"))
    commands = [("run", s) for s in scenarios]
    commands += [("sweep", s) for s in scenarios if _has_sweep(s)]

    exit_codes = {}
    for verb, scenario in commands:
        target = out / verb / scenario.stem
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([verb, str(scenario), "--outdir", str(target), "--workers", "1"])
        exit_codes[f"{verb}/{scenario.stem}"] = code
        print(f"{verb} {scenario.stem}: exit {code}")

    files = {}
    for path in sorted(out.rglob("*")):
        key = path.relative_to(out).as_posix()
        if path.suffix == ".csv":
            files[key] = hashlib.sha256(path.read_bytes()).hexdigest()
        elif path.name == "manifest.json":
            files[key] = _manifest_digest(path)
    record = {"blas_threads": BLAS_THREADS, "exit_codes": exit_codes, "files": files}
    (out / "digest.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{len(files)} files digested into {out / 'digest.json'}")
    return 0


def _relative_files(root: Path, pattern: str) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob(pattern)}


def _checks(path: Path) -> list:
    return [(c["name"], c["passed"]) for c in json.loads(path.read_text()).get("checks", [])]


def _column_deviations(before: Path, after: Path):
    """Per column, worst |after - before| over the column's max |value|.

    Returns (deviations by column name, problems); a problem is a header,
    row-count or non-numeric cell that differs.
    """
    rows_b = list(csv.reader(before.read_text().splitlines()))
    rows_a = list(csv.reader(after.read_text().splitlines()))
    if rows_b[:1] != rows_a[:1] or len(rows_b) != len(rows_a):
        return {}, ["header or row count differs"]
    header, problems, out = rows_b[0], [], {}
    for col, name in enumerate(header):
        worst = scale = 0.0
        for line, (rb, ra) in enumerate(zip(rows_b[1:], rows_a[1:]), start=2):
            cb, ca = rb[col], ra[col]
            try:
                vb, va = float(cb), float(ca)
            except ValueError:
                if cb != ca:
                    problems.append(f"line {line}, {name}: {cb!r} != {ca!r}")
                continue
            scale = max([scale] + [abs(v) for v in (vb, va) if math.isfinite(v)])
            if cb != ca:  # equal cells, non-finite ones too, deviate by 0
                diff = abs(va - vb)
                worst = max(worst, diff if math.isfinite(diff) else math.inf)
        out[name] = 0.0 if not worst else (worst / scale if scale else math.inf)
    return out, problems


def compare(before: Path, after: Path) -> int:
    failures = []
    codes_b = json.loads((before / "digest.json").read_text())["exit_codes"]
    codes_a = json.loads((after / "digest.json").read_text())["exit_codes"]
    for key in sorted(codes_b.keys() | codes_a.keys()):
        if codes_b.get(key) != codes_a.get(key):
            failures.append(f"exit code {key}: {codes_b.get(key)} -> {codes_a.get(key)}")

    for pattern in ("manifest.json", "*.csv"):
        files_b, files_a = _relative_files(before, pattern), _relative_files(after, pattern)
        failures += [f"only in {before}: {key}" for key in sorted(files_b - files_a)]
        failures += [f"only in {after}: {key}" for key in sorted(files_a - files_b)]

    manifests = _relative_files(before, "manifest.json") & _relative_files(after, "manifest.json")
    for key in sorted(manifests):
        checks_b, checks_a = _checks(before / key), _checks(after / key)
        if checks_b != checks_a:
            failures.append(f"checks {key}: {checks_b} -> {checks_a}")

    worst = (0.0, "")
    for key in sorted(_relative_files(before, "*.csv") & _relative_files(after, "*.csv")):
        deviations, problems = _column_deviations(before / key, after / key)
        failures += [f"{key}: {p}" for p in problems]
        for name, dev in deviations.items():
            if dev > 0.0:
                print(f"{key} {name}: {dev:.3g}")
            if dev > TOLERANCE:
                failures.append(f"{key} {name}: deviation {dev:.3g} > {TOLERANCE:g}")
            if dev > worst[0]:
                worst = (dev, f"{key} {name}")

    for line in failures:
        print(f"MISMATCH {line}")
    print(f"worst column deviation {worst[0]:.3g}" + (f" ({worst[1]})" if worst[1] else ""))
    print("identical within tolerance" if not failures else f"{len(failures)} mismatches")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("outdir", nargs="?", type=Path, help="directory to write and digest")
    group.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"),
                       help="compare two digested output directories")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*(p.resolve() for p in args.compare))
    return digest(args.outdir.resolve())


if __name__ == "__main__":
    sys.exit(main())
