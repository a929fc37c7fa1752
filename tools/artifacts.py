"""Digest every bundled scenario's artifacts, and compare two checkouts' outputs.

Usage (from any directory):

    python tools/artifacts.py OUTDIR
    python tools/artifacts.py --compare BEFORE AFTER
    python tools/artifacts.py --reference DEST

The first form runs ``doublephase run`` on each scenario under
``scenarios/`` and ``doublephase sweep`` on each scenario with a top-level
``sweep:`` block, all with one BLAS thread, writing into
OUTDIR/run/<name> and OUTDIR/sweep/<name>.  Then it writes OUTDIR/digest.json
with the BLAS thread count, the exit code of every command, the sha256 of
every CSV, and the sha256 of every manifest with its wall-clock ``timings``
removed.  The package is imported from the ``src/`` next to this script, so
two checkouts compare with one run of the script in each and one ``diff`` of
the two digests.  The thread count sets the order of BLAS sums, and with it
the last bits of the m_per_dim = 16 sweep members' CSVs.  OpenBLAS reads
it when numpy is first imported, so ``digest`` refuses to run in a process
that has already imported numpy: it runs in the script's own process.

Where the arithmetic changes, the digests differ and ``--compare`` reads
the two output directories instead.  It reports every exit code that
differs, every manifest whose exit code or checks' names or verdicts differ,
and per CSV column the worst |after - before| divided by the column's
largest |value|.  It exits 1 when an exit code, a check, a file's presence
or a non-numeric cell differs, or a column deviates by more than 1e-9.

``--reference`` digests into a temporary directory and keeps in DEST, which
must not exist, what ``--compare`` reads: every CSV, the exit codes, and
each manifest reduced to its exit code and its checks' names and verdicts.
The reference set under ``tests/reference/artifacts`` is written this way;
a Tier-1 test compares a fresh digest against it.
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
import tempfile
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
    if "numpy" in sys.modules:
        raise RuntimeError("digest must run before numpy is imported: the BLAS thread count "
                           f"is fixed at that import, so blas_threads {BLAS_THREADS} would not hold")
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
            code = cli.main([verb, str(scenario), "--outdir", str(target)])
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


def _verdicts(path: Path) -> tuple:
    """A manifest's exit code and its checks' names and verdicts."""
    manifest = json.loads(path.read_text())
    return manifest["exit_code"], [(c["name"], c["passed"]) for c in manifest.get("checks", [])]


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


def write_reference(out: Path, dest: Path) -> None:
    """Keep what `differences` reads of the digested directory out in dest."""
    dest.mkdir(parents=True)
    for path in sorted(out.rglob("*")):
        target = dest / path.relative_to(out)
        if path.suffix == ".csv":
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
        elif path.name == "manifest.json":
            code, checks = _verdicts(path)
            reduced = {"exit_code": code,
                       "checks": [{"name": name, "passed": passed} for name, passed in checks]}
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(json.dumps(reduced, indent=1) + "\n")
    record = json.loads((out / "digest.json").read_text())
    record.pop("files")
    (dest / "digest.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def differences(before: Path, after: Path) -> tuple[list, dict]:
    """The mismatches of two digested directories, and every nonzero column deviation.

    A mismatch is an exit code, a check, a file's presence, a header, a row
    count or a non-numeric cell that differs, or a column deviation above
    TOLERANCE.  Deviations are keyed "<csv> <column>", in file order.
    """
    failures, deviations = [], {}
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
        verdicts_b, verdicts_a = _verdicts(before / key), _verdicts(after / key)
        if verdicts_b != verdicts_a:
            failures.append(f"checks {key}: {verdicts_b} -> {verdicts_a}")

    for key in sorted(_relative_files(before, "*.csv") & _relative_files(after, "*.csv")):
        columns, problems = _column_deviations(before / key, after / key)
        failures += [f"{key}: {p}" for p in problems]
        for name, dev in columns.items():
            if dev > 0.0:
                deviations[f"{key} {name}"] = dev
            if dev > TOLERANCE:
                failures.append(f"{key} {name}: deviation {dev:.3g} > {TOLERANCE:g}")
    return failures, deviations


def compare(before: Path, after: Path) -> int:
    failures, deviations = differences(before, after)
    for name, dev in deviations.items():
        print(f"{name}: {dev:.3g}")
    for line in failures:
        print(f"MISMATCH {line}")
    worst, dev = max(deviations.items(), key=lambda item: item[1], default=("", 0.0))
    print(f"worst column deviation {dev:.3g}" + (f" ({worst})" if worst else ""))
    print("identical within tolerance" if not failures else f"{len(failures)} mismatches")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("outdir", nargs="?", type=Path, help="directory to write and digest")
    group.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"),
                       help="compare two digested output directories")
    group.add_argument("--reference", type=Path, metavar="DEST",
                       help="write a reference set of the outputs into DEST")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*(p.resolve() for p in args.compare))
    if args.reference:
        with tempfile.TemporaryDirectory() as out:
            digest(Path(out))
            write_reference(Path(out), args.reference.resolve())
        return 0
    return digest(args.outdir.resolve())


if __name__ == "__main__":
    sys.exit(main())
