"""Digest every bundled scenario's artifacts, for comparing two checkouts.

Usage (from any directory):

    python tools/artifacts.py OUTDIR

Runs ``doublephase run`` on each scenario under ``scenarios/`` and
``doublephase sweep`` on each scenario with a top-level ``sweep:`` block,
all with ``--workers 1``, writing into OUTDIR/run/<name> and
OUTDIR/sweep/<name>.  Then writes OUTDIR/digest.json with the exit code of
every command, the sha256 of every CSV, and the sha256 of every manifest
with its wall-clock ``timings`` removed.  The package is imported from the
``src/`` next to this script, so two checkouts compare with one run of the
script in each and one ``diff`` of the two digests.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from doublephase import cli  # noqa: E402


def _has_sweep(path: Path) -> bool:
    return any(line.startswith("sweep:") for line in path.read_text().splitlines())


def _manifest_digest(path: Path) -> str:
    manifest = json.loads(path.read_text())
    manifest.pop("timings", None)
    text = json.dumps(manifest, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
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
    digest = {"exit_codes": exit_codes, "files": files}
    (out / "digest.json").write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n")
    print(f"{len(files)} files digested into {out / 'digest.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
