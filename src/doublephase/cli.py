"""Batch front door.

Verbs:
    doublephase run <config.yaml>      execute one scenario, write artifacts
    doublephase sweep <config.yaml>    execute the configured sweep
    doublephase report <run_dir>       print the digest, emit plots/*.dat
    doublephase validate <config.yaml> check the data assumptions only

Exit codes: 0 all assertions passed, 1 usage error, malformed config or
validation failure, 2 assertion failure (details in the manifest), 3 solver
failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .fields import ConfigurationError
from .runner import load_config, perform_run, perform_sweep, write_report


def _default_outdir(config_path: str, suffix: str = "") -> str:
    return str(Path(config_path).with_suffix("")) + suffix + "_out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="doublephase", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="execute one scenario")
    run_p.add_argument("config")
    run_p.add_argument("--outdir", default=None)

    sweep_p = sub.add_parser("sweep", help="execute the configured sweep")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--outdir", default=None)

    rep_p = sub.add_parser("report", help="digest a run directory")
    rep_p.add_argument("run_dir")

    val_p = sub.add_parser("validate", help="validate the data assumptions")
    val_p.add_argument("config")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (0) or a usage error (2); a usage
        # error is a malformed invocation, exit 1, since 2 is an assertion failure
        return 1 if exc.code else 0
    try:
        return _dispatch(args)
    except ConfigurationError as exc:
        # a malformed config, or data that cannot even be probed (not finite)
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.verb in ("run", "sweep", "validate"):
        config = load_config(args.config)

    if args.verb == "validate":
        report = config.data.validate()
        for check in report.checks:
            status = "pass" if check.passed else "FAIL"
            print(f"{check.name:20s} {status:5s} value={check.value:.6g} "
                  f"threshold={check.threshold:.6g} ({check.description})")
        print("lipschitz estimates: "
              + ", ".join(f"{k}={v:.4g}" for k, v in report.lipschitz.items()))
        if not report.passed:
            print(f"validation failed: {', '.join(report.failed_names())}", file=sys.stderr)
            return 1
        return 0

    if args.verb == "run":
        outdir = args.outdir or _default_outdir(args.config)
        code, manifest, _ = perform_run(config, outdir)
        print(f"run '{config.name}' finished with exit {code}; artifacts in {outdir}")
        if code == 1:
            print(f"validation failure: {manifest.get('failure')}", file=sys.stderr)
        elif code == 2:
            failed = [c["name"] for c in manifest.get("checks", []) if not c["passed"]]
            print(f"assertion failure: {', '.join(failed)}", file=sys.stderr)
        elif code == 3:
            print(f"solver failure: {manifest.get('failure')}", file=sys.stderr)
        return code

    if args.verb == "sweep":
        outdir = args.outdir or _default_outdir(args.config, "_sweep")
        code, manifest = perform_sweep(config, outdir)
        print(f"sweep '{config.name}' finished with exit {code}; artifacts in {outdir}")
        if "failure" in manifest:
            print(f"solver failure: {manifest['failure']}", file=sys.stderr)
        if code:
            failed = [c["name"] for c in manifest.get("checks", []) if not c["passed"]]
            if failed:
                print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return code

    if args.verb == "report":
        try:
            digest = write_report(args.run_dir)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(digest, end="")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
