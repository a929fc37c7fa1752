"""Every bundled scenario's outputs against the committed reference set.

tests/reference/artifacts holds every CSV that `tools/artifacts.py` digests,
the exit codes, and each manifest's exit code and checks' names and
verdicts, written at one BLAS thread with

    python tools/artifacts.py --reference tests/reference/artifacts

A change that flips a verdict, changes an exit code or moves a CSV column
by more than 1e-9 of its largest value fails here.  A change meant to move
them writes the set again and says what moved.
"""
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tests" / "reference" / "artifacts"
_spec = importlib.util.spec_from_file_location("artifacts_tool", ROOT / "tools" / "artifacts.py")
artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifacts)


def test_bundled_outputs_match_the_reference(tmp_path):
    # in a fresh process, so that the digest's BLAS thread count takes effect
    subprocess.run([sys.executable, str(ROOT / "tools" / "artifacts.py"), str(tmp_path)],
                   check=True, capture_output=True)
    failures, _ = artifacts.differences(REFERENCE, tmp_path)
    assert not failures, "\n".join(failures)


def test_digest_refuses_to_run_after_numpy_is_imported(tmp_path):
    import numpy  # noqa: F401  (pytest has loaded it already; this states the premise)

    with pytest.raises(RuntimeError, match="before numpy is imported"):
        artifacts.digest(tmp_path)
    assert not any(tmp_path.iterdir())
