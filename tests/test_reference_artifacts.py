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
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tests" / "reference" / "artifacts"
_spec = importlib.util.spec_from_file_location("artifacts_tool", ROOT / "tools" / "artifacts.py")
artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifacts)


def test_bundled_outputs_match_the_reference(tmp_path, monkeypatch):
    # the digest sets the BLAS thread variables and puts src/ on the path;
    # both are restored afterwards
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(name, str(artifacts.BLAS_THREADS))
    monkeypatch.setattr(sys, "path", list(sys.path))
    artifacts.digest(tmp_path)
    failures, _ = artifacts.differences(REFERENCE, tmp_path)
    assert not failures, "\n".join(failures)
