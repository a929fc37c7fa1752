"""tools/artifacts.py --compare on small synthetic output trees."""
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifacts.py"
_spec = importlib.util.spec_from_file_location("artifacts_tool", TOOL)
artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifacts)


def make_tree(root, value=0.5, passed=True, code=0):
    member = root / "run" / "tiny"
    member.mkdir(parents=True)
    (root / "digest.json").write_text(json.dumps({"exit_codes": {"run/tiny": code}, "files": {}}))
    (member / "manifest.json").write_text(json.dumps(
        {"exit_code": code, "checks": [{"name": "gradbound", "passed": passed, "value": 0.1}]}))
    (member / "timeseries.csv").write_text(
        f"t,l2_sq,label\n0,1.0,a\n0.5,{value!r},b\n1,nan,c\n")
    return root


def compare(tmp_path, **after):
    before = make_tree(tmp_path / "before")
    return artifacts.main(["--compare", str(before), str(make_tree(tmp_path / "after", **after))])


def test_tree_compared_with_itself_passes(tmp_path, capsys):
    tree = make_tree(tmp_path / "tree")
    assert artifacts.main(["--compare", str(tree), str(tree)]) == 0
    assert "identical within tolerance" in capsys.readouterr().out


def test_deviation_below_tolerance_passes(tmp_path):
    assert compare(tmp_path, value=0.5 * (1.0 + 1e-12)) == 0


def test_relative_perturbation_of_a_csv_value_fails(tmp_path, capsys):
    assert compare(tmp_path, value=0.5 * (1.0 + 1e-6)) == 1
    assert "timeseries.csv l2_sq: deviation 5e-07" in capsys.readouterr().out


@pytest.mark.parametrize("after, message", [({"passed": False}, "checks run/tiny/manifest.json"),
                                            ({"code": 2}, "exit code run/tiny: 0 -> 2"),
                                            ({"value": float("inf")}, "l2_sq: deviation inf")])
def test_verdict_exit_code_or_non_finite_mismatch_fails(tmp_path, capsys, after, message):
    assert compare(tmp_path, **after) == 1
    assert message in capsys.readouterr().out


def test_missing_file_fails(tmp_path, capsys):
    before = make_tree(tmp_path / "before")
    after = tmp_path / "after"
    shutil.copytree(before, after)
    (after / "run" / "tiny" / "timeseries.csv").unlink()
    assert artifacts.main(["--compare", str(before), str(after)]) == 1
    assert "only in" in capsys.readouterr().out
