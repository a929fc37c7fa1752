"""The committed default-seed reference and the comparison against it.

``reference/<workload>.json`` holds, for every operation of one pass at the
default seed, its exit code, its check verdicts and the values it wrote
(every CSV column, or the toolkit call's results).  At any seed a pass must
produce the same operations with the same exit codes and verdicts; at the
default seed every value must also match.

Values match when ``|got - want| <= RTOL * max(|want|, FLOOR * scale)``,
where ``scale`` is the largest magnitude in the same column (a CSV column,
or one kind of row of ``sweep_summary.csv``).  RTOL sits far above what a
change at the level of the Newton tolerance moves (the solver stops at a
residual of 1e-10 relative to the coefficients) and far below what a wrong
basis moves (order one); README.md gives the measured margins.  The floor
keeps entries that are tiny within their column, such as the eps-Cauchy
distance between the two finest eps members, from being judged at a
relative precision the solver never promised.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RTOL = 1e-3
FLOOR = 1e-2


def path_for(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load(workload: str) -> dict:
    return json.loads(path_for(workload).read_text())


def write(workload: str, seed: int, ops) -> Path:
    entries = {op.key: {"exit_code": op.exit_code, "verdicts": op.verdicts,
                        "values": op.values} for op in ops}
    doc = {"workload": workload, "seed": seed, "rtol": RTOL, "floor": FLOOR, "ops": entries}
    path = path_for(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return path


def value_mismatch(got, want) -> str | None:
    """Why a value column misses its reference, or None when it matches."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"shape {got.shape} != reference {want.shape}"
    if not want.size:
        return None
    allowed = RTOL * np.maximum(np.abs(want), FLOOR * np.abs(want).max())
    err = np.abs(got - want)
    bad = ~(err <= allowed)
    if np.any(bad):
        i = int(np.argmax(np.where(bad, err / np.maximum(allowed, 1e-300), 0.0)))
        return f"entry {i}: {got[i]!r} vs reference {want[i]!r}"
    return None


def judge(ops, ref: dict, compare_values: bool) -> dict:
    """Problems per operation key over the union of produced and reference ops.

    Each op's own problems (raised, exit 3, failed exact check, closed form
    missed) are kept; a reference op the pass did not produce, or an op the
    reference does not know, is a problem of its own.
    """
    produced = {op.key: op for op in ops}
    want_ops = ref["ops"]
    out = {}
    for key in sorted(set(produced) | set(want_ops)):
        op, want = produced.get(key), want_ops.get(key)
        if op is None:
            out[key] = ["missing from the pass"]
            continue
        problems = list(op.problems)
        if want is None:
            problems.append("not in the reference")
        else:
            if op.exit_code != want["exit_code"]:
                problems.append(f"exit {op.exit_code} != reference {want['exit_code']}")
            if op.verdicts != want["verdicts"]:
                diff = sorted(k for k in set(op.verdicts) | set(want["verdicts"])
                              if op.verdicts.get(k) != want["verdicts"].get(k))
                problems.append(f"verdicts differ: {', '.join(diff)}")
            if compare_values:
                for name in sorted(set(op.values) | set(want["values"])):
                    if name not in op.values or name not in want["values"]:
                        problems.append(f"value {name} missing on one side")
                        continue
                    why = value_mismatch(op.values[name], want["values"][name])
                    if why:
                        problems.append(f"value {name}: {why}")
        out[key] = problems
    return out
