"""Vanishing-regularization study on the slow-diffusion scenario.

Runs the scenario's sweep, which solves along its halving regularization
sequence by continuation, and prints the consecutive gradient distances d_k
(which must decrease: the trajectories form a Cauchy sequence toward the
degenerate problem) and the monotonicity pairings from its summary rows.
"""
import csv
import tempfile
from pathlib import Path

from doublephase.runner import load_config, perform_sweep

config = load_config("scenarios/plap_slow.yaml")
eps_seq, m = config.sweep["eps"], config.solver.m_per_dim
with tempfile.TemporaryDirectory() as out:
    perform_sweep(config, out)
    with open(Path(out) / "sweep_summary.csv") as fh:
        rows = {(row["kind"], row["label"]): row for row in csv.DictReader(fh)}

print("pair                    d_k = int |grad(u_k - u_k+1)|^s_lower    pairing")
for k in range(len(eps_seq) - 1):
    d = float(rows["eps_cauchy_distance", f"m{m}_k{k}"]["value"])
    g = float(rows["eps_cauchy_pairing", f"m{m}_k{k}"]["value"])
    print(f"eps {eps_seq[k]:8.3g} -> {eps_seq[k + 1]:8.3g}   {d:24.6e}   {g:12.4e}")
print(f"\nmonotone decay: {rows['eps_cauchy_monotone', f'm{m}']['passed']}; the finest member "
      "stands in for the degenerate solution")
