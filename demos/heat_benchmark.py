"""Solve the linear benchmark and compare with the closed-form decay.

With both exponents equal to 2 and a + b = 1 the flux is the identity, the
first eigenmode decays like exp(-2 pi^2 t), and the implicit scheme must
reproduce it to O(tau).  Also prints the energy-identity residual series.
"""
import math

from doublephase import diagnostics as dg
from doublephase.runner import load_config
from doublephase.galerkin import solve

config = load_config("scenarios/heat_mms.yaml")
traj = solve(config.solver, config.data, config.initial, config.source_field())

lam = 2.0 * math.pi ** 2
exact = math.exp(-lam * config.data.horizon)
err = abs(traj.coeffs[-1][0] - exact)
print(f"final first coefficient  = {traj.coeffs[-1][0]:.8f}")
print(f"exact                    = {exact:.8f}")
print(f"absolute error           = {err:.3e}  (tau = {config.solver.tau:g})")

series = dg.core_series(traj)
print(f"\nmax relative energy-identity residual = {series.energy_residual_rel.max():.3e}")
print("t, ||u||^2, flux energy, sup|u|:")
for k in range(0, len(traj.times), 20):
    print(f"  {traj.times[k]:5.3f}  {series.l2_sq[k]:.6f}  "
          f"{series.flux_energy_eps[k]:.6f}  {series.linf[k]:.6f}")

rep = dg.apriori_energy_bound(traj, series)
print(f"\nenergy bound: lhs = {rep.lhs:.4f} <= {rep.rhs:.4f}  (ratio {rep.ratio:.3f})")
