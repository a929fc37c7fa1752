"""Fixtures shared by more than one test module."""
from dataclasses import replace

import numpy as np
import pytest

from doublephase import diagnostics as dg, runner
from doublephase.fields import ExponentData, make_field
from doublephase.galerkin import SolverConfig, solve


@pytest.fixture(scope="session")
def random_sup_trajectories():
    """The 50 seeded random solves of acceptance criterion 10 (sup envelope).

    Constant exponents and coefficients, one to three low modes as u0, and a
    source that is either a constant or one decaying mode.
    """
    rng = np.random.default_rng(1010)
    trajs = []
    for _ in range(50):
        p0 = rng.uniform(1.7, 2.3)
        q0 = float(np.clip(p0 + rng.uniform(-0.4, 0.4), 1.7, 2.7))
        a0 = rng.uniform(0.1, 0.9)
        data = runner.config_from_dict({
            "name": "random", "dim": 2, "horizon": 0.05, "alpha": 0.45,
            "fields": {"p": p0, "q": q0, "a": a0, "b": max(0.5 - a0, 0.0) + 0.5},
            "initial": 0.0, "solver": {"m_per_dim": 4, "eps": 1e-2, "tau": 2.5e-3},
        }).data
        # modes capped at 2 and tau at 1e-3 so the initial transient is
        # resolved; the checkpoint-trapezoid dissipation integral of an
        # unresolved transient overshoots the energy bound spuriously
        n_modes = int(rng.integers(1, 4))
        coeffs, total = [], 0.0
        for _ in range(n_modes):
            amp = float(rng.uniform(0.05, 0.5))
            coeffs.append([int(rng.integers(1, 3)), int(rng.integers(1, 3)), amp])
            total += amp
        u0 = make_field({"family": "modes", "coeffs": coeffs}, 2)
        if rng.integers(0, 2):
            f = make_field({"family": "modes",
                            "coeffs": [[int(rng.integers(1, 3)),
                                        int(rng.integers(1, 3)),
                                        float(rng.uniform(0.0, 0.5))]],
                            "tdecay": float(rng.uniform(0.0, 2.0))}, 2)
        else:
            f = make_field(float(rng.uniform(0.0, 0.5)), 2)
        cfg = SolverConfig(m_per_dim=4, eps=1e-2, tau=1e-3)
        trajs.append(solve(cfg, data, u0, f))
    return trajs


@pytest.fixture(scope="session")
def eps_chain():
    """The vanishing-regularization Cauchy study of a chain of solves.

    Solves along the eps list, each member warm-started from the one before
    as in a sweep row, then runs `_gradient_cauchy` on the chain.
    """
    def study(cfg, data, u0, f, eps_seq):
        trajs, guess = [], None
        for e in eps_seq:
            trajs.append(solve(replace(cfg, eps=e), data, u0, f, guess))
            guess = trajs[-1].coeffs
        return dg._gradient_cauchy(data, trajs[-1].spacetime_grid(),
                                   [(tr.basis, tr.coeffs, tr.eps) for tr in trajs],
                                   [f"eps={e:g}" for e in eps_seq])
    return study


@pytest.fixture(scope="session")
def moving_data():
    """Admissible 2D data whose a, b, p and q all change in time."""
    def field(spec):
        return make_field(spec, 2)
    return ExponentData(
        dim=2, horizon=0.1, alpha=0.3, lipschitz_probe_resolution=9, time_probe_resolution=3,
        p=field({"family": "sinusoidal", "base": 1.9, "amp": 0.1, "wave": [1.0, 0.5], "tfreq": 5.0}),
        q=field({"family": "affine", "base": 2.0, "slope": [0.1, 0.0], "tslope": 1.0}),
        a=field({"family": "bump", "base": 0.4, "amp": 0.3, "tdecay": 3.0}),
        b=field({"family": "affine", "base": 0.5, "slope": [0.0, 0.2], "tslope": -1.0}))
