import dataclasses

import numpy as np
import pytest

import pskrates.rates as rates
from pskrates.states import ProtocolParams, build_ensemble


def philox_rng(seed: int) -> np.random.Generator:
    """Deterministic generator for test grids, independent of global state."""
    return np.random.Generator(np.random.Philox(key=seed))


def random_protocol(rng, n_states, alpha_range=(0.0, 3.0), eta_range=(0.0, 1.0)):
    alpha = rng.uniform(*alpha_range)
    eta = rng.uniform(*eta_range)
    return ProtocolParams(n_states=n_states, alpha=alpha, eta=eta)


def score_grid_point_by_point(monkeypatch):
    """Make S score every grid point through ``sandwiched_up_invariant``, as AEP and B do.

    A stub of ``sandwiched_up_invariant`` then also scores the grid, so its
    warnings at grid points reach ``optimize_rate``; the array solve that
    ranks the grid otherwise never warns.
    """
    spec = dataclasses.replace(rates.ESTIMATORS["S"], grid_fn=None)
    monkeypatch.setitem(rates.ESTIMATORS, "S", spec)


def cap_nelder_mead(monkeypatch):
    """Stop every Nelder-Mead refinement of ``optimize_rate`` after two iterations."""
    nelder_mead = rates.nelder_mead
    monkeypatch.setattr(rates, "nelder_mead", lambda fn, simplex, **kwargs: nelder_mead(
        fn, simplex, **{**kwargs, "max_iter": 2}))


@pytest.fixture(scope="session")
def bpsk_ref():
    """Reference two-state ensemble at alpha=1, eta=0.9."""
    return build_ensemble(ProtocolParams(n_states=2, alpha=1.0, eta=0.9))


@pytest.fixture(scope="session")
def qpsk_ref():
    """Reference four-state ensemble at alpha=1, eta=0.9."""
    return build_ensemble(ProtocolParams(n_states=4, alpha=1.0, eta=0.9))
