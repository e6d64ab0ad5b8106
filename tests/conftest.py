import numpy as np
import pytest

import pskrates.entropies as entropies
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
    """Make S score every grid point through ``sandwiched_up_invariant``.

    S's grid hook then returns NaN everywhere, so a stub of
    ``sandwiched_up_invariant`` also scores the grid and its warnings at
    grid points reach ``optimize_rate``; the array solve that ranks the grid
    otherwise never warns.
    """
    monkeypatch.setattr(entropies, "sandwiched_up_invariant_grid",
                        lambda ensembles, orders: np.full((len(ensembles), len(orders)), np.nan))


def cap_polish(monkeypatch):
    """Stop every polish of ``optimize_rate`` after two iterations."""
    polish = rates.quadratic_polish
    monkeypatch.setattr(rates, "quadratic_polish", lambda *args, **kwargs: polish(
        *args, **{**kwargs, "max_iter": 2}))


@pytest.fixture(scope="session")
def bpsk_ref():
    """Reference two-state ensemble at alpha=1, eta=0.9."""
    return build_ensemble(ProtocolParams(n_states=2, alpha=1.0, eta=0.9))


@pytest.fixture(scope="session")
def qpsk_ref():
    """Reference four-state ensemble at alpha=1, eta=0.9."""
    return build_ensemble(ProtocolParams(n_states=4, alpha=1.0, eta=0.9))
