"""Reference implementations that only the tests use.

Nothing here runs in the command line or the library: random density
matrices, the brute-force entropies on the explicitly assembled
block-diagonal classical-quantum state, an axis-aligned starting simplex,
and the full phase-rotation symmetry group of an ensemble. The tests check
the reduced formulas and the ensembles against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from pskrates.linalg import SUPPORT_CUTOFF, matrix_log2, matrix_power, partial_trace
from pskrates.rng import normals, philox
from pskrates.states import CQEnsemble


def random_density(dim: int, seed: int, rank: int | None = None) -> np.ndarray:
    """Random density matrix of the given dimension, deterministic per seed."""
    rank = dim if rank is None else rank
    g = normals(philox(seed, stream=0xD0), 2 * dim * rank)
    a = (g[: dim * rank] + 1j * g[dim * rank :]).reshape(dim, rank)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def assemble_cq_state(ensemble: CQEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Explicit block-diagonal rho_YE and I_Y x rho_E on the N*dim space."""
    n, d = ensemble.n_states, ensemble.dim
    rho = np.zeros((n * d, n * d), dtype=complex)
    for y, (p, state) in enumerate(zip(ensemble.probs, ensemble.cond_states)):
        rho[y * d : (y + 1) * d, y * d : (y + 1) * d] = p * state
    return rho, np.kron(np.eye(n), ensemble.avg_state)


def brute_entropy_cq(ensemble: CQEnsemble, a: float | None, kind: str) -> float:
    """Entropy functionals evaluated on the assembled block matrices.

    No symmetry reduction and no block shortcuts: the definitional formulas
    act on the full (N dim)-dimensional operators. ``kind`` selects among
    petz_down, petz_up, sand_down, von_neumann and variance; the Rényi kinds
    require ``a``.
    """
    rho, conditioner = assemble_cq_state(ensemble)
    dims = (ensemble.n_states, ensemble.dim)
    if kind == "petz_down":
        t = np.trace(matrix_power(rho, a) @ matrix_power(conditioner, 1.0 - a)).real
        return math.log2(t) / (1.0 - a)
    if kind == "petz_up":
        reduced = partial_trace(matrix_power(rho, a), dims, keep="B")
        return a / (1.0 - a) * math.log2(np.trace(matrix_power(reduced, 1.0 / a)).real)
    if kind == "sand_down":
        x = matrix_power(conditioner, (1.0 - a) / (2.0 * a))
        lam = np.linalg.eigvalsh(x @ rho @ x)
        lam = lam[lam > SUPPORT_CUTOFF * max(float(lam[-1]), 0.0)]
        return math.log2(float((lam**a).sum())) / (1.0 - a)
    if kind == "von_neumann":
        diff = matrix_log2(rho) - matrix_log2(conditioner)
        return -np.trace(rho @ diff).real
    if kind == "variance":
        diff = matrix_log2(rho) - matrix_log2(conditioner)
        first = np.trace(rho @ diff @ diff).real
        return float(first - np.trace(rho @ diff).real ** 2)
    raise ValueError(f"unknown kind {kind!r}")


def initial_simplex(x0: Sequence[float], step) -> list[np.ndarray]:
    """Axis-aligned simplex around ``x0`` with per-axis ``step``."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    step = np.broadcast_to(np.asarray(step, dtype=float), x0.shape)
    simplex = [x0.copy()]
    for i in range(x0.size):
        v = x0.copy()
        v[i] += step[i]
        simplex.append(v)
    return simplex


@dataclass(frozen=True, eq=False)
class SymmetryGroup:
    """Unitaries U_t with U_t rho_{E|y} U_t^dag = rho_{E|y+t mod N}."""

    n_states: int
    unitaries: tuple


def symmetry_group(ensemble: CQEnsemble) -> SymmetryGroup:
    """Phase-rotation group of the ensemble in its stored basis.

    U_t = diag(1, (-1)^t) for N=2 and diag_s(exp(-2 pi i s t / N)) for N=4.
    Raises if any group invariant is violated beyond 1e-9, which signals a
    construction bug in the ensemble.
    """
    n = ensemble.n_states
    s = np.arange(n)
    unitaries = tuple(np.diag(np.exp(-2j * np.pi * s * t / n)) for t in range(n))
    for t, u in enumerate(unitaries):
        if np.abs(u @ u.conj().T - np.eye(n)).max() > 1e-12:
            raise ValueError("symmetry unitary is not unitary")
        if np.abs(u @ ensemble.avg_state @ u.conj().T - ensemble.avg_state).max() > 1e-9:
            raise ValueError("average state is not invariant under the symmetry group")
        for y in range(n):
            mapped = u @ ensemble.cond_states[y] @ u.conj().T
            if np.abs(mapped - ensemble.cond_states[(y + t) % n]).max() > 1e-9:
                raise ValueError(
                    f"symmetry violated: U_{t} does not map state {y} to state {(y + t) % n}"
                )
    for u in unitaries:
        u.setflags(write=False)
    return SymmetryGroup(n_states=n, unitaries=unitaries)
