"""Reference implementations that only the tests use.

Nothing here runs in the command line or the library: random density
matrices, Eve's N conditional states each built from its own formula, the
brute-force entropies on the explicitly assembled block-diagonal
classical-quantum state, an axis-aligned starting simplex, and the full
phase-rotation symmetry group of an ensemble. The tests check the reduced
formulas and the stored ensembles, which keep only rho_{E|0} and the
diagonal of rho_E, against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from pskrates.linalg import SUPPORT_CUTOFF, matrix_log2, matrix_power, partial_trace
from pskrates.rng import normals, philox
from pskrates.states import DEGENERACY_CUTOFF, CQEnsemble, ProtocolParams, cond_prob_table


def random_density(dim: int, seed: int, rank: int | None = None) -> np.ndarray:
    """Random density matrix of the given dimension, deterministic per seed."""
    rank = dim if rank is None else rank
    g = normals(philox(seed, stream=0xD0), 2 * dim * rank)
    a = (g[: dim * rank] + 1j * g[dim * rank :]).reshape(dim, rank)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def conditional_states(params: ProtocolParams) -> list[np.ndarray]:
    """Eve's state rho_{E|y} for each of Bob's symbols y, in the stored basis.

    Each state comes from its own formula, not from rotating state 0:
    (1/2)[[c_+, +-r sqrt(c_+ c_-)], [+-r sqrt(c_+ c_-), c_-]] for N=2, the +
    sign for y = 0, and w_s w_s' sum_k p(y|k) exp(-i pi (s - s') k / 2) with
    row y of the table for N=4 (see ``pskrates.states``).
    """
    gamma = params.gamma
    if params.n_states == 2:
        c_plus = 1.0 + math.exp(-2.0 * gamma * gamma)
        c_minus = -math.expm1(-2.0 * gamma * gamma)
        if c_minus < DEGENERACY_CUTOFF:
            c_minus = 0.0
        r = math.erf(math.sqrt(2.0 * params.eta) * params.alpha)
        off = r * math.sqrt(c_plus * c_minus) / 2.0
        return [np.array([[c_plus / 2.0, sign * off], [sign * off, c_minus / 2.0]], dtype=complex)
                for sign in (1.0, -1.0)]
    g2 = gamma * gamma
    s = np.arange(4)
    norms = 1.0 + np.exp(-2.0 * g2) * np.cos(np.pi * s) + 2.0 * np.exp(-g2) * np.cos(g2 + np.pi * s / 2.0)
    weights = np.sqrt(np.where(norms < DEGENERACY_CUTOFF, 0.0, norms)) / 2.0
    phases = np.exp(-1j * np.pi * np.outer(s, np.arange(4)) / 2.0)
    table = cond_prob_table(params)
    return [np.outer(weights, weights) * ((phases * table[y]) @ phases.conj().T)
            for y in range(4)]


def assemble_cq_state(ensemble: CQEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Explicit block-diagonal rho_YE and I_Y x rho_E on the N*N space.

    The blocks are the ``conditional_states`` of the ensemble's parameters,
    and rho_E is their mixture.
    """
    n = ensemble.n_states
    states = conditional_states(ensemble.params)
    rho = np.zeros((n * n, n * n), dtype=complex)
    for y, state in enumerate(states):
        rho[y * n : (y + 1) * n, y * n : (y + 1) * n] = state / n
    return rho, np.kron(np.eye(n), sum(states) / n)


def brute_entropy_cq(ensemble: CQEnsemble, a: float | None, kind: str) -> float:
    """Entropy functionals evaluated on the assembled block matrices.

    No symmetry reduction and no block shortcuts: the definitional formulas
    act on the full (N dim)-dimensional operators. ``kind`` selects among
    petz_down, petz_up, sand_down, von_neumann and variance; the Rényi kinds
    require ``a``.
    """
    rho, conditioner = assemble_cq_state(ensemble)
    dims = (ensemble.n_states, ensemble.n_states)
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


def symmetry_group(ensemble: CQEnsemble, states: Sequence[np.ndarray] | None = None
                   ) -> SymmetryGroup:
    """Phase-rotation group of the ensemble in its stored basis.

    U_t = diag_s(exp(-2 pi i s t / N)), which is diag(1, (-1)^t) for N=2.
    ``states`` defaults to the ``conditional_states`` of the ensemble's
    parameters. Raises if a group invariant of the states or of their
    mixture is violated beyond 1e-9, if state 0 differs from
    ``ensemble.rho0`` by more than 1e-15, or if the mixture's diagonal
    differs from ``ensemble.avg_diag`` by more than 1e-12: each signals a
    construction bug in the ensemble.
    """
    n = ensemble.n_states
    states = conditional_states(ensemble.params) if states is None else states
    mix = sum(states) / n
    s = np.arange(n)
    unitaries = tuple(np.diag(np.exp(-2j * np.pi * s * t / n)) for t in range(n))
    for t, u in enumerate(unitaries):
        if np.abs(u @ u.conj().T - np.eye(n)).max() > 1e-12:
            raise ValueError("symmetry unitary is not unitary")
        if np.abs(u @ mix @ u.conj().T - mix).max() > 1e-9:
            raise ValueError("average state is not invariant under the symmetry group")
        for y in range(n):
            mapped = u @ states[y] @ u.conj().T
            if np.abs(mapped - states[(y + t) % n]).max() > 1e-9:
                raise ValueError(
                    f"symmetry violated: U_{t} does not map state {y} to state {(y + t) % n}"
                )
    if np.abs(states[0] - ensemble.rho0).max() > 1e-15:
        raise ValueError("state 0 differs from the stored rho0")
    if np.abs(np.diag(mix).real - ensemble.avg_diag).max() > 1e-12:
        raise ValueError("mixture diagonal differs from the stored avg_diag")
    for u in unitaries:
        u.setflags(write=False)
    return SymmetryGroup(n_states=n, unitaries=unitaries)
