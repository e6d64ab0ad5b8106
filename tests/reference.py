"""Reference implementations that only the tests use.

Nothing here runs in the command line or the library: random density
matrices, the per-protocol formulas for the probability tables, the leaks
and Eve's states (each erf written out, the QPSK state as a complex phase
sum over a table row), Eve's N conditional states each built from its own
formula, the brute-force entropies on the explicitly assembled
block-diagonal classical-quantum state, the trace functional of the
invariant solve, the golden-section search that the
two-state invariant solve replaced, an axis-aligned starting simplex, and
the full phase-rotation symmetry group of an ensemble. The tests check the
one contrast-based model of ``pskrates.states``, the reduced formulas and
the stored ensembles, which keep only the real rho_{E|0}, against them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from pskrates import entropies, rates
from pskrates.linalg import (SUPPORT_CUTOFF, apply_on_support, matrix_log2, matrix_power,
                             partial_trace, support_spectrum)
from pskrates.optimize import nelder_mead
from pskrates.rates import _binary_entropy
from pskrates.rng import normals, philox
from pskrates.states import DEGENERACY_CUTOFF, CQEnsemble, ProtocolParams, build_ensemble


def random_density(dim: int, seed: int, rank: int | None = None) -> np.ndarray:
    """Random density matrix of the given dimension, deterministic per seed."""
    rank = dim if rank is None else rank
    g = normals(philox(seed, stream=0xD0), 2 * dim * rank)
    a = (g[: dim * rank] + 1j * g[dim * rank :]).reshape(dim, rank)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def cond_prob_bpsk(params: ProtocolParams) -> np.ndarray:
    """Binary table p[y][x]: p(y=x|x) = (1 + erf(sqrt(2 eta) alpha)) / 2."""
    r = math.erf(math.sqrt(2.0 * params.eta) * params.alpha)
    same, diff = (1.0 + r) / 2.0, (1.0 - r) / 2.0
    return np.array([[same, diff], [diff, same]])


def cond_prob_qpsk(params: ProtocolParams) -> np.ndarray:
    """4x4 circulant p[y][k]: P_+^2, P_+ P_-, P_-^2, P_+ P_- at offsets 0..3.

    P_pm = (1 +- erf(sqrt(eta/2) alpha)) / 2.
    """
    r = math.erf(math.sqrt(params.eta / 2.0) * params.alpha)
    p_plus, p_minus = (1.0 + r) / 2.0, (1.0 - r) / 2.0
    entry = {0: p_plus**2, 2: p_minus**2, 1: p_plus * p_minus, 3: p_plus * p_minus}
    return np.array([[entry[(y - k) % 4] for k in range(4)] for y in range(4)])


def leak_bpsk(params: ProtocolParams) -> float:
    """h2(p_+) with p_+ = (1 + erf(sqrt(2 eta) alpha)) / 2."""
    return _binary_entropy((1.0 + math.erf(math.sqrt(2.0 * params.eta) * params.alpha)) / 2.0)


def leak_qpsk(params: ProtocolParams) -> float:
    """2 h2(P_+) with P_+ = (1 + erf(sqrt(eta/2) alpha)) / 2."""
    return 2.0 * _binary_entropy((1.0 + math.erf(math.sqrt(params.eta / 2.0) * params.alpha)) / 2.0)


def _bpsk_states(params: ProtocolParams, sign: float) -> tuple[np.ndarray, np.ndarray]:
    gamma = params.gamma
    c_plus = 1.0 + math.exp(-2.0 * gamma * gamma)
    c_minus = -math.expm1(-2.0 * gamma * gamma)
    if c_minus < DEGENERACY_CUTOFF:
        c_minus = 0.0
    r = math.erf(math.sqrt(2.0 * params.eta) * params.alpha)
    off = sign * r * math.sqrt(c_plus * c_minus) / 2.0
    return (np.array([[c_plus / 2.0, off], [off, c_minus / 2.0]], dtype=complex),
            np.array([c_plus / 2.0, c_minus / 2.0]))


def _qpsk_state(params: ProtocolParams, y: int) -> tuple[np.ndarray, np.ndarray]:
    g2 = params.gamma * params.gamma
    s = np.arange(4)
    norms = 1.0 + np.exp(-2.0 * g2) * np.cos(np.pi * s) + 2.0 * np.exp(-g2) * np.cos(g2 + np.pi * s / 2.0)
    norms = np.where(norms < DEGENERACY_CUTOFF, 0.0, norms)
    weights = np.sqrt(norms) / 2.0
    phases = np.exp(-1j * np.pi * np.outer(s, np.arange(4)) / 2.0)
    return (np.outer(weights, weights) * ((phases * cond_prob_qpsk(params)[y]) @ phases.conj().T),
            norms / 4.0)


def build_bpsk_ensemble(params: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """(rho_{E|0}, diag(rho_E)) for N=2: (1/2)[[c_+, r sqrt(c_+ c_-)], [., c_-]], (c_+, c_-)/2."""
    return _bpsk_states(params, 1.0)


def build_qpsk_ensemble(params: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """(rho_{E|0}, diag(rho_E)) for N=4 as a complex phase sum over row 0 of the table.

    rho[s, s'] = w_s w_s' sum_k p(0|k) exp(-i pi (s - s') k / 2) with
    w_s = sqrt(1/N_s^2)/2, and diag(rho_E) = 1/(4 N_s^2).
    """
    return _qpsk_state(params, 0)


def conditional_states(params: ProtocolParams) -> list[np.ndarray]:
    """Eve's state rho_{E|y} for each of Bob's symbols y, in the stored basis.

    Each state comes from its own formula, not from rotating state 0:
    (1/2)[[c_+, +-r sqrt(c_+ c_-)], [+-r sqrt(c_+ c_-), c_-]] for N=2, the +
    sign for y = 0, and w_s w_s' sum_k p(y|k) exp(-i pi (s - s') k / 2) with
    row y of the table for N=4 (see ``build_qpsk_ensemble``).
    """
    if params.n_states == 2:
        return [_bpsk_states(params, sign)[0] for sign in (1.0, -1.0)]
    return [_qpsk_state(params, y)[0] for y in range(4)]


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


def petz_down_matrix_path(ensemble: CQEnsemble, a: float) -> float:
    """``petz_down_cq`` with rho_E^(1-a) from an eigendecomposition of diag(rho_E)."""
    rho0 = support_spectrum(ensemble.rho0)
    avg = support_spectrum(np.diag(ensemble.avg_diag))
    t = np.trace(apply_on_support(rho0, lambda lam: lam**a)
                 @ apply_on_support(avg, lambda lam: lam**(1.0 - a))).real
    return math.log2(ensemble.n_states) + math.log2(t) / (1.0 - a)


def invariant_trace(rho0: np.ndarray, q: np.ndarray, a: float) -> float:
    """tr[(D rho0 D)^a], D = diag(q^((1-a)/2a)), at a diagonal state q.

    The trace that the invariant solve optimizes over q and that
    ``sandwiched_down_cq`` takes at q = diag(rho_E), on the same kernel: the
    power of q is taken entry by entry, so only its exactly zero weights
    lie off the support.
    """
    d = np.where(q > 0.0, q, 1.0) ** ((1.0 - a) / (2.0 * a)) * (q > 0.0)
    return entropies._tr_power(d[:, None] * rho0 * d[None, :], a, entropies._power_support(a))


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(fn, lo: float, hi: float, tol: float) -> float:
    """Smallest value of a unimodal ``fn`` on [lo, hi], bracketed to ``tol``."""
    x1, x2 = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = fn(x2)
    return min(f1, f2)


def two_state_golden_log_trace(rho0: np.ndarray, a: float) -> float:
    """opt_q log tr[(D rho0 D)^a] for N=2 by golden-section search.

    The search runs over the log-odds z in [-60, 60] down to |dz| <= 1e-11,
    on the merit s log T of ``entropies._two_state_merit`` (s = sign(a - 1)),
    whose log T is unimodal in z.
    """
    evaluate, sense, _ = entropies._two_state_merit(
        float(rho0[0, 0]), float(rho0[1, 1]), float(rho0[0, 1]) ** 2, a, math)
    return sense * golden_min(lambda z: evaluate(z)[0], -60.0, 60.0, 1e-11)


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


def tight_rate(estimator: str, n_states: int, eta: float, n: float,
               a_max: float | None = None) -> tuple[float, float, float | None]:
    """A tightly polished optimized rate and its point, as (rate, alpha, a).

    The box is that of ``optimize_rate``: alpha in ``ALPHA_BOUNDS`` and
    log(a - 1) up to the order cap. A point outside it is scored at its clip
    onto the box, less its squared distance to it, so a simplex that leaves
    the box comes back rather than stalling on a flat extension.
    Nelder-Mead at f_tol=1e-14 starts from each of the three best points of a
    9 x 9 scan (9 x 1 for AEP), and the best of the three is polished once more
    from a simplex of side 1e-3. Each run stops after 200 iterations: near
    a = 1 the rounding of the rate keeps the simplex spread above f_tol.
    """
    spec = rates.estimator_spec(estimator)
    lower, upper = [rates.ALPHA_BOUNDS[0]], [rates.ALPHA_BOUNDS[1]]
    if spec.takes_order:
        lower.append(math.log(rates.A_MIN_OFFSET))
        upper.append(math.log(spec.order_cap(a_max) - 1.0))

    def negated(x):
        alpha, *log_a = clipped = np.clip(x, lower, upper)
        sp = rates.SecurityParams(n=n, a=1.0 + math.exp(log_a[0]) if log_a else None)
        rate = spec.rate(build_ensemble(ProtocolParams(n_states, float(alpha), eta)), sp)
        return float(np.sum((x - clipped) ** 2)) - rate

    scan_lower = [lower[0], math.log(1e-5)][:len(lower)]
    axes = [np.linspace(lo, hi, 9) for lo, hi in zip(scan_lower, upper)]
    scan = [np.array(x) for x in itertools.product(*axes)]
    starts = sorted(scan, key=negated)[:3]
    steps = [(ax[1] - ax[0]) / 2.0 for ax in axes]
    runs = [nelder_mead(negated, initial_simplex(x0, steps), f_tol=1e-14, max_iter=200)
            for x0 in starts]
    top = min(runs, key=lambda r: r.fun)
    final = nelder_mead(negated, initial_simplex(top.x, 1e-3), f_tol=1e-14, max_iter=200)
    x = np.clip(min((final, top), key=lambda r: r.fun).x, lower, upper)
    return -negated(x), float(x[0]), 1.0 + math.exp(x[1]) if spec.takes_order else None


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
