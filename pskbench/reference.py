"""Independent reference values for the benchmark's output checks.

Built from first principles with numpy and ``math.erf`` only; nothing here
imports pskrates. Eve holds the reflected coherent states |gamma_x> with
gamma = sqrt(1 - eta) alpha, so every entropy follows from their Gram
matrix G[x, x'] = <gamma_x|gamma_x'>: a mixture sum_x w_x |gamma_x><gamma_x|
has the nonzero spectrum of sqrt(W) G sqrt(W). Bob's outcome table p(y|x)
comes from the Gaussian quadrature statistics (variance 1/2 per quadrature),
whose sign probabilities are (1 + erf(mean)) / 2.
"""

from __future__ import annotations

import math

import numpy as np

ALPHA_BOX = (0.05, 3.0)
EPS = 1e-8
EPS_PRIME = 1e-8


def _phases(n_states: int) -> np.ndarray:
    if n_states == 2:
        return np.array([1.0, -1.0], dtype=complex)
    return np.exp(1j * math.pi / 4.0) * 1j ** np.arange(4)


def gram(n_states: int, gamma: float) -> np.ndarray:
    """Overlaps <g_j|g_k> = exp(-|g_j|^2/2 - |g_k|^2/2 + conj(g_j) g_k)."""
    ph = _phases(n_states)
    return np.exp(gamma * gamma * (np.conj(ph)[:, None] * ph[None, :] - 1.0))


def bob_table(n_states: int, alpha: float, eta: float) -> np.ndarray:
    """p[y, x]: sign-discretized homodyne (N=2) or quadrant heterodyne (N=4)."""
    def positive(mean: float) -> float:
        return (1.0 + math.erf(mean)) / 2.0

    table = np.zeros((n_states, n_states))
    if n_states == 2:
        for x in range(2):
            up = positive((-1.0) ** x * math.sqrt(2.0 * eta) * alpha)
            table[:, x] = (up, 1.0 - up)
        return table
    for x, centre in enumerate(math.sqrt(eta) * alpha * _phases(4)):
        re, im = positive(centre.real), positive(centre.imag)
        # quadrants (+,+) (-,+) (-,-) (+,-) are outcomes 0..3
        table[:, x] = (re * im, (1.0 - re) * im, (1.0 - re) * (1.0 - im), re * (1.0 - im))
    return table


def _entropy(matrix: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(matrix)
    lam = lam[lam > 1e-300]
    return float(-(lam * np.log2(lam)).sum())


def conditional_entropy(n_states: int, alpha: float, eta: float) -> float:
    """H(Y|E) = log2 N + sum_y p(y) S(rho_E|y) - S(rho_E) in bits."""
    g = gram(n_states, math.sqrt(1.0 - eta) * alpha)
    table = bob_table(n_states, alpha, eta)
    p_y = table.sum(axis=1) / n_states
    cond = 0.0
    for y in range(n_states):
        s = np.sqrt(table[y] / table[y].sum())  # posterior p(x|y), uniform prior
        cond += p_y[y] * _entropy(s[:, None] * g * s[None, :])
    return math.log2(n_states) + cond - _entropy(g / n_states)


def leak(n_states: int, alpha: float, eta: float) -> float:
    """Reconciliation leak H(Y|X) with uniform inputs, in bits."""
    table = bob_table(n_states, alpha, eta)
    p = table[table > 0.0]
    return float(-(p * np.log2(p)).sum() / n_states)


def asymptotic_rate(n_states: int, eta: float) -> tuple[float, float]:
    """max over alpha in ALPHA_BOX of H(Y|E) - leak, as (rate, alpha).

    A 121-point scan brackets the maximum, then a golden-section search
    refines it inside the bracket.
    """
    def f(alpha: float) -> float:
        return conditional_entropy(n_states, alpha, eta) - leak(n_states, alpha, eta)

    grid = np.linspace(*ALPHA_BOX, 121)
    values = [f(float(al)) for al in grid]
    i = int(np.argmax(values))
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)])
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-9:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = f(x2)
    best = max((values[i], float(grid[i])), (f1, x1), (f2, x2))
    return best


def hash_term(n: float) -> float:
    """(1 + 2 log2 eps') / n, the privacy-amplification cost."""
    return (1.0 + 2.0 * math.log2(EPS_PRIME)) / n


def aep_correction(n_states: int, n: float) -> float:
    """delta(eps) / sqrt(n) with delta = 4 log2(2 + sqrt N) sqrt(log2(2/eps^2))."""
    delta = 4.0 * math.log2(2.0 + math.sqrt(n_states)) * math.sqrt(math.log2(2.0 / EPS**2))
    return delta / math.sqrt(n)
