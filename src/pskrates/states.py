"""Constellations, detection statistics and Eve's conditional states.

Alice sends one of N phase-shifted coherent states through a pure-loss
channel of transmittance eta; Bob keeps the transmitted part and decodes by
homodyne (N=2) or heterodyne (N=4) detection, while a passive eavesdropper
holds the reflected amplitude gamma = sqrt(1-eta)*alpha. Bob's contrast r
(``ProtocolParams.contrast``) makes each of his N/2 sign decisions right
with P_+ = (1 + r)/2, so p(y|x) = P_+^(N/2-d) P_-^d, d the circular
distance of y and x. With Eve's basis weights m = diag(rho_E), her state is
rho_{E|y} = U_y rho_{E|0} U_y^dag, U_y = diag_s(exp(-2 pi i s y / N)), and
rho_{E|0}[s, s'] = sqrt(m_s m_s') sum_k p(0|k) exp(-2 pi i (s - s') k / N)
is the real r^d(s, s') sqrt(m_s m_s'): p(0|1) = p(0|N-1) cancels the odd
phases and leaves P_+ +- P_- for N=2, and (P_+ + P_-)^2 = 1,
P_+^2 - P_-^2 = r and (P_+ - P_-)^2 = r^2 for N=4.

Basis conventions (fixed so stored matrices are bit-reproducible):

* N=2: psi_pm basis, |psi_+-> = (|gamma> +- |-gamma>)/sqrt(2 c_pm) with
  c_pm = 1 +- exp(-2 gamma^2), ordered (+, -); m = (c_+, c_-)/2.
* N=4: psi_s basis, s = 0..3, |psi_s> proportional to
  sum_k exp(+i pi s k / 2) |gamma_k> with 1/N_s^2 = 1 + exp(-2 gamma^2)
  cos(pi s) + 2 exp(-gamma^2) cos(gamma^2 + pi s / 2); m_s = 1/(4 N_s^2).

When a basis normalization (c_- or 1/N_s^2) falls below DEGENERACY_CUTOFF
the corresponding basis vector keeps its slot with a zeroed row and column,
so matrices stay N x N and downstream support-restricted functionals remain
finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Basis weights below this are zeroed out (rank-deficient limit eta -> 1).
DEGENERACY_CUTOFF = 1e-14

#: Circular distance min(|s - t|, N - |s - t|) of two phase indices, by N.
_DISTANCE = {n: np.array([[min((s - t) % n, (t - s) % n) for t in range(n)] for s in range(n)])
            for n in (2, 4)}


@dataclass(frozen=True)
class ProtocolParams:
    """Modulation size (2 or 4), coherent amplitude and channel transmittance."""

    n_states: int
    alpha: float
    eta: float

    def __post_init__(self):
        if self.n_states not in (2, 4):
            raise ValueError(f"n_states must be 2 (BPSK) or 4 (QPSK), got {self.n_states}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (math.isfinite(self.eta) and 0.0 <= self.eta <= 1.0):
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")

    @property
    def gamma(self) -> float:
        """Amplitude of the state leaked to the eavesdropper."""
        return math.sqrt(1.0 - self.eta) * self.alpha

    @property
    def contrast(self) -> float:
        """r = P_+ - P_-: erf(sqrt(2 eta) alpha) homodyne, erf(sqrt(eta/2) alpha) per quadrature."""
        scale = 2.0 * self.eta if self.n_states == 2 else self.eta / 2.0
        return math.erf(math.sqrt(scale) * self.alpha)


def cond_prob_table(params: ProtocolParams) -> np.ndarray:
    """Column-stochastic p[y][x] = P_+^(N/2 - d) P_-^d, P_pm = (1 +- r)/2, d = d(y, x)."""
    r = params.contrast
    half = params.n_states // 2
    p_plus, p_minus = (1.0 + r) / 2.0, (1.0 - r) / 2.0
    entries = np.array([p_plus ** (half - d) * p_minus**d for d in range(half + 1)])
    table = entries[_DISTANCE[params.n_states]]
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class CQEnsemble:
    """Eve's ensemble as ``rho0`` = rho_{E|0}, real and exactly symmetric (real kernels read it).

    Bob's y is uniform and rho_{E|y} = U_y rho0 U_y^dag, so every conditional
    state has the spectrum of ``rho0``, as the one-term symmetry reduction of
    the entropies needs; their mixture rho_E is diag(rho0) = ``avg_diag``.
    """

    params: ProtocolParams
    rho0: np.ndarray

    def __post_init__(self):
        n = self.params.n_states
        if self.rho0.shape != (n, n):
            raise ValueError("rho0 does not match the modulation size")
        if self.rho0.dtype != np.float64 or not (self.rho0 == self.rho0.T).all():
            raise ValueError("rho0 must be real and exactly symmetric")
        if abs(self.rho0.trace() - 1.0) > 1e-10:
            raise ValueError("conditional state trace differs from 1")
        if np.linalg.eigvalsh(self.rho0)[0] < -1e-10:
            raise ValueError("conditional state is not positive semidefinite")

    @property
    def n_states(self) -> int:
        return self.params.n_states

    @property
    def avg_diag(self) -> np.ndarray:
        """diag(rho_E) = diag(rho0), Eve's basis weights m (a read-only view)."""
        return np.diagonal(self.rho0)


def build_ensemble(params: ProtocolParams) -> CQEnsemble:
    """Eve's ensemble: rho0[s, s'] = r^d(s, s') G[s, s'] with G the Gram factor of sqrt(m)."""
    gamma = params.gamma
    if params.n_states == 2:
        c_plus = 1.0 + math.exp(-2.0 * gamma * gamma)
        c_minus = -math.expm1(-2.0 * gamma * gamma)
        m = np.array([c_plus / 2.0, c_minus / 2.0 if c_minus >= DEGENERACY_CUTOFF else 0.0])
        # sqrt(m m^T) is c_pm/2 on the diagonal and sqrt(c_+ c_-)/2 off it,
        # bit for bit; sqrt(m) sqrt(m)^T rounds its diagonal
        gram = np.sqrt(m[:, None] * m)
    else:
        g2 = gamma * gamma
        s = np.arange(4)
        norms = 1.0 + np.exp(-2.0 * g2) * np.cos(np.pi * s) + 2.0 * np.exp(-g2) * np.cos(g2 + np.pi * s / 2.0)
        m = np.where(norms < DEGENERACY_CUTOFF, 0.0, norms) / 4.0
        # sqrt(m) sqrt(m)^T is the product w_s w_s' of the weights w = sqrt(m)
        # that the QPSK values were computed with; sqrt(m m^T) rounds otherwise
        gram = np.sqrt(m)[:, None] * np.sqrt(m)
    r = params.contrast
    powers = np.array([r**d for d in range(params.n_states // 2 + 1)])  # libm pow, not numpy's
    rho0 = powers[_DISTANCE[params.n_states]] * gram
    rho0.setflags(write=False)
    return CQEnsemble(params=params, rho0=rho0)
