"""Constellations, detection statistics and Eve's conditional states.

Alice sends one of N phase-shifted coherent states through a pure-loss
channel of transmittance eta; Bob keeps the transmitted part and decodes by
homodyne (N=2) or heterodyne (N=4) detection, while a passive eavesdropper
holds the reflected amplitude gamma = sqrt(1-eta)*alpha. This module builds
the conditional probability tables p(y|x) and the classical-quantum
ensemble of Eve's states in a finite orthonormal basis. In both bases Eve's
state given symbol y is rho_{E|y} = U_y rho_{E|0} U_y^dag with
U_y = diag_s(exp(-2 pi i s y / N)), so only rho_{E|0} and diag(rho_E) are
stored.

Basis conventions (fixed so stored matrices are bit-reproducible):

* N=2: psi_pm basis, |psi_+-> = (|gamma> +- |-gamma>)/sqrt(2 c_pm) with
  c_pm = 1 +- exp(-2 gamma^2), ordered (+, -).
* N=4: psi_s basis, s = 0..3, |psi_s> proportional to
  sum_k exp(+i pi s k / 2) |gamma_k> with 1/N_s^2 = 1 + exp(-2 gamma^2)
  cos(pi s) + 2 exp(-gamma^2) cos(gamma^2 + pi s / 2). With this pairing
  the conditional states carry phases exp(-i pi (s - s') k / 2).

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


def cond_prob_bpsk(params: ProtocolParams) -> np.ndarray:
    """Binary table p[y][x] for homodyne decoding of the two-state protocol.

    p(y=x|x) = (1 + erf(sqrt(2 eta) alpha)) / 2 and complementary otherwise;
    columns sum to one.
    """
    if params.n_states != 2:
        raise ValueError("cond_prob_bpsk requires n_states == 2")
    r = math.erf(math.sqrt(2.0 * params.eta) * params.alpha)
    same, diff = (1.0 + r) / 2.0, (1.0 - r) / 2.0
    table = np.array([[same, diff], [diff, same]])
    table.setflags(write=False)
    return table


def cond_prob_qpsk(params: ProtocolParams) -> np.ndarray:
    """4x4 table p[y][k] for quadrant-discretized heterodyne decoding.

    With P_pm = (1 +- erf(sqrt(eta/2) alpha)) / 2 the table is the circulant
    with P_+^2 on the diagonal, P_-^2 at offset 2 and P_+ P_- elsewhere.
    """
    if params.n_states != 4:
        raise ValueError("cond_prob_qpsk requires n_states == 4")
    r = math.erf(math.sqrt(params.eta / 2.0) * params.alpha)
    p_plus, p_minus = (1.0 + r) / 2.0, (1.0 - r) / 2.0
    entry = {0: p_plus**2, 2: p_minus**2, 1: p_plus * p_minus, 3: p_plus * p_minus}
    table = np.array([[entry[(y - k) % 4] for k in range(4)] for y in range(4)])
    table.setflags(write=False)
    return table


def cond_prob_table(params: ProtocolParams) -> np.ndarray:
    """Conditional probability table for either protocol."""
    return cond_prob_bpsk(params) if params.n_states == 2 else cond_prob_qpsk(params)


@dataclass(frozen=True, eq=False)
class CQEnsemble:
    """Eve's classical-quantum ensemble: ``rho0`` = rho_{E|0} and diag(rho_E).

    Bob's symbol y is uniform and rho_{E|y} = U_y rho_{E|0} U_y^dag, so every
    conditional state has the spectrum of ``rho0``, as the one-term symmetry
    reduction of the entropies needs. Their mixture rho_E is the pinching of
    ``rho0``: diagonal, with ``avg_diag`` = diag(rho0). Both are read-only.
    """

    params: ProtocolParams
    rho0: np.ndarray
    avg_diag: np.ndarray

    def __post_init__(self):
        n = self.params.n_states
        if self.rho0.shape != (n, n) or self.avg_diag.shape != (n,):
            raise ValueError("ensemble arrays do not match the modulation size")
        if np.abs(self.avg_diag - np.diag(self.rho0).real).max() > 1e-12:
            raise ValueError("avg_diag is not the diagonal of the mixture, diag(rho0)")
        if abs(np.trace(self.rho0).real - 1.0) > 1e-10:
            raise ValueError("conditional state trace differs from 1")
        if np.linalg.eigvalsh(self.rho0)[0] < -1e-10:
            raise ValueError("conditional state is not positive semidefinite")

    @property
    def n_states(self) -> int:
        return self.params.n_states


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def build_bpsk_ensemble(params: ProtocolParams) -> CQEnsemble:
    """Two-state ensemble in the psi_pm basis.

    Eve's conditional states are (1/2)[c_+ |+><+| + c_- |-><-|
    +- erf(sqrt(2 eta) alpha) sqrt(c_+ c_-) (|+><-| + h.c.)], the + sign
    for y = 0, and the average is diag(c_+, c_-)/2.
    """
    if params.n_states != 2:
        raise ValueError("build_bpsk_ensemble requires n_states == 2")
    gamma = params.gamma
    c_plus = 1.0 + math.exp(-2.0 * gamma * gamma)
    c_minus = -math.expm1(-2.0 * gamma * gamma)
    if c_minus < DEGENERACY_CUTOFF:
        c_minus = 0.0
    r = math.erf(math.sqrt(2.0 * params.eta) * params.alpha)
    off = r * math.sqrt(c_plus * c_minus) / 2.0
    rho0 = np.array([[c_plus / 2.0, off], [off, c_minus / 2.0]], dtype=complex)
    return CQEnsemble(params=params, rho0=_freeze(rho0),
                      avg_diag=_freeze(np.array([c_plus / 2.0, c_minus / 2.0])))


def build_qpsk_ensemble(params: ProtocolParams) -> CQEnsemble:
    """Four-state ensemble in the psi_s basis.

    With w_s = sqrt(1/N_s^2)/2 the conditional state of y = 0 is
    rho[s, s'] = w_s w_s' sum_k p(0|k) exp(-i pi (s - s') k / 2) and the
    average is diag(1/(4 N_s^2)).
    """
    if params.n_states != 4:
        raise ValueError("build_qpsk_ensemble requires n_states == 4")
    gamma = params.gamma
    g2 = gamma * gamma
    s = np.arange(4)
    norms = 1.0 + np.exp(-2.0 * g2) * np.cos(np.pi * s) + 2.0 * np.exp(-g2) * np.cos(g2 + np.pi * s / 2.0)
    norms = np.where(norms < DEGENERACY_CUTOFF, 0.0, norms)
    weights = np.sqrt(norms) / 2.0
    phases = np.exp(-1j * np.pi * np.outer(s, np.arange(4)) / 2.0)
    rho0 = np.outer(weights, weights) * ((phases * cond_prob_qpsk(params)[0]) @ phases.conj().T)
    return CQEnsemble(params=params, rho0=_freeze(rho0), avg_diag=_freeze(norms / 4.0))


def build_ensemble(params: ProtocolParams) -> CQEnsemble:
    """Ensemble for either protocol."""
    return build_bpsk_ensemble(params) if params.n_states == 2 else build_qpsk_ensemble(params)
