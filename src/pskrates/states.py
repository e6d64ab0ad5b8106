"""Constellations, detection statistics and Eve's conditional states.

Alice sends one of N phase-shifted coherent states through a pure-loss
channel of transmittance eta; Bob keeps the transmitted part and decodes by
homodyne (N=2) or heterodyne (N=4) detection, while a passive eavesdropper
holds the reflected amplitude gamma = sqrt(1-eta)*alpha. This module builds
the conditional probability tables p(y|x) and the classical-quantum
ensemble of Eve's states in a finite orthonormal basis.

Basis conventions (fixed so stored matrices are bit-reproducible):

* N=2: psi_pm basis, |psi_+-> = (|gamma> +- |-gamma>)/sqrt(2 c_pm) with
  c_pm = 1 +- exp(-2 gamma^2), ordered (+, -).
* N=4: psi_s basis, s = 0..3, |psi_s> proportional to
  sum_k exp(+i pi s k / 2) |gamma_k> with 1/N_s^2 = 1 + exp(-2 gamma^2)
  cos(pi s) + 2 exp(-gamma^2) cos(gamma^2 + pi s / 2). With this pairing
  the conditional states carry phases exp(-i pi (s - s') k / 2) and the
  symmetry unitaries are diag_s(exp(-2 pi i s t / N)).

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

_ENSEMBLE_ATOL = 1e-10


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
    """Eve's classical-quantum ensemble in the stored orthonormal basis.

    ``cond_states[y]`` is Eve's state given Bob's symbol y, ``probs`` the
    (uniform) symbol distribution and ``avg_state`` their mixture, diagonal
    in the stored basis. All arrays are read-only. Construction rejects
    conditional states with different spectra, on which the one-term
    symmetry reduction of the entropies would be wrong.
    """

    params: ProtocolParams
    probs: np.ndarray
    cond_states: tuple
    avg_state: np.ndarray

    def __post_init__(self):
        n = self.params.n_states
        if len(self.cond_states) != n or self.avg_state.shape != (n, n):
            raise ValueError("ensemble arrays do not match the modulation size")
        mix = sum(p * rho for p, rho in zip(self.probs, self.cond_states))
        if np.abs(mix - self.avg_state).max() > 1e-12:
            raise ValueError("average state is not the mixture of the conditional states")
        off = self.avg_state - np.diag(np.diag(self.avg_state))
        if np.abs(off).max() > 1e-12:
            raise ValueError("average state is not diagonal in the stored basis")
        states = np.array(self.cond_states)
        if np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0).max() > _ENSEMBLE_ATOL:
            raise ValueError("conditional state trace differs from 1")
        spectra = np.linalg.eigvalsh(states)
        if spectra.min() < -_ENSEMBLE_ATOL:
            raise ValueError("conditional state is not positive semidefinite")
        # The reduced entropy formulas use rho_{E|0} alone, which needs all
        # conditional states unitarily equivalent: matching spectra are a
        # cheap necessary condition. ``symmetry_group`` checks the rest.
        if np.abs(spectra - spectra[0]).max() > 1e-9:
            raise ValueError("conditional states are not unitarily equivalent; "
                             "the symmetry reduction does not apply")

    @property
    def n_states(self) -> int:
        return self.params.n_states

    @property
    def dim(self) -> int:
        return self.avg_state.shape[0]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def build_bpsk_ensemble(params: ProtocolParams) -> CQEnsemble:
    """Two-state ensemble in the psi_pm basis.

    Eve's conditional states are (1/2)[c_+ |+><+| + c_- |-><-|
    +- erf(sqrt(2 eta) alpha) sqrt(c_+ c_-) (|+><-| + h.c.)] and the average
    is diag(c_+, c_-)/2.
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
    rho1 = np.array([[c_plus / 2.0, -off], [-off, c_minus / 2.0]], dtype=complex)
    avg = np.diag([c_plus / 2.0, c_minus / 2.0]).astype(complex)
    return CQEnsemble(
        params=params,
        probs=_freeze(np.full(2, 0.5)),
        cond_states=(_freeze(rho0), _freeze(rho1)),
        avg_state=_freeze(avg),
    )


def build_qpsk_ensemble(params: ProtocolParams) -> CQEnsemble:
    """Four-state ensemble in the psi_s basis.

    With w_s = sqrt(1/N_s^2)/2 the conditional states are
    rho[s, s'] = w_s w_s' sum_k p(y|k) exp(-i pi (s - s') k / 2) and the
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
    table = cond_prob_qpsk(params)
    outer = np.outer(weights, weights)
    states = tuple(
        _freeze(outer * ((phases * table[y]) @ phases.conj().T)) for y in range(4)
    )
    avg = np.diag(norms / 4.0).astype(complex)
    return CQEnsemble(
        params=params,
        probs=_freeze(np.full(4, 0.25)),
        cond_states=states,
        avg_state=_freeze(avg),
    )


def build_ensemble(params: ProtocolParams) -> CQEnsemble:
    """Ensemble for either protocol."""
    return build_bpsk_ensemble(params) if params.n_states == 2 else build_qpsk_ensemble(params)


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
