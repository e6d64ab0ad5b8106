import math

import numpy as np
import pytest

from pskrates.oracles import erf_oracle
from pskrates.states import (
    CQEnsemble,
    ProtocolParams,
    build_bpsk_ensemble,
    build_ensemble,
    build_qpsk_ensemble,
    cond_prob_bpsk,
    cond_prob_qpsk,
    cond_prob_table,
    symmetry_group,
)

from conftest import philox_rng, random_protocol


def coherent_overlap(beta1: complex, beta2: complex) -> complex:
    """<beta1|beta2> for coherent states."""
    return np.exp(-0.5 * (abs(beta1) ** 2 + abs(beta2) ** 2 - 2.0 * np.conj(beta1) * beta2))


class TestProtocolParams:
    def test_rejects_bad_modulation(self):
        with pytest.raises(ValueError, match="n_states"):
            ProtocolParams(n_states=3, alpha=1.0, eta=0.5)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            ProtocolParams(n_states=2, alpha=-0.1, eta=0.5)

    def test_rejects_eta_outside_unit_interval(self):
        with pytest.raises(ValueError, match="eta"):
            ProtocolParams(n_states=2, alpha=1.0, eta=1.5)

    def test_boundaries_accepted_exactly(self):
        ProtocolParams(n_states=2, alpha=0.0, eta=0.0)
        ProtocolParams(n_states=4, alpha=0.0, eta=1.0)


class TestCondProb:
    def test_bpsk_no_signal_is_uniform(self):
        for params in (ProtocolParams(2, 0.0, 0.7), ProtocolParams(2, 1.3, 0.0)):
            assert np.allclose(cond_prob_bpsk(params), 0.5, atol=1e-15)

    def test_qpsk_no_signal_is_uniform(self):
        for params in (ProtocolParams(4, 0.0, 0.7), ProtocolParams(4, 1.3, 0.0)):
            assert np.allclose(cond_prob_qpsk(params), 0.25, atol=1e-15)

    def test_bpsk_against_erf_oracle(self):
        table = cond_prob_bpsk(ProtocolParams(2, 1.0, 0.9))
        p_same = (1.0 + erf_oracle(math.sqrt(1.8))) / 2.0
        assert abs(p_same - 0.9711102144382014) < 1e-12  # frozen from the oracle
        assert abs(table[0, 0] - p_same) <= 1e-15
        assert abs(table[1, 1] - p_same) <= 1e-15
        assert abs(table[1, 0] - (1.0 - p_same)) <= 1e-15

    def test_qpsk_against_erf_oracle(self):
        table = cond_prob_qpsk(ProtocolParams(4, 1.0, 0.9))
        p_plus = (1.0 + erf_oracle(math.sqrt(0.45))) / 2.0
        assert abs(p_plus - 0.8286091444260444) < 1e-12  # frozen from the oracle
        for k in range(4):
            assert abs(table[k, k] - p_plus**2) <= 1e-15
            assert abs(table[(k + 2) % 4, k] - (1.0 - p_plus) ** 2) <= 1e-15
            assert abs(table[(k + 1) % 4, k] - p_plus * (1.0 - p_plus)) <= 1e-15

    def test_column_stochastic_on_random_grid(self):
        rng = philox_rng(201)
        for _ in range(1000):
            for n_states in (2, 4):
                table = cond_prob_table(random_protocol(rng, n_states))
                assert np.abs(table.sum(axis=0) - 1.0).max() <= 1e-12
                assert (table >= 0.0).all() and (table <= 1.0).all()

    def test_modulation_guards(self):
        with pytest.raises(ValueError):
            cond_prob_bpsk(ProtocolParams(4, 1.0, 0.5))
        with pytest.raises(ValueError):
            cond_prob_qpsk(ProtocolParams(2, 1.0, 0.5))


class TestEnsembles:
    def test_invariants_on_random_grid(self):
        rng = philox_rng(202)
        for _ in range(1000):
            for n_states in (2, 4):
                ensemble = build_ensemble(random_protocol(rng, n_states))
                mix = sum(p * rho for p, rho in
                          zip(ensemble.probs, ensemble.cond_states))
                assert np.abs(mix - ensemble.avg_state).max() <= 1e-12
                off = ensemble.avg_state - np.diag(np.diag(ensemble.avg_state))
                assert np.abs(off).max() <= 1e-12
                for rho in ensemble.cond_states:
                    assert abs(np.trace(rho).real - 1.0) <= 1e-10
                    assert np.linalg.eigvalsh(rho).min() >= -1e-10

    def test_bpsk_offdiagonal_by_direct_substitution(self):
        ensemble = build_bpsk_ensemble(ProtocolParams(2, 1.0, 0.9))
        c_plus = 1.0 + math.exp(-0.2)
        c_minus = 1.0 - math.exp(-0.2)
        expected = erf_oracle(math.sqrt(1.8)) * math.sqrt(c_plus * c_minus) / 2.0
        assert abs(ensemble.cond_states[0][0, 1] - expected) <= 1e-12
        assert abs(ensemble.cond_states[1][0, 1] + expected) <= 1e-12
        assert abs(ensemble.avg_state[0, 0] - c_plus / 2.0) <= 1e-14
        assert abs(ensemble.avg_state[1, 1] - c_minus / 2.0) <= 1e-14

    def test_bpsk_lossless_channel_leaves_vacuum(self):
        ensemble = build_bpsk_ensemble(ProtocolParams(2, 1.0, 1.0))
        vacuum = np.diag([1.0, 0.0])
        for rho in ensemble.cond_states:
            assert np.abs(rho - vacuum).max() <= 1e-14

    def test_bpsk_unmodulated_states_coincide(self):
        ensemble = build_bpsk_ensemble(ProtocolParams(2, 0.0, 0.3))
        assert np.abs(ensemble.cond_states[0] - ensemble.avg_state).max() <= 1e-14
        assert np.abs(ensemble.cond_states[1] - ensemble.avg_state).max() <= 1e-14

    def test_bpsk_reconstructed_coherent_gram_matrix(self):
        # rebuild |+-gamma> from the stored basis and compare Gram matrices
        # with the coherent-state overlap formula
        params = ProtocolParams(2, 1.4, 0.6)
        gamma = params.gamma
        c_plus = 1.0 + math.exp(-2.0 * gamma**2)
        c_minus = 1.0 - math.exp(-2.0 * gamma**2)
        plus = np.array([math.sqrt(c_plus), math.sqrt(c_minus)]) / math.sqrt(2.0)
        minus = np.array([math.sqrt(c_plus), -math.sqrt(c_minus)]) / math.sqrt(2.0)
        gram = np.array([[plus @ plus, plus @ minus], [minus @ plus, minus @ minus]])
        expected = np.array(
            [[coherent_overlap(gamma, gamma), coherent_overlap(gamma, -gamma)],
             [coherent_overlap(-gamma, gamma), coherent_overlap(-gamma, -gamma)]])
        assert np.abs(gram - expected).max() <= 1e-12
        # the difference identity: (|g><g| - |-g><-g|)/2 has only the
        # off-diagonal sqrt(c+ c-)/2 part in the stored basis
        diff = (np.outer(plus, plus) - np.outer(minus, minus)) / 2.0
        expected_diff = (math.sqrt(c_plus * c_minus) / 2.0) * np.array([[0., 1.], [1., 0.]])
        assert np.abs(diff - expected_diff).max() <= 1e-12

    def test_qpsk_average_diagonal_from_gram_oracle(self):
        # independent normalization: 1/N_s^2 as a phase-weighted Gram sum of
        # the four leaked coherent states
        params = ProtocolParams(4, 1.0, 0.9)
        ensemble = build_qpsk_ensemble(params)
        gammas = [1j**k * np.exp(1j * np.pi / 4.0) * params.gamma for k in range(4)]
        gram = np.array([[coherent_overlap(g1, g2) for g2 in gammas] for g1 in gammas])
        for s in range(4):
            weighted = sum(np.exp(-1j * np.pi * s * (j - k) / 2.0) * gram[j, k]
                           for j in range(4) for k in range(4)) / 4.0
            assert abs(ensemble.avg_state[s, s].real - weighted.real / 4.0) <= 1e-12
        assert abs(np.trace(ensemble.avg_state).real - 1.0) <= 1e-14

    def test_qpsk_lossless_channel_single_projector(self):
        ensemble = build_qpsk_ensemble(ProtocolParams(4, 1.0, 1.0))
        first = ensemble.cond_states[0]
        lam = np.linalg.eigvalsh(first)
        assert abs(lam[-1] - 1.0) <= 1e-12 and np.abs(lam[:-1]).max() <= 1e-12
        for rho in ensemble.cond_states[1:]:
            assert np.abs(rho - first).max() <= 1e-12

    def test_rejects_inconsistent_direct_construction(self):
        params = ProtocolParams(2, 1.0, 0.5)
        good = build_bpsk_ensemble(params)
        with pytest.raises(ValueError, match="mixture"):
            CQEnsemble(params=params, probs=good.probs,
                       cond_states=(good.cond_states[0], good.cond_states[0]),
                       avg_state=good.avg_state)


class TestSymmetryGroup:
    def test_identity_element(self):
        group = symmetry_group(build_ensemble(ProtocolParams(2, 0.8, 0.4)))
        assert np.abs(group.unitaries[0] - np.eye(2)).max() == 0.0

    def test_bpsk_parity_maps_states(self):
        ensemble = build_ensemble(ProtocolParams(2, 1.1, 0.7))
        u1 = symmetry_group(ensemble).unitaries[1]
        mapped = u1 @ ensemble.cond_states[0] @ u1.conj().T
        assert np.abs(mapped - ensemble.cond_states[1]).max() <= 1e-12

    def test_qpsk_rotation_by_matrix_multiplication(self):
        ensemble = build_ensemble(ProtocolParams(4, 1.0, 0.9))
        u1 = symmetry_group(ensemble).unitaries[1]
        mapped = u1 @ ensemble.cond_states[2] @ u1.conj().T
        assert np.abs(mapped - ensemble.cond_states[3]).max() <= 1e-10

    def test_group_invariants_on_random_grid(self):
        rng = philox_rng(203)
        for _ in range(100):
            for n_states in (2, 4):
                ensemble = build_ensemble(random_protocol(rng, n_states))
                group = symmetry_group(ensemble)
                for t, u in enumerate(group.unitaries):
                    assert np.abs(u @ u.conj().T - np.eye(n_states)).max() <= 1e-12
                    avg = u @ ensemble.avg_state @ u.conj().T
                    assert np.abs(avg - ensemble.avg_state).max() <= 1e-10
                    for y in range(n_states):
                        mapped = u @ ensemble.cond_states[y] @ u.conj().T
                        target = ensemble.cond_states[(y + t) % n_states]
                        assert np.abs(mapped - target).max() <= 1e-10

    def test_unequal_spectra_are_rejected(self):
        # averages correctly, but the states are not unitarily equivalent
        params = ProtocolParams(2, 1.0, 0.5)
        states = (np.diag([0.9, 0.1]).astype(complex), np.diag([0.5, 0.5]).astype(complex))
        with pytest.raises(ValueError, match="unitarily equivalent"):
            CQEnsemble(params=params, probs=np.full(2, 0.5), cond_states=states,
                       avg_state=np.diag([0.7, 0.3]).astype(complex))

    def test_symmetry_violation_is_signaled(self):
        # diagonal states that average correctly but are not phase-related
        params = ProtocolParams(4, 1.0, 0.5)
        states = (np.diag([0.4, 0.6, 0.0, 0.0]).astype(complex),
                  np.diag([0.6, 0.4, 0.0, 0.0]).astype(complex),
                  np.diag([0.4, 0.6, 0.0, 0.0]).astype(complex),
                  np.diag([0.6, 0.4, 0.0, 0.0]).astype(complex))
        broken = CQEnsemble(params=params, probs=np.full(4, 0.25),
                            cond_states=states,
                            avg_state=np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
        with pytest.raises(ValueError, match="symmetry violated"):
            symmetry_group(broken)
