import math

import numpy as np
import pytest

from pskrates.entropies import BpskClosedFormInputs
from pskrates.oracles import erf_oracle
from pskrates.rates import leak
from pskrates.states import CQEnsemble, ProtocolParams, build_ensemble, cond_prob_table

from conftest import philox_rng, random_protocol
from reference import (build_bpsk_ensemble, build_qpsk_ensemble, cond_prob_bpsk, cond_prob_qpsk,
                       conditional_states, leak_bpsk, leak_qpsk, symmetry_group)

#: alpha x eta corners of the one-model checks, beside random points.
CORNERS = [(alpha, eta) for alpha in (0.0, 1e-6, 10.0) for eta in (0.0, 1e-9, 1.0 - 1e-9, 1.0)]


def model_points(seed: int, n_states: int, count: int = 200) -> list[ProtocolParams]:
    rng = philox_rng(seed)
    return ([ProtocolParams(n_states, alpha, eta) for alpha, eta in CORNERS]
            + [random_protocol(rng, n_states) for _ in range(count)])


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
            assert np.allclose(cond_prob_table(params), 0.5, atol=1e-15)

    def test_qpsk_no_signal_is_uniform(self):
        for params in (ProtocolParams(4, 0.0, 0.7), ProtocolParams(4, 1.3, 0.0)):
            assert np.allclose(cond_prob_table(params), 0.25, atol=1e-15)

    def test_bpsk_against_erf_oracle(self):
        table = cond_prob_table(ProtocolParams(2, 1.0, 0.9))
        p_same = (1.0 + erf_oracle(math.sqrt(1.8))) / 2.0
        assert abs(p_same - 0.9711102144382014) < 1e-12  # frozen from the oracle
        assert abs(table[0, 0] - p_same) <= 1e-15
        assert abs(table[1, 1] - p_same) <= 1e-15
        assert abs(table[1, 0] - (1.0 - p_same)) <= 1e-15

    def test_qpsk_against_erf_oracle(self):
        table = cond_prob_table(ProtocolParams(4, 1.0, 0.9))
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


class TestOneModel:
    """The contrast-based tables, leaks and real rho_{E|0} against the per-protocol formulas."""

    @pytest.mark.parametrize("n_states", [2, 4])
    def test_tables_and_leaks_are_bit_identical(self, n_states):
        table_ref, leak_ref = {2: (cond_prob_bpsk, leak_bpsk),
                               4: (cond_prob_qpsk, leak_qpsk)}[n_states]
        for params in model_points(204, n_states):
            assert np.array_equal(cond_prob_table(params), table_ref(params))
            assert leak(params) == leak_ref(params)

    def test_bpsk_closed_form_inputs_are_bit_identical(self):
        for params in model_points(205, 2):
            if params.eta > 1.0 - 1e-9:
                continue
            s = BpskClosedFormInputs.from_params(params)
            r = math.erf(math.sqrt(2.0 * params.eta) * params.alpha)
            kappa = math.exp(2.0 * params.alpha**2 * (params.eta - 1.0))
            g = math.sqrt(1.0 + (kappa**-2 - 1.0) * r * r)
            assert (s.kappa, s.r, s.g) == (kappa, r, g)
            assert s.theta == math.atanh(min(kappa * g, 1.0 - 1e-15))

    def test_bpsk_ensemble_is_bit_identical(self):
        for params in model_points(206, 2):
            ensemble = build_ensemble(params)
            rho0, avg_diag = build_bpsk_ensemble(params)
            assert np.array_equal(ensemble.rho0, rho0.real) and not rho0.imag.any()
            assert np.array_equal(ensemble.avg_diag, avg_diag)

    def test_qpsk_ensemble_matches_the_phase_sum(self):
        for params in model_points(207, 4):
            ensemble = build_ensemble(params)
            rho0, avg_diag = build_qpsk_ensemble(params)
            assert np.abs(ensemble.rho0 - rho0).max() <= 4e-16
            assert np.abs(ensemble.avg_diag - avg_diag).max() <= 4e-16

    @pytest.mark.parametrize("n_states", [2, 4])
    def test_rho0_is_real_and_exactly_symmetric(self, n_states):
        for params in model_points(208, n_states):
            rho0 = build_ensemble(params).rho0
            assert rho0.dtype == np.float64 and np.array_equal(rho0, rho0.T)
            assert not rho0.flags.writeable
            assert np.abs(conditional_states(params)[0] - rho0).max() <= 1e-15

    def test_contrast_is_one_erf_per_decision(self):
        assert ProtocolParams(2, 1.0, 0.9).contrast == math.erf(math.sqrt(1.8))
        assert ProtocolParams(4, 1.0, 0.9).contrast == math.erf(math.sqrt(0.45))
        assert ProtocolParams(4, 0.0, 0.9).contrast == ProtocolParams(2, 1.0, 0.0).contrast == 0.0


class TestEnsembles:
    def test_invariants_on_random_grid(self):
        rng = philox_rng(202)
        for _ in range(1000):
            for n_states in (2, 4):
                params = random_protocol(rng, n_states)
                ensemble = build_ensemble(params)
                states = conditional_states(params)
                assert np.abs(sum(states) / n_states - np.diag(ensemble.avg_diag)).max() <= 1e-12
                assert np.abs(states[0] - ensemble.rho0).max() <= 1e-15
                for rho in states:
                    assert abs(np.trace(rho).real - 1.0) <= 1e-10
                    assert np.linalg.eigvalsh(rho).min() >= -1e-10

    def test_bpsk_offdiagonal_by_direct_substitution(self):
        params = ProtocolParams(2, 1.0, 0.9)
        ensemble = build_ensemble(params)
        c_plus = 1.0 + math.exp(-0.2)
        c_minus = 1.0 - math.exp(-0.2)
        expected = erf_oracle(math.sqrt(1.8)) * math.sqrt(c_plus * c_minus) / 2.0
        assert abs(ensemble.rho0[0, 1] - expected) <= 1e-12
        assert abs(conditional_states(params)[1][0, 1] + expected) <= 1e-12
        assert abs(ensemble.avg_diag[0] - c_plus / 2.0) <= 1e-14
        assert abs(ensemble.avg_diag[1] - c_minus / 2.0) <= 1e-14

    def test_bpsk_lossless_channel_leaves_vacuum(self):
        params = ProtocolParams(2, 1.0, 1.0)
        vacuum = np.diag([1.0, 0.0])
        for rho in (build_ensemble(params).rho0, *conditional_states(params)):
            assert np.abs(rho - vacuum).max() <= 1e-14

    def test_bpsk_unmodulated_states_coincide(self):
        params = ProtocolParams(2, 0.0, 0.3)
        avg = np.diag(build_ensemble(params).avg_diag)
        for rho in conditional_states(params):
            assert np.abs(rho - avg).max() <= 1e-14

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
        ensemble = build_ensemble(params)
        gammas = [1j**k * np.exp(1j * np.pi / 4.0) * params.gamma for k in range(4)]
        gram = np.array([[coherent_overlap(g1, g2) for g2 in gammas] for g1 in gammas])
        for s in range(4):
            weighted = sum(np.exp(-1j * np.pi * s * (j - k) / 2.0) * gram[j, k]
                           for j in range(4) for k in range(4)) / 4.0
            assert abs(ensemble.avg_diag[s] - weighted.real / 4.0) <= 1e-12
        assert abs(ensemble.avg_diag.sum() - 1.0) <= 1e-14

    def test_qpsk_lossless_channel_single_projector(self):
        params = ProtocolParams(4, 1.0, 1.0)
        first = build_ensemble(params).rho0
        lam = np.linalg.eigvalsh(first)
        assert abs(lam[-1] - 1.0) <= 1e-12 and np.abs(lam[:-1]).max() <= 1e-12
        for rho in conditional_states(params):
            assert np.abs(rho - first).max() <= 1e-12

    # rho_{E|0} is all a CQEnsemble holds, and its diagonal is rho_E's;
    # conditional states with unequal spectra cannot be represented at all.
    @pytest.mark.parametrize("rho0, match", [
        (np.eye(4) / 4.0, "modulation size"),
        (np.eye(2) * 0.6, "trace"),
        (np.array([[0.5, 0.6], [0.6, 0.5]]), "positive semidefinite"),
        (np.array([[0.6, 0.2j], [-0.2j, 0.4]]), "real"),
        (np.eye(2).astype(complex) / 2.0, "real"),
        (np.array([[0.6, 0.2], [np.nextafter(0.2, 1.0), 0.4]]), "symmetric"),
    ], ids=["rho0-shape", "trace", "negative-eigenvalue", "complex", "complex-dtype",
            "asymmetric"])
    def test_rejects_inconsistent_stored_data(self, rho0, match):
        with pytest.raises(ValueError, match=match):
            CQEnsemble(params=ProtocolParams(2, 1.0, 0.5), rho0=rho0)


class TestSymmetryGroup:
    def test_identity_element(self):
        group = symmetry_group(build_ensemble(ProtocolParams(2, 0.8, 0.4)))
        assert np.abs(group.unitaries[0] - np.eye(2)).max() == 0.0

    def test_bpsk_parity_maps_states(self):
        params = ProtocolParams(2, 1.1, 0.7)
        ensemble = build_ensemble(params)
        u1 = symmetry_group(ensemble).unitaries[1]
        mapped = u1 @ ensemble.rho0 @ u1.conj().T
        assert np.abs(mapped - conditional_states(params)[1]).max() <= 1e-12

    def test_qpsk_rotation_by_matrix_multiplication(self):
        params = ProtocolParams(4, 1.0, 0.9)
        states = conditional_states(params)
        u1 = symmetry_group(build_ensemble(params)).unitaries[1]
        mapped = u1 @ states[2] @ u1.conj().T
        assert np.abs(mapped - states[3]).max() <= 1e-10

    def test_group_invariants_on_random_grid(self):
        rng = philox_rng(203)
        for _ in range(100):
            for n_states in (2, 4):
                params = random_protocol(rng, n_states)
                ensemble = build_ensemble(params)
                states = conditional_states(params)
                group = symmetry_group(ensemble)
                avg = np.diag(ensemble.avg_diag)
                for t, u in enumerate(group.unitaries):
                    assert np.abs(u @ u.conj().T - np.eye(n_states)).max() <= 1e-12
                    assert np.abs(u @ avg @ u.conj().T - avg).max() <= 1e-10
                    for y in range(n_states):
                        mapped = u @ states[y] @ u.conj().T
                        target = states[(y + t) % n_states]
                        assert np.abs(mapped - target).max() <= 1e-10

    def test_symmetry_violation_is_signaled(self):
        # diagonal states that average correctly but are not phase-related
        ensemble = build_ensemble(ProtocolParams(4, 1.0, 0.5))
        states = [np.diag(d).astype(complex) for d in
                  ([0.4, 0.6, 0.0, 0.0], [0.6, 0.4, 0.0, 0.0]) * 2]
        with pytest.raises(ValueError, match="symmetry violated"):
            symmetry_group(ensemble, states)
