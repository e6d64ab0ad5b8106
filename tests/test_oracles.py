import math

import numpy as np
import pytest

import pskrates.entropies as entropies
from pskrates.oracles import (
    McConfig,
    duality_suite,
    erf_oracle,
    marginal_pair,
    sample_heterodyne_qpsk,
    sample_homodyne_bpsk,
)
from pskrates.linalg import random_pure_tripartite
from pskrates.states import ProtocolParams, build_ensemble, cond_prob_table

from conftest import philox_rng, random_protocol
from reference import brute_entropy_cq


class TestErfOracle:
    def test_zero(self):
        assert erf_oracle(0.0) == 0.0

    def test_odd_function(self):
        for x in (0.3, 1.7, 2.5, 6.0):
            assert erf_oracle(-x) == -erf_oracle(x)

    def test_frozen_series_value(self):
        # 40-digit decimal series gives 0.94222046869839684229...
        assert erf_oracle(1.341641) == pytest.approx(0.9422204686983968, abs=1e-16)

    def test_against_libm_everywhere(self):
        xs = np.linspace(-6.0, 6.0, 100_001)
        worst = max(abs(erf_oracle(float(x)) - math.erf(x)) for x in xs)
        assert worst <= 2e-15

    def test_large_arguments(self):
        for x in (2.5, 4.0, 7.0, 10.0):
            assert abs(erf_oracle(x) - math.erf(x)) <= 2e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            erf_oracle(10.5)
        with pytest.raises(ValueError):
            erf_oracle(float("nan"))


class TestSamplers:
    def test_bpsk_determinism(self):
        cfg = McConfig(shots=20_000, seed=99, params=ProtocolParams(2, 1.0, 0.9))
        a = sample_homodyne_bpsk(cfg)
        b = sample_homodyne_bpsk(cfg)
        assert np.array_equal(a.counts, b.counts)
        c = sample_homodyne_bpsk(McConfig(shots=20_000, seed=100, params=cfg.params))
        assert not np.array_equal(a.counts, c.counts)

    def test_qpsk_determinism(self):
        cfg = McConfig(shots=20_000, seed=7, params=ProtocolParams(4, 1.0, 0.9))
        assert np.array_equal(sample_heterodyne_qpsk(cfg).counts,
                              sample_heterodyne_qpsk(cfg).counts)

    def test_counts_at_the_cli_seed_are_pinned(self):
        # the verify command's default seed and protocol point, at 1e5 shots
        def counts(sampler, n_states):
            params = ProtocolParams(n_states, 1.0, 0.9)
            return sampler(McConfig(shots=100_000, seed=20250101, params=params)).counts.tolist()

        assert counts(sample_homodyne_bpsk, 2) == [[97079, 2893], [2921, 97107]]
        assert counts(sample_heterodyne_qpsk, 4) == [
            [68403, 14227, 2988, 14212], [14395, 68589, 13941, 2947],
            [2841, 14312, 68921, 14095], [14361, 2872, 14150, 68746]]

    def test_counts_account_for_every_shot(self):
        cfg = McConfig(shots=10_000, seed=1, params=ProtocolParams(4, 0.7, 0.5))
        report = sample_heterodyne_qpsk(cfg)
        assert (report.counts.sum(axis=0) == cfg.shots).all()
        assert np.abs(report.empirical.sum(axis=0) - 1.0).max() <= 1e-15

    def test_no_signal_is_uniform_within_tolerance(self):
        cfg = McConfig(shots=200_000, seed=5, params=ProtocolParams(2, 0.0, 0.5))
        assert sample_homodyne_bpsk(cfg).max_sigma_units <= 4.0
        cfg = McConfig(shots=200_000, seed=5, params=ProtocolParams(4, 0.0, 0.5))
        assert sample_heterodyne_qpsk(cfg).max_sigma_units <= 4.0

    def test_agreement_with_tables(self):
        cfg = McConfig(shots=200_000, seed=11, params=ProtocolParams(2, 1.0, 0.9))
        report = sample_homodyne_bpsk(cfg)
        assert np.array_equal(report.analytic, cond_prob_table(cfg.params))
        assert report.max_sigma_units <= 4.0
        cfg = McConfig(shots=200_000, seed=11, params=ProtocolParams(4, 1.2, 0.7))
        assert sample_heterodyne_qpsk(cfg).max_sigma_units <= 4.0

    def test_modulation_guards(self):
        with pytest.raises(ValueError):
            sample_homodyne_bpsk(McConfig(shots=10, seed=0,
                                          params=ProtocolParams(4, 1.0, 0.5)))
        with pytest.raises(ValueError):
            McConfig(shots=0, seed=0, params=ProtocolParams(2, 1.0, 0.5))


class TestBruteEntropies:
    def test_matches_reduced_on_random_grid(self):
        rng = philox_rng(501)
        for _ in range(25):
            for n_states in (2, 4):
                params = random_protocol(rng, n_states)
                ensemble = build_ensemble(params)
                a = float(rng.uniform(1.05, 3.0))
                assert abs(brute_entropy_cq(ensemble, a, "petz_down")
                           - entropies.petz_down_cq(ensemble, a)) <= 1e-10
                assert abs(brute_entropy_cq(ensemble, a, "petz_up")
                           - entropies.petz_up_cq(ensemble, a)) <= 1e-10
                assert abs(brute_entropy_cq(ensemble, a, "sand_down")
                           - entropies.sandwiched_down_cq(ensemble, a)) <= 1e-10

    def test_von_neumann_and_variance_match(self, bpsk_ref, qpsk_ref):
        for ensemble in (bpsk_ref, qpsk_ref):
            assert abs(brute_entropy_cq(ensemble, None, "von_neumann")
                       - entropies.von_neumann_cq(ensemble)) <= 1e-10
            assert abs(brute_entropy_cq(ensemble, None, "variance")
                       - entropies.entropy_variance_cq(ensemble)) <= 1e-10

    def test_lossless_channel_reaches_log_n(self):
        ensemble = build_ensemble(ProtocolParams(4, 1.0, 1.0))
        assert abs(brute_entropy_cq(ensemble, 1.4, "petz_down") - 2.0) <= 1e-10

    def test_unknown_kind(self, bpsk_ref):
        with pytest.raises(ValueError):
            brute_entropy_cq(bpsk_ref, 1.2, "nope")


class TestDualitySuite:
    def test_product_state_residual_vanishes(self):
        # |0>|0>|0>: every conditional entropy of the pure marginal is zero
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0
        rho_ab, rho_ac = marginal_pair(psi, (2, 2, 2))
        for a in (0.5, 1.3):
            total = (entropies.petz_down_general(rho_ab, (2, 2), a)
                     + entropies.petz_down_general(rho_ac, (2, 2), 2.0 - a))
            assert abs(total) <= 1e-10

    def test_bell_with_trivial_third_party(self):
        # H_a(A|B) = -1 on the Bell pair and H_{2-a}(A|C) = +1 on the
        # maximally mixed marginal with trivial C
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
        rho_ab, rho_ac = marginal_pair(psi, (2, 2, 1))
        for a in (0.5, 1.3, 1.7):
            down = entropies.petz_down_general(rho_ab, (2, 2), a)
            comp = entropies.petz_down_general(rho_ac, (2, 1), 2.0 - a)
            assert abs(down + 1.0) <= 1e-10
            assert abs(comp - 1.0) <= 1e-10

    def test_small_suite_passes(self):
        report = duality_suite(range(20))
        assert report.states_tested == 20
        assert report.passed, (report.petz_residual, report.mixed_residual,
                               report.sandwich_residual)

    def test_negative_control_biased_petz_fails(self, monkeypatch):
        # a biased Petz entropy must blow the Petz-Petz identity up, proving
        # the suite constrains the implementation (note that a GLOBAL sign
        # flip is inert there, since it flips both members of the identity)
        true_fn = entropies.petz_down_general

        def biased(rho, dims, a):
            return true_fn(rho, dims, a) + 1e-3

        monkeypatch.setattr(entropies, "petz_down_general", biased)
        report = duality_suite(range(6))
        assert report.petz_residual > report.tol
        assert not report.passed

    def test_negative_control_sign_flip_fails(self, monkeypatch):
        # the mixed identity pairs two different entropies, so flipping the
        # sign of just one of them does break it
        true_fn = entropies.petz_up_general

        def flipped(rho, dims, a):
            return -true_fn(rho, dims, a)

        monkeypatch.setattr(entropies, "petz_up_general", flipped)
        report = duality_suite(range(6))
        assert report.mixed_residual > report.tol
        assert not report.passed

    def test_marginals_are_consistent(self):
        psi = random_pure_tripartite((2, 3, 4), seed=17)
        rho_ab, rho_ac = marginal_pair(psi, (2, 3, 4))
        assert abs(np.trace(rho_ab).real - 1.0) <= 1e-12
        assert abs(np.trace(rho_ac).real - 1.0) <= 1e-12
        # both must reduce to the same rho_A
        from pskrates.linalg import partial_trace
        rho_a1 = partial_trace(rho_ab, (2, 3), keep="A")
        rho_a2 = partial_trace(rho_ac, (2, 4), keep="A")
        assert np.abs(rho_a1 - rho_a2).max() <= 1e-12
