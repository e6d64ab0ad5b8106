import collections
import math
import warnings

import numpy as np
import pytest

import pskrates.entropies as entropies
import pskrates.rates as rates
from pskrates.entropies import von_neumann_cq
from pskrates.oracles import erf_oracle
from pskrates.rates import (
    RateResult,
    SecurityParams,
    delta_eps,
    g_eps,
    leak,
    optimize_rate,
    rate_aep,
    rate_b,
    rate_s,
)
from pskrates.states import ProtocolParams, build_ensemble, cond_prob_table

from conftest import cap_polish, philox_rng, random_protocol, score_grid_point_by_point
from reference import tight_rate


def leak_from_table(table):
    """H_N(Y|X) from a conditional probability table with uniform inputs.

    Generic column-entropy evaluation, the cross-check for the closed-form
    leaks.
    """
    table = np.asarray(table, dtype=float)
    n = table.shape[1]
    total = 0.0
    for x in range(n):
        col = table[:, x]
        col = col[col > 0.0]
        total -= float((col * np.log2(col)).sum())
    return total / n


class TestCorrections:
    def test_g_at_one_is_zero(self):
        assert g_eps(1.0) == 0.0

    def test_g_upper_bound(self):
        for eps in (1e-2, 1e-8):
            assert g_eps(eps) <= math.log2(2.0 / eps**2)

    def test_g_frozen_value(self):
        # stable form evaluated in high precision: 1 + 16 log2(10) - log2(1+sqrt(1-1e-16))
        assert g_eps(1e-8) == pytest.approx(54.150849518197795, abs=1e-12)

    def test_g_domain(self):
        for bad in (0.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                g_eps(bad)

    def test_delta_frozen_value(self):
        # 4 log2(2 + sqrt 2) sqrt(log2(2e16)); factors 1.7715533... and 7.3587261...
        factor = 4.0 * math.log2(2.0 + math.sqrt(2.0))
        root = math.sqrt(math.log2(2.0 / 1e-16))
        assert factor == pytest.approx(7.086213212654448, abs=1e-12)
        assert root == pytest.approx(7.358726079845464, abs=1e-12)
        assert delta_eps(1e-8, 2) == pytest.approx(factor * root, abs=1e-12)
        assert delta_eps(1e-8, 2) == pytest.approx(52.1455019753058, abs=1e-9)

    def test_delta_monotone_in_eps(self):
        values = [delta_eps(e, 2) for e in (1e-10, 1e-8, 1e-4, 1e-2)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_delta_grows_with_modulation(self):
        assert delta_eps(1e-8, 4) > delta_eps(1e-8, 2)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            delta_eps(0.0, 2)
        with pytest.raises(ValueError):
            delta_eps(1e-8, 3)


class TestLeak:
    def test_no_signal_leaks_everything(self):
        assert leak(ProtocolParams(2, 0.0, 0.8)) == pytest.approx(1.0)
        assert leak(ProtocolParams(2, 1.0, 0.0)) == pytest.approx(1.0)
        assert leak(ProtocolParams(4, 0.0, 0.8)) == pytest.approx(2.0)

    def test_bpsk_value_from_erf_oracle(self):
        p = (1.0 + erf_oracle(math.sqrt(1.8))) / 2.0
        expected = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert leak(ProtocolParams(2, 1.0, 0.9)) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.18879326158575405, abs=1e-12)

    def test_qpsk_matches_generic_column_entropy(self):
        rng = philox_rng(401)
        for _ in range(50):
            params = random_protocol(rng, 4)
            table = cond_prob_table(params)
            assert abs(leak(params) - leak_from_table(table)) <= 1e-12

    def test_bpsk_matches_generic_column_entropy(self):
        rng = philox_rng(402)
        for _ in range(50):
            params = random_protocol(rng, 2)
            assert abs(leak(params) - leak_from_table(cond_prob_table(params))) <= 1e-12

    def test_monotone_decreasing_in_alpha(self):
        values = [leak(ProtocolParams(4, a, 0.7)) for a in (0.2, 0.6, 1.2, 2.0)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_nonnegative(self):
        rng = philox_rng(403)
        for _ in range(100):
            for n_states in (2, 4):
                assert leak(random_protocol(rng, n_states)) >= 0.0


class TestSecurityParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SecurityParams(n=0)
        with pytest.raises(ValueError):
            SecurityParams(n=10, eps=0.0)
        with pytest.raises(ValueError):
            SecurityParams(n=10, eps=0.6, eps_prime=0.6)

    def test_defaults(self):
        sp = SecurityParams(n=1e6)
        assert sp.eps == 1e-8 and sp.eps_prime == 1e-8 and sp.a is None


class TestEstimators:
    def test_asymptotic_limits_coincide(self, bpsk_ref):
        sp_s = SecurityParams(n=1e12, a=1.0 + 1e-6)
        asymptote = von_neumann_cq(bpsk_ref) - leak(bpsk_ref.params)
        assert rate_s(bpsk_ref, sp_s) == pytest.approx(asymptote, abs=1e-4)
        assert rate_aep(bpsk_ref, SecurityParams(n=1e12)) == pytest.approx(asymptote, abs=1e-4)
        assert rate_b(bpsk_ref, sp_s) == pytest.approx(asymptote, abs=1e-4)

    def test_s_dominates_b_at_equal_parameters(self):
        rng = philox_rng(404)
        for _ in range(15):
            for n_states in (2, 4):
                params = random_protocol(rng, n_states,
                                         alpha_range=(0.2, 2.5), eta_range=(0.2, 0.95))
                ensemble = build_ensemble(params)
                sp = SecurityParams(n=10.0 ** rng.uniform(3, 9),
                                    a=float(rng.uniform(1.05, 1.9)))
                assert rate_s(ensemble, sp) >= rate_b(ensemble, sp) - 1e-9

    def test_entropy_ceiling(self, bpsk_ref, qpsk_ref):
        for ensemble in (bpsk_ref, qpsk_ref):
            sp = SecurityParams(n=1e5, a=1.3)
            ceiling = (math.log2(ensemble.n_states) - leak(ensemble.params)
                       + (1.0 + 2.0 * math.log2(sp.eps_prime)) / sp.n)
            assert rate_s(ensemble, sp) <= ceiling + 1e-12
            assert rate_b(ensemble, sp) <= ceiling + 1e-12
            assert rate_aep(ensemble, sp) <= ceiling + 1e-12

    def test_order_requirements(self, bpsk_ref):
        with pytest.raises(ValueError):
            rate_s(bpsk_ref, SecurityParams(n=1e5))
        with pytest.raises(ValueError):
            rate_s(bpsk_ref, SecurityParams(n=1e5, a=0.9))
        with pytest.raises(ValueError):
            rate_b(bpsk_ref, SecurityParams(n=1e5, a=2.5))


class TestOptimizeRate:
    def test_deterministic(self):
        first = optimize_rate("AEP", 2, 0.9, [1e6])
        second = optimize_rate("AEP", 2, 0.9, [1e6])
        assert first == second

    def test_aep_finds_interior_optimum(self):
        [result] = optimize_rate("AEP", 2, 0.9, [1e6])
        assert result.a_opt is None
        assert 0.8 <= result.alpha_opt <= 1.1
        assert result.key_possible and result.rate > 0.35
        # the optimum beats a scan of fixed alphas
        for alpha in np.linspace(0.5, 1.5, 21):
            ensemble = build_ensemble(ProtocolParams(2, float(alpha), 0.9))
            assert result.rate >= rate_aep(ensemble, SecurityParams(n=1e6)) - 1e-9

    def test_negative_landscape_flagged(self):
        [result] = optimize_rate("AEP", 2, 0.9, [50])
        assert result.rate < 0.0
        assert not result.key_possible

    def test_estimator_validation(self):
        with pytest.raises(ValueError):
            optimize_rate("X", 2, 0.9, [1e6])
        with pytest.raises(ValueError):
            optimize_rate("S", 2, 0.9, [1e6], a_max=100.0)
        with pytest.raises(ValueError, match="block size"):
            optimize_rate("AEP", 2, 0.9, [1e6, 0.5])
        for estimator in ("S", "B"):
            for a_max in (1.0, 0.5):
                with pytest.raises(ValueError, match="a_max"):
                    optimize_rate(estimator, 2, 0.9, [1e6], a_max=a_max)

    def test_result_invariants(self):
        [result] = optimize_rate("B", 2, 0.9, [1e5])
        assert isinstance(result, RateResult)
        assert result.rate <= math.log2(2)
        assert result.leak >= 0.0
        assert 1.0 < result.a_opt < 2.0
        # a cap beyond the continuity pole is clamped to it, not rejected
        assert optimize_rate("B", 2, 0.9, [1e5], a_max=16.0) == [result]

    def test_inner_warnings_mark_result_unconverged(self, monkeypatch):
        def stub(ensemble, a):
            if a > 2.0:
                warnings.warn("invariant-state optimization did not reach tolerance",
                              entropies.ConvergenceWarning, stacklevel=2)
            return 1.0 - 0.1 * (ensemble.params.alpha - 1.0) ** 2

        monkeypatch.setattr(entropies, "sandwiched_up_invariant", stub)
        score_grid_point_by_point(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = optimize_rate("S", 2, 0.9, [1e6, 1e4])
        # the second block size answers the grid from memory and must still
        # count the warnings of the terms it reuses
        assert [r.converged for r in results] == [False, False]
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, entropies.ConvergenceWarning)]
        assert len(messages) == 2
        # the first grid point above a = 2 is a = 2.0488 at the smallest alpha
        for message, n in zip(messages, ("1e+06", "10000")):
            assert message.startswith(f"S rate at n={n}:")
            assert "first at alpha=0.05, a=2.0488 " in message

    def test_ranked_grid_still_counts_vertex_warnings(self, monkeypatch):
        # with the array solve ranking the BPSK grid, the stub runs only at
        # the polish's points, and their warnings still mark every n
        def stub(ensemble, a):
            warnings.warn("invariant-state optimization did not reach tolerance",
                          entropies.ConvergenceWarning, stacklevel=2)
            return 0.5

        monkeypatch.setattr(entropies, "sandwiched_up_invariant", stub)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = optimize_rate("S", 2, 0.9, [1e6, 1e4])
        assert [r.converged for r in results] == [False, False]
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, entropies.ConvergenceWarning)]
        assert [m.split(":")[0] for m in messages] == ["S rate at n=1e+06", "S rate at n=10000"]

    def test_polish_cap_warns_after_the_entropy_summary(self, monkeypatch):
        def stub(ensemble, a):
            warnings.warn("invariant-state optimization did not reach tolerance",
                          entropies.ConvergenceWarning, stacklevel=2)
            return 1.0 - 0.1 * (ensemble.params.alpha - 1.0) ** 2

        monkeypatch.setattr(entropies, "sandwiched_up_invariant", stub)
        cap_polish(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            [result] = optimize_rate("S", 2, 0.9, [1e6])
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, entropies.ConvergenceWarning)]
        assert not result.converged
        assert len(messages) == 2
        assert messages[0].startswith("S rate at n=1e+06: ")
        assert "entropy evaluation(s) did not converge" in messages[0]
        assert messages[1] == (f"S rate at n=1e+06: the polish did not converge in 2 "
                               f"iterations, stopped at alpha={result.alpha_opt:.6g}, "
                               f"a={result.a_opt:.6g}")

    @staticmethod
    def count_solves(monkeypatch, n_states, names):
        calls = dict.fromkeys(names, 0)
        for name in calls:
            def counted(*args, _fn=getattr(entropies, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(entropies, name, counted)
        optimize_rate("S", n_states, 0.9, [1e4])
        return [calls[name] for name in names]

    def test_bpsk_s_grid_is_one_array_solve(self, monkeypatch):
        # a guard on the batched grid that needs no timing: the scalar
        # search runs only for the polish (671 times when it also scored
        # the grid)
        batched, scalar = self.count_solves(
            monkeypatch, 2, ("_two_state_log_traces", "_two_state_log_trace"))
        assert batched == 1
        assert scalar <= 100

    def test_qpsk_s_grid_is_one_array_solve(self, monkeypatch):
        # the same guard for the batched Newton solves (677 scalar solves
        # when they also scored the grid)
        batched, scalar = self.count_solves(
            monkeypatch, 4, ("_newton_log_traces", "_newton_log_trace"))
        assert batched == 1
        assert scalar <= 100

    def test_uncertified_grid_points_fall_back_to_single_solves(self, monkeypatch):
        # with no Newton step allowed, no grid point certifies in the array
        # solve; each one is then solved alone, warns and names its point
        # exactly as when the whole grid is scored point by point
        monkeypatch.setattr(entropies, "_NEWTON_MAX_ITER", 0)
        grid_fn = entropies.sandwiched_up_invariant_grid
        ranks = []
        monkeypatch.setattr(entropies, "sandwiched_up_invariant_grid",
                            lambda *args: ranks.append(grid_fn(*args)) or ranks[-1])

        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", entropies.ConvergenceWarning)
                results = optimize_rate("S", 4, 0.9, [1e4, 1e6])
            return results, [str(w.message) for w in caught
                             if issubclass(w.category, entropies.ConvergenceWarning)]

        ranked = run()
        assert len(ranks) == 1 and np.isnan(ranks[0]).all()
        score_grid_point_by_point(monkeypatch)
        assert run() == ranked
        results, messages = ranked
        assert [r.converged for r in results] == [False, False]
        assert [m.split(":")[0] for m in messages] == ["S rate at n=10000", "S rate at n=1e+06"]
        assert all("first at alpha=0.05, a=1.00001 " in m for m in messages)
        # every one of the 625 grid points warned, at both block sizes
        assert all(int(m.split(": ")[1].split()[0]) >= 625 for m in messages)

    @pytest.mark.parametrize("n_states", [2, 4])
    @pytest.mark.parametrize("estimator", ["S", "AEP", "B"])
    def test_reported_rate_is_the_estimator_at_the_optimum(self, estimator, n_states):
        [result] = optimize_rate(estimator, n_states, 0.9, [1e4])
        ensemble = build_ensemble(ProtocolParams(n_states, result.alpha_opt, 0.9))
        sp = SecurityParams(n=1e4, a=result.a_opt)
        assert result.rate == rates.ESTIMATORS[estimator].rate(ensemble, sp)

    @pytest.mark.parametrize("n_states", [2, 4])
    @pytest.mark.parametrize("estimator", ["S", "AEP", "B"])
    def test_block_sizes_share_one_surface_exactly(self, estimator, n_states):
        ns = [316.23, 1e4, 1e8]
        together = optimize_rate(estimator, n_states, 0.9, ns)
        assert together == [optimize_rate(estimator, n_states, 0.9, [n])[0] for n in ns]

    @pytest.mark.parametrize("n_states", [2, 4])
    def test_several_estimators_in_one_call_match_single_calls(self, n_states):
        # rows come by n, then by estimator as listed
        ns = [316.23, 1e4, 1e8]
        for names, a_max in (("AEP,B", None), ("S,AEP,B", None), ("B,S,AEP", 16.0)):
            together = optimize_rate(names, n_states, 0.9, ns, a_max=a_max)
            alone = [optimize_rate(name, n_states, 0.9, ns, a_max=a_max)
                     for name in names.split(",")]
            assert together == [column[i] for i in range(len(ns)) for column in alone]

    @pytest.mark.parametrize("n_states", [2, 4])
    def test_estimators_of_one_call_share_each_amplitude(self, n_states, monkeypatch):
        # AEP and B read one set of continuity terms per amplitude, on the
        # grid and in every polish step
        counts = collections.Counter()
        build = entropies.ContinuityTerms.from_ensemble
        monkeypatch.setattr(entropies.ContinuityTerms, "from_ensemble", classmethod(
            lambda cls, ensemble: counts.update([ensemble.params.alpha]) or build(ensemble)))
        optimize_rate("AEP,B", n_states, 0.9, [1e4, 1e6])
        grid = np.linspace(*rates.ALPHA_BOUNDS, rates.GRID_POINTS).tolist()
        assert set(grid) <= set(counts)
        assert set(counts.values()) == {1}


class TestPolish:
    """The certified quadratic-model polish of ``optimize_rate``."""

    NS = [316.23, 1e4, 1e8]

    @pytest.mark.parametrize("n_states", [2, 4])
    def test_evaluation_counts(self, n_states):
        # a guard that needs no timing: Nelder-Mead took 48-66 (S, B) and 24 (AEP)
        for r in optimize_rate("S,AEP,B", n_states, 0.9, self.NS):
            assert r.converged
            assert 0 < r.evaluations <= (16 if r.estimator == "AEP" else 40), r

    @pytest.mark.parametrize("n_states", [2, 4])
    def test_restart_from_a_perturbed_start_agrees(self, n_states, monkeypatch):
        polish, pairs = rates.quadratic_polish, []

        def restarted(fn, x0, lower, upper, scale, noise, model):
            first = polish(fn, x0, lower, upper, scale, noise, model)
            start = np.clip(first.x + scale * [0.3, -0.2][:len(scale)], lower, upper)
            pairs.append((first, polish(fn, start, lower, upper, scale, noise)))
            return first

        monkeypatch.setattr(rates, "quadratic_polish", restarted)
        optimize_rate("S,AEP,B", n_states, 0.9, self.NS)
        assert len(pairs) == 9
        for first, again in pairs:
            assert again.converged
            assert abs(again.fun - first.fun) <= 1e-12, (first, again)

    @pytest.mark.parametrize("n_states", [2, 4])
    @pytest.mark.parametrize("estimator", ["S", "AEP", "B"])
    def test_rate_reaches_a_tight_reference(self, estimator, n_states):
        ns = [562.0, 1e4, 1e8]
        for n, result in zip(ns, optimize_rate(estimator, n_states, 0.9, ns)):
            reference, alpha, a = tight_rate(estimator, n_states, 0.9, n)
            assert result.rate >= reference - 1e-11, (n, result, reference, alpha, a)

    @pytest.mark.parametrize("n_states", [2, 4])
    def test_flat_landscape_converges_without_warning(self, n_states):
        # at eta = 0 every amplitude gives the same rate up to rounding
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = optimize_rate("S,AEP,B", n_states, 0.0, self.NS)
        assert all(r.converged for r in results)

    def test_order_cap_is_reported_as_the_active_bound(self):
        [capped, interior] = optimize_rate("S", 2, 0.9, [316.23, 1e4], a_max=64.0)
        assert capped.converged and capped.at_bound == "a_max"
        assert capped.a_opt == pytest.approx(64.0)
        assert interior.converged and interior.at_bound is None
