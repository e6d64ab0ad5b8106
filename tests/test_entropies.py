import gc
import math
import warnings
import weakref

import numpy as np
import pytest

import pskrates.entropies as entropies
from pskrates.entropies import (
    CONTINUITY_A_MAX,
    ContinuityTerms,
    ConvergenceWarning,
    bpsk_closed_forms,
    continuity_bound,
    continuity_terms,
    entropy_report,
    entropy_variance_cq,
    petz_down_cq,
    petz_down_general,
    petz_up_cq,
    petz_up_general,
    sandwiched_down_cq,
    sandwiched_down_general,
    sandwiched_up_general,
    sandwiched_up_invariant,
    von_neumann_cq,
)
from pskrates.linalg import matrix_power
from pskrates.oracles import marginal_pair
from pskrates.optimize import nelder_mead
from pskrates.states import ProtocolParams, build_ensemble

from conftest import philox_rng, random_protocol
from reference import (
    assemble_cq_state,
    brute_entropy_cq,
    conditional_states,
    initial_simplex,
    invariant_trace,
    petz_down_matrix_path,
    random_density,
    two_state_golden_log_trace,
)


def petz_down_unreduced(ensemble, a):
    """Full y-summed Petz form, no symmetry reduction."""
    n = ensemble.n_states
    avg_pow = matrix_power(np.diag(ensemble.avg_diag), 1.0 - a)
    total = sum(np.trace(matrix_power(rho, a) @ avg_pow).real
                for rho in conditional_states(ensemble.params))
    return math.log2(total / n**a) / (1.0 - a)


class TestCqEntropies:
    def test_lossless_channel_reaches_log_n(self):
        for n_states in (2, 4):
            ensemble = build_ensemble(ProtocolParams(n_states, 1.0, 1.0))
            target = math.log2(n_states)
            assert abs(petz_down_cq(ensemble, 1.3) - target) <= 1e-10
            assert abs(petz_up_cq(ensemble, 1.3) - target) <= 1e-10
            assert abs(sandwiched_down_cq(ensemble, 1.3) - target) <= 1e-10
            assert abs(sandwiched_up_invariant(ensemble, 1.3) - target) <= 1e-8
            assert abs(von_neumann_cq(ensemble) - target) <= 1e-10

    def test_reduced_equals_unreduced_sum(self):
        rng = philox_rng(301)
        for _ in range(40):
            for n_states in (2, 4):
                params = random_protocol(rng, n_states)
                a = float(rng.uniform(1.05, 3.0))
                ensemble = build_ensemble(params)
                assert abs(petz_down_cq(ensemble, a)
                           - petz_down_unreduced(ensemble, a)) <= 1e-10

    def test_bpsk_matches_closed_form_sample(self):
        rng = philox_rng(302)
        for _ in range(60):
            params = random_protocol(rng, 2, alpha_range=(0.05, 3.0),
                                     eta_range=(0.01, 0.99))
            a = float(rng.choice([1.1, 1.3, 1.5, 1.8, 2.0]))
            ensemble = build_ensemble(params)
            closed = bpsk_closed_forms(params, a)
            assert abs(closed.petz_down - petz_down_cq(ensemble, a)) <= 1e-10
            assert abs(closed.petz_up - petz_up_cq(ensemble, a)) <= 1e-10
            assert abs(closed.sand_down - sandwiched_down_cq(ensemble, a)) <= 1e-10

    def test_petz_up_takes_one_eigensolve(self, qpsk_ref, monkeypatch):
        # the pinching identity replaces the N + 1 eigendecompositions of
        # the symbol sum; its value is pinned by the brute-force and
        # closed-form tests
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counted(*args, _original=getattr(np.linalg, name), **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        petz_up_cq(qpsk_ref, 1.5)
        assert len(calls) == 1

    def test_petz_down_takes_one_eigh(self, qpsk_ref, monkeypatch):
        # rho_E is diagonal, so only rho_{E|0} is eigendecomposed; the
        # matrix path also decomposed diag(rho_E)
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counted(*args, _original=getattr(np.linalg, name), **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        petz_down_cq(qpsk_ref, 1.5)
        assert len(calls) == 1

    def test_petz_down_matches_the_matrix_path_exactly(self):
        # the entry-by-entry power of rho_E, with the same 1e-12 relative
        # cut, changes no bit against the eigendecomposition of diag(rho_E)
        rng = philox_rng(308)
        corners = [ProtocolParams(n, alpha, eta) for n in (2, 4)
                   for alpha, eta in ((0.0, 0.5), (1.0, 0.0), (1.0, 1.0), (3.0, 0.99999))]
        for params in corners + [random_protocol(rng, n) for _ in range(200) for n in (2, 4)]:
            ensemble = build_ensemble(params)
            for a in (rng.uniform(0.05, 0.999), rng.uniform(1.0 + 1e-9, 8.0)):
                assert petz_down_cq(ensemble, a) == petz_down_matrix_path(ensemble, a)

    def test_petz_up_dominates_petz_down(self, bpsk_ref, qpsk_ref):
        for ensemble in (bpsk_ref, qpsk_ref):
            for a in (1.1, 1.5, 2.5):
                assert petz_up_cq(ensemble, a) >= petz_down_cq(ensemble, a) - 1e-9

    def test_a_to_one_bracket_of_von_neumann(self, bpsk_ref, qpsk_ref):
        for ensemble in (bpsk_ref, qpsk_ref):
            vn = von_neumann_cq(ensemble)
            below = petz_down_cq(ensemble, 1.0 + 1e-4)
            above = petz_down_cq(ensemble, 1.0 - 1e-4)
            assert above >= vn >= below  # monotone decreasing in the order
            assert abs(above - vn) <= 1e-3 and abs(below - vn) <= 1e-3

    def test_rejects_invalid_order(self, bpsk_ref):
        for bad in (1.0, 0.0, -0.5, math.inf):
            with pytest.raises(ValueError):
                petz_down_cq(bpsk_ref, bad)

    @pytest.mark.parametrize("alpha, eta, a", [(1e-6, 0.0, 1.001), (2.0, 0.99999, 1.00001)])
    def test_sandwiched_down_near_degenerate_qpsk(self, alpha, eta, a):
        # rho_E has weights far below the relative support cut here; cutting
        # them lifted sand_down above log2 N and above the optimized value
        ensemble = build_ensemble(ProtocolParams(4, alpha, eta))
        sand_down = sandwiched_down_cq(ensemble, a)
        assert sand_down <= 2.0 + 1e-12
        assert sand_down <= sandwiched_up_invariant(ensemble, a) + 1e-12

    def test_von_neumann_interior_minimum_bpsk(self):
        etas = np.linspace(0.3, 0.9, 61)
        values = [von_neumann_cq(build_ensemble(ProtocolParams(2, 1.0, float(e))))
                  for e in etas]
        eta_min = etas[int(np.argmin(values))]
        assert abs(eta_min - 0.6) <= 0.05


class TestVariance:
    def test_zero_when_states_identical(self):
        ensemble = build_ensemble(ProtocolParams(2, 1.0, 1.0))
        assert abs(entropy_variance_cq(ensemble)) <= 1e-10

    def test_nonnegative_on_random_grid(self):
        rng = philox_rng(303)
        for _ in range(50):
            for n_states in (2, 4):
                ensemble = build_ensemble(random_protocol(rng, n_states))
                assert entropy_variance_cq(ensemble) >= -1e-10

    def test_blockwise_equals_full_matrix(self):
        ensemble = build_ensemble(ProtocolParams(2, 1.0, 0.6))
        brute = brute_entropy_cq(ensemble, None, "variance")
        assert abs(entropy_variance_cq(ensemble) - brute) <= 1e-10
        ensemble = build_ensemble(ProtocolParams(4, 0.8, 0.4))
        brute = brute_entropy_cq(ensemble, None, "variance")
        assert abs(entropy_variance_cq(ensemble) - brute) <= 1e-10

    @pytest.mark.parametrize("alpha, eta, exact", [
        (0.08661657702982738, 0.9770300362670954, 1.2546061010401159e-4),
        (0.13860393710191138, 0.9945336061284367, 2.2181591033572461e-4),
    ])
    def test_near_pure_qpsk_keeps_every_eigenvalue(self, alpha, eta, exact):
        # Both states have an eigenvalue of rho_{E|0} and of rho_E below the
        # 1e-12 support cut, yet weight on them still counts. References:
        # mpmath at 50 digits, mp.eigh of the stored rho_{E|0} (converted
        # exactly from its float entries) and the stored diagonal of rho_E,
        # then sum P (X - D)^2 over every eigenvalue as in ContinuityTerms.
        ensemble = build_ensemble(ProtocolParams(4, alpha, eta))
        assert abs(entropy_variance_cq(ensemble) - exact) <= 1e-15


class TestContinuityBound:
    def test_coefficient_positive(self, bpsk_ref, qpsk_ref):
        for ensemble in (bpsk_ref, qpsk_ref):
            for a in (1.05, 1.2, 1.5, 1.9):
                assert continuity_terms(ensemble).continuity(a)[0] > 0.0

    def test_coefficient_rejects_pole_and_below_one(self, bpsk_ref):
        for bad in (1.0, 0.8, 2.0, 2.5):
            with pytest.raises(ValueError):
                continuity_terms(bpsk_ref).continuity(bad)[0]

    def test_quadratic_term_vanishes_toward_one(self, bpsk_ref):
        a = 1.0 + 1e-4
        assert (a - 1.0) ** 2 * continuity_terms(bpsk_ref).continuity(a)[0] <= 1e-6

    def test_composed_independently(self):
        ensemble = build_ensemble(ProtocolParams(2, 1.0, 0.6))
        a = 1.2
        expected = (von_neumann_cq(ensemble)
                    - (a - 1.0) * math.log(2.0) / 2.0 * entropy_variance_cq(ensemble)
                    - (a - 1.0) ** 2 * continuity_terms(ensemble).continuity(a)[0])
        assert abs(continuity_bound(ensemble, a) - expected) <= 1e-12

    def test_cached_terms_equal_the_direct_formula(self):
        # the memoized amplitude-only terms change no bit of the bound
        rng = philox_rng(306)
        for i in range(200):
            params = random_protocol(rng, (2, 4)[i % 2], alpha_range=(0.05, 3.0))
            orders = (1.0 + math.exp(rng.uniform(math.log(1e-9), math.log(1.0 - 1e-6))),
                      CONTINUITY_A_MAX)
            ensemble = build_ensemble(params)
            h, v = von_neumann_cq(ensemble), entropy_variance_cq(ensemble)
            fresh = ContinuityTerms.from_ensemble(ensemble)  # built anew, outside the memo
            h_2 = fresh.petz_down(2.0)
            for a in orders:
                k = (2.0 ** ((a - 1.0) * (h - fresh.petz_down(a)))
                     / (6.0 * (2.0 - a) ** 3 * math.log(2.0))
                     * math.log(2.0 ** (h - h_2) + math.e**2) ** 3)
                expected = h - (a - 1.0) * math.log(2.0) / 2.0 * v - (a - 1.0) ** 2 * k
                assert continuity_terms(ensemble).continuity(a)[0] == k
                assert continuity_bound(ensemble, a) == expected

    def test_terms_petz_matches_the_matrix_path(self):
        # (1 - a) H_a is log2 N (1 - a) + log2 T: the two paths agree to a
        # few ulps of log2 T, however close the order is to 1
        rng = philox_rng(307)
        for i in range(200):
            ensemble = build_ensemble(
                random_protocol(rng, (2, 4)[i % 2], alpha_range=(0.05, 3.0)))
            a = rng.uniform(1.0 + 1e-9, 2.0)
            gap = (1.0 - a) * (continuity_terms(ensemble).petz_down(a)
                               - petz_down_cq(ensemble, a))
            assert abs(gap) <= 4e-15

    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("n_states", [2, 4])
    def test_grid_hooks_match_the_scalar_path(self, n_states, eta):
        # the optimizer's 25 x 25 B grid up to the pole cap, and one at cap
        # 1.5. numpy's powers and sums may round differently, so B lies
        # within 1e-14 of the scalar bound relative to max(1, |B_a|): worst
        # seen 8.9e-16 on these grids and 2.2e-15 over 800 random points,
        # while |B_a| reaches 1e19 next to the pole. AEP's is exact.
        alphas = np.linspace(0.05, 3.0, 25)
        ensembles = [build_ensemble(ProtocolParams(n_states, float(alpha), eta))
                     for alpha in alphas]
        for cap in (CONTINUITY_A_MAX, 1.5):
            orders = 1.0 + np.exp(np.linspace(math.log(1e-5), math.log(cap - 1.0), 25))
            got = entropies.continuity_bound_grid(ensembles, orders)
            want = np.array([[continuity_bound(e, float(a)) for a in orders] for e in ensembles])
            assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
        assert np.array_equal(entropies.von_neumann_grid(ensembles, None),
                              [[von_neumann_cq(e)] for e in ensembles])
        with pytest.raises(ValueError):
            entropies.continuity_bound_grid(ensembles[:1], [2.0])

    def test_terms_take_one_eigh(self, monkeypatch):
        ensemble = build_ensemble(ProtocolParams(4, 1.1, 0.8))
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        continuity_terms(ensemble)
        assert calls == {"eigh": 1, "eigvalsh": 0}

    def test_second_order_needs_no_eigensolve(self, monkeypatch):
        ensemble = build_ensemble(ProtocolParams(4, 1.1, 0.8))
        continuity_bound(ensemble, 1.3)
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counted(*args, _original=getattr(np.linalg, name), **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        continuity_bound(ensemble, 1.7)
        continuity_terms(ensemble).continuity(1.05)[0]
        assert calls == []
        continuity_terms(build_ensemble(ProtocolParams(4, 1.1, 0.8)))
        assert calls  # the counter sees eigensolves: the new terms take one eigh

    def test_terms_are_held_once_and_released_with_the_ensemble(self):
        first = build_ensemble(ProtocolParams(2, 0.7, 0.5))
        ensemble = build_ensemble(ProtocolParams(4, 0.7, 0.5))
        before = len(entropies._TERMS)
        terms = continuity_terms(first)
        continuity_terms(ensemble)
        assert continuity_terms(first) is terms  # one slot per live ensemble
        assert len(entropies._TERMS) == before + 2
        ref = weakref.ref(ensemble)
        del ensemble, first
        gc.collect()
        assert ref() is None
        assert len(entropies._TERMS) == before

    def test_below_von_neumann_and_below_log_n_at_boundary(self):
        for n_states in (2, 4):
            for eta in (0.0, 0.6, 1.0):
                ensemble = build_ensemble(ProtocolParams(n_states, 1.0, eta))
                bound = continuity_bound(ensemble, 1.2)
                assert bound <= von_neumann_cq(ensemble) + 1e-12
                if eta in (0.0, 1.0):
                    assert bound < math.log2(n_states)

    def test_bounded_by_invariant_sandwiched(self):
        rng = philox_rng(304)
        for _ in range(25):
            for n_states in (2, 4):
                params = random_protocol(rng, n_states)
                a = float(rng.uniform(1.05, 1.9))
                ensemble = build_ensemble(params)
                assert (continuity_bound(ensemble, a)
                        <= sandwiched_up_invariant(ensemble, a) + 1e-9)


@pytest.fixture(scope="module")
def two_state_cases():
    """(rho_{E|0}, a) pairs for N=2 and their golden-section optima of log T.

    The optimizer's 25 x 25 grids at order caps 4 and 64 and 25 orders in
    [1/2, 0.999], each at eta in {0, 0.5, 0.9, 1}, then 400 random points
    with orders on both sides of 1.
    """
    def grid(cap):
        return 1.0 + np.exp(np.linspace(math.log(1e-5), math.log(cap - 1.0), 25))

    orders = np.concatenate((grid(4.0), np.linspace(0.5, 0.999, 25), grid(64.0)))
    cases = [(build_ensemble(ProtocolParams(2, float(alpha), eta)).rho0, float(a))
             for eta in (0.0, 0.5, 0.9, 1.0) for alpha in np.linspace(0.05, 3.0, 25)
             for a in orders]
    rng = philox_rng(401)
    for _ in range(400):
        params = random_protocol(rng, 2)
        side = rng.choice([-1.0, 1.0])
        a = 1.0 + side * 10.0 ** rng.uniform(-5.0, math.log10(0.5 if side < 0 else 63.0))
        cases.append((build_ensemble(params).rho0, float(a)))
    return cases, np.array([two_state_golden_log_trace(rho0, a) for rho0, a in cases])


class TestSandwichedUpInvariant:
    def test_dominates_fixed_conditioner(self):
        rng = philox_rng(305)
        for _ in range(40):
            for n_states in (2, 4):
                params = random_protocol(rng, n_states)
                a = float(rng.uniform(1.05, 4.0))
                ensemble = build_ensemble(params)
                assert (sandwiched_up_invariant(ensemble, a)
                        >= sandwiched_down_cq(ensemble, a) - 1e-9)

    def test_restricted_equals_unrestricted_bpsk(self):
        # oracle 1: general optimization on the assembled block state, at
        # three points and on the grid of the QPSK equality below, up to
        # a = 64, where the general search once returned 2.4557 bits > log2 2
        points = [(1.0, 0.6, 1.2), (0.95, 0.9, 2.0), (1.05, 0.9, 4.0)]
        points += [(alpha, 0.7, a) for alpha in (0.6, 1.0, 1.5)
                   for a in (1.2, 2.0, 3.0, 32.0, 64.0)]
        for (alpha, eta, a) in points:
            ensemble = build_ensemble(ProtocolParams(2, alpha, eta))
            rho, _ = assemble_cq_state(ensemble)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                general = sandwiched_up_general(rho, (2, 2), a)
            restricted = sandwiched_up_invariant(ensemble, a)
            assert abs(general - restricted) <= 1e-10

    def test_two_state_search_matches_eigensolver_minimum(self):
        # oracle 3: Nelder-Mead from three log-odds starts on the eigvalsh
        # trace functional, scaled to bits so that its tolerance is absolute
        # in the entropy. Below a = 1.001 both sides carry the rounding
        # noise of log2(T) / (1 - a), about 1e-16 / (a - 1) bits.
        rng = philox_rng(311)
        for _ in range(200):
            alpha, eta = rng.uniform(0.0, 3.0), rng.uniform(0.0, 1.0)
            a = 1.0 + 10.0 ** rng.uniform(-5.0, math.log10(63.0))
            ensemble = build_ensemble(ProtocolParams(2, alpha, eta))

            def scaled(x):
                z = min(max(float(x[0]), -60.0), 60.0)
                q = np.array([1.0, math.exp(z)]) / (1.0 + math.exp(z))
                return math.log2(invariant_trace(ensemble.rho0, q, a)) / (a - 1.0)

            best = min(nelder_mead(scaled, initial_simplex([z0], 0.5),
                                   f_tol=1e-14, max_iter=100).fun
                       for z0 in (-3.0, 0.0, 3.0))
            tol = 1e-10 if a >= 1.001 else 1e-9
            assert abs(sandwiched_up_invariant(ensemble, a) - (1.0 - best)) <= tol

    def test_two_state_solve_matches_golden_section_reference(self, two_state_cases):
        # the root solve against the golden-section search it replaced, on
        # the same merit: at most 5.6e-16 max(1, a) apart in log T, scalar
        # and array, where both carry the rounding of a log(lam_+)
        cases, want = two_state_cases
        orders = np.array([a for _, a in cases])
        scalar = np.array([entropies._two_state_log_trace(rho0, a) for rho0, a in cases])
        array, certified = entropies._two_state_log_traces(
            np.array([rho0 for rho0, _ in cases]), orders)
        assert certified.all()
        bound = 1e-15 * np.maximum(1.0, orders)
        assert np.all(np.abs(scalar - want) <= bound)
        assert np.all(np.abs(array - want) <= bound)

    def test_two_state_solve_takes_few_evaluations(self, two_state_cases, monkeypatch):
        # the golden-section search took 66 merit evaluations per solve; the
        # root solve takes at most 14 on these points, 2.7 on average
        merit, counts = entropies._two_state_merit, []

        def counted(*args):
            evaluate, sense, start = merit(*args)
            counts.append(0)

            def count(z):
                counts[-1] += 1
                return evaluate(z)
            return count, sense, start

        monkeypatch.setattr(entropies, "_two_state_merit", counted)
        for rho0, a in two_state_cases[0]:
            entropies._two_state_log_trace(rho0, a)
        assert max(counts) <= 16

    def test_two_state_solve_stops_at_its_evaluation_cap(self, monkeypatch):
        # near a = 1/2 on a near-pure ensemble phi stays at rounding noise and
        # the solve once crept toward the clip without end; counted through
        # the merit, not by wall time
        merit, calls, evaluations = entropies._two_state_merit, [], []

        def counted(*args):
            evaluate, sense, start = merit(*args)
            calls.append(args[-1])

            def count(z):
                evaluations.append(z)
                return evaluate(z)
            return count, sense, start

        monkeypatch.setattr(entropies, "_two_state_merit", counted)
        hang = build_ensemble(ProtocolParams(2, 10.0, 0.9))
        with pytest.warns(ConvergenceWarning) as record:
            value = sandwiched_up_invariant(hang, 0.5)
        assert [str(w.message) for w in record] == [
            "two-state root solve at a=0.5 did not certify in 1000 evaluations: phi -4.12e-09, "
            "Frank-Wolfe gap 2.06e-09 above tolerance 6.93e-13; returning the last value"]
        assert len(evaluations) == entropies._TWO_STATE_MAX_EVAL and math.isfinite(value)
        # the array solve stops there too, and its grid hook leaves the point NaN
        calls.clear()
        grid = entropies.sandwiched_up_invariant_grid([hang], [0.5, 1.5])
        assert np.isnan(grid[0, 0]) and math.isfinite(grid[0, 1])
        assert calls.count(np) == entropies._TWO_STATE_MAX_EVAL

    def test_two_state_solve_stops_only_on_its_certificate(self, monkeypatch):
        # a bracket within 1e-11 in z once ended both twins after 2 evaluations at these points
        # of a 20000-point scan, with gaps of 1.6e-12 to 3.6e-12 above the tolerance, and the
        # stacked twin flagged them certified; each now certifies at its last evaluation
        points = [(3.494709487903549, 0.1126737193409224, 10.084462013745858),
                  (3.4367887284965457, 0.892558563576471, 51.493963746948204),
                  (3.482514156329505, 0.5398770362281413, 39.77705620934534),
                  (3.4852323784695693, 0.777170887681834, 4.801038776256277)]
        merit, gaps = entropies._two_state_merit, {}  # p0 -> the gap of its last evaluation

        def recorded(p0, *args):
            evaluate, sense, start = merit(p0, *args)

            def record(z):
                out = evaluate(z)
                gaps.update(zip(np.atleast_1d(p0).tolist(), np.atleast_1d(out[2]).tolist()))
                return out
            return record, sense, start

        monkeypatch.setattr(entropies, "_two_state_merit", recorded)
        rho0s = np.array([build_ensemble(ProtocolParams(2, alpha, eta)).rho0
                          for alpha, eta, _ in points])
        orders = np.array([a for *_, a in points])
        tol = entropies._CERTIFY_BITS * entropies.LN2
        for rho0, a in zip(rho0s, orders.tolist()):
            gaps.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                entropies._two_state_log_trace(rho0, a)
            [gap] = gaps.values()
            assert gap <= tol
        gaps.clear()
        _, certified = entropies._two_state_log_traces(rho0s, orders)
        assert certified.all() and len(gaps) == len(points)
        assert max(gaps.values()) <= tol

    def test_mixed_supports_share_one_stack(self):
        # QPSK rows with zero diagonal entries (eta = 1, alpha = 0 and alpha = 1e-8 leave one
        # nonzero entry, eta = 1 - 1e-5 two or three) and full rows, in one call: each row has
        # the bits and the flag of its one-row solve, and no numpy warning is raised
        points = [(1.0, 1.0), (0.0, 0.9), (1e-8, 0.9), (0.05, 0.99999), (1.0, 0.99999),
                  (1.0, 0.9), (2.5, 0.3)]
        orders = [0.7, 1.001, 4.0]
        rho0s = np.array([build_ensemble(ProtocolParams(4, alpha, eta)).rho0
                          for alpha, eta in points for _ in orders])
        a = np.tile(orders, len(points))
        assert [int((np.diag(rho0) > 0.0).sum()) for rho0 in rho0s[::3]] == [1, 1, 1, 2, 3, 4, 4]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_t, certified, gap = entropies._newton_log_traces(rho0s, a)
            for i in range(a.size):
                alone = entropies._newton_log_traces(rho0s[i:i + 1], a[i:i + 1])
                assert [v[0] for v in alone] == [log_t[i], certified[i], gap[i]]
        assert certified.all()
        # the values when each support size was solved as its own smaller stack
        assert log_t.tolist() == [0.0] * 9 + [
            -2.781362063409528e-11, 7.017467017740036e-13, 7.881268345208079e-06,
            -3.2444725538220894e-06, 5.52784701684386e-08, 0.006252406106353096,
            -0.020704244991208064, 0.00011644208078858548, 0.9431258815586625,
            -0.1925611232599101, 0.0008028723495385193, 3.4442024299100584]

    def test_four_state_single_point_is_a_one_row_stack(self):
        # one Newton solve: a point alone has the bits it has in a stack of
        # 200, on the optimizer's box and below a = 1
        rng = philox_rng(315)
        ensembles, orders = [], []
        for i in range(200):
            ensembles.append(build_ensemble(random_protocol(rng, 4)))
            orders.append(1.0 + 10.0 ** rng.uniform(-5.0, math.log10(63.0)) if i % 2
                          else rng.uniform(0.5, 1.0 - 1e-5))
        stacked = entropies.sandwiched_up_invariant_pairs(ensembles, orders)
        for ensemble, a, value in zip(ensembles, orders, stacked.tolist()):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ConvergenceWarning)
                alone = sandwiched_up_invariant(ensemble, a)
            grid = entropies.sandwiched_up_invariant_grid([ensemble], [a])[0, 0]
            assert (value != value) == (grid != grid) == bool(caught)
            if not caught:
                assert alone == value == grid

    @pytest.mark.parametrize("n_states", [2, 4])
    def test_rank_one_closed_form(self, n_states):
        # at alpha = 10, eta = 0.9 the contrast rounds to 1, so rho0 is
        # sqrt(m) sqrt(m)^T (to its det test for N=2) and the optimum is
        # log2 N + a / (1 - a) log2 |m|_p with p = a / (2a - 1); orders at
        # a = 1/2 and just above it are ROADMAP direction 1
        ensemble = build_ensemble(ProtocolParams(n_states, 10.0, 0.9))
        m = np.diag(ensemble.rho0)
        assert ensemble.params.contrast == 1.0
        for a in (0.500001, 0.51, 0.6, 0.9, 1.00001, 1.001, 1.5, 4.0, 16.0, 64.0):
            p = a / (2.0 * a - 1.0)
            log_norm = math.log2(m.max()) + math.log2(float(((m / m.max()) ** p).sum())) / p
            want = math.log2(n_states) + a / (1.0 - a) * log_norm
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = sandwiched_up_invariant(ensemble, a)
            assert abs(got - want) <= 4e-15 * (1.0 + 1.0 / abs(a - 1.0))

    def test_four_state_brackets_hold_at_every_iterate(self):
        # the stopping rule's brackets: at every iterate of the stacked solve,
        # the bottom is at most the certified value and the top at least it,
        # on the optimizer's box with eta at both ends (a 2400-point scan
        # found margins of at least 4.0e-15 and 2.2e-14 bits)
        rng = philox_rng(2027)
        etas = rng.uniform(0.0, 1.0, 160).tolist() + [0.0] * 20 + [1.0 - 1e-9] * 20
        rho0s = np.array([build_ensemble(ProtocolParams(4, rng.uniform(0.05, 3.0), eta)).rho0
                          for eta in etas])
        orders = 1.0 + 10.0 ** rng.uniform(-5.0, math.log10(63.0), len(etas))
        brackets = []

        def record(lower, upper):
            brackets.append((lower, upper))
            return np.zeros(lower.size, dtype=bool)

        log_t, certified, _ = entropies._newton_log_traces(rho0s, orders, record)
        assert certified.all() and len(brackets) > 10
        value = 2.0 + log_t / (math.log(2.0) * (1.0 - orders))
        for lower, upper in brackets:
            assert np.all(lower <= value) and np.all(value <= upper)

    def test_two_state_slope_matches_central_differences(self):
        # d(s log T)/dz = -|a - 1| (w_1 - q_1) with w_1 / w_0 = e^(z + phi);
        # at step 1e-5 the worst relative difference here is 9.0e-9
        rng = philox_rng(613)
        for _ in range(300):
            rho0 = build_ensemble(random_protocol(rng, 2)).rho0
            a, z = float(rng.uniform(0.5, 64.0)), float(rng.uniform(-20.0, 20.0))
            evaluate, _, _ = entropies._two_state_merit(
                float(rho0[0, 0].real), float(rho0[1, 1].real), float(abs(rho0[0, 1])) ** 2,
                a, math)
            w1 = math.exp(-entropies._softplus(-z - evaluate(z)[1]))
            slope = -abs(a - 1.0) * (w1 - math.exp(-entropies._softplus(-z)))
            numeric = (evaluate(z + 1e-5)[0] - evaluate(z - 1e-5)[0]) / 2e-5
            assert abs(numeric - slope) <= 1e-7 * abs(slope)

    def test_two_state_solve_never_warns_at_the_edges(self):
        # pure rho_{E|0} (eta = 1 empties Eve's second basis state), both
        # ends of the amplitude range and the ends of the order range
        orders = [0.5, 1.0 - 1e-9, 1.0 + 1e-9, 64.0]
        for eta in (0.0, 1.0):
            ensembles = [build_ensemble(ProtocolParams(2, alpha, eta)) for alpha in (0.05, 3.0)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                grid = entropies.sandwiched_up_invariant_grid(ensembles, orders)
                values = [[sandwiched_up_invariant(e, a) for a in orders] for e in ensembles]
            for ensemble, row in zip(ensembles, values):
                for a, value in zip(orders, row):
                    want = two_state_golden_log_trace(ensemble.rho0, a)
                    assert value == pytest.approx(1.0 + want / (math.log(2.0) * (1.0 - a)),
                                                  abs=1e-15 * max(1.0, a) / abs(1.0 - a))
                    if eta == 1.0:
                        assert value == 1.0
            assert np.all(np.abs(grid - values) <= 1e-15 * np.maximum(1.0, orders)
                          / np.abs(1.0 - np.array(orders)))

    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.9, 1.0])
    def test_array_solve_matches_single_point(self, eta):
        # the optimizer's 25 x 25 grid at the default order cap 4, orders
        # below one, and the grid at cap 64
        def grid(cap):
            return 1.0 + np.exp(np.linspace(math.log(1e-5), math.log(cap - 1.0), 25))

        alphas = np.linspace(0.05, 3.0, 25)
        order_sets = (grid(4.0), np.linspace(0.5, 0.999, 25), grid(64.0))
        # N=2: numpy's exp and log may differ from math's in the last ulp;
        # log T grows like a, and so does its rounding at cap 64
        rho0s = np.array([build_ensemble(ProtocolParams(2, float(alpha), eta)).rho0
                          for alpha in alphas])
        for orders, scaled in zip(order_sets, (False, False, True)):
            got, certified = entropies._two_state_log_traces(np.repeat(rho0s, 25, axis=0),
                                                             np.tile(orders, 25))
            assert certified.all()
            want = np.array([entropies._two_state_log_trace(rho0, float(a))
                             for rho0 in rho0s for a in orders])
            assert np.all(np.abs(got - want) <= 4e-15 * (np.tile(orders, 25) if scaled else 1.0))
        with pytest.raises(ValueError):
            entropies.sandwiched_up_invariant_grid(
                [build_ensemble(ProtocolParams(2, 1.0, eta))], [0.3])
        # N=4: a point certifies in the array solve exactly when it certifies
        # alone, and then each value lies within 1e-12 bits of the optimum
        ensembles = [build_ensemble(ProtocolParams(4, float(alpha), eta)) for alpha in alphas]
        for orders in order_sets:
            got = entropies.sandwiched_up_invariant_grid(ensembles, orders).ravel()
            want, certified = [], []
            for ensemble in ensembles:
                for a in orders:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always", ConvergenceWarning)
                        want.append(sandwiched_up_invariant(ensemble, float(a)))
                    certified.append(not caught)
            assert np.array_equal(~np.isnan(got), certified)
            assert np.all(np.abs(got - want)[certified] <= 2e-12)
        with pytest.raises(ValueError):
            entropies.sandwiched_up_invariant_grid(ensembles[:1], [0.3])

    def test_four_state_newton_matches_reference(self):
        # oracle 3 for N=4: Nelder-Mead from the log-odds of diag(rho_{E|0})
        # and from uniform weights, then a restart from the better end point,
        # on the eigvalsh trace functional scaled to bits. The Newton solve
        # must certify every point without a warning.
        rng = philox_rng(312)
        for _ in range(200):
            alpha, eta = rng.uniform(0.0, 3.0), rng.uniform(0.0, 1.0)
            a = 1.0 + 10.0 ** rng.uniform(-3.0, math.log10(63.0))
            ensemble = build_ensemble(ProtocolParams(4, alpha, eta))
            rho0 = ensemble.rho0

            def scaled(x):
                z = np.concatenate(([0.0], np.clip(x, -60.0, 60.0)))
                q = np.exp(z - z.max())
                return math.log2(invariant_trace(rho0, q / q.sum(), a)) / (a - 1.0)

            p = np.clip(np.diag(rho0).real, 1e-30, None)
            runs = [nelder_mead(scaled, initial_simplex(z0, 0.5), f_tol=1e-14, max_iter=2000)
                    for z0 in (np.log(p[1:] / p[0]), np.zeros(3))]
            top = min(runs, key=lambda res: res.fun)
            polish = nelder_mead(scaled, initial_simplex(top.x, 0.01),
                                 f_tol=1e-15, max_iter=2000)
            best = min(top.fun, polish.fun)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = sandwiched_up_invariant(ensemble, a)
            tol = 1e-10 if a >= 1.001 else 1e-9
            assert abs(value - (2.0 - best)) <= tol

    def test_newton_below_one_matches_reference(self):
        # oracle 3 below a = 1, where the trace is maximized: Nelder-Mead
        # from the log-odds of diag(rho_E) and from uniform weights, then a
        # restart from the better end point, on the eigvalsh trace
        # functional scaled to bits. The Newton solve must certify every
        # point without a warning.
        rng = philox_rng(313)
        for _ in range(200):
            n_states = int(rng.choice([2, 4]))
            alpha, eta = rng.uniform(0.0, 3.0), rng.uniform(0.0, 1.0)
            a = rng.uniform(0.5, 1.0 - 1e-5)
            ensemble = build_ensemble(ProtocolParams(n_states, alpha, eta))

            def scaled(x):
                z = np.concatenate(([0.0], np.clip(x, -60.0, 60.0)))
                q = np.exp(z - z.max())
                return -math.log2(invariant_trace(ensemble.rho0, q / q.sum(), a)) / (1.0 - a)

            p = np.clip(ensemble.avg_diag, 1e-30, None)
            dim = n_states - 1
            runs = [nelder_mead(scaled, initial_simplex(z0, 0.5), f_tol=1e-14, max_iter=2000)
                    for z0 in (np.log(p[1:] / p[0]), np.zeros(dim))]
            top = min(runs, key=lambda res: res.fun)
            polish = nelder_mead(scaled, initial_simplex(top.x, 0.01),
                                 f_tol=1e-15, max_iter=2000)
            best = min(top.fun, polish.fun)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = sandwiched_up_invariant(ensemble, a)
            assert abs(value - (math.log2(n_states) - best)) <= 1e-10

    def test_near_pure_below_one_certifies_or_names_the_gap(self):
        # near-pure rho_{E|0} and a near 1/2: the support cut can put the
        # supremum on a discontinuity, where no certificate exists. Each
        # solve must then warn with the order, the gap and the tolerance,
        # and its value must still lie between sand_down and log2 N.
        rng = philox_rng(314)
        for _ in range(200):
            n_states = int(rng.choice([2, 4]))
            alpha = rng.uniform(0.0, 3.0)
            eta = 1.0 - 10.0 ** rng.uniform(-6.0, -2.0)
            a = 0.5 + 10.0 ** rng.uniform(-4.0, math.log10(0.5))
            ensemble = build_ensemble(ProtocolParams(n_states, alpha, eta))
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                value = sandwiched_up_invariant(ensemble, a)
            for warning in record:
                message = str(warning.message)
                assert warning.category is ConvergenceWarning
                assert f"a={a:.6g} did not certify" in message
                assert "gap" in message and "tolerance 6.93e-13" in message
            assert sandwiched_down_cq(ensemble, a) - 1e-12 <= value <= math.log2(n_states) + 1e-12

    @pytest.mark.parametrize("a", [16.0, 0.7])
    def test_uncertified_four_state_solve_names_order_gap_and_tolerance(
            self, qpsk_ref, monkeypatch, a):
        monkeypatch.setattr(entropies, "_NEWTON_MAX_ITER", 0)
        with pytest.warns(ConvergenceWarning) as record:
            value = sandwiched_up_invariant(qpsk_ref, a)
        message = str(record[0].message)
        assert f"a={a:g} did not certify" in message
        assert "gap" in message and "tolerance 6.93e-13" in message
        assert math.isfinite(value)

    def test_restricted_matches_full_bloch_search(self):
        # oracle 2: direct search over every 2x2 density matrix, against the
        # full symbol sum (the single-state reduction needs invariance)
        ensemble = build_ensemble(ProtocolParams(2, 1.0, 0.6))
        a = 1.2
        c = (1.0 - a) / (2.0 * a)

        def objective(x):
            r = np.asarray(x)
            norm = np.linalg.norm(r)
            if norm >= 1.0 - 1e-9:
                r = r * ((1.0 - 1e-9) / norm)
            sigma = 0.5 * np.array([[1.0 + r[2], r[0] - 1j * r[1]],
                                    [r[0] + 1j * r[1], 1.0 - r[2]]])
            x_mat = matrix_power(sigma, c)
            total = 0.0
            for rho in conditional_states(ensemble.params):
                lam = np.clip(np.linalg.eigvalsh(x_mat @ rho @ x_mat), 0.0, None)
                total += float((lam**a).sum())
            return total / 2.0**a

        best = math.inf
        for start in ([0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, -0.5],
                      [0.3, 0.0, 0.3], [0.0, 0.3, -0.3]):
            res = nelder_mead(objective, initial_simplex(start, 0.2),
                              f_tol=1e-13, max_iter=2000)
            best = min(best, res.fun)
        oracle = math.log2(best) / (1.0 - a)
        assert abs(sandwiched_up_invariant(ensemble, a) - oracle) <= 1e-8

    def test_restricted_equals_unrestricted_qpsk(self):
        # the invariant restriction is exact for a >= 1/2 (joint
        # quasi-convexity plus the P_t x U_t invariance of rho_YE), so the
        # general search over all marginals must land on the same value;
        # at alpha = 0.6, a = 64 it once fell 0.087 bits below it
        for alpha in (0.6, 1.0, 1.5):
            ensemble = build_ensemble(ProtocolParams(4, alpha, 0.7))
            rho, _ = assemble_cq_state(ensemble)
            for a in (1.2, 2.0, 3.0, 32.0, 64.0):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    general = sandwiched_up_general(rho, (4, 4), a)
                assert abs(general - sandwiched_up_invariant(ensemble, a)) <= 1e-10

    @pytest.mark.parametrize("a", [16.0, 0.7])
    def test_uncertified_general_solve_names_order_gap_and_tolerance(self, monkeypatch, a):
        monkeypatch.setattr(entropies, "_NEWTON_MAX_ITER", 0)
        rho, _ = assemble_cq_state(build_ensemble(ProtocolParams(4, 1.0, 0.7)))
        with pytest.warns(ConvergenceWarning) as record:
            value = sandwiched_up_general(rho, (4, 4), a)
        message = str(record[0].message)
        assert f"general sandwiched Newton solve at a={a:g} did not certify" in message
        assert "gap" in message and "tolerance 6.93e-13" in message
        assert "lambda_max(R) - 1" in message
        assert math.isfinite(value)

    def test_orders_below_half_are_refused(self, bpsk_ref, qpsk_ref):
        # the trace is not concave there and invariant states need not be
        # optimal; entropy_report leaves the value NaN instead
        for ensemble in (bpsk_ref, qpsk_ref):
            with pytest.raises(ValueError, match="1/2"):
                sandwiched_up_invariant(ensemble, 0.3)
            assert math.isnan(entropy_report(ensemble, 0.3).sand_up)
            assert math.isfinite(entropy_report(ensemble, 0.5).sand_up)

    def test_min_entropy_limit_matches_guessing_probability(self):
        # as the order grows the value approaches -log2 of Eve's optimal
        # guessing probability, 1/2 + |rho0 - rho1|_1 / 4 for binary symbols
        params = ProtocolParams(2, 1.0, 0.9)
        rho0, rho1 = conditional_states(params)
        trace_norm = np.abs(np.linalg.eigvalsh(rho0 - rho1)).sum()
        h_min = -math.log2(0.5 + trace_norm / 4.0)
        value = sandwiched_up_invariant(build_ensemble(params), 48.0)
        assert value >= h_min - 1e-9
        assert abs(value - h_min) <= 0.05


class TestClosedForms:
    def test_eta_to_zero_limit_is_one_bit(self):
        for alpha in (0.3, 1.0, 2.5):
            closed = bpsk_closed_forms(ProtocolParams(2, alpha, 1e-12), 1.4)
            for value in closed:
                assert abs(value - 1.0) <= 1e-9

    def test_a_to_one_converges_to_von_neumann(self):
        params = ProtocolParams(2, 1.0, 0.6)
        vn = von_neumann_cq(build_ensemble(params))
        closed = bpsk_closed_forms(params, 1.0 + 1e-4)
        for value in closed:
            assert abs(value - vn) <= 1e-3

    def test_rejects_lossless_channel(self):
        with pytest.raises(ValueError, match="numeric"):
            bpsk_closed_forms(ProtocolParams(2, 1.0, 1.0), 1.2)

    def test_rejects_qpsk(self):
        with pytest.raises(ValueError, match="two-state"):
            bpsk_closed_forms(ProtocolParams(4, 1.0, 0.5), 1.2)


class TestMonotonicity:
    def test_ordering_and_decrease_in_a_sample(self):
        rng = philox_rng(306)
        ladder = (1.1, 1.3, 1.5, 2.0, 3.0)
        for _ in range(15):
            for n_states in (2, 4):
                ensemble = build_ensemble(random_protocol(rng, n_states))
                a = float(rng.uniform(1.05, 4.0))
                pd = petz_down_cq(ensemble, a)
                pu = petz_up_cq(ensemble, a)
                sd = sandwiched_down_cq(ensemble, a)
                su = sandwiched_up_invariant(ensemble, a)
                assert su >= sd - 1e-9 and sd >= pd - 1e-9 and pu >= pd - 1e-9
                for fn in (petz_down_cq, petz_up_cq, sandwiched_down_cq,
                           sandwiched_up_invariant):
                    values = [fn(ensemble, step) for step in ladder]
                    assert (np.diff(values) <= 1e-9).all()


class TestGeneralEntropies:
    @pytest.mark.parametrize("fn", [petz_down_general, petz_up_general,
                                    sandwiched_down_general, sandwiched_up_general])
    def test_product_state_gives_renyi_of_first_factor(self, fn):
        rho_a = random_density(2, seed=61)
        rho_b = random_density(3, seed=62)
        rho = np.kron(rho_a, rho_b)
        for a in (0.6, 1.5, 2.0):
            lam = np.linalg.eigvalsh(rho_a)
            renyi = math.log2(float((lam**a).sum())) / (1.0 - a)
            assert abs(fn(rho, (2, 3), a) - renyi) <= 1e-8

    @pytest.mark.parametrize("fn", [petz_down_general, petz_up_general,
                                    sandwiched_down_general, sandwiched_up_general])
    def test_bell_state_is_minus_one(self, fn):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
        rho = np.outer(psi, psi.conj())
        for a in (0.6, 1.3, 2.0):
            assert abs(fn(rho, (2, 2), a) + 1.0) <= 1e-9

    def test_trivial_conditioner_gives_unconditional_entropy(self):
        rho = random_density(3, seed=63)
        for a in (0.7, 1.6):
            lam = np.linalg.eigvalsh(rho)
            renyi = math.log2(float((lam**a).sum())) / (1.0 - a)
            assert abs(petz_down_general(rho, (3, 1), a) - renyi) <= 1e-10
            assert abs(petz_up_general(rho, (3, 1), a) - renyi) <= 1e-10

    def test_sandwiched_equals_petz_when_commuting(self):
        # classical (diagonal) joint state commutes with its conditioner
        joint = np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex)
        for a in (0.7, 1.4, 2.2):
            assert abs(sandwiched_down_general(joint, (2, 2), a)
                       - petz_down_general(joint, (2, 2), a)) <= 1e-10

    def test_sandwiched_up_dominates_down(self):
        rng = philox_rng(307)
        for seed in range(10):
            rho = random_density(6, seed=seed, rank=3)
            for a in (1.3, 2.0):
                up = sandwiched_up_general(rho, (2, 3), a)
                down = sandwiched_down_general(rho, (2, 3), a)
                assert up >= down - 1e-9

    def test_support_violation_signaled(self):
        # a consistent bipartite state never escapes its own marginal, so
        # probe the guard directly with a mismatched conditioner
        import pskrates.entropies as ent

        rho = np.diag([0.99, 0.01, 0.0, 0.0]).astype(complex)  # weight on |0>|1>
        sigma = np.kron(np.eye(2), np.diag([1.0, 0.0]))  # conditioner misses it
        with pytest.raises(ValueError, match="support violation"):
            ent._check_support(rho, sigma)

    def test_sandwiched_up_needs_half_or_more(self):
        rho = random_density(4, seed=77)
        with pytest.raises(ValueError, match="1/2"):
            sandwiched_up_general(rho, (2, 2), 0.3)

    def test_general_solve_rejects_steps_that_underflow_sigma(self):
        # Schmidt weights 1, 1e-4, 1e-8, 1e-12 across AB|C: at a = 64 a
        # trial Newton step sends an eigenvalue of sigma below the smallest
        # double, which once raised LinAlgError (and overflow warnings); the
        # line search must reject it and the duality must still hold
        rng = philox_rng(34)
        q, _ = np.linalg.qr(rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4)))
        weights = np.array([1.0, 1e-4, 1e-8, 1e-12])
        psi = (q * np.sqrt(weights / weights.sum())).reshape(-1)
        rho_ab, rho_ac = marginal_pair(psi, (2, 3, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residual = (sandwiched_up_general(rho_ab, (2, 3), 64.0)
                        + sandwiched_up_general(rho_ac, (2, 4), 64.0 / 127.0))
        assert abs(residual) <= 1e-10


def test_weight_on_the_support_cut_keeps_log2_n():
    # at eta = 0 Bob's outcome is independent of Eve's state, so every
    # conditional entropy is log2 2 = 1 bit. At alpha = 1e-6,
    # rho_E = diag(1 - 1e-12, 1e-12) puts its second weight on the relative
    # cut; dropping it lowers each Renyi value by log2(1 - 1e-12) / (a - 1),
    # 1.4e-9 bits at a = 0.999
    ensemble = build_ensemble(ProtocolParams(2, 1e-6, 0.0))
    assert abs(sandwiched_up_invariant(ensemble, 0.999) - 1.0) <= 1e-10


def test_sandwiched_down_keeps_small_weights_above_one():
    # above order 1 no eigenvalue of M is cut: at alpha = 1e-6, eta = 0.25
    # M has a 7.5e-13 relative eigenvalue, and cutting it lifted sand_down
    # to 1.0000000010819574 at a = 1.001, above sand_up (truth 1)
    ensemble = build_ensemble(ProtocolParams(2, 1e-6, 0.25))
    down = sandwiched_down_cq(ensemble, 1.001)
    assert abs(down - 1.0) <= 1e-10
    assert down <= sandwiched_up_invariant(ensemble, 1.001) + 1e-12


def test_entropy_report_consistency(bpsk_ref):
    report = entropy_report(bpsk_ref, 1.2)
    assert report.petz_down == pytest.approx(petz_down_cq(bpsk_ref, 1.2), abs=1e-12)
    assert report.von_neumann == pytest.approx(von_neumann_cq(bpsk_ref), abs=1e-12)
    assert report.bound_b == pytest.approx(continuity_bound(bpsk_ref, 1.2), abs=1e-12)
    report_high = entropy_report(bpsk_ref, 3.0)
    assert math.isnan(report_high.bound_b) and math.isnan(report_high.coeff_k)
