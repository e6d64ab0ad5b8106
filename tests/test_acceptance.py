"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line
(run with ``pytest -s`` to see them live). Expensive sweeps are shared
through module-scoped fixtures. Every tolerance is pinned here, not
computed.
"""

import math
import time

import numpy as np
import pytest

from pskrates.entropies import (
    bpsk_closed_forms,
    continuity_bound,
    petz_down_cq,
    petz_up_cq,
    sandwiched_down_cq,
    sandwiched_up_invariant,
    von_neumann_cq,
)
from pskrates.oracles import (
    McConfig,
    duality_suite,
    sample_heterodyne_qpsk,
    sample_homodyne_bpsk,
)
from pskrates.rates import optimize_rate
from pskrates.states import ProtocolParams, build_ensemble

from conftest import philox_rng

N_SWEEP = np.logspace(2.0, 8.0, 25)
ETA_FIG3 = 0.9


def _report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    tail = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {number} {name}: {status}{tail}", flush=True)


@pytest.fixture(scope="module")
def fig3_bpsk():
    """Optimized BPSK estimators: the 25-point sweep plus spot checks."""
    start = time.monotonic()
    ns = [float(n) for n in N_SWEEP]
    # one call per estimator over all of its block sizes
    s_runs = optimize_rate("S", 2, ETA_FIG3, ns + [500.0, 1e12])
    b_runs = optimize_rate("B", 2, ETA_FIG3, ns + [1e12])
    aep_runs = optimize_rate("AEP", 2, ETA_FIG3, [1e3, 1e5, 1e12])
    sweep_s = s_runs[:len(ns)]
    sweep_b = b_runs[:len(ns)]
    asymptotic = {"S": s_runs[-1], "AEP": aep_runs[-1], "B": b_runs[-1]}
    spot = {
        ("S", 500): s_runs[len(ns)],
        ("AEP", 1e3): aep_runs[0],
        ("AEP", 1e5): aep_runs[1],
    }
    elapsed = time.monotonic() - start
    return {"sweep_s": sweep_s, "sweep_b": sweep_b, "asymptotic": asymptotic,
            "spot": spot, "elapsed": elapsed}


@pytest.fixture(scope="module")
def qpsk_sweep():
    """Optimized QPSK S-estimator at representative block sizes."""
    ns = (1e3, 1e4, 1e6, 1e9, 1e12)
    return dict(zip(ns, optimize_rate("S", 4, ETA_FIG3, ns)))


def test_criterion_1_closed_form_equivalence():
    """|analytic - numeric| <= 1e-10 on the 50x50x5 grid, under 60 s."""
    start = time.monotonic()
    alphas = np.linspace(0.06, 3.0, 50)
    etas = np.linspace(0.01, 0.99, 50)
    orders = (1.1, 1.3, 1.5, 1.8, 2.0)
    worst = 0.0
    for alpha in alphas:
        for eta in etas:
            params = ProtocolParams(2, float(alpha), float(eta))
            ensemble = build_ensemble(params)
            for a in orders:
                closed = bpsk_closed_forms(params, a)
                worst = max(
                    worst,
                    abs(closed.petz_down - petz_down_cq(ensemble, a)),
                    abs(closed.petz_up - petz_up_cq(ensemble, a)),
                    abs(closed.sand_down - sandwiched_down_cq(ensemble, a)),
                )
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    _report(1, "closed-form equivalence", ok,
            f"max deviation {worst:.2e} (tol 1e-10), {elapsed:.1f}s (limit 60s)")
    assert worst <= 1e-10
    assert elapsed < 60.0


def test_criterion_2_boundary_values():
    """Entropies reach log2 N within 1e-8 at eta in {0, 1}; B stays below."""
    worst = 0.0
    bounds_ok = True
    for n_states in (2, 4):
        target = math.log2(n_states)
        for eta in (0.0, 1.0):
            for alpha in (0.5, 1.0, 2.0):
                ensemble = build_ensemble(ProtocolParams(n_states, alpha, eta))
                values = (
                    petz_down_cq(ensemble, 1.2),
                    petz_up_cq(ensemble, 1.2),
                    sandwiched_down_cq(ensemble, 1.2),
                    sandwiched_up_invariant(ensemble, 1.2),
                    von_neumann_cq(ensemble),
                )
                worst = max(worst, max(abs(v - target) for v in values))
                bounds_ok = bounds_ok and continuity_bound(ensemble, 1.2) < target
    ok = worst <= 1e-8 and bounds_ok
    _report(2, "boundary values", ok,
            f"max |entropy - log N| {worst:.2e} (tol 1e-8), "
            f"B below log N: {bounds_ok}")
    assert worst <= 1e-8
    assert bounds_ok


def test_criterion_3_entropy_minimum_location():
    """Interior von Neumann minimum at eta = 0.60 +- 0.05 for both protocols."""
    etas = np.linspace(0.3, 0.9, 121)
    locations = {}
    for n_states in (2, 4):
        values = [von_neumann_cq(build_ensemble(ProtocolParams(n_states, 1.0, float(e))))
                  for e in etas]
        locations[n_states] = float(etas[int(np.argmin(values))])
    ok = all(abs(loc - 0.60) <= 0.05 for loc in locations.values())
    _report(3, "entropy minimum location", ok,
            f"eta_min BPSK {locations[2]:.3f}, QPSK {locations[4]:.3f} "
            "(target 0.60 +- 0.05)")
    for loc in locations.values():
        assert abs(loc - 0.60) <= 0.05


def test_criterion_4_fig3_reproduction(fig3_bpsk):
    """Optimized BPSK rates at eta=0.9: asymptote, n=500, AEP signs, ordering."""
    failures = []
    asym = fig3_bpsk["asymptotic"]
    for est, result in asym.items():
        if not 0.43 <= result.rate <= 0.47:
            failures.append(f"asymptotic {est}={result.rate:.4f} outside [0.43,0.47]")
    r500 = fig3_bpsk["spot"][("S", 500)]
    if not 0.09 <= r500.rate <= 0.15:
        failures.append(f"r_S(500)={r500.rate:.4f} outside [0.09,0.15]")
    if not fig3_bpsk["spot"][("AEP", 1e3)].rate <= 0.0:
        failures.append("AEP rate positive at n=1e3")
    if not fig3_bpsk["spot"][("AEP", 1e5)].rate > 0.0:
        failures.append("AEP rate not positive at n=1e5")
    for n, rs, rb in zip(N_SWEEP, fig3_bpsk["sweep_s"], fig3_bpsk["sweep_b"]):
        if rs.rate < rb.rate - 1e-9:
            failures.append(f"ordering violated at n={n:.0f}: "
                            f"S={rs.rate:.4f} < B={rb.rate:.4f}")
    elapsed = fig3_bpsk["elapsed"]
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds 600s")
    ok = not failures
    _report(4, "Fig. 3 reproduction", ok,
            f"asymptote S/AEP/B = {asym['S'].rate:.4f}/{asym['AEP'].rate:.4f}/"
            f"{asym['B'].rate:.4f}, r_S(500)={r500.rate:.4f}, "
            f"sweep+spots in {elapsed:.0f}s" + ("; " + "; ".join(failures) if failures else ""))
    assert not failures, failures


def test_criterion_5_bpsk_alpha_window(fig3_bpsk):
    """BPSK optimizing amplitude within [0.90, 1.02] where a key is possible."""
    points = [(float(n), r) for n, r in zip(N_SWEEP, fig3_bpsk["sweep_s"])
              if r.key_possible]
    outliers = [(n, r.alpha_opt) for n, r in points
                if not 0.90 <= r.alpha_opt <= 1.02]
    lo = min(r.alpha_opt for _, r in points)
    hi = max(r.alpha_opt for _, r in points)
    ok = not outliers
    _report(5, "optimal-amplitude window (BPSK)", ok,
            f"alpha* in [{lo:.4f}, {hi:.4f}] over {len(points)} positive-rate "
            f"sweep points (window [0.90, 1.02])"
            + (f"; outliers: {outliers}" if outliers else ""))
    assert not outliers, (
        "optimal amplitudes outside [0.90, 1.02]: " + repr(outliers))


def test_criterion_5_qpsk_alpha_window(qpsk_sweep):
    """QPSK optimizing amplitude within [1.55, 1.70] at positive-rate sizes."""
    outliers = [(n, r.alpha_opt) for n, r in qpsk_sweep.items()
                if r.key_possible and not 1.55 <= r.alpha_opt <= 1.70]
    values = {n: round(r.alpha_opt, 4) for n, r in qpsk_sweep.items()}
    ok = not outliers
    _report(5, "optimal-amplitude window (QPSK)", ok,
            f"alpha* by n: {values} (window [1.55, 1.70])"
            + (f"; outliers: {outliers}" if outliers else ""))
    assert not outliers


def test_criterion_5_order_transition(fig3_bpsk):
    """The optimal order grows as the block shrinks: a*(500) > a*(1e6)."""
    a_500 = fig3_bpsk["spot"][("S", 500)].a_opt
    a_1e6 = fig3_bpsk["sweep_s"][16].a_opt  # 10^(2 + 6*16/24) = 1e6
    ok = a_500 > a_1e6
    _report(5, "order transition", ok, f"a*(500)={a_500:.4f} > a*(1e6)={a_1e6:.6f}")
    assert ok


def test_criterion_6_monotonicity():
    """Entropy orderings and decrease in the order, 1e3 points per protocol."""
    rng = philox_rng(601)
    ladder = (1.1, 1.3, 1.5, 2.0, 3.0)
    worst_order = 0.0
    worst_ladder = 0.0
    for n_states in (2, 4):
        for _ in range(1000):
            alpha = float(rng.uniform(0.0, 3.0))
            eta = float(rng.uniform(0.0, 1.0))
            a = float(rng.uniform(1.01, 4.0))
            ensemble = build_ensemble(ProtocolParams(n_states, alpha, eta))
            pd = petz_down_cq(ensemble, a)
            pu = petz_up_cq(ensemble, a)
            sd = sandwiched_down_cq(ensemble, a)
            su = sandwiched_up_invariant(ensemble, a)
            worst_order = max(worst_order, pd - sd, sd - su, pd - pu)
            for fn in (petz_down_cq, petz_up_cq, sandwiched_down_cq,
                       sandwiched_up_invariant):
                values = [fn(ensemble, step) for step in ladder]
                worst_ladder = max(worst_ladder, float(np.max(np.diff(values))))
    ok = worst_order <= 1e-9 and worst_ladder <= 1e-9
    _report(6, "monotonicity suite", ok,
            f"worst ordering violation {worst_order:.2e}, worst increase in a "
            f"{worst_ladder:.2e} (tol 1e-9)")
    assert worst_order <= 1e-9
    assert worst_ladder <= 1e-9


def test_criterion_7_duality():
    """Duality identities on 200 random pure tripartite states."""
    report = duality_suite(range(200))
    assert report.states_tested == 200
    ok = report.passed
    _report(7, "duality suite", ok,
            f"residuals petz {report.petz_residual:.2e}, mixed "
            f"{report.mixed_residual:.2e}, sandwich {report.sandwich_residual:.2e} "
            f"(tol {report.tol:g}) on {report.states_tested} states")
    assert report.petz_residual <= report.tol
    assert report.mixed_residual <= report.tol
    assert report.sandwich_residual <= report.tol


def test_criterion_8_monte_carlo():
    """Sampled tables within 4 binomial sigma at 1e6 shots per symbol."""
    start = time.monotonic()
    worst = 0.0
    cases = [(2, 1.0, 0.9), (2, 0.5, 0.3), (2, 0.0, 0.5),
             (4, 1.0, 0.9), (4, 0.5, 0.3), (4, 0.0, 0.5)]
    for n_states, alpha, eta in cases:
        cfg = McConfig(shots=1_000_000, seed=20250101,
                       params=ProtocolParams(n_states, alpha, eta))
        sampler = sample_homodyne_bpsk if n_states == 2 else sample_heterodyne_qpsk
        worst = max(worst, sampler(cfg).max_sigma_units)
    elapsed = time.monotonic() - start
    ok = worst <= 4.0 and elapsed < 30.0
    _report(8, "Monte-Carlo suite", ok,
            f"max deviation {worst:.2f} sigma (tol 4) over {len(cases)} "
            f"parameter points, {elapsed:.1f}s (limit 30s)")
    assert worst <= 4.0
    assert elapsed < 30.0


def test_criterion_9_order_one_limit():
    """All four Rényi variants within 2e-3 of von Neumann at a = 1 +- 1e-4."""
    rng = philox_rng(901)
    worst = 0.0
    for n_states in (2, 4):
        for _ in range(100):
            alpha = float(rng.uniform(0.0, 3.0))
            eta = float(rng.uniform(0.0, 1.0))
            ensemble = build_ensemble(ProtocolParams(n_states, alpha, eta))
            vn = von_neumann_cq(ensemble)
            for a in (1.0 - 1e-4, 1.0 + 1e-4):
                for fn in (petz_down_cq, petz_up_cq, sandwiched_down_cq,
                           sandwiched_up_invariant):
                    worst = max(worst, abs(fn(ensemble, a) - vn))
    ok = worst <= 2e-3
    _report(9, "order-one limit", ok, f"max |H_a - H| {worst:.2e} (tol 2e-3)")
    assert worst <= 2e-3
