"""Conditional entropies of classical-quantum ensembles and bipartite states.

All values are in bits (log base 2); natural logs appear only inside the
entropy-variance prefactor and the continuity coefficient, where the
underlying bounds use them. Two evaluation paths exist for the two-state
protocol: the numeric path below, working on the stored ensemble matrices,
and hyperbolic closed forms (``bpsk_closed_forms``) derived from the same
states. They agree to ~1e-12 and cross-validate each other.

Rényi orders: the ``*_cq`` functions accept any a > 0, a != 1, and the
optimized sandwiched entropies any a >= 1/2, a != 1. The rate estimators
impose their own narrower ranges (a > 1, or a in (1, 2) for the continuity
bound).
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .linalg import matrix_log2, matrix_power, partial_trace
from .optimize import initial_simplex, nelder_mead
from .states import CQEnsemble, ProtocolParams

LN2 = math.log(2.0)


class ConvergenceWarning(RuntimeWarning):
    """An iterative optimization returned its best value without converging."""


#: The continuity coefficient has a pole at a = 2; stay strictly below it.
CONTINUITY_A_MAX = 2.0 - 1e-6

#: Closed forms break down at eta = 1 (artanh(1)); callers fall back to the
#: numeric path beyond this.
CLOSED_FORM_ETA_MAX = 1.0 - 1e-9


def _check_order(a: float) -> float:
    a = float(a)
    if not math.isfinite(a) or a <= 0.0 or a == 1.0:
        raise ValueError(f"Renyi order must be positive and != 1, got {a}")
    return a


def _tr_power(matrix: np.ndarray, a: float) -> float:
    """tr(M^a) for PSD Hermitian M on its support.

    The one spectral kernel of the numeric path. Rounding noise below the
    relative support cutoff is dropped; for a < 1 such noise would otherwise
    be amplified (1e-16 eigenvalues contribute 1e-8 at a = 1/2). The value
    alone needs only ``eigvalsh``, which is cheaper than ``eigh``.
    """
    with np.errstate(over="ignore"):
        lam = np.linalg.eigvalsh(matrix)
        lam = lam[lam > linalg.SUPPORT_CUTOFF * max(float(lam[-1]), 0.0)]
        return float((lam**a).sum())


def _entropy_bits(matrix: np.ndarray) -> float:
    """Spectral entropy -sum lam log2 lam over the support."""
    lam = np.linalg.eigvalsh(matrix)
    lam = lam[lam > 0.0]
    return float(-(lam * np.log2(lam)).sum()) if lam.size else 0.0


def _petz_down(n_states: int, rho0: linalg.Spectrum,
               avg: linalg.Spectrum, a: float) -> float:
    """log2 N + log2 tr(rho_{E|0}^a rho_E^(1-a)) / (1 - a) from the support spectra."""
    a = _check_order(a)
    t = np.trace(linalg.apply_on_support(rho0, lambda lam: lam**a)
                 @ linalg.apply_on_support(avg, lambda lam: lam**(1.0 - a))).real
    return math.log2(n_states) + math.log2(t) / (1.0 - a)


def petz_down_cq(ensemble: CQEnsemble, a: float) -> float:
    """Petz-Rényi conditional entropy of the ensemble, reduced form.

    log2 N + log2 tr(rho_{E|0}^a rho_E^(1-a)) / (1 - a), with powers
    restricted to the support.
    """
    return _petz_down(ensemble.n_states, linalg.support_spectrum(ensemble.cond_states[0]),
                      linalg.support_spectrum(ensemble.avg_state), a)


def petz_up_cq(ensemble: CQEnsemble, a: float) -> float:
    """Optimized Petz-Rényi conditional entropy.

    -(a/(1-a)) (log2 N - log2 tr[(sum_y rho_{E|y}^a)^(1/a)]).
    """
    a = _check_order(a)
    total = sum(matrix_power(rho, a) for rho in ensemble.cond_states)
    t = np.trace(matrix_power(total, 1.0 / a)).real
    return -a / (1.0 - a) * (math.log2(ensemble.n_states) - math.log2(t))


def _invariant_objective(rho0: np.ndarray, a: float):
    """Trace functional q -> tr[(D rho0 D)^a], D = diag(q^((1-a)/2a)).

    q is a diagonal state, so its power is taken entry by entry and only
    exactly zero weights lie off the support: a relative cut would drop
    small weights that rho0 still occupies.
    """
    c = (1.0 - a) / (2.0 * a)

    def fn(q: np.ndarray) -> float:
        d = np.where(q > 0.0, q, 1.0) ** c * (q > 0.0)
        return _tr_power(d[:, None] * rho0 * d[None, :], a)

    return fn


def sandwiched_down_cq(ensemble: CQEnsemble, a: float) -> float:
    """Sandwiched Rényi conditional entropy, reduced form.

    log2 N + log2 tr[(rho_E^c rho_{E|0} rho_E^c)^a] / (1 - a) with
    c = (1 - a) / (2a): the invariant objective at q = diag(rho_E), as
    rho_E is diagonal by construction. Cutting its small weights would lift
    the value above log2 N.
    """
    a = _check_order(a)
    t = _invariant_objective(ensemble.cond_states[0], a)(np.diag(ensemble.avg_state).real)
    return math.log2(ensemble.n_states) + math.log2(t) / (1.0 - a)


# ---------------------------------------------------------------------------
# Optimized sandwiched entropy over symmetry-invariant conditioning states.
#
# Invariant states commute with every U_t; the U_t have non-degenerate
# diagonal phases in the stored basis, so the invariant set is exactly the
# diagonal states q: a 1-simplex for N=2 and a 3-simplex for N=4. With
# M = D rho_{E|0} D, D = diag(q)^c and c = (1-a)/2a, the trace
# T(q) = tr(M^a) is minimized for a > 1 and maximized for a < 1. It is
# convex in q for a > 1 and concave for 1/2 <= a < 1 (Frank-Lieb 2013);
# below 1/2 it is neither, and those orders are refused. Two paths solve
# for q, both in the log-odds z_i = log(q_i/q_0), clipped to [-60, 60]:
#
# * N=2, a > 1: the 2x2 spectrum has a closed form, evaluated in the log
#   domain so that orders up to 64 neither overflow nor underflow. Convexity
#   makes log T unimodal in z, and a golden-section search finds the
#   minimum to |dz| <= 1e-11 without warnings.
#
# * Every other case: a damped Newton method that minimizes s log T,
#   s = sign(a - 1), and stops on a certificate. Each iterate costs one
#   eigh of M, scaled by its largest eigenvalue so that
#   log T = a log(lam_max) + log tr(M'^a) with M' = M / lam_max. With
#   u_i = c log q_i and w_i = (M^a)_ii / T:
#   - gradient: d log T / du = 2a w, so d log T / dz_i = (1-a)(w_i - q_i);
#   - Hessian (Daleckii-Krein): d^2 T / du_k du_l = 2a sum_mn V_km V*_kn
#     f1(lam_m, lam_n)(lam_m + lam_n) V*_lm V_ln, f1 the divided
#     differences of x^a. Since log T(u + s) = log T(u) + 2a s, the
#     u-Hessian H_u of log T annihilates the all-ones vector, and the
#     log-odds Hessian is c^2 H_u + (a-1)(diag q - q q^T), both restricted
#     to i, j >= 1. Its eigenvalues enter the step by absolute value, as
#     log T need not be convex in z;
#   - certificate: the Frank-Wolfe gap of T at q is
#     |a-1| T (max_i r_i - 1), r_i = w_i / q_i, and bounds |T - T*|. So
#     max_i r_i - 1 <= e ln 2 bounds the entropy error by e bits; the solve
#     certifies e = _CERTIFY_BITS.
#   The computed r_i carries a rounding floor. eigh (Householder
#   tridiagonalization, then QR) returns the exact decomposition of M' + E
#   with |E|_F <= N^2 u |M'| (u the unit roundoff, |M'| = 1). The divided
#   differences of x^a on the kept spectrum, [x_min, 1], are at most L = a
#   for a > 1 and L = a x_min^(a-1) for a < 1, where x^a is not Lipschitz
#   at 0 and its slope grows toward the smallest kept eigenvalue x_min. So
#   (M'^a)_ii moves by at most L N^2 u, and tr(M'^a) >= 1. Hence
#   |dr_i| <= L N^2 u (1 / (q_i tr M'^a) + r_i) =: floor_i, which matters
#   for tiny q_i. The stopping test subtracts floor_i from each r_i - 1, and
#   a weight whose |r_i - 1| is within floor_i carries no usable gradient,
#   so the Newton step leaves it fixed. Steps are backtracked until s log T
#   falls by the Armijo amount, or until it stays within twice its own
#   rounding and the gap falls: near the optimum (or near a = 1) the
#   change in log T drops below its rounding, and the gap is then the
#   merit function. A solve that does not certify warns with the order,
#   the gap and the tolerance.
#
#   The start for a > 1, q_i proportional to rho_ii^(a/(2a-1)), is the
#   optimum for pure rho_{E|0} and as a -> 1. Its exponent diverges as
#   a -> 1/2, and started there the solve can stall on stationary points
#   that the support cut creates, so a < 1 starts from diag(rho_E) instead.
# ---------------------------------------------------------------------------

#: Log-odds search interval and tolerance of the two-state golden search.
_LOGODDS_CLIP = 60.0
_LOGODDS_TOL = 1e-11
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Entropy error (bits) the Newton solve certifies, and its iteration cap.
_CERTIFY_BITS = 1e-12
_NEWTON_MAX_ITER = 50
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


def _softplus(z: float) -> float:
    """log(1 + e^z) without overflow."""
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


def _two_state_log_trace(rho0: np.ndarray, a: float):
    """z -> log tr[(D rho0 D)^a] for N=2 and a > 1, q = (1, e^z) / (1 + e^z).

    M = D rho0 D has m00 = q0^2c rho00, m11 = q1^2c rho11 and
    |m01|^2 = (q0 q1)^2c |rho01|^2. The smaller eigenvalue comes from the
    determinant, (q0 q1)^2c det(rho0) / lam_+, not from a difference, and is
    dropped below the relative support cutoff as in ``_tr_power``.
    """
    c2 = (1.0 - a) / a
    p0, p1 = float(rho0[0, 0].real), float(rho0[1, 1].real)
    off = float(abs(rho0[0, 1])) ** 2
    det = max(p0 * p1 - off, 0.0)
    cutoff = linalg.SUPPORT_CUTOFF

    def fn(z: float) -> float:
        e0 = -c2 * _softplus(z)  # log q0^2c
        e1 = -c2 * _softplus(-z)  # log q1^2c
        m0, m1, cross = p0 * math.exp(e0), p1 * math.exp(e1), math.exp(e0 + e1)
        lam = 0.5 * (m0 + m1) + math.sqrt(0.25 * (m0 - m1) ** 2 + off * cross)
        ratio = cross * det / (lam * lam)
        log_t = a * math.log(lam)
        return log_t + math.log1p(ratio**a) if ratio > cutoff else log_t

    return fn


def _golden_min(fn, lo: float, hi: float, tol: float) -> float:
    """Smallest value of a unimodal ``fn`` on [lo, hi], bracketed to ``tol``."""
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = fn(x2)
    return min(f1, f2)


def _power_divided_differences(x: np.ndarray, a: float) -> np.ndarray:
    """f1(x_m, x_n) of f(x) = x^a for x in [0, 1], a > 0.

    With y the larger argument and r the ratio of the smaller to it, this is
    y^(a-1) expm1(a ln r) / expm1(ln r): exact for nearly equal arguments,
    a y^(a-1) at r = 1 and y^(a-1) at r = 0. At x_m = x_n = 0 it is set to
    0, which is f'(0) for a > 1; for a < 1 f'(0) is infinite, but the
    Hessian multiplies this entry by x_m + x_n = 0.
    """
    hi = np.maximum(x[:, None], x[None, :])
    lo = np.minimum(x[:, None], x[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = np.log(lo / hi)
        ratio = np.where(log_r == 0.0, a, np.expm1(a * log_r) / np.expm1(log_r))
        return np.where(hi > 0.0, hi ** (a - 1.0) * ratio, 0.0)


class _Iterate(NamedTuple):
    """One Newton iterate: log-odds, weights, scaled spectrum and certificate."""

    z: np.ndarray
    q: np.ndarray
    x: np.ndarray  # eigenvalues of M / lam_max, zero below the support cut
    v: np.ndarray
    w: np.ndarray  # (M^a)_ii / T
    t: float  # tr (M / lam_max)^a
    log_t: float
    noise: float  # rounding of log_t
    kkt: np.ndarray  # r_i - 1 with r_i = w_i / q_i
    floor: np.ndarray  # rounding floor of r_i

    @property
    def gap(self) -> float:
        return float((self.kkt - self.floor).max())


def _newton_log_trace(rho0: np.ndarray, a: float) -> float:
    """Certified opt_q log tr[(D rho0 D)^a], a >= 1/2 (see the comment above).

    The optimum is the minimum for a > 1 and the maximum for a < 1. A zero
    row of rho0 adds nothing to M, so its weight is set to zero. The largest
    diagonal entry is the reference weight q_0. For a < 1 the start is
    diag(rho0), which equals diag(rho_E) since every U_t is diagonal.
    """
    p = np.diag(rho0).real
    support = np.flatnonzero(p > 0.0)
    support = support[np.argsort(-p[support], kind="stable")]
    rho = rho0[np.ix_(support, support)]
    n = rho0.shape[0]
    c = (1.0 - a) / (2.0 * a)
    sense = 1.0 if a > 1.0 else -1.0
    tol = _CERTIFY_BITS * LN2

    def evaluate(z: np.ndarray) -> _Iterate:
        z = np.clip(z, -_LOGODDS_CLIP, _LOGODDS_CLIP)
        top = float(z.max(initial=0.0))
        log_q = np.concatenate(([0.0], z))
        log_q -= top + math.log(np.exp(log_q - top).sum())
        q = np.exp(log_q)
        d = np.exp(c * log_q)
        lam, v = np.linalg.eigh(rho * np.outer(d, d))
        x = lam / lam[-1]
        x[x <= linalg.SUPPORT_CUTOFF] = 0.0
        xa = x**a
        t = float(xa.sum())
        w = (v.real**2 + v.imag**2) @ xa / t
        ratio = w / q
        lipschitz = a if a > 1.0 else a * float(x[x > 0.0].min()) ** (a - 1.0)
        eps = lipschitz * n * n * _UNIT_ROUNDOFF
        log_scale, log_t = math.log(lam[-1]), math.log(t)
        return _Iterate(z, q, x, v, w, t, a * log_scale + log_t,
                        _UNIT_ROUNDOFF * (a * abs(log_scale) + abs(log_t)) + 2.0 * eps,
                        ratio - 1.0, eps * (1.0 / (q * t) + ratio))

    def newton_step(it: _Iterate, free: np.ndarray) -> tuple[float, np.ndarray]:
        k = it.q.size
        kernel = _power_divided_differences(it.x, a) * (it.x[:, None] + it.x[None, :])
        proj = (it.v.T[:, :, None] * it.v.T.conj()[:, None, :]).reshape(k, k * k)
        h_t = (proj * (kernel @ proj.conj())).sum(axis=0).real.reshape(k, k)
        g_u = 2.0 * a * it.w
        h_u = 2.0 * a * h_t / it.t - np.outer(g_u, g_u)
        qf = it.q[1:]
        h_z = sense * (c * c * h_u[1:, 1:] + (a - 1.0) * (np.diag(qf) - np.outer(qf, qf)))
        grad = sense * (1.0 - a) * (it.w - it.q)[1:][free]
        mu, vec = np.linalg.eigh(h_z[np.ix_(free, free)])
        mu = np.maximum(np.abs(mu), 1e-12 * np.abs(mu).max())
        step = np.zeros(k - 1)
        step[free] = -vec @ ((vec.T @ grad) / mu)
        return float(grad @ step[free]), step

    log_q0 = (a / (2.0 * a - 1.0) if a > 1.0 else 1.0) * np.log(p[support])
    it = evaluate(log_q0[1:] - log_q0[0])
    for _ in range(_NEWTON_MAX_ITER):
        # a weight whose residual is within its rounding floor stays put
        free = np.abs(it.kkt[1:]) > it.floor[1:]
        if it.gap <= tol or not free.any():
            break
        slope, step = newton_step(it, free)
        tau = 1.0
        while tau >= 1e-10:
            cand = evaluate(it.z + tau * step)
            merit, last = sense * cand.log_t, sense * it.log_t
            if merit <= last + 1e-4 * tau * slope or (
                    merit <= last + 2.0 * it.noise and cand.gap < it.gap):
                break
            tau *= 0.5
        else:  # no acceptable step: stop and report the gap
            break
        it = cand
    if it.gap > tol:
        warnings.warn(f"invariant-state Newton solve at a={a:.6g} did not certify: "
                      f"Frank-Wolfe gap {it.gap:.3g} above tolerance {tol:.3g} "
                      f"(max_i (M^a)_ii / (q_i T) - 1 against {_CERTIFY_BITS:g} bits * ln 2); "
                      "returning best value found", ConvergenceWarning, stacklevel=3)
    return it.log_t


def _check_sandwiched_up_order(a: float) -> float:
    a = _check_order(a)
    if a < 0.5:
        raise ValueError(f"optimized sandwiched entropy needs a >= 1/2, got {a}")
    return a


def sandwiched_up_invariant(ensemble: CQEnsemble, a: float) -> float:
    """Optimized sandwiched Rényi entropy over invariant conditioning states.

    Returns log2 N + log2 opt_q tr[(D rho_{E|0} D)^a] / (1 - a) where the
    optimum runs over the probability simplex of diagonal states (infimum
    for a > 1, supremum for a < 1). For a >= 1/2 this equals the optimized
    sandwiched entropy over all states: rho_YE is invariant under every
    P_t x U_t and the sandwiched divergence is jointly quasi-convex there
    (Frank-Lieb 2013; Tomamichel 2016, arXiv:1504.00233), so twirling a
    conditioning state never lowers the entropy. Orders below 1/2 lack that
    argument and the concavity the solve needs, and raise ValueError.

    The solve runs in the log-odds z_i = log(q_i / q_0) on one of two paths
    (details in the comment above ``_LOGODDS_CLIP``):

    * N=2, a > 1: a log-domain golden-section search over the closed-form
      2x2 spectrum; deterministic, never warns.
    * otherwise: damped Newton with the exact (Daleckii-Krein) Hessian. It
      stops once the Frank-Wolfe gap certifies the value to 1e-12 bits:
      max_i (M^a)_ii / (q_i tr M^a) - 1 <= 1e-12 ln 2, up to the rounding
      floor of that ratio. If it cannot certify, a ConvergenceWarning gives
      the order, the gap reached and the tolerance, and the best value found
      is returned.
    """
    a = _check_sandwiched_up_order(a)
    rho0 = ensemble.cond_states[0]
    n = ensemble.n_states
    if n == 2 and a > 1.0:
        log_t = _golden_min(_two_state_log_trace(rho0, a),
                            -_LOGODDS_CLIP, _LOGODDS_CLIP, _LOGODDS_TOL)
    else:
        log_t = _newton_log_trace(rho0, a)
    return math.log2(n) + log_t / (LN2 * (1.0 - a))


def von_neumann_cq(ensemble: CQEnsemble) -> float:
    """Conditional von Neumann entropy H(Y|E) in bits.

    log2 N + mean_y S(rho_{E|y}) - S(rho_E), from the block structure of the
    classical-quantum state.
    """
    avg_term = _entropy_bits(ensemble.avg_state)
    cond_term = sum(p * _entropy_bits(rho)
                    for p, rho in zip(ensemble.probs, ensemble.cond_states))
    return float(math.log2(ensemble.n_states) + cond_term - avg_term)


def entropy_variance_cq(ensemble: CQEnsemble) -> float:
    """Conditional entropy variance V(Y|E) in bits^2.

    tr[rho_YE (log2 rho_YE - log2 I x rho_E)^2] - D(rho_YE || I x rho_E)^2,
    evaluated block by block: block y carries p_y rho_{E|y} against rho_E.
    """
    log_avg = matrix_log2(ensemble.avg_state)
    first = 0.0
    divergence = 0.0
    for p, rho in zip(ensemble.probs, ensemble.cond_states):
        diff = matrix_log2(p * rho) - log_avg
        first += p * np.trace(rho @ diff @ diff).real
        divergence += p * np.trace(rho @ diff).real
    return float(first - divergence**2)


def _continuity_order(a: float) -> float:
    a = float(a)
    if not 1.0 < a <= CONTINUITY_A_MAX:
        raise ValueError(f"continuity coefficient needs a in (1, {CONTINUITY_A_MAX}], got {a}")
    return a


@dataclass(frozen=True, eq=False)
class ContinuityTerms:
    """The amplitude-only terms of the continuity bound of one ensemble.

    H(Y|E), V(Y|E) and the Petz-Rényi H_2 are fixed by the ensemble; only
    H_a changes with the order, and it is a matrix-power step on the stored
    support spectra of rho_{E|0} and rho_E, the same arithmetic as
    ``petz_down_cq``. Holds no reference to the ensemble, so the memo in
    ``continuity_terms`` never keeps one alive.
    """

    n_states: int
    von_neumann: float
    variance: float
    petz_2: float
    rho0: linalg.Spectrum
    avg: linalg.Spectrum

    def petz_down(self, a: float) -> float:
        """Petz-Rényi H_a(Y|E), equal to ``petz_down_cq`` bit for bit."""
        return _petz_down(self.n_states, self.rho0, self.avg, a)

    def continuity(self, a: float) -> tuple[float, float]:
        """(K(a), B_a) at an order a in (1, CONTINUITY_A_MAX]."""
        a = _continuity_order(a)
        h = self.von_neumann
        scale = 2.0 ** ((a - 1.0) * (h - self.petz_down(a))) / (6.0 * (2.0 - a) ** 3 * LN2)
        k = scale * math.log(2.0 ** (h - self.petz_2) + math.e**2) ** 3
        return k, h - (a - 1.0) * LN2 / 2.0 * self.variance - (a - 1.0) ** 2 * k


#: The terms of the last ensemble asked for, keyed weakly by identity
#: (``CQEnsemble`` is frozen, compares by identity and holds read-only
#: arrays). One slot suffices: ``optimize_rate`` scans its grid one
#: amplitude at a time and nearly every Nelder-Mead step brings a new one,
#: so a slot per live ensemble saves about 3% of the solves and holds
#: about 2 kB per amplitude for the whole search.
_TERMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def continuity_terms(ensemble: CQEnsemble) -> ContinuityTerms:
    """The amplitude-only continuity terms, computed once per ensemble.

    Repeated calls on one ensemble reuse them until another ensemble is
    asked for or the ensemble is garbage collected.
    """
    terms = _TERMS.get(ensemble)
    if terms is None:
        rho0 = linalg.support_spectrum(ensemble.cond_states[0])
        avg = linalg.support_spectrum(ensemble.avg_state)
        for arr in (*rho0, *avg):
            arr.setflags(write=False)
        terms = ContinuityTerms(
            n_states=ensemble.n_states,
            von_neumann=von_neumann_cq(ensemble),
            variance=entropy_variance_cq(ensemble),
            petz_2=_petz_down(ensemble.n_states, rho0, avg, 2.0),
            rho0=rho0,
            avg=avg,
        )
        _TERMS.clear()
        _TERMS[ensemble] = terms
    return terms


def continuity_coeff(ensemble: CQEnsemble, a: float) -> float:
    """Coefficient K(a) of the quadratic term in the continuity bound.

    2^((a-1)(H(Y|E) - H_a)) ln^3(2^(H(Y|E) - H_2) + e^2) / (6 (2-a)^3 ln 2),
    where H_a and H_2 are Petz-Rényi entropies. Defined for a in (1, 2);
    the pole at a = 2 is excluded.
    """
    return continuity_terms(ensemble).continuity(a)[0]


def continuity_bound(ensemble: CQEnsemble, a: float) -> float:
    """Second-order lower bound B_a(Y|E) on the sandwiched entropy.

    H(Y|E) - (a-1) ln2/2 V(Y|E) - (a-1)^2 K(a), valid for a in (1, 2).
    """
    return continuity_terms(ensemble).continuity(a)[1]


@dataclass(frozen=True)
class EntropyReport:
    """All entropy functionals of an ensemble at one Rényi order."""

    petz_down: float
    petz_up: float
    sand_down: float
    sand_up: float
    von_neumann: float
    variance: float
    coeff_k: float
    bound_b: float


def entropy_report(ensemble: CQEnsemble, a: float) -> EntropyReport:
    """Evaluate every functional once.

    K and B are NaN outside (1, 2), and the optimized sandwiched entropy is
    NaN below a = 1/2.
    """
    terms = continuity_terms(ensemble)
    k, b = math.nan, math.nan
    if 1.0 < a <= CONTINUITY_A_MAX:
        k, b = terms.continuity(a)
    return EntropyReport(
        petz_down=terms.petz_down(a),
        petz_up=petz_up_cq(ensemble, a),
        sand_down=sandwiched_down_cq(ensemble, a),
        sand_up=sandwiched_up_invariant(ensemble, a) if a >= 0.5 else math.nan,
        von_neumann=terms.von_neumann,
        variance=terms.variance,
        coeff_k=k,
        bound_b=b,
    )


# ---------------------------------------------------------------------------
# Closed forms for the two-state protocol.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BpskClosedFormInputs:
    """Scalar inputs shared by the two-state closed forms.

    kappa = exp(2 alpha^2 (eta - 1)) is the overlap of Eve's two states,
    r the discrimination contrast erf(sqrt(2 eta) alpha),
    g = sqrt(1 + (kappa^-2 - 1) r^2), theta = artanh(kappa g) and
    phi = artanh(kappa). Arguments of artanh are clamped to 1 - 1e-15
    against rounding; eta beyond CLOSED_FORM_ETA_MAX is rejected since
    kappa -> 1 makes phi diverge.
    """

    kappa: float
    r: float
    g: float
    theta: float
    phi: float

    @classmethod
    def from_params(cls, params: ProtocolParams) -> "BpskClosedFormInputs":
        if params.n_states != 2:
            raise ValueError("closed forms exist for the two-state protocol only")
        if params.eta > CLOSED_FORM_ETA_MAX:
            raise ValueError("closed forms diverge at eta = 1; use the numeric path")
        kappa = math.exp(2.0 * params.alpha**2 * (params.eta - 1.0))
        r = math.erf(math.sqrt(2.0 * params.eta) * params.alpha)
        g = math.sqrt(1.0 + (kappa**-2 - 1.0) * r * r)
        theta = math.atanh(min(kappa * g, 1.0 - 1e-15))
        phi = math.atanh(min(kappa, 1.0 - 1e-15))
        return cls(kappa=kappa, r=r, g=g, theta=theta, phi=phi)

    def delta(self, a: float) -> float:
        return math.sqrt(self.r**2 + math.sinh(self.phi / a) ** 2)


class BpskClosedForms(NamedTuple):
    petz_down: float
    petz_up: float
    sand_down: float


def bpsk_closed_forms(params: ProtocolParams, a: float) -> BpskClosedForms:
    """Analytic Petz, optimized-Petz and sandwiched entropies for N=2.

    Hyperbolic expressions in theta and phi; each reduces to 1 bit at
    eta -> 0 and matches the numeric ensemble path to ~1e-12.
    """
    a = _check_order(a)
    s = BpskClosedFormInputs.from_params(params)
    sech_theta = 1.0 / math.cosh(s.theta)
    sech_phi = 1.0 / math.cosh(s.phi)

    # cosh(a theta) cosh((1-a) phi) + sinh(a theta) sinh((1-a) phi) / g:
    # rearranged through cosh(x - y) for a > 1, where the printed form
    # subtracts nearly equal large terms.
    x, y = a * s.theta, (a - 1.0) * s.phi
    if a > 1.0:
        bracket = math.cosh(x - y) + (1.0 - 1.0 / s.g) * math.sinh(x) * math.sinh(y)
    else:
        bracket = math.cosh(x) * math.cosh(-y) + math.sinh(x) * math.sinh(-y) / s.g
    petz_down = 1.0 + (math.log2(sech_theta) * a + math.log2(sech_phi) * (1.0 - a)
                       + math.log2(bracket)) / (1.0 - a)

    plus = math.cosh(x) + math.sinh(x) / s.g
    minus = math.exp(-x) + (1.0 - 1.0 / s.g) * math.sinh(x)  # cosh - sinh/g, stable
    petz_up = a / (1.0 - a) * (1.0 / a - 2.0 + math.log2(sech_theta)
                               + math.log2(plus ** (1.0 / a) + minus ** (1.0 / a)))

    delta = s.delta(a)
    big = math.cosh(s.phi / a) + delta
    small = (1.0 - s.r**2) / big  # cosh - delta without cancellation
    sand_down = (-2.0 * a / (1.0 - a)
                 + (a + math.log2(sech_phi) + math.log2(small**a + big**a)) / (1.0 - a))
    return BpskClosedForms(petz_down, petz_up, sand_down)


# ---------------------------------------------------------------------------
# General bipartite conditional entropies (used by the duality identities).
# ---------------------------------------------------------------------------


def _conditioned_on_marginal(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    rho_b = partial_trace(rho, dims, keep="B")
    return np.kron(np.eye(dims[0]), rho_b)


def _check_support(rho: np.ndarray, sigma: np.ndarray) -> None:
    """Signal if rho has weight outside sigma's support."""
    w, v = linalg.support_spectrum(sigma)
    kernel = v[:, w == 0.0]
    if kernel.size:
        leak = float(np.einsum("ij,jk,ki->", kernel.conj().T, rho, kernel).real)
        if leak > 1e-10:
            raise ValueError(f"support violation: weight {leak:.3e} outside the conditioner")


def petz_down_general(rho, dims: tuple[int, int], a: float) -> float:
    """Petz-Rényi conditional entropy H_a(A|B) of a bipartite state.

    log2 tr(rho^a (I x rho_B)^(1-a)) / (1 - a). For a > 1 the state must be
    supported inside I x rho_B.
    """
    a = _check_order(a)
    rho = np.asarray(rho, dtype=complex)
    sigma = _conditioned_on_marginal(rho, dims)
    if a > 1.0:
        _check_support(rho, sigma)
    t = np.trace(matrix_power(rho, a) @ matrix_power(sigma, 1.0 - a)).real
    return math.log2(t) / (1.0 - a)


def petz_up_general(rho, dims: tuple[int, int], a: float) -> float:
    """Optimized Petz-Rényi conditional entropy, in closed form.

    (a/(1-a)) log2 tr{[tr_A(rho^a)]^(1/a)}; the optimizing marginal is known
    explicitly, no search is needed.
    """
    a = _check_order(a)
    rho = np.asarray(rho, dtype=complex)
    reduced = partial_trace(matrix_power(rho, a), dims, keep="B")
    t = np.trace(matrix_power(reduced, 1.0 / a)).real
    return a / (1.0 - a) * math.log2(t)


def sandwiched_down_general(rho, dims: tuple[int, int], a: float) -> float:
    """Sandwiched Rényi conditional entropy of a bipartite state."""
    a = _check_order(a)
    rho = np.asarray(rho, dtype=complex)
    sigma = _conditioned_on_marginal(rho, dims)
    if a > 1.0:
        _check_support(rho, sigma)
    x = matrix_power(sigma, (1.0 - a) / (2.0 * a))
    return math.log2(_tr_power(x @ rho @ x, a)) / (1.0 - a)


#: Relative value change that ends the marginal fixed point, and its step cap.
_GENERAL_VALUE_TOL = 1e-11
_GENERAL_MAX_ITER = 500


def sandwiched_up_general(rho, dims: tuple[int, int], a: float) -> float:
    """Optimized sandwiched Rényi conditional entropy over all marginals.

    Runs the fixed-point iteration sigma <- tr_A[(sigma^c rho sigma^c)^a]
    (normalized, geometrically damped on stalls), whose stationary point is
    the optimizer; falls back to a direct parameterized search if the
    iteration fails to settle. Supported for a >= 1/2, a != 1.
    """
    a = _check_sandwiched_up_order(a)
    rho = np.asarray(rho, dtype=complex)
    dim_a, dim_b = dims
    c = (1.0 - a) / (2.0 * a)
    sense = 1.0 if a > 1.0 else -1.0
    eye_a = np.eye(dim_a)

    def evaluate(sigma):
        x = np.kron(eye_a, matrix_power(sigma, c))
        # the cut of ``_tr_power``, with eigh for M^a = v diag(wa) v^dag
        with np.errstate(over="ignore"):
            w, v = np.linalg.eigh(x @ rho @ x)
            w = np.where(w > linalg.SUPPORT_CUTOFF * max(float(w[-1]), 0.0), w, 0.0)
            wa = np.where(w > 0.0, w, 1.0) ** a * (w > 0.0)
        nxt = partial_trace((v * wa) @ v.conj().T, dims, keep="B")
        nxt = 0.5 * (nxt + nxt.conj().T)
        return float(wa.sum()), nxt / np.trace(nxt).real

    sigma = partial_trace(rho, dims, keep="B")
    sigma = 0.5 * (sigma + sigma.conj().T)
    value, proposal = evaluate(sigma)
    converged = False
    for _ in range(_GENERAL_MAX_ITER):
        tau = 1.0
        accepted = None
        stalled_gap = None
        for _ in range(10):
            if tau == 1.0:
                cand = proposal
            else:
                log_mix = ((1.0 - tau) * matrix_log2(sigma, 1e-30)
                           + tau * matrix_log2(proposal, 1e-30))
                w, v = np.linalg.eigh(0.5 * (log_mix + log_mix.conj().T))
                cand = (v * 2.0**w) @ v.conj().T
                cand /= np.trace(cand).real
            v_cand, p_cand = evaluate(cand)
            if sense * (v_cand - value) <= 1e-18:
                accepted = (cand, v_cand, p_cand)
                break
            stalled_gap = abs(v_cand - value)
            tau *= 0.5
        if accepted is None:
            # every damped step was worse; a sub-tolerance gap means the
            # iteration is jittering at its stationary point
            converged = (stalled_gap is not None
                         and stalled_gap < _GENERAL_VALUE_TOL * max(1.0, abs(value)))
            break
        sigma, new_value, proposal = accepted
        if abs(new_value - value) < _GENERAL_VALUE_TOL * max(1.0, abs(new_value)):
            value = new_value
            converged = True
            break
        value = new_value

    if not converged:
        # direct search over sigma = L L^dag / tr, L complex lower-triangular
        tril = np.tril_indices(dim_b)
        n_par = 2 * len(tril[0])

        def unpack(z):
            low = np.zeros((dim_b, dim_b), dtype=complex)
            half = len(tril[0])
            low[tril] = z[:half] + 1j * z[half:]
            s = low @ low.conj().T
            tr = np.trace(s).real
            return s / tr if tr > 0 else np.eye(dim_b) / dim_b

        def objective(z):
            return sense * evaluate(unpack(z))[0]

        w0, v0 = np.linalg.eigh(sigma)
        l0 = v0 * np.sqrt(np.clip(w0, 1e-12, None))
        z0 = np.concatenate([l0[tril].real, l0[tril].imag])
        res = nelder_mead(objective, initial_simplex(z0, 0.1),
                          f_tol=1e-13, max_iter=400 * n_par)
        value = min(sense * value, res.fun) * sense
        if not res.converged:
            warnings.warn("marginal optimization did not reach tolerance; "
                          "returning best value found", ConvergenceWarning, stacklevel=2)
    return math.log2(value) / (1.0 - a)
