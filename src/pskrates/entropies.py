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

import functools
import math
import warnings
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .linalg import matrix_power, partial_trace
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


def _power_support(a: float):
    """The eigenvalues tr(M^a) runs over: ``linalg.on_support`` below order 1, where x^a would
    amplify rounding (1e-16 adds 1e-8 at a = 1/2), and cutoff 0 above it, where x^a <= x and a
    cut genuine weight would lift a value near a = 1 by up to 1.44e-12 / (a - 1) bits."""
    return linalg.on_support if a < 1.0 else functools.partial(linalg.on_support, cutoff=0.0)


def _tr_power(matrix: np.ndarray, a: float, support) -> float:
    """tr(M^a) of PSD Hermitian M over the eigenvalues ``support`` keeps, from ``eigvalsh``."""
    with np.errstate(over="ignore"):
        lam = np.linalg.eigvalsh(matrix)
        return float((lam[support(lam)] ** a).sum())


def petz_down_cq(ensemble: CQEnsemble, a: float) -> float:
    """Petz-Rényi conditional entropy of the ensemble, reduced form.

    log2 N + log2 tr(rho_{E|0}^a rho_E^(1-a)) / (1 - a), with powers
    restricted to the support.
    """
    a = _check_order(a)
    m = ensemble.avg_diag  # rho_E is diagonal: its power is taken entry by entry
    d = np.diag(matrix_power(ensemble.rho0, a))
    support = linalg.on_support(m)
    with np.errstate(over="ignore", invalid="ignore"):
        t = float((d * np.power(m, 1.0 - a, out=np.zeros_like(m), where=support)).sum().real)
    if math.isfinite(t):
        return math.log2(ensemble.n_states) + math.log2(t) / (1.0 - a)
    # an m_j^(1-a) overflowed: sum the terms from their logs, shifted by the largest
    keep = support & (d.real > 0.0)
    logs = np.log(d.real[keep]) + (1.0 - a) * np.log(m[keep])
    log_t = logs.max() + math.log(np.exp(logs - logs.max()).sum())
    return math.log2(ensemble.n_states) + log_t / (LN2 * (1.0 - a))


def petz_up_cq(ensemble: CQEnsemble, a: float) -> float:
    """Optimized Petz-Rényi conditional entropy.

    -(a/(1-a)) (log2 N - log2 tr[(sum_y rho_{E|y}^a)^(1/a)]). The sum is
    the pinching sum_y U_y X U_y^dag = N diag(X) of X = rho_{E|0}^a, exact
    because the N phases of the U_y are distinct: tr is sum_j (N X_jj)^(1/a)
    over entries above the 1e-12 relative cut, from one eigendecomposition.
    """
    a = _check_order(a)
    total = ensemble.n_states * np.diag(matrix_power(ensemble.rho0, a)).real
    t = float((total[linalg.on_support(total)] ** (1.0 / a)).sum())
    return -a / (1.0 - a) * (math.log2(ensemble.n_states) - math.log2(t))


def sandwiched_down_cq(ensemble: CQEnsemble, a: float) -> float:
    """Sandwiched Rényi conditional entropy, reduced form.

    log2 N + log2 tr[(rho_E^c rho_{E|0} rho_E^c)^a] / (1 - a) with
    c = (1 - a) / (2a): the trace T(q) of the invariant solve below at
    q = diag(rho_E), as rho_E is diagonal by construction.
    """
    a = _check_order(a)
    # q is a diagonal state, so its power is taken entry by entry and only exactly zero
    # weights lie off the support: a relative cut would drop small weights that rho0 still
    # occupies and lift the value above log2 N
    q = ensemble.avg_diag
    d = np.where(q > 0.0, q, 1.0) ** ((1.0 - a) / (2.0 * a)) * (q > 0.0)
    t = _tr_power(d[:, None] * ensemble.rho0 * d[None, :], a, _power_support(a))
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
# * N=2: the 2x2 spectrum has a closed form, evaluated in the log domain
#   so that orders up to 64 neither overflow nor underflow. Its smaller
#   eigenvalue comes from the determinant, so it is accurate however small,
#   and no weight is cut: a weight of rho_{E|0} far below the largest one
#   counts at every q and every order. Convexity (concavity for a < 1)
#   makes log T unimodal in z = z_1, with slope (1-a)(w_1 - q_1) and
#   w_i = (M^a)_ii / T as for N=4. The solve finds the root of
#   phi = log(w_1 / w_0) - z, which has the sign of w_1 - q_1 and is nearly
#   linear in z where a weight is small. At the index of the smaller
#   diagonal entry of M, w_i = (x + (1-x) t^a) / (1 + t^a), with
#   t = lam_- / lam_+ and x the weight there of lam_+'s eigenvector: a sum
#   of positive terms. From the N=4 start, secant steps on phi (z + phi,
#   the step q <- w, first and where the secant points back), each at most
#   twice the last, run until phi changes sign; then Anderson-Bjorck regula
#   falsi (BIT 13, 1973) narrows the bracket. The solve stops only once the
#   Frank-Wolfe gap max_i w_i / q_i - 1 certifies _CERTIFY_BITS as for N=4:
#   a narrow bracket is no certificate. (At the clip, with phi pointing out,
#   the gap is at most the clipped weight e^-60, so a step pinned there has
#   already stopped; one that had not would run to the cap and warn.) Near
#   a = 1/2 on a near-pure rho_{E|0}, phi can stay at rounding noise of one
#   sign while the gap stays above tolerance, so that z creeps by steps of
#   that noise: after _TWO_STATE_MAX_EVAL evaluations the solve stops and
#   warns with the order, phi, the gap and the tolerance. In a scan of 6000
#   points (alpha <= 30, eta in [0, 1], a in [1/2, 64]) no point with
#   a - 1/2 >= 1e-6 took more than 21 evaluations.
#   The evaluation is written once, for one point (math) and for a stack of
#   points (numpy), whose solve runs every point's iteration together, each
#   with its own bracket, stopping test and cap. numpy's exp and log may
#   differ from math's in the last ulp, so the array solve only ranks the
#   grid of ``rates.optimize_rate``; the single-point solve produces every
#   reported value.
#
# * N=4: a damped Newton method that minimizes s log T, s = sign(a - 1),
#   and stops on a certificate. Each iterate costs one eigh of M, scaled by
#   its largest eigenvalue so that log T = a log(lam_max) + log tr(M'^a)
#   with M' = M / lam_max. With u_i = c log q_i and w_i = (M^a)_ii / T:
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
#   the gap and the tolerance. The general solve over all conditioning
#   states below runs the same loop (``_certified_newton``) on one point.
#
#   The start for a > 1, q_i proportional to rho_ii^(a/(2a-1)), is the
#   optimum for pure rho_{E|0} and as a -> 1. Its exponent diverges as
#   a -> 1/2, and started there the solve can stall on stationary points
#   that the support cut creates, so a < 1 starts from diag(rho_E) instead.
#
#   One solve serves one point and a stack of points alike: it runs every
#   point's Newton solve together on a (G, N, N) stack
#   (``_newton_log_traces``), each point with its own line search, iteration
#   count and certificate; a weight pinned by its floor keeps a zeroed row
#   and column in the stacked Hessian. A zero diagonal entry of rho_{E|0}
#   (a zero row) starts on the clip, where its floor pins it as it pins any
#   tiny weight. A row's arithmetic does not depend on the other rows, so a
#   point has the same bits alone (``sandwiched_up_invariant`` solves a
#   one-row stack) and in the optimizer's grid or polish stencils. The
#   stacked solve never warns; it reports whether each point certified.
#
#   Bracket ranking (the optimizer's grid, a > 1 only): given a stopping
#   rule, the stacked solve brackets each row's certified entropy at the
#   start and after every round (``_entropy_bracket``), and a row the rule
#   names ends there as one that cannot win, uncertified, with the trivial
#   bound log T = +inf (an entropy of -inf). log T_k >= log T*,
#   so H_k = log2 N + log T_k / ((1-a) ln 2) lies below it. The Frank-Wolfe
#   gap bounds T_k - T* by (a-1) T_k G+ with G+ = max_i (r_i - 1 + floor_i):
#   the floor is added here, as the bound must hold for the exact residual,
#   where the stopping test subtracts it. So the entropy lies below
#   H_k - log1p(-(a-1) G+) / ((a-1) ln 2), and nowhere is excluded once
#   (a-1) G+ >= 1. A zero row of rho_{E|0} has r_i = 0 exactly, so G+ leaves
#   out its floor, which the clipped weight makes ~1e11. Both sides carry
#   the merit's rounding noise / ((a-1) ln 2): the line search accepts
#   steps within it. On a
#   2400-point scan of the optimizer's box, H_k alone lay up to 5.7e-11
#   bits above the certified value and the bound with the floor subtracted
#   up to 4.0e-11 bits below it, both near a - 1 = 1e-5; with the rounding
#   and the floor added, every iterate's bracket held, by at least 4.0e-15
#   bits below and 2.2e-14 bits above. The rule sees the brackets of every
#   row, ended or not; a row it spares keeps the bits it has alone.
# ---------------------------------------------------------------------------

#: Log-odds clip of both invariant solves.
_LOGODDS_CLIP = 60.0

#: Entropy error (bits) both Newton solves certify, and their iteration cap.
_CERTIFY_BITS = 1e-12
_NEWTON_MAX_ITER = 50
#: Merit evaluations after which the two-state solve stops and reports (both twins).
_TWO_STATE_MAX_EVAL = 1000
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


def _softplus(z, xp=math):
    """log(1 + e^z) without overflow; (z + |z|) / 2 is max(z, 0) exactly."""
    return (z + abs(z)) / 2.0 + xp.log1p(xp.exp(-abs(z)))


def _two_state_merit(p0, p1, off, a, xp):
    """z -> (s log tr[(D rho0 D)^a], phi, Frank-Wolfe gap), s = sign(a - 1) and the start z.

    q = (1, e^z) / (1 + e^z), p0 and p1 are the diagonal of rho0 and off is
    |rho0_01|^2. M = D rho0 D has m00 = q0^2c p0, m11 = q1^2c p1 and
    |m01|^2 = (q0 q1)^2c off. The smaller eigenvalue comes from the
    determinant, (q0 q1)^2c det(rho0) / lam_+, not from a difference.
    det(rho0) within the rounding of p0 p1 - off counts as zero, so a pure
    rho0 stays pure. phi and w are those of the comment above
    ``_LOGODDS_CLIP``. The same code serves one point (floats, xp = math)
    and a stack of points (arrays, xp = numpy).
    """
    c2 = (1.0 - a) / a
    det = p0 * p1 - off
    det = det * (det > 8.0 * _UNIT_ROUNDOFF * p0 * p1)
    sense = xp.copysign(1.0, a - 1.0)

    def evaluate(z):
        e0 = -c2 * _softplus(z, xp)  # log q0^2c
        e1 = -c2 * _softplus(-z, xp)  # log q1^2c
        m0, m1, cross = p0 * xp.exp(e0), p1 * xp.exp(e1), xp.exp(e0 + e1)
        half, off_m = 0.5 * abs(m0 - m1), off * cross
        root = xp.sqrt(half * half + off_m)
        lam = 0.5 * (m0 + m1) + root
        ta = (cross * det / (lam * lam)) ** a
        # x <= 1/2; at M = m I (den = 0) it is 0/0, but t = 1 makes w = 1/2 for any x
        den = (half + root) ** 2 + off_m
        x = off_m / (den + (den == 0.0))
        w_small = (x + (1.0 - x) * ta) / (1.0 + ta)
        sign = 2 * (m1 <= m0) - 1  # 1 where index 1 holds the smaller of m00, m11
        flip = xp.exp(sign * z)  # q_big / q_small
        r_small, r_big = w_small * (1.0 + 1.0 / flip), (1.0 - w_small) * (1.0 + flip)
        # the smallest double keeps the log of an underflowed weight finite
        phi = sign * xp.log(w_small / (1.0 - w_small) + math.ulp(0.0)) - z
        return (sense * (a * xp.log(lam) + xp.log1p(ta)), phi,
                (r_small + r_big + abs(r_small - r_big)) / 2.0 - 1.0)

    # the start of the N=4 solve, a / max(a, 2a - 1) log(p1 / p0), before the clip
    start = 2.0 * a / (3.0 * a - 1.0 + abs(a - 1.0)) * xp.log(p1 / p0 + math.ulp(0.0))
    return evaluate, sense, start


def _two_state_log_trace(rho0: np.ndarray, a: float) -> float:
    """opt_q log tr[(D rho0 D)^a] for N=2, a >= 1/2: the minimum for a > 1, the maximum below."""
    p0, p1 = float(rho0[0, 0]), float(rho0[1, 1])
    evaluate, sense, start = _two_state_merit(p0, p1, float(rho0[0, 1]) ** 2, a, math)
    zb = min(max(start, -_LOGODDS_CLIP), _LOGODDS_CLIP)
    merit, fb, gap = evaluate(zb)
    za = fa = math.nan  # the other end of the bracket: NaN until phi changes sign
    zp, fp = zb + fb, 0.0  # the last point: the first secant step is z + phi
    evaluations = 1
    while gap > _CERTIFY_BITS * LN2:
        if evaluations == _TWO_STATE_MAX_EVAL:
            warnings.warn(f"two-state root solve at a={a:.6g} did not certify in {evaluations} "
                          f"evaluations: phi {fb:.3g}, Frank-Wolfe gap {gap:.3g} above "
                          f"tolerance {_CERTIFY_BITS * LN2:.3g}; returning the last value",
                          ConvergenceWarning, stacklevel=3)
            break
        zo, fo = (za, fa) if za == za else (zp, fp)  # the secant's other point
        sec = fb * (zb - zo) / (fo - fb) if fo != fb else 0.0
        step = min(abs(sec) if sec * fb > 0.0 else abs(fb), 2.0 * abs(zb - zo))
        z = min(max(zb + math.copysign(step, fb), -_LOGODDS_CLIP), _LOGODDS_CLIP)
        merit, fc, gap = evaluate(z)
        evaluations += 1
        if fc * fb < 0.0:
            za, fa = zb, fb
        else:
            m = 1.0 - fc / fb
            fa *= m if m > 0.0 else 0.5
        zp, fp, zb, fb = zb, fb, z, fc
    return sense * merit


def _two_state_log_traces(rho0s: np.ndarray, orders: np.ndarray) -> tuple:
    """``_two_state_log_trace`` at each 2x2 of a (G, 2, 2) stack and order of a (G,) array: log T
    and whether the point stopped before the evaluation cap, where the single-point solve warns.
    Each point has its own bracket, last point and stopping test, and each round evaluates only
    the points still running (indices ``live``), so each takes the steps it takes alone."""
    args = rho0s[:, 0, 0], rho0s[:, 1, 1], rho0s[:, 0, 1] ** 2, orders
    evaluate, sense, start = _two_state_merit(*args, np)
    merit, fb, gap = evaluate(np.clip(start, -_LOGODDS_CLIP, _LOGODDS_CLIP))
    live = np.flatnonzero(gap > _CERTIFY_BITS * LN2)
    zb, fb = np.clip(start, -_LOGODDS_CLIP, _LOGODDS_CLIP)[live], fb[live]
    za, fa, zp, fp = np.full(zb.shape, np.nan), np.full(zb.shape, np.nan), zb + fb, 0.0 * zb
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_TWO_STATE_MAX_EVAL - 1):  # a round evaluates each live point once
            if not live.size:
                break
            zo, fo = np.where(za == za, za, zp), np.where(za == za, fa, fp)
            sec = np.where(fo != fb, fb * (zb - zo) / (fo - fb), 0.0)
            step = np.minimum(np.where(sec * fb > 0.0, np.abs(sec), np.abs(fb)),
                              2.0 * np.abs(zb - zo))
            z = np.clip(zb + np.copysign(step, fb), -_LOGODDS_CLIP, _LOGODDS_CLIP)
            merit[live], fc, gap = _two_state_merit(*(v[live] for v in args), np)[0](z)
            flip, m = fc * fb < 0.0, 1.0 - fc / fb
            fa = np.where(flip, fb, fa * np.where(m > 0.0, m, 0.5))
            za, zp, fp, zb, fb = np.where(flip, zb, za), zb, fb, z, fc
            running = gap > _CERTIFY_BITS * LN2
            live, zb, fb, za, fa, zp, fp = (v[running] for v in (live, zb, fb, za, fa, zp, fp))
    return sense * merit, np.bincount(live, minlength=merit.size) == 0


def _power_divided_differences(x: np.ndarray, a) -> np.ndarray:
    """f1(x_m, x_n) of f(x) = x^a for x in [0, 1], a > 0 (any a if every x > 0).

    x may be a (G, k) stack of spectra with a (G, 1, 1) array of orders.

    With y the larger argument and r the ratio of the smaller to it, this is
    y^(a-1) expm1(a ln r) / expm1(ln r): exact for nearly equal arguments,
    a y^(a-1) at r = 1 and y^(a-1) at r = 0. At x_m = x_n = 0 it is set to
    0, which is f'(0) for a > 1; for a < 1 f'(0) is infinite, but the
    Hessian multiplies this entry by x_m + x_n = 0.
    """
    hi = np.maximum(x[..., :, None], x[..., None, :])
    lo = np.minimum(x[..., :, None], x[..., None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = np.log(lo / hi)
        ratio = np.where(log_r == 0.0, a, np.expm1(a * log_r) / np.expm1(log_r))
        return np.where(hi > 0.0, hi ** (a - 1.0) * ratio, 0.0)


class _ScaledPower(NamedTuple):
    """tr(M^a) of PSD matrices M from their scaled spectra, and its rounding: one entry (or row)
    per matrix."""

    top: np.ndarray  # lam_max
    x: np.ndarray  # eigenvalues of M / lam_max, zero at or below the cut
    v: np.ndarray
    xa: np.ndarray
    t: np.ndarray  # tr (M / lam_max)^a
    log_t: np.ndarray  # log tr(M^a)
    noise: np.ndarray  # rounding of log_t
    eps: np.ndarray  # rounding of the entries of (M / lam_max)^a


def _logs(x: np.ndarray) -> np.ndarray:
    """math.log of each entry: numpy's log may differ from it in the last ulp, and near a = 1 an
    ulp of log T is 1e-11 bits of entropy."""
    return np.array([math.log(v) for v in x.tolist()])


def _scaled_powers(m: np.ndarray, a: np.ndarray, n: int) -> _ScaledPower:
    """Scaled spectra of a (G, n, n) stack of PSD M with (G,) orders, from one stacked eigh, and
    the rounding bounds of their powers (n: dimension); all are each matrix's own.

    Eigenvalues at or below ``SUPPORT_CUTOFF`` times the largest count as zero: x is scaled to a
    top of 1, so the cut needs no ``linalg.on_support`` and its max. The entry bound is L n^2 u
    with L the largest divided difference of x^a on the kept spectrum (see ``_LOGODDS_CLIP``).
    """
    lam, v = np.linalg.eigh(m)
    top = lam[:, -1]
    x = lam / top[:, None]
    x[x <= linalg.SUPPORT_CUTOFF] = 0.0
    xa = x ** a[:, None]
    t = xa.sum(axis=1)
    x_min = np.where(x > 0.0, x, 1.0).min(axis=1)
    eps = np.where(a > 1.0, a, a * x_min ** (a - 1.0)) * n * n * _UNIT_ROUNDOFF
    log_scale, log_t = _logs(top), _logs(t)
    return _ScaledPower(top, x, v, xa, t, a * log_scale + log_t,
                        _UNIT_ROUNDOFF * (a * abs(log_scale) + abs(log_t)) + 2.0 * eps, eps)


class _Iterate(NamedTuple):
    """One Newton iterate: log-odds, weights, scaled spectrum and certificate."""

    point: np.ndarray  # log-odds z
    merit: float  # s log T, s = sign(a - 1)
    noise: float  # rounding of the merit
    gap: float  # max_i (r_i - 1 - floor_i)
    q: np.ndarray
    x: np.ndarray  # eigenvalues of M / lam_max
    v: np.ndarray
    w: np.ndarray  # (M^a)_ii / T
    t: float  # tr (M / lam_max)^a
    kkt: np.ndarray  # r_i - 1 with r_i = w_i / q_i
    floor: np.ndarray  # rounding floor of r_i


def _warn_uncertified(solve: str, a: float, gap: float, test: str, stacklevel: int) -> None:
    """The ConvergenceWarning of a Newton solve whose Frank-Wolfe gap stayed above tolerance."""
    warnings.warn(f"{solve} at a={a:.6g} did not certify: "
                  f"Frank-Wolfe gap {gap:.3g} above tolerance {_CERTIFY_BITS * LN2:.3g} "
                  f"({test} against {_CERTIFY_BITS:g} bits * ln 2); "
                  "returning best value found", ConvergenceWarning, stacklevel=stacklevel + 1)


def _entropy_bracket(it: _Iterate, a: np.ndarray, n: int, support: np.ndarray) -> tuple:
    """Bits below and above the certified entropy of each a > 1 iterate (see ``_LOGODDS_CLIP``);
    ``support`` marks the nonzero rows of rho0, whose r_i alone can exceed 1."""
    scale = (a - 1.0) * LN2
    h, rounding = math.log2(n) - it.merit / scale, it.noise / scale
    excess = np.minimum((a - 1.0) * np.where(support, it.kkt + it.floor, -1.0).max(axis=1), 1.0)
    with np.errstate(divide="ignore"):
        return h - rounding, h - np.log1p(-excess) / scale + rounding


def _newton_log_traces(rho0s: np.ndarray, a: np.ndarray, stop=None) -> tuple:
    """Certified opt_q log tr[(D rho0 D)^a] (min for a > 1, max below) at each N x N of a (G, N, N)
    stack with (G,) orders, all solves in step: log T, whether it certified, and the gap.

    Each rho0 is reordered by decreasing diagonal p, so q_0 is the reference weight; a zero row
    of rho0 adds nothing to M and starts on the log-odds clip, where its rounding floor pins it.
    Each round takes one stacked eigh for the trial points of every live solve and one for the
    Newton steps of those that moved. Each point keeps its own start, line search, iteration count
    and certificate, so its bits do not depend on the other rows. ``stop`` (a > 1) maps the
    stack's ``_entropy_bracket`` (lower, upper) to the rows that end at log T = +inf.
    """
    g, n = rho0s.shape[:2]
    p = np.diagonal(rho0s, axis1=1, axis2=2)
    perm = np.argsort(-p, axis=1, kind="stable")
    rho = rho0s[np.arange(g)[:, None, None], perm[:, :, None], perm[:, None, :]]
    p = np.take_along_axis(p, perm, axis=1)
    c, sense = (1.0 - a) / (2.0 * a), np.where(a > 1.0, 1.0, -1.0)
    tol = _CERTIFY_BITS * LN2

    def evaluate(rows: np.ndarray, z: np.ndarray) -> _Iterate:
        z = np.clip(z, -_LOGODDS_CLIP, _LOGODDS_CLIP)
        top = z.max(axis=1, initial=0.0)
        log_q = np.concatenate((np.zeros((rows.size, 1)), z), axis=1)
        log_q -= (top + _logs(np.exp(log_q - top[:, None]).sum(axis=1)))[:, None]
        q = np.exp(log_q)
        d = np.exp(c[rows, None] * log_q)
        sp = _scaled_powers(rho[rows] * (d[:, :, None] * d[:, None, :]), a[rows], n)
        w = (sp.v**2 @ sp.xa[:, :, None])[:, :, 0] / sp.t[:, None]
        ratio = w / q
        kkt, floor = ratio - 1.0, sp.eps[:, None] * (1.0 / (q * sp.t[:, None]) + ratio)
        return _Iterate(z, sense[rows] * sp.log_t, sp.noise, (kkt - floor).max(axis=1),
                        q, sp.x, sp.v, w, sp.t, kkt, floor)

    def newton_steps(rows: np.ndarray, it: _Iterate) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # a weight within its rounding floor stays put: zeroing its row,
        # column and slope leaves the step of the free weights as it is
        free = np.abs(it.kkt[:, 1:]) > it.floor[:, 1:]
        ar, cr, sr = a[rows, None, None], c[rows, None, None], sense[rows, None, None]
        kernel = _power_divided_differences(it.x, ar) * (it.x[:, :, None] + it.x[:, None, :])
        vt = it.v.transpose(0, 2, 1)
        proj = (vt[:, :, :, None] * vt[:, :, None, :]).reshape(rows.size, n, n * n)
        h_t = (proj * (kernel @ proj)).sum(axis=1).reshape(rows.size, n, n)
        g_u = 2.0 * a[rows, None] * it.w
        h_u = 2.0 * ar * h_t / it.t[:, None, None] - g_u[:, :, None] * g_u[:, None, :]
        qf = it.q[:, 1:, None]
        h_z = sr * (cr * cr * h_u[:, 1:, 1:]
                    + (ar - 1.0) * (qf * np.eye(n - 1) - qf * qf.transpose(0, 2, 1)))
        grad = np.where(free, sr[:, 0] * (1.0 - ar[:, 0]) * (it.w - it.q)[:, 1:], 0.0)
        mu, vec = np.linalg.eigh(np.where(free[:, :, None] & free[:, None, :], h_z, 0.0))
        mu = np.maximum(np.abs(mu), 1e-12 * np.abs(mu).max(axis=1, keepdims=True, initial=0.0))
        with np.errstate(divide="ignore", invalid="ignore"):  # rows with no free weight
            step = -vec @ ((vec.transpose(0, 2, 1) @ grad[:, :, None]) / mu[:, :, None])
        return (grad[:, None, :] @ step)[:, 0, 0], step[:, :, 0], free.any(axis=1)

    with np.errstate(divide="ignore"):  # a zero weight starts on the clip
        log_q0 = (a / np.where(a > 1.0, 2.0 * a - 1.0, a))[:, None] * np.log(p)
    it = evaluate(np.arange(g), log_q0[:, 1:] - log_q0[:, :1])
    slope, step = np.zeros(g), np.zeros((g, n - 1))
    tau, steps = np.ones(g), np.zeros(g, dtype=int)
    fresh = (it.gap > tol) & (_NEWTON_MAX_ITER > 0)  # solves that need a Newton step
    searching, pruned = np.zeros(g, dtype=bool), np.zeros(g, dtype=bool)  # in a line search; ended
    while True:
        if stop is not None:
            pruned |= (it.gap > tol) & stop(*_entropy_bracket(it, a, n, p > 0.0))
            fresh, searching = fresh & ~pruned, searching & ~pruned
        moving = np.flatnonzero(fresh)
        slope[moving], step[moving], searching[moving] = newton_steps(
            moving, _Iterate(*(field[moving] for field in it)))
        tau[moving], fresh[:] = 1.0, False
        rows = np.flatnonzero(searching)
        if not rows.size:
            break
        cand = evaluate(rows, it.point[rows] + tau[rows, None] * step[rows])
        accept = (cand.merit <= it.merit[rows] + 1e-4 * tau[rows] * slope[rows]) | (
            (cand.merit <= it.merit[rows] + 2.0 * it.noise[rows]) & (cand.gap < it.gap[rows]))
        moved, stuck = rows[accept], rows[~accept]
        for field, new in zip(it, cand):
            field[moved] = new[accept]
        steps[moved] += 1
        fresh[moved] = (it.gap[moved] > tol) & (steps[moved] < _NEWTON_MAX_ITER)
        searching[moved] = False
        tau[stuck] *= 0.5
        searching[stuck] = tau[stuck] >= 1e-10
    return np.where(pruned, np.inf, sense * it.merit), it.gap <= tol, it.gap


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

    * N=2: a bracketed secant and Anderson-Bjorck root solve of the
      closed-form gradient of the 2x2 spectrum in the log domain, which
      cuts no weight. It stops on the Frank-Wolfe certificate of N=4, and
      warns after ``_TWO_STATE_MAX_EVAL`` evaluations.
    * N=4: damped Newton with the exact (Daleckii-Krein) Hessian, run by
      ``_newton_log_traces`` on one row. It stops once the Frank-Wolfe gap
      certifies the value to 1e-12 bits: max_i (M^a)_ii / (q_i tr M^a) - 1
      <= 1e-12 ln 2, up to the rounding floor of that ratio.

    A solve that does not certify returns its last (N=2) or best (N=4) value
    with a ConvergenceWarning that gives the order, the gap reached and the
    tolerance, and for N=2 phi.
    """
    a = _check_sandwiched_up_order(a)
    rho0 = ensemble.rho0
    n = ensemble.n_states
    if n == 2:
        log_t = _two_state_log_trace(rho0, a)
    else:
        [log_t], [certified], [gap] = _newton_log_traces(rho0[None], np.array([a]))
        if not certified:
            _warn_uncertified("invariant-state Newton solve", a, gap,
                              "max_i (M^a)_ii / (q_i T) - 1", stacklevel=2)
    return math.log2(n) + float(log_t) / (LN2 * (1.0 - a))


def sandwiched_up_invariant_pairs(ensembles: Sequence[CQEnsemble], orders) -> np.ndarray:
    """``sandwiched_up_invariant`` of each ensemble at its own order, all solves run together.

    NaN where a solve did not certify (N=4) or reached its cap (N=2), and the single-point solve
    warns. N=4 shares that solve, so every other value has its bits; for N=2 numpy's exp and log
    may differ from math's in the last ulp, and the values may only rank."""
    return _invariant_values(np.array([e.rho0 for e in ensembles]), np.asarray(orders, float))


def sandwiched_up_invariant_grid(ensembles: Sequence[CQEnsemble], orders, stop=None) -> np.ndarray:
    """``sandwiched_up_invariant_pairs`` at every (ensemble, order) pair, shape (A, O). For N=4
    and a > 1, ``stop`` gets the brackets of the flattened grid and may end its rows early
    (``_newton_log_traces``): -inf."""
    orders = np.asarray(orders, dtype=float)
    rho0s = np.repeat([e.rho0 for e in ensembles], orders.size, axis=0)
    return _invariant_values(rho0s, np.tile(orders, len(ensembles)),
                             stop).reshape(len(ensembles), -1)


def _invariant_values(rho0s: np.ndarray, orders: np.ndarray, stop=None) -> np.ndarray:
    if not np.all(np.isfinite(orders) & (orders >= 0.5) & (orders != 1.0)):
        raise ValueError("optimized sandwiched entropy needs finite orders a >= 1/2, a != 1")
    n = rho0s.shape[-1]
    solve = _two_state_log_traces if n == 2 else functools.partial(_newton_log_traces, stop=stop)
    log_t, certified, *_ = solve(rho0s, orders)
    log_t[~certified & (log_t < np.inf)] = np.nan  # a row ``stop`` ended stays +inf
    return math.log2(n) + log_t / (LN2 * (1.0 - orders))


def von_neumann_cq(ensemble: CQEnsemble) -> float:
    """Conditional von Neumann entropy H(Y|E) in bits (see ``ContinuityTerms``)."""
    return continuity_terms(ensemble).von_neumann


def entropy_variance_cq(ensemble: CQEnsemble) -> float:
    """Conditional entropy variance V(Y|E) in bits^2 (see ``ContinuityTerms``)."""
    return continuity_terms(ensemble).variance


@dataclass(frozen=True, eq=False)
class ContinuityTerms:
    """The amplitude-only terms of the continuity bound of one ensemble.

    Each is a classical functional of the Nussbaum-Szkoła distributions
    P_ij = l_i W_ij and Q_ij = m_j W_ij (Ann. Statist. 37, 2009), with l and
    u_i from one ``eigh`` of rho_{E|0}, m the diagonal of rho_E (diagonal by
    construction) and W_ij = |<j|u_i>|^2. By symmetry block 0 of rho_YE
    stands for all N blocks:

    * H(Y|E) = log2 N - sum l log2 l + sum m log2 m;
    * V(Y|E) = sum P (X - D)^2, X_ij = log2(l_i / N) - log2 m_j, D = sum P X;
      two passes, so nothing cancels on near-pure states;
    * H_a = log2 N + log2(l^a . W . m^(1-a)) / (1 - a): a dot product per order.

    H and V take every positive eigenvalue: weight below the support cut
    still counts in them (zeroing its log moves V by 1e-12 on near-pure
    QPSK states). H_a takes the supports of ``support_spectrum`` (the 1e-12
    relative cut on both spectra), like ``petz_down_cq``, which it matches
    to a few ulps of the log-trace. Holds no reference to the ensemble, so
    the memo never keeps one alive.
    """

    n_states: int
    von_neumann: float
    variance: float
    l: np.ndarray  # eigenvalues of rho_{E|0} on its support
    w: np.ndarray  # W on both supports
    m: np.ndarray  # diagonal of rho_E on its support
    petz_2: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "petz_2", self.petz_down(2.0))

    @classmethod
    def from_ensemble(cls, ensemble: CQEnsemble) -> "ContinuityTerms":
        """The terms of one ensemble, from one ``eigh`` of rho_{E|0}."""
        n = ensemble.n_states
        lam, u = np.linalg.eigh(ensemble.rho0)
        m = ensemble.avg_diag
        w = u.T**2
        pos_l, pos_m = lam > 0.0, m > 0.0
        l_pos, m_pos = lam[pos_l], m[pos_m]
        p = l_pos[:, None] * w[pos_l][:, pos_m]
        x = np.log2(l_pos / n)[:, None] - np.log2(m_pos)
        d = float((p * x).sum())
        sup_l, sup_m = linalg.on_support(lam), linalg.on_support(m)
        support = (lam[sup_l], w[sup_l][:, sup_m], m[sup_m])
        for arr in support:
            arr.setflags(write=False)
        return cls(n, float(math.log2(n) - l_pos @ np.log2(l_pos) + m_pos @ np.log2(m_pos)),
                   float((p * (x - d) ** 2).sum()), *support)

    def petz_down(self, a: float) -> float:
        """Petz-Rényi H_a(Y|E), within a few ulps of ``petz_down_cq``'s log-trace."""
        a = _check_order(a)
        t = float(self.l**a @ self.w @ self.m ** (1.0 - a))
        return math.log2(self.n_states) + math.log2(t) / (1.0 - a)

    def continuity(self, a: float) -> tuple[float, float]:
        """(K(a), B_a) at an order a in (1, CONTINUITY_A_MAX]."""
        a = float(a)
        if not 1.0 < a <= CONTINUITY_A_MAX:
            raise ValueError(f"continuity coefficient needs a in (1, {CONTINUITY_A_MAX}], got {a}")
        h = self.von_neumann
        scale = 2.0 ** ((a - 1.0) * (h - self.petz_down(a))) / (6.0 * (2.0 - a) ** 3 * LN2)
        k = scale * math.log(2.0 ** (h - self.petz_2) + math.e**2) ** 3
        return k, h - (a - 1.0) * LN2 / 2.0 * self.variance - (a - 1.0) ** 2 * k

    def continuity_grid(self, orders: np.ndarray) -> np.ndarray:
        """B_a at an array of orders in (1, CONTINUITY_A_MAX]: ``continuity``'s array twin."""
        a = np.asarray(orders, dtype=float)
        if not np.all((1.0 < a) & (a <= CONTINUITY_A_MAX)):
            raise ValueError(f"continuity coefficient needs orders in (1, {CONTINUITY_A_MAX}]")
        t = ((self.l ** a[:, None]) @ self.w * self.m ** (1.0 - a[:, None])).sum(axis=1)
        h = self.von_neumann
        petz = math.log2(self.n_states) + np.log2(t) / (1.0 - a)
        k = (2.0 ** ((a - 1.0) * (h - petz)) / (6.0 * (2.0 - a) ** 3 * LN2)
             * math.log(2.0 ** (h - self.petz_2) + math.e**2) ** 3)
        return h - (a - 1.0) * LN2 / 2.0 * self.variance - (a - 1.0) ** 2 * k


#: The terms of every live ensemble asked for, keyed weakly by identity
#: (``CQEnsemble`` is frozen, compares by identity and holds read-only
#: arrays), so each slot goes with its ensemble. ``optimize_rate`` holds
#: the ensembles of its grid and its polish steps until it returns, so
#: the grids of all its estimators and the scalar evaluations at the same
#: amplitudes share one set of terms: under 1 kB per amplitude, about
#: 0.1 MB for a one-n call and a few MB for a 25-point sweep.
_TERMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def continuity_terms(ensemble: CQEnsemble) -> ContinuityTerms:
    """The amplitude-only continuity terms, computed once per live ensemble."""
    terms = _TERMS.get(ensemble)
    if terms is None:
        terms = _TERMS[ensemble] = ContinuityTerms.from_ensemble(ensemble)
    return terms


def continuity_bound(ensemble: CQEnsemble, a: float) -> float:
    """Second-order lower bound B_a(Y|E) on the sandwiched entropy.

    H(Y|E) - (a-1) ln2/2 V(Y|E) - (a-1)^2 K(a), valid for a in (1, 2).
    """
    return continuity_terms(ensemble).continuity(a)[1]


def continuity_bound_grid(ensembles: Sequence[CQEnsemble], orders) -> np.ndarray:
    """``continuity_bound`` at every (ensemble, order) pair, shape (A, O).

    numpy's powers and sums may round differently from the scalar path:
    each value lies within 1e-14 of it relative to max(1, |B_a|).
    """
    return np.array([continuity_terms(e).continuity_grid(orders) for e in ensembles])


def von_neumann_grid(ensembles: Sequence[CQEnsemble], orders) -> np.ndarray:
    """``von_neumann_cq`` of each ensemble as an (A, 1) column; it takes no order."""
    return np.array([[continuity_terms(e).von_neumann] for e in ensembles])


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
    NaN below a = 1/2. Every functional is finite at a > 0, so a Rényi kernel
    that fails (a numpy overflow or invalid value included) or gives +-inf has
    left its range of orders: a ValueError then names the functional and the point.
    """
    a, p = _check_order(a), ensemble.params

    def value(name, fn):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                x = fn(ensemble, a)
            if not math.isinf(x):
                return x
            why = f"evaluates to {x}"
        except (ArithmeticError, ValueError) as exc:
            why = f"fails ({exc})"
        raise ValueError(f"{name} {why} at alpha={p.alpha:.12g}, eta={p.eta:.12g}, a={a:.12g}, "
                         "where it is finite: the order is out of the kernels' range")

    terms = continuity_terms(ensemble)
    k, b = math.nan, math.nan
    if 1.0 < a <= CONTINUITY_A_MAX:
        k, b = terms.continuity(a)
    return EntropyReport(
        petz_down=value("petz_down", petz_down_cq),
        petz_up=value("petz_up", petz_up_cq),
        sand_down=value("sand_down", sandwiched_down_cq),
        sand_up=value("sand_up", sandwiched_up_invariant) if a >= 0.5 else math.nan,
        von_neumann=terms.von_neumann,
        variance=terms.variance,
        coeff_k=k,
        bound_b=b,
    )


# ---------------------------------------------------------------------------
# Closed forms for the two-state protocol.
# ---------------------------------------------------------------------------


class BpskClosedForms(NamedTuple):
    petz_down: float
    petz_up: float
    sand_down: float


def bpsk_closed_forms(params: ProtocolParams, a: float) -> BpskClosedForms:
    """Analytic Petz, optimized-Petz and sandwiched entropies for N=2.

    Hyperbolic expressions in theta = artanh(kappa g) and phi = artanh(kappa), with
    kappa = exp(2 alpha^2 (eta - 1)) the overlap of Eve's two states, r the contrast and
    g = sqrt(1 + (kappa^-2 - 1) r^2); artanh's arguments are clamped to 1 - 1e-15 against
    rounding. Each reduces to 1 bit at eta -> 0 and matches the numeric ensemble path to
    ~1e-12. eta beyond CLOSED_FORM_ETA_MAX is refused, as phi diverges at kappa -> 1; where a
    term overflows (2 alpha^2 (1 - eta) above ~354, or a theta, (a - 1) phi or phi / a above
    ~709) a ValueError names the point.
    """
    a = _check_order(a)
    if params.n_states != 2:
        raise ValueError("closed forms exist for the two-state protocol only")
    if params.eta > CLOSED_FORM_ETA_MAX:
        raise ValueError("closed forms diverge at eta = 1; use the numeric path")
    try:
        kappa = math.exp(2.0 * params.alpha**2 * (params.eta - 1.0))
        r = params.contrast
        g = math.sqrt(1.0 + (kappa**-2 - 1.0) * r * r)
        theta = math.atanh(min(kappa * g, 1.0 - 1e-15))
        phi = math.atanh(min(kappa, 1.0 - 1e-15))
        sech_theta = 1.0 / math.cosh(theta)
        sech_phi = 1.0 / math.cosh(phi)

        # cosh(a theta) cosh((1-a) phi) + sinh(a theta) sinh((1-a) phi) / g:
        # rearranged through cosh(x - y) for a > 1, where the printed form
        # subtracts nearly equal large terms.
        x, y = a * theta, (a - 1.0) * phi
        if a > 1.0:
            bracket = math.cosh(x - y) + (1.0 - 1.0 / g) * math.sinh(x) * math.sinh(y)
        else:
            bracket = math.cosh(x) * math.cosh(-y) + math.sinh(x) * math.sinh(-y) / g
        petz_down = 1.0 + (math.log2(sech_theta) * a + math.log2(sech_phi) * (1.0 - a)
                           + math.log2(bracket)) / (1.0 - a)

        plus = math.cosh(x) + math.sinh(x) / g
        minus = math.exp(-x) + (1.0 - 1.0 / g) * math.sinh(x)  # cosh - sinh/g, stable
        petz_up = a / (1.0 - a) * (1.0 / a - 2.0 + math.log2(sech_theta)
                                   + math.log2(plus ** (1.0 / a) + minus ** (1.0 / a)))

        delta = math.sqrt(r**2 + math.sinh(phi / a) ** 2)
        big = math.cosh(phi / a) + delta
        small = (1.0 - r**2) / big  # cosh - delta without cancellation
        sand_down = (-2.0 * a / (1.0 - a)
                     + (a + math.log2(sech_phi) + math.log2(small**a + big**a)) / (1.0 - a))
        forms = BpskClosedForms(petz_down, petz_up, sand_down)
        if all(map(math.isfinite, forms)):
            return forms
    except (OverflowError, ZeroDivisionError):
        pass
    raise ValueError(f"closed forms overflow at alpha={params.alpha:.12g}, eta={params.eta:.12g}, "
                     f"a={a:.12g}; use the numeric path")


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
    return math.log2(_tr_power(x @ rho @ x, a, _power_support(a))) / (1.0 - a)


# ---------------------------------------------------------------------------
# Optimized sandwiched entropy over all conditioning states.
#
# The optimum runs over every state sigma on the support of rho_B, in the
# coordinates sigma = e^H / tr e^H (s_i, h_i the eigenvalues of sigma and H).
# With rho = B B^dag on its range (B is n x rank) and c = (1-a)/2a,
# T = tr[(sigma^c rho sigma^c)^a] = tr N^a with N = B^dag (1 x sigma^2c) B,
# which has the nonzero spectrum of M = sigma^c rho sigma^c but no zero
# eigenvalues from a rank-deficient rho, and stays well conditioned as sigma
# nears the boundary of the state space. The solve minimizes
# f(H) = log T / (a - 1) = log tr e^H + log tr N~^a / (a - 1), where
# N~ = B^dag (1 x e^2cH) B, with the damped Newton method of the invariant
# solve (``_certified_newton``) and its kernel (``_scaled_powers``, one row):
# - certificate: T is convex in sigma for a > 1 and concave for
#   1/2 <= a < 1 (Frank-Lieb 2013), and grad_sigma log T = (1-a) R with, in
#   the eigenbasis of sigma, R = [f1(s_i, s_j) / 2c] o Q, f1 the divided
#   differences of x^2c and Q = tr_A(B N^(a-1) B^dag) / T. (This is
#   [f1_c(s_i, s_j)(s_i^-c + s_j^-c) / 2c] o W with W = tr_A(M^a) / T and f1_c
#   the divided differences of x^c.) tr(R sigma) = 1, and for diagonal
#   sigma diag(R) is the r_i of the invariant solve, so the Frank-Wolfe gap
#   is |a-1| T (lambda_max(R) - 1) for both a > 1 and a < 1, and
#   lambda_max(R) - 1 <= e ln 2 bounds the entropy error by e bits;
# - gradient: grad_H f = g o (I - R) with g_ij = (s_i - s_j) / (h_i - h_j)
#   (= s_i on the diagonal), i.e. grad_H log T = (1-a) g o (R - I);
# - Hessian, in the k^2 real directions E of Hermitian k x k matrices: the
#   Kubo-Mori term sum_ij g_ij |E_ij|^2 - (sum_i s_i E_ii)^2 of log tr e^H,
#   plus (1/(a-1)) d^2 log tr N~^a. The latter follows from the first and
#   second divided differences of exp at y = 2c h (Daleckii-Krein for e^Y,
#   Y = 2cH), which give dN~ and d^2 N~, and from those of x^(a-1) on the
#   spectrum of N: d^2 tr N^a = a tr(N^(a-1) d^2 N) + a sum_mn
#   f1_(a-1)(x_m, x_n) |dN_mn|^2. Each step is Jacobi-scaled before its
#   eigenvalues enter by absolute value: the curvature along an eigenvalue
#   of sigma scales with s_i, and optima near the boundary (a near 1/2)
#   have s_i far below 1e-12.
# The rounding floor follows the invariant solve: eigh of N' = N / lam_max
# has backward error rank^2 u, so each eigenvalue x_m moves by rank^2 u,
# Q_ii by |a-1| rank^2 u sum_m |B_im|^2 x_m^(a-2) (B in the eigenbases of
# sigma and N, scaled as Q) and R_ii by that times R_ii / Q_ii, to which the
# relative error eps of T adds eps R_ii. The stopping test subtracts the
# floor from diag(R). The start is sigma = rho_B.
# ---------------------------------------------------------------------------


def _exp_first_dd(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """exp[x, y] = e^m (1 - e^-d) / d with m = max(x, y), d = |x - y|, elementwise.

    Finite for every spread d once m <= 0; callers shift their arguments by
    the largest one.
    """
    m, d = np.maximum(x, y), np.abs(x - y)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.exp(m) * np.where(d == 0.0, 1.0, -np.expm1(-d) / d)


def _exp_second_dd(y: np.ndarray) -> np.ndarray:
    """exp[y_i, y_k, y_j] scaled by e^-max(y), as a k x k x k array.

    Symmetric in its arguments; sorted to lo <= mid <= hi it is
    (exp[hi, mid] - exp[mid, lo]) / (hi - lo). Below a spread of 1e-3, where
    that difference cancels, it is the series about the mean,
    e^mean (1/2 + sum_l d_l^2 / 48) with d_l the offsets, good to about
    1e-11: it only shapes a Newton step.
    """
    y = y - y.max()
    lo, mid, hi = np.moveaxis(np.sort(np.stack(np.broadcast_arrays(
        y[:, None, None], y[None, :, None], y[None, None, :]), axis=-1), axis=-1), -1, 0)
    mean = (lo + mid + hi) / 3.0
    near = np.exp(mean) * (0.5 + ((lo - mean) ** 2 + (mid - mean) ** 2 + (hi - mean) ** 2) / 48.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        far = (_exp_first_dd(hi, mid) - _exp_first_dd(mid, lo)) / (hi - lo)
    return np.where(hi - lo < 1e-3, near, far)


def _hermitian_basis(k: int) -> np.ndarray:
    """A real basis of the k x k Hermitian matrices: E_ij + E_ji (i <= j), i(E_ij - E_ji) (i < j)."""
    i, j = np.triu_indices(k)
    unit = np.zeros((i.size, k, k), dtype=complex)
    unit[np.arange(i.size), i, j] = 1.0
    flip = unit.transpose(0, 2, 1)
    return np.concatenate((unit + flip, 1j * (unit - flip)[i < j]))


class _GeneralIterate(NamedTuple):
    """One Newton iterate over sigma = e^H / tr e^H, with its certificate."""

    point: np.ndarray  # H
    merit: float  # f = log T / (a - 1)
    noise: float  # rounding of f
    gap: float  # lambda_max(R - floor) - 1
    h: np.ndarray  # eigenvalues of H
    u: np.ndarray  # eigenvectors of H and of sigma
    g: np.ndarray  # exp[h_i, h_j] / tr e^H; its diagonal is the spectrum of sigma
    p1: np.ndarray  # exp[y_i, y_j] e^-max(y), y = 2c h
    bv: np.ndarray  # B in the eigenbases of sigma and of N
    sp: _ScaledPower  # of N alone, scaled so that its weights are p1_ii
    q: np.ndarray  # tr_A(B N^(a-1) B^dag) / T, scaled as p1


def _certified_newton(evaluate, newton_step, start, a: float):
    """Damped Newton from ``start`` that stops on the certificate ``it.gap``.

    ``newton_step(it)`` gives the slope and the step. The line search and the
    warning are those of the four-state solve (see the comment above
    ``_LOGODDS_CLIP``).
    """
    tol = _CERTIFY_BITS * LN2
    it = evaluate(start)
    for _ in range(_NEWTON_MAX_ITER):
        if it.gap <= tol:
            break
        slope, step = newton_step(it)
        tau = 1.0
        while tau >= 1e-10:
            cand = evaluate(it.point + tau * step)
            if cand.merit <= it.merit + 1e-4 * tau * slope or (
                    cand.merit <= it.merit + 2.0 * it.noise and cand.gap < it.gap):
                break
            tau *= 0.5
        else:  # no acceptable step: stop and report the gap
            break
        it = cand
    if it.gap > tol:
        _warn_uncertified("general sandwiched Newton solve", a, it.gap, "lambda_max(R) - 1",
                          stacklevel=3)
    return it


def sandwiched_up_general(rho, dims: tuple[int, int], a: float) -> float:
    """Optimized sandwiched Rényi conditional entropy over all marginals.

    Returns log2 opt_sigma tr[(sigma^c rho sigma^c)^a] / (1 - a) with
    c = (1 - a) / (2a), the optimum over states sigma_B on the support of
    rho_B (infimum for a > 1, supremum for a < 1). Damped Newton with the
    exact Hessian runs in H, sigma = e^H / tr e^H, and stops once the
    Frank-Wolfe gap certifies the value to 1e-12 bits:
    lambda_max(R) - 1 <= 1e-12 ln 2, up to the rounding floor of R (details
    in the comment above). If it cannot certify, a ConvergenceWarning gives
    the order, the gap reached and the tolerance, and the best value found
    is returned. Supported for a >= 1/2, a != 1.
    """
    a = _check_sandwiched_up_order(a)
    rho = np.asarray(rho, dtype=complex)
    dim_a = dims[0]
    w_b, v_b = linalg.support_spectrum(partial_trace(rho, dims, keep="B"))
    iso = np.kron(np.eye(dim_a), v_b[:, w_b > 0.0])
    lam, v = linalg.support_spectrum(iso.conj().T @ rho @ iso)
    k, rank = int((w_b > 0.0).sum()), int((lam > 0.0).sum())
    b_range = (v[:, lam > 0.0] * np.sqrt(lam[lam > 0.0])).reshape(dim_a, k, rank)
    c = (1.0 - a) / (2.0 * a)
    basis = _hermitian_basis(k)

    def evaluate(h_op: np.ndarray) -> _GeneralIterate:
        h, u = np.linalg.eigh(h_op)
        log_z = h.max() + math.log(np.exp(h - h.max()).sum())
        y = 2.0 * c * h
        g = _exp_first_dd(h[:, None] - log_z, h[None, :] - log_z)
        p1 = _exp_first_dd(y[:, None] - y.max(), y[None, :] - y.max())
        bt = np.einsum("ji,ajr->air", u.conj(), b_range)
        n_op = np.einsum("air,i,ais->rs", bt.conj(), p1.diagonal(), bt)
        sp = _ScaledPower(*(field[0] for field in _scaled_powers(n_op[None], np.array([a]), rank)))
        kept = sp.x > 0.0
        x_kept = np.where(kept, sp.x, 1.0)
        xam1 = np.where(kept, sp.xa / x_kept, 0.0)
        bv = bt @ sp.v
        q = np.einsum("air,r,ajr->ij", bv, xam1, bv.conj()) / (sp.top * sp.t)
        sensitivity = np.einsum("air,r->i", np.abs(bv) ** 2, xam1 / x_kept) / (sp.top * sp.t)
        # a step so long that an eigenvalue of sigma underflows is rejected
        with np.errstate(divide="ignore", invalid="ignore"):
            r = p1 * q / g
            floor = (abs(a - 1.0) * rank * rank * _UNIT_ROUNDOFF * sensitivity * p1.diagonal()
                     / g.diagonal() + sp.eps * r.diagonal().real)
        finite = bool(np.isfinite(r).all() and np.isfinite(floor).all())
        log_scale = y.max() - 2.0 * c * log_z
        return _GeneralIterate(
            h_op, (a * log_scale + sp.log_t) / (a - 1.0) if finite else math.inf,
            (sp.noise + _UNIT_ROUNDOFF * a * abs(log_scale)) / abs(a - 1.0),
            float(np.linalg.eigvalsh(r - np.diag(floor))[-1]) - 1.0 if finite else math.inf,
            h, u, g, p1, bv, sp, q)

    def newton_step(it: _GeneralIterate) -> tuple[float, np.ndarray]:
        lift = 2.0 * c * basis  # the directions of y = 2c h
        s = it.g.diagonal()
        grad = np.einsum("ji,pij->p", np.diag(s) - it.p1 * it.q, basis).real
        drift = np.einsum("i,pii->p", s, basis).real  # gradient of log tr e^H
        n_dot = np.einsum("air,pij,ajs->prs", it.bv.conj(), it.p1 * lift, it.bv) / it.sp.top
        kept = it.sp.x > 0.0
        f1 = np.where(kept[:, None] & kept[None, :],
                      _power_divided_differences(np.where(kept, it.sp.x, 1.0), a - 1.0), 0.0)
        second = np.einsum("ji,ikj,pik,qkj->pq", it.q, _exp_second_dd(2.0 * c * it.h), lift, lift)
        trace_dd = a * ((second + second.T).real
                        + np.einsum("mn,pmn,qnm->pq", f1, n_dot, n_dot).real / it.sp.t)
        hess = (np.einsum("ij,pij,qij->pq", it.g, basis, basis.conj()).real
                - np.outer(drift, drift) + trace_dd / (a - 1.0)
                - (a - 1.0) * np.outer(grad - drift, grad - drift))
        jacobi = 1.0 / np.sqrt(np.maximum(np.abs(hess.diagonal()), 1e-300))
        mu, vec = np.linalg.eigh(hess * np.outer(jacobi, jacobi))
        mu = np.maximum(np.abs(mu), 1e-12 * np.abs(mu).max())
        theta = -jacobi * (vec @ ((vec.T @ (jacobi * grad)) / mu))
        return float(grad @ theta), it.u @ np.einsum("p,pij->ij", theta, basis) @ it.u.conj().T

    it = _certified_newton(evaluate, newton_step,
                           np.diag(np.log(w_b[w_b > 0.0])).astype(complex), a)
    return float(-it.merit / LN2)
