"""Finite-size secret-key-rate estimators and their optimization.

Three lower bounds on the extractable key per channel use, all of the form
entropy term + (1 + 2 log2 eps') / n - correction - leak:

* S:   optimized sandwiched Rényi entropy with correction g(eps)/(n (a-1)),
* AEP: von Neumann entropy with correction delta(eps)/sqrt(n),
* B:   second-order continuity bound with the same correction as S.

The leak is the asymptotic error-correction cost H_N(Y|X) in reverse
reconciliation. Rates are reported as computed (possibly negative); the
``key_possible`` flag marks the sign.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import entropies
from .optimize import nelder_mead
from .states import CQEnsemble, ProtocolParams, build_ensemble

#: Default upper bound of the Rényi-order search for the S estimator. The
#: optimum grows as the block size shrinks, so this is user-adjustable.
A_MAX_S_DEFAULT = 4.0
A_MAX_S_LIMIT = 64.0

#: Rényi-order search floor, as an offset from 1.
A_MIN_OFFSET = 1e-9
_A_GRID_OFFSET_MIN = 1e-5

#: Amplitude search interval, and the points per axis of the coarse scan.
ALPHA_BOUNDS = (0.05, 3.0)
GRID_POINTS = 25


@dataclass(frozen=True)
class SecurityParams:
    """Block size, smoothing and hashing failure parameters, Rényi order.

    ``a`` is unused by the AEP estimator and may be None there. The derived
    security parameter of the extracted key is eps + eps_prime.
    """

    n: float
    eps: float = 1e-8
    eps_prime: float = 1e-8
    a: float | None = None

    def __post_init__(self):
        if not self.n >= 1:
            raise ValueError(f"block size must be >= 1, got {self.n}")
        for name, value in (("eps", self.eps), ("eps_prime", self.eps_prime)):
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if self.eps + self.eps_prime >= 1.0:
            raise ValueError("eps + eps_prime must stay below 1")


def g_eps(eps: float) -> float:
    """Smoothing penalty -log2(1 - sqrt(1 - eps^2)), in bits.

    Evaluated as -log2(eps^2 / (1 + sqrt(1 - eps^2))) to avoid cancellation
    at small eps. Bounded by log2(2/eps^2).
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    return -math.log2(eps * eps / (1.0 + math.sqrt(1.0 - eps * eps)))


def delta_eps(eps: float, n_states: int) -> float:
    """Asymptotic-equipartition correction 4 log2(2 + sqrt(N)) sqrt(log2(2/eps^2))."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if n_states not in (2, 4):
        raise ValueError(f"n_states must be 2 or 4, got {n_states}")
    return 4.0 * math.log2(2.0 + math.sqrt(n_states)) * math.sqrt(math.log2(2.0 / eps**2))


def _binary_entropy(p: float) -> float:
    out = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            out -= q * math.log2(q)
    return out


def leak_bpsk(params: ProtocolParams) -> float:
    """Reconciliation leak h2(p_+) with p_+- = (1 +- erf(sqrt(2 eta) alpha))/2."""
    if params.n_states != 2:
        raise ValueError("leak_bpsk requires n_states == 2")
    r = math.erf(math.sqrt(2.0 * params.eta) * params.alpha)
    return _binary_entropy((1.0 + r) / 2.0)


def leak_qpsk(params: ProtocolParams) -> float:
    """Reconciliation leak -2 (P_+ log2 P_+ + P_- log2 P_-) for N=4."""
    if params.n_states != 4:
        raise ValueError("leak_qpsk requires n_states == 4")
    r = math.erf(math.sqrt(params.eta / 2.0) * params.alpha)
    return 2.0 * _binary_entropy((1.0 + r) / 2.0)


def leak(params: ProtocolParams) -> float:
    """Reconciliation leak H_N(Y|X) for either protocol."""
    return leak_bpsk(params) if params.n_states == 2 else leak_qpsk(params)


def rate_s(ensemble: CQEnsemble, sp: SecurityParams) -> float:
    """Key-rate bound from the optimized sandwiched Rényi entropy (a > 1)."""
    return ESTIMATORS["S"].rate(ensemble, sp)


def rate_aep(ensemble: CQEnsemble, sp: SecurityParams) -> float:
    """Key-rate bound from the asymptotic equipartition property."""
    return ESTIMATORS["AEP"].rate(ensemble, sp)


def rate_b(ensemble: CQEnsemble, sp: SecurityParams) -> float:
    """Key-rate bound from the von Neumann continuity bound (a in (1, 2))."""
    return ESTIMATORS["B"].rate(ensemble, sp)


@dataclass(frozen=True)
class RateResult:
    """Optimized key-rate bound together with the optimizing parameters."""

    estimator: str
    rate: float
    alpha_opt: float
    a_opt: float | None
    leak: float
    key_possible: bool
    converged: bool = True


@dataclass(frozen=True)
class Estimator:
    """One row of the estimator table.

    ``entropy_fn`` names the ``entropies`` function of the n-independent
    entropy term and ``grid_fn`` its form on a stack of rho_{E|0}, if any;
    both are looked up at each call. An order cap above ``a_max_limit`` is
    an error, or clamped to it when ``clamp_a_max`` is set (B's pole).
    """

    name: str
    entropy_fn: str
    takes_order: bool
    a_max_default: float | None = None
    a_max_limit: float | None = None
    clamp_a_max: bool = False
    grid_fn: str | None = None

    def rate(self, ensemble: CQEnsemble, sp: SecurityParams) -> float:
        return self.key_rate(self.entropy(ensemble, sp.a), sp, ensemble.n_states,
                             leak(ensemble.params))

    def entropy(self, ensemble: CQEnsemble, a: float | None) -> float:
        fn = getattr(entropies, self.entropy_fn)
        if not self.takes_order:
            return fn(ensemble)
        if a is None or a <= 1.0:
            raise ValueError(f"the {self.name} estimator needs a Renyi order a > 1, got {a}")
        return fn(ensemble, a)

    def key_rate(self, h: float, sp: SecurityParams, n_states: int, leak_value: float) -> float:
        """Entropy term + hash term - correction - leak, in that order."""
        if self.takes_order:
            correction = g_eps(sp.eps) / (sp.n * (sp.a - 1.0))
        else:
            correction = delta_eps(sp.eps, n_states) / math.sqrt(sp.n)
        return float(h + (1.0 + 2.0 * math.log2(sp.eps_prime)) / sp.n - correction - leak_value)

    def order_cap(self, a_max: float | None) -> float:
        """The validated upper end of the Rényi-order search."""
        a_max = self.a_max_default if a_max is None else a_max
        if not 1.0 < a_max:
            raise ValueError(f"a_max must exceed 1, got {a_max}")
        if a_max <= self.a_max_limit or self.clamp_a_max:
            return min(a_max, self.a_max_limit)
        raise ValueError(f"a_max must lie in (1, {self.a_max_limit}], got {a_max}")


ESTIMATORS = {
    "S": Estimator("S", "sandwiched_up_invariant", True, A_MAX_S_DEFAULT, A_MAX_S_LIMIT,
                   grid_fn="sandwiched_up_invariant_grid"),
    "AEP": Estimator("AEP", "von_neumann_cq", False),
    "B": Estimator("B", "continuity_bound", True, entropies.CONTINUITY_A_MAX,
                   entropies.CONTINUITY_A_MAX, clamp_a_max=True),
}


def estimator_spec(name: str) -> Estimator:
    """The table row of an estimator name (case and surrounding blanks ignored)."""
    key = name.strip().upper()
    if key not in ESTIMATORS:
        raise ValueError(f"unknown estimator {key!r}")
    return ESTIMATORS[key]


def optimize_rate(
    estimator: str,
    n_states: int,
    eta: float,
    ns: Sequence[float],
    eps: float = 1e-8,
    eps_prime: float = 1e-8,
    a_max: float | None = None,
) -> list[RateResult]:
    """Maximize an estimator over the amplitude and the Rényi order at each block size.

    Returns one result per entry of ``ns``, in order. A coarse grid scan over
    alpha in ``ALPHA_BOUNDS`` (``GRID_POINTS`` per axis; the order axis is
    gridded in log(a - 1)) locates the basin, then Nelder-Mead refines from
    the best three grid points; ties in the scan break toward the smallest
    (alpha, a). AEP has no order and is optimized over alpha alone. Negative
    optima are returned as computed, flagged by ``key_possible``. Each
    point's entropy term and leak are computed once per call, as they do not
    depend on n; a result equals that of a one-element call bit for bit.

    S ranks its grid with one array solve shared by every block size. Its
    values only rank: every value reported, the simplex vertices included,
    comes from ``entropy_fn``, which also scores the points it left NaN.

    A ConvergenceWarning of an entropy term counts at every block size that
    uses it: that result has ``converged=False``, and one ConvergenceWarning
    names the estimator, n and the first (alpha, a) that warned.
    """
    spec = estimator_spec(estimator)
    if spec.takes_order:
        log_a_hi = math.log(spec.order_cap(a_max) - 1.0)
    bases = [SecurityParams(n=n, eps=eps, eps_prime=eps_prime) for n in ns]  # all checked first
    lo, hi = ALPHA_BOUNDS
    log_a_lo = math.log(_A_GRID_OFFSET_MIN)

    ensembles: dict[float, CQEnsemble] = {}
    # (alpha, log_a) -> (a, entropy term, leak, ConvergenceWarning messages)
    terms: dict[tuple, tuple] = {}

    def ensemble(alpha: float) -> CQEnsemble:
        if alpha not in ensembles:
            ensembles[alpha] = build_ensemble(ProtocolParams(n_states, alpha, eta))
        return ensembles[alpha]

    def term(alpha: float, log_a: float | None = None) -> tuple:
        key = (alpha, log_a)
        if key not in terms:
            a = None if log_a is None else 1.0 + math.exp(log_a)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", entropies.ConvergenceWarning)
                h = spec.entropy(ensemble(alpha), a)
            for w in caught:
                if not issubclass(w.category, entropies.ConvergenceWarning):
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            terms[key] = (a, h, leak(ensemble(alpha).params), [
                str(w.message) for w in caught
                if issubclass(w.category, entropies.ConvergenceWarning)])
        return terms[key]

    alphas = np.linspace(lo, hi, GRID_POINTS).tolist()
    if spec.takes_order:
        log_as = np.linspace(log_a_lo, log_a_hi, GRID_POINTS).tolist()
        grid = [(al, la) for al in alphas for la in log_as]
    else:
        grid = [(al,) for al in alphas]
    ranks = [math.nan] * len(grid)
    if spec.grid_fn:  # rank only; see the docstring
        rho0s = np.array([ensemble(point[0]).cond_states[0] for point in grid])
        orders = [1.0 + math.exp(log_a) for _, log_a in grid]
        ranks = getattr(entropies, spec.grid_fn)(rho0s, orders).tolist()
    grid_terms = [term(*point) if math.isnan(h) else
                  (1.0 + math.exp(point[1]), h, leak(ensemble(point[0]).params), ())
                  for point, h in zip(grid, ranks)]

    def search(base: SecurityParams) -> RateResult:
        warned: list = []  # (alpha, a, message) of every ConvergenceWarning

        def score(alpha: float, a: float | None, h: float, leak_value: float, messages) -> float:
            sp = SecurityParams(n=base.n, eps=eps, eps_prime=eps_prime, a=a)
            warned.extend((alpha, a, message) for message in messages)
            return spec.key_rate(h, sp, n_states, leak_value)

        scored = [(score(point[0], *t), point) for point, t in zip(grid, grid_terms)]
        # deterministic reduction: max by value, ties to smallest parameters
        scored.sort(key=lambda item: (-item[0], item[1]))

        dim = 2 if spec.takes_order else 1
        simplex = [np.array(scored[i][1]) for i in range(dim + 1)]
        if dim == 2:
            span = np.array([simplex[1] - simplex[0], simplex[2] - simplex[0]])
            if abs(np.linalg.det(span)) < 1e-12:  # collinear grid points stall NM
                # one grid step off the line: in alpha if the best two share it
                same_alpha = simplex[1][0] == simplex[0][0]
                step = [hi - lo, 0.0] if same_alpha else [0.0, log_a_hi - log_a_lo]
                simplex[2] = simplex[0] + np.array(step) / (GRID_POINTS - 1)

        def clip(x: np.ndarray) -> tuple[float, float | None]:
            alpha = float(min(max(x[0], lo), hi))
            if not spec.takes_order:
                return alpha, None
            log_a = float(min(max(x[1], math.log(A_MIN_OFFSET)), log_a_hi))
            return alpha, log_a

        def negated(x: np.ndarray) -> float:
            alpha, log_a = clip(x)
            return -score(alpha, *term(alpha, log_a))

        # Nelder-Mead evaluates the grid winner first and never returns a
        # worse vertex, so its result is at least the winner's value
        refined = nelder_mead(negated, simplex, f_tol=1e-9, max_iter=500)
        best_rate = -refined.fun
        alpha_opt, log_a_opt = clip(refined.x)

        if warned:
            alpha_w, a_w, message = warned[0]
            at = f"alpha={alpha_w:.6g}" + ("" if a_w is None else f", a={a_w:.6g}")
            warnings.warn(f"{spec.name} rate at n={base.n:g}: {len(warned)} entropy "
                          f"evaluation(s) did not converge, first at {at} ({message})",
                          entropies.ConvergenceWarning, stacklevel=3)
        return RateResult(
            estimator=spec.name,
            rate=float(best_rate),
            alpha_opt=float(alpha_opt),
            a_opt=1.0 + math.exp(log_a_opt) if spec.takes_order else None,
            leak=leak(ProtocolParams(n_states=n_states, alpha=alpha_opt, eta=eta)),
            key_possible=bool(best_rate > 0.0),
            converged=bool(refined.converged) and not warned,
        )

    # map calls search from C, so stacklevel 3 above is the caller of optimize_rate
    return list(map(search, bases))
