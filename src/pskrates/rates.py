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
from .optimize import quadratic_polish
from .states import CQEnsemble, ProtocolParams, build_ensemble

#: Default upper bound of the Rényi-order search for the S estimator. The
#: optimum grows as the block size shrinks, so this is user-adjustable.
A_MAX_S_DEFAULT = 4.0
A_MAX_S_LIMIT = 64.0

#: Rényi-order search floor, as an offset from 1.
A_MIN_OFFSET = 1e-9
_A_GRID_OFFSET_MIN = 1e-5

#: Rounding error of a rate, in bits; an order's entropy term carries this / (a - 1) more.
_ROUNDING = 1e-15

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


def leak(params: ProtocolParams) -> float:
    """Reconciliation leak H_N(Y|X) = (N/2) h2(P_+) of N/2 sign decisions, P_+ = (1 + r)/2."""
    return params.n_states // 2 * _binary_entropy((1.0 + params.contrast) / 2.0)


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
    evaluations: int = 0  # distinct points the polish scored, memo hits included
    at_bound: str | None = None  # the active box bounds, e.g. "a_max"


@dataclass(frozen=True)
class Estimator:
    """One row of the estimator table.

    ``entropy_fn`` names the ``entropies`` function of the n-independent
    entropy term and ``grid_fn`` its array form on A ensembles and O orders,
    of shape (A, O), or (A, 1) for an estimator without an order; both are
    looked up at each call. An order cap above ``a_max_limit`` is an error,
    or clamped to it when ``clamp_a_max`` is set (B's pole).
    """

    name: str
    entropy_fn: str
    grid_fn: str
    takes_order: bool
    a_max_default: float | None = None
    a_max_limit: float | None = None
    clamp_a_max: bool = False

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

    def rate_at(self, n: float, eps: float, eps_prime: float, n_states: int):
        """The key rate at block size n as a function of (h, a, leak), elementwise on arrays.

        Entropy term + hash term - correction - leak, in that order, so an
        array of points gives each the bits of ``key_rate``.
        """
        hash_term = (1.0 + 2.0 * math.log2(eps_prime)) / n
        if self.takes_order:
            g = g_eps(eps)
            return lambda h, a, leak_value: h + hash_term - g / (n * (a - 1.0)) - leak_value
        correction = delta_eps(eps, n_states) / math.sqrt(n)
        return lambda h, a, leak_value: h + hash_term - correction - leak_value

    def key_rate(self, h: float, sp: SecurityParams, n_states: int, leak_value: float) -> float:
        """Entropy term + hash term - correction - leak (see ``rate_at``)."""
        return float(self.rate_at(sp.n, sp.eps, sp.eps_prime, n_states)(h, sp.a, leak_value))

    def order_cap(self, a_max: float | None) -> float:
        """The validated upper end of the Rényi-order search."""
        a_max = self.a_max_default if a_max is None else a_max
        if not 1.0 < a_max:
            raise ValueError(f"a_max must exceed 1, got {a_max}")
        if a_max <= self.a_max_limit or self.clamp_a_max:
            return min(a_max, self.a_max_limit)
        raise ValueError(f"a_max must lie in (1, {self.a_max_limit}], got {a_max}")


ESTIMATORS = {
    "S": Estimator("S", "sandwiched_up_invariant", "sandwiched_up_invariant_grid", True,
                   A_MAX_S_DEFAULT, A_MAX_S_LIMIT),
    "AEP": Estimator("AEP", "von_neumann_cq", "von_neumann_grid", False),
    "B": Estimator("B", "continuity_bound", "continuity_bound_grid", True,
                   entropies.CONTINUITY_A_MAX, entropies.CONTINUITY_A_MAX, clamp_a_max=True),
}


def estimator_spec(name: str) -> Estimator:
    """The table row of an estimator name (case and surrounding blanks ignored)."""
    key = name.strip().upper()
    if key not in ESTIMATORS:
        raise ValueError(f"unknown estimator {key!r}")
    return ESTIMATORS[key]


def _at(alpha: float, a: float | None) -> str:
    return f"alpha={alpha:.6g}" + ("" if a is None else f", a={a:.6g}")


def optimize_rate(
    estimator: str,
    n_states: int,
    eta: float,
    ns: Sequence[float],
    eps: float = 1e-8,
    eps_prime: float = 1e-8,
    a_max: float | None = None,
) -> list[RateResult]:
    """Maximize estimators over the amplitude and the Rényi order at each block size.

    ``estimator`` is a name or a comma list such as "AEP,B"; the results
    come by n, then by estimator as listed. Each estimator's ``grid_fn``
    ranks a grid over alpha in ``ALPHA_BOUNDS`` (``GRID_POINTS`` per axis;
    the order axis in log(a - 1)), scored for each n in one array
    expression; ties break toward the smallest (alpha, a). From the winner,
    ``quadratic_polish`` certifies the optimum to 1e-12 bits, or to the
    rate's rounding ``_ROUNDING`` (1 + 1/(a - 1)), its first model fitted to
    the winner's 3 x 3 block of grid values (AEP has no order). Every value
    reported comes from ``entropy_fn``, or for QPSK S from the stacked solve
    that has its bits; a polish stencil's unseen points take one call of it
    (AEP and B: one stacked build of their terms, with the same bits). QPSK S
    ranks its grid by certified brackets: the grid solve stops a point once its
    rate bracket lies below another's bracket bottom at every n, by more than
    both points' rounding and 1e-12 bits, and one more call certifies the
    stopped points of the winners' blocks, so each winner and first model is
    that of a fully certified grid. A term is computed once per point and call
    (it does not depend on n), so a rate is never below the winner's, and a
    result equals that of a one-n, one-estimator call bit for bit. Each
    amplitude's ensemble, leak and continuity terms serve every estimator.

    A ConvergenceWarning of an entropy term counts at every block size that
    uses it: that result has ``converged=False``, and one ConvergenceWarning
    names the estimator, n and the first (alpha, a) that warned. A polish
    stopping at its iteration cap does the same with the (alpha, a) reached.
    These are issued once the search is over, after the other warnings.
    """
    specs = [estimator_spec(name) for name in estimator.split(",")]
    log_a_his = [math.log(spec.order_cap(a_max) - 1.0) if spec.takes_order else None
                 for spec in specs]
    bases = [SecurityParams(n=n, eps=eps, eps_prime=eps_prime) for n in ns]  # all checked first
    lo, hi = ALPHA_BOUNDS
    log_a_lo = math.log(_A_GRID_OFFSET_MIN)
    alphas = np.linspace(lo, hi, GRID_POINTS).tolist()

    amplitudes: dict[float, tuple[CQEnsemble, float]] = {}  # alpha -> (ensemble, leak)
    # (estimator, alpha, log_a) -> (a, entropy term, ConvergenceWarning messages)
    terms: dict[tuple, tuple] = {}
    notes: list[str] = []  # the call's own ConvergenceWarnings, issued at the end

    def amplitude(alpha: float) -> tuple[CQEnsemble, float]:
        if alpha not in amplitudes:
            ensemble = build_ensemble(ProtocolParams(n_states, alpha, eta))
            amplitudes[alpha] = (ensemble, leak(ensemble.params))
        return amplitudes[alpha]

    def term(spec: Estimator, alpha: float, log_a: float | None) -> tuple:
        key = (spec.name, alpha, log_a)
        if key not in terms:
            a = None if log_a is None else 1.0 + math.exp(log_a)
            start = len(caught)  # the one catch of the call records every warning
            h = spec.entropy(amplitude(alpha)[0], a)
            terms[key] = (a, h, [str(w.message) for w in caught[start:]
                                 if issubclass(w.category, entropies.ConvergenceWarning)])
        return terms[key]

    # the estimators whose stacked terms have the single-point bits: S's four-state Newton solve
    exact = {spec.name for spec in specs
             if spec.entropy_fn == "sandwiched_up_invariant" and n_states == 4}

    def remember(spec: Estimator, points, values) -> None:  # NaN is left to ``term``, -inf out
        terms.update(((spec.name, alpha, log_a), (1.0 + math.exp(log_a), h, []))
                     for (alpha, log_a), h in zip(points, values) if math.isfinite(h))

    def solve_unseen(spec: Estimator, points: list) -> None:  # in one stacked call
        new = [p for p in points if (spec.name, *p) not in terms]
        ensembles = [amplitude(p[0])[0] for p in new]
        if new and spec.name in exact:
            remember(spec, new, entropies.sandwiched_up_invariant_pairs(
                ensembles, [1.0 + math.exp(log_a) for _, log_a in new]).tolist())
        elif new and spec.entropy_fn != "sandwiched_up_invariant":  # AEP, B: continuity terms
            entropies.continuity_terms_of(ensembles)

    def lead(grid: np.ndarray, leaks: np.ndarray, orders, h: np.ndarray, rate_at) -> tuple:
        # the grid's scores, its winner (max by value, ties to the smallest parameters) and the
        # corner of the winner's 3 x 3 block (3 x 1 for AEP), shifted into the grid
        scores = rate_at(h, orders, leaks)
        best = np.lexsort([*grid.T[::-1], -scores.ravel()])[0]
        return scores, best, [max(min(k - 1, size - 3), 0)
                              for k, size in zip(divmod(best, scores.shape[1]), scores.shape)]

    def rank(spec: Estimator, log_a_hi: float | None) -> tuple:
        """The grid points and their entropy terms; NaNs of the hook come from ``term``."""
        log_as = (np.linspace(log_a_lo, log_a_hi, GRID_POINTS).tolist() if spec.takes_order
                  else [None])
        orders = np.array([1.0 + math.exp(log_a) for log_a in log_as]) if spec.takes_order else None
        ensembles = [amplitude(alpha)[0] for alpha in alphas]
        leaks = np.array([[amplitude(alpha)[1]] for alpha in alphas])  # a column, as h's rows
        rate_ats = [spec.rate_at(base.n, eps, eps_prime, n_states) for base in bases]

        def stop(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
            # points of the flattened grid whose rate bracket's top is short of a bracket bottom
            # at every n, by more than both points' rounding and the certified 1e-12 bits
            lower, upper = lower.reshape(len(alphas), -1), upper.reshape(len(alphas), -1)
            slack = _ROUNDING * (1.0 + 1.0 / (orders - 1.0)) + entropies._CERTIFY_BITS / 2.0
            return np.all([rate_at(upper, orders, leaks) + slack
                           < (rate_at(lower, orders, leaks) - slack).max() for rate_at in rate_ats],
                          axis=0).ravel()

        rule = (stop,) if spec.name in exact else ()
        h = np.array(getattr(entropies, spec.grid_fn)(ensembles, orders, *rule))  # a copy
        points = [(alpha, log_a) if spec.takes_order else (alpha,)
                  for alpha in alphas for log_a in log_as]
        grid = np.array(points)
        warned = []  # (alpha, a, message) of the terms left NaN, in grid order (block rows last)

        def fill() -> None:
            for i, j in zip(*np.nonzero(np.isnan(h))):
                a, h[i, j], messages = term(spec, alphas[i], log_as[j])
                warned.extend((alphas[i], a, message) for message in messages)

        if spec.name in exact:
            remember(spec, points, h.ravel().tolist())
        fill()
        if rule:  # the rows the solve stopped in a winner's block, certified in one stacked call
            for rate_at in rate_ats:
                i, j = lead(grid, leaks, orders, h, rate_at)[2]
                block = h[i:i + 3, j:j + 3]  # a view
                block[np.isneginf(block)] = np.nan
            solve_unseen(spec, [p for p, cut in zip(points, np.isnan(h).ravel().tolist()) if cut])
            fill()
        return log_a_hi, points, grid, leaks, orders, h, warned

    def search(spec: Estimator, ranked: tuple, n: float) -> RateResult:
        log_a_hi, points, grid, leaks, orders, h, warned = ranked
        warned = list(warned)  # plus the polish's evaluations of this n
        rate_at = spec.rate_at(n, eps, eps_prime, n_states)
        scores, best, (i, j) = lead(grid, leaks, orders, h, rate_at)
        # the first model: the winner's block of grid values
        block = grid.reshape(*scores.shape, -1)[i:i + 3, j:j + 3]
        box = np.array([(lo, hi), (math.log(A_MIN_OFFSET), log_a_hi)][:block.shape[-1]])
        grid_step = (box[:, 1] - [lo, log_a_lo][:len(box)]) / (GRID_POINTS - 1)

        def rate(alpha: float, log_a: float | None = None) -> float:
            a, h_point, messages = term(spec, alpha, log_a)
            warned.extend((alpha, a, message) for message in messages)
            return float(rate_at(h_point, a, amplitude(alpha)[1]))

        def objective(x: np.ndarray) -> list[float]:  # the rates of an (m, d) array of points
            points = x.tolist()
            solve_unseen(spec, points)
            return [rate(*point) for point in points]

        def noise(x: np.ndarray) -> float:  # a rate's rounding, and log T / (1 - a)'s
            return _ROUNDING * (1.0 + (math.exp(-x[1]) if spec.takes_order else 0.0))

        model = block.reshape(-1, len(box)), scores[i:i + 3, j:j + 3].ravel()
        polish = quadratic_polish(objective, points[best], *box.T, grid_step, noise, model)
        alpha_opt = float(polish.x[0])
        a_opt = 1.0 + math.exp(polish.x[1]) if spec.takes_order else None
        if warned:
            alpha_w, a_w, message = warned[0]
            notes.append(f"{spec.name} rate at n={n:g}: {len(warned)} entropy "
                         f"evaluation(s) did not converge, first at {_at(alpha_w, a_w)} "
                         f"({message})")
        if not polish.converged:
            notes.append(f"{spec.name} rate at n={n:g}: the polish did not converge "
                         f"in {polish.iterations} iterations, stopped at "
                         f"{_at(alpha_opt, a_opt)}")
        return RateResult(
            estimator=spec.name,
            rate=polish.fun,
            alpha_opt=alpha_opt,
            a_opt=a_opt,
            leak=amplitude(alpha_opt)[1],
            key_possible=bool(polish.fun > 0.0),
            converged=bool(polish.converged) and not warned,
            evaluations=polish.evaluations,
            at_bound=",".join(name for name, x, edge in zip(
                ("alpha_min", "alpha_max", "a_min", "a_max"), np.repeat(polish.x, 2), box.ravel())
                if x == edge) or None,
        )

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", entropies.ConvergenceWarning)
        ranks = [rank(spec, log_a_hi) for spec, log_a_hi in zip(specs, log_a_his)]
        results = [search(spec, ranked, base.n) for base in bases
                   for spec, ranked in zip(specs, ranks)]
    for w in caught:
        if not issubclass(w.category, entropies.ConvergenceWarning):
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    for note in notes:
        warnings.warn(note, entropies.ConvergenceWarning, stacklevel=2)
    return results
