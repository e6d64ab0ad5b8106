"""Deterministic derivative-free minimization.

A plain Nelder-Mead simplex with the classic coefficients (reflection 1,
expansion 2, contraction 0.5, shrink 0.5). Termination is on the spread of
the simplex values, which keeps runs reproducible across platforms; there
is no randomized restart anywhere.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np


class NMResult(NamedTuple):
    x: np.ndarray
    fun: float
    converged: bool
    iterations: int


def nelder_mead(
    fn: Callable[[np.ndarray], float],
    simplex: Sequence[Sequence[float]],
    f_tol: float = 1e-12,
    max_iter: int = 500,
) -> NMResult:
    """Minimize ``fn`` from the given (d+1)-point starting simplex.

    Stops when max(values) - min(values) < f_tol or after ``max_iter``
    iterations; infinite objective values are tolerated and simply rank
    worst.
    """
    pts = [np.atleast_1d(np.asarray(p, dtype=float)).copy() for p in simplex]
    dim = pts[0].size
    if len(pts) != dim + 1:
        raise ValueError(f"need {dim + 1} simplex points for dimension {dim}, got {len(pts)}")
    vals = [float(fn(p)) for p in pts]
    iterations = 0
    while iterations < max_iter:
        order = np.argsort(vals, kind="stable")
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        if vals[-1] - vals[0] < f_tol:
            return NMResult(pts[0], vals[0], True, iterations)
        centroid = np.mean(pts[:-1], axis=0)
        reflected = centroid + (centroid - pts[-1])
        f_reflected = float(fn(reflected))
        if f_reflected < vals[0]:
            expanded = centroid + 2.0 * (centroid - pts[-1])
            f_expanded = float(fn(expanded))
            if f_expanded < f_reflected:
                pts[-1], vals[-1] = expanded, f_expanded
            else:
                pts[-1], vals[-1] = reflected, f_reflected
        elif f_reflected < vals[-2]:
            pts[-1], vals[-1] = reflected, f_reflected
        else:
            contracted = centroid + 0.5 * (pts[-1] - centroid)
            f_contracted = float(fn(contracted))
            if f_contracted < vals[-1]:
                pts[-1], vals[-1] = contracted, f_contracted
            else:
                best = pts[0]
                pts = [best] + [best + 0.5 * (p - best) for p in pts[1:]]
                vals = [vals[0]] + [float(fn(p)) for p in pts[1:]]
        iterations += 1
    i_best = int(np.argmin(vals))
    return NMResult(pts[i_best], vals[i_best], False, iterations)
