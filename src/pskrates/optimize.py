"""Deterministic derivative-free optimization, with no randomized step.

``quadratic_polish`` maximizes in a box by Newton steps on quadratic
interpolation models (the model idea of Powell's NEWUOA and BOBYQA).
``nelder_mead`` is a plain Nelder-Mead simplex (coefficients 1, 2, 0.5 and
0.5) that stops on the spread of the simplex values.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np


class Result(NamedTuple):
    x: np.ndarray
    fun: float
    converged: bool
    iterations: int
    evaluations: int = 0  # distinct points evaluated, counted by the polish only


def nelder_mead(
    fn: Callable[[np.ndarray], float],
    simplex: Sequence[Sequence[float]],
    f_tol: float = 1e-12,
    max_iter: int = 500,
) -> Result:
    """Minimize ``fn`` from a (d+1)-point simplex until the spread of its values is below
    f_tol, or for ``max_iter`` iterations; an infinite value is tolerated and ranks worst."""
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
            return Result(pts[0], vals[0], True, iterations)
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
    return Result(pts[i_best], vals[i_best], False, iterations)


#: The polish's certified gain in units of fn (bits for a rate), and its smallest stencil
#: half-width in units of ``scale``, where rounding is still far below the model's curvature.
GAIN_TOL = 1e-12
STENCIL_FLOOR = 1e-4


def _stencil(x, step, lower, upper, cross):
    """x, two points per axis at +-step (both inward at a bound) and, if ``cross``, a diagonal."""
    points, corner = [x], x.copy()
    for i, e in enumerate(np.diag(step)):
        side = -1.0 if x[i] + step[i] > upper[i] else 1.0
        far = 2.0 * side if side < 0.0 or x[i] - step[i] < lower[i] else -1.0
        points, corner = points + [x + side * e, x + far * e], corner + side * e
    return np.array(points + [corner] * bool(cross))


def _quadratic(offsets, values):
    """Gradient and Hessian at 0 of the least-squares quadratic through (offset, value) pairs."""
    i, j = np.triu_indices(offsets.shape[1])
    basis = np.column_stack([np.ones(len(values)), offsets, offsets[:, i] * offsets[:, j]])
    coef, hess = np.linalg.lstsq(basis, values, rcond=None)[0], np.zeros((offsets.shape[1],) * 2)
    hess[i, j] = coef[1 + offsets.shape[1]:]
    return coef[1:1 + offsets.shape[1]], hess + hess.T


def quadratic_polish(fn, x0, lower, upper, scale, noise, model=None, max_iter=20):
    """Maximize ``fn`` in the box [lower, upper] from x0, with lengths in units of ``scale``.

    Each iteration fits a least-squares quadratic to ``model`` (points, values) at first, then
    to x and its ``_stencil`` of half-width h, and takes the Newton step of the free coordinates
    (uphill along the gradient where the model is not concave) within a trust radius, clipped
    to the box. A coordinate is held if it is on a bound with the slope pointing out, or if its
    values differ by no more than ``noise(x)``. A step that loses more than the noise is retried
    at a quarter of its length; h shrinks to a tenth of each step, down to ``STENCIL_FLOOR``.
    It converges once the predicted gain 1/2 g^T (-H)^-1 g of the free coordinates is at most
    ``GAIN_TOL``, and returns the best point evaluated. The bounds and ``scale`` are arrays.
    """
    seen = {}  # point -> value: a stencil built again costs no evaluation

    def f(x):
        return seen[tuple(x)] if tuple(x) in seen else seen.setdefault(tuple(x), float(fn(x)))

    def result(converged, iterations):  # the best point evaluated, the first of a tie
        best = max(seen, key=seen.get)
        return Result(np.array(best), seen[best], converged, iterations, len(seen))

    x, h, radius = np.array(x0, dtype=float), 1.0, 1.0
    fx = f(x)
    points, values = model or (_stencil(x, scale, lower, upper, False), None)
    values = np.array([f(p) for p in points]) if values is None else values
    for iteration in range(1, max_iter + 1):
        g, hess = _quadratic((points - x) / (h * scale), values - fx)
        g, hess, off = g / h, hess / h**2, points != x
        flat = [np.ptp(values[~np.delete(off, i, axis=1).any(axis=1)]) <= noise(x)
                for i in range(x.size)]
        free = ~(((x <= lower) & (g < 0.0)) | ((x >= upper) & (g > 0.0)) | flat)
        step, sub = np.zeros_like(x), np.ix_(free, free)
        try:
            np.linalg.cholesky(-hess[sub])
            step[free] = np.linalg.solve(-hess[sub], g[free])
            if g[free] @ step[free] / 2.0 <= GAIN_TOL:
                return result(True, iteration)
        except np.linalg.LinAlgError:
            step[free] = g[free] * radius / np.abs(g[free]).max()
        step *= min(1.0, radius / np.abs(step).max())
        x_new = np.clip(x + step * scale, lower, upper)
        if f(x_new) < fx - noise(x):  # the model is wrong this far out
            radius = move = np.abs(step).max() / 4.0
        else:
            radius, move = max(1.0, 2.0 * np.abs(step).max()), np.abs((x_new - x) / scale).max()
            x, fx = x_new, f(x_new)
        h = min(h, max(move / 10.0, STENCIL_FLOOR))
        points = _stencil(x, h * scale, lower, upper, x.size > 1 and free.all())
        values = np.array([f(p) for p in points])
    return result(False, max_iter)
