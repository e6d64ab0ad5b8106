"""Dense numerics for small complex Hermitian operators.

Everything works on plain numpy arrays (complex128) of dimension <= ~16:
eigendecompositions, operator functions restricted to the support, partial
traces and seeded random pure states. Operator functions treat eigenvalues
below ``SUPPORT_CUTOFF`` times the largest one as exact zeros, so negative
and fractional powers act as pseudo-inverses on the support.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .rng import normals, philox

#: Relative threshold at or below which a value lies off the support (``on_support``).
SUPPORT_CUTOFF = 1e-12

#: Largest tolerated Hermiticity violation, relative to the matrix scale.
HERMITICITY_TOL = 1e-9


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` is unitary with
    the matching eigenvector in each column.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square_complex(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m.real).all() or not np.isfinite(m.imag).all():
        raise ValueError("matrix entries must be finite")
    return m


def eig(matrix) -> Spectrum:
    """Spectral decomposition of a Hermitian matrix.

    Rejects matrices whose Hermiticity violation exceeds ``HERMITICITY_TOL``
    relative to max(1, largest entry magnitude). The input is symmetrized
    before factorization so the result is deterministic for equal inputs.
    """
    m = _as_square_complex(matrix)
    scale = max(1.0, float(np.abs(m).max()) if m.size else 0.0)
    asym = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
    if asym > HERMITICITY_TOL * scale:
        raise ValueError(f"matrix is not Hermitian (violation {asym:.3e})")
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return Spectrum(w, v)


def on_support(values: np.ndarray, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """The support cut: values above ``cutoff`` times the largest, or above 0 if none is > 0."""
    return values > cutoff * values.max(initial=0.0)


def support_spectrum(matrix) -> Spectrum:
    """Spectrum of a PSD Hermitian matrix with its support marked.

    Eigenvalues off ``on_support`` are set to exactly zero; the positive ones
    are the support. Rejects matrices with a negative eigenvalue beyond
    ``HERMITICITY_TOL``.
    """
    w, v = eig(matrix)
    if w.size and w[0] < -HERMITICITY_TOL * max(1.0, w[-1]):
        raise ValueError("matrix is not positive semidefinite within tolerance")
    w[~on_support(w)] = 0.0
    return Spectrum(w, v)


def apply_on_support(spectrum: Spectrum, fn) -> np.ndarray:
    """U diag(fn(lam)) U^dag with fn applied only on the support (lam > 0)."""
    w, v = spectrum
    mask = w > 0.0
    fw = np.zeros_like(w)
    if mask.any():
        fw[mask] = fn(w[mask])
    return (v * fw) @ v.conj().T


def matrix_power(matrix, p: float) -> np.ndarray:
    """Fractional power of a PSD Hermitian matrix on its support.

    Eigenvalues off ``on_support`` map to zero, so negative ``p`` yields the
    support-restricted inverse power.
    """
    if not np.isfinite(p):
        raise ValueError("power must be finite")
    return apply_on_support(support_spectrum(matrix), lambda lam: lam**p)


def matrix_log2(matrix) -> np.ndarray:
    """Base-2 logarithm of a PSD Hermitian matrix, zero off the support.

    Eigenvalues off ``on_support`` count as off the support. The off-support
    convention is safe because the result is only ever used inside traces
    against states living on that support.
    """
    return apply_on_support(support_spectrum(matrix), np.log2)


def partial_trace(matrix, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    ``dims = (dim_a, dim_b)`` fixes the factorization, ``keep`` is "A" or
    "B". The trace of the input is preserved.
    """
    m = _as_square_complex(matrix)
    dim_a, dim_b = dims
    if dim_a < 1 or dim_b < 1 or dim_a * dim_b != m.shape[0]:
        raise ValueError(f"dims {dims} incompatible with matrix of dim {m.shape[0]}")
    r = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.ascontiguousarray(r.trace(axis1=1, axis2=3))
    if keep == "B":
        return np.ascontiguousarray(r.trace(axis1=0, axis2=2))
    raise ValueError("keep must be 'A' or 'B'")


def random_pure_tripartite(dims: tuple[int, int, int], seed: int) -> np.ndarray:
    """Haar-random unit vector on a tripartite space, deterministic per seed.

    Components are independent complex Gaussians, normalized. The global
    phase is fixed so the first amplitude is real and nonnegative, which is
    irrelevant for any density-matrix use but makes trivial dimensions give
    exactly the scalar 1.
    """
    if any(d < 1 for d in dims):
        raise ValueError("dimensions must be >= 1")
    total = int(np.prod(dims))
    g = normals(philox(seed, stream=0xA11CE), 2 * total)
    psi = g[:total] + 1j * g[total:]
    psi /= np.linalg.norm(psi)
    if abs(psi[0]) > 0:
        psi *= np.conj(psi[0]) / abs(psi[0])
    return psi
