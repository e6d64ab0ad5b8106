"""Independent oracles for validating the main code paths.

Nothing here reuses the reduced entropy formulas: the Monte-Carlo samplers
measure the probability tables, the series erf checks the libm erf, the
brute-force entropies work on the explicitly assembled block-diagonal
classical-quantum state, and the duality suite exercises the general
bipartite entropies through identities on random pure tripartite states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import entropies
from .linalg import (
    SUPPORT_CUTOFF,
    matrix_log2,
    matrix_power,
    partial_trace,
    random_pure_tripartite,
)
from .rng import normals, philox
from .states import CQEnsemble, ProtocolParams, cond_prob_table

_SQRT_PI = math.sqrt(math.pi)


def erf_oracle(x: float) -> float:
    """High-precision error function, independent of the C library.

    For |x| <= 2 the Maclaurin expansion is summed in its all-positive
    rearrangement erf(x) = (2/sqrt(pi)) e^(-x^2) sum_n (2x^2)^n x / (2n+1)!!
    until a term drops below 1e-18; beyond that the complementary function
    comes from the Laplace continued fraction, evaluated by the modified
    Lentz scheme. Max error is at the couple-of-ulp level; the domain is
    |x| <= 10.
    """
    x = float(x)
    if math.isnan(x) or abs(x) > 10.0:
        raise ValueError(f"erf_oracle domain is |x| <= 10, got {x}")
    sign, x = (-1.0, -x) if x < 0.0 else (1.0, x)
    if x == 0.0:
        return 0.0
    if x <= 2.0:
        term = x
        total = x
        x2 = 2.0 * x * x
        n = 0
        while term > 1e-18:
            n += 1
            term *= x2 / (2 * n + 1)
            total += term
        return sign * (2.0 / _SQRT_PI) * math.exp(-x * x) * total
    # erfc(x) = exp(-x^2)/sqrt(pi) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    tiny = 1e-300
    f = x if x != 0.0 else tiny
    c = f
    d = 0.0
    k = 0
    while k < 400:
        k += 1
        coeff = k / 2.0
        d = x + coeff * d
        d = tiny if d == 0.0 else d
        c = x + coeff / c
        c = tiny if c == 0.0 else c
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-18:
            break
    erfc = math.exp(-x * x) / (_SQRT_PI * f)
    return sign * (1.0 - erfc)


@dataclass(frozen=True)
class McConfig:
    """Shot count, stream seed and protocol for a sampling run."""

    shots: int
    seed: int
    params: ProtocolParams

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")


@dataclass(frozen=True, eq=False)
class McReport:
    """Empirical table against the analytic one, in binomial-sigma units."""

    counts: np.ndarray
    empirical: np.ndarray
    analytic: np.ndarray
    std_err: np.ndarray
    sigma_units: np.ndarray
    max_sigma_units: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "max_sigma_units", float(self.sigma_units.max()))


def _report(counts: np.ndarray, shots: int, analytic: np.ndarray) -> McReport:
    empirical = counts / shots
    variance = analytic * (1.0 - analytic) / shots
    std_err = np.sqrt(variance)
    deviation = np.abs(empirical - analytic)
    with np.errstate(divide="ignore", invalid="ignore"):
        units = np.where(std_err > 0.0, deviation / std_err,
                         np.where(deviation > 0.0, np.inf, 0.0))
    return McReport(counts=counts, empirical=empirical, analytic=analytic,
                    std_err=std_err, sigma_units=units)


def sample_homodyne_bpsk(cfg: McConfig) -> McReport:
    """Sample the sign-discretized quadrature measurement for both symbols.

    For symbol x the quadrature is normal with mean (-1)^x sqrt(2 eta) alpha
    and variance 1/2; outcome y = 0 for q > 0, else 1. One Philox stream per
    symbol.
    """
    p = cfg.params
    if p.n_states != 2:
        raise ValueError("sample_homodyne_bpsk requires n_states == 2")
    counts = np.zeros((2, 2), dtype=np.int64)
    scale = 1.0 / math.sqrt(2.0)
    for x in range(2):
        mean = (-1.0) ** x * math.sqrt(2.0 * p.eta) * p.alpha
        q = mean + scale * normals(philox(cfg.seed, stream=x), cfg.shots)
        n_plus = int((q > 0.0).sum())
        counts[0, x] = n_plus
        counts[1, x] = cfg.shots - n_plus
    return _report(counts, cfg.shots, np.asarray(cond_prob_table(p)))


def sample_heterodyne_qpsk(cfg: McConfig) -> McReport:
    """Sample the quadrant-discretized double-quadrature measurement.

    The outcome density for input k is a complex Gaussian centered on
    sqrt(eta) alpha_k with variance 1/2 per quadrature; the quadrant of the
    draw fixes y. One Philox stream per symbol, real parts first.
    """
    p = cfg.params
    if p.n_states != 4:
        raise ValueError("sample_heterodyne_qpsk requires n_states == 4")
    counts = np.zeros((4, 4), dtype=np.int64)
    scale = 1.0 / math.sqrt(2.0)
    for k in range(4):
        center = 1j**k * np.exp(1j * np.pi / 4.0) * math.sqrt(p.eta) * p.alpha
        z = normals(philox(cfg.seed, stream=k), 2 * cfg.shots)
        re = center.real + scale * z[: cfg.shots]
        im = center.imag + scale * z[cfg.shots :]
        # quadrants (+,+) (-,+) (-,-) (+,-) map to y = 0..3
        y = np.where(im > 0.0, np.where(re > 0.0, 0, 1), np.where(re > 0.0, 3, 2))
        counts[:, k] = np.bincount(y, minlength=4)
    return _report(counts, cfg.shots, np.asarray(cond_prob_table(p)))


def assemble_cq_state(ensemble: CQEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Explicit block-diagonal rho_YE and I_Y x rho_E on the N*dim space."""
    n, d = ensemble.n_states, ensemble.dim
    rho = np.zeros((n * d, n * d), dtype=complex)
    for y, (p, state) in enumerate(zip(ensemble.probs, ensemble.cond_states)):
        rho[y * d : (y + 1) * d, y * d : (y + 1) * d] = p * state
    return rho, np.kron(np.eye(n), ensemble.avg_state)


def brute_entropy_cq(ensemble: CQEnsemble, a: float | None, kind: str) -> float:
    """Entropy functionals evaluated on the assembled block matrices.

    No symmetry reduction and no block shortcuts: the definitional formulas
    act on the full (N dim)-dimensional operators. ``kind`` selects among
    petz_down, petz_up, sand_down, von_neumann and variance; the Rényi kinds
    require ``a``.
    """
    rho, conditioner = assemble_cq_state(ensemble)
    dims = (ensemble.n_states, ensemble.dim)
    if kind == "petz_down":
        t = np.trace(matrix_power(rho, a) @ matrix_power(conditioner, 1.0 - a)).real
        return math.log2(t) / (1.0 - a)
    if kind == "petz_up":
        reduced = partial_trace(matrix_power(rho, a), dims, keep="B")
        return a / (1.0 - a) * math.log2(np.trace(matrix_power(reduced, 1.0 / a)).real)
    if kind == "sand_down":
        x = matrix_power(conditioner, (1.0 - a) / (2.0 * a))
        lam = np.linalg.eigvalsh(x @ rho @ x)
        lam = lam[lam > SUPPORT_CUTOFF * max(float(lam[-1]), 0.0)]
        return math.log2(float((lam**a).sum())) / (1.0 - a)
    if kind == "von_neumann":
        diff = matrix_log2(rho) - matrix_log2(conditioner)
        return -np.trace(rho @ diff).real
    if kind == "variance":
        diff = matrix_log2(rho) - matrix_log2(conditioner)
        first = np.trace(rho @ diff @ diff).real
        return float(first - np.trace(rho @ diff).real ** 2)
    raise ValueError(f"unknown kind {kind!r}")


def marginal_pair(psi: np.ndarray, dims: tuple[int, int, int]):
    """(rho_AB, rho_AC) of a pure tripartite vector."""
    d_a, d_b, d_c = dims
    tensor = np.asarray(psi).reshape(d_a, d_b, d_c)
    m_ab = tensor.reshape(d_a * d_b, d_c)
    rho_ab = m_ab @ m_ab.conj().T
    m_ac = tensor.transpose(0, 2, 1).reshape(d_a * d_c, d_b)
    rho_ac = m_ac @ m_ac.conj().T
    return rho_ab, rho_ac


DUAL_PETZ_ORDERS = (0.5, 0.8, 1.3, 1.7)
DUAL_MIXED_ORDERS = (0.5, 1.5, 2.0)
DUAL_SANDWICH_ORDERS = (1.25, 2.0)
#: (dim_A, dim_B, dim_C) of the random pure states, each used with every seed.
DUAL_DIMS = ((2, 2, 2), (2, 3, 4))


@dataclass(frozen=True)
class DualityReport:
    """Largest residual of each duality identity across the tested states."""

    petz_residual: float
    mixed_residual: float
    sandwich_residual: float
    states_tested: int
    #: Largest residual allowed to each identity; working code leaves less
    #: than 1e-13 on the default states.
    tol: ClassVar[float] = 1e-8

    @property
    def passed(self) -> bool:
        return max(self.petz_residual, self.mixed_residual, self.sandwich_residual) <= self.tol


def duality_suite(states) -> DualityReport:
    """Check the three entropy duality identities on random pure states.

    State k of ``states`` (integers) is the random pure state
    of seed k // 2 with the dimension triple DUAL_DIMS[k % 2], so
    range(2 s, 2 s + 2 m) covers seeds s .. s + m - 1 with both triples. On
    a pure tripartite state: the Petz entropies of (A|B) at order a and
    (A|C) at 2-a sum to zero; the optimized Petz at a cancels the sandwiched
    at 1/a; and the optimized sandwiched entropies at orders a, b with
    1/a + 1/b = 2 cancel. Residuals are reported as maxima over all tested
    states and orders. Module-level lookups keep the entropy functions
    monkeypatchable for negative controls.
    """
    petz_res = mixed_res = sandwich_res = 0.0
    tested = 0
    for state in states:
        dims = DUAL_DIMS[state % 2]
        d_a, d_b, d_c = dims
        rho_ab, rho_ac = marginal_pair(random_pure_tripartite(dims, state // 2), dims)
        tested += 1
        for a in DUAL_PETZ_ORDERS:
            res = (entropies.petz_down_general(rho_ab, (d_a, d_b), a)
                   + entropies.petz_down_general(rho_ac, (d_a, d_c), 2.0 - a))
            petz_res = max(petz_res, abs(res))
        for a in DUAL_MIXED_ORDERS:
            res = (entropies.petz_up_general(rho_ab, (d_a, d_b), a)
                   + entropies.sandwiched_down_general(rho_ac, (d_a, d_c), 1.0 / a))
            mixed_res = max(mixed_res, abs(res))
        for a in DUAL_SANDWICH_ORDERS:
            b = a / (2.0 * a - 1.0)
            res = (entropies.sandwiched_up_general(rho_ab, (d_a, d_b), a)
                   + entropies.sandwiched_up_general(rho_ac, (d_a, d_c), b))
            sandwich_res = max(sandwich_res, abs(res))
    return DualityReport(petz_residual=petz_res, mixed_residual=mixed_res,
                         sandwich_residual=sandwich_res, states_tested=tested)
