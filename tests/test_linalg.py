import math

import numpy as np
import pytest

from pskrates.linalg import (
    eig,
    matrix_log2,
    matrix_power,
    on_support,
    partial_trace,
    random_pure_tripartite,
)

from conftest import philox_rng
from reference import random_density


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


class TestOnSupport:
    def test_relative_cut_of_an_ascending_spectrum(self):
        lam = np.array([-1e-17, 0.0, 5e-13, 1.0000001e-12, 0.5, 1.0])
        assert on_support(lam).tolist() == [False, False, False, True, True, True]
        assert on_support(2.0 * lam).tolist() == on_support(lam).tolist()

    def test_zero_weights_lie_off_the_support(self):
        assert on_support(np.array([0.25, 0.0, 0.75, 0.0])).tolist() == [True, False, True, False]

    def test_non_positive_values_have_no_support(self):
        assert not on_support(np.array([-2.0, -1e-30, 0.0])).any()
        assert not on_support(np.zeros(3)).any()

    def test_empty_input(self):
        assert on_support(np.array([])).shape == (0,)

    def test_cutoff_zero_keeps_exactly_the_positive_values(self):
        lam = np.array([-1e-17, 0.0, 1e-300, 1e-20, 1.0])
        assert on_support(lam, 0.0).tolist() == [False, False, True, True, True]


class TestEig:
    def test_identity(self):
        spec = eig(np.eye(2))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0])

    def test_diagonal(self):
        spec = eig(np.diag([0.3, 0.7]))
        assert np.allclose(spec.eigenvalues, [0.3, 0.7])
        assert np.allclose(np.abs(spec.eigenvectors), np.eye(2))

    def test_pauli_x_characteristic_polynomial(self):
        # 2x2 oracle: lambda^2 - tr lambda + det = 0 with tr=0, det=-1
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        trace, det = 0.0, -1.0
        disc = math.sqrt(trace * trace - 4.0 * det)
        expected = sorted(((trace - disc) / 2.0, (trace + disc) / 2.0))
        spec = eig(m)
        assert np.allclose(spec.eigenvalues, expected, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_reconstruction_and_orthonormality_random(self):
        rng = philox_rng(101)
        for _ in range(10_000):
            dim = int(rng.integers(2, 9))
            m = random_hermitian(rng, dim)
            w, v = eig(m)
            scale = max(1.0, np.abs(m).max())
            assert np.abs((v * w) @ v.conj().T - m).max() <= 1e-10 * scale
            assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-10
            assert (np.diff(w) >= -1e-14).all()

    def test_deterministic(self):
        rng = philox_rng(7)
        m = random_hermitian(rng, 5)
        first, second = eig(m), eig(m.copy())
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)


class TestMatrixPower:
    def test_half_identity_squared(self):
        assert np.allclose(matrix_power(np.eye(2) / 2.0, 2.0), np.eye(2) / 4.0,
                           atol=1e-14)

    def test_pseudo_inverse_on_support(self):
        out = matrix_power(np.diag([1.0, 0.0]), -0.5)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-14)

    def test_scalar_square_roots(self):
        out = matrix_power(np.diag([0.25, 0.75]), 0.5)
        expected = np.diag([math.sqrt(0.25), math.sqrt(0.75)])
        assert np.allclose(out, expected, atol=1e-14)

    def test_power_addition_on_common_support(self):
        rng = philox_rng(11)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            rho = random_density(dim, int(rng.integers(0, 2**32)))
            for p, q in ((0.5, 0.5), (0.3, 1.4), (-0.5, 1.5), (2.0, -1.0)):
                lhs = matrix_power(rho, p) @ matrix_power(rho, q)
                rhs = matrix_power(rho, p + q)
                assert np.abs(lhs - rhs).max() <= 1e-9

    def test_hermitian_output(self):
        rho = random_density(5, seed=3)
        out = matrix_power(rho, 0.7)
        assert np.abs(out - out.conj().T).max() <= 1e-12

    def test_rejects_indefinite_input(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            matrix_power(np.diag([1.0, -0.5]), 0.5)


class TestMatrixLog2:
    def test_half_identity(self):
        assert np.allclose(matrix_log2(np.eye(2) / 2.0), -np.eye(2), atol=1e-14)

    def test_support_convention(self):
        assert np.allclose(matrix_log2(np.diag([1.0, 0.0])), np.zeros((2, 2)),
                           atol=1e-14)

    def test_scalar_log2(self):
        out = matrix_log2(np.diag([0.25, 0.75]))
        expected = np.diag([math.log2(0.25), math.log2(0.75)])
        assert np.allclose(out, expected, atol=1e-14)


class TestPartialTrace:
    def test_product_state_keep_b(self):
        rho_a = random_density(2, seed=21)
        rho_b = random_density(3, seed=22)
        out = partial_trace(np.kron(rho_a, rho_b), (2, 3), keep="B")
        assert np.abs(out - rho_b).max() <= 1e-12

    def test_product_keep_a_scales_by_trace(self):
        rng = philox_rng(23)
        for _ in range(20):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 3)
            out = partial_trace(np.kron(a, b), (2, 3), keep="A")
            assert np.abs(out - np.trace(b) * a).max() <= 1e-10

    def test_bell_state_against_index_contraction(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
        rho = np.outer(psi, psi.conj())
        # direct index contraction oracle
        expected = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    expected[i, j] += rho[i * 2 + k, j * 2 + k]
        out = partial_trace(rho, (2, 2), keep="A")
        assert np.abs(out - expected).max() <= 1e-14
        assert np.allclose(out, np.eye(2) / 2.0, atol=1e-12)

    def test_trivial_first_factor_gives_scalar_trace(self):
        m = random_density(4, seed=5)
        out = partial_trace(m, (1, 4), keep="A")
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - np.trace(m)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            partial_trace(np.eye(6), (2, 2), keep="A")


class TestRandomPureTripartite:
    def test_trivial_dims_give_scalar_one(self):
        psi = random_pure_tripartite((1, 1, 1), seed=0)
        assert psi.shape == (1,)
        assert abs(psi[0] - 1.0) <= 1e-12

    def test_deterministic_per_seed(self):
        a = random_pure_tripartite((2, 3, 4), seed=42)
        b = random_pure_tripartite((2, 3, 4), seed=42)
        assert np.array_equal(a, b)
        c = random_pure_tripartite((2, 3, 4), seed=43)
        assert not np.allclose(a, c)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4), (1, 5, 2)])
    def test_unit_norm(self, dims):
        for seed in range(20):
            psi = random_pure_tripartite(dims, seed)
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


def test_isometry_commutes_with_powers():
    # V rho^a V+ equals (V rho V+)^a for isometries V, on-support powers
    rng = philox_rng(31)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        big = d + int(rng.integers(1, 4))
        raw = rng.normal(size=(big, d)) + 1j * rng.normal(size=(big, d))
        v, _ = np.linalg.qr(raw)
        rho = random_density(d, int(rng.integers(0, 2**32)))
        for a in (0.5, 1.3, 2.0):
            lhs = v @ matrix_power(rho, a) @ v.conj().T
            rhs = matrix_power(v @ rho @ v.conj().T, a)
            assert np.abs(lhs - rhs).max() <= 1e-9
