import numpy as np
import pytest
import scipy.linalg

from uqc import linalg
from uqc.errors import InvalidInput

from conftest import random_skew

SQRT2 = np.sqrt(2.0)


def test_commutator_with_itself_vanishes():
    A = np.array([[0, 1], [-1, 0]], dtype=complex)
    assert linalg.max_abs(linalg.commutator(A, A)) == 0.0


def test_commutator_2x2_frozen_value():
    # A = E12 - E21, B = i*diag(1, -1); [A, B] computed by direct 2x2
    # multiplication: AB = [[0,-i],[-i,0]], BA = [[0,i],[i,0]]
    A = np.array([[0, 1], [-1, 0]], dtype=complex)
    B = np.diag([1j, -1j])
    expected = np.array([[0, -2j], [-2j, 0]])
    assert np.allclose(linalg.commutator(A, B), expected, atol=1e-15)


def test_commutator_diagonals_commute():
    A = np.diag([1j, 2j, 3j])
    B = np.diag([5j, -1j, 0.5j])
    assert linalg.max_abs(linalg.commutator(A, B)) == 0.0


def test_commutator_dimension_mismatch():
    with pytest.raises(InvalidInput):
        linalg.commutator(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


def test_commutator_preserves_skew_hermitian():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(2, 8))
        C = linalg.commutator(random_skew(rng, d), random_skew(rng, d))
        assert linalg.is_skew_hermitian(C)


def test_jacobi_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(2, 8))
        A, B, C = (random_skew(rng, d) for _ in range(3))
        total = (
            linalg.commutator(A, linalg.commutator(B, C))
            + linalg.commutator(B, linalg.commutator(C, A))
            + linalg.commutator(C, linalg.commutator(A, B))
        )
        scale = (
            linalg.operator_norm(A) * linalg.operator_norm(B) * linalg.operator_norm(C)
        )
        assert linalg.operator_norm(total) <= 1e-10 * scale


def test_operator_norm_identity():
    assert linalg.operator_norm(np.eye(3, dtype=complex)) == pytest.approx(1.0)


def test_operator_norm_diagonal():
    A = np.diag(1j * np.sqrt([2.0, 3.0, 5.0]))
    assert linalg.operator_norm(A) == pytest.approx(np.sqrt(5.0), rel=1e-12)


def test_operator_norm_embedded_rotation():
    # E12 - E21 padded to d=3: singular values (1, 1, 0)
    A = np.zeros((3, 3), dtype=complex)
    A[0, 1], A[1, 0] = 1.0, -1.0
    assert linalg.operator_norm(A) == pytest.approx(1.0, rel=1e-12)


def test_operator_norm_unitary_invariance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = int(rng.integers(2, 9))
        A = random_skew(rng, d)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        assert linalg.operator_norm(Q @ A @ Q.conj().T) == pytest.approx(
            linalg.operator_norm(A), rel=1e-10, abs=1e-10
        )


def test_matrix_exp_zero_time_is_identity():
    rng = np.random.default_rng(5)
    A = random_skew(rng, 4)
    assert np.allclose(linalg.matrix_exp(A, 0.0), np.eye(4), atol=1e-12)


def test_matrix_exp_diagonal():
    theta = np.array([0.3, -1.2, 2.5])
    U = linalg.matrix_exp(np.diag(1j * theta), 1.0)
    assert np.allclose(U, np.diag(np.exp(1j * theta)), atol=1e-12)


def test_matrix_exp_rotation_block():
    # exp(eps (E12 - E21)) = [[cos, sin], [-sin, cos]]
    eps = 0.37
    A = np.array([[0, 1], [-1, 0]], dtype=complex)
    expected = np.array(
        [[np.cos(eps), np.sin(eps)], [-np.sin(eps), np.cos(eps)]], dtype=complex
    )
    assert np.allclose(linalg.matrix_exp(A, eps), expected, atol=1e-12)


def test_matrix_exp_matches_pade_oracle():
    # independent route: scipy's expm uses Pade scaling-and-squaring
    rng = np.random.default_rng(13)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        A = random_skew(rng, d)
        t = float(rng.uniform(-2, 2))
        assert np.allclose(linalg.matrix_exp(A, t), scipy.linalg.expm(t * A), atol=1e-11)


def test_matrix_exp_unitary_for_large_arguments():
    rng = np.random.default_rng(17)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        A = random_skew(rng, d)
        t = 1e3 / linalg.operator_norm(A)  # ||tA|| = 1e3
        U = linalg.matrix_exp(A, t)
        assert linalg.max_abs(U.conj().T @ U - np.eye(d)) <= 1e-10


def test_matrix_exp_rejects_non_skew():
    with pytest.raises(InvalidInput):
        linalg.matrix_exp(np.array([[0, 1], [1, 0]], dtype=complex), 1.0)


def test_embed_real_roundtrip():
    rng = np.random.default_rng(23)
    A = random_skew(rng, 4)
    assert np.allclose(linalg.unembed_real(linalg.embed_real(A), 4), A)


def test_embed_real_layout():
    # fixed layout: real parts row-major first, then imaginary parts
    A = np.array([[1 + 5j, 2 + 6j], [3 + 7j, 4 + 8j]])
    assert np.array_equal(linalg.embed_real(A), np.arange(1.0, 9.0))


def test_as_complex_matrix_rejects_bad_shapes():
    with pytest.raises(InvalidInput):
        linalg.as_complex_matrix(np.zeros((2, 3)))
    with pytest.raises(InvalidInput):
        linalg.as_complex_matrix(np.array([[np.nan, 0], [0, 0]]))
