import math

import numpy as np
import pytest

from uqc import linalg
from uqc.errors import InvalidInput
from uqc.generators import TAU_ROUNDOFF

from conftest import random_skew


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
        assert linalg.max_abs(C + C.conj().T) <= TAU_ROUNDOFF * linalg.max_abs(C)


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


def test_operator_norm_of_a_diagonal_is_its_largest_entry_without_an_svd():
    # the singular values of a diagonal matrix are its |A_ii|.  On an
    # imaginary diagonal, a drift's, |A_ii| is exact and LAPACK's SVD lands
    # within an ulp of it; on a complex one, np.abs is within an ulp of the
    # modulus and the SVD within a few
    rng = np.random.default_rng(53)
    for k in range(400):
        d = int(rng.integers(1, 65))
        scale = 10.0 ** rng.uniform(-300, 300)
        diag = scale * (1j * rng.normal(size=d) + (k % 2) * rng.normal(size=d))
        diag[rng.random(d) < 0.2] = 0.0
        A = np.diag(diag)
        want = float(np.max(np.abs(diag)))
        assert linalg.operator_norm(A) == want
        z = complex(diag[np.argmax(np.abs(diag))])
        assert abs(want - math.hypot(z.real, z.imag)) <= np.spacing(want)
        if k % 2 == 0:
            assert abs(want - np.linalg.norm(A, 2)) <= np.spacing(want)


def test_operator_norm_over_planted_blocks_is_within_ulps_of_one_svd():
    # a block-diagonal matrix with its indices permuted: the largest norm
    # over the components of its support lands within a few ulps of one SVD
    # of the whole, for blocks of every size, skew or not, at any scale
    rng = np.random.default_rng(59)
    for k in range(300):
        d = int(rng.integers(1, 65))
        cuts = np.sort(rng.choice(np.arange(1, d), size=int(rng.integers(0, d)), replace=False))
        A = np.zeros((d, d), dtype=complex)
        for block in np.split(np.arange(d), cuts):
            B = rng.normal(size=(len(block), len(block))) + 1j * rng.normal(size=(len(block), len(block)))
            B[rng.random(B.shape) < 0.3] = 0.0
            A[np.ix_(block, block)] = B - B.conj().T if k % 2 else B
        perm = rng.permutation(d)
        A = 10.0 ** rng.uniform(-300, 300) * A[np.ix_(perm, perm)]
        want = np.linalg.norm(A, 2)
        assert abs(linalg.operator_norm(A) - want) <= 16 * np.spacing(want)


def test_operator_norm_is_the_largest_block_norm_bit_for_bit():
    # the contract of the block loop: the largest of the |A_ii| of the
    # single-index blocks, taken in one np.abs, and of one 2-norm per larger
    # block, its indices ascending, exactly, on permuted block-diagonal
    # matrices with complex diagonals at any scale
    rng = np.random.default_rng(61)
    for k in range(300):
        d = int(rng.integers(1, 65))
        cuts = np.sort(rng.choice(np.arange(1, d), size=int(rng.integers(0, d)), replace=False))
        blocks = [np.sort(b) for b in np.split(rng.permutation(d), cuts)]
        A = np.zeros((d, d), dtype=complex)
        for block in blocks:
            n = len(block)
            B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            # a spanning path keeps each block one component of the support
            B[rng.random(B.shape) < 0.3] = 0.0
            B[np.arange(n - 1), np.arange(1, n)] = 1.0 + rng.normal()
            A[np.ix_(block, block)] = B
        A *= 10.0 ** rng.uniform(-300, 300)
        single = [b[0] for b in blocks if len(b) == 1]
        want = max(
            [float(np.abs(A[single, single]).max(initial=0.0))]
            + [float(np.linalg.norm(A[np.ix_(b, b)], 2)) for b in blocks if len(b) > 1]
        )
        assert linalg.operator_norm(A) == want, k


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


def test_commutator_against_a_stack_matches_one_at_a_time():
    rng = np.random.default_rng(31)
    for d, k in ((1, 3), (2, 1), (5, 7), (12, 64)):
        A = random_skew(rng, d) + rng.standard_normal((d, d))
        stack = np.array([random_skew(rng, d) + 1j * random_skew(rng, d) for _ in range(k)])
        blocked = linalg.commutator(A, stack)
        assert blocked.shape == (k, d, d)
        for B, C in zip(stack, blocked):
            one = linalg.commutator(A, B)
            assert np.allclose(C, one, rtol=0, atol=1e-13 * max(1.0, linalg.max_abs(one)))
    with pytest.raises(InvalidInput):
        linalg.commutator(np.eye(2), np.zeros((4, 3, 3)))
