import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circumproj import (
    AffineSubspace,
    DimensionMismatch,
    EmptyIntersection,
    InconsistentSystem,
    intersection_subspace,
    project_intersection,
    residual,
)
from circumproj import affine
from oracles import kkt_project, kkt_project_blocks, kkt_residuals, point_in_subspace


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the blocks that went through the SVD factorization."""
    calls = []
    factor_svd = affine._factor_svd

    def spy(A, b):
        calls.append(A.shape)
        return factor_svd(A, b)

    monkeypatch.setattr(affine, "_factor_svd", spy)
    return calls


def block_with_singular_values(rng, singular_values, n):
    """rows x n matrix U diag(s) V^T with random orthonormal U and V."""
    rows = len(singular_values)
    U, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    V, _ = np.linalg.qr(rng.standard_normal((n, rows)))
    return (U * np.asarray(singular_values)) @ V.T


class TestConstruction:
    def test_coordinate_hyperplane(self):
        U = AffineSubspace([[1.0, 0.0]], [0.0])
        assert U.rank == 1
        assert U.ambient_dim == 2
        assert U.direction_dim == 1

    def test_dependent_rows_rank_one(self):
        U = AffineSubspace([[1.0, 0.0], [2.0, 0.0]], [0.0, 0.0])
        assert U.rank == 1

    def test_inconsistent_rows_rejected(self):
        # 2 x1 = 2 contradicts 2 x1 = 5
        with pytest.raises(InconsistentSystem):
            AffineSubspace([[1.0, 0.0], [2.0, 0.0]], [1.0, 5.0])

    def test_rhs_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            AffineSubspace([[1.0, 0.0]], [1.0, 2.0])

    def test_immutable_arrays(self):
        U = AffineSubspace([[1.0, 0.0]], [0.0])
        with pytest.raises(ValueError):
            U.constraint_matrix[0, 0] = 5.0
        with pytest.raises(ValueError):
            U.direction_basis()[0, 0] = 5.0

    def test_rank_matches_numpy(self, rng):
        A = rng.standard_normal((4, 9))
        A[3] = A[0] - A[1]
        z = rng.standard_normal(9)
        U = AffineSubspace(A, A @ z)
        assert U.rank == np.linalg.matrix_rank(A)


class TestProject:
    def test_orthogonal_drop(self):
        U = AffineSubspace([[1.0, 0.0]], [0.0])
        np.testing.assert_allclose(U.project(np.array([3.0, 4.0])), [0.0, 4.0])

    def test_identity_on_members(self, rng):
        A = rng.standard_normal((2, 6))
        z = rng.standard_normal(6)
        U = AffineSubspace(A, A @ z)
        s = point_in_subspace(rng, A, A @ z)
        np.testing.assert_allclose(U.project(s), s, atol=1e-12)

    def test_idempotent(self, rng):
        A = rng.standard_normal((3, 7))
        z = rng.standard_normal(7)
        U = AffineSubspace(A, A @ z)
        x = rng.standard_normal(7)
        p = U.project(x)
        np.testing.assert_allclose(U.project(p), p, atol=1e-12)

    def test_matches_kkt_oracle(self, rng):
        A = rng.standard_normal((3, 5))
        z = rng.standard_normal(5)
        b = A @ z
        U = AffineSubspace(A, b)
        x = rng.standard_normal(5)
        p = U.project(x)
        np.testing.assert_allclose(p, kkt_project(A, b, x), atol=1e-10)
        # x - p orthogonal to every null-space direction
        N = scipy.linalg.null_space(A)
        np.testing.assert_allclose(N.T @ (x - p), 0.0, atol=1e-10)

    def test_feasibility_after_projection(self, rng):
        for _ in range(20):
            rows = int(rng.integers(1, 6))
            n = int(rng.integers(rows, 10))
            A = rng.standard_normal((rows, n))
            z = rng.standard_normal(n)
            b = A @ z
            U = AffineSubspace(A, b)
            p = U.project(rng.standard_normal(n))
            assert np.linalg.norm(A @ p - b) <= 1e-8 * (1.0 + np.linalg.norm(b))

    def test_batch_rows(self, rng):
        A = rng.standard_normal((2, 5))
        z = rng.standard_normal(5)
        U = AffineSubspace(A, A @ z)
        X = rng.standard_normal((7, 5))
        P = U.project(X)
        assert P.shape == (7, 5)
        for i in range(7):
            np.testing.assert_allclose(P[i], U.project(X[i]), rtol=1e-14, atol=1e-14)

    def test_dimension_mismatch(self):
        U = AffineSubspace([[1.0, 0.0]], [0.0])
        with pytest.raises(DimensionMismatch):
            U.project(np.zeros(3))


class TestReflect:
    def test_flip_across_hyperplane(self):
        U = AffineSubspace([[1.0, 0.0]], [0.0])
        np.testing.assert_allclose(U.reflect(np.array([3.0, 4.0])), [-3.0, 4.0])

    def test_involution(self, rng):
        A = rng.standard_normal((3, 8))
        z = rng.standard_normal(8)
        U = AffineSubspace(A, A @ z)
        x = rng.standard_normal(8)
        np.testing.assert_allclose(U.reflect(U.reflect(x)), x, atol=1e-11)

    def test_isometry_around_members(self, rng):
        A = rng.standard_normal((2, 6))
        z = rng.standard_normal(6)
        b = A @ z
        U = AffineSubspace(A, b)
        x = rng.standard_normal(6)
        for _ in range(5):
            s = point_in_subspace(rng, A, b, scale=2.0)
            assert np.isclose(
                np.linalg.norm(U.reflect(x) - s), np.linalg.norm(x - s), rtol=1e-10
            )


class TestDistance:
    def test_hyperplane_distance(self):
        U = AffineSubspace([[1.0, 0.0]], [0.0])
        assert np.isclose(U.distance(np.array([3.0, 4.0])), 3.0)

    def test_zero_on_members(self, rng):
        A = rng.standard_normal((2, 5))
        z = rng.standard_normal(5)
        U = AffineSubspace(A, A @ z)
        assert U.distance(point_in_subspace(rng, A, A @ z)) < 1e-10

    def test_matches_oracle(self, rng):
        A = rng.standard_normal((3, 6))
        z = rng.standard_normal(6)
        b = A @ z
        U = AffineSubspace(A, b)
        x = rng.standard_normal(6)
        expected = np.linalg.norm(x - kkt_project(A, b, x))
        assert np.isclose(U.distance(x), expected, rtol=1e-10)


class TestIntersection:
    def test_two_axes_meet_at_origin(self, rng):
        U1 = AffineSubspace([[0.0, 1.0]], [0.0])
        U2 = AffineSubspace([[1.0, 0.0]], [0.0])
        x = rng.standard_normal(2)
        np.testing.assert_allclose(project_intersection([U1, U2], x), [0.0, 0.0], atol=1e-12)

    def test_single_block_degenerates_to_project(self, rng):
        A = rng.standard_normal((2, 5))
        z = rng.standard_normal(5)
        U = AffineSubspace(A, A @ z)
        x = rng.standard_normal(5)
        np.testing.assert_allclose(project_intersection([U], x), U.project(x), atol=1e-12)

    def test_underdetermined_kkt_residuals(self, rng):
        n = 9
        planted = rng.standard_normal(n)
        subs = []
        for i in range(3):
            A = rng.standard_normal((2, n))
            subs.append(AffineSubspace(A, A @ planted, label=i))
        x = rng.standard_normal(n)
        s = project_intersection(subs, x)
        A_all = np.vstack([U.constraint_matrix for U in subs])
        b_all = np.concatenate([U.rhs for U in subs])
        feas, stat = kkt_residuals(A_all, b_all, x, s)
        assert feas < 1e-9
        assert stat < 1e-9

    def test_empty_intersection(self):
        U1 = AffineSubspace([[1.0, 0.0]], [0.0])
        U2 = AffineSubspace([[1.0, 0.0]], [1.0])
        with pytest.raises(EmptyIntersection):
            intersection_subspace([U1, U2])


class TestResidual:
    def test_zero_inside(self, rng):
        inst_planted = rng.standard_normal(4)
        A1 = rng.standard_normal((1, 4))
        A2 = rng.standard_normal((2, 4))
        subs = [AffineSubspace(A1, A1 @ inst_planted), AffineSubspace(A2, A2 @ inst_planted)]
        assert residual(subs, inst_planted) < 1e-10

    def test_max_over_blocks(self):
        U1 = AffineSubspace([[1.0, 0.0]], [0.0])  # x1 = 0
        U2 = AffineSubspace([[0.0, 1.0]], [0.0])  # x2 = 0
        assert np.isclose(residual([U1, U2], np.array([3.0, 4.0])), 4.0)

    def test_matches_per_block_oracle(self, rng):
        subs = []
        planted = rng.standard_normal(7)
        for i in range(3):
            A = rng.standard_normal((2, 7))
            subs.append(AffineSubspace(A, A @ planted, label=i))
        x = rng.standard_normal(7)
        expected = max(
            np.linalg.norm(x - kkt_project(U.constraint_matrix, U.rhs, x)) for U in subs
        )
        assert np.isclose(residual(subs, x), expected, rtol=1e-10)


class TestGeometricIdentities:
    def test_pythagoras(self, rng):
        for _ in range(25):
            rows = int(rng.integers(1, 5))
            n = int(rng.integers(rows + 1, 10))
            A = rng.standard_normal((rows, n))
            z = rng.standard_normal(n)
            b = A @ z
            U = AffineSubspace(A, b)
            x = rng.standard_normal(n)
            s = point_in_subspace(rng, A, b, scale=1.5)
            p = U.project(x)
            lhs = np.linalg.norm(x - p) ** 2
            rhs = np.linalg.norm(x - s) ** 2 - np.linalg.norm(s - p) ** 2
            assert np.isclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_affinity_of_project_and_reflect(self, rng):
        A = rng.standard_normal((3, 8))
        z = rng.standard_normal(8)
        U = AffineSubspace(A, A @ z)
        for _ in range(20):
            x = rng.standard_normal(8)
            y = rng.standard_normal(8)
            a = rng.uniform(-2.0, 2.0)
            mix = a * x + (1 - a) * y
            np.testing.assert_allclose(
                U.project(mix), a * U.project(x) + (1 - a) * U.project(y),
                rtol=1e-9, atol=1e-9,
            )
            np.testing.assert_allclose(
                U.reflect(mix), a * U.reflect(x) + (1 - a) * U.reflect(y),
                rtol=1e-9, atol=1e-9,
            )

    def test_intersection_invariance(self, rng):
        # P_{U∩V}(P_U x) = P_{U∩V}(R_U x) = P_{U∩V}(x)
        for _ in range(15):
            n = int(rng.integers(4, 9))
            planted = rng.standard_normal(n)
            A1 = rng.standard_normal((int(rng.integers(1, 3)), n))
            A2 = rng.standard_normal((int(rng.integers(1, 3)), n))
            U = AffineSubspace(A1, A1 @ planted)
            V = AffineSubspace(A2, A2 @ planted)
            x = rng.standard_normal(n)
            base = kkt_project_blocks([U, V], x)
            via_proj = kkt_project_blocks([U, V], U.project(x))
            via_refl = kkt_project_blocks([U, V], U.reflect(x))
            scale = 1.0 + np.linalg.norm(base)
            assert np.linalg.norm(via_proj - base) <= 1e-8 * scale
            assert np.linalg.norm(via_refl - base) <= 1e-8 * scale


class TestWideFactorization:
    @pytest.mark.parametrize("rows, n", [(1, 5), (4, 9), (7, 7), (33, 50), (60, 60), (101, 130)])
    def test_full_rank_blocks_take_qr(self, rng, svd_calls, rows, n):
        A = rng.standard_normal((rows, n))
        b = A @ rng.standard_normal(n)
        U = AffineSubspace(A, b)
        assert svd_calls == []
        assert U.rank == rows
        assert U.direction_dim == n - rows
        assert U.direction_basis().shape == (n, n - rows)
        min_norm, *_ = np.linalg.lstsq(A, b, rcond=None)
        np.testing.assert_allclose(U.anchor, min_norm, atol=1e-10 * (1 + np.linalg.norm(min_norm)))
        x = rng.standard_normal(n)
        np.testing.assert_allclose(U.project(x), kkt_project(A, b, x), atol=1e-9)

    def test_tall_blocks_take_svd(self, rng, svd_calls):
        A = rng.standard_normal((9, 4))
        U = AffineSubspace(A, A @ rng.standard_normal(4))
        assert svd_calls == [(9, 4)]
        assert U.rank == 4

    def test_uncertified_full_rank_block_falls_back(self, rng, svd_calls):
        # sigma_min = 1e-10 sigma_max: above the rank cutoff (~2e-15 sigma_max)
        # but below what the QR certificate accepts.
        n = 10
        A = block_with_singular_values(rng, [1.0] * 5 + [1e-10], n)
        b = A @ rng.standard_normal(n)
        U = AffineSubspace(A, b)
        assert svd_calls == [(6, n)]
        assert U.rank == 6
        assert np.linalg.norm(A @ U.anchor - b) <= 1e-12
        np.testing.assert_allclose(U.direction_basis().T @ U.anchor, 0.0, atol=1e-12)

    def test_rank_deficient_block_matches_numpy(self, rng, svd_calls):
        n = 40
        A = block_with_singular_values(rng, [1.0] * 7 + [1e-17], n)
        U = AffineSubspace(A, A @ rng.standard_normal(n))
        assert svd_calls == [(8, n)]
        assert U.rank == np.linalg.matrix_rank(A) == 7
        assert U.direction_dim == n - 7

    def test_exactly_singular_triangle_falls_back(self, svd_calls):
        A = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        U = AffineSubspace(A, [1.0, 2.0])
        assert svd_calls == [(2, 3)]
        assert U.rank == 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 12),
    extra=st.integers(0, 40),
    gap_exponent=st.sampled_from([None, 0, -4, -9, -11, -13, -17, -20, -30]),
    scale_exponent=st.integers(-6, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_wide_block_properties(rows, extra, gap_exponent, scale_exponent, seed):
    """Nearly dependent rows: the rank agrees with the SVD threshold and the
    factors give a feasible, orthogonal projection on either route."""
    rng = np.random.default_rng(seed)
    n = rows + extra
    A = rng.standard_normal((rows, n))
    if rows > 1 and gap_exponent is not None:
        # Last row = combination of the others + a perturbation of size 10^gap.
        A[-1] = rng.standard_normal(rows - 1) @ A[:-1] + 10.0 ** gap_exponent * rng.standard_normal(n)
    A *= 10.0 ** scale_exponent
    s = np.linalg.svd(A, compute_uv=False)
    cutoff = max(rows, n) * np.finfo(float).eps * s[0]
    # Singular values within rounding of the cutoff have no well-defined rank.
    assume(np.all((s > 10 * cutoff) | (s < cutoff / 10)))
    b = A @ rng.standard_normal(n)
    U = AffineSubspace(A, b)

    assert U.rank == np.linalg.matrix_rank(A) == np.count_nonzero(s > cutoff)
    basis = np.hstack([U.row_space_basis(), U.direction_basis()])
    np.testing.assert_allclose(basis.T @ basis, np.eye(n), atol=1e-12)
    np.testing.assert_allclose(U.direction_basis().T @ U.anchor, 0.0,
                               atol=1e-12 * (1 + np.linalg.norm(U.anchor)))
    x = 10.0 ** scale_exponent * rng.standard_normal(n)
    p = U.project(x)
    scale = 1 + np.linalg.norm(b) + s[0] * np.linalg.norm(x)
    assert np.linalg.norm(A @ p - b) <= 1e-12 * scale
    np.testing.assert_allclose(U.direction_basis().T @ (x - p), 0.0,
                               atol=1e-12 * (1 + np.linalg.norm(x)))
