import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circumproj import (
    AffineSubspace,
    build_instance,
    build_underdetermined_instance,
    DimensionMismatch,
    EmptyIntersection,
    estimate_regularity,
    InconsistentSystem,
    intersection_subspace,
    project_intersection,
    residual,
)
from circumproj import _lapack, affine
from oracles import kkt_project, kkt_project_blocks, kkt_residuals, point_in_subspace, svd_factors


def block_with_singular_values(rng, singular_values, n):
    """rows x n matrix U diag(s) V^T with random orthonormal U and V."""
    rows = len(singular_values)
    U, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    V, _ = np.linalg.qr(rng.standard_normal((n, rows)))
    return (U * np.asarray(singular_values)) @ V.T


class TestConstruction:
    @pytest.mark.parametrize("A, b", [(np.zeros((0, 3)), []), (np.zeros((2, 2, 3)), [0.0, 0.0])],
                             ids=["no-rows", "3-D"])
    def test_empty_or_3d_matrix_rejected(self, A, b):
        with pytest.raises(DimensionMismatch, match="must be 2-D and nonempty"):
            AffineSubspace(A, b)

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

    @pytest.mark.parametrize("arrange", [
        lambda A, b: (A, b),
        lambda A, b: (np.vstack([A, A])[2:], b[:, None]),
    ], ids=["arrays", "views"])
    def test_caller_arrays_stay_the_callers(self, arrange):
        A, b = arrange(np.eye(3)[:2].copy(), np.array([1.0, 2.0]))
        U = AffineSubspace(A, b)
        assert A.flags.writeable and b.flags.writeable
        A[...] = 5.0
        b[...] = 5.0
        np.testing.assert_array_equal(U.constraint_matrix, np.eye(3)[:2])
        np.testing.assert_array_equal(U.rhs, [1.0, 2.0])

    def test_stored_bases_start_on_a_cache_line(self):
        # CRM's products read each block's own basis, whose speed would
        # otherwise depend on where the heap puts it.
        for U in build_underdetermined_instance(400, [20] * 12, 0.0, 12).subspaces:
            assert U._basis.flags.c_contiguous
            assert U._basis.__array_interface__["data"][0] % 64 == 0

    def test_read_only_views_of_writable_memory_are_copied(self):
        # The caller can still write through the owner of such a view.
        A, b = np.eye(3)[:2].copy(), np.array([1.0, 2.0])
        A_view, b_view = A[:], b[:]
        for view in (A_view, b_view):
            view.setflags(write=False)
        U = AffineSubspace(A_view, b_view)
        A[0, 0] = 5.0
        b[0] = 5.0
        np.testing.assert_array_equal(U.constraint_matrix, np.eye(3)[:2])
        np.testing.assert_array_equal(U.rhs, [1.0, 2.0])
        assert A.flags.writeable and b.flags.writeable

    @pytest.mark.parametrize("frozen", ["A", "b", "both"])
    def test_read_only_inputs_are_kept_and_writable_ones_copied(self, frozen):
        A, b = np.eye(3)[:2].copy(), np.array([1.0, 2.0])
        for name, arr in (("A", A), ("b", b)):
            if frozen in (name, "both"):
                arr.setflags(write=False)
        U = AffineSubspace(A, b)
        for name, arr, held in (("A", A, U.constraint_matrix), ("b", b, U.rhs)):
            kept = frozen in (name, "both")
            assert np.shares_memory(held, arr) == kept, name
            assert arr.flags.writeable != kept, name

    def test_rank_matches_numpy(self, rng):
        A = rng.standard_normal((4, 9))
        A[3] = A[0] - A[1]
        z = rng.standard_normal(9)
        U = AffineSubspace(A, A @ z)
        assert U.rank == np.linalg.matrix_rank(A)

    @pytest.mark.parametrize("shape", [(1, 2), (3, 7), (9, 4), (30, 5)])
    @pytest.mark.parametrize("where", ["A", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_rejected(self, rng, shape, where, bad):
        # Wide, tall, and tall enough for the prefix route; the bad entry
        # sits in the last row, outside any prefix.
        A = rng.standard_normal(shape)
        b = A @ rng.standard_normal(shape[1])
        if where == "A":
            A[-1, 0] = bad
        else:
            b[-1] = bad
        with pytest.raises(InconsistentSystem, match="not finite"):
            AffineSubspace(A, b)


    @pytest.mark.parametrize("b, consistent", [([1e200, -1e200], False), ([1e200, 1e200], True)])
    def test_huge_rhs_is_judged_without_overflow(self, b, consistent):
        # ||b|| overflows when formed directly, which made every misfit pass.
        A = [[1.0, 0.0], [1.0, 0.0]]
        if not consistent:
            with pytest.raises(InconsistentSystem, match="outside range"):
                AffineSubspace(A, b)
            return
        U = AffineSubspace(A, b)
        assert U.rank == 1
        np.testing.assert_allclose(U.anchor, [1e200, 0.0], rtol=1e-15)


class TestGeqrf:
    """_lapack._geqrf is numpy's raw QR, bitwise, through LAPACK or without it."""

    @staticmethod
    def inputs():
        rng = np.random.default_rng(17)
        X = {shape: rng.standard_normal(shape)
             for shape in [(1, 6), (6, 1), (9, 9), (4, 11), (11, 4), (130, 129)]}
        X["strided"] = rng.standard_normal((14, 10))[::2, 1::3]
        X["fortran"] = np.asfortranarray(rng.standard_normal((8, 5)))
        X["nan"] = rng.standard_normal((7, 5))
        X["nan"][2, 3] = np.nan
        return X

    @pytest.mark.parametrize("bound", [True, False])
    def test_bitwise_equal_to_numpy_raw_qr(self, monkeypatch, bound):
        if not bound:
            monkeypatch.setattr(_lapack, "_dgeqrf", lambda: None)
        elif _lapack._dgeqrf() is None:
            pytest.skip("numpy links no ILP64 dgeqrf")
        for name, X in self.inputs().items():
            h, tau = _lapack._geqrf(X)
            want_h, want_tau = np.linalg.qr(X, mode="raw")
            assert h.shape == want_h.shape and tau.shape == want_tau.shape, name
            assert h.tobytes() == np.ascontiguousarray(want_h).tobytes(), name
            assert tau.tobytes() == want_tau.tobytes(), name


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


    def test_huge_rhs_contradiction_is_empty(self):
        blocks = [AffineSubspace([[1.0, 0.0]], [1e200]), AffineSubspace([[1.0, 0.0]], [-1e200])]
        with pytest.raises(EmptyIntersection):
            intersection_subspace(blocks)


class TestStackedView:
    """The intersection of adjacent blocks views their parent's rows; any
    other block list is copied.  Either way it has np.vstack's bytes."""

    @staticmethod
    def assert_vstack_prefix(stacked, blocks):
        # Both routes describe the intersection by leading rows of the stack.
        rows = stacked.constraint_matrix.shape[0]
        want_A = np.vstack([U.constraint_matrix for U in blocks])[:rows]
        want_b = np.concatenate([U.rhs for U in blocks])[:rows]
        assert stacked.constraint_matrix.tobytes() == want_A.tobytes()
        assert stacked.rhs.tobytes() == want_b.tobytes()

    @pytest.mark.parametrize("build, prefix", [
        (lambda: build_instance(10000, 500, 0.1, 1), True),
        (lambda: build_instance(12500, 100, 0.1, 1), True),
        (lambda: build_instance(1000, 150, 0.1, 0), True),
        (lambda: build_instance(1000, 150, 0.1, 1), True),
        (lambda: build_underdetermined_instance(400, [20] * 12, 0.0, 12), False),
    ], ids=["protocol-tall", "many-blocks", "1000x150-s0", "1000x150-s1", "slow-angles"])
    def test_partitioned_blocks_are_viewed(self, build, prefix):
        inst = build()
        blocks = inst.subspaces
        stacked = intersection_subspace(blocks)
        n = inst.ambient_dim
        total = sum(U.constraint_matrix.shape[0] for U in blocks)
        assert stacked.constraint_matrix.shape == (2 * n if prefix else total, n)
        assert np.shares_memory(stacked.constraint_matrix, blocks[0].constraint_matrix.base)
        assert np.shares_memory(stacked.rhs, blocks[0].rhs.base)
        assert not stacked.constraint_matrix.flags.writeable
        self.assert_vstack_prefix(stacked, blocks)

    @pytest.mark.parametrize("arrange", [
        lambda blocks: blocks[::-1],
        lambda blocks: blocks[:1] + blocks,
        lambda blocks: [AffineSubspace(U.constraint_matrix.copy(), U.rhs.copy()) for U in blocks],
    ], ids=["reversed", "duplicated", "copied"])
    def test_other_block_lists_are_copied(self, arrange):
        inst = build_instance(1000, 150, 0.1, 1)
        blocks = arrange(list(inst.subspaces))
        stacked = intersection_subspace(blocks)
        parent = inst.subspaces[0].constraint_matrix.base
        assert not np.shares_memory(stacked.constraint_matrix, parent)
        assert not np.shares_memory(stacked.rhs, inst.subspaces[0].rhs.base)
        self.assert_vstack_prefix(stacked, blocks)


class TestZeroWidthDistances:
    def test_point_blocks_take_the_formula_bitwise(self, rng):
        # Blocks of full column rank store a zero-width null basis; their
        # distance is ||x - (0 + z)||, whose zero's sign no norm can see.
        n = 6
        anchors = [rng.standard_normal(n), rng.standard_normal(n)]
        anchors[0][2] = -0.0
        anchors[1][4] = 0.0
        blocks = [AffineSubspace._from_factors(np.eye(n), z, (n, z, np.zeros((n, 0))), i)
                  for i, z in enumerate(anchors)]
        X = rng.standard_normal((5, n))
        X[0, 2] = -0.0
        X[1, 4] = -0.0
        kernel = affine._BlockKernel(blocks)
        for x in (X, X[0]):
            want = []
            for z in anchors:
                d = x - (np.zeros(n) + z)
                want.append(np.sqrt(np.einsum("...i,...i->...", d, d)))
            assert kernel.distances(x).tobytes() == np.stack(want, axis=-1).tobytes()


class TestDistancesMemory:
    def test_null_route_holds_one_chunk_temporary_at_a_time(self):
        # distances forms a null-route group's differences in chunks of rows,
        # each in one (g, rows, n) temporary that is freed before the next is
        # made: the traced peak has room for the output, every group's
        # coefficients and one chunk, and not for two chunks.
        kernel = build_instance(2000, 100, 0.1, 7)._kernel  # 21 blocks of 95 x 100
        X = np.random.default_rng(0).standard_normal((400, 100))
        k, n = X.shape
        coeffs = chunks = 0
        for use_null, _, basis_t, _ in kernel.groups:
            g, w, _ = basis_t.shape
            assert use_null and k > max(1, k // g, w)
            coeffs += 8 * k * g * w
            chunks = max(chunks, 8 * g * max(1, k // g, w) * n)
        kernel.distances(X)
        tracemalloc.start()
        try:
            kernel.distances(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * k * kernel.block_count + coeffs + 1.25 * chunks


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

    def test_tall_blocks_take_tall_qr(self, rng, svd_calls):
        A = rng.standard_normal((9, 4))
        U = AffineSubspace(A, A @ rng.standard_normal(4))
        assert svd_calls == []
        assert U.rank == 4
        assert U.direction_basis().shape == (4, 0)

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


class TestTallFactorization:
    @pytest.mark.parametrize("rows, n", [(2, 1), (9, 4), (51, 50), (300, 40)])
    def test_full_rank_blocks_take_qr(self, rng, svd_calls, rows, n):
        A = rng.standard_normal((rows, n))
        b = A @ rng.standard_normal(n)
        U = AffineSubspace(A, b)
        assert svd_calls == []
        assert U.rank == n
        assert U.direction_basis().shape == (n, 0)
        np.testing.assert_array_equal(U.row_space_basis(), np.eye(n))
        solution, *_ = np.linalg.lstsq(A, b, rcond=None)
        np.testing.assert_allclose(U.anchor, solution, atol=1e-10 * (1 + np.linalg.norm(solution)))
        P = U.project(rng.standard_normal((3, n)))
        np.testing.assert_array_equal(P, np.tile(U.anchor, (3, 1)))

    @pytest.mark.parametrize("rows, n", [(2, 1), (51, 50), (126, 100), (300, 40)])
    def test_tall_solve_is_numpys_r_only_qr_bitwise(self, rng, rows, n):
        # geqrf overwrites one copy of [A | b]^T; R must reach the certificate
        # in C order, as numpy's R-only QR gives it, or its bytes change.
        A = rng.standard_normal((rows, n))
        b = rng.standard_normal(rows)
        Rb = np.linalg.qr(np.column_stack([A, b]), mode="r")
        want = _lapack._certified_inverse(Rb[:n, :n]) @ Rb[:n, n]
        assert _lapack._certified_tall_solve(A, b).tobytes() == want.tobytes()

    def test_dependent_columns_fall_back(self, rng, svd_calls):
        A = rng.standard_normal((30, 8))
        A[:, 7] = A[:, 0] - 2.0 * A[:, 1]
        U = AffineSubspace(A, A @ rng.standard_normal(8))
        assert svd_calls == [(30, 8)]
        assert U.rank == np.linalg.matrix_rank(A) == 7
        assert U.direction_dim == 1

    def test_uncertified_full_rank_block_falls_back(self, rng, svd_calls):
        # sigma_min = 1e-10 sigma_max: full rank by the SVD cutoff, but below
        # what the QR certificate accepts.
        A = block_with_singular_values(rng, [1.0] * 5 + [1e-10], 12).T
        b = A @ rng.standard_normal(6)
        U = AffineSubspace(A, b)
        assert svd_calls == [(12, 6)]
        assert U.rank == 6
        assert np.linalg.norm(A @ U.anchor - b) <= 1e-12

    def test_inconsistent_rhs_raises(self, rng, svd_calls):
        A = rng.standard_normal((10, 3))
        with pytest.raises(InconsistentSystem):
            AffineSubspace(A, rng.standard_normal(10))
        assert svd_calls == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_stacked_instance_anchor_is_planted_point(self, svd_calls, seed):
        inst = build_instance(1000, 50, 0.1, seed)
        S = intersection_subspace(inst.subspaces)
        assert svd_calls == []
        assert S.rank == 50
        assert np.linalg.norm(S.anchor - inst.known_solution) <= 1e-12


class TestTallPrefix:
    """Stacks with rows >= 4n try the first 2n rows before the whole stack."""

    def test_consistent_prefix_with_inconsistent_tail_is_empty(self, rng, svd_calls, tall_solves):
        # Two consistent blocks, each pinning a different point.
        n = 6
        head = rng.standard_normal((2 * n, n))
        tail = rng.standard_normal((3 * n, n))
        blocks = [AffineSubspace(head, head @ rng.standard_normal(n)),
                  AffineSubspace(tail, tail @ rng.standard_normal(n))]
        with pytest.raises(EmptyIntersection):
            intersection_subspace(blocks)
        A = np.vstack([head, tail])
        b = np.concatenate([U.rhs for U in blocks])
        with pytest.raises(InconsistentSystem):
            AffineSubspace(A, b)
        # Each stack certifies its prefix (the first block), fails the misfit
        # on the tail and then factors the whole stack.
        assert tall_solves == [2 * n, 3 * n, 2 * n, 5 * n, 2 * n, 5 * n]
        assert svd_calls == []

    def test_rank_deficient_prefix_falls_back_to_the_whole_stack(self, rng, svd_calls, tall_solves):
        n = 8
        A = rng.standard_normal((6 * n, n))
        A[:2 * n] = A[0]
        b = A @ rng.standard_normal(n)
        U = AffineSubspace(A, b)
        assert tall_solves == [2 * n, 6 * n]
        assert svd_calls == []
        assert U.rank == n
        expected = _lapack._certified_tall_solve(A, b)
        assert np.linalg.norm(U.anchor - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("rows, solved", [(8, [8]), (27, [27]), (28, [14]), (70, [14])])
    def test_prefix_tried_from_four_n_rows(self, rng, tall_solves, rows, solved):
        n = 7
        A = rng.standard_normal((rows, n))
        b = A @ rng.standard_normal(n)
        U = AffineSubspace(A, b)
        assert tall_solves == solved
        assert U.rank == n
        expected = _lapack._certified_tall_solve(A, b)
        assert np.linalg.norm(U.anchor - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_regularity_estimate_factors_one_short_prefix(self, monkeypatch, raw_qrs):
        inst = build_instance(4000, 100, 0.1, 1)
        raw_qrs.clear()
        estimate_regularity(inst, 50, 0)
        # One QR, of [A | b] for the prefix rows: h holds its transpose.
        assert len(raw_qrs) == 1
        (cols, rows), _ = raw_qrs[0]
        assert rows <= 2 * 100 and cols == 101

    def test_prefix_intersection_copies_no_stack(self):
        inst = build_instance(4000, 100, 0.1, 1)
        stack_bytes = sum(U.constraint_matrix.nbytes for U in inst.subspaces)
        tracemalloc.start()
        try:
            stacked = intersection_subspace(inst.subspaces)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stack_bytes / 2
        assert stacked.constraint_matrix.shape == (200, 100)
        assert stacked.rank == 100
        xs = inst.known_solution
        assert np.linalg.norm(stacked.anchor - xs) <= 1e-10 * np.linalg.norm(xs)

    def test_failed_prefix_goes_straight_to_the_whole_stack(self, rng, svd_calls, tall_solves):
        n = 5
        A = rng.standard_normal((6 * n, n))
        A[:2 * n] = A[0]
        blocks = [AffineSubspace(A[:3 * n], A[:3 * n] @ np.ones(n)),
                  AffineSubspace(A[3 * n:], A[3 * n:] @ np.ones(n))]
        del tall_solves[:], svd_calls[:]
        stacked = intersection_subspace(blocks)
        assert tall_solves == [2 * n, 6 * n]
        assert svd_calls == []
        assert stacked.constraint_matrix.shape == (6 * n, n)
        np.testing.assert_allclose(stacked.anchor, np.ones(n), rtol=1e-12)



class TestPrefixRouteCallers:
    """One prefix route: a block keeps all its rows, an intersection only the prefix."""

    def test_single_block_keeps_its_whole_matrix(self, rng, tall_solves):
        n = 6
        A = rng.standard_normal((10 * n, n))
        b = A @ rng.standard_normal(n)
        U = AffineSubspace(A, b)
        assert tall_solves == [2 * n]
        assert U.constraint_matrix.shape == (10 * n, n)
        np.testing.assert_array_equal(U.constraint_matrix, A)
        np.testing.assert_array_equal(U.rhs, b)

    def test_intersection_keeps_only_the_prefix_rows(self, rng, tall_solves):
        n = 6
        x = rng.standard_normal(n)
        heads = [rng.standard_normal((5 * n, n)) for _ in range(2)]
        blocks = [AffineSubspace(A, A @ x) for A in heads]
        del tall_solves[:]
        stacked = intersection_subspace(blocks)
        assert tall_solves == [2 * n]
        assert stacked.constraint_matrix.shape == (2 * n, n)
        np.testing.assert_array_equal(stacked.constraint_matrix, heads[0][:2 * n])
        np.testing.assert_array_equal(stacked.rhs, blocks[0].rhs[:2 * n])
        assert np.linalg.norm(stacked.anchor - x) <= 1e-10 * np.linalg.norm(x)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 12),
    extra=st.integers(1, 40),
    gap_exponent=st.sampled_from([None, 0, -4, -9, -11, -13, -17, -20, -30]),
    scale_exponent=st.integers(-6, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_tall_block_properties(n, extra, gap_exponent, scale_exponent, seed):
    """Nearly dependent columns: the rank agrees with the SVD threshold and the
    factors give a feasible, orthogonal projection on either route."""
    rng = np.random.default_rng(seed)
    rows = n + extra
    A = rng.standard_normal((rows, n))
    if n > 1 and gap_exponent is not None:
        # Last column = combination of the others + a perturbation of size 10^gap.
        A[:, -1] = (A[:, :-1] @ rng.standard_normal(n - 1)
                    + 10.0 ** gap_exponent * rng.standard_normal(rows))
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


def assert_matches_svd_oracle(U, A, b, rng):
    """Anchor, projection and both bases of U against one SVD of A, to 1e-12."""
    rank, z0, row_basis, null_basis = svd_factors(A, b)
    assert U.rank == rank
    np.testing.assert_allclose(U.anchor, z0, rtol=0, atol=1e-12 * (1 + np.linalg.norm(z0)))
    x = rng.standard_normal(A.shape[1])
    expected = x - row_basis @ (row_basis.T @ x) + z0
    np.testing.assert_allclose(U.project(x), expected, rtol=0,
                               atol=1e-12 * (1 + np.linalg.norm(x) + np.linalg.norm(z0)))
    # Bases are unique only up to rotation; their projectors are unique.
    for got, want in ((U.row_space_basis(), row_basis), (U.direction_basis(), null_basis)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got @ got.T, want @ want.T, rtol=0, atol=1e-12)


def assert_bases_split_the_space(U):
    """The stored basis and the on-demand one: orthonormal, orthogonal, read-only."""
    n = U.ambient_dim
    stored = U._basis
    other = U.row_space_basis() if U._use_null else U.direction_basis()
    assert stored.shape[1] == min(U.rank, n - U.rank)
    assert stored.shape[1] + other.shape[1] == n
    for B in (stored, other):
        assert not B.flags.writeable
        np.testing.assert_allclose(B.T @ B, np.eye(B.shape[1]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(stored.T @ other, 0.0, rtol=0, atol=1e-12)


class TestHouseholderFactor:
    """Wide blocks keep only the basis their projection uses, from raw QR reflectors."""

    @pytest.mark.parametrize("A", [
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
        [[1.0, 0.0, 0.0, 0.0]],
        [[3.0, 4.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0]],
        [[3.0, 4.0, 0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0, 0.0, 0.0]],
        [[1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0]],
        [[2.0, 1.0], [0.0, 1.0]],
    ])
    def test_identity_reflectors(self, rng, svd_calls, A):
        # Columns of A^T that are already reduced give tau = 0 reflectors.
        A = np.array(A)
        _, tau = np.linalg.qr(A.T, mode="raw")
        assert np.any(tau == 0.0)
        b = rng.standard_normal(A.shape[0])
        U = AffineSubspace(A, b)
        assert svd_calls == []
        assert_matches_svd_oracle(U, A, b, rng)
        assert_bases_split_the_space(U)

    @pytest.mark.parametrize("k, n, dead", [(5, 9, [0, 3]), (130, 140, [0, 127, 128, 129])])
    def test_apply_q_matches_reflector_loop(self, rng, k, n, dead):
        # A tau = 0 reflector is the identity whatever h holds below its diagonal.
        h, tau = np.linalg.qr(rng.standard_normal((n, k)), mode="raw")
        tau[dead] = 0.0
        C = rng.standard_normal((n, 7))
        want = C.copy()
        for j in reversed(range(k)):
            v = np.concatenate([np.zeros(j), [1.0], h[j, j + 1:]])
            want -= tau[j] * np.outer(v, v @ want)
        got = C.copy()
        _lapack._apply_q(h, tau, got)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # Leading identity columns: panels skip the ones they cannot reach.
        E = np.zeros((n, k + 1))
        E[:k, :k] = np.eye(k)
        E[:, k] = C[:, 0]
        _lapack._apply_q(h, tau, E, leading=k)
        want_e = np.hstack([np.eye(n, k), C[:, :1]])
        for j in reversed(range(k)):
            v = np.concatenate([np.zeros(j), [1.0], h[j, j + 1:]])
            want_e -= tau[j] * np.outer(v, v @ want_e)
        np.testing.assert_allclose(E, want_e, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 127, 128, 129, 257])
    @pytest.mark.parametrize("use_null", [True, False])
    def test_reflector_counts_on_both_routes(self, rng, svd_calls, k, use_null):
        # Panels of 128 reflectors: one short panel, one full, one full plus
        # one reflector, and three panels.
        n = k + max(1, k // 2) if use_null else 2 * k + 3
        A = rng.standard_normal((k, n))
        b = A @ rng.standard_normal(n)
        U = AffineSubspace(A, b)
        assert svd_calls == []
        assert U._use_null is use_null
        assert_matches_svd_oracle(U, A, b, rng)
        assert_bases_split_the_space(U)

    @pytest.mark.parametrize("k", [128, 129])
    def test_square_blocks(self, rng, svd_calls, k):
        # The last reflector of a square A^T has tau = 0 and nothing below it.
        A = rng.standard_normal((k, k)) + 4.0 * np.sqrt(k) * np.eye(k)
        b = rng.standard_normal(k)
        U = AffineSubspace(A, b)
        assert svd_calls == []
        assert U._basis.shape == (k, 0)
        assert_matches_svd_oracle(U, A, b, rng)
        assert_bases_split_the_space(U)

    @pytest.mark.parametrize("rank, n", [(7, 40), (30, 40), (0, 6)])
    def test_svd_fallback_keeps_one_basis(self, rng, svd_calls, rank, n):
        if rank:
            A = block_with_singular_values(rng, [1.0] * rank + [1e-17], n)
        else:
            A = np.zeros((2, n))
        b = A @ rng.standard_normal(n)
        U = AffineSubspace(A, b)
        assert svd_calls == [A.shape]
        assert U._use_null is (n - rank <= rank)
        assert_matches_svd_oracle(U, A, b, rng)
        assert_bases_split_the_space(U)

    def test_complement_is_computed_on_each_call(self, rng):
        A = rng.standard_normal((3, 10))
        U = AffineSubspace(A, A @ rng.standard_normal(10))
        assert not U._use_null
        assert U.row_space_basis() is U._basis
        first, second = U.direction_basis(), U.direction_basis()
        assert first is not second
        np.testing.assert_array_equal(first, second)
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_tall_blocks_hold_no_basis(self, rng):
        A = rng.standard_normal((30, 8))
        U = AffineSubspace(A, A @ rng.standard_normal(8))
        assert U._use_null and U._basis.shape == (8, 0)
        np.testing.assert_array_equal(U.row_space_basis(), np.eye(8))
        stack = intersection_subspace(build_instance(400, 20, 0.1, 2).subspaces)
        assert stack.rank == 20 and stack._basis.nbytes == 0


class TestFactorGuards:
    @pytest.mark.parametrize("build", [
        lambda: build_instance(2000, 200, 0.1, 1),
        lambda: build_underdetermined_instance(400, [20] * 12, 0.0, 1),
    ])
    def test_instances_factor_by_raw_qr_and_hold_one_basis(self, raw_qrs, build):
        inst = build()
        # One raw QR of A^T per block, whose h holds A: the wide route.
        assert sorted(shape for shape, _ in raw_qrs) == sorted(
            U.constraint_matrix.shape for U in inst.subspaces)
        n = inst.ambient_dim
        for U in inst.subspaces:
            assert U.constraint_matrix.shape[0] <= n
            assert U._basis.nbytes == 8 * n * min(U.rank, n - U.rank)
