import hashlib
import json

import numpy as np
import pytest

from circumproj import (
    GENERATOR_ID,
    GenerationDescriptor,
    InvalidCoherence,
    Method,
    SolverConfig,
    block_count,
    build_instance,
    build_underdetermined_instance,
    gaussian_matrix,
    instance_from_descriptor,
    intersection_subspace,
    residual,
    solve,
)
from circumproj import problems
from oracles import ReferenceNormalStream, kkt_project_blocks, reference_coherent_matrix


def matrix_digest(instance):
    h = hashlib.sha256()
    for U in instance.subspaces:
        h.update(U.constraint_matrix.tobytes())
        h.update(U.rhs.tobytes())
    return h.hexdigest()


class TestGaussianMatrix:
    def test_full_coherence_is_all_ones(self):
        np.testing.assert_array_equal(gaussian_matrix(4, 3, 1.0, 0), np.ones((4, 3)))

    def test_standard_normal_statistics(self):
        Z = gaussian_matrix(1000, 1000, 0.0, 123)
        assert abs(Z.mean()) <= 4.0 / np.sqrt(Z.size)
        assert abs(Z.std() - 1.0) <= 0.02

    def test_shifted_mean(self):
        c = 0.2
        Z = gaussian_matrix(1000, 1000, c, 456)
        assert abs(Z.mean() - c) <= 4.0 * (1.0 - c) / np.sqrt(Z.size)

    @pytest.mark.parametrize("c", [-0.1, 1.5])
    def test_invalid_coherence(self, c):
        with pytest.raises(InvalidCoherence):
            gaussian_matrix(3, 3, c, 0)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            gaussian_matrix(20, 5, 0.1, 9), gaussian_matrix(20, 5, 0.1, 9)
        )
        assert not np.array_equal(
            gaussian_matrix(20, 5, 0.1, 9), gaussian_matrix(20, 5, 0.1, 10)
        )


class TestChunkedGenerator:
    """The chunked Box-Muller draw gives the bytes of the whole-array formula."""

    CHUNK = 2 * problems._BOX_MULLER_CHUNK  # variates per chunk

    def test_counts_around_chunk_edges(self):
        c = self.CHUNK
        for count in (1, 2, 3, c - 1, c, c + 1, c + 3, 2 * c + 1, 32767, 32771, 99999):
            got = problems._NormalStream(5).draw(count)
            want = ReferenceNormalStream(5).draw(count)
            assert got.shape == (count,)
            assert got.tobytes() == want.tobytes(), count

    def test_successive_draws_keep_the_stream_position(self):
        ours, ref = problems._NormalStream(11), ReferenceNormalStream(11)
        for count in (3, self.CHUNK + 1, 1, 2 * self.CHUNK - 1, 4):
            assert ours.draw(count).tobytes() == ref.draw(count).tobytes()

    @pytest.mark.parametrize("m, n, c, seed", [(10000, 500, 0.1, 1), (12500, 100, 0.1, 1),
                                               (7, 9, 0.25, 3), (5, 5, 1.0, 0)])
    def test_protocol_matrices_are_bitwise_unchanged(self, m, n, c, seed):
        got = gaussian_matrix(m, n, c, seed)
        assert got.tobytes() == reference_coherent_matrix(m, n, c, seed).tobytes()


class TestBlockPartition:
    @pytest.mark.parametrize("m,n,expected", [
        (5000, 500, 11),
        (12500, 100, 126),
        (7500, 250, 31),
        (7500, 500, 16),
        (10000, 500, 21),
    ])
    def test_protocol_block_counts(self, m, n, expected):
        assert block_count(m, n) == expected

    def test_partition_covers_rows_in_order(self):
        inst = build_instance(23, 4, 0.0, 2)
        sizes = [U.constraint_matrix.shape[0] for U in inst.subspaces]
        assert sum(sizes) == 23
        assert len(sizes) == block_count(23, 4) == 6
        assert set(sizes) <= {23 // 6, 23 // 6 + 1}
        assert sizes == sorted(sizes, reverse=True)

    def test_rows_reassemble_bitwise(self):
        inst = build_instance(37, 6, 0.1, 5)
        A = np.vstack([U.constraint_matrix for U in inst.subspaces])
        b = np.concatenate([U.rhs for U in inst.subspaces])
        np.testing.assert_array_equal(A, gaussian_matrix(37, 6, 0.1, 5))
        np.testing.assert_array_equal(b, A @ inst.known_solution)


class TestBuildInstance:
    def test_requires_m_greater_than_n(self):
        with pytest.raises(ValueError):
            build_instance(5, 5, 0.0, 1)

    def test_planted_solution_feasible(self):
        inst = build_instance(64, 9, 0.2, 17)
        xs = inst.known_solution
        b_norm = np.linalg.norm(np.concatenate([U.rhs for U in inst.subspaces]))
        assert float(residual(inst.subspaces, xs)) <= 1e-8 * (1.0 + b_norm)

    def test_singleton_intersection(self):
        inst = build_instance(48, 6, 0.1, 3)
        stacked = intersection_subspace(inst.subspaces)
        assert stacked.rank == 6
        np.testing.assert_allclose(
            stacked.project(np.zeros(6)), inst.known_solution, atol=1e-8
        )

    def test_descriptor_round_trip_bit_exact(self):
        inst1 = build_instance(41, 7, 0.1, 99)
        inst2 = instance_from_descriptor(inst1.descriptor)
        assert matrix_digest(inst1) == matrix_digest(inst2)
        np.testing.assert_array_equal(inst1.known_solution, inst2.known_solution)

    def test_descriptor_json_round_trip(self):
        desc = build_instance(30, 5, 0.2, 8).descriptor
        payload = json.loads(json.dumps(desc.to_dict()))
        assert set(payload) == {"m", "n", "coherence", "seed", "generator_id", "block_count"}
        back = GenerationDescriptor.from_dict(payload)
        assert back == desc

    def test_unknown_generator_rejected(self):
        desc = GenerationDescriptor(m=30, n=5, coherence=0.0, seed=1,
                                    generator_id="other-rng", block_count=7)
        with pytest.raises(ValueError):
            instance_from_descriptor(desc)

    def test_fresh_w_per_seed(self):
        a = build_instance(30, 5, 0.0, 1).known_solution
        b = build_instance(30, 5, 0.0, 2).known_solution
        assert not np.allclose(a, b)


class TestUnderdetermined:
    def test_planted_point_feasible_and_slack(self):
        inst = build_underdetermined_instance(10, [3, 3], 0.0, 4)
        stacked = intersection_subspace(inst.subspaces)
        assert stacked.direction_dim >= 4
        assert inst.known_solution is None

    def test_two_lines_singleton(self, rng):
        # total rows equal to the dimension: generically a single point
        inst = build_underdetermined_instance(2, [1, 1], 0.0, 6)
        x0 = rng.standard_normal(2)
        res = solve(
            inst,
            SolverConfig(method=Method.PCRM, tolerance=1e-10,
                         stop_rule="feasibility"),
            x0=x0,
        )
        np.testing.assert_allclose(
            res.point, kkt_project_blocks(inst.subspaces, x0), atol=1e-6
        )

    def test_pcrm_limit_matches_oracle(self, rng):
        inst = build_underdetermined_instance(5, [2, 2], 0.0, 12)
        x0 = rng.standard_normal(5)
        res = solve(
            inst,
            SolverConfig(method=Method.PCRM, tolerance=1e-9,
                         stop_rule="feasibility"),
            x0=x0,
        )
        s_star = kkt_project_blocks(inst.subspaces, x0)
        assert np.linalg.norm(res.point - s_star) <= 1e-5 * (1.0 + np.linalg.norm(s_star))

    def test_row_budget_enforced(self):
        with pytest.raises(ValueError):
            build_underdetermined_instance(4, [3, 3], 0.0, 1)

    def test_descriptor_round_trip(self):
        inst1 = build_underdetermined_instance(9, [2, 3], 0.1, 33)
        desc = inst1.descriptor
        assert desc.block_rows == (2, 3)
        payload = desc.to_dict()
        assert payload["block_rows"] == [2, 3]
        inst2 = instance_from_descriptor(GenerationDescriptor.from_dict(payload))
        assert matrix_digest(inst1) == matrix_digest(inst2)


def test_generator_id_pinned():
    assert build_instance(12, 3, 0.0, 0).descriptor.generator_id == GENERATOR_ID
