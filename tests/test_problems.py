import hashlib
import json
import sys
import threading
import time

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


def instance_digests(instance):
    """SHA-256 of the stacked matrices, of the right-hand sides and of x*."""
    hashes = [hashlib.sha256() for _ in range(3)]
    for U in instance.subspaces:
        hashes[0].update(U.constraint_matrix.tobytes())
        hashes[1].update(U.rhs.tobytes())
    hashes[2].update(instance.known_solution.tobytes())
    return [h.hexdigest() for h in hashes]


# build_instance(2000, 100, 0.1, 7): its 100000 pairs are 6 whole chunks, so
# the matrix draw splits across up to 3 threads.  The right-hand sides and
# x* also pass through the BLAS's matrix-vector products.
GOLDEN_2000_100_7 = [
    "186ca43b79072e7a3216bc3c065840127d808b3851410f197bdb51b32ab17900",
    "ccab5ce696b6cacffcf36a78e9b690fb2be23222115cda5909866a9977394de1",
    "f0d2417e9943e6e6aca5683edcb31babb50d9a97f478fa0e8e2a23681a7d467d",
]


@pytest.fixture
def box_muller_ranges(monkeypatch):
    """(lo, hi, thread id) of every range a draw's threads fill."""
    calls = []
    fill = problems._box_muller

    def spy(state, pairs, lo, hi, z, coherence):
        calls.append((lo, hi, threading.get_ident()))
        return fill(state, pairs, lo, hi, z, coherence)

    monkeypatch.setattr(problems, "_box_muller", spy)
    return calls


class TestSplitDraw:
    """The draw's bytes and the stream after it do not depend on the thread count."""

    CHUNK = problems._BOX_MULLER_CHUNK  # pairs per chunk

    def test_golden_protocol_instance(self):
        assert instance_digests(build_instance(2000, 100, 0.1, 7)) == GOLDEN_2000_100_7

    @pytest.mark.parametrize("cpus, threads", [(1, 1), (2, 2), (3, 3), (8, 3)])
    def test_thread_count_changes_no_byte(self, monkeypatch, box_muller_ranges, cpus, threads):
        monkeypatch.setattr(problems, "_cpu_count", lambda: cpus)
        inst = build_instance(2000, 100, 0.1, 7)
        assert instance_digests(inst) == GOLDEN_2000_100_7
        # The matrix draw in `threads` ranges at chunk multiples, then w alone.
        matrix, w = box_muller_ranges[:-1], box_muller_ranges[-1]
        assert len(matrix) == threads
        assert [lo for lo, _, _ in matrix] == sorted(lo for lo, _, _ in matrix)
        assert all(lo % self.CHUNK == 0 for lo, _, _ in matrix)
        assert matrix[0][0] == 0 and matrix[-1][1] == 100000
        assert all(a[1] == b[0] for a, b in zip(matrix, matrix[1:]))
        assert w[:2] == (0, 1000) and w[2] == threading.get_ident()
        if threads == 1:
            assert matrix[0][2] == threading.get_ident()

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_stream_after_a_split_draw_is_unchanged(self, monkeypatch, cpus):
        count = 2 * 6 * self.CHUNK + 5
        want = ReferenceNormalStream(3)
        want_first = want.draw(count)
        want_state = want._rng.bit_generator.state
        want_next = want.draw(7)
        monkeypatch.setattr(problems, "_cpu_count", lambda: cpus)
        got = problems._NormalStream(3)
        assert got.draw(count).tobytes() == want_first.tobytes()
        assert got._rng.bit_generator.state == want_state
        assert got.draw(7).tobytes() == want_next.tobytes()

    def test_coherence_map_matches_the_whole_array_formula(self, monkeypatch):
        monkeypatch.setattr(problems, "_cpu_count", lambda: 2)
        for c in (0.0, 0.1, 0.37, 1.0):
            got = problems._NormalStream(4).draw(4 * self.CHUNK + 3, coherence=c)
            z = ReferenceNormalStream(4).draw(4 * self.CHUNK + 3)
            assert got.tobytes() == ((1.0 - c) * z + c).tobytes(), c

    def test_many_threads_under_fast_switching(self, monkeypatch, box_muller_ranges):
        """8 threads on 16 whole chunks, switching every microsecond."""
        monkeypatch.setattr(problems, "_cpu_count", lambda: 8)
        count = 2 * 16 * self.CHUNK + 3
        out = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: out.append(problems._NormalStream(9).draw(count)))
            start = time.monotonic()
            worker.start()
            worker.join(timeout=120)
            assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert time.monotonic() - start < 120
        assert len({ident for _, _, ident in box_muller_ranges}) > 1
        assert len(box_muller_ranges) == 8
        assert out[0].tobytes() == ReferenceNormalStream(9).draw(count).tobytes()


class TestArgumentChecks:
    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "3", None])
    def test_bad_seeds_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            build_instance(20, 4, 0.1, seed)
        with pytest.raises(ValueError, match="seed"):
            build_underdetermined_instance(10, [2, 3], 0.0, seed)
        with pytest.raises(ValueError, match="seed"):
            gaussian_matrix(3, 2, 0.0, seed)

    @pytest.mark.parametrize("m, n", [(100.7, 10), (100, 10.0), (True, 0), (100, np.float64(10))])
    def test_non_integral_dimensions_rejected(self, m, n):
        with pytest.raises(ValueError):
            build_instance(m, n, 0.1, 1)
        with pytest.raises(ValueError):
            gaussian_matrix(m, n, 0.1, 1)

    @pytest.mark.parametrize("n, rows", [(10, [2.5, 3]), (10, [2, True]), (10.5, [2, 3])])
    def test_non_integral_block_rows_rejected(self, n, rows):
        with pytest.raises(ValueError):
            build_underdetermined_instance(n, rows, 0.0, 1)

    def test_numpy_integers_give_the_same_bytes(self):
        inst = build_instance(np.int64(40), np.int32(8), 0.1, np.uint8(7))
        ref = build_instance(40, 8, 0.1, 7)
        assert matrix_digest(inst) == matrix_digest(ref)
        assert inst.descriptor == ref.descriptor
        assert type(inst.descriptor.seed) is int and type(inst.descriptor.m) is int
        under = build_underdetermined_instance(np.int64(9), [np.int16(2), 3], 0.1, np.int64(33))
        assert matrix_digest(under) == matrix_digest(build_underdetermined_instance(9, [2, 3], 0.1, 33))
        assert under.descriptor.block_rows == (2, 3)


class TestDescriptorChecks:
    @pytest.fixture
    def under(self):
        return build_underdetermined_instance(40, [3, 4, 5], 0.1, 2).descriptor.to_dict()

    @pytest.mark.parametrize("field, value", [("m", 999), ("block_count", 7), ("m", 11)])
    def test_block_rows_counts_must_match(self, under, field, value):
        under[field] = value
        desc = GenerationDescriptor.from_dict(under)
        with pytest.raises(ValueError, match=f"descriptor {field} is {value}"):
            instance_from_descriptor(desc)

    @pytest.mark.parametrize("value", [99, 16, 0])
    def test_protocol_block_count_must_match(self, value):
        payload = build_instance(300, 20, 0.1, 3).descriptor.to_dict()
        assert payload["block_count"] == 16
        payload["block_count"] = value
        desc = GenerationDescriptor.from_dict(payload)
        if value == 16:
            assert instance_from_descriptor(desc).block_count == 16
        else:
            with pytest.raises(ValueError, match=f"descriptor block_count is {value}"):
                instance_from_descriptor(desc)

    @pytest.mark.parametrize("payload, message", [
        ({"m": 10000, "n": 500, "coherence": 0.1, "seed": 1, "generator_id": GENERATOR_ID,
          "block_count": 99}, "descriptor block_count is 99, but the instance it regenerates has 21"),
        ({"m": 999, "n": 40, "coherence": 0.1, "seed": 2, "generator_id": GENERATOR_ID,
          "block_count": 3, "block_rows": [3, 4, 5]},
         "descriptor m is 999, but the instance it regenerates has 12"),
    ])
    def test_counts_are_checked_before_any_draw(self, monkeypatch, payload, message):
        calls = []

        def spy(name):
            def record(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} ran before the counts were checked")
            return record

        monkeypatch.setattr(problems._NormalStream, "draw", spy("draw"))
        monkeypatch.setattr(problems.AffineSubspace, "__init__", spy("factorization"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            instance_from_descriptor(GenerationDescriptor.from_dict(payload))
        assert calls == []

    @pytest.mark.parametrize("value", [True, False, "0.1", None, [0.1]])
    def test_coherence_must_be_a_number(self, under, value):
        under["coherence"] = value
        with pytest.raises(ValueError, match="coherence must be a number"):
            GenerationDescriptor.from_dict(under)

    @pytest.mark.parametrize("value", [True, "0.1", None])
    def test_library_coherence_must_be_a_number(self, value):
        for make in (lambda: build_instance(40, 8, value, 1),
                     lambda: build_underdetermined_instance(10, [2, 3], value, 1),
                     lambda: gaussian_matrix(3, 2, value, 1)):
            with pytest.raises(ValueError, match="coherence must be a number"):
                make()

    @pytest.mark.parametrize("value", [0, 1, 0.25, np.float64(0.5)])
    def test_numeric_coherence_reads_as_a_float(self, under, value):
        under["coherence"] = value
        desc = GenerationDescriptor.from_dict(under)
        assert type(desc.coherence) is float and desc.coherence == value
        assert instance_from_descriptor(desc).descriptor == desc
