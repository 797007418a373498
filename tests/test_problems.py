import hashlib
import json
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from circumproj import (
    GENERATOR_ID,
    AffineSubspace,
    DimensionMismatch,
    GenerationDescriptor,
    InconsistentSystem,
    InvalidCoherence,
    Method,
    ProblemInstance,
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
from circumproj import _lapack, problems
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

    def spy(first, second, lo, hi, *rest):
        calls.append((lo, hi, threading.get_ident()))
        return fill(first, second, lo, hi, *rest)

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

    # One variate, one pair, one chunk less a half pair, one chunk, one chunk
    # and a half pair, and six chunks and a partial pair.
    @pytest.mark.parametrize("count", [1, 2, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1,
                                       2 * 6 * CHUNK + 5])
    @pytest.mark.parametrize("coherence", [None, 0.1])
    def test_draw_at_chunk_edges_keeps_bytes_and_stream(self, count, coherence):
        want = ReferenceNormalStream(3)
        want_first = want.draw(count)
        if coherence is not None:
            want_first = (1.0 - coherence) * want_first + coherence
        want_state = want._rng.bit_generator.state
        want_next = want.draw(7)
        got = problems._NormalStream(3)
        assert got.draw(count, coherence=coherence).tobytes() == want_first.tobytes()
        assert got._rng.bit_generator.state == want_state
        assert got.draw(7).tobytes() == want_next.tobytes()

    def test_draw_threads_allocate_no_array(self, monkeypatch, box_muller_ranges):
        # The calling thread makes every range's stream copies and buffers
        # before the draw's threads start, so no thread of the draw holds
        # memory of its own.
        monkeypatch.setattr(problems, "_cpu_count", lambda: 3)
        empty, calls = np.empty, []

        def spy(shape, *args, **kwargs):
            calls.append((shape, threading.get_ident()))
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", spy)
        count = 2 * 6 * self.CHUNK + 3
        got = problems._NormalStream(5).draw(count)
        assert len(box_muller_ranges) == 3
        assert any(ident != threading.get_ident() for _, _, ident in box_muller_ranges)
        assert {ident for _, ident in calls} == {threading.get_ident()}
        assert [shape for shape, _ in calls].count(self.CHUNK) == 3 * 3
        assert got.tobytes() == ReferenceNormalStream(5).draw(count).tobytes()


def factor_digest(instance):
    """SHA-256 of every block's rank, anchor and stored basis."""
    h = hashlib.sha256()
    for U in instance.subspaces:
        h.update(np.int64(U.rank).tobytes())
        h.update(U.anchor.tobytes())
        h.update(U._basis.tobytes())
    return h.hexdigest()


# build_instance(1000, 150, 0.1, 3): 7 blocks of 143 x 150, above
# _POOLED_BLOCK_ENTRIES.  Pinned from the serial build that preceded the
# pool; like GOLDEN_2000_100_7 it depends on the BLAS kernels numpy runs.
FACTORS_1000_150_3 = "eedb341d1acfbc62ad773a7624ef54eb27c15605e731c1e76a405f5f82ac6967"


class TestPooledBuild:
    """Block QRs on a pool of threads change no byte and leave no thread."""

    @pytest.mark.parametrize("workers", [0, 1, 3])
    @pytest.mark.parametrize("bound", [True, False])
    def test_worker_count_changes_no_byte(self, monkeypatch, raw_qrs, workers, bound):
        if not bound:
            monkeypatch.setattr(_lapack, "_dgeqrf", lambda: None)
        monkeypatch.setattr(_lapack, "_factor_workers", lambda: workers)
        before = threading.active_count()
        inst = build_instance(1000, 150, 0.1, 3)
        assert factor_digest(inst) == FACTORS_1000_150_3
        assert threading.active_count() == before
        main = threading.get_ident()
        assert len(raw_qrs) == 7
        assert all((ident != main) == (workers > 0) for _, ident in raw_qrs)

    @pytest.mark.parametrize("workers", [0, 1, 3])
    @pytest.mark.parametrize("linked", [True, False])
    def test_only_a_pooled_build_trims_the_heap(self, monkeypatch, workers, linked):
        # A pooled build frees its QR buffers among the blocks' kept arrays,
        # so it calls malloc_trim(0) before its QRs and after them; a serial
        # build, and one whose blocks are too small for the pool, never do.
        # Without the symbol the build is the same.
        trims = []
        symbol = _lapack._lapack_symbol
        monkeypatch.setattr(_lapack, "_lapack_symbol", lambda names: symbol(names)
                            if names != _lapack._MALLOC_TRIM_NAMES
                            else (lambda pad: trims.append(pad.value)) if linked else None)
        monkeypatch.setattr(_lapack, "_factor_workers", lambda: workers)
        assert factor_digest(build_instance(1000, 150, 0.1, 3)) == FACTORS_1000_150_3
        build_instance(1000, 100, 0.1, 3)  # 11 blocks of 91 x 100
        assert trims == ([0, 0] if workers and linked else [])

    def test_small_blocks_stay_in_the_calling_thread(self, monkeypatch, raw_qrs):
        monkeypatch.setattr(_lapack, "_factor_workers", lambda: 3)
        inst = build_instance(1000, 100, 0.1, 3)  # 11 blocks of 91 x 100
        assert inst.block_count == 11
        assert [ident for _, ident in raw_qrs] == [threading.get_ident()] * 11

    @pytest.mark.parametrize("cpus, blas, workers", [
        (1, 1, 0), (2, 1, 1), (2, 2, 0), (8, 2, 3), (8, 3, 1), (4, None, 0), (4, 0, 0),
    ])
    def test_workers_fill_the_spare_cpus(self, monkeypatch, cpus, blas, workers):
        monkeypatch.setattr(_lapack, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(_lapack, "_blas_threads", lambda: blas)
        assert _lapack._factor_workers() == workers
        monkeypatch.setattr(_lapack, "_dgeqrf", lambda: None)
        assert _lapack._factor_workers() == 0

    def test_pool_threads_free_no_buffer(self, monkeypatch):
        # The calling thread frees every buffer of a pooled QR, its dgeqrf
        # workspace too, so the traced peak of a build does not depend on
        # when the pool thread lets go of its job: only small Python objects
        # move it, by far less than one workspace.
        if _lapack._dgeqrf() is None:
            pytest.skip("numpy links no ILP64 dgeqrf")
        monkeypatch.setattr(_lapack, "_factor_workers", lambda: 1)
        A = gaussian_matrix(4000, 200, 0.1, 1)
        b = A @ np.linspace(-1.0, 1.0, 200)
        sizes = problems._partition_sizes(4000, 21)
        problems._partitioned(A, b, sizes, None, None)  # fills the caches of _lapack
        peaks = []
        for _ in range(10):
            tracemalloc.start()
            try:
                problems._partitioned(A, b, sizes, None, None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        workspace = 8 * _lapack._geqrf_lwork(200, max(sizes))
        assert max(peaks) - min(peaks) < workspace / 4

    def test_inconsistent_block_mid_build_raises_as_serial(self, monkeypatch):
        A = gaussian_matrix(1000, 150, 0.1, 3)
        b = A @ np.linspace(-1.0, 1.0, 150)
        sizes = problems._partition_sizes(1000, 7)
        lo = sum(sizes[:3])
        # Block 3 repeats a row with another right-hand side.
        A[lo + 1] = A[lo]
        b[lo + 1] = b[lo] + 1.0
        errors = []
        for workers in (0, 1, 3):
            monkeypatch.setattr(_lapack, "_factor_workers", lambda: workers)
            before = threading.active_count()
            with pytest.raises(InconsistentSystem) as info:
                problems._partitioned(A, b, sizes, None, None)
            assert threading.active_count() == before
            errors.append(str(info.value))
        assert errors[0].startswith("rhs outside range")
        assert errors == errors[:1] * 3

    @pytest.mark.parametrize("build", [
        lambda: build_instance(1000, 150, 0.1, 1),
        lambda: build_underdetermined_instance(400, [20] * 12, 0.0, 12),
    ], ids=["protocol", "underdetermined"])
    def test_drawn_blocks_are_read_only_views(self, build):
        # _draw marks the matrix and rhs read-only, and the memory they view,
        # so no block copies its rows.
        blocks = build().subspaces
        base_A, base_b = blocks[0].constraint_matrix.base, blocks[0].rhs.base
        assert base_A is not None and base_b is not None
        assert not base_A.flags.writeable and not base_b.flags.writeable
        for U in blocks:
            assert U.constraint_matrix.base is base_A and U.rhs.base is base_b
            assert not U.constraint_matrix.flags.writeable and not U.rhs.flags.writeable


class TestArgumentChecks:
    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "3", None])
    def test_bad_seeds_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            build_instance(20, 4, 0.1, seed)
        with pytest.raises(ValueError, match="seed"):
            build_underdetermined_instance(10, [2, 3], 0.0, seed)
        with pytest.raises(ValueError, match="seed"):
            gaussian_matrix(3, 2, 0.0, seed)

    @pytest.mark.parametrize("m", [2, 5, 100])
    def test_protocol_needs_two_columns(self, m):
        # floor(m/1) + 1 = m + 1 blocks cannot share m rows.
        with pytest.raises(ValueError, match=r"m > n >= 2 \(n = 1 leaves a block empty\)"):
            build_instance(m, 1, 0.1, 1)

    @pytest.mark.parametrize("m, n", [(100.7, 10), (100, 10.0), (True, 0), (100, np.float64(10))])
    def test_non_integral_dimensions_rejected(self, m, n):
        with pytest.raises(ValueError):
            build_instance(m, n, 0.1, 1)
        with pytest.raises(ValueError):
            gaussian_matrix(m, n, 0.1, 1)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="matrix dimensions must be positive"):
            gaussian_matrix(0, 3, 0.0, 1)

    @pytest.mark.parametrize("rows", [[], [2, 0]])
    def test_block_rows_must_be_positive(self, rows):
        with pytest.raises(ValueError, match="nonempty list of positive counts"):
            build_underdetermined_instance(5, rows, 0.0, 1)

    def test_ambient_dim_must_match_the_blocks(self):
        blocks = (AffineSubspace([[1.0, 0.0]], [0.0]),)
        with pytest.raises(DimensionMismatch, match="blocks have ambient dimension 2, instance has 3"):
            ProblemInstance(subspaces=blocks, ambient_dim=3)

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

    @pytest.mark.parametrize("known", [[np.nan, 0.0], [0.0, np.nan], [np.inf, 0.0], [0.0, -np.inf]])
    def test_non_finite_known_solution_rejected(self, known):
        blocks = (AffineSubspace([[0.0, 1.0]], [0.0]),)
        with pytest.raises(InconsistentSystem, match="known solution"):
            ProblemInstance(subspaces=blocks, ambient_dim=2, known_solution=known)


    def test_known_solution_with_an_overflowing_norm_is_checked(self):
        # ||x*||^2 overflows, so the limit 1e-8 (1 + ||x*||) must be taken scaled.
        blocks = (AffineSubspace([[1.0, 0.0]], [0.0]),)  # x_1 = 0
        with pytest.raises(InconsistentSystem, match="known solution"):
            ProblemInstance(subspaces=blocks, ambient_dim=2, known_solution=[1e200, 1e200])
        inst = ProblemInstance(subspaces=blocks, ambient_dim=2, known_solution=[0.0, 1e200])
        assert inst.known_solution[1] == 1e200


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

    @pytest.mark.parametrize("payload", [[1, 2], "x", 3, None])
    def test_descriptor_must_be_a_dict(self, payload):
        with pytest.raises(ValueError, match="descriptor must be a JSON object"):
            GenerationDescriptor.from_dict(payload)

    @pytest.mark.parametrize("rows", [20, "345", {"3": 4}])
    def test_block_rows_must_be_a_list(self, under, rows):
        under["block_rows"] = rows
        with pytest.raises(ValueError, match="block_rows must be a list of counts"):
            GenerationDescriptor.from_dict(under)

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
