import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from circumproj import (
    AffineSubspace,
    DegenerateSystem,
    DimensionMismatch,
    InsufficientData,
    InvalidWeights,
    IterationTrace,
    Method,
    MissingReference,
    NumericalBreakdown,
    ProblemInstance,
    SolverConfig,
    Status,
    StopRule,
    build_instance,
    build_underdetermined_instance,
    cimmino_weights,
    circumcenter,
    crm_step,
    estimate_rate,
    estimate_regularity,
    fspm_step,
    intersection_subspace,
    pcrm_step,
    project_intersection,
    residual,
    solve,
    uniform_weights,
    validate_weights,
)
from circumproj import affine, solvers
from conftest import hyperplane_instance, random_block_instance
from oracles import fspm_step_reference, kkt_project, kkt_project_blocks


def axes_blocks():
    U1 = AffineSubspace([[0.0, 1.0]], [0.0])  # x2 = 0, the x-axis
    U2 = AffineSubspace([[1.0, 0.0]], [0.0])  # x1 = 0, the y-axis
    return [U1, U2]


class TestWeights:
    def test_presets(self):
        np.testing.assert_allclose(uniform_weights(3), [0.25] * 4)
        np.testing.assert_allclose(cimmino_weights(4), [0.0, 0.25, 0.25, 0.25, 0.25])

    @pytest.mark.parametrize("bad", [
        [0.5, 0.5],                 # wrong length for 2 blocks
        [-0.1, 0.6, 0.5],           # negative identity weight
        [0.5, 0.0, 0.5],            # zero block weight
        [0.2, 0.2, 0.2],            # does not sum to 1
        [0.0, np.inf, -np.inf],     # non-finite
    ])
    def test_invalid(self, bad):
        with pytest.raises(InvalidWeights):
            validate_weights(bad, 2)

    @pytest.mark.parametrize("count", [0, -1, 2.5, True])
    @pytest.mark.parametrize("preset", [uniform_weights, cimmino_weights])
    def test_presets_need_a_block_count(self, preset, count):
        with pytest.raises(ValueError, match="block_count"):
            preset(count)

    @pytest.mark.parametrize("tolerance", [np.inf, np.nan, -np.inf, True, "1e-5"])
    def test_config_rejects_non_finite_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            SolverConfig(method="pcrm", tolerance=tolerance)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(method="pcrm", tolerance=0.0)
        with pytest.raises(ValueError):
            SolverConfig(method="pcrm", max_iterations=0)
        with pytest.raises(ValueError):
            SolverConfig(method="pcrm", workers=0)

    @pytest.mark.parametrize("setting", [
        {"max_iterations": 2.5},
        {"max_iterations": 3.0},
        {"max_iterations": True},
        {"workers": 1.5},
        {"workers": True},
        {"workers": "2"},
        {"workers": np.float64(2.0)},
    ])
    def test_config_rejects_non_integral_counts(self, setting):
        with pytest.raises(ValueError, match="integer"):
            SolverConfig(method="pcrm", **setting)

    def test_config_accepts_numpy_integers(self):
        cfg = SolverConfig(method="pcrm", max_iterations=np.int64(5), workers=np.int32(2))
        assert (cfg.max_iterations, cfg.workers) == (5, 2)

    @pytest.mark.parametrize("method", ["crm", "pcrm"])
    def test_config_rejects_weights_for_circumcentered_methods(self, method):
        with pytest.raises(ValueError, match="weights"):
            SolverConfig(method=method, weights=[0.9, 0.05, 0.05])
        with pytest.raises(ValueError, match="weights"):
            SolverConfig(method=method, weights=uniform_weights(2))

    @pytest.mark.parametrize("method", ["fspm", "cimmino"])
    def test_config_keeps_weights_for_fspm(self, method):
        cfg = SolverConfig(method=method, weights=[0.9, 0.05, 0.05])
        np.testing.assert_array_equal(cfg.weights, [0.9, 0.05, 0.05])


def mixed_blocks(seed=5, n=10):
    """Blocks taking every route through the stacked kernel.

    Row-path blocks of widths 1 and 3, null-path blocks of widths 3 and 4,
    a rank-0 block, a full-rank tall block with an empty null basis and a
    rank-deficient block that the SVD fallback factors, all through one
    planted point.  No two blocks share both route and width.
    """
    gen = np.random.default_rng(seed)
    planted = gen.standard_normal(n)
    mats = [
        gen.standard_normal((1, n)),
        gen.standard_normal((3, n)),
        gen.standard_normal((7, n)),
        gen.standard_normal((6, n)),
        np.zeros((2, n)),
        gen.standard_normal((n + 2, n)),
    ]
    dependent = gen.standard_normal((2, n))
    mats.append(np.vstack([dependent, dependent[0] - 3.0 * dependent[1]]))
    return [AffineSubspace(A, A @ planted, label=i) for i, A in enumerate(mats)]


def differences(kernel, x):
    """The kernel's differences P_i(x) - x of every block, in a fresh array."""
    out = np.empty((kernel.block_count, kernel.ambient_dim))
    kernel.differences(x, out, np.empty(kernel.block_count))
    return out


class TestBlockKernel:
    def test_mixed_blocks_take_every_route(self):
        blocks = mixed_blocks()
        assert [U.rank for U in blocks] == [1, 3, 7, 6, 0, 10, 2]
        assert [U._use_null for U in blocks] == [False, False, True, True, False, True, False]
        assert blocks[5].direction_basis().shape == (10, 0)

    def test_differences_match_per_block_projection(self, rng):
        blocks = mixed_blocks()
        kernel = solvers._BlockKernel(blocks)
        out, sq = np.empty((len(blocks), 10)), np.empty(len(blocks))
        for _ in range(5):
            x = 10.0 * rng.standard_normal(10)
            kernel.differences(x, out, sq)
            for i, U in enumerate(blocks):
                np.testing.assert_allclose(out[i], U.project(x) - x, rtol=0, atol=1e-12)

    def test_differences_squared_norms_match_the_differences(self, rng):
        blocks = mixed_blocks()
        kernel = solvers._BlockKernel(blocks)
        out, sq = np.empty((len(blocks), 10)), np.empty(len(blocks))
        for scale in (1e-3, 1.0, 1e3):
            x = scale * rng.standard_normal(10)
            kernel.differences(x, out, sq)
            np.testing.assert_allclose(sq, np.einsum("ij,ij->i", out, out), rtol=1e-12, atol=0)
            # Rank 0 leaves x where it is; the full-rank tall block moves it.
            assert sq[4] == 0.0 and sq[5] > 0.0

    @pytest.mark.parametrize("use_null", [False, True])
    def test_single_route_instances(self, rng, use_null):
        blocks = [U for U in mixed_blocks() if U._use_null is use_null]
        kernel = solvers._BlockKernel(blocks)
        x = rng.standard_normal(10)
        out = differences(kernel, x)
        np.testing.assert_allclose(out, np.stack([U.project(x) - x for U in blocks]),
                                   rtol=0, atol=1e-12)

    def test_groups_share_route_and_width_without_padding(self, rng):
        blocks = mixed_blocks() + mixed_blocks(seed=6)
        kernel = solvers._BlockKernel(blocks)
        assert len(kernel.groups) == 7
        for use_null, members, basis_t, anchors in kernel.groups:
            assert len(members) == 2 == basis_t.shape[0] == anchors.shape[0]
            assert basis_t.flags.c_contiguous
            widths = {blocks[i]._basis.shape[1] for i in members}
            assert widths == {basis_t.shape[1]}
            assert {blocks[i]._use_null for i in members} == {use_null}
        x = rng.standard_normal(10)
        out = differences(kernel, x)
        np.testing.assert_allclose(out, np.stack([U.project(x) - x for U in blocks]),
                                   rtol=0, atol=1e-12)

    def test_group_stacks_start_on_64_byte_boundaries(self):
        blocks = mixed_blocks() + mixed_blocks(seed=6)
        for _ in range(8):
            kernel = solvers._BlockKernel(blocks)
            stacks = [basis_t for _, _, basis_t, _ in kernel.groups]
            assert all(basis_t.flags.c_contiguous for basis_t in stacks)
            # An empty stack holds no bytes; numpy gives it its buffer's address.
            assert all(basis_t.ctypes.data % 64 == 0 for basis_t in stacks if basis_t.size)
            assert sum(basis_t.size > 0 for basis_t in stacks) == 5

    def test_one_wide_block_does_not_pad_the_thin_ones(self):
        n = 60
        blocks = build_underdetermined_instance(n, [20] + [1] * 30, 0.0, 2).subspaces
        kernel = solvers._BlockKernel(blocks)
        assert sum(g[2].size for g in kernel.groups) == (20 + 30) * n
        x = np.linspace(-1.0, 1.0, n)
        out = differences(kernel, x)
        np.testing.assert_allclose(out, np.stack([U.project(x) - x for U in blocks]),
                                   rtol=0, atol=1e-12)

    def test_width_one_groups_match_the_batched_matmul_bitwise(self, rng):
        inst = build_instance(1250, 10, 0.1, 1)
        kernel = solvers._BlockKernel(inst.subspaces)
        assert 1 in {basis_t.shape[1] for _, _, basis_t, _ in kernel.groups}
        x = rng.standard_normal(10)
        assert all(use_null for use_null, _, _, _ in kernel.groups)
        out = differences(kernel, x)
        expected = np.empty_like(out)
        for _, members, basis_t, anchors in kernel.groups:
            g, w, n = basis_t.shape
            coeff = basis_t.reshape(g * w, n) @ x
            span = np.matmul(coeff.reshape(g, 1, w), basis_t)[:, 0]
            expected[members] = (anchors + span) - x
        np.testing.assert_array_equal(out, expected)

    def test_steps_match_per_block_definitions(self, rng):
        blocks = mixed_blocks()
        x = rng.standard_normal(10)
        proj = np.stack([U.project(x) for U in blocks])
        w = uniform_weights(len(blocks))
        np.testing.assert_allclose(fspm_step(x, blocks, w), w[0] * x + w[1:] @ proj,
                                   rtol=0, atol=1e-12)
        y = x
        chain = [x]
        for U in blocks:
            y = U.reflect(y)
            chain.append(y)
        np.testing.assert_array_equal(crm_step(x, blocks), circumcenter(np.stack(chain)))

    def test_steps_reject_wrong_dimension(self):
        blocks = mixed_blocks()
        for step in (lambda x: fspm_step(x, blocks, uniform_weights(len(blocks))),
                     lambda x: crm_step(x, blocks),
                     lambda x: pcrm_step(x, blocks)):
            with pytest.raises(DimensionMismatch):
                step(np.zeros(9))

    def test_fspm_step_steps_a_batch_row_by_row(self, rng):
        blocks = mixed_blocks()
        w = uniform_weights(len(blocks))
        X = rng.standard_normal((3, 10))
        np.testing.assert_array_equal(fspm_step(X, blocks, w),
                                      np.stack([fspm_step(x, blocks, w) for x in X]))
        assert fspm_step(np.empty((0, 10)), blocks, w).shape == (0, 10)
        with pytest.raises(DimensionMismatch):
            fspm_step(np.zeros((2, 3, 10)), blocks, w)
        with pytest.raises(DimensionMismatch):
            pcrm_step(X, blocks)


class TestFspmStep:
    def test_cimmino_average_of_axes(self):
        got = fspm_step(np.array([1.0, 1.0]), axes_blocks(), [0.0, 0.5, 0.5])
        np.testing.assert_allclose(got, [0.5, 0.5])

    def test_fixed_point_inside(self, rng):
        inst = random_block_instance(rng)
        s = kkt_project_blocks(inst.subspaces, rng.standard_normal(inst.ambient_dim))
        w = uniform_weights(inst.block_count)
        np.testing.assert_allclose(fspm_step(s, inst.subspaces, w), s, atol=1e-9)

    def test_uniform_matches_direct_average(self, rng):
        inst = random_block_instance(rng)
        x = rng.standard_normal(inst.ambient_dim)
        m = inst.block_count
        got = fspm_step(x, inst.subspaces, uniform_weights(m))
        direct = (x + sum(U.project(x) for U in inst.subspaces)) / (m + 1)
        np.testing.assert_allclose(got, direct, rtol=1e-12, atol=1e-12)

    def test_lands_in_reflection_hull(self, rng):
        inst = random_block_instance(rng)
        x = rng.standard_normal(inst.ambient_dim)
        w = rng.random(inst.block_count + 1) + 0.05
        w /= w.sum()
        y = fspm_step(x, inst.subspaces, w)
        D = np.stack([U.reflect(x) - x for U in inst.subspaces]).T
        coeffs, *_ = np.linalg.lstsq(D, y - x, rcond=None)
        assert np.linalg.norm(D @ coeffs - (y - x)) < 1e-9


class TestAffineFspmStep:
    """The F-SPM step as one affine map on the kernel's stacks."""

    @staticmethod
    def weight_sets(m, rng):
        random = rng.uniform(0.1, 1.0, m + 1)
        return [uniform_weights(m), cimmino_weights(m), random / random.sum()]

    @pytest.mark.parametrize("copies", [1, 2])
    def test_matches_per_block_reference(self, rng, copies):
        blocks = mixed_blocks() if copies == 1 else mixed_blocks() + mixed_blocks(seed=6)
        kernel = solvers._BlockKernel(blocks)
        for weights in self.weight_sets(len(blocks), rng):
            operator = solvers._Fspm(kernel, weights)
            for _ in range(3):
                x = 10.0 * rng.standard_normal(10)
                y = operator.step(x)
                np.testing.assert_allclose(y, fspm_step_reference(blocks, weights, x),
                                           rtol=0, atol=1e-12)
                assert not np.shares_memory(y, x)

    def test_steps_are_fresh_arrays(self, rng):
        blocks = mixed_blocks()
        kernel = solvers._BlockKernel(blocks)
        operator = solvers._Fspm(kernel, uniform_weights(len(blocks)))
        x = rng.standard_normal(10)
        y1, y2 = operator.step(x), operator.step(x)
        np.testing.assert_array_equal(y1, y2)
        assert not np.shares_memory(y1, y2)
        assert not np.shares_memory(y1, x)
        # A residual asked for in between changes no step.
        operator.residual(x)
        y3 = operator.step(x)
        np.testing.assert_array_equal(y3, y1)
        assert not np.shares_memory(y3, y1)
        for _, _, basis_t, anchors in kernel.groups:
            assert not np.shares_memory(y3, basis_t) and not np.shares_memory(y3, anchors)

    @pytest.mark.parametrize("blocks", ["mixed", "slow"])
    def test_batch_steps_all_rows_at_once(self, rng, blocks):
        if blocks == "mixed":
            subspaces = mixed_blocks()
        else:
            subspaces = list(build_underdetermined_instance(40, [2] * 12, 0.0, 3).subspaces)
        n = subspaces[0].ambient_dim
        X = 5.0 * rng.standard_normal((7, n))
        for weights in self.weight_sets(len(subspaces), rng):
            rows = np.stack([fspm_step(x, subspaces, weights) for x in X])
            batch = fspm_step(X, subspaces, weights)
            np.testing.assert_array_equal(batch, rows)
            reference = np.stack([fspm_step_reference(subspaces, weights, x) for x in X])
            np.testing.assert_allclose(batch, reference, rtol=0, atol=1e-12)

    @staticmethod
    def spy_on(monkeypatch, name):
        calls = []
        real = getattr(solvers._BlockKernel, name)

        def spy(kernel, x, *args):
            calls.append(x)
            return real(kernel, x, *args)

        monkeypatch.setattr(solvers._BlockKernel, name, spy)
        return calls

    @pytest.fixture
    def differences_calls(self, monkeypatch):
        return self.spy_on(monkeypatch, "differences")

    def test_unrecorded_solve_projects_nothing(self, differences_calls):
        inst = build_instance(40, 8, 0.1, 4)
        for method in (Method.CIMMINO, Method.FSPM):
            res = solve(inst, SolverConfig(method=method, record_residuals=False))
            assert res.trace.status is Status.CONVERGED
            assert res.trace.iteration_count > 1
        assert differences_calls == []

    def test_recorded_solve_measures_each_iterate_once(self, monkeypatch, differences_calls):
        inst = build_instance(40, 8, 0.1, 4)
        distances_calls = self.spy_on(monkeypatch, "distances")
        res = solve(inst, SolverConfig(method=Method.CIMMINO, record_residuals=True))
        assert len(distances_calls) == len(res.trace.iterations) > 1
        assert differences_calls == []

    def test_recording_residuals_changes_no_iterate(self):
        inst = build_underdetermined_instance(40, [2] * 12, 0.0, 3)
        oracle = project_intersection(inst.subspaces, np.zeros(40))
        inst = ProblemInstance(subspaces=inst.subspaces, ambient_dim=40, known_solution=oracle)
        for method in (Method.CIMMINO, Method.FSPM):
            recorded, unrecorded = (
                solve(inst, SolverConfig(method=method, tolerance=1e-6, record_residuals=flag))
                for flag in (True, False)
            )
            assert recorded.trace.status is unrecorded.trace.status is Status.CONVERGED
            assert recorded.trace.iteration_count == unrecorded.trace.iteration_count > 10
            np.testing.assert_array_equal(recorded.point, unrecorded.point)


class TestCrmStep:
    def test_axes_toy(self):
        got = crm_step(np.array([1.0, 1.0]), axes_blocks())
        np.testing.assert_allclose(got, [0.0, 0.0], atol=1e-12)

    def test_fixed_point_inside(self, rng):
        inst = random_block_instance(rng)
        s = kkt_project_blocks(inst.subspaces, rng.standard_normal(inst.ambient_dim))
        np.testing.assert_allclose(crm_step(s, inst.subspaces), s, atol=1e-9)

    def test_contraction_toward_solution(self, rng):
        for _ in range(10):
            planted = rng.standard_normal(5)
            subs = []
            for i in range(3):
                A = rng.standard_normal((1, 5))
                subs.append(AffineSubspace(A, A @ planted, label=i))
            x = rng.standard_normal(5)
            s_star = kkt_project_blocks(subs, x)
            y = crm_step(x, subs)
            assert np.linalg.norm(y - s_star) <= np.linalg.norm(x - s_star) + 1e-12

    def test_builds_no_kernel(self, rng, monkeypatch):
        blocks = mixed_blocks()
        x = rng.standard_normal(10)
        expected = crm_step(x, blocks)

        def refuse(kernel, subspaces):
            raise AssertionError("crm_step built a _BlockKernel")

        monkeypatch.setattr(affine._BlockKernel, "__init__", refuse)
        np.testing.assert_array_equal(crm_step(x, blocks), expected)


class TestPcrmStep:
    def test_axes_toy(self):
        got = pcrm_step(np.array([1.0, 1.0]), axes_blocks())
        np.testing.assert_allclose(got, [0.0, 0.0], atol=1e-12)

    def test_hyperplanes_one_step(self, rng):
        # single-row blocks: the circumcenter lands in the intersection at once
        for _ in range(10):
            n = int(rng.integers(4, 20))
            blocks = int(rng.integers(2, min(8, n)))
            inst = hyperplane_instance(rng, n, blocks)
            x = rng.standard_normal(n)
            y = pcrm_step(x, inst.subspaces)
            for U in inst.subspaces:
                assert U.distance(y) < 1e-9

    def test_dominates_fspm(self, rng):
        for _ in range(20):
            inst = random_block_instance(rng)
            x = rng.standard_normal(inst.ambient_dim)
            s_star = kkt_project_blocks(inst.subspaces, x)
            w = rng.random(inst.block_count + 1) + 0.05
            w /= w.sum()
            d_pcrm = np.linalg.norm(pcrm_step(x, inst.subspaces) - s_star)
            d_fspm = np.linalg.norm(fspm_step(x, inst.subspaces, w) - s_star)
            assert d_pcrm <= d_fspm + 1e-9

    @pytest.mark.parametrize("workers", [0, -3, 2.5, True, "two", None])
    def test_pcrm_step_rejects_invalid_workers(self, workers):
        with pytest.raises(ValueError, match="workers"):
            pcrm_step(np.array([1.0, 1.0]), axes_blocks(), workers=workers)

    def test_bitwise_identical_across_workers(self, rng):
        inst = random_block_instance(rng, n_range=(8, 16), block_range=(4, 8))
        x = rng.standard_normal(inst.ambient_dim)
        base = pcrm_step(x, inst.subspaces, workers=1)
        for workers in (2, 3, os.cpu_count() or 4):
            np.testing.assert_array_equal(
                pcrm_step(x, inst.subspaces, workers=workers), base
            )


class TestSolve:
    def test_singleton_instance_converges(self):
        inst = build_instance(80, 10, 0.1, 7)
        res = solve(inst, SolverConfig(method=Method.PCRM))
        assert res.trace.status is Status.CONVERGED
        rel = np.linalg.norm(res.point - inst.known_solution) / np.linalg.norm(
            inst.known_solution
        )
        assert rel <= 1e-5
        assert res.trace.iteration_count < 10_000

    def test_start_inside_converges_at_zero(self):
        inst = build_instance(40, 8, 0.0, 3)
        res = solve(inst, SolverConfig(method=Method.CRM), x0=inst.known_solution)
        assert res.trace.status is Status.CONVERGED
        assert res.trace.iteration_count == 0
        assert res.trace.total_projections == 0

    @pytest.mark.parametrize("method", [Method.PCRM, Method.CRM, Method.FSPM])
    def test_underdetermined_limit_is_oracle_projection(self, method, rng):
        inst = build_underdetermined_instance(8, [2, 2], 0.0, 11)
        x0 = rng.standard_normal(8)
        cfg = SolverConfig(
            method=method,
            tolerance=1e-9,
            max_iterations=50_000,
            stop_rule=StopRule.FEASIBILITY_RESIDUAL,
        )
        res = solve(inst, cfg, x0=x0)
        assert res.trace.status is Status.CONVERGED
        s_star = kkt_project_blocks(inst.subspaces, x0)
        assert np.linalg.norm(res.point - s_star) <= 1e-5 * (1.0 + np.linalg.norm(s_star))

    def test_missing_reference(self):
        inst = build_underdetermined_instance(6, [2, 2], 0.0, 5)
        with pytest.raises(MissingReference):
            solve(inst, SolverConfig(method=Method.PCRM, stop_rule=StopRule.REL_ERR_TO_KNOWN))

    def test_numerical_breakdown_carries_trace(self):
        inst = build_instance(20, 4, 0.0, 1)
        with pytest.raises(NumericalBreakdown) as excinfo:
            solve(inst, SolverConfig(method=Method.PCRM), x0=np.full(4, np.inf))
        assert excinfo.value.trace.status is Status.DIVERGED_NUMERICALLY

    def test_overflowing_reference_norm_stays_finite(self):
        # The block x_1 = 0 holds [0, 1e200], whose squared norm overflows.
        block = AffineSubspace([[1.0, 0.0]], [0.0])
        inst = ProblemInstance(subspaces=(block,), ambient_dim=2,
                               known_solution=[0.0, 1e200])
        for method in Method:
            res = solve(inst, SolverConfig(method=method, max_iterations=3), x0=[5.0, 0.0])
            assert res.trace.status is Status.MAX_ITER
            assert res.trace.distances[0] == np.hypot(5.0, 1e200) == 1e200
            assert res.trace.residuals[0] == 5.0

    def test_max_iterations_status(self):
        inst = build_instance(30, 6, 0.2, 2)
        cfg = SolverConfig(method=Method.CIMMINO, tolerance=1e-14, max_iterations=3)
        res = solve(inst, cfg)
        assert res.trace.status is Status.MAX_ITER
        assert res.trace.iteration_count == 3

    def test_step_norm_stop(self, rng):
        inst = build_underdetermined_instance(7, [2, 2], 0.1, 9)
        cfg = SolverConfig(
            method=Method.PCRM, tolerance=1e-10, stop_rule=StopRule.STEP_NORM
        )
        res = solve(inst, cfg, x0=rng.standard_normal(7))
        assert res.trace.status is Status.CONVERGED
        s_star = kkt_project_blocks(inst.subspaces, res.point)
        assert np.linalg.norm(res.point - s_star) < 1e-6

    def test_projection_accounting(self):
        inst = build_instance(40, 8, 0.1, 4)
        m = inst.block_count
        for method in (Method.PCRM, Method.CRM, Method.CIMMINO, Method.FSPM):
            res = solve(inst, SolverConfig(method=method, max_iterations=20,
                                           tolerance=1e-12))
            counts = np.asarray(res.trace.projections)
            np.testing.assert_array_equal(np.diff(counts), m)

    def test_distances_non_increasing(self):
        inst = build_instance(60, 12, 0.1, 6)
        for method in (Method.PCRM, Method.CRM, Method.CIMMINO):
            res = solve(inst, SolverConfig(method=method))
            d = np.asarray(res.trace.distances)
            assert np.all(d[1:] <= d[:-1] * (1.0 + 1e-12) + 1e-15)

    def test_pcrm_pythagorean_identity_each_iteration(self, rng):
        inst = random_block_instance(rng, n_range=(6, 10), block_range=(2, 4))
        x = rng.standard_normal(inst.ambient_dim)
        stacked_star = kkt_project_blocks(inst.subspaces, x)
        for _ in range(8):
            y = pcrm_step(x, inst.subspaces)
            lhs = np.linalg.norm(y - stacked_star) ** 2 + np.linalg.norm(x - y) ** 2
            rhs = np.linalg.norm(x - stacked_star) ** 2
            assert abs(lhs - rhs) <= 1e-8 * max(rhs, 1e-30)
            if np.linalg.norm(x - stacked_star) < 1e-7:
                break
            x = y

    def test_pcrm_block_distance_reduction(self, rng):
        inst = random_block_instance(rng)
        x = rng.standard_normal(inst.ambient_dim)
        y = pcrm_step(x, inst.subspaces)
        step_sq = np.linalg.norm(x - y) ** 2
        for U in inst.subspaces:
            assert U.distance(y) ** 2 + U.distance(x) ** 2 <= step_sq + 1e-8

    def test_projection_of_iterates_invariant(self, rng):
        inst = random_block_instance(rng, n_range=(6, 9), block_range=(2, 3))
        x0 = rng.standard_normal(inst.ambient_dim)
        s_star = kkt_project_blocks(inst.subspaces, x0)
        scale = 1.0 + np.linalg.norm(s_star)
        for method in (Method.PCRM, Method.FSPM):
            cfg = SolverConfig(method=method, tolerance=1e-8, max_iterations=30,
                               stop_rule=StopRule.FEASIBILITY_RESIDUAL)
            x = x0
            step = (
                (lambda z: pcrm_step(z, inst.subspaces))
                if method is Method.PCRM
                else (lambda z: fspm_step(z, inst.subspaces, uniform_weights(inst.block_count)))
            )
            for _ in range(10):
                x = step(x)
                drift = np.linalg.norm(kkt_project_blocks(inst.subspaces, x) - s_star)
                assert drift <= 1e-7 * scale

    def test_solve_deterministic_across_workers(self):
        inst = build_instance(60, 12, 0.2, 13)
        res1 = solve(inst, SolverConfig(method=Method.PCRM, workers=1))
        res4 = solve(inst, SolverConfig(method=Method.PCRM, workers=4))
        np.testing.assert_array_equal(res1.point, res4.point)
        assert res1.trace.iteration_count == res4.trace.iteration_count
        assert res1.trace.total_projections == res4.trace.total_projections


class TestResidualReuse:
    """solve reads the residual of x_k off the projections its step uses."""

    METHODS = [Method.FSPM, Method.CIMMINO, Method.CRM, Method.PCRM]

    # CRM and P-CRM reach the single point of mixed_blocks() in one or two
    # steps, where the residual is rounding noise and has no relative digits.
    @pytest.mark.parametrize("method, blocks", [(m, "slow") for m in METHODS]
                             + [(Method.FSPM, "mixed"), (Method.CIMMINO, "mixed")])
    def test_recorded_residual_is_residual_of_iterate(self, rng, method, blocks):
        if blocks == "slow":
            subspaces = build_underdetermined_instance(40, [2] * 12, 0.0, 3).subspaces
        else:
            subspaces = tuple(mixed_blocks())
        n = subspaces[0].ambient_dim
        inst = ProblemInstance(subspaces=subspaces, ambient_dim=n)
        x0 = 5.0 * rng.standard_normal(n)
        history = None
        for j in (1, 2, 3, 5, 8):
            cfg = SolverConfig(method=method, max_iterations=j, tolerance=1e-300,
                               stop_rule=StopRule.FEASIBILITY_RESIDUAL)
            res = solve(inst, cfg, x0=x0)
            assert res.trace.status is Status.MAX_ITER
            assert res.trace.iteration_count == j
            expected = float(residual(subspaces, res.point))
            assert abs(res.trace.residuals[-1] - expected) <= 1e-12 * expected
            if history is not None:
                assert res.trace.residuals[: len(history)] == history
            history = res.trace.residuals

    @pytest.mark.parametrize("method", METHODS)
    def test_feasibility_rule_converges(self, rng, method):
        inst = build_underdetermined_instance(12, [3, 2, 4], 0.0, 17)
        tol = 1e-9
        cfg = SolverConfig(method=method, tolerance=tol, max_iterations=50_000,
                           stop_rule=StopRule.FEASIBILITY_RESIDUAL)
        res = solve(inst, cfg, x0=rng.standard_normal(12))
        assert res.trace.status is Status.CONVERGED
        final = float(residual(inst.subspaces, res.point))
        assert final <= tol * (1.0 + np.linalg.norm(res.point))
        assert res.trace.residuals[-1] == pytest.approx(final, rel=1e-6, abs=1e-15)

    def test_unrecorded_residuals_are_nan(self):
        inst = build_instance(40, 8, 0.1, 4)
        for method in self.METHODS:
            res = solve(inst, SolverConfig(method=method, record_residuals=False))
            assert res.trace.status is Status.CONVERGED
            assert np.all(np.isnan(res.trace.residuals))


class TestPcrmDifferences:
    """P-CRM reads the residual and the step off one difference matrix."""

    @staticmethod
    def slow_instance(seed=3):
        inst = build_underdetermined_instance(40, [2] * 12, 0.0, seed)
        oracle = project_intersection(inst.subspaces, np.zeros(40))
        return ProblemInstance(subspaces=inst.subspaces, ambient_dim=40, known_solution=oracle)

    def test_recorded_residuals_are_residuals_of_the_iterates(self, rng):
        inst = self.slow_instance()
        x = 5.0 * rng.standard_normal(40)
        cfg = SolverConfig(method=Method.PCRM, max_iterations=10, tolerance=1e-300,
                           stop_rule=StopRule.FEASIBILITY_RESIDUAL)
        res = solve(inst, cfg, x0=x)
        assert res.trace.status is Status.MAX_ITER
        for recorded in res.trace.residuals:
            expected = max(np.linalg.norm(U.project(x) - x) for U in inst.subspaces)
            assert abs(recorded - expected) <= 1e-12 * expected
            last, x = x, pcrm_step(x, inst.subspaces)
        np.testing.assert_allclose(last, res.point, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("method", [Method.PCRM, Method.CRM])
    def test_recording_residuals_changes_no_iterate(self, method):
        inst = self.slow_instance()
        recorded, unrecorded = (
            solve(inst, SolverConfig(method=method, tolerance=1e-6, record_residuals=flag))
            for flag in (True, False)
        )
        assert recorded.trace.status is unrecorded.trace.status is Status.CONVERGED
        assert recorded.trace.iteration_count == unrecorded.trace.iteration_count > 10
        np.testing.assert_array_equal(recorded.point, unrecorded.point)
        two_workers = solve(inst, SolverConfig(method=method, tolerance=1e-6, workers=2))
        np.testing.assert_array_equal(two_workers.point, recorded.point)

    def test_step_never_reuses_differences_of_another_point(self, rng):
        subspaces = list(self.slow_instance().subspaces)
        x1, x2 = rng.standard_normal((2, 40))
        expected = pcrm_step(x2, subspaces)
        operator = solvers._Pcrm(solvers._BlockKernel(subspaces))
        operator.residual(x1)
        np.testing.assert_array_equal(operator.step(x2), expected)
        np.testing.assert_array_equal(operator.step(x2), expected)
        expected_residual = max(np.linalg.norm(U.project(x2) - x2) for U in subspaces)
        assert operator.residual(x2) == pytest.approx(expected_residual, rel=1e-12)
        np.testing.assert_array_equal(operator.step(x2), expected)

    def test_width_zero_and_one_pcrm_point_is_pinned(self):
        # The point passes through threaded BLAS and LAPACK calls, so it is
        # pinned for this build of OpenBLAS at one thread, in a child process.
        code = (
            "import hashlib; from circumproj import build_instance, solve, SolverConfig\n"
            "inst = build_instance(12500, 100, 0.1, 1)\n"
            "res = solve(inst, SolverConfig(method='pcrm'))\n"
            "print(sorted(g[2].shape[1] for g in inst._kernel.groups),"
            " res.trace.iteration_count, hashlib.sha256(res.point.tobytes()).hexdigest())"
        )
        src = os.path.dirname(os.path.dirname(solvers.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == ("[0, 1] 1 "
                       "bb68043e9d8f083d82b018fb8e561340afead1c440cb26308bd26f2512d517c8\n")

    @pytest.mark.parametrize("with_reference", [True, False])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_start_breaks_down_typed(self, with_reference, bad):
        inst = self.slow_instance()
        if not with_reference:
            inst = ProblemInstance(subspaces=inst.subspaces, ambient_dim=40)
        x0 = np.zeros(40)
        x0[7] = bad
        cfg = SolverConfig(method=Method.PCRM, stop_rule=StopRule.FEASIBILITY_RESIDUAL)
        with pytest.raises(NumericalBreakdown) as excinfo:
            solve(inst, cfg, x0=x0)
        trace = excinfo.value.trace
        assert trace.status is Status.DIVERGED_NUMERICALLY
        assert trace.iterations == [0]
        assert np.isnan(trace.distances[0]) and np.isnan(trace.residuals[0])

    def test_buffers_hold_the_differences_of_their_point(self, rng):
        kernel = self.slow_instance()._kernel
        x = rng.standard_normal(40)
        operator = solvers._Pcrm(kernel)
        operator.residual(x)
        operator.step(x)
        diffs, sq = np.empty((kernel.block_count, 40)), np.empty(kernel.block_count)
        kernel.differences(x, diffs, sq)
        assert operator._diffs_of is x
        np.testing.assert_array_equal(operator._diffs, diffs)
        np.testing.assert_array_equal(operator._sq, sq)

    @pytest.mark.parametrize("builder, args", [
        (build_underdetermined_instance, (400, [20] * 12, 0.0, 12)),  # slow angles
        (build_instance, (1250, 10, 0.1, 1)),  # 126 blocks in R^10: a tall D
        (build_underdetermined_instance, (100, [60, 30, 8], 0.2, 2)),
    ])
    def test_step_is_the_circumcenter_of_the_reflections_bitwise(self, rng, builder, args):
        # The reflections x + 2 d_i give the system (2 d) y = 2 sq; the step
        # solves d y = sq, which has the same bytes on every route.
        kernel = builder(*args)._kernel
        x = rng.standard_normal(kernel.ambient_dim)
        diffs = np.empty((kernel.block_count, kernel.ambient_dim))
        sq = np.empty(kernel.block_count)
        kernel.differences(x, diffs, sq)
        expected = x + solvers._solve_differences(2.0 * diffs, 2.0 * sq)
        np.testing.assert_array_equal(solvers._Pcrm(kernel).step(x), expected)


class TestCrmResidualBatches:
    """CRM records the residuals that no stop test reads in batches of iterates."""

    # 12 blocks of 2 rows in R^40: 24 stacked rows, so at most 24 iterates wait.
    BATCH = 24

    @staticmethod
    def slow_instance():
        return TestPcrmDifferences.slow_instance()

    @staticmethod
    def replay(inst, count):
        """x_0 = 0 and the next count - 1 iterates of crm_step."""
        xs = [np.zeros(inst.ambient_dim)]
        while len(xs) < count:
            xs.append(crm_step(xs[-1], inst.subspaces))
        return xs

    def test_the_batch_is_the_stacked_row_count(self):
        kernel = self.slow_instance()._kernel
        rows = sum(basis_t.shape[0] * basis_t.shape[1] for _, _, basis_t, _ in kernel.groups)
        assert rows == self.BATCH

    @pytest.mark.parametrize("rule", [StopRule.REL_ERR_TO_KNOWN, StopRule.STEP_NORM])
    def test_recorded_residuals_are_the_kernel_residuals_of_the_iterates(self, rule):
        inst = self.slow_instance()
        res = solve(inst, SolverConfig(method=Method.CRM, tolerance=1e-10, stop_rule=rule))
        trace = res.trace
        assert trace.status is Status.CONVERGED
        # More iterates than two batches: the residuals are taken at least three times.
        assert len(trace.iterations) > 2 * self.BATCH
        xs = self.replay(inst, len(trace.iterations))
        np.testing.assert_array_equal(xs[-1], res.point)
        for recorded, dist, x in zip(trace.residuals, trace.distances, xs, strict=True):
            assert recorded == inst._kernel.residual(x)
            assert dist == np.linalg.norm(x - inst.known_solution)

    def test_breakdown_keeps_the_residual_of_every_finite_iterate(self, monkeypatch):
        inst = self.slow_instance()
        real, steps = solvers._Crm.step, []

        def step(operator, x):
            steps.append(x)
            return np.full_like(x, np.nan) if len(steps) == 30 else real(operator, x)

        monkeypatch.setattr(solvers._Crm, "step", step)
        with pytest.raises(NumericalBreakdown) as excinfo:
            solve(inst, SolverConfig(method=Method.CRM, tolerance=1e-12))
        trace = excinfo.value.trace
        assert trace.status is Status.DIVERGED_NUMERICALLY
        assert trace.iterations == list(range(31))
        assert np.isnan(trace.residuals[-1])
        xs = self.replay(inst, 30)
        for recorded, x in zip(trace.residuals[:-1], xs, strict=True):
            assert recorded == inst._kernel.residual(x)

    @pytest.mark.parametrize("rule, most", [(StopRule.REL_ERR_TO_KNOWN, BATCH),
                                            (StopRule.STEP_NORM, BATCH),
                                            (StopRule.FEASIBILITY_RESIDUAL, 1)])
    def test_waiting_iterates_never_exceed_the_batch(self, monkeypatch, rule, most):
        inst = self.slow_instance()
        events = []
        real_step, real_residual = solvers._Crm.step, solvers._Operator.residual

        def step(operator, x):
            y = real_step(operator, x)
            events.append(("step", x, y))
            return y

        def residual(operator, x):
            events.append(("residual", x, None))
            return real_residual(operator, x)

        monkeypatch.setattr(solvers._Crm, "step", step)
        monkeypatch.setattr(solvers._Operator, "residual", residual)
        res = solve(inst, SolverConfig(method=Method.CRM, tolerance=1e-12, stop_rule=rule))
        assert res.trace.status is Status.CONVERGED
        iterates, measured, waiting = [], [], []
        for kind, x, y in events:
            if not iterates:
                iterates.append(x)  # x_0
            if kind == "step":
                assert x is iterates[-1]
                iterates.append(y)
            else:
                waiting.append(len(iterates) - len(measured))
                measured.append(x)
        # Every iterate is measured once, in order, with at most `most` unmeasured.
        assert len(measured) == len(iterates) == len(res.trace.iterations) > 2 * self.BATCH
        assert all(x is y for x, y in zip(measured, iterates))
        assert max(waiting) == most

    def test_unrecorded_crm_residuals_are_never_taken(self, monkeypatch):
        inst = self.slow_instance()
        calls = []
        monkeypatch.setattr(solvers._Operator, "residual", lambda operator, x: calls.append(x))
        for rule in (StopRule.REL_ERR_TO_KNOWN, StopRule.STEP_NORM):
            res = solve(inst, SolverConfig(method=Method.CRM, stop_rule=rule,
                                           record_residuals=False))
            assert res.trace.status is Status.CONVERGED
            assert np.all(np.isnan(res.trace.residuals))
        assert calls == []


class TestHugeStart:
    """From x0 = 1e300 * ones, x @ x overflows and no circumcenter can be formed;
    from 1e80 * ones, a circumcenter's ||r||^2 overflows and nothing else."""

    X0 = np.full(40, 1e300)

    @pytest.mark.parametrize("method", [Method.CRM, Method.PCRM, Method.CIMMINO])
    def test_an_overflowing_scale_is_not_convergence(self, method):
        inst = build_underdetermined_instance(40, [2] * 12, 0.0, 3)
        cfg = SolverConfig(method=method, stop_rule=StopRule.FEASIBILITY_RESIDUAL,
                           max_iterations=5)
        try:
            trace = solve(inst, cfg, x0=self.X0).trace
        except NumericalBreakdown as exc:
            trace = exc.trace
        assert trace.status is not Status.CONVERGED

    @pytest.mark.parametrize("rule", list(StopRule))
    @pytest.mark.parametrize("method", [Method.CRM, Method.PCRM])
    def test_a_failed_circumcenter_is_a_numerical_breakdown(self, method, rule):
        inst = TestPcrmDifferences.slow_instance()
        with pytest.raises(NumericalBreakdown) as excinfo:
            solve(inst, SolverConfig(method=method, stop_rule=rule), x0=self.X0)
        exc = excinfo.value
        assert isinstance(exc.__cause__, DegenerateSystem)
        # The partial trace, its pending residual recorded, and the last finite iterate.
        assert exc.trace.status is Status.DIVERGED_NUMERICALLY
        assert exc.trace.iterations == [0] and exc.trace.projections == [0]
        assert exc.trace.residuals == [np.inf]
        assert exc.trace.wall_time_s >= 0.0
        np.testing.assert_array_equal(exc.point, self.X0)

    @pytest.mark.parametrize("method", [Method.CIMMINO, Method.FSPM])
    def test_the_step_norm_rule_does_not_overflow(self, method):
        # ||x_k - x_{k-1}||^2 overflows; the suite turns its warning into an error.
        inst = build_underdetermined_instance(40, [2] * 12, 0.0, 3)
        cfg = SolverConfig(method=method, stop_rule=StopRule.STEP_NORM, max_iterations=50)
        res = solve(inst, cfg, x0=self.X0)
        assert res.trace.status is Status.MAX_ITER

    @pytest.mark.parametrize("method", [Method.CRM, Method.PCRM])
    def test_circumcenters_of_a_large_start_keep_their_misfit_test(self, method):
        # From 1e80 * ones, ||r||^2 of the first circumcenter overflows.
        inst = build_underdetermined_instance(40, [2] * 12, 0.0, 3)
        cfg = SolverConfig(method=method, stop_rule=StopRule.FEASIBILITY_RESIDUAL)
        res = solve(inst, cfg, x0=np.full(40, 1e80))
        assert res.trace.status is Status.CONVERGED
        final = float(residual(inst.subspaces, res.point))
        assert final <= cfg.tolerance * (1.0 + np.linalg.norm(res.point))


class TestNoThreadPool:
    def test_workers_start_no_threads_and_change_nothing(self, monkeypatch):
        inst = build_instance(60, 12, 0.2, 13)
        before = threading.active_count()
        during = []
        real_solve_differences = solvers._solve_differences

        def spy(diffs, rhs):
            during.append(threading.active_count())
            return real_solve_differences(diffs, rhs)

        monkeypatch.setattr(solvers, "_solve_differences", spy)
        res4 = solve(inst, SolverConfig(method=Method.PCRM, workers=4))
        assert during and set(during) == {before}
        assert threading.active_count() == before
        monkeypatch.undo()
        res1 = solve(inst, SolverConfig(method=Method.PCRM, workers=1))
        np.testing.assert_array_equal(res4.point, res1.point)
        assert res4.trace.iterations == res1.trace.iterations
        assert res4.trace.projections == res1.trace.projections
        np.testing.assert_array_equal(res4.trace.distances, res1.trace.distances)


class TestEstimateRate:
    def test_geometric_sequence(self):
        trace = IterationTrace()
        for k in range(12):
            trace.append(k, np.nan, 0.5 ** k, 0)
        assert abs(estimate_rate(trace) - 0.5) < 1e-6

    def test_constant_sequence_not_contracting(self):
        trace = IterationTrace()
        for k in range(8):
            trace.append(k, np.nan, 3.0, 0)
        assert np.isclose(estimate_rate(trace), 1.0)

    def test_too_short(self):
        trace = IterationTrace()
        trace.append(0, np.nan, 1.0, 0)
        trace.append(1, np.nan, 0.5, 0)
        with pytest.raises(InsufficientData):
            estimate_rate(trace)

    def test_pcrm_at_least_as_fast_as_cimmino(self):
        inst = build_instance(50, 10, 0.1, 21)
        r_pcrm = estimate_rate(solve(inst, SolverConfig(method=Method.PCRM)).trace)
        r_cim = estimate_rate(solve(inst, SolverConfig(method=Method.CIMMINO)).trace)
        assert r_pcrm <= r_cim + 1e-6
        assert r_pcrm < 1.0


class TestKernelDistances:
    """_BlockKernel.distances against per-block projections and the KKT oracle."""

    @pytest.fixture(params=[5, 6], ids=["mixed", "mixed-seed6"])
    def blocks(self, request):
        return mixed_blocks(seed=request.param)

    def points(self, rng, blocks):
        """Random points, then points within 1e-8 of every block."""
        common = intersection_subspace(blocks).anchor
        far = 10.0 * rng.standard_normal((6, 10))
        near = common + 1e-8 * rng.standard_normal((6, 10))
        return np.vstack([far, near])

    def test_blocks_take_every_route_with_widths_zero_and_one(self, blocks):
        kernel = affine._BlockKernel(blocks)
        routes = {(use_null, basis_t.shape[1]) for use_null, _, basis_t, _ in kernel.groups}
        assert {True, False} == {use_null for use_null, _ in routes}
        assert {0, 1} <= {w for _, w in routes}

    def test_rows_match_per_block_projections(self, rng, blocks):
        X = self.points(rng, blocks)
        D = affine._BlockKernel(blocks).distances(X)
        assert D.shape == (len(X), len(blocks))
        for i, U in enumerate(blocks):
            expected = np.linalg.norm(X - U.project(X), axis=-1)
            np.testing.assert_allclose(D[:, i], expected, rtol=1e-10, atol=1e-12)

    def test_points_match_the_kkt_oracle(self, rng, blocks):
        kernel = affine._BlockKernel(blocks)
        for x in self.points(rng, blocks):
            d = kernel.distances(x)
            assert d.shape == (len(blocks),)
            for i, U in enumerate(blocks):
                expected = np.linalg.norm(x - kkt_project(U.constraint_matrix, U.rhs, x))
                assert abs(d[i] - expected) <= 1e-9 * (1.0 + np.linalg.norm(x))

    def test_one_point_agrees_with_its_row(self, rng, blocks):
        kernel = affine._BlockKernel(blocks)
        X = self.points(rng, blocks)
        np.testing.assert_allclose(np.stack([kernel.distances(x) for x in X]),
                                   kernel.distances(X), rtol=1e-12, atol=1e-15)

    def test_residual_and_distance_read_the_kernel(self, rng, blocks):
        X = self.points(rng, blocks)
        D = affine._BlockKernel(blocks).distances(X)
        np.testing.assert_array_equal(residual(blocks, X), D.max(axis=-1))
        for U in blocks:
            np.testing.assert_array_equal(U.distance(X), affine._BlockKernel([U]).distances(X)[:, 0])
            assert np.ndim(U.distance(X[0])) == 0

    @pytest.mark.parametrize("shape", [(9,), (3, 11), (2, 2, 10)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(DimensionMismatch):
            affine._BlockKernel(mixed_blocks()).distances(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(9,), (3, 11), (2, 2, 10), (3, 10), (10, 1)])
    def test_every_point_check_raises_one_message(self, shape):
        blocks = mixed_blocks()
        checks = [lambda x: pcrm_step(x, blocks), lambda x: crm_step(x, blocks)]
        if shape != (3, 10):  # a stack of points, which only these accept
            checks += [affine._BlockKernel(blocks).distances, blocks[0].project,
                       blocks[0].reflect, lambda x: fspm_step(x, blocks, uniform_weights(7))]
        inst = ProblemInstance(subspaces=tuple(blocks), ambient_dim=10)
        config = SolverConfig(method=Method.PCRM, stop_rule=StopRule.FEASIBILITY_RESIDUAL)
        checks += [lambda x: solve(inst, config, x),
                   lambda x: ProblemInstance(subspaces=inst.subspaces, ambient_dim=10,
                                             known_solution=x)]
        message = re.escape(f"point has shape {shape}, ambient dimension is 10")
        for check in checks:
            with pytest.raises(DimensionMismatch, match=f"^{message}$"):
                check(np.zeros(shape))

    def test_a_start_that_stops_at_once_is_copied(self):
        blocks = mixed_blocks()
        x0 = intersection_subspace(blocks).anchor.copy()
        inst = ProblemInstance(subspaces=tuple(blocks), ambient_dim=10)
        config = SolverConfig(method=Method.PCRM, stop_rule=StopRule.FEASIBILITY_RESIDUAL)
        result = solve(inst, config, x0)
        assert result.trace.iterations == [0]
        assert result.point.tobytes() == x0.tobytes()
        assert not np.shares_memory(result.point, x0)

    def test_stacks_are_read_only(self):
        kernel = affine._BlockKernel(mixed_blocks() + mixed_blocks(seed=6))
        for _, members, basis_t, anchors in kernel.groups:
            assert not basis_t.flags.writeable and not anchors.flags.writeable
            assert not isinstance(members, np.ndarray) or not members.flags.writeable

    def test_null_route_chunks_stay_small(self, rng):
        inst = build_instance(2000, 100, 0.1, 1)
        kernel = inst._kernel
        assert all(use_null for use_null, *_ in kernel.groups)
        stack_bytes = sum(basis_t.nbytes for _, _, basis_t, _ in kernel.groups)
        X = rng.standard_normal((500, 100))
        # One (rows, blocks, n) temporary for all 500 rows would be 21 times X.
        assert 500 * inst.block_count * X.itemsize * 100 > 20 * X.nbytes
        tracemalloc.start()
        try:
            D = kernel.distances(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (X.nbytes + stack_bytes)
        np.testing.assert_allclose(D.max(axis=-1), residual(inst.subspaces, X), rtol=0, atol=0)


class TestOneKernelPerInstance:
    def test_solvers_names_the_kernel_in_affine(self):
        assert solvers._BlockKernel is affine._BlockKernel

    def test_instance_builds_its_kernel_once(self, monkeypatch):
        built = []
        init = affine._BlockKernel.__init__

        def spy(kernel, subspaces):
            built.append(list(subspaces))
            init(kernel, subspaces)

        monkeypatch.setattr(affine._BlockKernel, "__init__", spy)
        inst = build_instance(400, 20, 0.1, 3)  # the known-solution check builds it
        blocks = list(inst.subspaces)
        assert built == [blocks]
        for method, workers in (("pcrm", 1), ("pcrm", 2), ("crm", 1), ("cimmino", 1), ("fspm", 1)):
            res = solve(inst, SolverConfig(method=method, workers=workers, record_residuals=True))
            assert res.trace.status is Status.CONVERGED
        estimate_regularity(inst, 50, 0)
        assert [b for b in built if b == blocks] == [blocks]
        # The only other kernel is the stacked intersection's, of one block.
        others = [b for b in built if b != blocks]
        assert len(others) == 1 and len(others[0]) == 1 and others[0][0] not in blocks

    @pytest.mark.parametrize("method, record", [
        ("pcrm", False), ("pcrm", True), ("crm", False), ("crm", True),
        ("cimmino", False), ("cimmino", True), ("fspm", False), ("fspm", True),
    ])
    def test_solve_points_match_operators_on_the_bare_blocks(self, method, record):
        inst = build_instance(300, 20, 0.1, 3)
        blocks = list(inst.subspaces)
        m = len(blocks)
        res = solve(inst, SolverConfig(method=method, tolerance=1e-6, record_residuals=record))
        assert res.trace.status is Status.CONVERGED and res.trace.iteration_count > 1
        x = np.zeros(inst.ambient_dim)
        for _ in range(res.trace.iteration_count):
            if method == "pcrm":
                x = pcrm_step(x, blocks)
            elif method == "crm":
                x = crm_step(x, blocks)
            else:
                weights = cimmino_weights(m) if method == "cimmino" else uniform_weights(m)
                x = fspm_step(x, blocks, weights)
        np.testing.assert_array_equal(res.point, x)


class TestBlockListCheck:
    """Every entry point that takes a block list checks it the same way."""

    ENTRY_POINTS = {
        "residual": lambda blocks, x: residual(blocks, x),
        # Weights written out: uniform_weights(0) raises before fspm_step sees the list.
        "fspm_step": lambda blocks, x: fspm_step(x, blocks, np.full(len(blocks) + 1,
                                                                    1.0 / (len(blocks) + 1))),
        "crm_step": lambda blocks, x: crm_step(x, blocks),
        "pcrm_step": lambda blocks, x: pcrm_step(x, blocks),
        "intersection_subspace": lambda blocks, x: intersection_subspace(blocks),
        "project_intersection": lambda blocks, x: project_intersection(blocks, x),
        "_BlockKernel": lambda blocks, x: affine._BlockKernel(blocks),
        "ProblemInstance": lambda blocks, x: ProblemInstance(subspaces=tuple(blocks),
                                                             ambient_dim=2),
    }

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_mixed_dimensions_raise_dimension_mismatch(self, entry):
        blocks = [AffineSubspace([[1.0, 0.0]], [0.0]), AffineSubspace([[1.0, 0.0, 0.0]], [0.0])]
        message = "^block 1 has ambient dimension 3, block 0 has 2$"
        with pytest.raises(DimensionMismatch, match=message):
            self.ENTRY_POINTS[entry](blocks, np.zeros(2))

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_empty_list_raises_value_error(self, entry):
        with pytest.raises(ValueError, match="^need at least one subspace$"):
            self.ENTRY_POINTS[entry]([], np.zeros(2))
