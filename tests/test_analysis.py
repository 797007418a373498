import numpy as np
import pytest

from circumproj import (
    AffineSubspace,
    EmptyIntersection,
    ProblemInstance,
    angle_report,
    build_instance,
    build_underdetermined_instance,
    error_bound_constant,
    estimate_regularity,
    friedrichs_cosine,
    intersection_subspace,
    verify_error_bound,
)
from circumproj.analysis import _sample_points


def x_axis():
    return AffineSubspace([[0.0, 1.0]], [0.0])


def y_axis():
    return AffineSubspace([[1.0, 0.0]], [0.0])


def diagonal_line():
    return AffineSubspace([[1.0, -1.0]], [0.0])  # y = x


class TestDirectionBasis:
    def test_coordinate_hyperplane(self):
        B = AffineSubspace([[1.0, 0.0]], [0.0]).direction_basis()
        assert B.shape == (2, 1)
        np.testing.assert_allclose(np.abs(B[:, 0]), [0.0, 1.0], atol=1e-14)

    def test_point_has_empty_basis(self):
        U = AffineSubspace([[1.0, 0.0], [0.0, 1.0]], [2.0, 3.0])
        assert U.direction_basis().shape == (2, 0)

    def test_random_block(self, rng):
        A = rng.standard_normal((3, 7))
        z = rng.standard_normal(7)
        B = AffineSubspace(A, A @ z).direction_basis()
        assert B.shape == (7, 4)
        assert np.max(np.abs(A @ B)) < 1e-12
        np.testing.assert_allclose(B.T @ B, np.eye(4), atol=1e-12)


class TestFriedrichsCosine:
    def test_orthogonal_lines(self):
        assert abs(friedrichs_cosine(x_axis(), y_axis())) <= 1e-10

    def test_forty_five_degrees(self):
        c = friedrichs_cosine(x_axis(), diagonal_line())
        assert abs(c - np.cos(np.pi / 4.0)) <= 1e-10

    def test_identical_subspaces_deflate_to_zero(self):
        report = angle_report(x_axis(), x_axis())
        assert report.friedrichs_cosine == 0.0
        assert report.intersection_dim == 1  # the whole shared direction space

    def test_empty_intersection_rejected(self):
        U = AffineSubspace([[1.0, 0.0]], [0.0])
        V = AffineSubspace([[1.0, 0.0]], [1.0])
        with pytest.raises(EmptyIntersection):
            friedrichs_cosine(U, V)

    def test_symmetry(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 8))
            planted = rng.standard_normal(n)
            A1 = rng.standard_normal((int(rng.integers(1, 3)), n))
            A2 = rng.standard_normal((int(rng.integers(1, 3)), n))
            U = AffineSubspace(A1, A1 @ planted)
            V = AffineSubspace(A2, A2 @ planted)
            assert abs(friedrichs_cosine(U, V) - friedrichs_cosine(V, U)) <= 1e-12

    def test_rotation_invariance(self, rng):
        n = 6
        planted = rng.standard_normal(n)
        A1 = rng.standard_normal((2, n))
        A2 = rng.standard_normal((2, n))
        U = AffineSubspace(A1, A1 @ planted)
        V = AffineSubspace(A2, A2 @ planted)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        # {Qx : Ax = b} = {y : A Q^T y = b}
        U_rot = AffineSubspace(A1 @ Q.T, A1 @ planted)
        V_rot = AffineSubspace(A2 @ Q.T, A2 @ planted)
        assert abs(friedrichs_cosine(U, V) - friedrichs_cosine(U_rot, V_rot)) <= 1e-10


class TestErrorBoundConstant:
    def test_orthogonal_case(self):
        assert abs(error_bound_constant(x_axis(), y_axis()) - np.sqrt(5.0)) <= 1e-12

    def test_forty_five_degree_case(self):
        # c_F = sqrt(2)/2 gives 1 + 4 / (1/2) = 9
        assert abs(error_bound_constant(x_axis(), diagonal_line()) - 3.0) <= 1e-12

    def test_bound_holds_on_samples(self, rng):
        for _ in range(5):
            n = int(rng.integers(3, 8))
            planted = rng.standard_normal(n)
            A1 = rng.standard_normal((int(rng.integers(1, 3)), n))
            A2 = rng.standard_normal((int(rng.integers(1, 3)), n))
            U = AffineSubspace(A1, A1 @ planted)
            V = AffineSubspace(A2, A2 @ planted)
            r = error_bound_constant(U, V)
            stacked = intersection_subspace([U, V])
            X = rng.standard_normal((2000, n))
            lhs = stacked.distance(X)
            rhs = r * np.maximum(U.distance(X), V.distance(X))
            assert np.all(lhs <= rhs + 1e-9)

    def test_report_consistency(self, rng):
        n = 5
        planted = rng.standard_normal(n)
        A1 = rng.standard_normal((2, n))
        A2 = rng.standard_normal((1, n))
        report = angle_report(AffineSubspace(A1, A1 @ planted),
                              AffineSubspace(A2, A2 @ planted))
        c = report.friedrichs_cosine
        assert 0.0 <= c < 1.0
        assert np.isclose(report.error_bound_constant, np.sqrt(1.0 + 4.0 / (1.0 - c * c)))
        assert list(report.principal_cosines) == sorted(report.principal_cosines,
                                                        reverse=True)



@pytest.mark.parametrize("pair", [
    lambda rng: (x_axis(), y_axis()),
    lambda rng: (x_axis(), diagonal_line()),
    lambda rng: (x_axis(), x_axis()),
    lambda rng: tuple(AffineSubspace(A, A @ np.ones(6))
                      for A in (rng.standard_normal((2, 6)), rng.standard_normal((3, 6)))),
])
def test_scalar_diagnostics_are_the_report_fields(rng, pair):
    U, V = pair(rng)
    report = angle_report(U, V)
    assert friedrichs_cosine(U, V) == report.friedrichs_cosine
    assert error_bound_constant(U, V) == report.error_bound_constant


class TestEstimateRegularity:
    def test_single_block_exactly_one(self, rng):
        A = rng.standard_normal((2, 6))
        z = rng.standard_normal(6)
        inst = ProblemInstance(
            subspaces=(AffineSubspace(A, A @ z),), ambient_dim=6
        )
        assert estimate_regularity(inst, 50, seed=0) == 1.0

    def test_block_holding_every_point_is_exactly_one(self):
        # 0 x = 0: every sampled point is in the block, so none is kept.
        inst = ProblemInstance(subspaces=(AffineSubspace([[0.0, 0.0]], [0.0]),), ambient_dim=2)
        assert estimate_regularity(inst, 50, seed=0) == 1.0

    def test_orthogonal_lines_within_bound(self):
        inst = ProblemInstance(subspaces=(x_axis(), y_axis()), ambient_dim=2)
        value = estimate_regularity(inst, 10_000, seed=1)
        assert 1.0 - 1e-9 <= value <= np.sqrt(5.0)

    def test_at_least_one(self, rng):
        for seed in range(5):
            n = int(rng.integers(3, 8))
            planted = rng.standard_normal(n)
            subs = []
            for i in range(3):
                A = rng.standard_normal((1, n))
                subs.append(AffineSubspace(A, A @ planted, label=i))
            inst = ProblemInstance(subspaces=tuple(subs), ambient_dim=n)
            assert estimate_regularity(inst, 200, seed=seed) >= 1.0 - 1e-9

    def test_deterministic_in_seed(self):
        inst = ProblemInstance(subspaces=(x_axis(), diagonal_line()), ambient_dim=2)
        a = estimate_regularity(inst, 500, seed=7)
        b = estimate_regularity(inst, 500, seed=7)
        assert a == b

    @pytest.mark.parametrize("samples", [0, -1])
    def test_nonpositive_samples_rejected(self, samples):
        inst = ProblemInstance(subspaces=(x_axis(), y_axis()), ambient_dim=2)
        with pytest.raises(ValueError, match="samples"):
            estimate_regularity(inst, samples, seed=0)


class TestVerifyErrorBound:
    def test_orthogonal_lines_hold_their_constant(self):
        assert verify_error_bound(x_axis(), y_axis(), np.sqrt(5.0), 2000, seed=3) is True

    def test_too_small_constant_fails(self):
        # dist(x, U∩V) >= max(dist(x, U), dist(x, V)) for every x.
        assert verify_error_bound(x_axis(), diagonal_line(), 0.5, 200, seed=3) is False

    def test_report_constant_holds_on_random_pair(self, rng):
        n = 7
        planted = rng.standard_normal(n)
        A1, A2 = rng.standard_normal((2, n)), rng.standard_normal((3, n))
        U, V = AffineSubspace(A1, A1 @ planted), AffineSubspace(A2, A2 @ planted)
        constant = angle_report(U, V).error_bound_constant
        assert verify_error_bound(U, V, constant, 1000, seed=1)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_nonpositive_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="samples"):
            verify_error_bound(x_axis(), y_axis(), np.sqrt(5.0), samples, seed=0)

    def test_nan_constant_verifies_nothing(self):
        assert verify_error_bound(x_axis(), y_axis(), float("nan"), 10, seed=0) is False


def test_samples_are_the_anchor_plus_normal_draws():
    U = AffineSubspace([[1.0, 2.0, -1.0]], [3.0])
    want = U.anchor + np.random.default_rng(5).standard_normal((40, 3))
    assert _sample_points(U, 40, 5).tobytes() == want.tobytes()


class TestRegularityOnWorkloadFamilies:
    """The estimate before the per-block distances were read off one stacked
    kernel, to 1e-12 relative, on small instances of the three benchmark
    workload families."""

    @pytest.mark.parametrize("build, expected", [
        (lambda: build_instance(2000, 100, 0.1, 1), 1.012972617556678),
        (lambda: build_instance(2500, 20, 0.1, 1), 1.0),
        (lambda: build_underdetermined_instance(400, [20] * 12, 0.0, 12), 3.340121252653828),
    ], ids=["protocol-tall", "many-blocks", "slow-angles"])
    def test_matches_the_per_block_estimate(self, build, expected):
        assert estimate_regularity(build(), 500, 0) == pytest.approx(expected, rel=1e-12, abs=0)


class TestSampleCount:
    @pytest.mark.parametrize("samples", [2.7, 2.0, True, "5", None])
    def test_non_integral_samples_rejected(self, samples):
        inst = ProblemInstance(subspaces=(x_axis(), diagonal_line()), ambient_dim=2)
        with pytest.raises(ValueError, match="samples"):
            estimate_regularity(inst, samples, seed=0)
        with pytest.raises(ValueError, match="samples"):
            verify_error_bound(x_axis(), y_axis(), np.sqrt(5.0), samples, seed=0)

    def test_numpy_integers_accepted(self):
        inst = ProblemInstance(subspaces=(x_axis(), diagonal_line()), ambient_dim=2)
        assert estimate_regularity(inst, np.int64(40), 3) == estimate_regularity(inst, 40, 3)
        assert verify_error_bound(x_axis(), y_axis(), np.sqrt(5.0), np.int32(40), seed=3)
