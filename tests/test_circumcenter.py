import importlib
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circumproj
import circumproj.circumcenters as circumcenters
from circumproj import (
    DegenerateSystem,
    DimensionMismatch,
    Method,
    ProblemInstance,
    SolverConfig,
    build_instance,
    build_underdetermined_instance,
    circumcenter,
    pcrm_step,
    project_intersection,
    solve,
)
from circumproj import solvers
from oracles import gram_circumcenter


def sphere_points(rng, k, center, radius):
    """k random points on the sphere of `radius` about `center`."""
    u = rng.standard_normal((k, center.size))
    return center + radius * u / np.linalg.norm(u, axis=1, keepdims=True)


class TestCircumcenter:
    def test_ragged_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            circumcenter([[1.0, 2.0], [1.0, 2.0, 3.0]])

    def test_no_points_rejected(self):
        with pytest.raises(DimensionMismatch, match="expected a nonempty sequence of points"):
            circumcenter([])

    def test_single_point(self):
        c = circumcenter([[5.0, -1.0]])
        np.testing.assert_array_equal(c, [5.0, -1.0])

    def test_two_points_midpoint(self):
        np.testing.assert_allclose(circumcenter([[0.0, 0.0], [2.0, 0.0]]), [1.0, 0.0])

    def test_right_triangle(self):
        c = circumcenter([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(c, [1.0, 1.0])
        assert np.isclose(np.linalg.norm(c), np.sqrt(2.0))

    def test_duplicated_point_min_norm(self):
        # rank-1 Gram system; minimum-norm solve lands on the midpoint
        c = circumcenter([[0.0, 0.0], [2.0, 0.0], [2.0, 0.0]])
        np.testing.assert_allclose(c, [1.0, 0.0])
        assert np.isclose(np.linalg.norm(c - [0.0, 0.0]), np.linalg.norm(c - [2.0, 0.0]))

    def test_coincident_points_exact_fixed_point(self):
        x = np.array([0.3, -1.7, 2.2])
        c = circumcenter([x, x, x])
        np.testing.assert_array_equal(c, x)

    def test_collinear_points_degenerate(self):
        with pytest.raises(DegenerateSystem):
            circumcenter([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])

    def test_equidistance_random_sets(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 11))
            k = int(rng.integers(2, n + 2))  # up to n+1 points
            pts = rng.standard_normal((k, n))
            c = circumcenter(pts)
            dists = np.linalg.norm(pts - c, axis=1)
            diameter = max(
                np.linalg.norm(pts[i] - pts[j]) for i in range(k) for j in range(k)
            )
            assert dists.max() - dists.min() <= 1e-8 * (1.0 + diameter)

    def test_hull_membership(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(2, n + 2))
            pts = rng.standard_normal((k, n))
            c = circumcenter(pts)
            D = (pts[1:] - pts[0]).T  # span of the hull directions
            coeffs, *_ = np.linalg.lstsq(D, c - pts[0], rcond=None)
            assert np.linalg.norm(D @ coeffs - (c - pts[0])) <= 1e-10

    def test_rigid_motion_equivariance(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(2, n + 2))
            pts = rng.standard_normal((k, n))
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            t = rng.standard_normal(n)
            moved = pts @ Q.T + t
            np.testing.assert_allclose(
                circumcenter(moved), Q @ circumcenter(pts) + t, atol=1e-8
            )

    def test_duplicate_input_invariance(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(2, n + 1))
            pts = rng.standard_normal((k, n))
            c = circumcenter(pts)
            dup = int(rng.integers(0, k))
            with_dup = np.vstack([pts, pts[dup]])
            np.testing.assert_allclose(circumcenter(with_dup), c, atol=1e-8)

    @pytest.mark.parametrize("points", [
        [[np.nan, 0.0], [1.0, 1.0]],
        [[0.0, 0.0], [np.inf, 1.0]],
        [[0.0, 0.0], [1.0, 0.0], [0.0, -np.inf]],
        [[1e200, 0.0], [-1e200, 1.0]],
        [[1e200, 0.0], [-1e200, 1.0], [0.0, 0.0], [1.0, 1.0]],
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [np.nan, 1.0]],
    ])
    def test_non_finite_input_raises_typed_and_silently(self, points, capfd):
        with pytest.raises(DegenerateSystem, match="not finite"):
            circumcenter(points)
        assert capfd.readouterr() == ("", "")

    def test_a_power_of_two_scale_commutes_bitwise(self, rng):
        # Differences near 2^260 square to about 1e157, so ||r||^2 overflows:
        # the misfit test must stay a test rather than read its limit as inf.
        scale = 2.0 ** 260
        for _ in range(20):
            pts = rng.standard_normal((4, 6))
            np.testing.assert_array_equal(circumcenter(scale * pts), scale * circumcenter(pts))


class TestTallRoute:
    """More points than dimensions plus one: the certified R-only QR route."""

    @pytest.mark.parametrize("n, k", [(2, 4), (5, 9), (20, 41), (100, 127)])
    def test_cospherical_sets_give_the_center(self, rng, lstsq_calls, n, k):
        center = rng.standard_normal(n)
        pts = sphere_points(rng, k, center, 2.0)
        np.testing.assert_allclose(circumcenter(pts), center, rtol=0, atol=1e-10)
        # A zero difference row, as when x already lies in a block.
        np.testing.assert_allclose(circumcenter(np.vstack([pts[:1], pts])), center,
                                   rtol=0, atol=1e-10)
        assert lstsq_calls == []

    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_generic_sets_raise(self, rng, lstsq_calls, n):
        with pytest.raises(DegenerateSystem):
            circumcenter(rng.standard_normal((n + 2, n)))
        assert lstsq_calls == []

    def test_lower_dimensional_hull_falls_back(self, rng, lstsq_calls):
        # Nine points on a circle in a 2-plane of R^5: 8 differences of rank 2.
        frame, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        center = rng.standard_normal(5)
        angles = rng.uniform(0.0, 2.0 * np.pi, 9)
        pts = center + 3.0 * np.column_stack([np.cos(angles), np.sin(angles)]) @ frame.T
        c = circumcenter(pts)
        # Least squares on the 8 x 5 differences themselves, not their Gram.
        assert lstsq_calls == [(8, 5)]
        np.testing.assert_allclose(c, gram_circumcenter(pts), rtol=0, atol=1e-12)
        np.testing.assert_allclose(c, center, rtol=0, atol=1e-10)

    def test_repeated_points_fall_back(self, rng, lstsq_calls):
        # Three distinct points on a sphere in R^3, each twice: rank 2 < 3.
        center = rng.standard_normal(3)
        pts = np.repeat(sphere_points(rng, 3, center, 1.5), 2, axis=0)
        c = circumcenter(pts)
        assert lstsq_calls == [(5, 3)]
        np.testing.assert_allclose(c, gram_circumcenter(pts), rtol=0, atol=1e-12)
        dists = np.linalg.norm(pts - c, axis=1)
        assert dists.max() - dists.min() <= 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pcrm_step_matches_gram_solve(self, seed):
        inst = build_instance(1250, 10, 0.1, seed)
        for x in (np.zeros(10), np.linspace(-1.0, 1.0, 10)):
            y = pcrm_step(x, inst.subspaces)
            points = np.stack([x] + [2.0 * U.project(x) - x for U in inst.subspaces])
            assert points.shape == (127, 10)
            expected = gram_circumcenter(points)
            assert np.linalg.norm(y - expected) <= 1e-10 * np.linalg.norm(expected)


def flat_sphere_points(rng, k, n, center, radius):
    """k + 1 random points on the sphere of `radius` about `center` within a
    random k-flat through `center` in R^n."""
    frame, _ = np.linalg.qr(rng.standard_normal((n, k)))
    u = rng.standard_normal((k + 1, k))
    return center + radius * (u / np.linalg.norm(u, axis=1, keepdims=True)) @ frame.T


class TestWideRoute:
    """At most as many differences as dimensions: the certified Cholesky route."""

    def test_near_dependent_set_falls_back(self, rng, lstsq_calls):
        # Two of five points on a sphere in a 4-flat of R^8 are 1e-6 apart.
        center = rng.standard_normal(8)
        pts = flat_sphere_points(rng, 4, 8, center, 2.0)
        pts[3] = pts[2] + 1e-6 * (pts[4] - pts[2])
        pts[3] = center + 2.0 * (pts[3] - center) / np.linalg.norm(pts[3] - center)
        diffs = pts[1:] - pts[0]
        assert np.linalg.cond(diffs @ diffs.T) > 1e8
        c = circumcenter(pts)
        assert lstsq_calls == [(4, 4)]
        np.testing.assert_array_equal(c, gram_circumcenter(pts))

    @pytest.mark.parametrize("repeat", [0, 2])
    def test_duplicate_points_fall_back(self, rng, lstsq_calls, repeat):
        # Three points on a circle in a 2-plane of R^5, one given twice.
        center = rng.standard_normal(5)
        pts = flat_sphere_points(rng, 2, 5, center, 3.0)
        pts = np.vstack([pts, pts[repeat]])
        c = circumcenter(pts)
        assert lstsq_calls == [(3, 3)]
        np.testing.assert_array_equal(c, gram_circumcenter(pts))
        np.testing.assert_allclose(c, center, rtol=0, atol=1e-10)

    def test_noise_length_difference_falls_back(self, rng, lstsq_calls):
        # x_1 differs from x_0 by rounding noise, as when x lies on one block:
        # its direction must count as dependence, not be followed.
        center = rng.standard_normal(8)
        pts = flat_sphere_points(rng, 4, 8, center, 2.0)
        pts = np.vstack([pts[:1], pts[:1] + 1e-15 * rng.standard_normal(8), pts[1:]])
        c = circumcenter(pts)
        assert lstsq_calls == [(5, 5)]
        np.testing.assert_array_equal(c, gram_circumcenter(pts))
        np.testing.assert_allclose(c, center, rtol=0, atol=1e-8)

    # Seeds 2 and 6 each reach one P-CRM iterate where one difference is
    # about 1e5 times shorter than the others, so that kappa_2(G) is 2.6e10
    # and 1.4e8 there and the step falls back.
    @pytest.mark.parametrize("seed, fallbacks", [(1, 0), (2, 1), (6, 1)])
    def test_circumcentered_solves_take_the_cholesky_route(self, monkeypatch, seed, fallbacks):
        conditions = []
        lstsq = np.linalg.lstsq

        def spy(a, b, rcond=None):
            conditions.append(np.linalg.cond(a) * a.shape[0] ** 2)
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        inst = build_underdetermined_instance(40, [2] * 12, 0.0, seed)
        oracle = project_intersection(inst.subspaces, np.zeros(40))
        inst = ProblemInstance(subspaces=inst.subspaces, ambient_dim=40, known_solution=oracle)
        conditions.clear()
        for method in (Method.PCRM, Method.CRM):
            res = solve(inst, SolverConfig(method=method, tolerance=1e-6))
            assert res.trace.iteration_count > 10
        assert len(conditions) == fallbacks
        # The certificate overstates kappa_2(G) by at most m^2, so a fallback
        # means m^2 kappa_2(G) > QR_CONDITION_LIMIT.
        assert all(bound > 1e8 for bound in conditions)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 12),
    codim=st.integers(1, 30),
    scale_exponent=st.integers(-6, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_cospherical_wide_sets_at_any_scale(k, codim, scale_exponent, seed):
    """k + 1 points on a sphere in a random k-flat of R^(k + codim): the
    circumcenter is its center, at radii from 1e-6 to 1e6, and no set
    falls back to least squares.  From k = 2: the two points of a 0-sphere
    may coincide."""
    rng = np.random.default_rng(seed)
    radius = 10.0 ** scale_exponent
    center = radius * rng.standard_normal(k + codim)
    pts = flat_sphere_points(rng, k, k + codim, center, radius)
    with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
        c = circumcenter(pts)
    assert lstsq.call_count == 0
    assert np.linalg.norm(c - center) <= 1e-10 * radius


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    # From n = 2: three points on the 0-sphere in R^1 may coincide.
    n=st.integers(2, 12),
    extra=st.integers(1, 30),
    scale_exponent=st.integers(-6, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_cospherical_tall_sets_at_any_scale(n, extra, scale_exponent, seed):
    """n + 1 + extra points on a sphere: the circumcenter is its center, at
    radii from 1e-6 to 1e6."""
    rng = np.random.default_rng(seed)
    radius = 10.0 ** scale_exponent
    center = radius * rng.standard_normal(n)
    pts = sphere_points(rng, n + 1 + extra, center, radius)
    c = circumcenter(pts)
    assert np.linalg.norm(c - center) <= 1e-10 * radius


def test_module_and_function_keep_their_names():
    assert isinstance(circumcenters, types.ModuleType)
    assert importlib.import_module("circumproj.circumcenters") is circumcenters
    assert circumcenters.SOLVE_RTOL == 1e-8
    assert circumproj.circumcenter is circumcenters.circumcenter
    assert solvers.circumcenter is circumcenters.circumcenter
