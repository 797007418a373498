import importlib
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circumproj
import circumproj.circumcenters as circumcenters
from circumproj import (
    DegenerateSystem,
    DimensionMismatch,
    build_instance,
    circumcenter,
    gram_system,
    pcrm_step,
)
from circumproj import solvers


@pytest.fixture
def lstsq_calls(monkeypatch):
    """Shapes of the Gram systems solved by least squares."""
    calls = []
    lstsq = np.linalg.lstsq

    def spy(a, b, rcond=None):
        calls.append(a.shape)
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    return calls


def gram_circumcenter(points):
    """The Gram route alone: minimum-norm least squares on the normal system."""
    system = gram_system(points)
    alpha = np.linalg.lstsq(system.gram, system.rhs, rcond=None)[0]
    return system.base_point + alpha @ system.differences


def sphere_points(rng, k, center, radius):
    """k random points on the sphere of `radius` about `center`."""
    u = rng.standard_normal((k, center.size))
    return center + radius * u / np.linalg.norm(u, axis=1, keepdims=True)


class TestGramSystem:
    def test_right_triangle(self):
        sys = gram_system([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(sys.gram, [[4.0, 0.0], [0.0, 4.0]])
        np.testing.assert_array_equal(sys.rhs, [2.0, 2.0])

    def test_single_point_empty(self):
        sys = gram_system([[1.0, 2.0, 3.0]])
        assert sys.gram.shape == (0, 0)
        assert sys.rhs.shape == (0,)
        np.testing.assert_array_equal(sys.base_point, [1.0, 2.0, 3.0])

    def test_duplicated_point_rank_one(self):
        sys = gram_system([[0.0, 0.0], [2.0, 0.0], [2.0, 0.0]])
        np.testing.assert_array_equal(sys.gram, [[4.0, 4.0], [4.0, 4.0]])
        np.testing.assert_array_equal(sys.rhs, [2.0, 2.0])
        assert np.linalg.matrix_rank(sys.gram) == 1

    def test_ragged_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            gram_system([[1.0, 2.0], [1.0, 2.0, 3.0]])

    def test_gram_symmetric_psd(self, rng):
        pts = rng.standard_normal((6, 4))
        sys = gram_system(pts)
        np.testing.assert_allclose(sys.gram, sys.gram.T, atol=1e-12)
        assert np.linalg.eigvalsh(sys.gram).min() > -1e-10


class TestCircumcenter:
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
        assert lstsq_calls == [(8, 8)]
        np.testing.assert_array_equal(c, gram_circumcenter(pts))
        np.testing.assert_allclose(c, center, rtol=0, atol=1e-10)

    def test_repeated_points_fall_back(self, rng, lstsq_calls):
        # Three distinct points on a sphere in R^3, each twice: rank 2 < 3.
        center = rng.standard_normal(3)
        pts = np.repeat(sphere_points(rng, 3, center, 1.5), 2, axis=0)
        c = circumcenter(pts)
        assert lstsq_calls == [(5, 5)]
        np.testing.assert_array_equal(c, gram_circumcenter(pts))
        dists = np.linalg.norm(pts - c, axis=1)
        assert dists.max() - dists.min() <= 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pcrm_step_matches_gram_solve(self, monkeypatch, seed):
        inst = build_instance(1250, 10, 0.1, seed)
        seen = []

        def spy(points):
            seen.append(np.array(points))
            return circumcenter(points)

        monkeypatch.setattr(solvers, "circumcenter", spy)
        for x in (np.zeros(10), np.linspace(-1.0, 1.0, 10)):
            y = pcrm_step(x, inst.subspaces)
            assert seen[-1].shape == (127, 10)
            expected = gram_circumcenter(seen[-1])
            assert np.linalg.norm(y - expected) <= 1e-10 * np.linalg.norm(expected)


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
    assert circumproj.gram_system is circumcenters.gram_system
    assert circumproj.CircumcenterSystem is circumcenters.CircumcenterSystem
