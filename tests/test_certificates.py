"""Graded-spectrum harness for the certified routes.

Each matrix has prescribed singular values sigma_1 = 1 > ... > sigma_k =
ratio, spaced geometrically, between orthogonal factors built as products
of seeded Householder reflectors.  Every certificate bounds
||T||_F * ||T^-1||_F for a triangle T whose singular values are exactly the
prescribed ones (the R of a QR of A or A^T, or the Cholesky factor L of
D D^T, squared), so its value is known in advance:

    kappa_F = sqrt(sum sigma_i^2 * sum sigma_i^-2).

For every route and every ratio from 1 down to 1e-14, a matrix whose
kappa_F clears QR_CONDITION_LIMIT by a factor of two must keep the fast
route and agree with an SVD oracle, and one whose kappa_F exceeds it by
that factor must take the fallback, counted by the svd_calls, tall_solves
and lstsq_calls spies.  Within that factor the decision may go either way.
A block agrees with the oracle on every route.  A wide circumcenter step
is checked only when certified: the fallback solves the Gram system, whose
condition number is kappa_2(D)^2, and may fail its misfit test.  A tall
one falls back to least squares on D itself, so a consistent system gives
the planted step on both outcomes.
"""

import numpy as np
import pytest

from circumproj import AffineSubspace, DegenerateSystem
from circumproj.affine import QR_CONDITION_LIMIT
from circumproj.circumcenters import _solve_differences
from oracles import svd_factors

RATIOS = [1.0, 1e-2, 1e-4, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-12, 1e-14]
SEEDS = [1, 2, 3]
EPS = np.finfo(float).eps

# Forward-error bounds against the oracle, in units of eps * kappa_2: anchors
# relative to 1 + ||z0||, projectors onto the row and null spaces entrywise.
ANCHOR_BOUND = 50.0
PROJECTOR_BOUND = 50.0


def householder_orthogonal(rng, size):
    """A size x size orthogonal matrix: the product of `size` random reflectors."""
    Q = np.eye(size)
    for _ in range(size):
        v = rng.standard_normal(size)
        Q -= np.outer(Q @ v, (2.0 / (v @ v)) * v)
    return Q


def graded(rng, rows, n, ratio):
    """(A, sigma): a rows x n matrix with singular values 1 down to `ratio`."""
    k = min(rows, n)
    sigma = ratio ** np.linspace(0.0, 1.0, k)
    left = householder_orthogonal(rng, rows)[:, :k]
    right = householder_orthogonal(rng, n)[:, :k]
    return (left * sigma) @ right.T, sigma


def kappa_f(sigma):
    """||T||_F * ||T^-1||_F of every triangle with singular values sigma."""
    return float(np.sqrt(np.sum(sigma ** 2) * np.sum(sigma ** -2.0)))


def expected_route(value, limit):
    """True when `value` passes `limit` by a factor of 2, False when it fails
    by that factor, None within it."""
    if value <= limit / 2.0:
        return True
    if value >= 2.0 * limit:
        return False
    return None


def assert_block_matches_oracle(U, A, b, kappa):
    rank, z0, row_basis, null_basis = svd_factors(A, b)
    assert U.rank == rank
    scale = EPS * kappa
    assert np.linalg.norm(U.anchor - z0) <= ANCHOR_BOUND * scale * (1.0 + np.linalg.norm(z0))
    # Bases are unique only up to rotation; their projectors are unique.
    for got, want in ((U.row_space_basis(), row_basis), (U.direction_basis(), null_basis)):
        assert got.shape == want.shape
        assert np.max(np.abs(got @ got.T - want @ want.T), initial=0.0) <= PROJECTOR_BOUND * scale


def sweep(route):
    """Run `route(ratio, seed)` -> certified? over the grid; both outcomes must occur."""
    seen = set()
    for seed in SEEDS:
        for ratio in RATIOS:
            seen.add(route(ratio, seed))
    assert {True, False} <= seen


@pytest.mark.parametrize("rows, n", [(8, 20), (20, 20)])
def test_wide_qr_route(svd_calls, rows, n):
    def route(ratio, seed):
        rng = np.random.default_rng(seed)
        A, sigma = graded(rng, rows, n, ratio)
        b = A @ rng.standard_normal(n)
        svd_calls.clear()
        U = AffineSubspace(A, b)
        certified = svd_calls == []
        assert svd_calls in ([], [(rows, n)])
        assert expected_route(kappa_f(sigma), QR_CONDITION_LIMIT) in (None, certified)
        assert_block_matches_oracle(U, A, b, sigma[0] / sigma[-1])
        return certified

    sweep(route)


def test_tall_qr_route(svd_calls, tall_solves):
    rows, n = 30, 12  # below the 4n rows of the prefix route

    def route(ratio, seed):
        rng = np.random.default_rng(seed)
        A, sigma = graded(rng, rows, n, ratio)
        b = A @ rng.standard_normal(n)
        svd_calls.clear()
        tall_solves.clear()
        U = AffineSubspace(A, b)
        certified = svd_calls == []
        assert tall_solves == [rows]
        assert svd_calls in ([], [(rows, n)])
        assert expected_route(kappa_f(sigma), QR_CONDITION_LIMIT) in (None, certified)
        assert_block_matches_oracle(U, A, b, sigma[0] / sigma[-1])
        return certified

    sweep(route)


def test_prefix_route(svd_calls, tall_solves):
    # The graded part is the whole 2n-row prefix; a well-conditioned Gaussian
    # tail keeps the whole stack certified, so a rejected prefix costs one
    # whole-stack QR and never the SVD.
    n, tail = 12, 36

    def route(ratio, seed):
        rng = np.random.default_rng(seed)
        head, sigma = graded(rng, 2 * n, n, ratio)
        A = np.vstack([head, rng.standard_normal((tail, n))])
        b = A @ rng.standard_normal(n)
        tall_solves.clear()
        U = AffineSubspace(A, b)
        certified = tall_solves == [2 * n]
        assert tall_solves in ([2 * n], [2 * n, 2 * n + tail])
        assert svd_calls == []
        assert expected_route(kappa_f(sigma), QR_CONDITION_LIMIT) in (None, certified)
        # A certified prefix's solution carries the prefix's condition number.
        assert_block_matches_oracle(U, A, b, max(sigma[0] / sigma[-1], np.linalg.cond(A)))
        return certified

    sweep(route)


def solve_or_none(D, r):
    try:
        return _solve_differences(D, r)
    except DegenerateSystem:
        return None


@pytest.mark.parametrize("m, n", [(8, 20), (20, 20)])
def test_wide_cholesky_route(lstsq_calls, m, n):
    # G = D D^T has singular values sigma^2, and (||L||_F ||L^-1||_F)^2 is
    # kappa_F(sigma)^2 for its Cholesky factor L.
    def route(ratio, seed):
        rng = np.random.default_rng(seed)
        D, sigma = graded(rng, m, n, ratio)
        y = D.T @ rng.standard_normal(m)  # in range(D^T): the minimum-norm solution
        lstsq_calls.clear()
        step = solve_or_none(D, D @ y)
        certified = lstsq_calls == []
        assert lstsq_calls in ([], [(m, m)])
        assert expected_route(kappa_f(sigma) ** 2, QR_CONDITION_LIMIT) in (None, certified)
        if certified:
            kappa = sigma[0] / sigma[-1]
            assert np.linalg.norm(step - y) <= ANCHOR_BOUND * EPS * kappa ** 2 * np.linalg.norm(y)
        return certified

    sweep(route)


def tall_circumcenter_step(lstsq_calls, ratio, seed, m=30, n=12):
    """Whether the graded tall system D y = D y_planted took its certificate;
    either way the step must be y_planted to the tall bound."""
    rng = np.random.default_rng(seed)
    D, sigma = graded(rng, m, n, ratio)
    y = rng.standard_normal(n)
    lstsq_calls.clear()
    step = _solve_differences(D, D @ y)
    certified = lstsq_calls == []
    assert lstsq_calls in ([], [(m, n)])
    assert expected_route(kappa_f(sigma), QR_CONDITION_LIMIT) in (None, certified)
    kappa = sigma[0] / sigma[-1]
    assert np.linalg.norm(step - y) <= ANCHOR_BOUND * EPS * kappa * np.linalg.norm(y)
    return certified


def test_tall_circumcenter_route(lstsq_calls):
    sweep(lambda ratio, seed: tall_circumcenter_step(lstsq_calls, ratio, seed))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ratio", [1e-8, 1e-9, 1e-10, 1e-12])
def test_tall_circumcenter_fallback_keeps_the_planted_step(lstsq_calls, ratio, seed):
    # Least squares on the Gram D D^T, whose condition is kappa_2(D)^2,
    # raised DegenerateSystem or missed the step by up to 0.77 relative here.
    tall_circumcenter_step(lstsq_calls, ratio, seed)
