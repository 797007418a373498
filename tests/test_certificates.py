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

import tracemalloc

import numpy as np
import pytest

from circumproj import (
    AffineSubspace,
    DegenerateSystem,
    SolverConfig,
    _lapack,
    build_instance,
    build_underdetermined_instance,
    circumcenters,
    solve,
)
from circumproj._lapack import QR_CONDITION_LIMIT
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


# Bytes: every certified route against the numpy.linalg formula it stands for.
# The references below are the routes written with np.linalg.inv, solve,
# cholesky and norm, np.triu and np.zeros_like; the library calls the same
# LAPACK gufuncs and np.where directly, and must give the same bytes, the
# same None or the same LinAlgError, with no warning.


def np_triangular_inverse(T):
    k = T.shape[0]
    if k <= _lapack._TRIANGULAR_LEAF:
        return np.linalg.inv(T)
    h = k // 2
    X11 = np_triangular_inverse(T[:h, :h])
    X22 = np_triangular_inverse(T[h:, h:])
    X = np.zeros_like(T)
    X[:h, :h] = X11
    X[h:, h:] = X22
    X[:h, h:] = -(X11 @ T[:h, h:]) @ X22
    return X


def np_triangular_solve(T, W):
    k = T.shape[0]
    if k <= _lapack._TRIANGULAR_LEAF:
        return np.linalg.solve(T, W)
    h = k // 2
    Y2 = np_triangular_solve(T[h:, h:], W[h:])
    Y1 = np_triangular_solve(T[:h, :h], W[:h] - T[:h, h:] @ Y2)
    return np.concatenate([Y1, Y2])


def np_certified_inverse(T):
    try:
        with np.errstate(all="ignore"):
            T_inv = np_triangular_inverse(T)
            bound = np.linalg.norm(T) * np.linalg.norm(T_inv)
    except np.linalg.LinAlgError:
        return None
    return T_inv if bound <= QR_CONDITION_LIMIT else None


def np_certified_cholesky_solve(gram, rhs):
    try:
        L = np.linalg.cholesky(gram)
        L_inv = np.linalg.inv(L)
    except np.linalg.LinAlgError:
        return None
    if not np.vdot(L, L) * np.vdot(L_inv, L_inv) <= QR_CONDITION_LIMIT:
        return None
    return rhs @ L_inv.T @ L_inv


def np_certified_tall_solve(A, b):
    n = A.shape[1]
    h, _ = np.linalg.qr(np.column_stack([A, b]), mode="raw")
    R_inv = np_certified_inverse(np.ascontiguousarray(np.triu(h[:n, :n].T)))
    return None if R_inv is None else R_inv @ h[n, :n]


def np_apply_q(h, tau, C, leading=0):
    k = tau.shape[0]
    for s in reversed(range(0, k, _lapack._WY_PANEL)):
        e = min(s + _lapack._WY_PANEL, k)
        Vt = np.triu(h[s:e, s:], 1)
        live = tau[s:e] != 0
        Vt[~live] = 0.0
        d = np.arange(e - s)
        Vt[d, d] = live
        G = Vt @ Vt.T
        T_inv = np.triu(G, 1)
        T_inv[d, d] = np.where(live, 0.5 * G[d, d], 1.0)
        X = C[s:, min(s, leading):]
        X -= Vt.T @ np_triangular_solve(T_inv, Vt @ X)


def outcome(route, *args):
    """route(*args), or LinAlgError when it raises one."""
    try:
        return route(*args)
    except np.linalg.LinAlgError:
        return np.linalg.LinAlgError


def assert_same_outcome(got, want):
    if want is None or want is np.linalg.LinAlgError:
        assert got is want
        return
    assert isinstance(got, np.ndarray) and got.shape == want.shape
    assert (got.flags.c_contiguous, got.flags.f_contiguous) == (
        want.flags.c_contiguous, want.flags.f_contiguous)
    assert got.tobytes(order="A") == want.tobytes(order="A")


def graded_triangle(rng, k, ratio):
    """The R of a QR of a k x k matrix with singular values 1 down to `ratio`."""
    return np.linalg.qr(graded(rng, k, k, ratio)[0], mode="r")


def broken(M, kind):
    """A copy of M with one entry made nan or inf, or one diagonal entry zero."""
    M = M.copy()
    j = min(M.shape) * 2 // 3
    if kind == "singular":
        M[j, j] = 0.0
    else:
        M[j // 2, j] = np.nan if kind == "nan" else np.inf
    return M


EDGES = ["singular", "nan", "inf"]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("k", [20, 99])
def test_certified_inverse_is_numpys_bitwise(k, order):
    # k = 20 is one LAPACK leaf; k = 99 recurses to four.
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        triangles = [graded_triangle(rng, k, ratio) for ratio in RATIOS]
        triangles += [broken(triangles[0], kind) for kind in EDGES]
        seen = set()
        for T in triangles:
            T = np.asarray(T, order=order)
            want = np_certified_inverse(T)
            # A copy: the library writes the inverse over its argument.
            assert_same_outcome(_lapack._certified_inverse(T.copy(order="K")), want)
            seen.add(want is None)
            if want is not None:
                # The certificate's norms sum in memory order, as numpy's do.
                assert _lapack._frobenius(T) == np.linalg.norm(T)
                assert _lapack._frobenius(want) == np.linalg.norm(want)
        assert seen == {True, False}


@pytest.mark.parametrize("order", ["C", "F"])
def test_certified_inverse_allocates_no_second_triangle(order):
    # Above one leaf the inverse is written over T: beside it only the top
    # level's two off-diagonal products are live, half a T in all.  A new
    # result per level, with the diagonal blocks' inverses, peaked at two T.
    T = np.asarray(graded_triangle(np.random.default_rng(1), 400, 1e-3), order=order)
    want = np_certified_inverse(T)
    tracemalloc.start()
    try:
        got = _lapack._certified_inverse(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is T
    assert_same_outcome(got, want)
    assert peak < 1.5 * T.nbytes


@pytest.mark.parametrize("k", [20, 99])
def test_triangular_solve_is_numpys_bitwise(k):
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        triangles = [graded_triangle(rng, k, ratio) for ratio in RATIOS]
        triangles += [broken(triangles[0], kind) for kind in EDGES]
        outcomes = []
        for T in triangles:
            W = rng.standard_normal((k, 3))
            want = outcome(np_triangular_solve, T, W)
            assert_same_outcome(outcome(_lapack._triangular_solve, T, W), want)
            outcomes.append(want)
        assert outcomes[-3] is np.linalg.LinAlgError  # the singular leaf


@pytest.mark.parametrize("m, n", [(8, 20), (20, 20)])
def test_certified_cholesky_solve_is_numpys_bitwise(m, n):
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        grams = [D @ D.T for D, _ in (graded(rng, m, n, ratio) for ratio in RATIOS)]
        indefinite = grams[0].copy()
        indefinite[m // 2, m // 2] = -1.0
        grams += [indefinite] + [broken(grams[0], kind) for kind in ("nan", "inf")]
        wants = []
        for G in grams:
            r = rng.standard_normal(m)
            want = np_certified_cholesky_solve(G, r)
            assert_same_outcome(_lapack._certified_cholesky_solve(G, r), want)
            wants.append(want)
        assert wants[len(RATIOS)] is None  # the indefinite Gram
        assert any(want is not None for want in wants)


@pytest.mark.parametrize("rows, n", [(30, 12), (126, 100)])
def test_certified_tall_solve_is_numpys_bitwise(rows, n):
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        systems = [graded(rng, rows, n, ratio)[0] for ratio in RATIOS]
        zero_column = systems[0].copy()
        zero_column[:, n // 2] = 0.0  # an exactly zero pivot in R
        systems += [zero_column] + [broken(systems[0], kind) for kind in ("nan", "inf")]
        seen = set()
        for A in systems:
            b = rng.standard_normal(rows)
            want = np_certified_tall_solve(A, b)
            assert_same_outcome(_lapack._certified_tall_solve(A, b), want)
            seen.add(want is None)
        assert seen == {True, False}


@pytest.mark.parametrize("n, k", [(20, 8), (300, 140)])
def test_apply_q_is_numpys_bitwise(n, k):
    # 140 reflectors make two WY panels; `leading` skips unit columns.
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        factors = [_lapack._geqrf(graded(rng, n, k, ratio)[0]) for ratio in RATIOS]
        h, tau = factors[0]
        dead = tau.copy()
        dead[k // 3] = 0.0  # a reflector that is the identity
        factors += [(h, dead), (broken(h, "nan"), tau)]
        for h, tau in factors:
            for leading in (0, 3):
                C = rng.standard_normal((n, 4))
                C[:, :leading] = np.eye(n, leading)
                got, want = C.copy(), C.copy()
                assert_same_outcome(outcome(_lapack._apply_q, h, tau, got, leading),
                                    outcome(np_apply_q, h, tau, want, leading))
                assert got.tobytes() == want.tobytes()


@pytest.fixture
def wrapper_calls(monkeypatch):
    """Names of the numpy.linalg and triangle wrappers called, in any thread."""
    calls = []
    for module, name in [(np.linalg, "inv"), (np.linalg, "solve"), (np.linalg, "cholesky"),
                         (np, "triu"), (np, "tril")]:
        def spy(*args, _name=name, _wrapped=getattr(module, name), **kwargs):
            calls.append(_name)
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.fixture
def certified_solves(monkeypatch):
    """Names of the certified circumcenter routes the solvers called."""
    calls = []
    for name in ("_certified_tall_solve", "_certified_cholesky_solve"):
        def spy(*args, _name=name, _wrapped=getattr(circumcenters, name)):
            calls.append(_name)
            return _wrapped(*args)

        monkeypatch.setattr(circumcenters, name, spy)
    return calls


def test_hot_paths_call_no_numpy_linalg_wrapper(wrapper_calls, certified_solves, raw_qrs):
    build_instance(1000, 150, 0.1, 3)  # wide blocks, pooled where a CPU is spare
    assert len(raw_qrs) == 7
    for build, route in [
        (lambda: build_instance(1250, 10, 0.1, 1), "_certified_tall_solve"),
        (lambda: build_underdetermined_instance(40, [2] * 12, 0.0, 1), "_certified_cholesky_solve"),
    ]:
        instance = build()
        certified_solves.clear()
        for method in ("pcrm", "crm"):
            result = solve(instance, SolverConfig(method=method, tolerance=1e-6,
                                                  stop_rule="feasibility"))
            assert result.trace.status == "converged"
        assert set(certified_solves) == {route}
    assert wrapper_calls == []
