"""Circumcenter of a finite point set.

The circumcenter of points x_0, ..., x_m is the unique point of their affine
hull equidistant to all of them.  With the differences d_j = x_j - x_0 as
the rows of the (m, n) matrix D and r_j = 1/2 ||d_j||^2, it is x_0 + y for
the minimum-norm solution y of D y = r.  Writing y = D^T alpha gives the
m x m normal system

    sum_j alpha_j <x_j - x_0, x_i - x_0> = 1/2 ||x_i - x_0||^2,   i = 1..m,

whose matrix G = D D^T is the Gram matrix of the differences.

`_solve_differences(D, r)` solves for y from the differences alone, so a
caller that already holds them never assembles the points.  The P-CRM
step passes d_i = P_i(x) - x and ||d_i||^2: its points x + 2 d_i give
the system (2 d) y = 2 ||d||^2, which has the same solutions.  It takes
one of three routes; the two certified solves, and the certificate they
share, live in `_lapack`:

* A tall D (m > n: more points than dimensions plus one) is solved by
  _certified_tall_solve, one R-only Householder QR of
  [D | r] = Q [[R, c], [0, d]]: y = R^-1 c, with neither Q nor G formed.
  A certified D has full column rank, so y is the only solution there is.
* A wide D (m <= n) is solved by _certified_cholesky_solve, through the
  Cholesky factor G = L L^T: alpha = L^-T L^-1 r.  A certified G is
  positive definite by a wide margin, and alpha is the only solution of
  the normal system.  The bound is deliberately not scaled to G's
  diagonal: a difference of rounding-noise length (x on a block up to
  rounding) must read as dependence and fall back, since its direction is
  noise that an exact solve would follow.
* Every set that misses its certificate (zero or repeated differences,
  affinely dependent or nearly dependent points, a hull of lower
  dimension) takes a minimum-norm least-squares solution: of D y = r
  itself when D is tall, so that the condition number is kappa_2(D) and
  not its square, and of the m x m Gram system when D is wide.
  Affinely dependent inputs make D rank deficient; the minimum-norm
  solution still recovers the unique equidistant point of the hull
  whenever one exists.

Every route accepts y only when its misfit, ||D y - r|| or, on the wide
route, ||G alpha - r||, is at most SOLVE_RTOL * (1 + ||r||).  Both norms
are taken by affine._norm, so a sum of squares that overflows is taken
again scaled instead of reading inf, which would accept any y; a nan
misfit fails the test.
"""

import numpy as np

from ._lapack import _certified_cholesky_solve, _certified_tall_solve
from .affine import _norm
from .errors import DegenerateSystem, DimensionMismatch

# Accepted least-squares misfit of the normal system, relative to 1 + ||rhs||.
SOLVE_RTOL = 1e-8


def _as_points(points):
    try:
        pts = np.asarray(points, dtype=float)
    except ValueError as exc:
        raise DimensionMismatch(f"points have mismatched dimensions: {exc}") from exc
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise DimensionMismatch(f"expected a nonempty sequence of points, got shape {pts.shape}")
    return pts


def circumcenter(points):
    """Point of the affine hull of `points` equidistant to all of them.

    More points than dimensions plus one (a tall difference matrix) are
    solved by a certified R-only QR of [D | r], and every other set by a
    certified Cholesky factorization of the Gram matrix; a set that misses
    its certificate falls back to minimum-norm least squares on D y = r
    (tall) or on the Gram system (wide), by the SVD with the standard
    max-dim * eps singular value cutoff, so duplicated or affinely
    dependent inputs are handled.  With a single
    input point, or when all points coincide, the first point is returned
    unchanged.

    Raises DegenerateSystem when no equidistant point exists in the hull
    (e.g. three distinct collinear points), and when a point is not finite
    or a squared difference overflows.
    """
    pts = _as_points(points)
    base = pts[0]
    diffs = pts[1:] - base
    if diffs.shape[0] == 0:
        return base.copy()
    return base + _solve_differences(diffs, 0.5 * np.einsum("ij,ij->i", diffs, diffs))


def _solve_differences(diffs, rhs):
    """Minimum-norm y with D y = r, for D = diffs and r = rhs (m >= 1 rows).

    Takes the tall QR, wide Cholesky or least-squares route of the module
    docstring, and raises DegenerateSystem when r is not finite or the
    misfit fails SOLVE_RTOL * (1 + ||r||).
    """
    m, n = diffs.shape
    # LAPACK fails on non-finite input with an untyped error, and prints to stderr.
    if not np.isfinite(rhs).all():
        raise DegenerateSystem("points or their squared differences are not finite")
    if m > n:
        step = _certified_tall_solve(diffs, rhs)
        if step is None:
            step, _, _, _ = np.linalg.lstsq(diffs, rhs, rcond=None)
        misfit = diffs @ step - rhs
    else:
        gram = diffs @ diffs.T
        alpha = _certified_cholesky_solve(gram, rhs)
        if alpha is None:
            alpha, _, _, _ = np.linalg.lstsq(gram, rhs, rcond=None)
        misfit = gram @ alpha - rhs
        step = alpha @ diffs
    misfit = _norm(misfit)
    # A nan misfit fails the test too.
    if not misfit <= SOLVE_RTOL * (1.0 + _norm(rhs)):
        raise DegenerateSystem(
            f"no equidistant point in the affine hull (normal-system residual {misfit:.3e})"
        )
    return step
