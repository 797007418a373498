"""Affine subspaces U = {x : A x = b} and their projection/reflection operators.

Points are plain 1-D numpy arrays of length n.  Every operator also accepts a
2-D array of row-stacked points and then works row-wise, which the sampling
diagnostics rely on.  Subspaces are immutable after construction and safe to
share across threads.
"""

import numpy as np

from .errors import DimensionMismatch, EmptyIntersection, InconsistentSystem

# Residual cutoff deciding whether a right-hand side is attainable.
CONSISTENCY_RTOL = 1e-8

# A wide block keeps its QR factors only when ||R||_F * ||T^-1||_F, an upper
# bound on sigma_max / sigma_min, stays below this.  The SVD rank cutoff,
# max(rows, n) * eps * sigma_max, is about 1e-13 * sigma_max at n = 500, so a
# certified block is full rank by a margin that rounding cannot erase.
QR_CONDITION_LIMIT = 1e8

# Diagonal blocks up to this order are inverted directly by LAPACK.
_TRIANGULAR_LEAF = 32


class AffineSubspace:
    """One affine block U = {x in R^n : A x = b} with a cached factorization.

    A wide block (rows <= n) is factored by one Householder QR of A^T,
    A^T = Q [T; 0], and kept at rank = rows when the bound
    ||T||_F * ||T^-1||_F <= QR_CONDITION_LIMIT certifies that
    sigma_min / sigma_max is far above the rank cutoff below.  Tall blocks,
    and wide blocks that miss the certificate (dependent or nearly dependent
    rows), fall back to a rank-revealing SVD with the numerical rank
    threshold max(rows, n) * eps * sigma_max.  Both routes give the same rank
    on every block whose singular values clear the threshold by more than
    rounding.

    Projections afterwards cost one pair of thin matrix-vector products:
    whichever of the row-space basis (rank columns) or the direction-space
    basis (n - rank columns) is thinner is used, via

        P(x) = x - V_r (V_r^T x) + z0   or   P(x) = z0 + N (N^T x),

    where z0 is the minimum-norm solution of A x = b, V_r spans range(A^T)
    and N spans null(A).

    Raises
    ------
    DimensionMismatch
        Shapes of A and b disagree or A is empty.
    InconsistentSystem
        b is not in range(A) at tolerance CONSISTENCY_RTOL * (1 + ||b||).
    """

    def __init__(self, constraint_matrix, rhs, label=0):
        A = np.atleast_2d(np.asarray(constraint_matrix, dtype=float))
        b = np.asarray(rhs, dtype=float).ravel()
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
            raise DimensionMismatch(f"constraint matrix must be 2-D and nonempty, got shape {A.shape}")
        rows, n = A.shape
        if b.shape != (rows,):
            raise DimensionMismatch(f"rhs has length {b.size}, expected {rows}")

        factors = _factor_qr(A, b) if rows <= n else None
        if factors is None:
            factors = _factor_svd(A, b)
        rank, z0, row_basis, null_basis = factors
        misfit = np.linalg.norm(A @ z0 - b)
        if misfit > CONSISTENCY_RTOL * (1.0 + np.linalg.norm(b)):
            raise InconsistentSystem(
                f"rhs outside range of constraint matrix (residual {misfit:.3e})"
            )

        self.constraint_matrix = A
        self.rhs = b
        self.rank = rank
        self.label = label
        self.anchor = z0
        self._row_basis = np.ascontiguousarray(row_basis)
        self._null_basis = np.ascontiguousarray(null_basis)
        self._use_null = (n - rank) <= rank
        for arr in (self.constraint_matrix, self.rhs, self.anchor,
                    self._row_basis, self._null_basis):
            arr.setflags(write=False)

    @property
    def ambient_dim(self):
        return self.constraint_matrix.shape[1]

    @property
    def direction_dim(self):
        """Dimension of the direction space (null space of A)."""
        return self.ambient_dim - self.rank

    def direction_basis(self):
        """Orthonormal basis of null(A), shape (n, n - rank)."""
        return self._null_basis

    def row_space_basis(self):
        """Orthonormal basis of range(A^T), shape (n, rank)."""
        return self._row_basis

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.ambient_dim:
            raise DimensionMismatch(
                f"point has shape {x.shape}, ambient dimension is {self.ambient_dim}"
            )
        return x

    def project(self, x):
        """Orthogonal projection of x onto the subspace (row-wise if 2-D)."""
        x = self._check(x)
        if self._use_null:
            N = self._null_basis
            return self.anchor + (x @ N) @ N.T
        V = self._row_basis
        return x - (x @ V) @ V.T + self.anchor

    def reflect(self, x):
        """Reflection 2 P(x) - x; an isometry fixing the subspace."""
        return 2.0 * self.project(x) - self._check(x)

    def distance(self, x):
        """Euclidean distance from x to the subspace."""
        return np.linalg.norm(x - self.project(x), axis=-1)

    def contains(self, x, rtol=CONSISTENCY_RTOL):
        """Feasibility test ||A x - b|| <= rtol * (1 + ||b||)."""
        x = self._check(x)
        misfit = np.linalg.norm(x @ self.constraint_matrix.T - self.rhs, axis=-1)
        return misfit <= rtol * (1.0 + np.linalg.norm(self.rhs))

    def __repr__(self):
        rows, n = self.constraint_matrix.shape
        return f"AffineSubspace({rows}x{n}, rank={self.rank}, label={self.label})"


def _factor_qr(A, b):
    """Factors of a wide block from a QR of A^T, or None if not certified.

    With A^T = Q [T; 0], A = T^T Q[:, :rows]^T, so Q[:, :rows] spans the row
    space, Q[:, rows:] the null space, and z0 = Q[:, :rows] T^-T b.
    """
    rows = A.shape[0]
    Q, R = np.linalg.qr(A.T, mode="complete")
    T = R[:rows]
    try:
        # A nearly singular T may overflow to inf or nan; both fail the test.
        with np.errstate(all="ignore"):
            T_inv = _triangular_inverse(T)
            bound = np.linalg.norm(T) * np.linalg.norm(T_inv)
    except np.linalg.LinAlgError:
        return None
    if not bound <= QR_CONDITION_LIMIT:
        return None
    row_basis = Q[:, :rows]
    return rows, row_basis @ (T_inv.T @ b), row_basis, Q[:, rows:]


def _triangular_inverse(T):
    """Inverse of an upper-triangular matrix by recursive 2x2 blocking.

    inv([[T11, T12], [0, T22]]) = [[X11, -X11 T12 X22], [0, X22]] with
    Xii = inv(Tii); about a quarter of the flops of a general inverse.
    """
    k = T.shape[0]
    if k <= _TRIANGULAR_LEAF:
        return np.linalg.inv(T)
    h = k // 2
    X11 = _triangular_inverse(T[:h, :h])
    X22 = _triangular_inverse(T[h:, h:])
    X = np.zeros_like(T)
    X[:h, :h] = X11
    X[h:, h:] = X22
    X[:h, h:] = -(X11 @ T[:h, h:]) @ X22
    return X


def _factor_svd(A, b):
    """Rank-revealing factors of any block from its SVD."""
    rows, n = A.shape
    # Full right factor is needed: V[:, :r] spans the row space and
    # V[:, r:] the direction (null) space.
    if rows >= n:
        U, s, Vh = np.linalg.svd(A, full_matrices=False)
    else:
        U, s, Vh = np.linalg.svd(A, full_matrices=True)
    sigma_max = s[0] if s.size else 0.0
    cutoff = max(rows, n) * np.finfo(float).eps * sigma_max
    rank = int(np.count_nonzero(s > cutoff))

    # Minimum-norm solution z0 = A^+ b; also serves as the anchor point.
    if rank > 0:
        z0 = Vh[:rank].T @ ((U[:, :rank].T @ b) / s[:rank])
    else:
        z0 = np.zeros(n)
    return rank, z0, Vh[:rank].T, Vh[rank:].T


def intersection_subspace(subspaces):
    """Stack the blocks into one subspace representing the intersection.

    One direct rank-revealing factorization of the stacked system; the
    result's `project` is the exact best-approximation oracle onto the
    intersection.

    Raises EmptyIntersection when the stacked system is inconsistent.
    """
    subspaces = list(subspaces)
    if not subspaces:
        raise ValueError("need at least one subspace")
    A = np.vstack([U.constraint_matrix for U in subspaces])
    b = np.concatenate([U.rhs for U in subspaces])
    try:
        return AffineSubspace(A, b, label=-1)
    except InconsistentSystem as exc:
        raise EmptyIntersection(f"blocks have no common point: {exc}") from exc


def project_intersection(subspaces, x):
    """Exact projection of x onto the intersection of all blocks."""
    return intersection_subspace(subspaces).project(x)


def residual(subspaces, x):
    """max_i dist(x, U_i): zero (to tolerance) iff x lies in every block."""
    out = None
    for U in subspaces:
        d = U.distance(x)
        out = d if out is None else np.maximum(out, d)
    if out is None:
        raise ValueError("need at least one subspace")
    return out
