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

# A block keeps its QR factors only when their triangle T has
# ||T||_F * ||T^-1||_F, an upper bound on sigma_max / sigma_min, below this.
# The SVD rank cutoff, max(rows, n) * eps * sigma_max, is about
# 1e-13 * sigma_max at n = 500, so a certified block is full rank by a margin
# that rounding cannot erase.
QR_CONDITION_LIMIT = 1e8

# Diagonal blocks up to this order are inverted or solved directly by LAPACK.
_TRIANGULAR_LEAF = 32

# Householder reflectors applied together, in one compact WY block, by _apply_q.
_WY_PANEL = 128


class AffineSubspace:
    """One affine block U = {x in R^n : A x = b} with a cached factorization.

    A wide block (rows <= n) is factored by one Householder QR of A^T,
    A^T = Q [T; 0], whose Q is never formed, and kept at rank = rows when
    the bound ||T||_F * ||T^-1||_F <= QR_CONDITION_LIMIT certifies that
    sigma_min / sigma_max is far above the rank cutoff below.  A tall
    block (rows > n) is factored by one R-only Householder QR of [A | b],
    whose leading n x n triangle R and last column c = Q^T b give
    z0 = R^-1 c without forming Q; under the same certificate on R it is
    kept at rank = n, with an empty null basis, so its projection is the
    point z0.  A tall block first tries the prefix route of _factor_prefix,
    and keeps all of its rows either way.  Blocks that miss the certificate
    (dependent or nearly dependent rows or columns) fall back to a
    rank-revealing SVD with the numerical rank threshold
    max(rows, n) * eps * sigma_max.  All routes give the same rank on every
    block whose singular values clear the threshold by more than rounding.

    Only the thinner of the two orthonormal bases is stored: the
    direction-space basis N (n - rank columns) when n - rank <= rank, the
    row-space basis V_r (rank columns) otherwise.  Projections cost one pair
    of thin matrix-vector products with it,

        P(x) = z0 + N (N^T x)   or   P(x) = x - V_r (V_r^T x) + z0,

    where z0 is the minimum-norm solution of A x = b, V_r spans range(A^T)
    and N spans null(A).  The other basis is the orthogonal complement of
    the stored one, computed on each call to `row_space_basis()` or
    `direction_basis()` and not kept.

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
        rows = A.shape[0]
        if b.shape != (rows,):
            raise DimensionMismatch(f"rhs has length {b.size}, expected {rows}")

        limit = CONSISTENCY_RTOL * (1.0 + np.linalg.norm(b))
        found = _factor_prefix([A], [b], limit)
        factors = found[2] if found else _factor_whole(A, b, limit)
        self._keep(A, b, factors, label)

    @classmethod
    def _from_factors(cls, A, b, factors, label):
        """The subspace {x : A x = b} with `factors` already computed for it."""
        self = cls.__new__(cls)
        self._keep(A, b, factors, label)
        return self

    def _keep(self, A, b, factors, label):
        rank, z0, basis = factors
        n = A.shape[1]
        self.constraint_matrix = A
        self.rhs = b
        self.rank = rank
        self.label = label
        self.anchor = z0
        # Whether _basis spans null(A) rather than range(A^T).  The copy
        # keeps no larger factor alive through a view.
        self._use_null = _uses_null(rank, n)
        self._basis = np.array(basis, order="C")
        for arr in (self.constraint_matrix, self.rhs, self.anchor, self._basis):
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
        return self._basis if self._use_null else _complement(self._basis)

    def row_space_basis(self):
        """Orthonormal basis of range(A^T), shape (n, rank)."""
        return _complement(self._basis) if self._use_null else self._basis

    def project(self, x):
        """Orthogonal projection of x onto the subspace (row-wise if 2-D)."""
        return self._project(_check_point(x, self.ambient_dim))

    def _project(self, x):
        # The projection of an x whose shape the caller has already checked.
        B = self._basis
        if self._use_null:
            return self.anchor + (x @ B) @ B.T
        return x - (x @ B) @ B.T + self.anchor

    def reflect(self, x):
        """Reflection 2 P(x) - x; an isometry fixing the subspace."""
        return 2.0 * self.project(x) - _check_point(x, self.ambient_dim)

    def distance(self, x):
        """Euclidean distance from x to the subspace (row-wise if 2-D).

        Computed by a one-block _BlockKernel, so it is the same formula
        that `residual` and the instance's kernel apply to every block.
        """
        return _BlockKernel([self]).distances(x).T[0]

    def __repr__(self):
        rows, n = self.constraint_matrix.shape
        return f"AffineSubspace({rows}x{n}, rank={self.rank}, label={self.label})"


def _check_point(x, n, ndims=(1, 2)):
    """x as a float array, if it is a point of R^n (or a stack of rows)."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in ndims or x.shape[-1] != n:
        raise DimensionMismatch(f"point has shape {x.shape}, ambient dimension is {n}")
    return x


def _block_list(subspaces):
    """(blocks, n): the blocks as a list and the ambient dimension they share.

    ValueError for an empty list, DimensionMismatch for mixed dimensions."""
    subspaces = list(subspaces)
    if not subspaces:
        raise ValueError("need at least one subspace")
    n = subspaces[0].ambient_dim
    for i, U in enumerate(subspaces):
        if U.ambient_dim != n:
            raise DimensionMismatch(
                f"block {i} has ambient dimension {U.ambient_dim}, block 0 has {n}"
            )
    return subspaces, n


def _uses_null(rank, n):
    """Whether a rank-`rank` block in R^n stores its null basis (the thinner one)."""
    return (n - rank) <= rank


class _BlockKernel:
    """All m block projections and distances of a point, from bases stacked once.

    Blocks are grouped by the one basis they store (`_basis`, which spans
    null(A) when `_use_null`) and its width w.  A group's g bases are stored
    transposed as one (g, w, n) array, so projecting x onto its blocks is
    one matrix-vector product with the flattened (g w, n) stack, giving
    every block's coefficients, plus one batched product mapping them back.
    Nothing is padded: the stacks hold sum_i w_i n numbers, and there is one
    group per distinct (route, width).  The stacks are read-only, so one
    kernel can serve every solve and diagnostic of an instance.
    """

    def __init__(self, subspaces):
        subspaces, n = _block_list(subspaces)
        self.ambient_dim = n
        self.block_count = len(subspaces)
        by_basis = {}
        for i, U in enumerate(subspaces):
            by_basis.setdefault((U._use_null, U._basis.shape[1]), []).append(i)
        self.groups = []
        # Per group: B_i z_i of each row-route block, whose distances are
        # read off coefficients; None on the null route.
        self._anchor_coeffs = []
        for (use_null, w), members in by_basis.items():
            # Filled row by row to get C order: np.stack of the transposed
            # bases would keep their strides and slow both products.
            basis_t = _aligned_empty((len(members), w, n))
            for row, i in enumerate(members):
                basis_t[row] = subspaces[i]._basis.T
            anchors = np.stack([subspaces[i].anchor for i in members])
            anchor_coeff = None if use_null else np.matmul(basis_t, anchors[:, :, None])[:, :, 0]
            members = slice(None) if len(members) == len(subspaces) else np.asarray(members)
            for arr in (basis_t, anchors, anchor_coeff, members):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)
            self.groups.append((use_null, members, basis_t, anchors))
            self._anchor_coeffs.append(anchor_coeff)

    def project_all(self, x, out):
        """Write P_i(x) into out[i] for every block i."""
        for use_null, members, basis_t, anchors in self.groups:
            g, w, n = basis_t.shape
            coeff = basis_t.reshape(g * w, n) @ x
            if w == 1:
                # Same products as the matmul below, without its per-block overhead.
                span = coeff[:, None] * basis_t[:, 0]
            else:
                span = np.matmul(coeff.reshape(g, 1, w), basis_t)[:, 0]
            out[members] = anchors + span if use_null else x - span + anchors
        return out

    def distances(self, x):
        """d(x, U_i) for every block i: shape (m,) for a point, (k, m) for k rows.

        Each group takes one product X B_g^T, every point's coefficients on
        every block.  On the row route x - P_i(x) = R_i (R_i^T x - R_i^T z_i),
        since the anchor z_i lies in range(R_i) and R_i is orthonormal, so
        the distance is the norm of the w coefficients less the anchor's and
        no length-n vector is formed.  On the null route it is
        ||x - (z_i + N_i (N_i^T x))||, formed for the group's blocks at once
        in chunks of rows whose one (g, rows, n) temporary holds no more
        numbers than X or the group's stack (at least one row).
        """
        n = self.ambient_dim
        x = _check_point(x, n)
        X = x.reshape(-1, n)
        k = X.shape[0]
        out = np.empty((k, self.block_count))
        for (use_null, members, basis_t, anchors), anchor_coeff in zip(
                self.groups, self._anchor_coeffs):
            g, w, _ = basis_t.shape
            coeff = (X @ basis_t.reshape(g * w, n).T).reshape(k, g, w)
            if not use_null:
                coeff -= anchor_coeff
                out[:, members] = _row_norms(coeff)
                continue
            rows = max(1, k // g, w)
            for s in range(0, k, rows):
                c = coeff[s:s + rows].transpose(1, 0, 2)
                # x - (z_i + N_i c_i), formed in place in its one temporary.
                diff = c * basis_t if w == 1 else np.matmul(c, basis_t)
                diff += anchors[:, None]
                np.subtract(X[s:s + rows], diff, out=diff)
                out[s:s + rows, members] = _row_norms(diff).T
        return out[0] if x.ndim == 1 else out

    def residual(self, x):
        """The feasibility residual max_i d(x, U_i), per row for a 2-D x."""
        return self.distances(x).max(axis=-1)


def _row_norms(D):
    """Euclidean norms along the last axis of D, with no temporary of its size."""
    return np.sqrt(np.einsum("...i,...i->...", D, D))


def _aligned_empty(shape):
    """An uninitialised C-order float array starting on a 64-byte boundary.

    The speed of the kernel's products depends on where the heap puts a
    stack; aligned to a cache line, identical kernels run alike.
    """
    size = int(np.prod(shape))
    buf = np.empty(size + 8)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start:start + size].reshape(shape)


def _factor_qr(A, b):
    """Factors of a wide block from a QR of A^T, or None if not certified.

    One geqrf, A^T = Q [T; 0] with Q = H_0 ... H_{rows-1} kept as its
    reflectors.  Then A = T^T Q[:, :rows]^T, so Q[:, :rows] spans the row
    space, Q[:, rows:] the null space, and z0 = Q [T^-T b; 0].  One pass
    of _apply_q over [E | T^-T b; 0], where E is the identity columns that
    pick out the stored basis (the trailing n - rows for the null space,
    the leading rows for the row space), gives that basis and z0 together.
    Q itself is never formed.
    """
    rows, n = A.shape
    h, tau = np.linalg.qr(A.T, mode="raw")
    # h is rows x n; row j holds column j of LAPACK's factor, so T = tril(h)^T.
    T_inv = _certified_inverse(np.tril(h[:, :rows]).T)
    if T_inv is None:
        return None
    use_null = _uses_null(rows, n)
    w = n - rows if use_null else rows
    C = np.zeros((n, w + 1))
    C[:rows, w] = T_inv.T @ b
    d = np.arange(w)
    if use_null:
        C[rows + d, d] = 1.0
        _apply_q(h, tau, C)
    else:
        C[d, d] = 1.0
        _apply_q(h, tau, C, leading=w)
    return rows, C[:, w].copy(), C[:, :w]


def _apply_q(h, tau, C, leading=0):
    """Overwrite C with Q C for the Q of np.linalg.qr(X, mode="raw") -> (h, tau).

    X is n x k with k <= n, so Q = H_0 ... H_{k-1} with H_j = I - tau_j v_j v_j^T.
    The reflectors are applied in panels of _WY_PANEL, last panel first, each
    in compact WY form I - V T V^T (Schreiber & Van Loan) with T from the UT
    transform T^-1 = striu(V^T V) + diag(V^T V) / 2 (Joffrain et al.).  A
    reflector with tau_j = 0 is the identity: it gets v_j = 0 and a unit
    diagonal in T^-1.  A panel starting at reflector s touches only rows
    s: of C and, when the first `leading` columns of C are e_0, e_1, ...,
    leaves the columns before min(s, leading) alone, since they are still
    unit vectors that its reflectors cannot reach.
    """
    k = tau.shape[0]
    for s in reversed(range(0, k, _WY_PANEL)):
        e = min(s + _WY_PANEL, k)
        # Rows of V^T: v_j is zero above j, one at j and h[j, j+1:] below.
        Vt = np.triu(h[s:e, s:], 1)
        live = tau[s:e] != 0
        Vt[~live] = 0.0
        d = np.arange(e - s)
        Vt[d, d] = live
        G = Vt @ Vt.T
        T_inv = np.triu(G, 1)
        T_inv[d, d] = np.where(live, 0.5 * G[d, d], 1.0)
        X = C[s:, min(s, leading):]
        X -= Vt.T @ _triangular_solve(T_inv, Vt @ X)


def _complement(B):
    """Orthonormal basis of the orthogonal complement of range(B), read-only.

    B is n x k with orthonormal columns; with B = Q [R; 0], the trailing
    n - k columns of Q span the complement.
    """
    n, k = B.shape
    if k == 0:
        out = np.eye(n)
    else:
        h, tau = np.linalg.qr(B, mode="raw")
        out = np.zeros((n, n - k))
        d = np.arange(n - k)
        out[k + d, d] = 1.0
        _apply_q(h, tau, out)
    out.setflags(write=False)
    return out


def _factor_whole(A, b, limit):
    """Factors of a whole block: its QR, or the SVD when that is not certified.

    Raises InconsistentSystem when the anchor's misfit exceeds `limit`.
    """
    factors = _factor_qr(A, b) if A.shape[0] <= A.shape[1] else _factor_tall_qr(A, b)
    if factors is None:
        factors = _factor_svd(A, b)
    misfit = np.linalg.norm(A @ factors[1] - b)
    if misfit > limit:
        raise InconsistentSystem(
            f"rhs outside range of constraint matrix (residual {misfit:.3e})"
        )
    return factors


def _factor_tall_qr(A, b):
    """Factors of a tall block from _certified_tall_solve, or None if not certified.

    A certified A has full column rank, so the row space is all of R^n, the
    stored null basis is empty, and z0 is the least-squares solution, whose
    misfit the caller's consistency check sees.
    """
    n = A.shape[1]
    z0 = _certified_tall_solve(A, b)
    if z0 is None:
        return None
    return n, z0, np.zeros((n, 0))


def _certified_tall_solve(A, b):
    """R^-1 c from an R-only QR of [A | b], or None if R is not certified.

    A is (rows, n) with rows > n.  With [A | b] = Q [[R, c], [0, d]], an R
    that passes _certified_inverse makes A full column rank, and R^-1 c is
    then the unique least-squares solution of A y = b, with misfit |d|; the
    caller checks that misfit.  Q is never formed.
    """
    n = A.shape[1]
    Rb = np.linalg.qr(np.column_stack([A, b]), mode="r")
    R_inv = _certified_inverse(Rb[:n, :n])
    if R_inv is None:
        return None
    return R_inv @ Rb[:n, n]


def _certified_inverse(T):
    """Inverse of an upper triangle T, or None unless
    ||T||_F * ||T^-1||_F <= QR_CONDITION_LIMIT."""
    try:
        # A nearly singular T may overflow to inf or nan; both fail the test.
        with np.errstate(all="ignore"):
            T_inv = _triangular_inverse(T)
            bound = np.linalg.norm(T) * np.linalg.norm(T_inv)
    except np.linalg.LinAlgError:
        return None
    return T_inv if bound <= QR_CONDITION_LIMIT else None


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


def _triangular_solve(T, W):
    """T^-1 W for an upper-triangular T by recursive 2x2 blocking.

    With T = [[T11, T12], [0, T22]], Y2 = T22^-1 W2 and
    Y1 = T11^-1 (W1 - T12 Y2); a general solve would spend the flops of a
    full LU on T.
    """
    k = T.shape[0]
    if k <= _TRIANGULAR_LEAF:
        return np.linalg.solve(T, W)
    h = k // 2
    Y2 = _triangular_solve(T[h:, h:], W[h:])
    Y1 = _triangular_solve(T[:h, :h], W[:h] - T[:h, h:] @ Y2)
    return np.concatenate([Y1, Y2])


def _factor_svd(A, b):
    """Rank-revealing factors of any block from its SVD."""
    rows, n = A.shape
    # Full right factor is needed: V[:, :r] spans the row space and
    # V[:, r:] the direction (null) space; only the one used is kept.
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
    return rank, z0, (Vh[rank:] if _uses_null(rank, n) else Vh[:rank]).T


def _factor_prefix(matrices, rhs, limit):
    """(A_prefix, b_prefix, factors) of the stack of `matrices`, or None.

    The prefix route for a stack of at least 4n rows: only its first 2n
    rows, gathered from the leading blocks, are factored, by one R-only QR
    (_factor_tall_qr).  A certified prefix has full column rank, so the
    stack does too, and the prefix's least-squares solution is the only
    candidate for a point of {x : A x = b}.  It is kept when the whole
    stack's misfit, summed one block at a time, is within `limit`.  The
    stack's own least-squares solution has the least misfit, so every stack
    the whole-stack route accepts is still accepted, and up to rounding
    none that it rejects is.  None, for a shorter stack, a prefix that is
    not certified or a point that fits only the prefix, sends the caller to
    the whole stack; a prefix that fails costs at most half of that QR.
    The prefix rows pin the same point as the stack, so they describe the
    same set.
    """
    n = matrices[0].shape[1]
    if sum(A.shape[0] for A in matrices) < 4 * n:
        return None
    heads, tails, need = [], [], 2 * n
    for A, b in zip(matrices, rhs):
        heads.append(A[:need])
        tails.append(b[:need])
        need -= heads[-1].shape[0]
        if need == 0:
            break
    A_prefix, b_prefix = np.vstack(heads), np.concatenate(tails)
    factors = _factor_tall_qr(A_prefix, b_prefix)
    if factors is None:
        return None
    misfit_sq = 0.0
    for A, b in zip(matrices, rhs):
        r = A @ factors[1] - b
        misfit_sq += r @ r
    if np.sqrt(misfit_sq) > limit:
        return None
    return A_prefix, b_prefix, factors


def intersection_subspace(subspaces):
    """One subspace representing the intersection of the blocks.

    Its `project` is the exact best-approximation oracle onto the
    intersection.  A stack that the prefix route of _factor_prefix accepts
    is described by its 2n prefix rows alone, without stacking the blocks.
    Every other stack is stacked and goes through the whole-stack QR and,
    if that misses the certificate too, the SVD; the result is then
    described by the whole stack.  The consistency limit is
    CONSISTENCY_RTOL * (1 + ||b||), with b the whole stacked rhs.

    Raises EmptyIntersection when the stacked system is inconsistent.
    """
    subspaces, _ = _block_list(subspaces)
    matrices = [U.constraint_matrix for U in subspaces]
    rhs = [U.rhs for U in subspaces]
    limit = CONSISTENCY_RTOL * (1.0 + np.sqrt(sum(b @ b for b in rhs)))
    try:
        found = _factor_prefix(matrices, rhs, limit)
        if found is None:
            A, b = np.vstack(matrices), np.concatenate(rhs)
            found = A, b, _factor_whole(A, b, limit)
        return AffineSubspace._from_factors(*found, label=-1)
    except InconsistentSystem as exc:
        raise EmptyIntersection(f"blocks have no common point: {exc}") from exc


def project_intersection(subspaces, x):
    """Exact projection of x onto the intersection of all blocks."""
    return intersection_subspace(subspaces).project(x)


def residual(subspaces, x):
    """max_i dist(x, U_i): zero (to tolerance) iff x lies in every block.

    Row-wise for a 2-D x.  All m distances come from one _BlockKernel of
    the blocks; an instance keeps its own kernel for repeated use.
    """
    return _BlockKernel(subspaces).residual(x)
