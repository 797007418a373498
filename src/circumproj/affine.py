"""Affine subspaces U = {x : A x = b} and their projection/reflection operators.

Points are plain 1-D numpy arrays of length n.  Every operator also accepts a
2-D array of row-stacked points and then works row-wise, which the sampling
diagnostics rely on.  Subspaces are immutable after construction and safe to
share across threads.
"""

import math

import numpy as np

from . import _lapack
from .errors import DimensionMismatch, EmptyIntersection, InconsistentSystem

# Residual cutoff deciding whether a right-hand side is attainable.
CONSISTENCY_RTOL = 1e-8


class AffineSubspace:
    """One affine block U = {x in R^n : A x = b} with a cached factorization.

    A wide block (rows <= n) is factored by one Householder QR of A^T,
    A^T = Q [T; 0], whose Q is never formed, and kept at rank = rows when T
    passes the certificate that `_lapack` states.  A tall block (rows > n)
    is factored by one R-only Householder QR of [A | b], whose leading
    n x n triangle R and last column c = Q^T b give z0 = R^-1 c without
    forming Q; when R passes the same certificate it is kept at rank = n,
    with an empty null basis, so its projection is the point z0.  The route
    is _factor's, the one that the intersection takes too: a block of at
    least 4n rows first tries its first 2n rows, and keeps all of its rows
    either way.  Blocks that miss the certificate fall back to a
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
        b is not in range(A) at tolerance CONSISTENCY_RTOL * (1 + ||b||),
        or A or b is not finite.

    `raw_qr`, for a wide block only, is the _lapack._geqrf(A^T) of an
    instance's pooled build, when it has already been computed.
    """

    def __init__(self, constraint_matrix, rhs, label=0, *, raw_qr=None):
        A = _held(np.atleast_2d(np.asarray(constraint_matrix, dtype=float)), constraint_matrix)
        b = _held(np.asarray(rhs, dtype=float).ravel(), rhs)
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
            raise DimensionMismatch(f"constraint matrix must be 2-D and nonempty, got shape {A.shape}")
        rows = A.shape[0]
        if b.shape != (rows,):
            raise DimensionMismatch(f"rhs has length {b.size}, expected {rows}")
        if not np.isfinite(b).all():
            raise InconsistentSystem("rhs is not finite")

        self._keep(A, b, _factor(A, b, raw_qr)[2], label)

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
        # keeps no larger factor alive through a view, and starts on a cache
        # line, so that CRM's products with it run alike wherever the heap is.
        self._use_null = _uses_null(rank, n)
        self._basis = _aligned_empty(basis.shape)
        self._basis[...] = basis
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
        return self._basis if self._use_null else _lapack._complement(self._basis)

    def row_space_basis(self):
        """Orthonormal basis of range(A^T), shape (n, rank)."""
        return _lapack._complement(self._basis) if self._use_null else self._basis

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


def _held(arr, given):
    """`arr`, the array read from the caller's `given`, or a copy of it where
    it is memory of the ndarray `given` that its owner lets be written: a
    subspace keeps arrays that no caller can change, and sets no flag on a
    caller's own.  Memory owned read-only, such as a block of a drawn
    instance, is kept as it is."""
    owner = arr.base if isinstance(arr.base, np.ndarray) else arr
    shared = isinstance(given, np.ndarray) and np.may_share_memory(arr, given)
    return arr.copy() if shared and (arr.flags.writeable or owner.flags.writeable) else arr


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
    """All m block differences P_i(x) - x and distances of a point, from bases stacked once.

    Blocks are grouped by the one basis they store (`_basis`, which spans
    null(A) when `_use_null`) and its width w.  A group's g bases are stored
    transposed as one (g, w, n) array, so one matrix-vector product with the
    flattened (g w, n) stack gives every block's coefficients of x, and one
    batched product maps them back to the blocks' differences.
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
        # Per group: B_i z_i of each row-route block, whose distances and
        # differences are read off coefficients; None on the null route.
        self._anchor_coeffs = []
        null = [i for i, U in enumerate(subspaces) if U._use_null]
        # The null-route blocks, whose squared differences `differences`
        # reads off `out`: None for none, a slice for all.
        self._null_rows = (None if not null else slice(None) if len(null) == len(subspaces)
                           else np.asarray(null))
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

    def differences(self, x, out, sq):
        """Write d_i = P_i(x) - x into out[i] and ||d_i||^2 into sq[i] for every block i.

        One product B_g x per group.  On the row route d_i = R_i (a_i - R_i^T x)
        for the coefficients a_i = R_i^T z_i that `distances` reads, as z_i lies
        in range(R_i), and sq_i is the squared norm of those w numbers: P_i(x)
        is never formed.  On the null route d_i = (z_i + N_i (N_i^T x)) - x,
        formed in place in one temporary, and the sq_i of every null-route
        block come from one einsum over the rows of `out` once all are written.
        """
        for (use_null, members, basis_t, anchors), anchor_coeff in zip(
                self.groups, self._anchor_coeffs):
            g, w, n = basis_t.shape
            coeff = basis_t.reshape(g * w, n) @ x
            if not use_null:
                np.subtract(anchor_coeff.reshape(g * w), coeff, out=coeff)
            if w == 1:
                # Same products as the matmul below, without its per-block overhead.
                d = coeff[:, None] * basis_t[:, 0]
            else:
                d = np.matmul(coeff.reshape(g, 1, w), basis_t)[:, 0]
            if use_null:
                d += anchors
                d -= x
            else:
                v = coeff.reshape(g, w)
                sq[members] = np.einsum("ij,ij->i", v, v)
            out[members] = d
        null = self._null_rows
        if null is not None:
            rows = out[null]
            sq[null] = np.einsum("ij,ij->i", rows, rows)

    def distances(self, x):
        """d(x, U_i) for every block i: shape (m,) for a point, (k, m) for k rows.

        Each group takes one product X B_g^T, every point's coefficients on
        every block.  On the row route x - P_i(x) = R_i (R_i^T x - R_i^T z_i),
        since the anchor z_i lies in range(R_i) and R_i is orthonormal, so
        the distance is the norm of the w coefficients less the anchor's and
        no length-n vector is formed.  On the null route it is
        ||x - (z_i + N_i (N_i^T x))||, formed for the group's blocks at once
        in chunks of rows whose one (g, rows, n) temporary holds no more
        numbers than X or the group's stack (at least one row), and is
        freed before the next chunk's is made.
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
                if w == 0:
                    # x - z_i: each block is its one point.
                    diff = X[s:s + rows] - anchors[:, None]
                else:
                    c = coeff[s:s + rows].transpose(1, 0, 2)
                    # x - (z_i + N_i c_i), formed in place in its one temporary.
                    diff = c * basis_t if w == 1 else np.matmul(c, basis_t)
                    diff += anchors[:, None]
                    np.subtract(X[s:s + rows], diff, out=diff)
                out[s:s + rows, members] = _row_norms(diff).T
                del diff
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
    size = math.prod(shape)
    buf = np.empty(size + 8)
    start = (-buf.__array_interface__["data"][0] % 64) // 8
    return buf[start:start + size].reshape(shape)


def _norm(v):
    """||v||.  Where the sum of squares overflows, for entries near the
    largest float, it is taken again of v scaled by max |v_i|, whose sum
    cannot overflow, so that it stays finite.  np.vdot gives the bytes of v @ v, but raises no overflow
    warning, and costs no np.errstate."""
    total = math.sqrt(np.vdot(v, v))
    if total < math.inf:
        return total
    scale = float(np.max(np.abs(v), initial=0.0))
    if not 0.0 < scale < np.inf:
        return scale
    return scale * _norm(v / scale)


def _factor_qr(A, b, raw_qr=None):
    """Factors of a wide block, storing the thinner basis, or None if its QR
    is not certified; `raw_qr` is _lapack._geqrf(A^T) if already computed."""
    rows, n = A.shape
    use_null = _uses_null(rows, n)
    found = _lapack._certified_qr_basis(A, b, n - rows if use_null else rows, use_null, raw_qr)
    return None if found is None else (rows, *found)


def _factor_whole(A, b, limit, raw_qr=None):
    """Factors of a whole block: its QR, or the SVD when that is not certified.

    Raises InconsistentSystem when the anchor's misfit exceeds `limit` or
    is not finite, and when an uncertified A is not finite.  `raw_qr` is
    passed to _factor_qr.
    """
    factors = _factor_qr(A, b, raw_qr) if A.shape[0] <= A.shape[1] else _factor_tall_qr(A, b)
    if factors is None:
        # A non-finite A never passes a certificate, so only here is it checked.
        if not np.isfinite(A).all():
            raise InconsistentSystem("constraint matrix is not finite")
        factors = _factor_svd(A, b)
    misfit = _norm(A @ factors[1] - b)
    # False for a nan misfit too, as from a non-finite A.
    if not misfit <= limit:
        raise InconsistentSystem(
            f"rhs outside range of constraint matrix (residual {misfit:.3e})"
        )
    return factors


def _factor_tall_qr(A, b):
    """Factors of a tall block from _lapack._certified_tall_solve, or None if not certified.

    A certified A has full column rank, so the row space is all of R^n, the
    stored null basis is empty, and z0 is the least-squares solution, whose
    misfit the caller's consistency check sees.
    """
    n = A.shape[1]
    z0 = _lapack._certified_tall_solve(A, b)
    return None if z0 is None else (n, z0, np.zeros((n, 0)))


def _factor_svd(A, b):
    """Rank-revealing factors of any block from its SVD."""
    rows, n = A.shape
    # Full right factor is needed: V[:, :r] spans the row space and
    # V[:, r:] the direction (null) space; only the one used is kept.
    U, s, Vh = np.linalg.svd(A, full_matrices=rows < n)
    sigma_max = s[0] if s.size else 0.0
    cutoff = max(rows, n) * np.finfo(float).eps * sigma_max
    rank = int(np.count_nonzero(s > cutoff))

    # Minimum-norm solution z0 = A^+ b; also serves as the anchor point.
    z0 = Vh[:rank].T @ ((U[:, :rank].T @ b) / s[:rank]) if rank > 0 else np.zeros(n)
    return rank, z0, (Vh[rank:] if _uses_null(rank, n) else Vh[:rank]).T


def _factor(A, b, raw_qr=None):
    """(A', b', factors): the factors of {x : A x = b} and the rows A' x = b'
    that they describe it by.

    The limit on the anchor's misfit is CONSISTENCY_RTOL * (1 + ||b||).  A
    stack of at least 4n rows first tries its first 2n rows, by one R-only
    QR (_factor_tall_qr).  A certified prefix has full column rank, so A
    does too, and the prefix's least-squares solution is the only candidate
    for a point of the set.  It is kept, with A' = A[:2n], when the misfit
    of all of A, one product over the stack, is within the limit: the
    prefix rows pin the same point as the stack, so they describe the same
    set.  The stack's own least-squares solution has the least misfit, so
    every stack the whole-stack route accepts is still accepted, and up to
    rounding none that it rejects is.  A shorter stack, a prefix that is
    not certified or a point that fits only the prefix takes
    _factor_whole(A, b, limit, raw_qr) with A' = A; a prefix that fails
    costs at most half of that QR.
    """
    n = A.shape[1]
    limit = CONSISTENCY_RTOL * (1.0 + _norm(b))
    if A.shape[0] >= 4 * n:
        factors = _factor_tall_qr(A[:2 * n], b[:2 * n])
        if factors is not None and _norm(A @ factors[1] - b) <= limit:
            return A[:2 * n], b[:2 * n], factors
    return A, b, _factor_whole(A, b, limit, raw_qr)


def _stacked(arrays):
    """np.concatenate(arrays), with the bytes of np.vstack for 2-D ones: a
    read-only view when the arrays are consecutive pieces, in order, of one
    C-order array, as the blocks of an instance are, and a copy otherwise."""
    first, base = arrays[0], arrays[0].base
    start = end = first.ctypes.data
    for a in arrays:
        if not (isinstance(base, np.ndarray) and base.flags.c_contiguous and a.base is base
                and a.flags.c_contiguous and a.dtype == base.dtype
                and a.shape[1:] == first.shape[1:] and a.ctypes.data == end):
            return np.concatenate(arrays)
        end += a.nbytes
    offset = (start - base.ctypes.data) // base.itemsize
    flat = base.reshape(-1)[offset:offset + (end - start) // base.itemsize]
    view = flat.reshape(-1, *first.shape[1:])
    view.setflags(write=False)
    return view


def intersection_subspace(subspaces):
    """One subspace representing the intersection of the blocks.

    Its `project` is the exact best-approximation oracle onto the
    intersection.  The blocks' rows and right-hand sides are stacked by
    _stacked, a read-only view of their parent array when the blocks are
    adjacent rows of one, as an instance's are.  A list that is not
    adjacent is copied whole, even when the prefix route then needs only
    its first 2n rows.  The stack is factored by _factor, as a block is, so
    one that its prefix route accepts is described by its first 2n rows, a
    view of the stack, and every other one by the whole stack.  The
    consistency limit is CONSISTENCY_RTOL * (1 + ||b||), with b the whole
    stacked rhs.

    Raises EmptyIntersection when the stacked system is inconsistent.
    """
    subspaces, _ = _block_list(subspaces)
    A = _stacked([U.constraint_matrix for U in subspaces])
    b = _stacked([U.rhs for U in subspaces])
    try:
        return AffineSubspace._from_factors(*_factor(A, b), label=-1)
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
