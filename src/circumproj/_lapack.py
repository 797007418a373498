"""The one module that calls LAPACK outside numpy.linalg's wrappers.

Its certified routes, a wide block's QR basis (_certified_qr_basis), the
R-only QR solve of a tall block, prefix or circumcenter step
(_certified_tall_solve) and a wide circumcenter step's Cholesky solve
(_certified_cholesky_solve), share one guarantee:

* A route keeps its triangle T only when ||T||_F * ||T^-1||_F, an upper
  bound on sigma_max / sigma_min (squared for the Cholesky factor of a Gram
  matrix, where it bounds kappa_2(G)), is at most QR_CONDITION_LIMIT, and
  otherwise returns None, so that the caller takes its fallback: the SVD or
  least squares.  The SVD rank cutoff, max(rows, n) * eps * sigma_max, is
  about 1e-13 * sigma_max at n = 500, so a certified block is full rank by
  a margin that rounding cannot erase.
* Every result has the bytes of the numpy.linalg formula it stands for.
  The routes call the LAPACK gufuncs of numpy.linalg's inv, solve and
  cholesky directly, under the same error state, take np.tril/np.triu's
  np.where on a cached mask and np.linalg.norm's dot in memory order, and
  so skip only the wrappers' per-call cost.
* dgeqrf, bound by ctypes in the library numpy's linalg links, gives the
  bytes of np.linalg.qr(X, mode="raw").  It releases the GIL and allocates
  nothing, so it may run on a pool thread (_block_qrs).
"""

import collections
import contextlib
import ctypes
import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

QR_CONDITION_LIMIT = 1e8

# Diagonal blocks up to this order are inverted or solved directly by LAPACK.
_TRIANGULAR_LEAF = 32

# Householder reflectors applied together, in one compact WY block, by _apply_q.
_WY_PANEL = 128

# Triangle masks of at most this many entries are cached, 64 of them in at
# most 1 MiB.  Above it a fresh mask costs little beside its block:
# protocol-tall's would hold 0.9 MB to save about 55 us of a 9 ms block.
_CACHED_MASK_ENTRIES = 1 << 14
# The zero that np.tril and np.triu fill with.
_ZERO = np.zeros(1)
_ZERO.setflags(write=False)

# Wide blocks with at least this many entries have their QR computed on a
# pool thread when there is a spare CPU.  With BLAS at one thread on 2 CPUs,
# 30 alternating in-process builds of the 41 blocks of a 40n x n protocol
# matrix took, pooled over serial, a median 1.08x at n = 60, 0.63x at
# n = 500 and 0.76-0.79x at n = 120-140 on a quiet host.  At n = 100 (98 x
# 100 blocks) it was 0.84-0.92x (26-29 wins of 30) on a quiet host,
# 0.89-0.98x (21-22 wins) beside other work, and 1.17-1.28x beside a busy
# CPU.  Twelve 20 x 400 blocks took 1.2-1.35x.  A 99 x 100 block stays
# serial: a spare CPU saves it less than a busy one costs.
_POOLED_BLOCK_ENTRIES = 20_000

# Symbols bound by ctypes in the LAPACK that numpy's linalg links: only the
# ILP64 (64-bit integer) names, with or without scipy-openblas's prefix.
_DGEQRF_NAMES = ("scipy_dgeqrf_64_", "dgeqrf_64_")
_BLAS_THREADS_NAMES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_")
# The C library's, which the linalg library links: None where it has none.
_MALLOC_TRIM_NAMES = ("malloc_trim",)


def _lapack_failed(err, flag):
    raise LinAlgError("LAPACK found the matrix singular or not positive definite")


# The error state numpy.linalg puts around its LAPACK gufuncs, which flag a
# failed factorization as an invalid value: LinAlgError then, else no warning.
_LAPACK_ERRORS = dict(call=_lapack_failed, invalid="call", over="ignore", divide="ignore",
                      under="ignore")


def _cpu_count():
    """CPUs this process may run on: the ceiling on a draw's threads and on
    the threads that factor an instance's blocks."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@functools.cache
def _lapack_symbol(names):
    """The first of the symbols `names` in the library numpy's linalg links, or None."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    return next((getattr(lib, name) for name in names if hasattr(lib, name)), None)


@functools.cache
def _dgeqrf():
    """LAPACK's dgeqrf with 64-bit integer arguments, or None where not bound."""
    func = _lapack_symbol(_DGEQRF_NAMES)
    if func is not None:
        i64 = ctypes.POINTER(ctypes.c_int64)
        # M, N, A, LDA, TAU, WORK, LWORK, INFO
        func.argtypes = [i64, i64, ctypes.c_void_p, i64, ctypes.c_void_p, ctypes.c_void_p,
                         i64, i64]
        func.restype = None
    return func


def _blas_threads():
    """The thread count the BLAS that numpy links reports now, or None."""
    func = _lapack_symbol(_BLAS_THREADS_NAMES)
    # It takes no argument and returns a C int, ctypes' default return type.
    return None if func is None else func()


def _factor_workers():
    """Pool threads for block QRs: one per spare CPU, counted in BLAS thread
    counts, so 0 when the BLAS already uses every CPU; 0 as well when the
    BLAS does not report its thread count or dgeqrf is not bound."""
    threads = _blas_threads()
    if not threads or _dgeqrf() is None:
        return 0
    return max(0, _cpu_count() // threads - 1)


@functools.lru_cache(maxsize=64)
def _geqrf_lwork(m, k):
    """The workspace length numpy's raw QR gives dgeqrf on an m x k matrix:
    LAPACK's optimum, at least max(1, k), so the blocking and the bytes match."""
    query, info = np.zeros(1), ctypes.c_int64()
    _dgeqrf()(ctypes.c_int64(m), ctypes.c_int64(k), query.ctypes.data,
              ctypes.c_int64(max(1, m)), query.ctypes.data, query.ctypes.data,
              ctypes.c_int64(-1), info)
    return max(1, k, int(query[0]))


class _RawQR:
    """One Householder QR of an m x k matrix X, as np.linalg.qr(X, mode="raw").

    `h` is a new C-order array of `shape` (k, m), for the caller to fill
    with X^T, which is X in LAPACK's column order.  It and dgeqrf's
    workspace are one buffer, allocated in the calling thread, so the thread
    that keeps h frees both; run() only calls dgeqrf on them, which
    overwrites h with the raw factor and fills tau.  Without a bound dgeqrf,
    run() takes numpy's raw QR, which holds the GIL but gives the same bytes.
    """

    def __init__(self, shape):
        k, m = shape
        self._dgeqrf = _dgeqrf()
        lwork = 0 if self._dgeqrf is None else _geqrf_lwork(m, k)
        buf = np.empty(k * m + lwork)
        self.h = buf[:k * m].reshape(k, m)
        self._work = buf[k * m:] if lwork else None
        self.tau = np.empty(min(m, k))

    def run(self):
        """(h, tau), the raw factor of X."""
        h, tau, work = self.h, self.tau, self._work
        k, m = h.shape
        if work is None:
            h[...], tau[...] = np.linalg.qr(h.T, mode="raw")
            return h, tau
        info = ctypes.c_int64()
        self._dgeqrf(ctypes.c_int64(m), ctypes.c_int64(k), h.ctypes.data,
                     ctypes.c_int64(max(1, m)), tau.ctypes.data, work.ctypes.data,
                     ctypes.c_int64(work.size), info)
        if info.value != 0:
            raise LinAlgError(f"dgeqrf rejected argument {-info.value}")
        return h, tau


def _geqrf(X, pool=None):
    """(h, tau) of np.linalg.qr(X, mode="raw") for a 2-D X, bitwise, from a
    copy of X whatever its layout; given a pool, a future of it run there."""
    m, k = X.shape
    qr = _RawQR((k, m))
    np.copyto(qr.h, X.T)
    return qr.run() if pool is None else pool.submit(qr.run)


@contextlib.contextmanager
def _block_qrs(matrices):
    """An iterator over _geqrf(M^T) of each wide M of `matrices`, in order.

    The QR of each M of at least _POOLED_BLOCK_ENTRIES entries runs on a pool
    of _factor_workers() threads, at most one M ahead per thread, on buffers
    this thread allocates as it draws the items; every other item is None,
    for the caller to factor itself.  The pool ends with the context.
    """
    pooled = [M.size >= _POOLED_BLOCK_ENTRIES for M in matrices]
    workers = _factor_workers() if any(pooled) else 0
    # A pooled build frees its QR buffers among the blocks' kept arrays, where
    # the heap cannot shrink past them.  glibc's malloc_trim returns the pages
    # of the heap's free memory to the OS, before the QRs and after them.
    trim = _lapack_symbol(_MALLOC_TRIM_NAMES) if workers else None
    if trim is not None:
        trim(ctypes.c_size_t(0))
    with ThreadPoolExecutor(max_workers=workers) if workers else contextlib.nullcontext() as pool:
        jobs = (_geqrf(M.T, pool) if workers and use else None for M, use in zip(matrices, pooled))
        ahead = collections.deque(itertools.islice(jobs, workers))

        def in_order():
            for _ in matrices:
                ahead.extend(itertools.islice(jobs, 1))
                # Bound to no name here: a QR must not outlive its block's build.
                yield _result(ahead.popleft())

        yield in_order()
    if trim is not None:
        trim(ctypes.c_size_t(0))


def _result(job):
    return None if job is None else job.result()


def _certified_qr_basis(A, b, width, null, raw_qr=None):
    """(z0, basis) of a wide block A x = b from a QR of A^T, or None.

    One geqrf, A^T = Q [T; 0], keeps Q = H_0 ... H_{rows-1} as reflectors.
    Then A = T^T Q[:, :rows]^T, so Q[:, :rows] spans the row space,
    Q[:, rows:] the null space, and z0 = Q [T^-T b; 0].  One pass of
    _apply_q over [E | T^-T b; 0] gives the stored basis and z0 together,
    where E is the `width` unit columns that pick it out: the trailing ones
    of the null space when `null`, else the leading ones.  `raw_qr` is that
    geqrf when already computed.
    """
    h, tau = _geqrf(A.T) if raw_qr is None else raw_qr
    # Row j of h holds column j of LAPACK's factor, so T = tril(h)^T.
    rows, n = h.shape
    T_inv = _certified_inverse(_tril(h[:, :rows]).T)
    if T_inv is None:
        return None
    C = np.zeros((n, width + 1))
    C[:rows, width] = T_inv.T @ b
    d = np.arange(width)
    C[(rows if null else 0) + d, d] = 1.0
    _apply_q(h, tau, C, leading=0 if null else width)
    return C[:, width].copy(), C[:, :width]


def _apply_q(h, tau, C, leading=0):
    """Overwrite C with Q C for the Q of _geqrf(X) -> (h, tau).

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
        Vt = _triu(h[s:e, s:], 1)
        live = tau[s:e] != 0
        Vt[~live] = 0.0
        d = np.arange(e - s)
        Vt[d, d] = live
        G = Vt @ Vt.T
        T_inv = _triu(G, 1)
        T_inv[d, d] = np.where(live, 0.5 * G[d, d], 1.0)
        X = C[s:, min(s, leading):]
        X -= Vt.T @ _triangular_solve(T_inv, Vt @ X)


def _complement(B):
    """Orthonormal basis of the orthogonal complement of range(B), read-only.

    B is n x k with orthonormal columns; with B = Q [R; 0], the trailing
    n - k columns of Q span the complement (all of Q = I when k = 0).
    """
    n, k = B.shape
    h, tau = _geqrf(B)
    out = np.zeros((n, n - k))
    d = np.arange(n - k)
    out[k + d, d] = 1.0
    _apply_q(h, tau, out)
    out.setflags(write=False)
    return out


def _certified_tall_solve(A, b):
    """R^-1 c from an R-only QR of [A | b], or None if R is not certified.

    A is (rows, n) with rows > n.  With [A | b] = Q [[R, c], [0, d]], a
    certified R makes A full column rank, and R^-1 c is the unique
    least-squares solution of A y = b, whose misfit |d| the caller checks.
    Q is never formed: geqrf overwrites the one copy of [A | b]^T.
    """
    rows, n = A.shape
    qr = _RawQR((n + 1, rows))
    h = qr.h
    h[:n] = A.T
    h[n] = b
    qr.run()
    # Only R and c are kept, so the QR buffer is freed before R is certified.
    # R is in C order: the certificate's bytes depend on its layout.
    R = np.ascontiguousarray(_triu(h[:n, :n].T))
    c = h[n, :n].copy()
    del qr, h
    R_inv = _certified_inverse(R)
    if R_inv is None:
        return None
    return R_inv @ c


def _certified_inverse(T):
    """Inverse of an upper triangle T, or None unless
    ||T||_F * ||T^-1||_F <= QR_CONDITION_LIMIT.  T is overwritten, with
    the inverse above one LAPACK leaf (see _triangular_inverse)."""
    norm = _frobenius(T)
    try:
        # A nearly singular T may overflow to inf or nan; both fail the test.
        with np.errstate(all="ignore"):
            T_inv = _triangular_inverse(T)
    except LinAlgError:
        return None
    return T_inv if norm * _frobenius(T_inv) <= QR_CONDITION_LIMIT else None


def _frobenius(M):
    """np.linalg.norm(M), bitwise: the squares summed in M's memory order.
    A float, so an overflowed product of two norms raises no warning."""
    v = M.ravel(order="K")
    return math.sqrt(v.dot(v))


def _tri(rows, cols, k):
    """np.tri(rows, cols, k, dtype=bool), the mask np.tril and np.triu build
    on every call; read-only and cached up to _CACHED_MASK_ENTRIES entries."""
    if rows * cols > _CACHED_MASK_ENTRIES:
        return np.tri(rows, cols, k, dtype=bool)
    return _cached_tri(rows, cols, k)


@functools.lru_cache(maxsize=64)
def _cached_tri(rows, cols, k):
    mask = np.tri(rows, cols, k, dtype=bool)
    mask.setflags(write=False)
    return mask


def _tril(M):
    """np.tril(M) of a 2-D M, bitwise: the same np.where on a cached mask."""
    return np.where(_tri(*M.shape, 0), M, _ZERO)


def _triu(M, k=0):
    """np.triu(M, k) of a 2-D M, bitwise: the same np.where on a cached mask."""
    return np.where(_tri(*M.shape, k - 1), _ZERO, M)


def _certified_cholesky_solve(gram, rhs):
    """G^-1 r from G = L L^T, or None unless (||L||_F ||L^-1||_F)^2 <=
    QR_CONDITION_LIMIT."""
    try:
        with np.errstate(**_LAPACK_ERRORS):
            L = _umath_linalg.cholesky_lo(gram, signature="d->d")
            L_inv = _umath_linalg.inv(L, signature="d->d")
    except LinAlgError:  # G is not numerically positive definite
        return None
    # A nearly singular L may overflow L^-1 to inf, which fails the test.
    if not np.vdot(L, L) * np.vdot(L_inv, L_inv) <= QR_CONDITION_LIMIT:
        return None
    return rhs @ L_inv.T @ L_inv


def _triangular_inverse(T):
    """Inverse of an upper-triangular matrix by recursive 2x2 blocking,
    written over T.

    inv([[T11, T12], [0, T22]]) = [[X11, -X11 T12 X22], [0, X22]] with
    Xii = inv(Tii); about a quarter of the flops of a general inverse.  A
    leaf is np.linalg.inv's gufunc, and raises LinAlgError where it would.
    Each block of T is overwritten by the same block of the inverse once it
    is no longer read, so the zeros below the diagonal stay and no second
    triangle is allocated.  A leaf returns the gufunc's new array, and a
    larger T returns T itself: every product then sees the layout it had
    when each level allocated its own result, so the bytes are those of
    np.zeros_like(T) filled block by block.
    """
    k = T.shape[0]
    if k <= _TRIANGULAR_LEAF:
        with np.errstate(**_LAPACK_ERRORS):
            X = _umath_linalg.inv(T, signature="d->d")
        T[...] = X
        return X
    h = k // 2
    X11 = _triangular_inverse(T[:h, :h])
    X22 = _triangular_inverse(T[h:, h:])
    P = X11 @ T[:h, h:]
    T[:h, h:] = np.negative(P, out=P) @ X22
    return T


def _triangular_solve(T, W):
    """T^-1 W for an upper-triangular T by recursive 2x2 blocking.

    With T = [[T11, T12], [0, T22]], Y2 = T22^-1 W2 and
    Y1 = T11^-1 (W1 - T12 Y2); a general solve would spend the flops of a
    full LU on T.  W is 2-D, and a leaf is np.linalg.solve's gufunc, which
    raises LinAlgError where it would.
    """
    k = T.shape[0]
    if k <= _TRIANGULAR_LEAF:
        with np.errstate(**_LAPACK_ERRORS):
            return _umath_linalg.solve(T, W, signature="dd->d")
    h = k // 2
    Y2 = _triangular_solve(T[h:, h:], W[h:])
    Y1 = _triangular_solve(T[:h, :h], W[:h] - T[:h, h:] @ Y2)
    return np.concatenate([Y1, Y2])
