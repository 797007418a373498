"""Independent reference computations used by the tests.

Projections here are obtained from the dense KKT system

    [ I   A^T ] [ z ]   [ x ]
    [ A   0   ] [ u ] = [ b ]

solved as one square least-squares problem, a route entirely separate from
the library's cached-basis formulas.
"""

import numpy as np
import scipy.linalg


def kkt_project(A, b, x):
    """Projection of x onto {z : A z = b} via the dense KKT system."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    m, n = A.shape
    K = np.zeros((n + m, n + m))
    K[:n, :n] = np.eye(n)
    K[:n, n:] = A.T
    K[n:, :n] = A
    rhs = np.concatenate([x, b])
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    return sol[:n]


def stack_blocks(subspaces):
    A = np.vstack([U.constraint_matrix for U in subspaces])
    b = np.concatenate([U.rhs for U in subspaces])
    return A, b


def kkt_project_blocks(subspaces, x):
    """Projection of x onto the intersection of all blocks."""
    A, b = stack_blocks(subspaces)
    return kkt_project(A, b, x)


def fspm_step_reference(subspaces, weights, x):
    """p_0 x + sum_i p_i P_i(x), one KKT projection per block."""
    x = np.asarray(x, dtype=float).ravel()
    step = weights[0] * x
    for p, U in zip(weights[1:], subspaces):
        step = step + p * kkt_project(U.constraint_matrix, U.rhs, x)
    return step


def kkt_residuals(A, b, x, z):
    """Feasibility and stationarity misfits of a claimed projection z."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    feas = np.linalg.norm(A @ z - b)
    N = scipy.linalg.null_space(A)
    stat = np.linalg.norm(N.T @ (x - z)) if N.size else 0.0
    return feas, stat


def point_in_subspace(rng, A, b, scale=1.0):
    """Random point of {z : A z = b}: particular solution + null combination."""
    part, *_ = np.linalg.lstsq(A, b, rcond=None)
    N = scipy.linalg.null_space(np.atleast_2d(A))
    if N.size == 0:
        return part
    return part + N @ (scale * rng.standard_normal(N.shape[1]))


class ReferenceNormalStream:
    """The whole-array Box-Muller draw that problems._NormalStream replaces.

    Same PCG64 stream and the same ufuncs, applied to every pair at once.
    """

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.PCG64(int(seed)))

    def draw(self, count):
        pairs = (count + 1) // 2
        u1 = self._rng.random(pairs)
        u2 = self._rng.random(pairs)
        radius = np.sqrt(-2.0 * np.log1p(-u1))
        angle = (2.0 * np.pi) * u2
        z = np.empty(2 * pairs)
        z[0::2] = radius * np.cos(angle)
        z[1::2] = radius * np.sin(angle)
        return z[:count]


def reference_coherent_matrix(m, n, c, seed):
    """(1 - c) Z + c with Z the first m n variates of ReferenceNormalStream(seed)."""
    z = ReferenceNormalStream(seed).draw(m * n).reshape(m, n)
    return (1.0 - c) * z + c


def svd_factors(A, b):
    """(rank, min-norm solution, row-space basis, null-space basis) from one SVD."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    rows, n = A.shape
    U, s, Vh = np.linalg.svd(A, full_matrices=True)
    rank = int(np.count_nonzero(s > max(rows, n) * np.finfo(float).eps * s[0]))
    z0 = Vh[:rank].T @ ((U[:, :rank].T @ b) / s[:rank])
    return rank, z0, Vh[:rank].T, Vh[rank:].T


def gram_circumcenter(points):
    """The Gram route alone: minimum-norm least squares on the normal system
    G alpha = r, with G = D D^T for the differences d_j = x_j - x_0 and
    r_j = 1/2 ||d_j||^2, and the point x_0 + D^T alpha."""
    pts = np.asarray(points, dtype=float)
    diffs = pts[1:] - pts[0]
    rhs = 0.5 * np.einsum("ij,ij->i", diffs, diffs)
    alpha = np.linalg.lstsq(diffs @ diffs.T, rhs, rcond=None)[0]
    return pts[0] + alpha @ diffs
