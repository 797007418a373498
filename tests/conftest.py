import threading

import numpy as np
import pytest

from circumproj import AffineSubspace, ProblemInstance, _lapack, affine


def random_block_instance(rng, n_range=(3, 12), block_range=(2, 4),
                          rows_range=(1, 4), allow_dependent_rows=True):
    """Random consistent block instance with a planted common point.

    Row counts are drawn per block; occasionally a duplicated row is added so
    rank-deficient blocks appear too.  The intersection is nonempty by
    construction but generally not a singleton.
    """
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    blocks = int(rng.integers(block_range[0], block_range[1] + 1))
    planted = rng.standard_normal(n)
    subspaces = []
    for i in range(blocks):
        rows = int(rng.integers(rows_range[0], min(rows_range[1], n) + 1))
        A = rng.standard_normal((rows, n))
        if allow_dependent_rows and rows > 1 and rng.random() < 0.15:
            A = np.vstack([A, 2.0 * A[0]])
        b = A @ planted
        subspaces.append(AffineSubspace(A, b, label=i))
    return ProblemInstance(subspaces=tuple(subspaces), ambient_dim=n)


def hyperplane_instance(rng, n, blocks):
    """Consistent single-row blocks sharing a planted point."""
    planted = rng.standard_normal(n)
    subspaces = []
    for i in range(blocks):
        a = rng.standard_normal((1, n))
        subspaces.append(AffineSubspace(a, a @ planted, label=i))
    return ProblemInstance(subspaces=tuple(subspaces), ambient_dim=n)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the blocks that went through the SVD factorization."""
    calls = []
    factor_svd = affine._factor_svd

    def spy(A, b):
        calls.append(A.shape)
        return factor_svd(A, b)

    monkeypatch.setattr(affine, "_factor_svd", spy)
    return calls


@pytest.fixture
def tall_solves(monkeypatch):
    """Row counts of the stacks that went through _certified_tall_solve."""
    calls = []
    solve = _lapack._certified_tall_solve

    def spy(A, b):
        calls.append(A.shape[0])
        return solve(A, b)

    monkeypatch.setattr(_lapack, "_certified_tall_solve", spy)
    return calls


@pytest.fixture
def raw_qrs(monkeypatch):
    """(shape of h, thread) of every Householder QR run, in any thread."""
    calls = []
    run = _lapack._RawQR.run

    def spy(self):
        calls.append((self.h.shape, threading.get_ident()))
        return run(self)

    monkeypatch.setattr(_lapack._RawQR, "run", spy)
    return calls


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
