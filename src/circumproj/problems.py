"""Deterministic generation of coherence-controlled block instances.

The benchmark protocol draws a dense matrix (1 - c) * Z + c with Z standard
normal, plants the solution x* = A^T w from a fresh normal vector w, sets
b = A x*, and partitions the rows into floor(m/n) + 1 consecutive blocks.

Randomness comes from a single seeded stream per instance: a PCG64 uniform
generator pushed through the Box-Muller transform, drawn in the fixed order
"matrix entries, then w" (or "matrix entries, then planted point" for the
underdetermined variant).  Regeneration from a descriptor is therefore
bit-exact within this implementation; only statistical equivalence is
promised across implementations.
"""

from dataclasses import dataclass

import numpy as np

from .affine import AffineSubspace, residual
from .errors import DimensionMismatch, InconsistentSystem, InvalidCoherence

GENERATOR_ID = "pcg64-boxmuller"

# Uniform pairs pushed through the Box-Muller transform at a time.
_BOX_MULLER_CHUNK = 1 << 14


class _NormalStream:
    """Standard-normal variates: PCG64 uniforms through Box-Muller pairs.

    Each draw consumes whole uniform pairs and discards any leftover half,
    so the stream position after a draw depends only on the sequence of
    requested counts.
    """

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.PCG64(int(seed)))

    def draw(self, count):
        pairs = (count + 1) // 2
        u1 = self._rng.random(pairs)
        u2 = self._rng.random(pairs)
        z = np.empty(2 * pairs)
        # The transform runs in chunks through fixed buffers, with the same
        # ufuncs on contiguous inputs as whole-array code, so the bytes match
        # it and no temporary of the transform is as large as the draw.
        chunk = min(pairs, _BOX_MULLER_CHUNK)
        radius, angle, trig = np.empty(chunk), np.empty(chunk), np.empty(chunk)
        for lo in range(0, pairs, chunk):
            hi = min(lo + chunk, pairs)
            r, a, t = radius[:hi - lo], angle[:hi - lo], trig[:hi - lo]
            np.negative(u1[lo:hi], out=r)
            np.log1p(r, out=r)
            np.multiply(-2.0, r, out=r)
            np.sqrt(r, out=r)
            np.multiply(2.0 * np.pi, u2[lo:hi], out=a)
            np.multiply(r, np.cos(a, out=t), out=z[2 * lo:2 * hi:2])
            np.multiply(r, np.sin(a, out=t), out=z[2 * lo + 1:2 * hi:2])
        return z[:count]


def _check_coherence(c):
    c = float(c)
    if not 0.0 <= c <= 1.0:
        raise InvalidCoherence(f"coherence must lie in [0, 1], got {c}")
    return c


def _coherent_matrix(stream, m, n, c):
    z = stream.draw(m * n).reshape(m, n)
    z *= 1.0 - c
    z += c
    return z


def gaussian_matrix(m, n, c, seed):
    """m x n matrix with entries (1 - c) * N(0, 1) + c, deterministic in seed."""
    c = _check_coherence(c)
    if m < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m} x {n}")
    return _coherent_matrix(_NormalStream(seed), int(m), int(n), c)


def block_count(m, n):
    """Number of row blocks in the benchmark protocol: floor(m/n) + 1."""
    return m // n + 1


def _partition_sizes(m, blocks):
    # First (m mod blocks) blocks take one extra row; all rows covered in order.
    base, extra = divmod(m, blocks)
    return [base + 1] * extra + [base] * (blocks - extra)


@dataclass(frozen=True)
class GenerationDescriptor:
    """Everything needed to regenerate an instance bit-exactly."""

    m: int
    n: int
    coherence: float
    seed: int
    generator_id: str = GENERATOR_ID
    block_count: int = 0
    block_rows: tuple | None = None

    def to_dict(self):
        d = {
            "m": self.m,
            "n": self.n,
            "coherence": self.coherence,
            "seed": self.seed,
            "generator_id": self.generator_id,
            "block_count": self.block_count,
        }
        if self.block_rows is not None:
            d["block_rows"] = list(self.block_rows)
        return d

    @classmethod
    def from_dict(cls, d):
        rows = d.get("block_rows")
        return cls(
            m=int(d["m"]),
            n=int(d["n"]),
            coherence=float(d["coherence"]),
            seed=int(d["seed"]),
            generator_id=str(d["generator_id"]),
            block_count=int(d["block_count"]),
            block_rows=tuple(int(r) for r in rows) if rows is not None else None,
        )


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Ordered block list plus optional known solution and provenance."""

    subspaces: tuple
    ambient_dim: int
    known_solution: np.ndarray | None = None
    descriptor: GenerationDescriptor | None = None

    def __post_init__(self):
        if not self.subspaces:
            raise ValueError("instance needs at least one block")
        for U in self.subspaces:
            if U.ambient_dim != self.ambient_dim:
                raise DimensionMismatch(
                    f"block {U.label} has ambient dimension {U.ambient_dim}, "
                    f"instance has {self.ambient_dim}"
                )
        if self.known_solution is not None:
            xs = np.asarray(self.known_solution, dtype=float).ravel()
            if xs.shape != (self.ambient_dim,):
                raise DimensionMismatch("known solution has the wrong length")
            misfit = float(residual(self.subspaces, xs))
            if misfit > 1e-8 * (1.0 + float(np.linalg.norm(xs))):
                raise InconsistentSystem(
                    f"known solution violates the blocks (residual {misfit:.3e})"
                )
            object.__setattr__(self, "known_solution", xs)

    @property
    def block_count(self):
        return len(self.subspaces)


def build_instance(m, n, c, seed):
    """Benchmark-protocol instance: m > n, planted solution x* = A^T w.

    Generically the stacked matrix has full column rank, so the intersection
    is the singleton {x*}.
    """
    m, n = int(m), int(n)
    if not m > n >= 1:
        raise ValueError(f"protocol requires m > n >= 1, got m={m}, n={n}")
    c = _check_coherence(c)
    stream = _NormalStream(seed)
    A = _coherent_matrix(stream, m, n, c)
    w = stream.draw(m)
    x_star = A.T @ w
    b = A @ x_star

    blocks = block_count(m, n)
    sizes = _partition_sizes(m, blocks)
    subspaces = []
    lo = 0
    for i, size in enumerate(sizes):
        subspaces.append(AffineSubspace(A[lo:lo + size], b[lo:lo + size], label=i))
        lo += size
    descriptor = GenerationDescriptor(
        m=m, n=n, coherence=c, seed=int(seed), block_count=blocks
    )
    return ProblemInstance(
        subspaces=tuple(subspaces),
        ambient_dim=n,
        known_solution=x_star,
        descriptor=descriptor,
    )


def build_underdetermined_instance(n, block_rows, c, seed):
    """Consistent blocks sharing a planted common point, total rows <= n.

    The intersection is generically a positive-dimensional affine set, so no
    known solution is attached (the best approximation depends on the start).
    """
    n = int(n)
    rows = [int(r) for r in block_rows]
    if not rows or any(r < 1 for r in rows):
        raise ValueError("block_rows must be a nonempty list of positive counts")
    total = sum(rows)
    if total > n:
        raise ValueError(f"total rows {total} exceed ambient dimension {n}")
    c = _check_coherence(c)
    stream = _NormalStream(seed)
    A = _coherent_matrix(stream, total, n, c)
    planted = stream.draw(n)
    b = A @ planted

    subspaces = []
    lo = 0
    for i, size in enumerate(rows):
        subspaces.append(AffineSubspace(A[lo:lo + size], b[lo:lo + size], label=i))
        lo += size
    descriptor = GenerationDescriptor(
        m=total, n=n, coherence=c, seed=int(seed),
        block_count=len(rows), block_rows=tuple(rows),
    )
    return ProblemInstance(
        subspaces=tuple(subspaces),
        ambient_dim=n,
        known_solution=None,
        descriptor=descriptor,
    )


def instance_from_descriptor(descriptor):
    """Regenerate the instance a descriptor came from (bit-exact)."""
    if descriptor.generator_id != GENERATOR_ID:
        raise ValueError(
            f"unknown generator id {descriptor.generator_id!r}; "
            f"this build regenerates only {GENERATOR_ID!r}"
        )
    if descriptor.block_rows is not None:
        return build_underdetermined_instance(
            descriptor.n, descriptor.block_rows, descriptor.coherence, descriptor.seed
        )
    return build_instance(descriptor.m, descriptor.n, descriptor.coherence, descriptor.seed)
