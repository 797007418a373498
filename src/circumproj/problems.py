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

import functools
import itertools
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from ._lapack import _block_qrs, _cpu_count
from .affine import CONSISTENCY_RTOL, AffineSubspace, _BlockKernel, _block_list, _check_point, _norm
from .errors import DimensionMismatch, InconsistentSystem, InvalidCoherence

GENERATOR_ID = "pcg64-boxmuller"

# Uniform pairs pushed through the Box-Muller transform at a time.
_BOX_MULLER_CHUNK = 1 << 14


class _NormalStream:
    """Standard-normal variates: PCG64 uniforms through Box-Muller pairs.

    A draw of `count` variates takes `pairs = ceil(count / 2)` uniforms u1,
    then `pairs` uniforms u2, and discards any leftover half, so the stream
    position after a draw depends only on the sequence of requested counts.

    The pairs are cut into one contiguous range per thread at multiples of
    _BOX_MULLER_CHUNK, and a draw splits only while every thread gets at
    least two whole chunks, up to one thread per available CPU.  Each range
    starts two copies of the stream, advanced to its first u1 and its first
    u2, so the bytes do not depend on the number of threads.  The calling
    thread makes those copies and every range's buffers, so the draw's
    threads allocate nothing.
    """

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.PCG64(_check_integer("seed", seed, 0)))

    def draw(self, count, coherence=None):
        """`count` variates z, or (1 - coherence) * z + coherence if given."""
        pairs = (count + 1) // 2
        whole = pairs // _BOX_MULLER_CHUNK
        threads = max(1, min(_cpu_count(), whole // 2))
        edges = [whole * k // threads * _BOX_MULLER_CHUNK for k in range(threads)] + [pairs]
        z = np.empty(2 * pairs)
        bits = self._rng.bit_generator
        state = bits.state
        ranges = [(_uniforms_from(state, lo), _uniforms_from(state, pairs + lo), lo, hi, z,
                   coherence, [np.empty(min(hi - lo, _BOX_MULLER_CHUNK)) for _ in range(3)])
                  for lo, hi in zip(edges, edges[1:])]
        if threads == 1:
            _box_muller(*ranges[0])
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for future in [pool.submit(_box_muller, *r) for r in ranges]:
                    future.result()
        bits.advance(2 * pairs)
        return z[:count]


def _uniforms_from(state, offset):
    """A generator on a copy of the PCG64 `state`, advanced by `offset` draws."""
    bits = np.random.PCG64()
    bits.state = state
    return np.random.Generator(bits.advance(offset))


def _box_muller(first, second, lo, hi, z, coherence, buffers):
    """Write z[2 lo:2 hi] from pairs lo..hi-1 of a draw, whose u1 come from
    the generator `first` and u2 from `second`.

    The transform runs in chunks through the three equal `buffers`, with the
    same ufuncs on contiguous inputs as whole-array code, so the bytes match
    it and no temporary of the transform is as large as the draw.  The
    coherence map multiplies and then adds, as `z *= 1 - c; z += c` on the
    whole draw would.
    """
    radius, angle, trig = buffers
    for s in range(lo, hi, radius.size):
        e = min(s + radius.size, hi)
        r, a, t, out = radius[:e - s], angle[:e - s], trig[:e - s], z[2 * s:2 * e]
        first.random(out=r)
        second.random(out=a)
        np.negative(r, out=r)
        np.log1p(r, out=r)
        np.multiply(-2.0, r, out=r)
        np.sqrt(r, out=r)
        np.multiply(2.0 * np.pi, a, out=a)
        np.multiply(r, np.cos(a, out=t), out=out[0::2])
        np.multiply(r, np.sin(a, out=t), out=out[1::2])
        if coherence is not None:
            out *= 1.0 - coherence
            out += coherence


def _check_integer(name, value, low=None):
    """`value` as an int; ValueError for a bool, a non-integer or one below `low`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def _check_number(name, value):
    """`value` as a float; ValueError for a bool or anything not a real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _check_coherence(c):
    c = _check_number("coherence", c)
    if not 0.0 <= c <= 1.0:
        raise InvalidCoherence(f"coherence must lie in [0, 1], got {c}")
    return c


def gaussian_matrix(m, n, c, seed):
    """m x n matrix with entries (1 - c) * N(0, 1) + c, deterministic in seed."""
    c = _check_coherence(c)
    m, n = _check_integer("m", m), _check_integer("n", n)
    if m < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m} x {n}")
    return _NormalStream(seed).draw(m * n, coherence=c).reshape(m, n)


def block_count(m, n):
    """Number of row blocks in the benchmark protocol: floor(m/n) + 1."""
    return m // n + 1


def _partition_sizes(m, blocks):
    # First (m mod blocks) blocks take one extra row; all rows covered in order.
    base, extra = divmod(m, blocks)
    return [base + 1] * extra + [base] * (blocks - extra)


def _json_fields(obj):
    """The fields of dataclass `obj` in their order, tuples as lists and
    None fields left out: its JSON object."""
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(obj).items() if value is not None}


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
        return _json_fields(self)

    @classmethod
    def from_dict(cls, d):
        """The descriptor a `to_dict` wrote; ValueError for a non-dict `d`, a
        non-list `block_rows`, a non-integer count or a non-number coherence."""
        if not isinstance(d, dict):
            raise ValueError(f"descriptor must be a JSON object, got {type(d).__name__}")
        rows = d.get("block_rows")
        if not isinstance(rows, (list, tuple, type(None))):
            raise ValueError(f"block_rows must be a list of counts, got {type(rows).__name__}")
        return cls(
            m=_check_integer("m", d["m"]),
            n=_check_integer("n", d["n"]),
            coherence=_check_number("coherence", d["coherence"]),
            seed=_check_integer("seed", d["seed"]),
            generator_id=str(d["generator_id"]),
            block_count=_check_integer("block_count", d["block_count"]),
            block_rows=None if rows is None
            else tuple(_check_integer("block_rows entry", r) for r in rows),
        )


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Ordered block list plus optional known solution and provenance.

    The blocks' stacked _BlockKernel is built on first use and kept: the
    known-solution check, every `solve` and `estimate_regularity` share it.
    """

    subspaces: tuple
    ambient_dim: int
    known_solution: np.ndarray | None = None
    descriptor: GenerationDescriptor | None = None

    def __post_init__(self):
        _, n = _block_list(self.subspaces)
        if n != self.ambient_dim:
            raise DimensionMismatch(
                f"blocks have ambient dimension {n}, instance has {self.ambient_dim}"
            )
        if self.known_solution is not None:
            xs = _check_point(self.known_solution, n, (1,))
            # A non-finite known solution reads as a nan misfit, which fails the test.
            misfit = float(self._kernel.residual(xs)) if np.isfinite(xs).all() else np.nan
            if not misfit <= CONSISTENCY_RTOL * (1.0 + _norm(xs)):
                raise InconsistentSystem(
                    f"known solution violates the blocks (residual {misfit:.3e})"
                )
            object.__setattr__(self, "known_solution", xs)

    @property
    def block_count(self):
        return len(self.subspaces)

    @functools.cached_property
    def _kernel(self):
        return _BlockKernel(self.subspaces)


def build_instance(m, n, c, seed):
    """Benchmark-protocol instance: m > n, planted solution x* = A^T w.

    Generically the stacked matrix has full column rank, so the intersection
    is the singleton {x*}.
    """
    return _draw(_protocol_descriptor(m, n, c, seed))


def build_underdetermined_instance(n, block_rows, c, seed):
    """Consistent blocks sharing a planted common point, total rows <= n.

    The intersection is generically a positive-dimensional affine set, so no
    known solution is attached (the best approximation depends on the start).
    """
    return _draw(_underdetermined_descriptor(n, block_rows, c, seed))


def _protocol_descriptor(m, n, c, seed):
    """The descriptor of build_instance(m, n, c, seed), whose arguments it
    checks: ValueError, or InvalidCoherence for a coherence outside [0, 1]."""
    m, n = _check_integer("m", m), _check_integer("n", n)
    if not m > n >= 2:
        raise ValueError(f"protocol requires m > n >= 2 (n = 1 leaves a block empty); m={m}, n={n}")
    return GenerationDescriptor(
        m=m, n=n, coherence=_check_coherence(c), seed=_check_integer("seed", seed, 0),
        block_count=block_count(m, n),
    )


def _underdetermined_descriptor(n, block_rows, c, seed):
    """The descriptor of build_underdetermined_instance(n, block_rows, c,
    seed), whose arguments it checks as _protocol_descriptor does."""
    n = _check_integer("n", n)
    rows = tuple(_check_integer("block_rows entry", r) for r in block_rows)
    if not rows or any(r < 1 for r in rows):
        raise ValueError("block_rows must be a nonempty list of positive counts")
    total = sum(rows)
    if total > n:
        raise ValueError(f"total rows {total} exceed ambient dimension {n}")
    return GenerationDescriptor(
        m=total, n=n, coherence=_check_coherence(c), seed=_check_integer("seed", seed, 0),
        block_count=len(rows), block_rows=rows,
    )


def _draw(descriptor):
    """The instance a checked descriptor describes, drawn from its seed."""
    d = descriptor
    stream = _NormalStream(d.seed)
    A = stream.draw(d.m * d.n, coherence=d.coherence).reshape(d.m, d.n)
    # A protocol instance plants x* = A^T w; an underdetermined one plants a
    # drawn point that it does not keep.
    x_star = None if d.block_rows else A.T @ stream.draw(d.m)
    b = A @ (stream.draw(d.n) if x_star is None else x_star)
    # Read-only, and so is the draw they view (A.base), so that every block
    # keeps a view of them and none a copy.
    for arr in (A, A.base, b):
        arr.setflags(write=False)
    sizes = d.block_rows or _partition_sizes(d.m, d.block_count)
    return _partitioned(A, b, sizes, x_star, d)


def _partitioned(A, b, sizes, known_solution, descriptor):
    """The instance whose blocks are consecutive row ranges of A x = b with
    `sizes` rows each, in order, built with the QRs of _block_qrs."""
    edges = list(itertools.accumulate(sizes, initial=0))
    blocks = [(A[lo:hi], b[lo:hi]) for lo, hi in zip(edges, edges[1:])]
    with _block_qrs([A_i for A_i, _ in blocks]) as qrs:
        # next(qrs) is bound to no name, so a QR does not outlive its block's build.
        subspaces = tuple(AffineSubspace(A_i, b_i, label=i, raw_qr=next(qrs))
                          for i, (A_i, b_i) in enumerate(blocks))
    return ProblemInstance(
        subspaces=subspaces,
        ambient_dim=A.shape[1],
        known_solution=known_solution,
        descriptor=descriptor,
    )


def instance_from_descriptor(descriptor):
    """Regenerate the instance a descriptor came from (bit-exact).

    ValueError, naming the field, when the descriptor's `m` or
    `block_count` disagrees with the instance it regenerates.  That is
    checked from the descriptor's other fields, before anything is drawn.
    """
    d = descriptor
    if d.generator_id != GENERATOR_ID:
        raise ValueError(
            f"unknown generator id {d.generator_id!r}; "
            f"this build regenerates only {GENERATOR_ID!r}"
        )
    if d.block_rows is not None:
        implied = _underdetermined_descriptor(d.n, d.block_rows, d.coherence, d.seed)
    else:
        implied = _protocol_descriptor(d.m, d.n, d.coherence, d.seed)
    for name in ("m", "block_count"):
        given, built = getattr(d, name), getattr(implied, name)
        if given != built:
            raise ValueError(
                f"descriptor {name} is {given}, but the instance it regenerates has {built}"
            )
    return _draw(implied)
