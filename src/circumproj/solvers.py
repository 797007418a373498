"""Iteration operators and the solve driver.

Three operators act on the same block list:

* F-SPM: weighted average p_0 x + sum_i p_i P_i(x); Cimmino's method is the
  preset p_0 = 0, p_i = 1/m.
* CRM: circumcenter of x and its m sequentially composed reflections
  (inherently sequential; each reflection feeds the next).
* P-CRM: circumcenter of x and the m independent reflections of x.

Each operator is built on the stacked block kernel it is handed (the
instance's in `solve`, one built on the block list in `fspm_step` and
`pcrm_step`) and answers `residual(x)`, the feasibility residual
max_i d(x, U_i), and `step(x)`, the next iterate.  A CRM step reads only
the blocks, so `crm_step` builds no kernel.  F-SPM has one step formula,
the affine map x -> a x + c + sum_g B_g^T (q_g * (B_g x)) on the kernel's
stacks.  P-CRM reads its residual and its step off one difference matrix
d_i = P_i(x) - x; F-SPM, Cimmino and CRM read the kernel's residual.
Everything runs in the calling thread: the `workers` setting is accepted
and recorded but does not change the computation, so P-CRM results are
bitwise identical for every worker count.

Projection accounting: every reflection costs exactly one projection, so an
iteration over m blocks counts m projections for every method; every F-SPM
weight p_i, i >= 1, is positive, so F-SPM counts m though its map forms none.
"""

import math
import numbers
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .affine import _BlockKernel, _block_list, _check_point
from .circumcenters import _solve_differences, circumcenter
from .errors import (
    DimensionMismatch,
    InsufficientData,
    InvalidWeights,
    MissingReference,
    NumericalBreakdown,
)


class Method(str, Enum):
    FSPM = "fspm"
    CIMMINO = "cimmino"
    CRM = "crm"
    PCRM = "pcrm"


class StopRule(str, Enum):
    REL_ERR_TO_KNOWN = "rel_err"
    FEASIBILITY_RESIDUAL = "feasibility"
    STEP_NORM = "step_norm"


class Status(str, Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    DIVERGED_NUMERICALLY = "diverged"


def uniform_weights(block_count):
    """All weights 1/(m+1), identity term included."""
    return np.full(block_count + 1, 1.0 / (block_count + 1))


def cimmino_weights(block_count):
    """Cimmino preset: no identity term, equal weights 1/m on the blocks."""
    w = np.full(block_count + 1, 1.0 / block_count)
    w[0] = 0.0
    return w


def validate_weights(weights, block_count):
    """Check p_0 >= 0, p_i > 0 for i >= 1, sum = 1; returns the array."""
    w = np.asarray(weights, dtype=float).ravel()
    if w.size != block_count + 1:
        raise InvalidWeights(f"expected {block_count + 1} weights, got {w.size}")
    if not np.all(np.isfinite(w)):
        raise InvalidWeights("weights must be finite")
    if w[0] < 0.0 or np.any(w[1:] <= 0.0):
        raise InvalidWeights("need p_0 >= 0 and p_i > 0 for every block")
    if abs(w.sum() - 1.0) > 1e-9 * w.size:
        raise InvalidWeights(f"weights sum to {w.sum()!r}, expected 1")
    return w


@dataclass
class SolverConfig:
    method: Method
    weights: np.ndarray | None = None
    tolerance: float = 1e-5
    max_iterations: int = 10_000
    stop_rule: StopRule = StopRule.REL_ERR_TO_KNOWN
    workers: int = 1  # validated and recorded; solves run in the calling thread
    record_residuals: bool = True

    def __post_init__(self):
        self.method = Method(self.method)
        self.stop_rule = StopRule(self.stop_rule)
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        for name in ("max_iterations", "workers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.weights is not None and self.method in (Method.CRM, Method.PCRM):
            raise ValueError(f"weights apply to fspm and cimmino only, not {self.method.value}")


@dataclass
class IterationTrace:
    """Per-iteration history of one solve.

    Entry k describes the iterate x_k: feasibility residual (nan when not
    recorded), distance to the known solution (nan when unknown), cumulative
    projection count spent to reach x_k, and elapsed wall-clock seconds.
    """

    iterations: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    distances: list = field(default_factory=list)
    projections: list = field(default_factory=list)
    elapsed_s: list = field(default_factory=list)
    status: Status | None = None
    wall_time_s: float = float("nan")

    def append(self, k, resid, dist, nproj, elapsed):
        self.iterations.append(k)
        self.residuals.append(resid)
        self.distances.append(dist)
        self.projections.append(nproj)
        self.elapsed_s.append(elapsed)

    @property
    def iteration_count(self):
        return self.iterations[-1] if self.iterations else 0

    @property
    def total_projections(self):
        return self.projections[-1] if self.projections else 0


@dataclass
class SolveResult:
    point: np.ndarray
    trace: IterationTrace


class _Operator:
    """One method's step and residual, on the stacked kernel it is handed.

    `solve` hands every operator the instance's kernel; `fspm_step` and
    `pcrm_step` hand it one built on their block list.  `residual(x)` is the
    paper's feasibility residual max_i d(x, U_i), the kernel's `residual`,
    and `step(x)` is the next iterate.
    """

    def __init__(self, kernel):
        self.kernel = kernel

    def residual(self, x):
        return float(self.kernel.residual(x))


class _Fspm(_Operator):
    """p_0 x + sum_i p_i P_i(x), applied as the affine map it is.

    A block's projection is P_i(x) = z_i + N_i N_i^T x on the null route
    and x - R_i R_i^T x + z_i on the row route, for its stored basis and
    anchor z_i.  Summed with the weights, the step is

        x -> a x + c + sum_g B_g^T (q_g * (B_g x)),

    with a = p_0 + (sum of p_i over row-route blocks), c = sum_i p_i z_i,
    B_g the kernel's flattened (g w, n) basis stack of group g and q_g its
    blocks' weights, each repeated w times and negated on the row route.
    (a, c, q_g) are built with the operator, from the kernel's stacks, so
    a step forms none of the m projections: two matrix-vector products per
    group of nonzero width.  It is the only step formula, so no iterate
    depends on whether residuals are recorded.  The result is a new array,
    never x: `solve` keeps the previous iterate for the step-norm rule.
    """

    def __init__(self, kernel, weights):
        super().__init__(kernel)
        p = weights[1:]
        self.scale, self.shift, self.terms = float(weights[0]), 0.0, []
        for use_null, members, basis_t, anchors in kernel.groups:
            g, w, n = basis_t.shape
            pg = p[members]
            self.shift += pg @ anchors
            if not use_null:
                self.scale += float(pg.sum())
            if w:
                q = np.repeat(pg if use_null else -pg, w)
                self.terms.append((basis_t.reshape(g * w, n), q))

    def step(self, x):
        y = self.scale * x + self.shift
        for basis, q in self.terms:
            y += (q * (basis @ x)) @ basis
        return y


class _Pcrm(_Operator):
    """Circumcenter of x and its m independent reflections 2 P_i(x) - x.

    `residual(x)` projects x onto every block straight into the one
    difference buffer, subtracts x in place to get d_i = P_i(x) - x, and
    keeps their squared norms sq_i; the residual is sqrt(max_i sq_i).  The
    reflections are x + 2 d_i, so the circumcenter is x + y for the
    minimum-norm y with (2 d) y = 2 sq.  `step(x)` solves that from the
    differences of this x, forming them first when the last residual was
    of another point.  No point set is assembled.
    """

    def __init__(self, kernel):
        super().__init__(kernel)
        self._diffs = np.empty((kernel.block_count, kernel.ambient_dim))
        self._sq = None
        self._diffs_of = None  # the x that _diffs and _sq belong to

    def residual(self, x):
        diffs = self.kernel.project_all(x, self._diffs)
        diffs -= x
        self._sq = np.einsum("ij,ij->i", diffs, diffs)
        self._diffs_of = x
        return float(np.sqrt(self._sq.max()))

    def step(self, x):
        if self._diffs_of is not x:
            self.residual(x)
        return x + _solve_differences(2.0 * self._diffs, 2.0 * self._sq)


class _Crm(_Operator):
    """Circumcenter of x and its m sequentially composed reflections.

    Each reflection 2 P_i(y) - y feeds the next, so the step works block by
    block, through the block's projection without AffineSubspace's shape
    check, since x was checked once.  The kernel serves the residual only,
    so a step-only operator (`crm_step`) is handed None.
    """

    def __init__(self, kernel, subspaces):
        super().__init__(kernel)
        self.subspaces = subspaces
        self.points = np.empty((len(subspaces) + 1, subspaces[0].ambient_dim))

    def step(self, x):
        pts = self.points
        pts[0] = y = x
        for i, U in enumerate(self.subspaces):
            y = pts[i + 1] = 2.0 * U._project(y) - y
        return circumcenter(pts)


def _step_input(x, subspaces, ndims=(1,)):
    """x checked against the blocks, and the checked block list."""
    subspaces, n = _block_list(subspaces)
    return _check_point(x, n, ndims), subspaces


def fspm_step(x, subspaces, weights):
    """One weighted simultaneous-projection step p_0 x + sum_i p_i P_i(x).

    A 2-D x is a batch of points, each row stepped alone.
    """
    x, subspaces = _step_input(x, subspaces, ndims=(1, 2))
    operator = _Fspm(_BlockKernel(subspaces), validate_weights(weights, len(subspaces)))
    if x.ndim == 1:
        return operator.step(x)
    # The reshape keeps an empty batch at shape (0, n).
    return np.array([operator.step(row) for row in x]).reshape(x.shape)


def crm_step(x, subspaces):
    """Circumcenter of x and its sequentially composed reflections."""
    x, subspaces = _step_input(x, subspaces)
    return _Crm(None, subspaces).step(x)


def pcrm_step(x, subspaces, workers=1):
    """Circumcenter of x and its m independent reflections.

    `workers` is accepted for compatibility and does not change the
    computation, so the output is bitwise identical for every worker count.
    """
    x, subspaces = _step_input(x, subspaces)
    return _Pcrm(_BlockKernel(subspaces)).step(x)


def solve(instance, config, x0=None):
    """Iterate the configured method from x0 (default: the null vector).

    Stops when the configured rule fires (status CONVERGED) or after
    config.max_iterations steps (status MAX_ITER).  Wall time is measured
    around the iteration loop only; the trace records every iterate.  The
    operator is built on the instance's stacked kernel, built once per
    instance, and answers residual(x_k) and step(x_k); the step does not
    depend on whether the residual was asked for.  An iteration that stops
    without recording a residual projects nothing.  An iterate is checked
    for finiteness only when its distance to the reference is not finite
    or there is no reference.

    Raises MissingReference when stop_rule is REL_ERR_TO_KNOWN but the
    instance has no known solution, and NumericalBreakdown (with the partial
    trace attached) when an iterate stops being finite.
    """
    subspaces = list(instance.subspaces)
    kernel = instance._kernel
    n = instance.ambient_dim
    m = len(subspaces)
    if x0 is None:
        x = np.zeros(n)
    else:
        x = np.array(x0, dtype=float).ravel()
        if x.shape != (n,):
            raise DimensionMismatch(f"x0 has shape {x.shape}, expected ({n},)")

    reference = instance.known_solution
    rule = config.stop_rule
    if rule is StopRule.REL_ERR_TO_KNOWN and reference is None:
        raise MissingReference("stop rule rel_err needs an instance with a known solution")
    ref_norm = float(np.linalg.norm(reference)) if reference is not None else 0.0

    method = config.method
    if method in (Method.FSPM, Method.CIMMINO):
        if config.weights is not None:
            weights = config.weights
        elif method is Method.CIMMINO:
            weights = cimmino_weights(m)
        else:
            weights = uniform_weights(m)
        operator = _Fspm(kernel, validate_weights(weights, m))
    elif method is Method.CRM:
        operator = _Crm(kernel, subspaces)
    else:
        operator = _Pcrm(kernel)

    need_resid = config.record_residuals or rule is StopRule.FEASIBILITY_RESIDUAL
    tol = config.tolerance
    trace = IterationTrace()
    k = 0
    nproj = 0
    prev = None
    start = time.perf_counter()
    while True:
        dist = float(np.linalg.norm(x - reference)) if reference is not None else float("nan")
        # A finite distance to the reference already shows that x is finite.
        if not math.isfinite(dist) and not np.all(np.isfinite(x)):
            trace.append(k, float("nan"), float("nan"), nproj, time.perf_counter() - start)
            trace.status = Status.DIVERGED_NUMERICALLY
            trace.wall_time_s = time.perf_counter() - start
            raise NumericalBreakdown(
                f"non-finite iterate at iteration {k}", trace=trace, point=x
            )
        resid = operator.residual(x) if need_resid else float("nan")
        trace.append(k, resid, dist, nproj, time.perf_counter() - start)

        if rule is StopRule.REL_ERR_TO_KNOWN:
            stop = dist <= tol * ref_norm if ref_norm > 0 else dist <= tol
        elif rule is StopRule.FEASIBILITY_RESIDUAL:
            stop = resid <= tol * (1.0 + float(np.linalg.norm(x)))
        else:
            stop = prev is not None and float(np.linalg.norm(x - prev)) <= tol
        if stop:
            trace.status = Status.CONVERGED
            break
        if k >= config.max_iterations:
            trace.status = Status.MAX_ITER
            break

        prev = x
        x = operator.step(x)
        nproj += m
        k += 1
    trace.wall_time_s = time.perf_counter() - start
    return SolveResult(point=x, trace=trace)


def estimate_rate(trace):
    """Empirical linear rate: exp of the least-squares slope of log d_k vs k.

    Uses the trace's distance-to-known-solution column; needs at least three
    finite positive entries, otherwise raises InsufficientData.  A perfectly
    geometric decay d_k = r^k returns r; a constant sequence returns 1.0
    (non-contracting).
    """
    d = np.asarray(trace.distances, dtype=float)
    ks = np.asarray(trace.iterations, dtype=float)
    mask = np.isfinite(d) & (d > 0)
    if np.count_nonzero(mask) < 3:
        raise InsufficientData("need >= 3 iterations with positive distances to fit a rate")
    slope = np.polyfit(ks[mask], np.log(d[mask]), 1)[0]
    return float(np.exp(slope))
