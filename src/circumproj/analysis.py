"""Geometric diagnostics: principal angles, Friedrichs cosine, error bounds.

All angle machinery acts on direction spaces (null spaces of the constraint
matrices), so translations of the subspaces are irrelevant.  The Friedrichs
cosine is the largest principal cosine left after deflating the shared
direction subspace; it is always < 1 for subspaces with a common point, and
the constant sqrt(1 + 4 / (1 - c_F^2)) turns per-block distances into a bound
on the distance to the intersection.
"""

from dataclasses import dataclass

import numpy as np

from .affine import _BlockKernel, intersection_subspace
from .problems import _check_integer, _json_fields

# Principal cosines >= 1 - INTERSECTION_CUTOFF mark shared directions.
INTERSECTION_CUTOFF = 1e-10


def principal_cosines(u_subspace, v_subspace):
    """All principal cosines between the two direction spaces, descending."""
    bu = u_subspace.direction_basis()
    bv = v_subspace.direction_basis()
    if bu.shape[1] == 0 or bv.shape[1] == 0:
        return np.empty(0)
    sigma = np.linalg.svd(bu.T @ bv, compute_uv=False)
    return np.clip(sigma, 0.0, 1.0)


def friedrichs_cosine(u_subspace, v_subspace):
    """Cosine of the Friedrichs angle between two intersecting subspaces.

    Largest principal cosine after removing the shared direction subspace;
    identical subspaces therefore give 0 (supremum over the zero space).
    Always in [0, 1).
    """
    return angle_report(u_subspace, v_subspace).friedrichs_cosine


def error_bound_constant(u_subspace, v_subspace):
    """sqrt(1 + 4 / (1 - c_F^2)): dist(x, U∩V) <= r * max(dist(x,U), dist(x,V))."""
    return angle_report(u_subspace, v_subspace).error_bound_constant


@dataclass(frozen=True)
class AngleReport:
    friedrichs_cosine: float
    error_bound_constant: float
    intersection_dim: int
    principal_cosines: tuple

    def to_dict(self):
        return _json_fields(self)


def angle_report(u_subspace, v_subspace):
    """Full angle diagnostics for a pair of intersecting subspaces."""
    # Raises EmptyIntersection when the pair has no common point.
    intersection_subspace([u_subspace, v_subspace])
    return _report(principal_cosines(u_subspace, v_subspace))


def _report(cosines):
    # The cosines descend, so the shared directions come first.
    shared = int(np.count_nonzero(cosines >= 1.0 - INTERSECTION_CUTOFF))
    c_f = float(cosines[shared]) if cosines.size > shared else 0.0
    return AngleReport(
        friedrichs_cosine=c_f,
        error_bound_constant=float(np.sqrt(1.0 + 4.0 / (1.0 - c_f ** 2))),
        intersection_dim=shared,
        principal_cosines=tuple(float(s) for s in cosines),
    )


def _sample_points(stacked, samples, seed):
    """The intersection's anchor plus `samples` standard-normal offsets."""
    samples = _check_integer("samples", samples, 1)
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((samples, stacked.ambient_dim))
    return np.add(stacked.anchor, points, out=points)


def _sampled_distances(subspaces, kernel, samples, seed):
    """(points, dist(x, S), max_i dist(x, U_i)) for `samples` points drawn
    around the anchor of S, the intersection of `subspaces`.

    `kernel` is a _BlockKernel of the same blocks and gives the per-block
    maximum; the distance to S comes from a one-block kernel of the stacked
    subspace, so both run the same code.
    """
    stacked = intersection_subspace(subspaces)
    points = _sample_points(stacked, samples, seed)
    return points, stacked.distance(points), kernel.residual(points)


def estimate_regularity(instance, samples, seed):
    """Empirical regularity constant max dist(x, S) / max_i dist(x, U_i).

    Samples standard-normal points around a feasible anchor; points already
    in the intersection (to tolerance) are skipped.  The true constant is an
    upper bound over all of space, so the sampled value only bounds it from
    below.  Always >= 1; exactly 1 for a single block.  The per-block
    distances come from the instance's kernel.
    Raises ValueError when samples is not an integer >= 1.
    """
    points, to_intersection, per_block_max = _sampled_distances(
        instance.subspaces, instance._kernel, samples, seed)
    keep = per_block_max > 1e-12 * (1.0 + np.linalg.norm(points, axis=-1))
    if not np.any(keep):
        return 1.0
    return float(max(1.0, np.max(to_intersection[keep] / per_block_max[keep])))


def verify_error_bound(u_subspace, v_subspace, constant, samples, seed):
    """True when dist(x, U∩V) <= constant * max(dist(x, U), dist(x, V)) + 1e-9
    holds at every point sampled as in estimate_regularity.

    Raises ValueError when samples < 1.
    """
    pair = [u_subspace, v_subspace]
    _, lhs, rhs = _sampled_distances(pair, _BlockKernel(pair), samples, seed)
    # A nan on either side fails the comparison, and so the bound.
    return bool(np.all(lhs <= constant * rhs + 1e-9))
