"""Workloads, the operations of one pass, and the correctness gate.

Every workload runs the same operations on each of its instances: set-up
(descriptor to factored ProblemInstance), the four solves of SOLVES, and one
regularity estimate.  Running all four solves everywhere keeps every
metric defined on every workload.  e2e_s and projections cover the
single-thread solves of E2E_SOLVES only: a two-thread solve on a host with
two shared vCPUs times the neighbours as much as the program, so pcrm-w2
is reported per layer instead.

Library calls go through module attributes (`problems.build_instance`,
`solvers.solve`, ...) looked up at call time, so the tracer's wrappers see
them in a traced pass and nothing stands between the benchmark and the
library in an untraced one.
"""

import contextlib
import csv
import io
import json
import os
import sys
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from circumproj import affine, analysis, cli, problems, solvers

# (label, method, workers).  pcrm-w2 against pcrm measures the thread fan-out.
SOLVES = (
    ("pcrm", "pcrm", 1),
    ("pcrm-w2", "pcrm", 2),
    ("crm", "crm", 1),
    ("cimmino", "cimmino", 1),
)
E2E_SOLVES = ("pcrm", "crm", "cimmino")
REGULARITY_SAMPLES = 500
REGULARITY_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable        # instance seed -> ProblemInstance, through the public API
    warm: Callable         # instance seed -> small instance of the same family
    blocks: int            # block count every instance must have
    instances: int         # instances per pass; pass seeds seed * instances + j
    repeats: int           # timed repetitions of each solve per instance
    tolerance: float
    record_residuals: frozenset  # labels of the SOLVES that record residuals
    oracle: bool           # attach project_intersection(blocks, 0) as known solution
    # Timings ("setup_s", "analyze_s") spent in large LAPACK calls, timed
    # against the large reference of clock.py; the rest use the small one.
    large_lapack: frozenset = frozenset()

    def reference(self, timing):
        """The reference kind of clock.py that `timing` is rescaled by."""
        return "large" if timing in self.large_lapack else "small"

    def instance_seeds(self, seed):
        return [seed * self.instances + j for j in range(self.instances)]


WORKLOADS = {
    # 21 blocks of 476x500: the per-block SVD dominates a pass.  Solves take
    # milliseconds here and on many-blocks, so each repeats 20 times a pass.
    "protocol-tall": Workload(
        name="protocol-tall",
        build=lambda s: problems.build_instance(10000, 500, 0.1, s),
        warm=lambda s: problems.build_instance(1000, 50, 0.1, s),
        blocks=21, instances=1, repeats=20,
        tolerance=1e-5, record_residuals=frozenset(), oracle=False,
        large_lapack=frozenset({"setup_s", "analyze_s"}),
    ),
    # 126 blocks of ~99x100: cheap set-up, a 127-point circumcenter per step.
    "many-blocks": Workload(
        name="many-blocks",
        build=lambda s: problems.build_instance(12500, 100, 0.1, s),
        warm=lambda s: problems.build_instance(1250, 10, 0.1, s),
        blocks=126, instances=1, repeats=20,
        tolerance=1e-5, record_residuals=frozenset(), oracle=False,
    ),
    # 12 blocks of 20x400 with a 160-dimensional intersection: ~250 (P-CRM)
    # to ~2200 (Cimmino) small iterations per solve.  Iteration counts vary
    # between instances, so a pass averages twelve.  P-CRM and CRM
    # keep the library default of recording residuals; Cimmino would spend
    # 2/3 of its time there.
    "slow-angles": Workload(
        name="slow-angles",
        build=lambda s: problems.build_underdetermined_instance(400, [20] * 12, 0.0, s),
        warm=lambda s: problems.build_underdetermined_instance(40, [2] * 12, 0.0, s),
        blocks=12, instances=12, repeats=1,
        tolerance=1e-6, record_residuals=frozenset({"pcrm", "pcrm-w2", "crm"}), oracle=True,
    ),
}


class WrongResult(Exception):
    """An operation returned, but its result fails the gate."""


def check(condition, message):
    if not condition:
        raise WrongResult(message)


class Gate:
    """Counts operations; a failed one is reported and the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, what, operation):
        """Run `operation()`; its result, or None when it failed."""
        self.attempted += 1
        try:
            return operation()
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"operation failed: {what}", file=sys.stderr)
            traceback.print_exc()
            return None


def timed(clock, call, kind="small"):
    """((wall seconds, start, reference kind), result) of `call()`."""
    seconds, start, result = clock.timed(call)
    return (seconds, start, kind), result


def rel_err(point, reference):
    return float(np.linalg.norm(point - reference) / np.linalg.norm(reference))


def held_bytes(instance):
    """Bytes of the arrays each block keeps after factorization."""
    return sum(
        U.constraint_matrix.nbytes + U.rhs.nbytes + U.anchor.nbytes
        + U.direction_basis().nbytes + U.row_space_basis().nbytes
        for U in instance.subspaces
    )


def kernel_bytes_per_iter(instance):
    """Computed, not measured: 8 n sum_i min(rank_i, n - rank_i)."""
    n = instance.ambient_dim
    return 8 * n * sum(min(U.rank, n - U.rank) for U in instance.subspaces)


class PassResult:
    """Values of one pass, keyed by metric, then by the instance's position.

    Timings are kept as (wall seconds, start, reference kind) until
    `rescale` turns them into scaled seconds in `values` and wall seconds in
    `wall`; a sum of timings, like e2e_s, is the sum of its parts' scaled
    times.
    """

    def __init__(self):
        self.values = {}
        self.wall = {}
        self.stamps = {}
        self.descriptor = None  # of the pass's first instance
        self.instances = 0      # instances set up without failure

    def add(self, key, position, value):
        self.values.setdefault(key, {}).setdefault(position, []).append(value)

    def add_time(self, key, position, *stamps):
        self.stamps.setdefault(key, {}).setdefault(position, []).append(stamps)

    def rescale(self, clock):
        for key, by_position in self.stamps.items():
            for position, samples in by_position.items():
                for stamps in samples:
                    self.add(key, position, sum(clock.scaled(*s) for s in stamps))
                    self.wall.setdefault(key, {}).setdefault(position, []).append(
                        sum(s[0] for s in stamps))
        self.stamps = {}

    def mean(self, key):
        """Mean over the pass's instances; 0.0 when none recorded it."""
        values = [v for vs in self.values.get(key, {}).values() for v in vs]
        return float(np.mean(values)) if values else 0.0


def _setup(workload, build, seed, clock):
    seconds, instance = timed(clock, lambda: build(seed), workload.reference("setup_s"))
    check(instance.block_count == workload.blocks,
          f"{instance.block_count} blocks, expected {workload.blocks}")
    check(workload.oracle or instance.known_solution is not None,
          "protocol instance carries no planted solution")
    return seconds, instance


def _attach_oracle(instance):
    # The benchmark's oracle, outside every timing: the exact projection of
    # the start point (the origin) onto the intersection.
    oracle = affine.project_intersection(instance.subspaces, np.zeros(instance.ambient_dim))
    return problems.ProblemInstance(
        subspaces=instance.subspaces,
        ambient_dim=instance.ambient_dim,
        known_solution=oracle,
        descriptor=instance.descriptor,
    )


def _solve(workload, instance, label, method, workers, reference_point, clock):
    config = solvers.SolverConfig(
        method=method,
        tolerance=workload.tolerance,
        workers=workers,
        record_residuals=label in workload.record_residuals,
    )
    seconds, result = timed(clock, lambda: solvers.solve(instance, config))
    trace = result.trace
    check(trace.status is solvers.Status.CONVERGED, f"status {trace.status}")
    err = rel_err(result.point, instance.known_solution)
    check(err <= workload.tolerance, f"rel_err {err:.3e} > tolerance {workload.tolerance:g}")
    check(trace.total_projections == trace.iteration_count * instance.block_count,
          f"{trace.total_projections} projections for {trace.iteration_count} iterations")
    if reference_point is not None:
        check(np.array_equal(result.point, reference_point),
              "workers=2 point differs from workers=1")
    return seconds, result


def _analyze(workload, instance, clock):
    seconds, value = timed(
        clock,
        lambda: analysis.estimate_regularity(instance, REGULARITY_SAMPLES, REGULARITY_SEED),
        workload.reference("analyze_s"),
    )
    check(np.isfinite(value) and value >= 1.0, f"regularity estimate {value!r}")
    return seconds, value


def run_pass(workload, seeds, gate, clock, span=None, warm=False):
    """Set up, solve and analyze every instance of one pass.

    Every operation is timed on `clock`.  `span(name)` opens a benchmark
    span in a traced pass.  A warm-up pass builds the small instances of
    `workload.warm` instead.
    """
    span = span or (lambda name: contextlib.nullcontext())
    build = workload.warm if warm else workload.build
    out = PassResult()
    for position, seed in enumerate(seeds):
        label = f"{workload.name} seed {seed}"
        setup = gate.attempt(f"setup {label}", lambda: _setup(workload, build, seed, clock))
        if setup is None:
            continue
        setup_s, instance = setup
        if out.descriptor is None:
            out.descriptor = instance.descriptor
        if workload.oracle:
            with span("bench.oracle"):
                instance = gate.attempt(f"oracle {label}", lambda: _attach_oracle(instance))
            if instance is None:
                continue
        out.instances += 1
        out.add_time("setup_s", position, setup_s)
        e2e_parts, projections, iterations = [], 0, 0
        for repeat in range(workload.repeats):
            points = {}
            for name, method, workers in SOLVES:
                reference = points.get("pcrm") if name == "pcrm-w2" else None
                solved = gate.attempt(f"{name} {label}", lambda: _solve(
                    workload, instance, name, method, workers, reference, clock))
                if solved is None:
                    continue
                seconds, result = solved
                points[name] = result.point
                out.add_time(f"solve_s.{name}", position, seconds)
                if repeat == 0:
                    iterations += result.trace.iteration_count
                    if name in E2E_SOLVES:
                        e2e_parts.append(seconds)
                        projections += result.trace.total_projections
        if len(e2e_parts) == len(E2E_SOLVES):
            out.add_time("e2e_s", position, setup_s, *e2e_parts)
            out.add("projections", position, projections)
            out.add("iterations", position, iterations)
        analyzed = gate.attempt(f"analyze {label}", lambda: _analyze(workload, instance, clock))
        if analyzed is not None:
            out.add_time("analyze_s", position, analyzed[0])
        out.add("held_mb", position, held_bytes(instance) / 2**20)
        out.add("kernel_bytes_per_iter", position, kernel_bytes_per_iter(instance))
    out.rescale(clock)
    return out


def run_cli(workload, descriptor, workdir, gate):
    """One in-process `circumproj solve` on an instance descriptor."""

    def operation():
        path = os.path.join(workdir, "instance.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(descriptor.to_dict(), fh)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["solve", "--inst", path, "--method", "pcrm",
                             "--tolerance", repr(workload.tolerance)])
        check(code == 0, f"exit code {code}")
        rows = list(csv.DictReader(io.StringIO(stdout.getvalue())))
        check(len(rows) == 1 and rows[0]["converged"] == "true", f"CSV {stdout.getvalue()!r}")
        row = rows[0]
        check(int(row["projections"]) == int(row["iterations"]) * int(row["blocks"]),
              "projection count")
        if not workload.oracle:
            check(float(row["rel_err"]) <= workload.tolerance, f"rel_err {row['rel_err']}")

    gate.attempt(f"cli solve {workload.name} seed {descriptor.seed}", operation)
