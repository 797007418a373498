"""Print one SHA-256 per solve, to show that a change keeps every output byte.

    python tools/digest.py [--src src] > digest.txt

solves each of a fixed set of instances with every method, stop rule and
residual-recording flag, and prints `sha256  instance  method  rule  record`
per solve.  The hash covers the final point, the residual and distance
traces, the iteration and projection counts, the status and `solve`'s CSV
record less `time_s`; a solve that breaks down hashes its partial trace and
point instead.  Before its solves, each instance prints `sha256  instance
descriptor` and `sha256  instance  angles`, the hashes of the JSON text of
its descriptor's `to_dict()` and of the `angle_report` of its first and
last blocks, as `gen` and `analyze` write them, then `sha256  instance
regularity` and `sha256  instance  bound`, the hashes of
`estimate_regularity(instance, 200, 0)` and of `verify_error_bound(first,
last, constant, 200, 0)` with the report's constant.  Run it on two
checkouts and diff the output.  The BLAS is pinned to one thread, so the
bytes depend on the checkout and the machine only.
"""

import argparse
import hashlib
import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, builder, builder arguments).  Underdetermined instances get the
# projection of 0 onto their intersection as their known solution.
INSTANCES = [
    ("protocol-40x8", "build_instance", (40, 8, 0.1, 4)),
    ("protocol-60x12", "build_instance", (60, 12, 0.1, 6)),
    ("protocol-200x20", "build_instance", (200, 20, 0.2, 2)),
    ("protocol-1000x50", "build_instance", (1000, 50, 0.1, 1)),
    ("protocol-1250x10", "build_instance", (1250, 10, 0.1, 1)),
    ("protocol-2000x200", "build_instance", (2000, 200, 0.1, 1)),
    ("many-blocks", "build_instance", (12500, 100, 0.1, 1)),
    ("under-40-s3", "build_underdetermined_instance", (40, [2] * 12, 0.0, 3)),
    ("under-40-s4", "build_underdetermined_instance", (40, [2] * 12, 0.0, 4)),
    ("under-12", "build_underdetermined_instance", (12, [3, 2, 4], 0.0, 17)),
    ("under-7", "build_underdetermined_instance", (7, [2, 2], 0.1, 9)),
    ("under-30-mixed", "build_underdetermined_instance", (30, [20, 1, 5], 0.1, 5)),
    ("under-100-mixed", "build_underdetermined_instance", (100, [60, 30, 8], 0.2, 2)),
    ("slow-angles-s12", "build_underdetermined_instance", (400, [20] * 12, 0.0, 12)),
    ("slow-angles-s13", "build_underdetermined_instance", (400, [20] * 12, 0.0, 13)),
]
TOLERANCE = 1e-6
MAX_ITERATIONS = 20_000
SAMPLES = 200  # points sampled by estimate_regularity and verify_error_bound


def load(src):
    """circumproj and its cli, imported from `src` and from nowhere else."""
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import circumproj
    from circumproj import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(circumproj.__file__))) != src:
        raise SystemExit(f"error: circumproj imported from {circumproj.__file__}")
    return circumproj, cli


def instances(cp):
    for name, builder, args in INSTANCES:
        inst = getattr(cp, builder)(*args)
        if inst.known_solution is None:
            oracle = cp.project_intersection(inst.subspaces, np.zeros(inst.ambient_dim))
            inst = cp.ProblemInstance(subspaces=inst.subspaces, ambient_dim=inst.ambient_dim,
                                      known_solution=oracle, descriptor=inst.descriptor)
        yield name, inst


def digest(cp, cli, inst, config):
    h = hashlib.sha256()
    try:
        result = cp.solve(inst, config)
    except cp.NumericalBreakdown as exc:
        trace, point, row = exc.trace, exc.point, ["breakdown"]
    else:
        trace, point = result.trace, result.point
        row = cli._run_cell(inst, config).to_row()
        del row[cli.CSV_HEADER.index("time_s")]
    h.update(np.ascontiguousarray(point, dtype=float).tobytes())
    for column in (trace.residuals, trace.distances):
        h.update(np.asarray(column, dtype=float).tobytes())
    for column in (trace.iterations, trace.projections):
        h.update(np.asarray(column, dtype=np.int64).tobytes())
    h.update(f"{trace.status.value}|{','.join(row)}".encode())
    return h.hexdigest()


def json_digest(payload):
    return hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the src/ directory to import circumproj from")
    args = parser.parse_args(argv)
    cp, cli = load(args.src)
    for name, inst in instances(cp):
        print(f"{json_digest(inst.descriptor.to_dict())}  {name}  descriptor")
        pair = inst.subspaces[0], inst.subspaces[-1]
        report = cp.angle_report(*pair)
        print(f"{json_digest(report.to_dict())}  {name}  angles")
        regularity = cp.estimate_regularity(inst, SAMPLES, 0)
        print(f"{json_digest(regularity.hex())}  {name}  regularity")
        bound = cp.verify_error_bound(*pair, report.error_bound_constant, SAMPLES, 0)
        print(f"{json_digest(bound)}  {name}  bound", flush=True)
        for method in cp.Method:
            for rule in cp.StopRule:
                for record in (True, False):
                    config = cp.SolverConfig(method=method, tolerance=TOLERANCE,
                                             max_iterations=MAX_ITERATIONS, stop_rule=rule,
                                             record_residuals=record)
                    print(f"{digest(cp, cli, inst, config)}  {name}  {method.value}  "
                          f"{rule.value}  {'record' if record else 'norecord'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
