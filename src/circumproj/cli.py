"""Benchmark command line: gen | solve | bench | analyze.

stdout carries data only (descriptor block counts, CSV records, JSON
reports); diagnostics go to stderr.  Exit codes: 0 success/converged,
2 misuse, 3 iteration cap hit, 4 numerical breakdown, 5 at least one
benchmark cell failed.
"""

import argparse
import contextlib
import csv
import itertools
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from .analysis import _report, estimate_regularity, principal_cosines, verify_error_bound
from .errors import CircumprojError, NumericalBreakdown
from .problems import (
    GenerationDescriptor,
    _check_coherence,
    _check_integer,
    _protocol_descriptor,
    build_instance,
    instance_from_descriptor,
)
from .solvers import (
    Method,
    SolverConfig,
    Status,
    StopRule,
    cimmino_weights,
    solve,
    uniform_weights,
)

DEFAULT_BENCH = {
    "m_values": [5000, 7500, 10000, 12500],
    "n_values": [100, 250, 500],
    "coherence_values": [0.0, 0.1, 0.2],
    "methods": ["crm", "pcrm"],
    "seeds": [1, 2, 3],
    "tolerance": 1e-5,
    "max_iterations": 10_000,
    "workers": [1],
    "out": "bench_results.csv",
}

@dataclass
class BenchRecord:
    method: str
    blocks: int
    m: int
    n: int
    coherence: float
    seed: int
    workers: int
    iterations: int
    projections: int
    time_s: float
    rel_err: float
    converged: bool

    def to_row(self):
        return [
            self.method, str(self.blocks), str(self.m), str(self.n),
            f"{self.coherence:.12g}", str(self.seed), str(self.workers),
            str(self.iterations), str(self.projections),
            f"{self.time_s:.6f}", f"{self.rel_err:.12e}",
            "true" if self.converged else "false",
        ]


CSV_HEADER = [f.name for f in fields(BenchRecord)]


def _load_instance(path):
    """The instance that the descriptor file at `path` regenerates."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return instance_from_descriptor(GenerationDescriptor.from_dict(json.load(fh)))
        except (ValueError, KeyError, CircumprojError) as exc:
            raise ValueError(f"cannot load instance: {exc}") from exc


def _run_cell(instance, config):
    """Solve one cell and return its CSV record."""
    result = solve(instance, config)
    # The distance that `solve` took at the returned point, nan without x*.
    rel_err = result.trace.distances[-1]
    if instance.known_solution is not None:
        rel_err = float(rel_err / np.linalg.norm(instance.known_solution))
    desc = instance.descriptor
    return BenchRecord(
        method=config.method.value,
        blocks=instance.block_count,
        m=desc.m,
        n=desc.n,
        coherence=desc.coherence,
        seed=desc.seed,
        workers=config.workers,
        iterations=result.trace.iteration_count,
        projections=result.trace.total_projections,
        time_s=result.trace.wall_time_s,
        rel_err=rel_err,
        converged=result.trace.status is Status.CONVERGED,
    )


def cmd_gen(args):
    descriptor = _protocol_descriptor(args.m, args.n, args.coherence, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(descriptor.to_dict(), fh, indent=2)
        fh.write("\n")
    print(descriptor.block_count)
    return 0


def _parse_weights(spec, blocks):
    if spec is None:
        return None  # solver default for the chosen method
    if spec == "uniform":
        return uniform_weights(blocks)
    if spec == "cimmino":
        return cimmino_weights(blocks)
    try:
        return np.array([float(t) for t in spec.split(",")])
    except ValueError as exc:
        raise ValueError(f"bad --weights: {exc}") from exc


def cmd_solve(args):
    instance = _load_instance(args.inst)
    method = Method(args.method)
    if args.weights is not None and method in (Method.CRM, Method.PCRM):
        raise ValueError(f"--weights applies to fspm and cimmino only, not {method.value}")
    rule = args.stop_rule  # "auto" is rel_err with a known solution, else feasibility
    if rule == "auto":
        rule = "rel_err" if instance.known_solution is not None else "feasibility"
    config = SolverConfig(
        method=method,
        weights=_parse_weights(args.weights, instance.block_count),
        tolerance=args.tolerance,
        max_iterations=args.max_iterations,
        stop_rule=rule,
        workers=args.workers,
        record_residuals=False,
    )
    with _output(args.csv, "a") as fh:
        record = _run_cell(instance, config)
        # The file first: a path that cannot be opened leaves stdout empty.
        if fh:
            writer = csv.writer(fh, lineterminator="\n")
            if fh.tell() == 0:  # a new or empty file takes the header first
                writer.writerow(CSV_HEADER)
            writer.writerow(record.to_row())
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerow(record.to_row())
    return 0 if record.converged else 3


def _output(path, mode):
    """The file at `path` opened to write, or a null context for no path.

    Commands open their outputs before their work, so that a path that
    cannot be opened costs no computation.
    """
    if not path:
        return contextlib.nullcontext()
    return open(path, mode, newline="", encoding="utf-8")


def _load_bench_config(path):
    """(cfg, configs): the grid, and the SolverConfig of each solve in a cell.

    P-CRM solves once per worker count, every other method once.  Building
    the configs checks the solver settings.  Every config keeps the default
    rel_err stop rule: each cell's `build_instance` plants its solution.
    """
    cfg = dict(DEFAULT_BENCH)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(overrides) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(overrides)
    for key in ("m_values", "n_values", "coherence_values", "methods", "seeds", "workers"):
        if not isinstance(cfg[key], list) or not cfg[key]:
            raise ValueError(f"config key {key!r} must be a nonempty list")
    # Malformed entries are refused here, not cell by cell.
    for key, low in (("m_values", None), ("n_values", None), ("seeds", 0)):
        for value in cfg[key]:
            _check_integer(f"{key} entry", value, low)
    for c in cfg["coherence_values"]:
        _check_coherence(c)
    if not isinstance(cfg["out"], str) or not cfg["out"]:
        raise ValueError("config key 'out' must be a nonempty string")
    settings = dict(tolerance=cfg["tolerance"], max_iterations=cfg["max_iterations"],
                    record_residuals=False)
    # Built even without P-CRM, so that every worker count is checked.
    pcrm = [SolverConfig(method=Method.PCRM, workers=w, **settings) for w in cfg["workers"]]
    configs = []
    for method in map(Method, cfg["methods"]):
        configs += pcrm if method is Method.PCRM else [SolverConfig(method=method, **settings)]
    return cfg, configs


def cmd_bench(args):
    try:
        cfg, configs = _load_bench_config(args.config)
    except (ValueError, CircumprojError) as exc:
        raise ValueError(f"bad config: {exc}") from exc
    out_path = args.out or cfg["out"]

    records = []
    any_failed = False
    try:
        # Every output is opened before the first cell runs.
        with contextlib.ExitStack() as outputs:
            fh = outputs.enter_context(_output(out_path, "w"))
            agg = outputs.enter_context(_output(args.aggregate, "w"))
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            fh.flush()
            for m, n, c, seed in itertools.product(
                cfg["m_values"], cfg["n_values"], cfg["coherence_values"], cfg["seeds"]
            ):
                print(f"bench: m={m} n={n} c={c} seed={seed}", file=sys.stderr)
                try:
                    instance = build_instance(m, n, c, seed)
                except (ValueError, CircumprojError) as exc:
                    print(f"cell (m={m}, n={n}, c={c}, seed={seed}) failed: {exc}",
                          file=sys.stderr)
                    any_failed = True
                    continue
                for config in configs:
                    try:
                        record = _run_cell(instance, config)
                    except CircumprojError as exc:
                        print(f"solve ({config.method.value}, m={m}, n={n}, c={c}, seed={seed}) "
                              f"failed: {exc}", file=sys.stderr)
                        any_failed = True
                        continue
                    if not record.converged:
                        any_failed = True
                    records.append(record)
                    writer.writerow(record.to_row())
                    fh.flush()
            if agg:
                _write_aggregate(agg, records)
    except KeyboardInterrupt:
        print("interrupted; partial results flushed", file=sys.stderr)
        return 130

    print(f"wrote {len(records)} records to {out_path}", file=sys.stderr)
    return 5 if any_failed else 0


def _write_aggregate(fh, records):
    groups = {}
    for rec in records:
        groups.setdefault((rec.method, rec.blocks, rec.m, rec.n, rec.workers), []).append(rec)
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow([
        "method", "blocks", "m", "n", "workers", "runs",
        "iterations", "projections", "time_s", "rel_err", "converged",
    ])
    for key in sorted(groups):
        recs = groups[key]
        writer.writerow([
            key[0], str(key[1]), str(key[2]), str(key[3]), str(key[4]),
            str(len(recs)),
            f"{np.mean([r.iterations for r in recs]):.6g}",
            f"{np.mean([r.projections for r in recs]):.6g}",
            f"{np.mean([r.time_s for r in recs]):.6f}",
            f"{np.mean([r.rel_err for r in recs]):.12e}",
            "true" if all(r.converged for r in recs) else "false",
        ])


def cmd_analyze(args):
    instance = _load_instance(args.inst)
    if args.mode == "angles" and instance.block_count > 2:
        raise ValueError("angle mode needs an instance with at most 2 blocks")
    with _output(args.out, "w") as fh:
        if args.mode == "angles":
            # One block is read as the pair (U, U).
            u, v = instance.subspaces[0], instance.subspaces[-1]
            report = _report(principal_cosines(u, v))
            payload = report.to_dict()
            payload["bound_verified"] = verify_error_bound(
                u, v, report.error_bound_constant, args.samples, args.seed)
        else:
            payload = {
                "regularity_estimate": estimate_regularity(instance, args.samples, args.seed)
            }
        payload.update(samples=args.samples, seed=args.seed)
        text = json.dumps(payload, indent=2)
        # The file first: a path that cannot be opened leaves stdout empty.
        if fh:
            fh.write(text + "\n")
    print(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="circumproj",
        description="Projection/circumcenter solvers over affine block systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write an instance descriptor")
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--coherence", type=float, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="run one solver on a descriptor")
    p_solve.add_argument("--inst", required=True)
    p_solve.add_argument("--method", required=True,
                         choices=[m.value for m in Method])
    p_solve.add_argument("--workers", type=int, default=1,
                         help="recorded in the CSV; does not change the computation")
    p_solve.add_argument("--tolerance", type=float, default=1e-5)
    p_solve.add_argument("--max-iterations", type=int, default=10_000)
    p_solve.add_argument("--stop-rule", default="auto",
                         choices=["auto"] + sorted(rule.value for rule in StopRule))
    p_solve.add_argument("--weights", default=None,
                         help="uniform | cimmino | comma-separated p0,p1,...")
    p_solve.add_argument("--csv", default=None, help="append the record to this CSV")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="sweep a benchmark grid to CSV")
    p_bench.add_argument("--config", default=None, help="JSON overriding the default grid")
    p_bench.add_argument("--out", default=None)
    p_bench.add_argument("--aggregate", default=None,
                         help="also write per-(method,blocks,m,n) means to this CSV")
    p_bench.set_defaults(func=cmd_bench)

    p_an = sub.add_parser("analyze", help="angle or regularity report as JSON")
    p_an.add_argument("--inst", required=True)
    p_an.add_argument("--mode", required=True, choices=["angles", "regularity"])
    p_an.add_argument("--samples", type=int, default=1000)
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--out", default=None)
    p_an.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None):
    """Run one command; the one place where a failure becomes an exit code.

    KeyError and TypeError are left out, so such programming errors still
    end in a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalBreakdown as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError, CircumprojError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
