"""Benchmark command line: gen | solve | bench | analyze.

stdout carries data only (descriptor block counts, CSV records, JSON
reports); diagnostics go to stderr.  Exit codes: 0 success/converged,
2 misuse, 3 iteration cap hit, 4 numerical breakdown, 5 at least one
benchmark cell failed.
"""

import argparse
import csv
import itertools
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .analysis import angle_report_and_bound, estimate_regularity
from .errors import CircumprojError, NumericalBreakdown
from .problems import (
    GenerationDescriptor,
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


def _fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_descriptor(path):
    with open(path, "r", encoding="utf-8") as fh:
        return GenerationDescriptor.from_dict(json.load(fh))


def _stop_rule(name, instance):
    """The named stop rule; "auto" is rel_err with a known solution, else feasibility."""
    if name == "auto":
        name = "rel_err" if instance.known_solution is not None else "feasibility"
    return StopRule(name)


def _run_cell(instance, config):
    """Solve one cell and return its CSV record."""
    result = solve(instance, config)
    known = instance.known_solution
    rel_err = float("nan")
    if known is not None:
        rel_err = float(np.linalg.norm(result.point - known) / np.linalg.norm(known))
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
    try:
        descriptor = _protocol_descriptor(args.m, args.n, args.coherence, args.seed)
    except (ValueError, CircumprojError) as exc:
        return _fail(str(exc))
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
    return np.array([float(t) for t in spec.split(",")])


def cmd_solve(args):
    try:
        instance = instance_from_descriptor(_load_descriptor(args.inst))
    except (OSError, ValueError, KeyError, CircumprojError) as exc:
        return _fail(f"cannot load instance: {exc}")

    method = Method(args.method)
    if args.weights is not None and method in (Method.CRM, Method.PCRM):
        return _fail(f"--weights applies to fspm and cimmino only, not {method.value}")
    try:
        weights = _parse_weights(args.weights, instance.block_count)
    except ValueError as exc:
        return _fail(f"bad --weights: {exc}")

    try:
        config = SolverConfig(
            method=method,
            weights=weights,
            tolerance=args.tolerance,
            max_iterations=args.max_iterations,
            stop_rule=_stop_rule(args.stop_rule, instance),
            workers=args.workers,
            record_residuals=False,
        )
    except ValueError as exc:
        return _fail(str(exc))
    try:
        record = _run_cell(instance, config)
    except NumericalBreakdown as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 4
    except CircumprojError as exc:
        return _fail(str(exc))

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerow(record.to_row())
    if args.csv:
        _append_records(args.csv, [record])
    return 0 if record.converged else 3


def _append_records(path, records):
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if fresh:
            writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(rec.to_row())


def _load_bench_config(path):
    cfg = dict(DEFAULT_BENCH)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
        unknown = set(overrides) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(overrides)
    for key in ("m_values", "n_values", "coherence_values", "methods", "seeds", "workers"):
        if not cfg[key]:
            raise ValueError(f"config key {key!r} must be a nonempty list")
    cfg["methods"] = [Method(m).value for m in cfg["methods"]]
    for workers in cfg["workers"]:
        # SolverConfig owns the solver settings' validity rules.
        SolverConfig(method=cfg["methods"][0], tolerance=cfg["tolerance"],
                     max_iterations=cfg["max_iterations"], workers=workers)
    return cfg


def cmd_bench(args):
    try:
        cfg = _load_bench_config(args.config)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _fail(f"bad config: {exc}")
    out_path = args.out or cfg["out"]

    # Only P-CRM records its worker counts; the other methods run once.
    solves = [(method, workers) for method in cfg["methods"]
              for workers in (cfg["workers"] if method == Method.PCRM.value else [1])]
    records = []
    any_failed = False
    try:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
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
                for method, workers in solves:
                    config = SolverConfig(
                        method=method, tolerance=cfg["tolerance"],
                        max_iterations=cfg["max_iterations"], workers=workers,
                        stop_rule=_stop_rule("auto", instance), record_residuals=False,
                    )
                    try:
                        record = _run_cell(instance, config)
                    except CircumprojError as exc:
                        print(f"solve ({method}, m={m}, n={n}, c={c}, seed={seed}) "
                              f"failed: {exc}", file=sys.stderr)
                        any_failed = True
                        continue
                    if not record.converged:
                        any_failed = True
                    records.append(record)
                    writer.writerow(record.to_row())
                    fh.flush()
    except KeyboardInterrupt:
        print("interrupted; partial results flushed", file=sys.stderr)
        return 130

    if args.aggregate:
        _write_aggregate(args.aggregate, records)
    print(f"wrote {len(records)} records to {out_path}", file=sys.stderr)
    return 5 if any_failed else 0


def _write_aggregate(path, records):
    groups = {}
    for rec in records:
        groups.setdefault((rec.method, rec.blocks, rec.m, rec.n, rec.workers), []).append(rec)
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
    try:
        instance = instance_from_descriptor(_load_descriptor(args.inst))
    except (OSError, ValueError, KeyError, CircumprojError) as exc:
        return _fail(f"cannot load instance: {exc}")

    if args.mode == "angles" and instance.block_count > 2:
        return _fail("angle mode needs an instance with at most 2 blocks")
    try:
        if args.mode == "angles":
            if instance.block_count == 2:
                u_sub, v_sub = instance.subspaces
            else:
                u_sub = v_sub = instance.subspaces[0]
            report, verified = angle_report_and_bound(u_sub, v_sub, args.samples, args.seed)
            payload = report.to_dict()
            payload["bound_verified"] = verified
        else:
            payload = {
                "regularity_estimate": estimate_regularity(instance, args.samples, args.seed)
            }
    except ValueError as exc:
        return _fail(str(exc))
    payload.update(samples=args.samples, seed=args.seed)

    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
