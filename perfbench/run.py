"""circumproj benchmark: descriptor-to-solution time on three workloads.

    python3 perfbench/run.py --workload protocol-tall --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/`.  One pass sets up each of the workload's instances from its
descriptor, solves it with P-CRM (1 and 2 workers), CRM and Cimmino, and
estimates its regularity constant; every operation passes a correctness
gate, and a failure is counted and skipped.  e2e_s is set-up plus the
single-thread solves; the two-worker solve is a per-layer metric.  Passes
repeat until --seconds have elapsed, after one untimed warm-up pass on
small instances.

Timing metrics are each instance's median, in seconds rescaled to a fixed
machine speed by reference bursts timed between the operations (clock.py),
so that a shared host's drifting speed does not show as a change of the
program.  The wall-clock median of each timing is printed alongside.

--trace 0 prints the end-to-end metrics declared in BENCHMARK.json; --trace 1
alternates untraced and traced passes, runs the CLI once, writes every span
to .perfbench-out/ and prints the per-layer metrics.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.

Everything runs in this one process.  The BLAS is pinned to one thread, so
the two-worker solve uses at most two threads in all.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREADS = 1
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The direct children of a top-level solve span, whose sum is the span.
SOLVE_PARTS = ("circumcenter.s", "affine.residual_s", "affine.project_s", "solvers.self_s")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads():
    # Must run before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_library():
    """Import circumproj from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "circumproj", "__init__.py")):
        raise SystemExit(f"error: no circumproj package under {src}")
    sys.path.insert(0, src)
    import circumproj

    if os.path.dirname(os.path.dirname(os.path.abspath(circumproj.__file__))) != src:
        raise SystemExit(f"error: circumproj imported from {circumproj.__file__}")


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def blas_threads_in_use():
    """Thread count OpenBLAS reports for this process, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def loadavg():
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def run_record(args, workload):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instance_seeds": workload.instance_seeds(args.seed),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads_in_use(),
        "loadavg_start": loadavg(),
    }


def describe(samples):
    """Median, the highest percentile with >= 10 samples above it, count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered)}
    for p in PERCENTILES:
        rank = -(-int(p * n) // 100)  # nearest rank, ceil(p n / 100)
        if n - rank >= 10:
            out[f"p{p:g}"] = ordered[rank - 1]
            break
    return out


def by_instance(passes, key, wall=False):
    """{instance position in the pass: its samples of `key` over all passes}.

    Timings are scaled seconds (see clock.py), or wall seconds with `wall`.
    """
    groups = {}
    for result in passes:
        for position, values in (result.wall if wall else result.values).get(key, {}).items():
            groups.setdefault(position, []).extend(values)
    return groups


def summarize(groups):
    """Mean over the instances of each one's median."""
    if not groups:
        return None
    return statistics.fmean(statistics.median(samples) for samples in groups.values())


def ratio(num, den):
    return num / den if num is not None and den else None


def main(argv=None):
    pin_blas_threads()
    import_library()
    import layers
    import spans as spans_mod
    from clock import SpeedClock
    from workloads import E2E_SOLVES, WORKLOADS, Gate, run_cli, run_pass

    args = parse_args(argv, WORKLOADS)
    end_to_end, per_layer = declared_metrics()
    workload = WORKLOADS[args.workload]
    seeds = workload.instance_seeds(args.seed)
    record = run_record(args, workload)
    gate = Gate()
    tracer = spans_mod.Tracer() if args.trace else None
    clock = SpeedClock(("small", "large") if workload.large_lapack else ("small",))

    run_pass(workload, seeds, gate, clock, warm=True)
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    pass_id = 0
    while True:
        started = time.perf_counter()
        if tracer is not None and pass_id % 2 == 1:
            with tracer.installed(pass_id):
                traced.append((pass_id, run_pass(workload, seeds, gate, clock, span=tracer.span)))
        else:
            untraced.append(run_pass(workload, seeds, gate, clock))
        pass_id += 1
        # Stop when another pass as long as the last would overrun --seconds.
        now = time.perf_counter()
        if now + (now - started) > deadline and (tracer is None or traced):
            break

    if tracer is None:
        timings = (["setup_s", "e2e_s"] + [f"solve_s.{name}" for name in E2E_SOLVES]
                   + ["analyze_s"])
        measured = {key: by_instance(untraced, key) for key in timings + ["projections"]}
        measured.update({f"{key} (wall)": by_instance(untraced, key, wall=True)
                         for key in timings})
        values = {key: summarize(groups) for key, groups in measured.items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        declared = end_to_end
    else:
        descriptor = next((p.descriptor for p in untraced if p.descriptor), None)
        if descriptor is not None:
            with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
                with tracer.installed(pass_id):
                    run_cli(workload, descriptor, workdir, gate)
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.save(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.npz"))
        traced_results = [result for _, result in traced]
        measured = {
            "e2e_s (untraced)": by_instance(untraced, "e2e_s"),
            "e2e_s (traced)": by_instance(traced_results, "e2e_s"),
            "solve_s.pcrm (untraced)": by_instance(untraced, "solve_s.pcrm"),
            "solve_s.pcrm-w2 (untraced)": by_instance(untraced, "solve_s.pcrm-w2"),
        }
        medians = {key: summarize(groups) for key, groups in measured.items()}
        values = layers.layer_metrics(spans_mod.Spans(tracer), traced, workload.repeats)
        values["solve_s.pcrm-w2"] = medians["solve_s.pcrm-w2 (untraced)"]
        values["solvers.workers_ratio"] = ratio(
            medians["solve_s.pcrm-w2 (untraced)"], medians["solve_s.pcrm (untraced)"])
        values["trace.overhead"] = ratio(medians["e2e_s (traced)"], medians["e2e_s (untraced)"])
        declared = per_layer
        record["absent_entry_points"] = tracer.absent

    record.update({
        "passes_untraced": len(untraced),
        "passes_traced": len(traced),
        "instances_per_pass": workload.instances,
        "solve_repeats": workload.repeats,
        "loadavg_end": loadavg(),
        "reference_unit_s": {kind: describe(seconds)
                             for kind, (_, seconds) in clock.samples.items()},
        "fail_rate": f"{gate.failed}/{gate.attempted}",
    })
    print(f"# circumproj benchmark: {args.workload} seed {args.seed} trace {args.trace}")
    print("record " + json.dumps(record))
    for key, groups in measured.items():
        pooled = [x for samples in groups.values() for x in samples]
        if pooled:
            print("samples " + json.dumps({key: describe(pooled)}))
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value = values.get(name)
        metrics[name] = {"value": value, "unit": unit}
        note = " -> {} on {}".format(*layers.LAYER_MAP[name]) if name in layers.LAYER_MAP else ""
        print(f"{name:32s} {value!s:>24s} {unit}{note}")
    if tracer is not None and all(values.get(k) is not None for k in SOLVE_PARTS + ("solvers.solve_s",)):
        parts = " + ".join(f"{k} {values[k]:.6g}" for k in SOLVE_PARTS)
        print(f"solve spans: {parts} = {sum(values[k] for k in SOLVE_PARTS):.6g} s"
              f" of solvers.solve_s {values['solvers.solve_s']:.6g} s")
    print(f"fail_rate {gate.failed}/{gate.attempted} operations")
    correct = gate.failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
