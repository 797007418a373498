"""Run the benchmark on two checkouts in alternating pairs and summarize them.

    python tools/pairs.py PARENT CHANGE --workload W --seed S --pairs N \
        --out BENCH_N.json [--seconds 35] [--claim METRIC]

PARENT and CHANGE are the roots of two source checkouts.  Each run is
`python perfbench/run.py --workload W --seed S --seconds T --trace 0` in
its own checkout; pair i runs the parent first when i is even and the
change first when it is odd.  Each run records its end-to-end metrics, its
wall time, the user + system CPU seconds of the child (the growth of
RUSAGE_CHILDREN across the run) and /proc/loadavg before and after it, so
that a run beside a busy or an idle CPU can be told apart.

The summary gives, per metric, each side's median and quartiles, the
change's wins (a value better than the parent's in the same pair, by the
metric's direction in the parent's BENCHMARK.json; ties count for
neither), the median gap against the parent's interquartile range, and
whether the change's median is worse than the parent's by more than the
metric's bound.  `--claim METRIC` also records whether that metric met the
bar: at least nine tenths of the pairs won and a gap above the parent's
IQR.  The results go under "W seed S" in the --out JSON file, beside what
earlier runs wrote there.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--claim", help="the end-to-end metric whose gain is claimed")
    parser.add_argument("--out", required=True, help="the JSON file to add the results to")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def loadavg():
    """The 1, 5 and 15 minute load averages, or None where not readable."""
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def child_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(tree, args):
    """One benchmark run in `tree`: its metrics and what it ran beside."""
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    load_before, cpu_before, started = loadavg(), child_cpu_s(), time.perf_counter()
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - started
    cpu = child_cpu_s() - cpu_before
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(command)} in {tree} exited {done.returncode}:\n"
                         f"{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    record = next((json.loads(line[len("record "):]) for line in lines
                   if line.startswith("record ")), {})
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "wall_s": wall,
        "cpu_s": cpu,
        "cpu_per_wall": cpu / wall,
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "record": record,
    }


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(runs, declared, claim):
    """Per-metric medians, quartiles, wins and bound checks over the pairs."""
    summary = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(p["metrics"].get(name), c["metrics"].get(name)) for p, c in runs]
        if any(p is None or c is None for p, c in pairs):
            summary[name] = {"unit": metric["unit"], "missing": True}
            continue
        parent, change = quartiles([p for p, _ in pairs]), quartiles([c for _, c in pairs])
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        gap = (parent["median"] - change["median"]) * (1 if lower else -1)
        iqr = parent["q3"] - parent["q1"]
        worse = -gap / parent["median"] if parent["median"] else 0.0
        summary[name] = {
            "unit": metric["unit"],
            "parent": parent,
            "change": change,
            "delta_median_pct": round(100.0 * (change["median"] / parent["median"] - 1.0), 2)
            if parent["median"] else None,
            "wins": f"{wins}/{len(pairs)}",
            "median_gap": gap,
            "parent_iqr": iqr,
            "gap_exceeds_parent_iqr": gap > iqr,
            "worse_beyond_bound": worse > metric["bound"],
        }
        if name == claim:
            summary[name]["claim_met"] = wins >= 0.9 * len(pairs) and gap > iqr
    return summary


def main(argv=None):
    args = parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end"]
    if args.claim is not None and args.claim not in {m["name"] for m in declared}:
        raise SystemExit(f"error: {args.claim} is not an end-to-end metric")
    runs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {side: run_once(trees[side], args) for side in order}
        runs.append((pair["parent"], pair["change"]))
        shown = args.claim or "e2e_s"
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): {shown} parent "
              f"{pair['parent']['metrics'].get(shown)} change {pair['change']['metrics'].get(shown)}",
              file=sys.stderr)
    key = f"{args.workload} seed {args.seed}"
    entry = {
        "command": f"python perfbench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "order": "pair i (from 0) runs the parent first when i is even, the change first when odd",
        "correct": {side: all(r[k]["correct"] for r in runs) for k, side in enumerate(trees)},
        "failed_operations": {side: sum(r[k]["failed"] for r in runs)
                              for k, side in enumerate(trees)},
        "metrics": summarize(runs, declared, args.claim),
        "runs": [{side: {k: v for k, v in r[i].items() if k != "record"}
                  for i, side in enumerate(trees)} for r in runs],
        "machine": {k: runs[0][0]["record"].get(k)
                    for k in ("nproc", "cpu_count", "machine", "python", "numpy", "blas")},
    }
    out = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            out = json.load(fh)
    out.setdefault("workloads", {})[key] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for name, m in entry["metrics"].items():
        if not m.get("missing"):
            print(f"{key:26s} {name:18s} parent {m['parent']['median']:.6g} change "
                  f"{m['change']['median']:.6g} ({m['delta_median_pct']}%) "
                  f"wins {m['wins']} gap>IQR {m['gap_exceeds_parent_iqr']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
