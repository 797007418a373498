"""Per-layer metrics of a traced run, and the end-to-end metric each moves.

Layers are the package modules: problems -> affine -> solvers ->
circumcenter, plus analysis and cli.  Every value is per instance and per
round of the four solves, taken as the median over the traced passes.
Set-up layers count only spans under the benchmark's own set-up call, solve
layers only spans under a top-level solve, so the oracle, the regularity
estimate and the CLI run do not leak into them.
"""

import statistics

# metric -> (end-to-end metric it should move, workload where that shows)
LAYER_MAP = {
    "problems.generate_s": ("setup_s", "protocol-tall"),
    "problems.validate_s": ("setup_s", "protocol-tall"),
    "affine.factor_s": ("setup_s", "protocol-tall"),
    "affine.factor_calls": ("setup_s", "protocol-tall, many-blocks"),
    "affine.factor_ms_per_block": ("setup_s", "protocol-tall (large), many-blocks (small)"),
    "affine.held_mb": ("peak_rss_mb", "protocol-tall"),
    "affine.residual_s": ("solve_s.pcrm, solve_s.crm", "slow-angles"),
    "affine.residual_calls": ("solve_s.pcrm, solve_s.crm", "slow-angles"),
    "affine.project_s": ("solve_s.crm", "slow-angles"),
    "affine.project_calls": ("solve_s.crm", "slow-angles"),
    "circumcenter.s": ("solve_s.pcrm", "many-blocks, slow-angles"),
    "circumcenter.calls": ("solve_s.pcrm", "many-blocks, slow-angles"),
    "circumcenter.us_per_call": ("solve_s.pcrm", "many-blocks, slow-angles"),
    "circumcenter.points_mean": ("solve_s.pcrm", "many-blocks, slow-angles"),
    "solvers.solve_s": ("solve_s.*", "slow-angles"),
    "solvers.self_s": ("solve_s.pcrm, solve_s.cimmino", "slow-angles"),
    "solvers.iterations": ("solve_s.*", "slow-angles"),
    "solvers.us_per_iter": ("solve_s.*", "slow-angles"),
    "solvers.kernel_bytes_per_iter": ("solve_s.pcrm", "all (computed, not measured)"),
    "solve_s.pcrm-w2": ("solve_s.pcrm (its workers=1 twin)", "many-blocks"),
    "solvers.workers_ratio": ("solve_s.pcrm-w2 / solve_s.pcrm", "many-blocks"),
    "analysis.regularity_s": ("analyze_s", "slow-angles"),
    "cli.solve_s": ("e2e_s", "protocol-tall, many-blocks"),
    "cli.self_s": ("e2e_s", "protocol-tall, many-blocks"),
    "trace.overhead": ("all (traced e2e_s / untraced e2e_s)", "all"),
}


def _median(values):
    return statistics.median(values) if values else None


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def _pass_layers(spans, pass_id, pass_result, per_round):
    """Per-layer values of one traced pass, per instance and solve round."""
    instances = pass_result.instances

    def total(name, per, column="duration", **where):
        return _ratio(spans.total(spans.select(name, pass_id=pass_id, **where), column), per)

    def count(name, per, **where):
        return _ratio(int(spans.select(name, pass_id=pass_id, **where).sum()), per)

    gen = dict(top="problems.generate")
    sol = dict(top="solve")
    rounds = instances * per_round
    v = {
        "problems.generate_s": total("problems.generate", instances, "self_time", **gen),
        "problems.validate_s": total("problems.residual", instances, **gen),
        "affine.factor_s": total("affine.factor", instances, **gen),
        "affine.factor_calls": count("affine.factor", instances, **gen),
        "affine.residual_s": total("solvers.residual", rounds, **sol),
        "affine.residual_calls": count("solvers.residual", rounds, **sol),
        "affine.project_s": total("affine.project", rounds, parent="solve", **sol),
        "affine.project_calls": count("affine.project", rounds, parent="solve", **sol),
        "circumcenter.s": total("circumcenter", rounds, **sol),
        "circumcenter.calls": count("circumcenter", rounds, **sol),
        "solvers.solve_s": total("solve", rounds, **sol),
        "solvers.self_s": total("solve", rounds, "self_time", **sol),
        "analysis.regularity_s": total(
            "analysis.regularity", instances, "self_time", top="analysis.regularity"),
    }
    centers = spans.select("circumcenter", pass_id=pass_id, **sol)
    v["affine.factor_ms_per_block"] = _ratio(v["affine.factor_s"], v["affine.factor_calls"], 1e3)
    v["circumcenter.us_per_call"] = _ratio(v["circumcenter.s"], v["circumcenter.calls"], 1e6)
    v["circumcenter.points_mean"] = _ratio(float(spans.size[centers].sum()), int(centers.sum()))
    v["solvers.iterations"] = pass_result.mean("iterations")
    v["solvers.us_per_iter"] = _ratio(v["solvers.solve_s"], v["solvers.iterations"], 1e6)
    v["affine.held_mb"] = pass_result.mean("held_mb")
    v["solvers.kernel_bytes_per_iter"] = pass_result.mean("kernel_bytes_per_iter")
    return v


def layer_metrics(spans, traced, per_round):
    """The span-derived per-layer metrics of LAYER_MAP.

    traced:    [(pass id, PassResult)] of the traced passes
    per_round: solve rounds per instance in one pass (the repeats)
    """
    per_pass = [_pass_layers(spans, pid, result, per_round) for pid, result in traced]
    out = {name: _median([p[name] for p in per_pass]) for name in per_pass[0]} if per_pass else {}
    cli_main = spans.select("cli.main", top="cli.main")
    out["cli.solve_s"] = spans.total(cli_main)
    out["cli.self_s"] = spans.total(cli_main, "self_time")
    return out
