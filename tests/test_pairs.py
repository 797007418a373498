"""tools/pairs.py: its argument checks and the summary it writes of the pairs."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _TOOL)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

LOWER = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.05}


def runs_of(name, parent, change):
    """(parent run, change run) pairs that hold one metric each."""
    return [({"metrics": {name: p}}, {"metrics": {name: c}}) for p, c in zip(parent, change)]


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    lower = pairs.summarize(runs_of("setup_s", [2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 1.5]),
                            [LOWER], None)["setup_s"]
    assert lower["wins"] == "2/4"
    higher = pairs.summarize(runs_of("rate", [2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 1.5]),
                             [HIGHER], None)["rate"]
    assert higher["wins"] == "1/4"


def test_medians_quartiles_and_gap():
    m = pairs.summarize(runs_of("setup_s", [1.0, 2.0, 3.0, 4.0, 5.0], [0.5] * 5),
                        [LOWER], None)["setup_s"]
    assert m["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert m["change"]["median"] == 0.5
    assert m["median_gap"] == 2.5 and m["parent_iqr"] == 2.0
    assert m["gap_exceeds_parent_iqr"] and m["delta_median_pct"] == -83.33
    assert "claim_met" not in m


@pytest.mark.parametrize("wins, met", [(9, True), (8, False)])
def test_a_claim_needs_nine_tenths_of_the_pairs(wins, met):
    parent = [1.00, 1.01, 1.02, 1.00, 1.01, 1.02, 1.00, 1.01, 1.02, 1.00]
    change = [0.5 if i < wins else 2.0 for i in range(10)]
    m = pairs.summarize(runs_of("setup_s", parent, change), [LOWER], "setup_s")["setup_s"]
    assert m["wins"] == f"{wins}/10"
    assert m["gap_exceeds_parent_iqr"]
    assert m["claim_met"] is met


def test_a_claim_needs_a_gap_above_the_parents_iqr():
    # Every pair won, by less than the parent's spread.
    parent = [1.0, 3.0] * 5
    m = pairs.summarize(runs_of("setup_s", parent, [p - 0.1 for p in parent]),
                        [LOWER], "setup_s")["setup_s"]
    assert m["wins"] == "10/10" and not m["gap_exceeds_parent_iqr"]
    assert m["claim_met"] is False


@pytest.mark.parametrize("change, worse", [(1.06, True), (1.04, False), (0.5, False)])
def test_worse_beyond_bound_reads_the_metric_direction(change, worse):
    m = pairs.summarize(runs_of("rate", [1.0] * 3, [1.0 / change] * 3),
                        [HIGHER], None)["rate"]
    assert m["worse_beyond_bound"] is worse


def test_a_metric_missing_from_a_run_is_marked():
    runs = runs_of("setup_s", [1.0, 1.0], [1.0, 1.0])
    del runs[1][1]["metrics"]["setup_s"]
    summary = pairs.summarize(runs, [LOWER, HIGHER], None)
    assert summary == {"setup_s": {"unit": "s", "missing": True},
                       "rate": {"unit": "1/s", "missing": True}}


@pytest.mark.parametrize("count", ["0", "-2"])
def test_pairs_must_be_at_least_one(count, capsys):
    with pytest.raises(SystemExit):
        pairs.parse_args(["parent", "change", "--workload", "w", "--out", "o.json",
                          "--pairs", count])
    assert "--pairs must be at least 1" in capsys.readouterr().err
