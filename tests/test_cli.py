import csv
import hashlib
import json

import numpy as np
import pytest

from circumproj import (
    GenerationDescriptor,
    affine,
    angle_report,
    build_underdetermined_instance,
    instance_from_descriptor,
    verify_error_bound,
)
from circumproj.cli import CSV_HEADER, main


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def descriptor_file(tmp_path):
    path = tmp_path / "inst.json"
    code = run_cli("gen", "--m", "40", "--n", "8", "--coherence", "0.1",
                   "--seed", "42", "--out", str(path))
    assert code == 0
    return path


class TestGen:
    def test_writes_descriptor_and_prints_blocks(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        code = run_cli("gen", "--m", "5000", "--n", "500", "--coherence", "0.1",
                       "--seed", "42", "--out", str(path))
        assert code == 0
        assert capsys.readouterr().out.strip() == "11"
        payload = json.loads(path.read_text())
        assert payload["block_count"] == 11
        assert payload["m"] == 5000 and payload["n"] == 500

    def test_invalid_coherence_exits_2(self, tmp_path, capsys):
        code = run_cli("gen", "--m", "10", "--n", "2", "--coherence", "1.5",
                       "--seed", "0", "--out", str(tmp_path / "d.json"))
        assert code == 2
        assert "coherence" in capsys.readouterr().err

    def test_m_not_greater_than_n_exits_2(self, tmp_path):
        code = run_cli("gen", "--m", "5", "--n", "5", "--coherence", "0.0",
                       "--seed", "0", "--out", str(tmp_path / "d.json"))
        assert code == 2

    def test_negative_seed_exits_2_and_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        code = run_cli("gen", "--m", "10", "--n", "2", "--coherence", "0.1",
                       "--seed", "-1", "--out", str(path))
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not path.exists()

    def test_round_trip_regenerates_identical_matrices(self, descriptor_file):
        desc = GenerationDescriptor.from_dict(json.loads(descriptor_file.read_text()))

        def digest():
            inst = instance_from_descriptor(desc)
            h = hashlib.sha256()
            for U in inst.subspaces:
                h.update(U.constraint_matrix.tobytes())
                h.update(U.rhs.tobytes())
            return h.hexdigest()

        assert digest() == digest()


class TestSolve:
    def test_pcrm_converges(self, descriptor_file, capsys):
        code = run_cli("solve", "--inst", str(descriptor_file), "--method", "pcrm",
                       "--workers", "2")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        row = dict(zip(CSV_HEADER, lines[1].split(",")))
        assert row["method"] == "pcrm"
        assert row["converged"] == "true"
        assert float(row["rel_err"]) <= 1e-5

    def test_fspm_needs_more_iterations_than_pcrm(self, descriptor_file, capsys):
        assert run_cli("solve", "--inst", str(descriptor_file), "--method", "pcrm") == 0
        pcrm_row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert run_cli("solve", "--inst", str(descriptor_file), "--method", "fspm",
                       "--weights", "uniform") == 0
        fspm_row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        iters = CSV_HEADER.index("iterations")
        assert int(fspm_row[iters]) > int(pcrm_row[iters])

    def test_worker_count_does_not_change_counts(self, descriptor_file, capsys):
        assert run_cli("solve", "--inst", str(descriptor_file), "--method", "pcrm",
                       "--workers", "1") == 0
        row1 = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert run_cli("solve", "--inst", str(descriptor_file), "--method", "pcrm",
                       "--workers", "8") == 0
        row8 = capsys.readouterr().out.strip().splitlines()[1].split(",")
        for field in ("iterations", "projections", "rel_err"):
            idx = CSV_HEADER.index(field)
            assert row1[idx] == row8[idx]

    def test_max_iter_exits_3(self, descriptor_file):
        code = run_cli("solve", "--inst", str(descriptor_file), "--method", "cimmino",
                       "--tolerance", "1e-14", "--max-iterations", "5")
        assert code == 3

    def test_missing_instance_exits_2(self, tmp_path):
        code = run_cli("solve", "--inst", str(tmp_path / "nope.json"), "--method", "pcrm")
        assert code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "0"),
        ("--tolerance", "0"),
        ("--tolerance", "-1"),
        ("--max-iterations", "0"),
    ])
    def test_invalid_solver_setting_exits_2(self, descriptor_file, capsys, flag, value):
        code = run_cli("solve", "--inst", str(descriptor_file), "--method", "pcrm",
                       flag, value)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("method", ["crm", "pcrm"])
    @pytest.mark.parametrize("weights", ["uniform", "cimmino", "0.5,0.1,0.1,0.1,0.1,0.1"])
    def test_weights_rejected_for_circumcentered_methods(self, descriptor_file, capsys,
                                                         method, weights):
        code = run_cli("solve", "--inst", str(descriptor_file), "--method", method,
                       "--weights", weights)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "--weights" in captured.err

    def test_csv_append(self, descriptor_file, tmp_path):
        out = tmp_path / "records.csv"
        run_cli("solve", "--inst", str(descriptor_file), "--method", "pcrm",
                "--csv", str(out))
        run_cli("solve", "--inst", str(descriptor_file), "--method", "crm",
                "--csv", str(out))
        rows = read_csv(out)
        assert rows[0] == CSV_HEADER
        assert len(rows) == 3
        assert {rows[1][0], rows[2][0]} == {"pcrm", "crm"}


class TestBench:
    @pytest.fixture
    def config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "m_values": [30],
            "n_values": [5],
            "coherence_values": [0.0, 0.1],
            "methods": ["crm", "pcrm"],
            "seeds": [1],
            "workers": [1, 2],
        }))
        return path

    def test_grid_rows_and_schema(self, config_file, tmp_path):
        out = tmp_path / "bench.csv"
        code = run_cli("bench", "--config", str(config_file), "--out", str(out))
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == CSV_HEADER
        # 2 coherences x (crm once + pcrm per worker count)
        assert len(rows) - 1 == 2 * (1 + 2)

    def test_rerun_reproduces_non_timing_fields(self, config_file, tmp_path):
        out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        assert run_cli("bench", "--config", str(config_file), "--out", str(out1)) == 0
        assert run_cli("bench", "--config", str(config_file), "--out", str(out2)) == 0
        timing = CSV_HEADER.index("time_s")
        for r1, r2 in zip(read_csv(out1), read_csv(out2)):
            r1 = r1[:timing] + r1[timing + 1:]
            r2 = r2[:timing] + r2[timing + 1:]
            assert r1 == r2

    def test_aggregate_rows(self, config_file, tmp_path):
        out = tmp_path / "bench.csv"
        agg = tmp_path / "agg.csv"
        assert run_cli("bench", "--config", str(config_file), "--out", str(out),
                       "--aggregate", str(agg)) == 0
        rows = read_csv(agg)
        assert rows[0][0] == "method"
        # one aggregated row per (method, workers): crm + pcrm x {1, 2}
        assert len(rows) - 1 == 3
        runs_idx = rows[0].index("runs")
        assert all(r[runs_idx] == "2" for r in rows[1:])  # means over both coherences

    def test_empty_methods_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": []}))
        assert run_cli("bench", "--config", str(cfg)) == 2

    @pytest.mark.parametrize("override", [
        {"workers": [0]},
        {"workers": [1, 0]},
        {"tolerance": 0},
        {"tolerance": -1e-5},
        {"max_iterations": 0},
        {"workers": ["2"]},
    ])
    def test_invalid_solver_setting_exits_2(self, tmp_path, capsys, override):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "m_values": [30], "n_values": [5], "coherence_values": [0.0],
            "methods": ["pcrm"], "seeds": [1], **override,
        }))
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--config", str(cfg), "--out", str(out)) == 2
        assert "bad config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        {"workers": [1.5]},
        {"workers": [True]},
        {"max_iterations": 2.5},
    ])
    def test_non_integral_count_exits_2(self, tmp_path, capsys, override):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "m_values": [30], "n_values": [5], "coherence_values": [0.0],
            "methods": ["pcrm"], "seeds": [1], **override,
        }))
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--config", str(cfg), "--out", str(out)) == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_unconverged_cell_exits_5(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "m_values": [30], "n_values": [5], "coherence_values": [0.0],
            "methods": ["cimmino"], "seeds": [1], "max_iterations": 2,
            "tolerance": 1e-14,
        }))
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--config", str(cfg), "--out", str(out)) == 5
        rows = read_csv(out)
        assert rows[1][CSV_HEADER.index("converged")] == "false"


class TestAnalyze:
    @pytest.fixture
    def two_block_descriptor(self, tmp_path):
        inst = build_underdetermined_instance(6, [2, 2], 0.0, 3)
        path = tmp_path / "two.json"
        path.write_text(json.dumps(inst.descriptor.to_dict()))
        return path

    def test_angles_report(self, two_block_descriptor, capsys):
        code = run_cli("analyze", "--inst", str(two_block_descriptor),
                       "--mode", "angles", "--samples", "500")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["friedrichs_cosine"] < 1.0
        assert payload["error_bound_constant"] > 1.0
        assert payload["bound_verified"] is True
        assert payload["samples"] == 500

    def test_angles_factor_the_pair_once(self, two_block_descriptor, capsys, monkeypatch):
        calls = []
        factor_qr = affine._factor_qr

        def spy(A, b):
            calls.append(A.shape)
            return factor_qr(A, b)

        monkeypatch.setattr(affine, "_factor_qr", spy)
        assert run_cli("analyze", "--inst", str(two_block_descriptor),
                       "--mode", "angles", "--samples", "50") == 0
        # Two 2x6 blocks from the descriptor, then their 4x6 stack once.
        assert calls == [(2, 6), (2, 6), (4, 6)]

    def test_angles_payload_matches_the_library(self, two_block_descriptor, capsys):
        code = run_cli("analyze", "--inst", str(two_block_descriptor),
                       "--mode", "angles", "--samples", "300", "--seed", "4")
        assert code == 0
        u, v = instance_from_descriptor(GenerationDescriptor.from_dict(
            json.loads(two_block_descriptor.read_text()))).subspaces
        report = angle_report(u, v)
        expected = report.to_dict()
        expected["bound_verified"] = verify_error_bound(u, v, report.error_bound_constant, 300, 4)
        expected.update(samples=300, seed=4)
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    def test_regularity_report(self, two_block_descriptor, capsys):
        code = run_cli("analyze", "--inst", str(two_block_descriptor),
                       "--mode", "regularity", "--samples", "200", "--seed", "5")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regularity_estimate"] >= 1.0 - 1e-9

    def test_angles_needs_at_most_two_blocks(self, tmp_path, capsys):
        inst = build_underdetermined_instance(9, [2, 2, 2], 0.0, 3)
        path = tmp_path / "three.json"
        path.write_text(json.dumps(inst.descriptor.to_dict()))
        assert run_cli("analyze", "--inst", str(path), "--mode", "angles") == 2

    def test_single_block_treated_as_identical_pair(self, tmp_path, capsys):
        inst = build_underdetermined_instance(5, [2], 0.0, 3)
        path = tmp_path / "one.json"
        path.write_text(json.dumps(inst.descriptor.to_dict()))
        assert run_cli("analyze", "--inst", str(path), "--mode", "angles") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["friedrichs_cosine"] == 0.0
        assert payload["intersection_dim"] == 3  # direction dim of the block

    @pytest.mark.parametrize("mode", ["angles", "regularity"])
    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_nonpositive_samples_exit_2(self, two_block_descriptor, capsys, mode, samples):
        code = run_cli("analyze", "--inst", str(two_block_descriptor),
                       "--mode", mode, "--samples", samples)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "samples" in captured.err


def masked_time(text):
    """CSV text with every time_s field replaced by '*'."""
    rows = list(csv.reader(text.splitlines()))
    timing = CSV_HEADER.index("time_s")
    for row in rows[1:]:
        row[timing] = "*"
    return rows


@pytest.fixture
def gen_descriptor(tmp_path):
    path = tmp_path / "gen.json"
    assert run_cli("gen", "--m", "300", "--n", "20", "--coherence", "0.1",
                   "--seed", "3", "--out", str(path)) == 0
    return path


@pytest.fixture
def underdetermined_descriptor(tmp_path):
    path = tmp_path / "under.json"
    path.write_text(json.dumps(build_underdetermined_instance(40, [3, 4, 5], 0.1, 2)
                               .descriptor.to_dict()))
    return path


class TestSolveGoldenCsv:
    """`solve` stdout, time_s aside, byte for byte.  rel_err passes through
    BLAS products, so it is pinned for this build of OpenBLAS."""

    HEADER = "method,blocks,m,n,coherence,seed,workers,iterations,projections,time_s,rel_err,converged"

    @pytest.mark.parametrize("descriptor, method, flags, record", [
        ("gen_descriptor", "pcrm", ("--tolerance", "1e-8"),
         "pcrm,16,300,20,0.1,3,1,4,64,0,4.437954896272e-09,true"),
        # The auto rule is rel_err here.  The feasibility rule measures each
        # iterate but steps by the same map, so it ends on the same point.
        ("gen_descriptor", "cimmino", ("--tolerance", "1e-8"),
         "cimmino,16,300,20,0.1,3,1,10,160,0,5.091744822208e-09,true"),
        ("gen_descriptor", "cimmino", ("--tolerance", "1e-8", "--stop-rule", "feasibility"),
         "cimmino,16,300,20,0.1,3,1,10,160,0,5.091744822208e-09,true"),
        # No known solution: the auto rule is feasibility and rel_err is nan.
        ("underdetermined_descriptor", "pcrm", ("--tolerance", "1e-5"),
         "pcrm,3,12,40,0.1,2,1,18,54,0,nan,true"),
        ("underdetermined_descriptor", "crm", ("--tolerance", "1e-5"),
         "crm,3,12,40,0.1,2,1,9,27,0,nan,true"),
        ("underdetermined_descriptor", "cimmino", ("--tolerance", "1e-5"),
         "cimmino,3,12,40,0.1,2,1,60,180,0,nan,true"),
        ("underdetermined_descriptor", "fspm", ("--tolerance", "1e-5"),
         "fspm,3,12,40,0.1,2,1,82,246,0,nan,true"),
    ])
    def test_record(self, request, capsys, descriptor, method, flags, record):
        path = request.getfixturevalue(descriptor)
        capsys.readouterr()  # the block count that `gen` printed
        assert run_cli("solve", "--inst", str(path), "--method", method, *flags) == 0
        assert masked_time(capsys.readouterr().out) == masked_time(f"{self.HEADER}\n{record}\n")

    @pytest.mark.parametrize("descriptor", ["gen_descriptor", "underdetermined_descriptor"])
    def test_cimmino_with_uniform_weights_is_fspm(self, request, capsys, descriptor):
        path = request.getfixturevalue(descriptor)
        capsys.readouterr()
        rows = {}
        for method, flags in (("fspm", ()), ("cimmino", ("--weights", "uniform")),
                              ("cimmino", ())):
            assert run_cli("solve", "--inst", str(path), "--method", method, *flags) == 0
            rows[method, flags] = masked_time(capsys.readouterr().out)[1]
        uniform = rows["cimmino", ("--weights", "uniform")]
        assert uniform[0] == "cimmino"
        assert uniform[1:] == rows["fspm", ()][1:]
        assert uniform[1:] != rows["cimmino", ()][1:]


def test_solve_and_bench_agree(gen_descriptor, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "m_values": [300], "n_values": [20], "coherence_values": [0.1],
        "methods": ["pcrm"], "seeds": [3], "workers": [1, 2],
        "tolerance": 1e-8, "max_iterations": 500,
    }))
    out = tmp_path / "bench.csv"
    assert run_cli("bench", "--config", str(cfg), "--out", str(out)) == 0
    solved = [CSV_HEADER]
    for workers in ("1", "2"):
        assert run_cli("solve", "--inst", str(gen_descriptor), "--method", "pcrm",
                       "--tolerance", "1e-8", "--max-iterations", "500",
                       "--workers", workers) == 0
        solved.append(masked_time(capsys.readouterr().out)[1])
    assert masked_time(out.read_text()) == solved


class TestDescriptorIntegers:
    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", True), ("seed", 2.0), ("m", 300.9), ("n", 20.0),
        ("block_count", 16.5),
    ])
    @pytest.mark.parametrize("command", [["solve", "--method", "pcrm"],
                                         ["analyze", "--mode", "regularity"]])
    def test_non_integral_field_exits_2(self, gen_descriptor, capsys, command, field, value):
        payload = json.loads(gen_descriptor.read_text())
        payload[field] = value
        gen_descriptor.write_text(json.dumps(payload))
        assert run_cli(command[0], "--inst", str(gen_descriptor), *command[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be an integer" in captured.err

    @pytest.mark.parametrize("rows", [[3, 4.5, 5], [3, True, 5]])
    def test_non_integral_block_rows_exit_2(self, underdetermined_descriptor, capsys, rows):
        payload = json.loads(underdetermined_descriptor.read_text())
        payload["block_rows"] = rows
        underdetermined_descriptor.write_text(json.dumps(payload))
        assert run_cli("solve", "--inst", str(underdetermined_descriptor),
                       "--method", "pcrm") == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_valid_descriptors_round_trip_byte_identical(self, gen_descriptor,
                                                         underdetermined_descriptor):
        text = gen_descriptor.read_text()
        back = GenerationDescriptor.from_dict(json.loads(text))
        assert json.dumps(back.to_dict(), indent=2) + "\n" == text
        text = underdetermined_descriptor.read_text()
        assert json.dumps(GenerationDescriptor.from_dict(json.loads(text)).to_dict()) == text


class TestDescriptorChecks:
    @pytest.mark.parametrize("command", [["solve", "--method", "pcrm"],
                                         ["analyze", "--mode", "regularity"]])
    @pytest.mark.parametrize("descriptor, edits, message", [
        ("underdetermined_descriptor", {"m": 999, "block_count": 7}, "descriptor m is 999"),
        ("underdetermined_descriptor", {"block_count": 7}, "descriptor block_count is 7"),
        ("gen_descriptor", {"block_count": 99}, "descriptor block_count is 99"),
        ("gen_descriptor", {"coherence": True}, "coherence must be a number"),
        ("gen_descriptor", {"coherence": "0.1"}, "coherence must be a number"),
    ])
    def test_disagreeing_or_mistyped_field_exits_2(self, request, capsys, command,
                                                   descriptor, edits, message):
        path = request.getfixturevalue(descriptor)
        payload = json.loads(path.read_text())
        payload.update(edits)
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli(command[0], "--inst", str(path), *command[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
