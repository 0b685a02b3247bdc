import csv
import json

import pytest

from primesim.cli import main
from primesim.numset import NumberSet, load_set, save_set
from primesim.reports import dump_json, load_json


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_wall(doc: dict) -> dict:
    doc = dict(doc)
    doc.pop("wall_ms", None)
    return doc


class TestSieve:
    def test_summary_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "sieve", "--limit", "100")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 25
        assert doc["limit"] == 100
        assert doc["schema_version"] == 1

    def test_set_file_output(self, capsys, tmp_path):
        out_path = tmp_path / "p.txt"
        code, _, _ = run_cli(capsys, "sieve", "--limit", "50", "--out", str(out_path))
        assert code == 0
        ns = load_set(str(out_path))
        assert ns.elements.tolist()[:4] == [2, 3, 5, 7]
        assert ns.limit == 50

    def test_bad_limit(self, capsys):
        code, _, err = run_cli(capsys, "sieve", "--limit", "1")
        assert code == 2
        assert "limit" in err


class TestGenSet:
    def test_deterministic_bytes(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys,
                "gen-set", "--kind", "perturbed", "--limit", "1000000",
                "--seed", "42", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_seed(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "gen-set", "--kind", "perturbed", "--limit", "100",
            "--out", str(tmp_path / "x.txt"),
        )
        assert code == 2
        assert "seed" in err

    def test_deviation_report(self, capsys, tmp_path):
        out = tmp_path / "q.txt"
        dev = tmp_path / "dev.json"
        code, _, _ = run_cli(
            capsys,
            "gen-set", "--kind", "perturbed", "--limit", "100000", "--seed", "7",
            "--out", str(out), "--deviation-report", str(dev),
        )
        assert code == 0
        doc = load_json(str(dev))
        assert doc["max_deviation"] <= 2
        assert doc["bound_c"] == doc["max_deviation"] + 1
        assert all(d <= 2 for _, d in doc["series"])


class TestCheck:
    def test_primes_clean_run(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            "check", "--set", "primes", "--limit", "10000",
            "--lo", "4", "--hi", "10000", "--out", str(out),
        )
        assert code == 0
        doc = load_json(str(out))
        assert doc["failures"] == []
        assert doc["threshold_N0"] == 2
        assert doc["spec"] == {"kind": "primes", "limit": 10000}
        assert set(doc["buckets"][0]) == {"lo", "hi", "sampled", "min_reps", "mean_reps"}
        assert doc["schema_version"] == 1

    def test_failures_drive_exit_status(self, capsys, tmp_path):
        set_path = tmp_path / "tiny.txt"
        save_set(NumberSet.from_elements([2], 60), str(set_path))
        args = [
            "check", "--set", "file", "--path", str(set_path),
            "--lo", "4", "--hi", "120",
        ]
        code, out, _ = run_cli(capsys, *args)
        assert code == 1  # failures at 42+ with default --allow-below 42
        code, out, _ = run_cli(capsys, *args, "--allow-below", "200")
        assert code == 0

    def test_spec_file_input(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.txt"
        spec_path.write_text("kind=primes\nlimit=1000\n")
        code, out, _ = run_cli(
            capsys, "check", "--set", str(spec_path), "--lo", "4", "--hi", "1000"
        )
        assert code == 0
        assert json.loads(out)["failures"] == []

    def test_workers_byte_identical(self, capsys, tmp_path):
        paths = []
        for workers in ("1", "4"):
            path = tmp_path / f"w{workers}.json"
            code, _, _ = run_cli(
                capsys,
                "check", "--set", "primes", "--limit", "100000",
                "--lo", "4", "--hi", "100000", "--workers", workers,
                "--bucket-width", "10000", "--out", str(path),
            )
            assert code == 0
            paths.append(path)
        docs = [strip_wall(load_json(str(p))) for p in paths]
        assert dump_json(docs[0]) == dump_json(docs[1])

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check", "--set", "primes", "--limit", "2000",
            "--lo", "4", "--hi", "2000", "--format", "csv",
        )
        assert code == 0
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        header = rows[0].split(",")
        assert header == ["lo", "hi", "sampled", "min_reps", "mean_reps"]

    def test_json_roundtrip_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        run_cli(
            capsys,
            "check", "--set", "primes", "--limit", "1000",
            "--lo", "4", "--hi", "1000", "--out", str(path),
        )
        original = path.read_text()
        assert dump_json(json.loads(original)) == original

    def test_odd_bounds_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "--set", "primes", "--limit", "100", "--lo", "5", "--hi", "10"
        )
        assert code == 2
        assert "even" in err

    def test_element_beyond_int64_is_input_error(self, capsys, tmp_path):
        set_path = tmp_path / "big.txt"
        set_path.write_text("limit=100\n5\n99999999999999999999\n")
        code, _, err = run_cli(
            capsys, "check", "--set", "file", "--path", str(set_path), "--lo", "4", "--hi", "10"
        )
        assert code == 2
        assert "big.txt:3" in err

    def test_unknown_set_token(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "--set", "nonsense", "--lo", "4", "--hi", "10"
        )
        assert code == 2
        assert "--set" in err


class TestAnb:
    def test_distance_sets_and_representation(self, capsys):
        code, out, _ = run_cli(
            capsys, "anb", "--set", "primes", "--limit", "10000", "--n", "10"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["a_members"] == [3, 5, 7, 8]
        assert doc["b_members"] == [1, 3, 7, 9]
        assert doc["disjoint"] is False
        assert doc["representation"] == [3, 17]

    def test_universe_guard(self, capsys):
        code, _, err = run_cli(
            capsys, "anb", "--set", "primes", "--limit", "10", "--n", "9"
        )
        assert code == 2


class TestProb:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "--n", "10000", "--pmax", "2")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["domain_size"] == 5000
        assert row["damping_c"] == 2.0

    def test_csv_columns_frozen(self, capsys):
        code, out, _ = run_cli(
            capsys, "prob", "--n", "1000", "--n-max", "5000", "--n-step", "1000",
            "--format", "csv",
        )
        assert code == 0
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert rows[0] == "n,k,domain_size,damping_c,ln_P_exact,log10_f,log10_tail"
        assert len(rows) == 6

    def test_c_from_pmax(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "--n", "10000", "--c-from-pmax", "5")
        row = json.loads(out)["rows"][0]
        assert row["damping_c"] == 3.75

    def test_zero_damping_rejected(self, capsys):
        code, out, err = run_cli(capsys, "prob", "--n", "10000", "--c", "0")
        assert code == 2
        assert out == ""
        assert "damping" in err

    @pytest.mark.parametrize("step", ["0", "-5"])
    def test_nonpositive_n_step_rejected(self, capsys, step):
        code, out, err = run_cli(
            capsys, "prob", "--n", "1000", "--n-max", "2000", "--n-step", step
        )
        assert code == 2
        assert out == ""
        assert "--n-step" in err


class TestTail:
    def test_paper_scale_value(self, capsys):
        code, out, _ = run_cli(capsys, "tail", "--from", "20000")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["log10_tail"] - (-86)) <= 1.0

    def test_too_small(self, capsys):
        code, _, err = run_cli(capsys, "tail", "--from", "50")
        assert code == 2


class TestReportPlotData:
    def test_model_table_series(self, capsys, tmp_path):
        table = tmp_path / "model.csv"
        run_cli(
            capsys,
            "prob", "--n", "1000", "--n-max", "100000", "--n-step", "1000",
            "--format", "csv", "--out", str(table),
        )
        out_csv = tmp_path / "plot.csv"
        code, _, _ = run_cli(
            capsys, "report", "--in", str(table), "--plot-data", "--out", str(out_csv)
        )
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 100
        ys = [float(r["y"]) for r in rows]
        assert all(b < a for a, b in zip(ys, ys[1:]))

    def test_check_report_series_empty_failures(self, capsys, tmp_path):
        report = tmp_path / "check.json"
        run_cli(
            capsys,
            "check", "--set", "primes", "--limit", "2000",
            "--lo", "4", "--hi", "2000", "--out", str(report),
        )
        plot = tmp_path / "plot.csv"
        code, _, _ = run_cli(
            capsys, "report", "--in", str(report), "--plot-data", "--out", str(plot)
        )
        assert code == 0
        with open(plot) as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["series"] != "failures" for r in rows)
        assert any(r["series"] == "bucket_min_reps" for r in rows)

    def test_deviation_series(self, capsys, tmp_path):
        dev = tmp_path / "dev.json"
        run_cli(
            capsys,
            "gen-set", "--kind", "perturbed", "--limit", "50000", "--seed", "3",
            "--out", str(tmp_path / "q.txt"), "--deviation-report", str(dev),
        )
        plot = tmp_path / "plot.csv"
        code, _, _ = run_cli(
            capsys, "report", "--in", str(dev), "--plot-data", "--out", str(plot)
        )
        assert code == 0
        with open(plot) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(float(r["y"]) <= 2 for r in rows)


class TestUsageErrors:
    def test_argparse_exit_2_on_bad_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--nonsense"])
        assert excinfo.value.code == 2
        assert "--lo" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
