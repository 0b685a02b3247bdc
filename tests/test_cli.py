import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import primesim
from primesim import checker, cli
from primesim.cli import PROB_MAX_C_PMAX, PROB_MAX_N, PROB_MAX_ROWS, main
from primesim.numset import NumberSet, load_set, save_set
from primesim.reports import document, dump_json, load_json, table_csv


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

    def test_deviation_report_sieves_once(self, capsys, tmp_path, monkeypatch):
        from primesim import numset

        # the sieve's one segment that ends at the limit, once per sieve to 10^5
        ends = []
        segment = numset._sieve_segment
        monkeypatch.setattr(numset, "_sieve_segment", lambda lo, hi, base: ends.append(hi) or segment(lo, hi, base))
        code, _, _ = run_cli(
            capsys,
            "gen-set", "--kind", "perturbed", "--limit", "100000", "--seed", "7",
            "--out", str(tmp_path / "q.txt"), "--deviation-report", str(tmp_path / "dev.json"),
        )
        assert code == 0 and ends.count(100_001) == 1

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

    def test_deviation_report_of_a_limit_one_set(self, capsys, tmp_path):
        # the report compares with the primes to 1, the empty set
        (tmp_path / "one.txt").write_text("limit=1\n1\n")
        out, dev = tmp_path / "o.txt", tmp_path / "d.json"
        code, _, _ = run_cli(
            capsys,
            "gen-set", "--kind", "file", "--path", str(tmp_path / "one.txt"),
            "--out", str(out), "--deviation-report", str(dev),
        )
        assert code == 0 and out.exists()
        doc = load_json(str(dev))
        assert (doc["max_deviation"], doc["witness_n"], doc["series"]) == (1, 1, [[1, 1]])


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

    def test_failed_precision_guard_exits_3(self, tmp_path):
        # the FFT counts pushed 0.3 off an integer trip the residual guard
        env = dict(os.environ, PYTHONPATH=str(Path(primesim.__file__).parents[1]))
        forced = ("import sys, numpy as np; irfft = np.fft.irfft; "
                  "np.fft.irfft = lambda *args: irfft(*args) + 0.3; "
                  "from primesim.cli import main; sys.exit(main(sys.argv[1:]))")
        argv = ["check", "--set", "primes", "--limit", "10000", "--lo", "4", "--hi", "10000"]
        proc = subprocess.run(
            [sys.executable, "-c", forced, *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, check=False, timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("primesim check:") and "off an integer" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_spot_check_mismatch_exits_3(self, capsys, monkeypatch):
        wrong = checker.pair_count
        monkeypatch.setattr(checker, "pair_count", lambda setQ, even: wrong(setQ, even) + 1)
        code, out, err = run_cli(capsys, "check", "--set", "primes", "--limit", "10000", "--lo", "4", "--hi", "10000")
        assert code == 3
        assert out == ""
        assert err.startswith("primesim check:") and "pair_count gives" in err

    def test_spec_file_input(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.txt"
        spec_path.write_text("kind=primes\nlimit=1000\n")
        code, out, _ = run_cli(
            capsys, "check", "--set", str(spec_path), "--lo", "4", "--hi", "1000"
        )
        assert code == 0
        assert json.loads(out)["failures"] == []

    @pytest.mark.parametrize("argv, builder", [
        (["--set", "primes", "--limit", "1"], "primes_up_to"),
        (["--set", "perturbed", "--limit", "2", "--seed", "1"], "perturb_primes"),
        (["--set", "shifted", "--limit", "100", "--shift", "-2"], "shift below 1"),
    ], ids=["primes", "perturbed", "shifted"])
    def test_small_spec_is_an_input_error(self, capsys, argv, builder):
        code, out, err = run_cli(capsys, "check", *argv, "--lo", "4", "--hi", "10")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("primesim check:") and builder in err

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

    def test_count_over_budget_is_an_input_error(self, capsys):
        # --sample-stride 1 counts at step 2, which at 3e7 needs more than the 1 GiB budget
        code, out, err = run_cli(
            capsys, "check", "--set", "primes", "--limit", "30000000", "--lo", "4", "--hi", "30000000",
            "--sample-stride", "1",
        )
        assert code == 2 and out == ""
        assert err.startswith("primesim check: counting at step 2") and "1024 MiB budget" in err

    def test_count_refusal_names_the_flags(self, capsys, monkeypatch):
        # the 3e7 refusal above, at 2e4 under a 1 MiB budget: its hint names the layout
        monkeypatch.setattr(checker, "COUNT_BUDGET", 1 << 20)
        code, out, err = run_cli(
            capsys, "check", "--set", "primes", "--limit", "20000", "--lo", "4", "--hi", "20000",
            "--sample-stride", "1",
        )
        assert code == 2 and out == ""
        assert err.startswith("primesim check: counting at step 2") and "1 MiB budget" in err
        assert "gcd(2 * --sample-stride, --bucket-width)" in err
        bare = err.replace("--sample-stride", "").replace("--bucket-width", "").replace("--workers", "")
        assert not any(key in bare for key in ("sample_stride", "bucket_width", "workers")), err

    def test_bucket_count_over_the_cap_is_an_input_error(self, capsys):
        # 499,999 buckets of one even each: refused before any count or sweep
        t0 = time.perf_counter()
        code, out, err = run_cli(
            capsys, "check", "--set", "primes", "--limit", "1000000", "--lo", "4", "--hi", "1000000",
            "--bucket-width", "2", "--sample-stride", "1",
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert err.startswith("primesim check: ") and "499999 buckets; the cap is 10000" in err

    @pytest.mark.parametrize(
        "layout",
        [["--bucket-width", str(10**30)], ["--sample-stride", str(10**30)],
         ["--bucket-width", str(2**64), "--sample-stride", str(2**63)],
         ["--bucket-width", str(2 * 10**30), "--sample-stride", str(10**30)]],
        ids=["width", "stride", "both-2^64", "both-10^30"],
    )
    def test_layout_past_int64_is_a_layout_past_the_range(self, capsys, layout):
        argv = ["check", "--set", "primes", "--limit", "1000", "--lo", "4", "--hi", "1000"]
        code, out, err = run_cli(capsys, *argv, *layout)
        assert code == 0 and err == ""
        _, past, _ = run_cli(capsys, *argv, "--bucket-width", "2000")
        assert json.loads(out)["buckets"] == json.loads(past)["buckets"]

    @pytest.mark.parametrize(
        "flags, message",
        [(["--bucket-width", "2"], "99999999 buckets; the cap is 10000"),
         (["--bucket-width", "3"], "--bucket-width must be a positive even number"),
         (["--sample-stride", "0"], "--sample-stride must be >= 1"),
         (["--workers", "0"], "--workers must be >= 1")],
        ids=["cap", "odd-width", "stride", "workers"],
    )
    def test_layout_refused_before_the_set_is_built(self, capsys, monkeypatch, flags, message):
        def refused(spec):
            raise AssertionError("built the set for a layout that no set can take")

        monkeypatch.setattr(cli, "build", refused)
        code, out, err = run_cli(
            capsys, "check", "--set", "primes", "--limit", "200000000", "--lo", "4", "--hi", "200000000", *flags
        )
        assert code == 2 and out == ""
        assert err.startswith("primesim check: ") and message in err

    def test_element_beyond_int64_is_input_error(self, capsys, tmp_path):
        set_path = tmp_path / "big.txt"
        set_path.write_text("limit=100\n5\n99999999999999999999\n")
        code, _, err = run_cli(
            capsys, "check", "--set", "file", "--path", str(set_path), "--lo", "4", "--hi", "10"
        )
        assert code == 2
        assert "big.txt:3" in err

    def test_unallocatable_limit_header_is_input_error(self, capsys, tmp_path):
        set_path = tmp_path / "big.txt"
        set_path.write_text(f"limit={2**62}\n5\n")
        code, _, err = run_cli(
            capsys, "check", "--set", "file", "--path", str(set_path), "--lo", "4", "--hi", "10"
        )
        assert code == 2
        assert "big.txt:1" in err and "bitset" in err

    def test_limit_header_past_numpy_dimensions_is_input_error(self, capsys, tmp_path):
        set_path = tmp_path / "huge.txt"
        set_path.write_text(f"limit={2**70}\n5\n")
        code, _, err = run_cli(
            capsys, "check", "--set", "file", "--path", str(set_path), "--lo", "4", "--hi", "10"
        )
        assert code == 2
        assert "huge.txt:1" in err and "bitset" in err

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

    def test_c_and_c_from_pmax_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["prob", "--n", "1000", "--c", "2", "--c-from-pmax", "3"])
        assert excinfo.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_n_max_below_n_rejected(self, capsys):
        code, out, err = run_cli(capsys, "prob", "--n", "1000", "--n-max", "500")
        assert code == 2
        assert out == ""
        assert "--n-max 500" in err and "--n 1000" in err

    def test_k_above_filtered_domain_is_an_empty_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "prob", "--n", "6", "--n-max", "24", "--n-step", "2", "--pmax", "3",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(line for line in out.splitlines() if not line.startswith("#")))
        assert [int(r["n"]) for r in rows] == list(range(6, 25, 2))
        assert all(r["ln_P_exact"] == "" for r in rows if int(r["n"]) <= 20)
        assert all(r["log10_f"] != "" for r in rows)

    def test_c_from_pmax_above_cap_rejected(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(primesim.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "primesim", "prob", "--n", "10000",
             "--c-from-pmax", "100000000000000"],
            capture_output=True, text=True, env=env, cwd=tmp_path, check=False,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("primesim prob:")
        assert str(PROB_MAX_C_PMAX) in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_c_from_pmax_at_cap_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "PROB_MAX_C_PMAX", 7)
        argv = ("prob", "--n", "10000", "--c-from-pmax")
        code, out, _ = run_cli(capsys, *argv, "7")
        assert code == 0
        assert json.loads(out)["rows"][0]["damping_c"] == 4.375
        code, out, err = run_cli(capsys, *argv, "8")
        assert code == 2
        assert out == ""
        assert "7" in err

    def test_zero_damping_rejected(self, capsys):
        code, out, err = run_cli(capsys, "prob", "--n", "10000", "--c", "0")
        assert code == 2
        assert out == ""
        assert "damping" in err

    @pytest.mark.parametrize("c", ["nan", "inf", "1e308"])
    def test_damping_that_is_not_finite_or_overflows_rejected(self, capsys, c):
        code, out, err = run_cli(capsys, "prob", "--n", "100", "--c", c)
        assert code == 2
        assert out == ""
        assert "damping coefficient" in err and "ln f(100)" in err

    @pytest.mark.parametrize("step", ["0", "-5"])
    def test_nonpositive_n_step_rejected(self, capsys, step):
        code, out, err = run_cli(
            capsys, "prob", "--n", "1000", "--n-max", "2000", "--n-step", step
        )
        assert code == 2
        assert out == ""
        assert "--n-step" in err

    def test_row_count_capped_before_any_row(self, capsys):
        code, out, err = run_cli(
            capsys, "prob", "--n", "1000", "--n-max", "100000000000", "--n-step", "1"
        )
        assert code == 2
        assert out == ""
        assert str(PROB_MAX_ROWS) in err

    def test_row_count_at_cap_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "PROB_MAX_ROWS", 5)
        argv = ("prob", "--n", "1000", "--n-step", "1000", "--format", "csv", "--n-max")
        code, out, _ = run_cli(capsys, *argv, "5000")
        assert code == 0
        assert len([line for line in out.splitlines() if not line.startswith("#")]) == 6
        code, out, err = run_cli(capsys, *argv, "6000")
        assert code == 2
        assert out == "" and "6 rows; the cap is 5" in err

    def test_n_at_cap_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "PROB_MAX_N", 5000)
        code, out, _ = run_cli(capsys, "prob", "--n", "5000")
        assert code == 0
        assert json.loads(out)["rows"][0]["n"] == 5000
        code, out, err = run_cli(capsys, "prob", "--n", "5001")
        assert code == 2
        assert out == "" and "5001" in err and "cap of 5000" in err

    def test_n_max_at_cap_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "PROB_MAX_N", 5000)
        argv = ("prob", "--n", "1000", "--n-step", "1000", "--n-max")
        # the cap is on the largest row, not on --n-max itself
        code, out, _ = run_cli(capsys, *argv, "5999")
        assert code == 0
        assert [r["n"] for r in json.loads(out)["rows"]] == [1000, 2000, 3000, 4000, 5000]
        code, out, err = run_cli(capsys, *argv, "6000")
        assert code == 2
        assert out == "" and "cap of 5000" in err

    def test_huge_n_rejected(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(primesim.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "primesim", "prob", "--n", "1000000000000000000000"],
            capture_output=True, text=True, env=env, cwd=tmp_path, check=False, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("primesim prob:")
        assert str(PROB_MAX_N) in proc.stderr
        assert "Traceback" not in proc.stderr

class TestTail:
    def test_paper_scale_value(self, capsys):
        code, out, _ = run_cli(capsys, "tail", "--from", "20000")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["log10_tail"] - (-86)) <= 1.0

    def test_too_small(self, capsys):
        code, _, err = run_cli(capsys, "tail", "--from", "50")
        assert code == 2

    @pytest.mark.parametrize("c", ["nan", "inf", "1e308"])
    def test_damping_that_is_not_finite_or_overflows_rejected(self, capsys, c):
        code, out, err = run_cli(capsys, "tail", "--from", "1000", "--c", c)
        assert code == 2
        assert out == ""
        assert "damping coefficient" in err and "ln f(1000)" in err

    def test_from_past_the_largest_float_rejected(self, capsys):
        n = "1" + "0" * 400
        code, out, err = run_cli(capsys, "tail", "--from", n)
        assert code == 2 and out == ""
        assert err.startswith(f"primesim tail: n = {n} is too large")


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
            capsys, "report", "--in", str(table), "--out", str(out_csv)
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
            capsys, "report", "--in", str(report), "--out", str(plot)
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
            capsys, "report", "--in", str(dev), "--out", str(plot)
        )
        assert code == 0
        with open(plot) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(float(r["y"]) <= 2 for r in rows)

    @pytest.mark.parametrize("text", ["5", '{"buckets": [1]}', '["rows"]', '{"series": [1]}'])
    def test_json_that_is_not_a_report(self, capsys, tmp_path, text):
        path = tmp_path / "odd.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "report", "--in", str(path))
        assert code == 2
        assert out == "" and "unrecognized report shape" in err


class TestReportFormats:
    def test_non_finite_values_are_empty(self):
        # no golden report reaches a non-finite value
        assert table_csv([], ("a", "b", "c"), [(float("-inf"), None, float("nan"))]) == "a,b,c\n,,\n"
        assert '"x": null' in document({}, x=float("inf"))


class TestUsageErrors:
    def test_argparse_exit_2_on_bad_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--nonsense"])
        assert excinfo.value.code == 2
        assert "--lo" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["check", "--set", "primes", "--limit", "100", "--lo", "4", "--hi", "100", "--slow"],
         ["report", "--in", "r.json", "--plot-data"]],
        ids=["check-slow", "report-plot-data"],
    )
    def test_flags_without_a_choice_are_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {argv[-1]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "--set", "shifted", "--limit", "100", "--lo", "4", "--hi", "10"], "shifted spec needs --shift"),
            (["check", "--set", "perturbed", "--limit", "100", "--lo", "4", "--hi", "10"], "perturbed spec needs --seed"),
            (["anb", "--set", "primes", "--n", "5"], "primes spec needs --limit"),
            (["gen-set", "--kind", "file", "--out", "x.txt"], "file spec needs --path"),
            (["gen-set", "--kind", "perturbed", "--limit", "100", "--out", "x.txt", "--deviation-report", "d.json"],
             "perturbed spec needs --seed"),
        ],
        ids=["check-shift", "check-seed", "anb-limit", "gen-set-path", "gen-set-report-seed"],
    )
    def test_missing_field_names_the_flag(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"primesim {argv[0]}: {message}\n"
        assert not (tmp_path / "x.txt").exists()

    def test_extra_field_is_named_by_its_flag_or_its_key(self, capsys, tmp_path):
        argv = ["check", "--set", "primes", "--limit", "100", "--shift", "3", "--lo", "4", "--hi", "100"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "primesim check: primes spec takes no --shift\n"
        spec = tmp_path / "set.spec"
        spec.write_text("kind=primes\nlimit=100\nshift_t=3\n")
        assert main(["check", "--set", str(spec), "--lo", "4", "--hi", "100"]) == 2
        assert capsys.readouterr().err == "primesim check: primes spec takes no shift_t\n"

    def test_spec_file_names_the_missing_key(self, capsys, tmp_path):
        spec = tmp_path / "set.spec"
        spec.write_text("kind=shifted\nlimit=100\n")
        assert main(["check", "--set", str(spec), "--lo", "4", "--hi", "10"]) == 2
        assert capsys.readouterr().err == "primesim check: shifted spec needs shift_t\n"

    def test_every_parsed_argument_reaches_the_header(self):
        # a flag that may change a result must be echoed in the report header:
        # as a _HEADER_KEYS key, or as a set flag, which the header's spec holds
        set_flags = {"set", "limit", "seed", "shift", "path"}
        not_the_experiment = {"command", "out", "workers", "deviation_report", "input_path"}
        subcommands = cli.build_parser()._subparsers._group_actions[0].choices
        assert set(subcommands) == set(cli._HEADER_KEYS)
        for name, sub in subcommands.items():
            dests = {action.dest for action in sub._actions if action.dest != "help"}
            keys = set(cli._HEADER_KEYS[name])
            assert dests - keys - set_flags - not_the_experiment == set(), name
            assert keys <= dests, name

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["sieve"],
            ["check", "--set", "primes", "--lo", "4", "--hi", "10"],
            ["gen-set", "--kind", "perturbed", "--seed", "1", "--out", "p.txt"],
        ],
        ids=["sieve", "check", "gen-set"],
    )
    def test_unallocatable_limit_is_an_input_error(self, tmp_path, argv):
        # 2^62 is refused at once, whatever the kernel's overcommit policy
        env = dict(os.environ, PYTHONPATH=str(Path(primesim.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "primesim", *argv, "--limit", str(2**62)],
            capture_output=True, text=True, env=env, cwd=tmp_path, check=False,
        )
        assert proc.returncode == 2
        assert "cannot allocate" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", [["check", "--lo", "4", "--hi", "100"], ["anb", "--n", "10"]],
                             ids=["check", "anb"])
    @pytest.mark.parametrize("shift, message", [(2**62, "cannot allocate"), (10**19, "past 2^63 - 1")],
                             ids=["unallocatable", "past-int64"])
    def test_unbuildable_shifted_set_is_an_input_error(self, tmp_path, command, shift, message):
        env = dict(os.environ, PYTHONPATH=str(Path(primesim.__file__).parents[1]))
        argv = [*command, "--set", "shifted", "--limit", "100", "--shift", str(shift)]
        proc = subprocess.run(
            [sys.executable, "-m", "primesim", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, check=False,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"primesim {command[0]}:") and message in proc.stderr
        assert "Traceback" not in proc.stderr


class TestModuleEntryPoint:
    def test_check_never_imports_the_set_file_reader(self):
        # load_set imports _setfile on first use; a check of an inline set reads no set file
        code = (
            "import sys, primesim; seen = ['primesim._setfile' in sys.modules]; "
            "from primesim import cli; "
            "cli.main(['check', '--set', 'primes', '--limit', '2000', '--lo', '4', '--hi', '2000']); "
            "print(seen + ['primesim._setfile' in sys.modules], file=sys.stderr)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(primesim.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 0 and proc.stderr == "[False, False]\n", proc.stderr

    def test_python_dash_m_runs_main(self, capsys, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(primesim.__file__).parents[1]))
        argv = ["prob", "--n", "10000", "--pmax", "2"]
        proc = subprocess.run(
            [sys.executable, "-m", "primesim", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, check=False,
        )
        code, out, _ = run_cli(capsys, *argv)
        assert proc.returncode == code == 0 and proc.stdout == out
        proc = subprocess.run(
            [sys.executable, "-m", "primesim", "tail", "--from", "50"],
            capture_output=True, text=True, env=env, cwd=tmp_path, check=False,
        )
        assert proc.returncode == 2 and proc.stderr.startswith("primesim tail:")
