import errno
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from cyclodet import classno, detkit
from cyclodet.cli import (
    exit_code_for,
    main,
    reports_to_csv,
    reports_to_json,
)


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_content(out: str) -> list[dict]:
    """The reports of a `verify` JSON output without their timings."""
    return [{k: v for k, v in r.items() if k != "timings_ms"} for r in json.loads(out)]


class TestVerifyCommand:
    def test_small_range_json(self, capsys):
        code, out, _ = run_main(
            capsys, "verify", "--pmin", "5", "--pmax", "7", "--threads", "1"
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["p"] for r in reports] == [5, 7]
        for r in reports:
            assert all(c["pass"] for c in r["checks"].values())
            assert set(r["dets"]) == {"S", "T", "SD", "C", "D"}

    def test_report_schema(self, capsys):
        code, out, _ = run_main(
            capsys, "verify", "--pmin", "5", "--pmax", "5", "--threads", "1",
            "--delta", "2",
        )
        assert code == 0
        (report,) = json.loads(out)
        assert report["delta"] == 2
        assert report["dets"]["T"] == "-4"
        assert report["dets"]["SD"] == "0"
        assert report["decomp"]["alpha"] == "0"
        assert report["class"]["h_pos"] == 1
        assert report["class"]["eps_t"] == "1"
        # rationals serialized as exact strings
        assert isinstance(report["dets"]["D"], list)

    def test_empty_range(self, capsys):
        code, out, _ = run_main(capsys, "verify", "--pmin", "4", "--pmax", "4")
        assert code == 0
        assert json.loads(out) == []

    def test_usage_error_reversed_range(self, capsys):
        code, _, err = run_main(capsys, "verify", "--pmin", "10", "--pmax", "5")
        assert code == 1
        assert "pmin" in err

    def test_bad_delta(self, capsys):
        code, _, err = run_main(
            capsys, "verify", "--pmin", "5", "--pmax", "5", "--delta", "abc"
        )
        assert code == 1

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_sweep_count_must_be_positive(self, capsys, count):
        code, out, err = run_main(
            capsys, "verify", "--pmin", "13", "--pmax", "13", "--delta", f"sweep:{count}"
        )
        assert code == 1 and out == ""
        assert f"sweep:{count}" in err

    def test_out_file_and_csv(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run_main(
            capsys, "verify", "--pmin", "5", "--pmax", "7", "--threads", "1",
            "--format", "csv", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "p"
        assert len(lines) == 3  # header + two primes
        assert "pass" in lines[1]

    def test_exit_code_mapping(self):
        good = [{"checks": {"a": {"status": "pass"}}}]
        bad = [{"checks": {"a": {"status": "pass"}, "b": {"status": "fail"}}}]
        skipped = [{"checks": {"a": {"status": "skipped"}}}]
        assert exit_code_for(good) == 0
        assert exit_code_for(bad) == 2
        assert exit_code_for(skipped) == 0


class TestCache:
    def test_cache_hit_is_byte_identical(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = (
            "verify", "--pmin", "5", "--pmax", "5", "--threads", "1",
            "--cache-dir", str(cache),
        )
        code1, out1, _ = run_main(capsys, *args)
        files = list(cache.glob("*.json"))
        assert code1 == 0 and len(files) == 1
        code2, out2, _ = run_main(capsys, *args)
        assert code2 == 0
        assert out1 == out2

    def test_cache_env_var_default(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("CYCLODET_CACHE_DIR", str(cache))
        code, _, _ = run_main(capsys, "verify", "--pmin", "5", "--pmax", "5",
                              "--threads", "1")
        assert code == 0
        assert list(cache.glob("p5-*.json"))

    def test_cold_parallel_and_warm_runs_match_uncached_serial(self, capsys, tmp_path):
        base = ("verify", "--pmin", "5", "--pmax", "13")
        _, serial, _ = run_main(capsys, *base, "--threads", "1")
        cached = (*base, "--threads", "2", "--cache-dir", str(tmp_path / "cache"))
        code_cold, cold, _ = run_main(capsys, *cached)
        assert len(list((tmp_path / "cache").glob("p*-*.json"))) == 4
        code_warm, warm, _ = run_main(capsys, *cached)
        assert code_cold == code_warm == 0
        assert report_content(cold) == report_content(serial)
        assert warm == cold

    @pytest.mark.parametrize("damage", ["empty", "truncated", "other prime",
                                        "check without fields", "check without sides"])
    def test_bad_entry_is_recomputed_and_rewritten(self, capsys, tmp_path, damage):
        cache = tmp_path / "cache"
        args = ("verify", "--pmin", "5", "--pmax", "7", "--threads", "1",
                "--cache-dir", str(cache))
        _, first, _ = run_main(capsys, *args)
        (entry,) = cache.glob("p5-*.json")
        good = entry.read_text()
        bad = {
            "empty": "",
            "truncated": good[: len(good) // 2],
            "other prime": next(cache.glob("p7-*.json")).read_text(),
            "check without fields": '{"p": 5, "checks": {"gauss_square": {}}}',
            "check without sides": '{"p": 5, "checks": {"gauss_square": {"status": "pass"}}}',
        }[damage]
        entry.write_text(bad)
        code, again, _ = run_main(capsys, *args)
        assert code == 0
        assert json.loads(entry.read_text())["p"] == 5
        assert report_content(again) == report_content(first)
        assert sorted(f.name[:3] for f in cache.iterdir()) == ["p5-", "p7-"]

    @pytest.mark.parametrize("via", ["option", "env"])
    def test_unusable_cache_dir_is_a_usage_error(self, capsys, tmp_path, monkeypatch, via):
        taken = tmp_path / "a-file"
        taken.write_text("")
        args = ["verify", "--pmin", "5", "--pmax", "5", "--threads", "1"]
        if via == "option":
            args += ["--cache-dir", str(taken)]
        else:
            monkeypatch.setenv("CYCLODET_CACHE_DIR", str(taken))
        code, out, err = run_main(capsys, *args)
        assert code == 1 and out == ""
        assert err.startswith("error: cannot use cache dir")

    @pytest.mark.parametrize("module, name", [(os, "replace"), (tempfile, "mkstemp")])
    def test_unwritable_entry_warns_and_keeps_the_reports(
        self, capsys, tmp_path, monkeypatch, module, name
    ):
        """A full disk costs one warning per entry: the output and exit code are
        those of an uncached run, and no temp file is left behind."""
        base = ("verify", "--pmin", "5", "--pmax", "7", "--threads", "1")
        _, uncached, _ = run_main(capsys, *base)

        def full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(module, name, full)
        cache, out = tmp_path / "cache", tmp_path / "reports.json"
        code, stdout, err = run_main(capsys, *base, "--cache-dir", str(cache), "--out", str(out))
        assert code == 0 and stdout == ""
        assert report_content(out.read_text()) == report_content(uncached)
        pattern = rf"warning: cannot write cache entry {re.escape(str(cache))}/p(\d+)-\w+\.json: .+"
        warned = [re.fullmatch(pattern, line) for line in err.splitlines()]
        assert [m and m[1] for m in warned] == ["5", "7"]
        assert list(cache.iterdir()) == []

    def test_cache_key_includes_delta_mode(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        run_main(capsys, "verify", "--pmin", "5", "--pmax", "5", "--threads", "1",
                 "--cache-dir", str(cache))
        run_main(capsys, "verify", "--pmin", "5", "--pmax", "5", "--threads", "1",
                 "--delta", "3", "--cache-dir", str(cache))
        assert len(list(cache.glob("*.json"))) == 2

    def test_cache_key_includes_backend(self, capsys, tmp_path):
        """Entries of a modular-only run are not served to a default run."""
        base = ("verify", "--pmin", "5", "--pmax", "7", "--threads", "1")
        cached = (*base, "--cache-dir", str(tmp_path / "cache"))
        run_main(capsys, *cached, "--backend", "modular")
        code, out, _ = run_main(capsys, *cached)
        _, uncached, _ = run_main(capsys, *base)
        assert code == 0
        assert report_content(out) == report_content(uncached)
        assert len(list((tmp_path / "cache").glob("p*-*.json"))) == 4


class TestDetCommand:
    def test_det_S7(self, capsys):
        code, out, _ = run_main(capsys, "det", "--family", "S", "--p", "7")
        assert code == 0
        assert "det[S(7)] = -4" in out

    def test_det_SD_vanishes(self, capsys):
        code, out, _ = run_main(
            capsys, "det", "--family", "SD", "--p", "5", "--delta", "2"
        )
        assert code == 0
        assert "= 0" in out

    def test_det_C3(self, capsys):
        code, out, _ = run_main(capsys, "det", "--family", "C", "--p", "3")
        assert code == 0
        assert "det[C(3)] = 1" in out

    def test_det_D7_with_decomposition(self, capsys):
        code, out, _ = run_main(capsys, "det", "--family", "D", "--p", "7")
        assert code == 0
        assert "quad: 7/2 + 7/2*g" in out

    def test_det_D5_quartic(self, capsys):
        code, out, _ = run_main(capsys, "det", "--family", "D", "--p", "5")
        assert code == 0
        assert "quartic:" in out and "delta_sign=1" in out

    def test_missing_delta(self, capsys):
        code, _, err = run_main(capsys, "det", "--family", "T", "--p", "5")
        assert code == 1 and "delta" in err

    def test_unwanted_delta(self, capsys):
        code, _, err = run_main(
            capsys, "det", "--family", "S", "--p", "7", "--delta", "2"
        )
        assert code == 1

    def test_residue_delta_rejected(self, capsys):
        code, _, err = run_main(
            capsys, "det", "--family", "T", "--p", "5", "--delta", "4"
        )
        assert code == 1 and "non-residue" in err

    def test_composite_p(self, capsys):
        code, _, err = run_main(capsys, "det", "--family", "S", "--p", "15")
        assert code == 1

    @pytest.mark.parametrize("family, backend, shown", [
        ("S", "det_int_modular", "det[S(7)]: bareiss = -4 but modular = -3"),
        ("D", "det_cyc_evalinterp", "det[D(7)]: bareiss = "),
    ])
    def test_backend_disagreement_exits_2(self, capsys, monkeypatch, family, backend, shown):
        """A failed cross-check is a failed check: both values on stderr, exit 2."""
        real = getattr(detkit, backend)
        monkeypatch.setattr(detkit, backend, lambda m, stats=None: real(m, stats) + 1)
        code, out, err = run_main(capsys, "det", "--family", family, "--p", "7")
        assert code == 2 and out == ""
        assert shown in err and " but modular = " in err


class TestClassnoCommand:
    def test_negative_discriminant(self, capsys):
        code, out, _ = run_main(capsys, "classno", "--p", "23")
        assert code == 0
        assert "h(-23) = 3" in out

    def test_positive_discriminant(self, capsys):
        code, out, _ = run_main(capsys, "classno", "--p", "5")
        assert code == 0
        assert "h(5) = 1" in out
        assert "eps_5 = (1 + 1*sqrt(5))/2" in out

    @pytest.mark.parametrize("p,t,u", [
        (313, 253724736, 14341370),
        (337, 2031654672, 110671282),
        (409, 223843593936, 11068353370),
    ])
    def test_units_past_the_old_search_cap(self, capsys, p, t, u):
        # u >= 10^7: a brute-force search over u below 10^7 found none of these
        code, out, _ = run_main(capsys, "classno", "--p", str(p))
        assert code == 0
        assert out == f"h({p}) = 1\neps_{p} = ({t} + {u}*sqrt({p}))/2\n"
        assert t * t - p * u * u == -4

    def test_unresolved_product_formula_exits_2(self, capsys, monkeypatch):
        real = classno.squares_product(13)
        monkeypatch.setattr(classno, "squares_product", lambda p: 2 * real)
        code, out, err = run_main(capsys, "classno", "--p", "13")
        assert code == 2 and out == ""
        assert err == "error: the product formula did not resolve h(13)\n"

    def test_composite(self, capsys):
        code, _, err = run_main(capsys, "classno", "--p", "9")
        assert code == 1

    def test_fundamental_unit_searched_once(self, capsys, count_calls):
        calls = count_calls(classno.fundamental_unit)
        code, out, _ = run_main(capsys, "classno", "--p", "29")
        assert code == 0
        assert out == "h(29) = 1\neps_29 = (5 + 1*sqrt(29))/2\n"
        assert calls == [29]


class TestJsonHelpers:
    def test_round_trip(self, capsys):
        code, out, _ = run_main(
            capsys, "verify", "--pmin", "7", "--pmax", "7", "--threads", "1"
        )
        dicts = json.loads(out)
        assert reports_to_json(dicts) == out

    def test_csv_grid(self):
        dicts = [
            {"p": 5, "residue8": 5, "checks": {"x": {"status": "pass"}}},
            {"p": 7, "residue8": 7, "checks": {"y": {"status": "fail"}}},
        ]
        csv_text = reports_to_csv(dicts)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "p,residue8,x,y"
        assert lines[1] == "5,5,pass,"
        assert lines[2] == "7,7,,fail"


class TestEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cyclodet", "det", "--family", "S", "--p", "7"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "det[S(7)] = -4" in proc.stdout
