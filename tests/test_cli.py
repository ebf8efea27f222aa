"""End-to-end tests for the command-line front end.

Every test drives main() directly with an explicit --cache-dir so nothing
leaks into the working tree.  The cache directory is module-scoped: later
tests reuse scans from earlier ones, which also exercises the cache-hit
path under realistic conditions.
"""

import json
import math
from pathlib import Path

import pytest

from zeropair.characters import character
from zeropair.cli import main, parse_config_file
from zeropair.lfunc import EvalPrecision
from zeropair.paircorr import PairCorrInput, f_q
from zeropair.sieve import psi_character, psi_progression, shared_table
from zeropair.store import read_zero_set
from zeropair.zeros import zeros_for_modulus


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("clicache")


def run(capsys, cache_dir, *args):
    code = main([args[0], "--cache-dir", str(cache_dir), *args[1:]])
    out = capsys.readouterr().out
    return code, out


class TestParsing:
    def test_no_command_returns_2(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self, cache_dir):
        with pytest.raises(SystemExit) as exc:
            main(["psi", "--x", "10", "--bogus"])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_chi_spec(self, capsys, cache_dir):
        code, _ = run(capsys, cache_dir, "psi", "--x", "10", "--chi", "4-3")
        assert code == 2

    def test_gcd_violation_exits_2(self, capsys, cache_dir):
        code, _ = run(capsys, cache_dir, "psi", "--x", "10", "--q", "4", "--a", "2")
        assert code == 2


class TestConfig:
    def test_config_file_parsing(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("threads = 3  # workers\nformat=json\nmesh_step = none\n\n")
        got = parse_config_file(p)
        assert got == {"threads": 3, "format": "json", "mesh_step": None}

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(p)

    def test_bad_line_rejected(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("threads\n")
        with pytest.raises(ValueError, match="expected key = value"):
            parse_config_file(p)

    def test_env_overrides_default(self, capsys, tmp_path, monkeypatch):
        envdir = tmp_path / "fromenv"
        monkeypatch.setenv("ZEROPAIR_CACHE_DIR", str(envdir))
        code = main(["psi", "--x", "10", "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["config"]["cache_dir"] == str(envdir)

    def test_flag_beats_config_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ZEROPAIR_CACHE_DIR", str(tmp_path / "env"))
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(f"cache_dir = {tmp_path / 'filecfg'}\nthreads = 2\n")
        code = main(["psi", "--x", "10", "--config", str(cfgfile),
                     "--cache-dir", str(tmp_path / "flag"), "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["config"]["cache_dir"] == str(tmp_path / "flag")
        assert summary["config"]["threads"] == 2

    def test_bad_config_value_exits_2(self, capsys, tmp_path, cache_dir):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("threads = many\n")
        code, _ = run(capsys, cache_dir, "psi", "--x", "10",
                      "--config", str(cfgfile))
        assert code == 2


class TestZeros:
    def test_modulus_scan_rows(self, capsys, cache_dir):
        code, out = run(capsys, cache_dir, "zeros", "--q", "4", "--T", "40")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("q,index,conductor,inducer,T,count,expected,certified")
        # principal mod 4 rides on the q=1 set, the real character on its own
        assert len(lines) == 3
        assert ",true," in lines[1] and ",true," in lines[2]

    def test_cache_hit_leaves_file_untouched(self, capsys, cache_dir):
        code, out1 = run(capsys, cache_dir, "zeros", "--q", "4", "--T", "40")
        target = cache_dir / "zeros" / "q4" / "chi3_T40.zc"
        before = target.read_bytes()
        code2, out2 = run(capsys, cache_dir, "zeros", "--q", "4", "--T", "40")
        assert (code, code2) == (0, 0)
        assert out1 == out2
        assert target.read_bytes() == before
        # and the stored set round-trips to the scanner's output
        fresh = zeros_for_modulus(4, 40.0)[character(4, 3).label]
        stored = read_zero_set(target)
        assert list(stored.ordinates) == pytest.approx(list(fresh.ordinates), abs=1e-12)

    def test_single_character_scan_is_narrow(self, capsys, tmp_path):
        local = tmp_path / "narrow"
        code, out = run(capsys, local, "zeros", "--chi", "4:3", "--T", "30")
        assert code == 0
        assert (local / "zeros" / "q4" / "chi3_T30.zc").exists()
        assert not (local / "zeros" / "q1").exists()

    def test_force_rescan_is_deterministic(self, capsys, cache_dir):
        _, out1 = run(capsys, cache_dir, "zeros", "--q", "3", "--T", "30")
        _, out2 = run(capsys, cache_dir, "zeros", "--q", "3", "--T", "30", "--force")
        assert out1 == out2

    def test_json_summary_reports_em_parameters(self, capsys, cache_dir):
        code, out = run(capsys, cache_dir, "zeros", "--q", "5", "--T", "30", "--json")
        assert code == 0
        summary = json.loads(out)
        prec = EvalPrecision.for_height(30.0)
        assert summary["em"] == {
            "direct_terms": prec.direct_terms,
            "bernoulli_terms": prec.bernoulli_terms,
            "target_abs_error": prec.target_abs_error,
        }
        assert summary["em"]["direct_terms"] == 15
        assert summary["rows"] and all("em" not in row for row in summary["rows"])
        _, table = run(capsys, cache_dir, "zeros", "--q", "5", "--T", "30")
        assert "em" not in table.splitlines()[0].split(",")

    def test_needs_q_or_chi(self, capsys, cache_dir):
        code, _ = run(capsys, cache_dir, "zeros", "--T", "30")
        assert code == 2

    def test_dry_run_creates_nothing(self, capsys, tmp_path):
        local = tmp_path / "dry"
        code, out = run(capsys, local, "zeros", "--q", "7", "--T", "25", "--dry-run")
        assert code == 0
        assert "dry-run ok" in out
        assert not local.exists()


class TestPsi:
    def test_progression_matches_library(self, capsys, cache_dir):
        code, out = run(capsys, cache_dir, "psi", "--x", "1000.5", "--q", "4", "--a", "1")
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[3])
        expected = psi_progression(1000.5, 4, 1, shared_table(100_000))
        assert value == pytest.approx(expected, rel=1e-15)

    def test_character_mode(self, capsys, cache_dir):
        code, out = run(capsys, cache_dir, "psi", "--x", "500.5", "--chi", "5:2")
        assert code == 0
        parts = out.strip().splitlines()[1].split(",")
        expected = psi_character(500.5, character(5, 2), shared_table(100_000))
        assert float(parts[3]) == pytest.approx(expected.real, rel=1e-12)
        assert float(parts[4]) == pytest.approx(expected.imag, rel=1e-12)

    def test_chi_and_q_conflict(self, capsys, cache_dir):
        code, _ = run(capsys, cache_dir, "psi", "--x", "10", "--q", "4", "--chi", "4:3")
        assert code == 2


class TestPairCorr:
    def test_row_matches_library(self, capsys, cache_dir):
        code, out = run(capsys, cache_dir, "paircorr", "--q", "4", "--a", "1",
                        "--x", "3", "--T", "15")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "q,a,x,T,ReF,ImF,ratio_to_thm15,trivialBoundRatio"
        sets = zeros_for_modulus(4, 15.0)
        res = f_q(PairCorrInput(q=4, a=1, x=3.0, T=15.0, zero_sets=sets))
        cells = row.split(",")
        assert float(cells[4]) == pytest.approx(res.value.real, rel=1e-9)
        assert float(cells[6]) == pytest.approx(res.thm_ratio, rel=1e-9)

    def test_dry_run_touches_no_cache(self, capsys, tmp_path):
        local = tmp_path / "pc"
        code, out = run(capsys, local, "paircorr", "--q", "4", "--x", "3",
                        "--T", "15", "--dry-run")
        assert code == 0
        assert not local.exists()

    def test_x_below_two_rejected(self, capsys, cache_dir):
        code, _ = run(capsys, cache_dir, "paircorr", "--q", "4", "--x", "1.5",
                      "--T", "15")
        assert code == 2


class TestExplicit:
    def test_columns_and_trend(self, capsys, cache_dir):
        code, out = run(capsys, cache_dir, "explicit", "--x", "1000.5",
                        "--Z", "30", "--Z", "100", "--q", "4", "--a", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,Z,q,a,reconstructed,exact,absError,budget"
        errs = [float(line.split(",")[6]) for line in lines[1:]]
        assert len(errs) == 2 and errs[1] < errs[0]

    def test_default_modulus_is_one(self, capsys, cache_dir):
        code, out = run(capsys, cache_dir, "explicit", "--x", "100.5", "--Z", "30")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert (row[2], row[3]) == ("1", "1")


class TestConjectureCommands:
    def test_montgomery_range_and_regimes(self, capsys, cache_dir):
        code, out = run(capsys, cache_dir, "montgomery", "--x", "1000", "--Q", "4")
        assert code == 0
        lines = out.strip().splitlines()
        # q=1 once, q=2 one unit, q=3 two units, q=4 two units
        assert len(lines) == 1 + 6
        assert lines[1].endswith("classical")
        assert lines[2].endswith("below-sqrt")

    def test_montgomery_q_and_Q_conflict(self, capsys, cache_dir):
        code, _ = run(capsys, cache_dir, "montgomery", "--x", "1000",
                      "--Q", "4", "--q", "5")
        assert code == 2

    def test_eh_values_and_monotonicity(self, capsys, cache_dir):
        code, out = run(capsys, cache_dir, "eh", "--x", "2000",
                        "--Q", "1", "--Q", "5", "--Q", "12")
        assert code == 0
        vals = [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        assert vals == sorted(vals)

    def test_weak_alpha_sweep_shape(self, capsys, cache_dir):
        code, out = run(capsys, cache_dir, "weak", "--x", "10000",
                        "--alpha", "0", "--alpha", "1", "--q", "5", "--a", "1")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 2

    def test_weak_alpha_out_of_range(self, capsys, cache_dir):
        code, _ = run(capsys, cache_dir, "weak", "--x", "100",
                      "--alpha", "1.5", "--q", "5")
        assert code == 2

    def test_dyadic_pieces(self, capsys, cache_dir):
        code, out = run(capsys, cache_dir, "dyadic", "--x", "20000", "--q", "5",
                        "--a", "3", "--eps", "0.25")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        pieces = [line.split(",")[5] for line in lines]
        depth = int(lines[0].split(",")[4])
        assert pieces.count("block") == depth
        assert pieces.count("tail") == 1 and pieces.count("total") == 1
        assert pieces[-1] == "total"

    def test_dyadic_modulus_out_of_range(self, capsys, cache_dir):
        code, _ = run(capsys, cache_dir, "dyadic", "--x", "100", "--q", "50",
                      "--a", "1", "--eps", "0.5")
        assert code == 2


class TestCheck:
    def test_integral_default_passes(self, capsys, cache_dir):
        code, out = run(capsys, cache_dir, "check", "--suite", "integral",
                        "--q", "4", "--x", "3", "--T", "15")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_impossible_tolerance_fails_with_3(self, capsys, cache_dir):
        code, out = run(capsys, cache_dir, "check", "--suite", "integral",
                        "--q", "4", "--x", "3", "--T", "15", "--tol", "1e-30")
        assert code == 3
        assert "FAIL" in out

    def test_increment_suite(self, capsys, cache_dir):
        code, out = run(capsys, cache_dir, "check", "--suite", "increment",
                        "--q", "4", "--x", "3", "--U", "15", "--T", "30")
        assert code == 0
        assert "PASS" in out

    def test_increment_needs_u_below_t(self, capsys, cache_dir):
        code, _ = run(capsys, cache_dir, "check", "--suite", "increment",
                      "--U", "30", "--T", "15")
        assert code == 2

    def test_orthogonality_suite(self, capsys, cache_dir):
        code, out = run(capsys, cache_dir, "check", "--suite", "orthogonality",
                        "--q", "12", "--a", "7", "--x", "2000.5")
        assert code == 0
        assert "PASS" in out

    def test_reconstruction_suite(self, capsys, cache_dir):
        code, out = run(capsys, cache_dir, "check", "--suite", "reconstruction",
                        "--q", "4", "--x", "1000.5", "--Z", "30", "--Z", "100")
        assert code == 0
        assert "PASS" in out

    def test_json_summary_carries_rows(self, capsys, cache_dir):
        code = main(["check", "--suite", "orthogonality", "--q", "4",
                     "--x", "1000.5", "--cache-dir", str(cache_dir), "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"] is True
        assert summary["rows"][0]["passed"] is True


class TestOutputPlumbing:
    def test_out_file_matches_stdout(self, capsys, cache_dir, tmp_path):
        _, streamed = run(capsys, cache_dir, "psi", "--x", "300.5")
        dest = tmp_path / "psi.csv"
        code = main(["psi", "--x", "300.5", "--cache-dir", str(cache_dir),
                     "--out", str(dest)])
        capsys.readouterr()
        assert code == 0
        assert dest.read_text() == streamed

    def test_json_format_table(self, capsys, cache_dir):
        code = main(["psi", "--x", "10", "--format", "json",
                     "--cache-dir", str(cache_dir)])
        out = capsys.readouterr().out
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["psi"] == pytest.approx(
            psi_progression(10.0, 1, 1, shared_table(100_000)))

    def test_json_summary_shape(self, capsys, cache_dir):
        code = main(["eh", "--x", "2000", "--Q", "5",
                     "--cache-dir", str(cache_dir), "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["command"] == "eh"
        assert summary["ok"] is True
        assert summary["rows"][0]["Q"] == 5

    def test_every_subcommand_has_dry_run(self, capsys, cache_dir):
        calls = [
            ["zeros", "--q", "3", "--T", "20"],
            ["psi", "--x", "10"],
            ["paircorr", "--x", "3", "--T", "15"],
            ["explicit", "--x", "100.5", "--Z", "20"],
            ["montgomery", "--x", "100", "--Q", "3"],
            ["eh", "--x", "100", "--Q", "3"],
            ["weak", "--x", "100", "--alpha", "0.5", "--q", "3"],
            ["dyadic", "--x", "100", "--q", "3", "--a", "1"],
            ["check", "--suite", "integral"],
            ["report"],
        ]
        for argv in calls:
            code, out = run(capsys, cache_dir, *argv, "--dry-run")
            assert code == 0, argv
            assert "dry-run ok" in out, argv


class TestReport:
    EXPECTED = [
        "zeta_ratio_T100.csv", "thm_ratio.csv", "gue_histogram_q1_T100.csv",
        "montgomery.csv", "eh.csv", "weak.csv", "dyadic.csv", "manifest.json",
    ]

    def test_bundle_contents_and_determinism(self, capsys, cache_dir, tmp_path):
        first = tmp_path / "b1"
        second = tmp_path / "b2"
        code1 = main(["report", "--cache-dir", str(cache_dir), "--out", str(first)])
        code2 = main(["report", "--cache-dir", str(cache_dir), "--out", str(second)])
        capsys.readouterr()
        assert (code1, code2) == (0, 0)
        for name in self.EXPECTED:
            assert (first / name).exists(), name
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        manifest = json.loads((first / "manifest.json").read_text())
        data_files = [n for n in self.EXPECTED if n != "manifest.json"]
        assert sorted(manifest["files"]) == sorted(data_files)
        eh_lines = (first / "eh.csv").read_text().strip().splitlines()
        assert eh_lines[0] == "x,Q,value,valueOverX"
        hist_lines = (first / "gue_histogram_q1_T100.csv").read_text().splitlines()
        assert len(hist_lines) == 1 + 30
