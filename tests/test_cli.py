"""End-to-end tests for the command-line front end.

Every test drives main() directly with an explicit --cache-dir so nothing
leaks into the working tree.  The cache directory is module-scoped: later
tests reuse scans from earlier ones, which also exercises the cache-hit
path under realistic conditions.
"""

import argparse
import hashlib
import io
import json
import math
import struct
import zlib
from dataclasses import replace

import pytest

from zeropair import cli, sieve, zeros
from zeropair.characters import character, enumerate_characters
from zeropair.cli import build_parser, main, parse_config_file
from zeropair.lfunc import (
    EvalPrecision,
    PrecisionError,
    RealnessError,
    mesh_interpolation,
)
from zeropair.paircorr import f_q
from zeropair.sieve import MAX_X, LambdaTable, psi_character, psi_progression
from zeropair.store import TABLE_FORMATS, emit_table, read_zero_set, write_zero_set
from zeropair.zeros import DEFAULT_MESH_STEP, zeros_for_modulus


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("clicache")


def run(capsys, cache_dir, *args):
    code = main([args[0], "--cache-dir", str(cache_dir), *args[1:]])
    out = capsys.readouterr().out
    return code, out


# One row per input rule of every command: each exits 2 with nothing on
# stdout, with and without --dry-run, so a rule that a handler drops or that
# only the run applies fails here.
REJECTED = [
    ["check", "--suite", "reconstruction", "--x", "10", "--Z", "30", "--Z", "100"],
    ["check", "--suite", "reconstruction", "--Z", "1", "--Z", "30"],
    ["check", "--suite", "integral", "--x", "1"],
    ["check", "--suite", "integral", "--T", "-5"],
    ["check", "--suite", "increment", "--U", "-2", "--T", "15"],
    ["check", "--suite", "increment", "--x", "0"],
    ["check", "--suite", "orthogonality", "--x", "-3"],
    # a flag the suite does not read: its grid flags are its default grid's keys
    ["check", "--suite", "orthogonality", "--q", "4", "--T", "15", "--Z", "3", "--U", "1"],
    ["check", "--suite", "orthogonality", "--U", "1"],
    ["check", "--suite", "orthogonality", "--Z", "3"],
    ["check", "--suite", "integral", "--U", "5"],
    ["check", "--suite", "increment", "--Z", "30"],
    ["check", "--suite", "reconstruction", "--T", "15"],
    ["check", "--suite", "reconstruction", "--tol", "1e-30"],
    ["montgomery", "--x", "100", "--Q", "0"],
    ["montgomery", "--x", "100", "--Q", "5", "--q", "3"],
    ["montgomery", "--x", "1", "--q", "3"],
    ["weak", "--x", "100", "--alpha", "1.5", "--q", "3"],
    ["weak", "--x", "100", "--alpha", "0.5", "--q", "4", "--a", "2"],
    ["eh", "--x", "100", "--Q", "100"],
    ["eh", "--x", "100", "--Q", "0"],
    ["dyadic", "--x", "1000", "--q", "3", "--eps", "1"],
    ["dyadic", "--x", "1000", "--q", "101", "--eps", "0.5"],
    ["dyadic", "--x", "1", "--q", "1"],
    ["explicit", "--x", "100", "--Z", "200"],
    ["explicit", "--x", "100", "--Z", "1"],
    ["paircorr", "--x", "1.5", "--T", "10"],
    ["paircorr", "--x", "3", "--T", "0"],
    ["paircorr", "--x", "3", "--T", "10", "--q", "4", "--a", "2"],
    ["zeros", "--q", "4", "--T", "0"],
    ["zeros", "--q", "0", "--T", "5"],
    ["zeros", "--chi", "4:2", "--T", "5"],
    ["psi", "--x", "0"],
    ["psi", "--x", "10", "--chi", "3:2", "--a", "1"],
    # a modulus beyond characters.MAX_MODULUS
    ["psi", "--x", "10", "--chi", "1000003:2"],
    ["paircorr", "--q", "1000003", "--x", "3", "--T", "5"],
    ["explicit", "--q", "1000003", "--x", "100", "--Z", "20"],
    ["check", "--suite", "integral", "--q", "1000003"],
    ["check", "--suite", "orthogonality", "--q", "1000003"],
]


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

    def test_deterministic_key_is_unknown(self, capsys, tmp_path, cache_dir):
        # the attestation key had no effect and is gone; the manifest keeps
        # recording "deterministic": true as a constant
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("deterministic = true\n")
        code = main(["psi", "--x", "10", "--config", str(cfgfile),
                     "--cache-dir", str(cache_dir)])
        assert code == 2
        assert "unknown key 'deterministic'" in capsys.readouterr().err
        assert main(["psi", "--x", "10", "--cache-dir", str(cache_dir), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["deterministic"] is True

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


class TestConfigValidation:
    """Every config-file setting is checked before any work, so a dry run
    rejects what a run rejects and an invalid run writes no cache file."""

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("argv", [
        ["zeros", "--q", "4", "--T", "10"],
        ["paircorr", "--q", "4", "--x", "3", "--T", "10"],
    ])
    @pytest.mark.parametrize("settings", [
        "tolerance = nan", "tolerance = nan\nmesh_step = inf", "tolerance = 0.3",
        "tolerance = 0", "mesh_step = 0.6", "mesh_step = nan", "rel_tol = 1",
        "rel_tol = nan", "threads = 0", "format = xml",
    ])
    def test_exits_2_and_writes_nothing(self, capsys, tmp_path, settings, argv, dry_run):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(settings + "\n")
        cache = tmp_path / "cache"
        code = main([*argv, "--config", str(cfgfile), "--cache-dir", str(cache),
                     *(["--dry-run"] if dry_run else [])])
        assert (code, capsys.readouterr().out) == (2, "")
        assert not cache.exists() or not any(cache.rglob("*.zc"))


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
            "bernoulli_terms": 12,
            "target_abs_error": 1e-12,
        }
        assert summary["em"]["direct_terms"] == 15
        assert summary["rows"] and all("em" not in row for row in summary["rows"])
        _, table = run(capsys, cache_dir, "zeros", "--q", "5", "--T", "30")
        assert "em" not in table.splitlines()[0].split(",")

    def test_json_summary_reports_interpolation_order_also_from_the_cache(self, capsys, tmp_path):
        argv = ["zeros", "--q", "5", "--T", "30", "--json", "--cache-dir", str(tmp_path)]
        summaries = []
        for _ in range(2):  # a scan, then a run served from the cache
            assert main(argv) == 0
            summaries.append(json.loads(capsys.readouterr().out))
        prec = EvalPrecision.for_height(30.0)
        plan = mesh_interpolation(5, 30.0, DEFAULT_MESH_STEP, prec)
        want = {"order": plan.order, "truncation_bound": plan.truncation,
                "target": 1e-12}
        assert summaries[0]["interp"] == summaries[1]["interp"] == want
        assert plan.truncation <= want["target"]
        assert all("interp" not in row for row in summaries[0]["rows"])

    def test_json_summary_plans_the_interpolation_once_per_inducer_modulus(
            self, capsys, tmp_path, monkeypatch):
        moduli = []

        def counting(q, *args):
            moduli.append(q)
            return mesh_interpolation(q, *args)

        monkeypatch.setattr(cli, "mesh_interpolation", counting)
        assert run(capsys, tmp_path, "zeros", "--q", "24", "--T", "30", "--json")[0] == 0
        # eight characters mod 24, induced from moduli 1, 3, 4, 8, 12 and 24
        assert sorted(moduli) == [1, 3, 4, 8, 12, 24]

    def test_mesh_too_coarse_to_interpolate_exits_3(self, capsys, tmp_path):
        config = tmp_path / "coarse.cfg"
        config.write_text("mesh_step = 0.5\n")
        code = main(["zeros", "--chi", "1:1", "--T", "1000", "--config", str(config),
                     "--cache-dir", str(tmp_path)])
        assert code == 3
        assert "too coarse to interpolate" in capsys.readouterr().err

    def test_interpolation_below_its_order_exits_3(self, capsys, tmp_path, monkeypatch):
        def low(*args):
            return replace(mesh_interpolation(*args), order=2)

        monkeypatch.setattr("zeropair.lfunc.mesh_interpolation", low)
        code = main(["zeros", "--chi", "5:2", "--T", "30", "--cache-dir", str(tmp_path)])
        assert code == 3
        assert "mesh interpolation truncation bound" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [PrecisionError, RealnessError])
    def test_numeric_budget_failure_exits_3(self, capsys, tmp_path, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error("remainder bound above target")

        monkeypatch.setattr("zeropair.zeros.scan_zeros", fail)
        code = main(["zeros", "--q", "5", "--T", "10", "--cache-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "certification failure: remainder bound above target\n"

    def test_one_character_writes_its_conjugate_pair(self, capsys, tmp_path, monkeypatch):
        cold, warm = tmp_path / "cold", tmp_path / "warm"
        assert run(capsys, cold, "zeros", "--q", "5", "--T", "10")[0] == 0
        assert run(capsys, warm, "zeros", "--chi", "5:3", "--T", "10")[0] == 0
        q5 = warm / "zeros" / "q5"
        assert sorted(p.name for p in q5.iterdir()) == ["chi2_T10.zc", "chi3_T10.zc"]
        for label in ("5:1", "5:4"):
            assert run(capsys, warm, "zeros", "--chi", label, "--T", "10")[0] == 0

        def no_scan(*args, **kwargs):
            raise AssertionError("every set of q = 5 is cached")

        monkeypatch.setattr(zeros, "scan_zeros", no_scan)
        assert run(capsys, warm, "zeros", "--q", "5", "--T", "10")[0] == 0
        files = sorted(p.relative_to(cold) for p in cold.rglob("*.zc"))
        assert files == sorted(p.relative_to(warm) for p in warm.rglob("*.zc"))
        for rel in files:
            assert (cold / rel).read_bytes() == (warm / rel).read_bytes(), rel

    @pytest.mark.parametrize("defect", ["deleted", "stale"])
    def test_a_bad_conjugate_file_rescans_the_pair_once(self, capsys, tmp_path, monkeypatch,
                                                        defect):
        assert run(capsys, tmp_path, "zeros", "--q", "5", "--T", "10")[0] == 0
        q5 = tmp_path / "zeros" / "q5"
        rep, conj = q5 / "chi2_T10.zc", q5 / "chi3_T10.zc"
        before = {p: p.read_bytes() for p in (rep, conj)}
        inode = rep.stat().st_ino
        if defect == "deleted":
            conj.unlink()
        else:
            write_zero_set(conj, replace(read_zero_set(conj), mesh_step=0.01))
        scan = zeros.scan_zeros
        scanned = []

        def recording(chi, T, **kwargs):
            scanned.append(str(chi.label))
            return scan(chi, T, **kwargs)

        monkeypatch.setattr(zeros, "scan_zeros", recording)
        assert run(capsys, tmp_path, "zeros", "--q", "5", "--T", "10")[0] == 0
        assert scanned == ["5:2"]
        assert rep.stat().st_ino != inode  # rewritten, to the same bytes
        assert {p: p.read_bytes() for p in (rep, conj)} == before

    @pytest.mark.parametrize("offset, code, value", [
        (18, "<B", 5), (19, "<B", 7), (20, "<16s", b"\xff"), (60, "<d", math.nan), (60, "<d", -3.0),
    ], ids=["parity", "certified", "branch", "expected-nan", "expected-negative"])
    def test_a_header_field_outside_its_rule_exits_3(self, capsys, tmp_path, offset, code, value):
        # 5:4 is real, its own conjugate pair, so no mirror check compares its
        # header with another file's
        assert run(capsys, tmp_path, "zeros", "--q", "5", "--T", "20")[0] == 0
        path = tmp_path / "zeros" / "q5" / "chi4_T20.zc"
        raw = bytearray(path.read_bytes())
        struct.pack_into(code, raw, offset, value)
        raw[-4:] = zlib.crc32(bytes(raw[:-4])).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        assert main(["zeros", "--q", "5", "--T", "20", "--cache-dir", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("certification failure: ")

    @pytest.mark.parametrize("q", [5, 12])
    def test_chi_rows_equal_the_modulus_rows(self, capsys, tmp_path, q):
        chars = [str(chi.label) for chi in enumerate_characters(q)]
        by_chi = []
        for label in chars:  # cold for the first member of each pair, warm after
            code, out = run(capsys, tmp_path, "zeros", "--chi", label, "--T", "20", "--json")
            assert code == 0
            by_chi.extend(json.loads(out)["rows"])
        code, out = run(capsys, tmp_path, "zeros", "--q", str(q), "--T", "20", "--json")
        assert code == 0
        assert by_chi == json.loads(out)["rows"]
        assert [f"{row['q']}:{row['index']}" for row in by_chi] == chars

    @pytest.mark.parametrize("argv", [["zeros", "--q", "5"], ["paircorr", "--x", "3"]])
    @pytest.mark.parametrize("T", ["5e12", "1e300"])
    def test_height_beyond_the_evaluator_exits_3(self, capsys, tmp_path, argv, T):
        code = main([*argv, "--T", T, "--cache-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("certification failure: the remainder bound overflows")

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_a_tolerance_the_dry_run_accepts_the_run_accepts(self, capsys, tmp_path, dry_run):
        # the automatic mesh step is 0.05 at every height; the run then fails
        # only at the evaluator's height limit, which no dry run predicts
        config = tmp_path / "tol.cfg"
        config.write_text("tolerance = 0.0499\n")
        local = tmp_path / "cache"
        code = main(["zeros", "--chi", "5:2", "--T", "1e13", "--config", str(config),
                     "--cache-dir", str(local), *(["--dry-run"] if dry_run else [])])
        captured = capsys.readouterr()
        if dry_run:
            assert code == 0 and "dry-run ok" in captured.out
        else:
            assert (code, captured.out) == (3, "")
            assert captured.err.startswith("certification failure: the remainder bound overflows")
        assert not local.exists()

    def test_mesh_over_the_element_budget_exits_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("zeropair.lfunc._ARRAY_ELEMENTS", 1000)
        code = main(["zeros", "--q", "5", "--T", "30", "--cache-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert "the mesh of q=5 to T=30 needs 2,488 array elements > 1,000" in captured.err
        assert not (tmp_path / "zeros" / "q5").exists()  # q = 1 fits and is scanned first

    def test_needs_q_or_chi(self, capsys, cache_dir):
        code, _ = run(capsys, cache_dir, "zeros", "--T", "30")
        assert code == 2

    def test_dry_run_creates_nothing(self, capsys, tmp_path):
        local = tmp_path / "dry"
        code, out = run(capsys, local, "zeros", "--q", "7", "--T", "25", "--dry-run")
        assert code == 0
        assert "dry-run ok" in out
        assert not local.exists()

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_chi_excludes_q(self, capsys, tmp_path, dry_run):
        local = tmp_path / "both"
        code = main(["zeros", "--q", "5", "--chi", "3:2", "--T", "10", "--cache-dir", str(local),
                     *(["--dry-run"] if dry_run else [])])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "--chi excludes --q" in captured.err
        assert not local.exists()


class TestPsi:
    def test_progression_matches_library(self, capsys, cache_dir):
        code, out = run(capsys, cache_dir, "psi", "--x", "1000.5", "--q", "4", "--a", "1")
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[3])
        expected = psi_progression(1000.5, 4, 1)
        assert value == pytest.approx(expected, rel=1e-15)

    def test_character_mode(self, capsys, cache_dir):
        code, out = run(capsys, cache_dir, "psi", "--x", "500.5", "--chi", "5:2")
        assert code == 0
        parts = out.strip().splitlines()[1].split(",")
        expected = psi_character(500.5, character(5, 2))
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
        res = f_q(4, 1, 3.0, 15.0, sets)
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

    def test_unit_height_has_no_trivial_ratio(self, capsys, cache_dir):
        # at qT = 1 the ceiling T (phi(q) log qT)^2 is 0
        code, out = run(capsys, cache_dir, "paircorr", "--q", "1", "--x", "3", "--T", "1")
        assert code == 0
        header, row = out.strip().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["trivialBoundRatio"] == "nan"
        code, out = run(capsys, cache_dir, "check", "--suite", "integral",
                        "--q", "1", "--x", "3", "--T", "1")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out


class TestExplicit:
    def test_columns_and_trend(self, capsys, cache_dir):
        code, out = run(capsys, cache_dir, "explicit", "--x", "1000.5",
                        "--Z", "30", "--Z", "100", "--q", "4", "--a", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,Z,q,a,reconstructed,exact,absError,budget"
        errs = [float(line.split(",")[6]) for line in lines[1:]]
        assert len(errs) == 2 and errs[1] < errs[0]

    def test_a_real_set_that_is_not_symmetric_exits_3(self, capsys, tmp_path):
        # 5:4 is real, its own conjugate, so the cache loads its file alone
        argv = ["explicit", "--q", "5", "--x", "1000.5", "--Z", "30"]
        assert run(capsys, tmp_path, *argv)[0] == 0
        path = tmp_path / "zeros" / "q5" / "chi4_T30.zc"
        raw = bytearray(path.read_bytes())
        top = len(raw) - 12  # the largest ordinate, just before the checksum
        struct.pack_into("<d", raw, top, struct.unpack_from("<d", raw, top)[0] - 1e-9)
        raw[-4:] = zlib.crc32(bytes(raw[:-4])).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        assert read_zero_set(path).certified
        assert main([argv[0], "--cache-dir", str(tmp_path), *argv[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("certification failure: ")

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

    def test_json_format_prints_the_rows_alone(self, capsys, cache_dir):
        code, out = run(capsys, cache_dir, "check", "--suite", "orthogonality",
                        "--q", "4", "--q", "5", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [(r["q"], r["passed"]) for r in rows] == [(4, True), (5, True)]
        code, out = run(capsys, cache_dir, "check", "--suite", "orthogonality",
                        "--q", "5", "--x", "1000000", "--tol", "1e-30", "--format", "json")
        assert code == 3
        assert [r["passed"] for r in json.loads(out)] == [False]

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, cache_dir, tol):
        for extra in ((), ("--dry-run",)):
            code, out = run(capsys, cache_dir, "check", "--suite", "orthogonality",
                            "--q", "4", "--tol", tol, *extra)
            assert code == 2
            assert out == ""

    # the table covers every command; it stays in this class, where it began
    # with the check rows, so that the ids of those rows stay the same
    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("argv", REJECTED)
    def test_dry_run_rejects_what_the_run_rejects(self, capsys, cache_dir, argv, dry_run):
        code, out = run(capsys, cache_dir, *argv, *(["--dry-run"] if dry_run else []))
        assert (code, out) == (2, "")


class TestNonFiniteNumbers:
    """inf and nan on any float flag are invalid input: exit 2, nothing on stdout."""

    ARGS = {
        "zeros": ["zeros", "--q", "4", "--T={v}"],
        "psi": ["psi", "--x={v}"],
        "paircorr": ["paircorr", "--x={v}", "--T", "15"],
        "explicit": ["explicit", "--x={v}", "--Z", "30"],
        "montgomery": ["montgomery", "--x={v}", "--Q", "5"],
        "eh": ["eh", "--x={v}", "--Q", "10"],
        "weak": ["weak", "--x", "1000", "--alpha={v}", "--Q", "5"],
        "dyadic": ["dyadic", "--x={v}", "--q", "3"],
        "check": ["check", "--suite", "integral", "--x={v}"],
    }

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("command", list(ARGS))
    def test_exits_2(self, capsys, cache_dir, command, value, dry_run):
        argv = [arg.format(v=value) for arg in self.ARGS[command]]
        code, out = run(capsys, cache_dir, *argv, *(["--dry-run"] if dry_run else []))
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("flag", ["--T", "--U", "--Z"])
    def test_check_grid_flags(self, capsys, cache_dir, flag):
        code, out = run(capsys, cache_dir, "check", "--suite", "orthogonality", f"{flag}=inf")
        assert (code, out) == (2, "")


class TestXBeyondTheSieve:
    """An x beyond sieve.MAX_X is invalid input wherever x reaches the sieve:
    exit 2 before any table or zero scan, with or without --dry-run."""

    FORMS = {
        "psi": ["psi", "--x={x}"],
        "psi_chi": ["psi", "--x={x}", "--chi", "3:2"],
        "explicit": ["explicit", "--x={x}", "--Z", "30"],
        "montgomery": ["montgomery", "--x", "1000", "--x={x}", "--q", "3"],
        "eh": ["eh", "--x={x}", "--Q", "10"],
        "weak": ["weak", "--x={x}", "--alpha", "0.5", "--q", "3"],
        "dyadic": ["dyadic", "--x={x}"],
        "orthogonality": ["check", "--suite", "orthogonality", "--x", "1000", "--x={x}"],
        "reconstruction": ["check", "--suite", "reconstruction", "--x={x}", "--Z", "30",
                           "--Z", "100"],
    }

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("x", ["1e10", str(MAX_X + 1)])
    @pytest.mark.parametrize("form", list(FORMS))
    def test_exits_2_and_builds_nothing(self, capsys, tmp_path, monkeypatch, form, x, dry_run):
        monkeypatch.setattr(sieve, "_table", None)
        monkeypatch.setattr(LambdaTable, "build", staticmethod(lambda limit: pytest.fail("built")))
        local = tmp_path / "cache"
        argv = [arg.format(x=x) for arg in self.FORMS[form]]
        code = main([*argv, "--cache-dir", str(local), *(["--dry-run"] if dry_run else [])])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "exceeds MAX_X = 2^28" in captured.err
        assert not local.exists()


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
            psi_progression(10.0, 1, 1))

    def test_json_summary_shape(self, capsys, cache_dir):
        code = main(["eh", "--x", "2000", "--Q", "5",
                     "--cache-dir", str(cache_dir), "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["command"] == "eh"
        assert summary["ok"] is True
        assert summary["rows"][0]["Q"] == 5

    def test_json_summary_is_strict_json(self, capsys, cache_dir):
        # the trivial-bound ratio at T = 1 is 0/0; its cell is the CSV token
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        code = main(["paircorr", "--q", "1", "--x", "3", "--T", "1",
                     "--cache-dir", str(cache_dir), "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert summary["rows"][0]["trivialBoundRatio"] == "nan"

    CALLS = [
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
    # the summary fields a command adds after params; every command but
    # report adds its rows last
    OWN_FIELDS = {"zeros": ["certified", "em", "interp"], "check": ["passed"], "report": ["files"]}

    def test_every_subcommand_has_dry_run(self, capsys, cache_dir):
        for argv in self.CALLS:
            code, out = run(capsys, cache_dir, *argv, "--dry-run")
            assert code == 0, argv
            assert "dry-run ok" in out, argv

    @pytest.mark.parametrize("argv", CALLS, ids=lambda argv: argv[0])
    def test_dry_run_prints_the_run_params(self, capsys, cache_dir, tmp_path, argv):
        argv = [*argv, "--json", *(["--out", str(tmp_path)] if argv[0] == "report" else [])]
        dry_code, dry_out = run(capsys, cache_dir, *argv, "--dry-run")
        code, out = run(capsys, cache_dir, *argv)
        assert (dry_code, code) == (0, 0)
        dry, summary = json.loads(dry_out), json.loads(out)
        assert dry["params"] == summary["params"]
        head = ["command", "ok", "config"]
        assert list(dry) == [*head, "dry_run", "params"]
        own = self.OWN_FIELDS.get(argv[0], [])
        assert list(summary) == [*head, "params", *own, *([] if argv[0] == "report" else ["rows"])]


def _subparsers(parser) -> dict:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _flags(parser) -> list:
    """(option, dest, type, default, action, choices, required) of each flag but --help."""
    return [(a.option_strings[0], a.dest, getattr(a.type, "__name__", a.type), a.default,
             type(a).__name__.strip("_").removesuffix("Action").lower(), a.choices, a.required)
            for a in parser._actions if not isinstance(a, argparse._HelpAction)]


class TestInterface:
    """The parsed command line, pinned flag by flag: every subcommand takes
    the common flags, then its own, in this order and with these settings."""

    COMMON = [
        ("--config", "config", "Path", None, "store", None, False),
        ("--cache-dir", "cache_dir", "Path", None, "store", None, False),
        ("--format", "format", None, None, "store", ("csv", "json"), False),
        ("--threads", "threads", "int", None, "store", None, False),
        ("--out", "out", "Path", None, "store", None, False),
        ("--json", "json", None, False, "storetrue", None, False),
        ("--dry-run", "dry_run", None, False, "storetrue", None, False),
    ]
    OWN = {
        "zeros": [
            ("--q", "q", "int", None, "store", None, False),
            ("--chi", "chi", None, None, "store", None, False),
            ("--T", "T", "float", None, "store", None, False),
            ("--force", "force", None, False, "storetrue", None, False),
        ],
        "psi": [
            ("--x", "x", "float", None, "store", None, False),
            ("--q", "q", "int", None, "store", None, False),
            ("--a", "a", "int", None, "store", None, False),
            ("--chi", "chi", None, None, "store", None, False),
        ],
        "paircorr": [
            ("--q", "q", "int", 1, "store", None, False),
            ("--a", "a", "int", 1, "store", None, False),
            ("--x", "x", "float", None, "append", None, False),
            ("--T", "T", "float", None, "append", None, False),
            ("--window", "window", None, "both", "store", ("both", "positive"), False),
        ],
        "explicit": [
            ("--x", "x", "float", None, "append", None, False),
            ("--Z", "Z", "float", None, "append", None, False),
            ("--q", "q", "int", 1, "store", None, False),
            ("--a", "a", "int", 1, "store", None, False),
        ],
        "montgomery": [
            ("--x", "x", "float", None, "append", None, False),
            ("--Q", "Q", "int", None, "store", None, False),
            ("--q", "q", "int", None, "append", None, False),
            ("--a", "a", "int", None, "store", None, False),
        ],
        "eh": [
            ("--x", "x", "float", None, "store", None, False),
            ("--Q", "Q", "int", None, "append", None, False),
        ],
        "weak": [
            ("--x", "x", "float", None, "store", None, False),
            ("--alpha", "alpha", "float", None, "append", None, False),
            ("--Q", "Q", "int", None, "store", None, False),
            ("--q", "q", "int", None, "append", None, False),
            ("--a", "a", "int", None, "store", None, False),
        ],
        "dyadic": [
            ("--x", "x", "float", None, "store", None, False),
            ("--q", "q", "int", 1, "store", None, False),
            ("--a", "a", "int", 1, "store", None, False),
            ("--eps", "eps", "float", 0.1, "store", None, False),
        ],
        "check": [
            ("--suite", "suite", None, None, "store",
             ("integral", "increment", "orthogonality", "reconstruction"), True),
            ("--q", "q", "int", None, "append", None, False),
            ("--a", "a", "int", 1, "store", None, False),
            ("--x", "x", "float", None, "append", None, False),
            ("--T", "T", "float", None, "append", None, False),
            ("--U", "U", "float", None, "append", None, False),
            ("--Z", "Z", "float", None, "append", None, False),
            ("--tol", "tol", "float", None, "store", None, False),
        ],
        "report": [],
    }

    def test_every_subcommand_parses_its_pinned_flags(self):
        commands = _subparsers(build_parser())
        assert list(commands) == list(self.OWN)
        for name, parser in commands.items():
            assert _flags(parser) == self.COMMON + self.OWN[name], name

    def test_choices_come_from_their_owners(self):
        commands = _subparsers(build_parser())
        choices = {flag[0]: flag[5] for parser in commands.values() for flag in _flags(parser)}
        assert choices["--suite"] == tuple(cli._SUITES)
        assert choices["--window"] == zeros.WINDOWS
        assert choices["--format"] == TABLE_FORMATS

    @pytest.mark.parametrize("fmt", ["csv", "json", "xml", "CSV"])
    def test_run_config_and_emit_table_accept_the_format_choices(self, fmt):
        accepted = []
        for accept in (lambda: cli.RunConfig(format=fmt), lambda: emit_table([], io.StringIO(), fmt)):
            try:
                accept()
                accepted.append(True)
            except ValueError:
                accepted.append(False)
        assert accepted == [fmt in TABLE_FORMATS] * 2


class TestHeaders:
    """Column order of every table, as the rows a command builds lay it out."""

    CASES = {
        "zeros-q": (["zeros", "--q", "4", "--T", "15"],
                    "q,index,conductor,inducer,T,count,expected,certified,file"),
        "zeros-chi": (["zeros", "--chi", "4:3", "--T", "15"],
                      "q,index,conductor,inducer,T,count,expected,certified,file"),
        "psi-class": (["psi", "--x", "100", "--q", "4", "--a", "3"], "x,q,a,psi"),
        "psi-chi": (["psi", "--x", "100", "--chi", "4:3"], "x,q,index,re,im"),
        "paircorr": (["paircorr", "--q", "4", "--x", "3", "--T", "15"],
                     "q,a,x,T,ReF,ImF,ratio_to_thm15,trivialBoundRatio"),
        "explicit": (["explicit", "--q", "4", "--a", "3", "--x", "100", "--Z", "15"],
                     "x,Z,q,a,reconstructed,exact,absError,budget"),
        "montgomery": (["montgomery", "--x", "1000", "--q", "4", "--q", "5"],
                       "x,q,a,error,normalizer,normalized,impliedEpsilon,grhRatio,regime"),
        "eh": (["eh", "--x", "1000", "--Q", "10"], "x,Q,value,valueOverX"),
        "weak": (["weak", "--x", "1000", "--q", "4", "--alpha", "0.5"],
                 "x,q,a,alpha,error,normalizer,normalized"),
        "dyadic": (["dyadic", "--x", "1000", "--q", "4", "--a", "3"],
                   "x,q,a,eps,J,piece,j,error,normalized"),
        "check": (["check", "--suite", "orthogonality", "--q", "4"],
                  "suite,q,a,x,residual,tol,passed"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_csv_header(self, case, capsys, cache_dir, tmp_path):
        argv, header = self.CASES[case]
        dest = tmp_path / "table.csv"
        code, _ = run(capsys, cache_dir, *argv, "--out", str(dest))
        assert code == 0
        assert dest.read_text().splitlines()[0] == header


class TestReport:
    EXPECTED = [
        "zeta_ratio_T100.csv", "thm_ratio.csv", "gue_histogram_q1_T100.csv",
        "montgomery.csv", "eh.csv", "weak.csv", "dyadic.csv", "manifest.json",
    ]
    # the bundle's bytes; a change that moves a cell updates these and names the cells
    SHA256 = {
        "zeta_ratio_T100.csv": "cca8d8887398daaf6de89786bcef665b309cef143ced0fafc3c2e0c3211ae3fd",
        "thm_ratio.csv": "05e7d37d4c374c7e4d9e82d9dc3b023185224be5bf9a5dbb93550ff0729d51ab",
        "gue_histogram_q1_T100.csv":
            "cce7b77ca90b55dcf2ecf30ece9c37f8c36b02fadff608a82ccb3cda309b100a",
        "montgomery.csv": "f073398bdda9f52c151ff931e949f7fa6a4eaefbdc89e9cd2d03e43fdc2ce915",
        "eh.csv": "286c820edd38d2bb8349fd0b41716bb5e090a37c8322316a9229c5f0d4c58e1f",
        "weak.csv": "753b7645e9840cdffbcae47bbf24d9b84978d7ace1ec6b16a57ed34a8a043d7e",
        "dyadic.csv": "4c80c85a9874b30c704ef0d46622b966a19e29d4eec3d39f6693482f662d8dff",
    }

    def test_each_table_limit_built_once(self, capsys, cache_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(sieve, "_table", None)
        build = LambdaTable.build
        limits = []

        def counted(limit):
            limits.append(limit)
            return build(limit)

        monkeypatch.setattr(LambdaTable, "build", staticmethod(counted))
        assert main(["report", "--cache-dir", str(cache_dir), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        # the montgomery ladder starts at x = 1000 and ends at 10^6; the table
        # only grows, so nothing after it rebuilds a limit
        assert limits == [2**17, 2**20]

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
        for name, digest in self.SHA256.items():
            assert hashlib.sha256((first / name).read_bytes()).hexdigest() == digest, name
        manifest = json.loads((first / "manifest.json").read_text())
        data_files = [n for n in self.EXPECTED if n != "manifest.json"]
        assert sorted(manifest["files"]) == sorted(data_files)
        assert manifest["grids"] == {
            "zeta_xs": [2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0, 200.0, 500.0],
            "thm_qs": [1, 3, 4, 5, 8, 12],
            "thm_xs": [2.0, 3.0, 5.0, 10.0],
            "thm_Ts": [15.0, 30.0, 60.0],
            "histogram": {"alpha": 0.0, "beta": 3.0, "bins": 30},
            "x_ladder": [1000.0, 10000.0, 100000.0, 1000000.0],
            "montgomery_qs": [1, 3, 4, 5, 8, 12, 101],
            "eh_Qs": [1, 10, 50, 100],
            "weak_alphas": [0.0, 0.5, 1.0],
            "weak_qs": [3, 4, 5, 8, 12, 101],
        }
        assert list(manifest["grids"]) == [
            "zeta_xs", "thm_qs", "thm_xs", "thm_Ts", "histogram", "x_ladder",
            "montgomery_qs", "eh_Qs", "weak_alphas", "weak_qs",
        ]
        assert manifest["config"] == {
            "cache_dir": str(cache_dir), "tolerance": 1e-10, "rel_tol": 1e-06,
            "mesh_step": None, "threads": 1, "format": "csv", "deterministic": True,
        }
        assert list(manifest["config"]) == [
            "cache_dir", "tolerance", "rel_tol", "mesh_step", "threads", "format",
            "deterministic",
        ]
        paircorr_cols = "q,a,x,T,ReF,ImF,ratio_to_thm15,trivialBoundRatio,window,regime"
        headers = {
            "zeta_ratio_T100.csv": paircorr_cols,
            "thm_ratio.csv": paircorr_cols,
            "gue_histogram_q1_T100.csv":
                "lo,hi,mid,count,expected,observedDensity,gueDensity,diagonalBin",
            "montgomery.csv": "x,q,a,error,normalizer,normalized,impliedEpsilon,grhRatio,regime",
            "eh.csv": "x,Q,value,valueOverX",
            "weak.csv": "x,q,a,alpha,error,normalizer,normalized",
            "dyadic.csv": "x,q,a,eps,J,piece,j,error,normalized",
        }
        assert sorted(headers) == sorted(data_files)
        for name, header in headers.items():
            assert (first / name).read_text().splitlines()[0] == header, name
        hist_lines = (first / "gue_histogram_q1_T100.csv").read_text().splitlines()
        assert len(hist_lines) == 1 + 30
