import io
import json
import math
import struct
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from zeropair import store, zeros
from zeropair.characters import character
from zeropair.store import (
    CacheChecksumError,
    CacheFormatError,
    CacheInvariantError,
    CacheOverwriteError,
    CacheVersionError,
    ZeroCache,
    emit_table,
    read_zero_set,
    write_zero_set,
)
from zeropair.zeros import ZeroSet, scan_zeros, zeros_for_modulus


@pytest.fixture(scope="module")
def sample_set() -> ZeroSet:
    return scan_zeros(character(4, 3), 15.0)


class TestRoundTrip:
    def test_bytes_identical(self, sample_set, tmp_path):
        p1 = tmp_path / "a.zc"
        p2 = tmp_path / "b.zc"
        write_zero_set(p1, sample_set)
        loaded = read_zero_set(p1)
        write_zero_set(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fields_survive(self, sample_set, tmp_path):
        p = tmp_path / "a.zc"
        write_zero_set(p, sample_set)
        loaded = read_zero_set(p)
        assert loaded.label == sample_set.label
        assert loaded.conductor == sample_set.conductor
        assert loaded.parity == sample_set.parity
        assert loaded.height == sample_set.height
        assert loaded.mesh_step == sample_set.mesh_step
        assert loaded.tolerance == sample_set.tolerance
        assert loaded.branch == sample_set.branch
        assert loaded.certified == sample_set.certified
        assert loaded.expected_count == sample_set.expected_count
        assert np.array_equal(loaded.ordinates, sample_set.ordinates)

    def test_empty_set(self, tmp_path):
        zs = scan_zeros(character(3, 2), 0.5)
        p = tmp_path / "empty.zc"
        write_zero_set(p, zs)
        loaded = read_zero_set(p)
        assert loaded.count == 0 and loaded.certified


class TestCorruption:
    def test_flipped_payload_byte(self, sample_set, tmp_path):
        p = tmp_path / "a.zc"
        write_zero_set(p, sample_set)
        raw = bytearray(p.read_bytes())
        raw[80] ^= 0xFF  # inside the ordinate payload (header is 76 bytes)
        p.write_bytes(bytes(raw))
        with pytest.raises(CacheChecksumError):
            read_zero_set(p)

    def test_truncated_file(self, sample_set, tmp_path):
        p = tmp_path / "a.zc"
        write_zero_set(p, sample_set)
        p.write_bytes(p.read_bytes()[:-9])
        with pytest.raises(CacheFormatError):
            read_zero_set(p)

    def test_bad_magic(self, sample_set, tmp_path):
        p = tmp_path / "a.zc"
        write_zero_set(p, sample_set)
        raw = bytearray(p.read_bytes())
        raw[0:4] = b"NOPE"
        p.write_bytes(bytes(raw))
        with pytest.raises(CacheFormatError):
            read_zero_set(p)

    def test_unknown_version(self, sample_set, tmp_path):
        p = tmp_path / "a.zc"
        write_zero_set(p, sample_set)
        raw = bytearray(p.read_bytes())
        raw[4] = 99  # version field, little endian
        # keep the checksum honest so only the version trips
        raw[-4:] = zlib.crc32(bytes(raw[:-4])).to_bytes(4, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(CacheVersionError):
            read_zero_set(p)

    def test_unsorted_payload_rejected(self, sample_set, tmp_path):
        p = tmp_path / "a.zc"
        write_zero_set(p, sample_set)
        raw = bytearray(p.read_bytes())
        hdr = 4 + 2 + 4 + 4 + 4 + 1 + 1 + 16 + 8 * 4 + 8
        first = struct.unpack_from("<d", raw, hdr)[0]
        second = struct.unpack_from("<d", raw, hdr + 8)[0]
        struct.pack_into("<d", raw, hdr, second)
        struct.pack_into("<d", raw, hdr + 8, first)
        raw[-4:] = zlib.crc32(bytes(raw[:-4])).to_bytes(4, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(CacheInvariantError):
            read_zero_set(p)

    def _written(self, zs, tmp_path, **fields):
        from dataclasses import replace

        p = tmp_path / "a.zc"
        write_zero_set(p, replace(zs, **fields))  # the writer checks nothing
        return p

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_height_not_finite_and_positive_rejected(self, sample_set, tmp_path, value):
        # a NaN height fails no comparison with T, so require_certified would
        # pass the set for any T
        p = self._written(sample_set, tmp_path, height=value)
        with pytest.raises(CacheInvariantError, match="height .* is not finite and positive"):
            read_zero_set(p)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_mesh_step_not_finite_and_positive_rejected(self, sample_set, tmp_path, value):
        p = self._written(sample_set, tmp_path, mesh_step=value)
        with pytest.raises(CacheInvariantError, match="mesh step .* is not finite and positive"):
            read_zero_set(p)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_tolerance_not_finite_and_positive_rejected(self, sample_set, tmp_path, value):
        p = self._written(sample_set, tmp_path, tolerance=value)
        with pytest.raises(CacheInvariantError, match="tolerance .* is not finite and positive"):
            read_zero_set(p)

    @pytest.mark.parametrize("ordinates", [[math.nan], [-3.0, math.nan], [math.nan, 3.0]])
    def test_non_finite_ordinate_rejected(self, sample_set, tmp_path, ordinates):
        # a single NaN has no neighbour to fail the ascending check, and
        # NaN > height is False
        p = self._written(sample_set, tmp_path, ordinates=np.array(ordinates))
        with pytest.raises(CacheInvariantError, match="non-finite ordinate"):
            read_zero_set(p)


    # (offset, struct code) of the v1 header fields the tests below rewrite
    V1_AT = {"parity": (18, "<B"), "certified": (19, "<B"), "branch": (20, "<16s"),
             "expected": (60, "<d")}

    def _rewritten(self, zs, tmp_path, field, value):
        """zs written, then one header field rewritten under a recomputed checksum."""
        p = tmp_path / "a.zc"
        write_zero_set(p, zs)
        raw = bytearray(p.read_bytes())
        offset, code = self.V1_AT[field]
        struct.pack_into(code, raw, offset, value)
        raw[-4:] = zlib.crc32(bytes(raw[:-4])).to_bytes(4, "little")
        p.write_bytes(bytes(raw))
        return p

    @pytest.mark.parametrize("field, value, message", [
        ("parity", 5, "parity 5 is not 0 or 1"),
        ("certified", 7, "certified 7 is not 0 or 1"),
        ("branch", b"principal\xffsqrt", "branch .* is not ASCII"),
        ("expected", math.nan, "expected count nan is not finite and non-negative"),
        ("expected", -3.0, "expected count -3.0 is not finite and non-negative"),
    ], ids=["parity", "certified", "branch", "expected-nan", "expected-negative"])
    def test_header_field_outside_its_rule_rejected(self, sample_set, tmp_path, field, value,
                                                    message):
        # each loaded as a cache hit before the field had a load rule
        p = self._rewritten(sample_set, tmp_path, field, value)
        with pytest.raises(CacheInvariantError, match=message):
            read_zero_set(p)


class TestByteLayout:
    def test_v1_bytes_are_the_pinned_layout(self, sample_set, tmp_path):
        # the layout built field by field here, not from the store's own table,
        # so a reordered or retyped field fails
        zs = sample_set
        header = struct.pack(
            "<4sHIIIBB16sddddQ", b"ZPZC", 1, zs.label.modulus, zs.label.index, zs.conductor,
            zs.parity, 1, zs.branch.encode("ascii"), zs.height, zs.mesh_step, zs.tolerance,
            zs.expected_count, zs.count,
        )
        assert len(header) == 76 and zs.certified
        body = header + struct.pack(f"<{zs.count}d", *zs.ordinates)
        p = write_zero_set(tmp_path / "a.zc", zs)
        assert p.read_bytes() == body + struct.pack("<I", zlib.crc32(body))


class TestOverwritePolicy:
    def test_uncertified_cannot_replace_certified(self, sample_set, tmp_path):
        from dataclasses import replace

        p = tmp_path / "a.zc"
        assert sample_set.certified
        write_zero_set(p, sample_set)
        weaker = replace(sample_set, certified=False)
        with pytest.raises(CacheOverwriteError):
            write_zero_set(p, weaker)
        # force wins
        write_zero_set(p, weaker, force=True)
        assert read_zero_set(p).certified is False

    def test_certified_can_replace(self, sample_set, tmp_path):
        p = tmp_path / "a.zc"
        write_zero_set(p, sample_set)
        write_zero_set(p, sample_set)  # idempotent rewrite is fine


class TestCacheDirectory:
    def test_layout(self, tmp_path):
        cache = ZeroCache(tmp_path)
        label = character(4, 3).label
        p = cache.path_for(label, 100.0)
        assert p == tmp_path / "zeros" / "q4" / "chi3_T100.zc"
        p2 = cache.path_for(label, 0.5)
        assert p2.name == "chi3_T0.5.zc"
        assert cache.path_for(label, 40.0).name == "chi3_T40.zc"

    def test_each_height_has_its_own_file(self, tmp_path, monkeypatch):
        cache = ZeroCache(tmp_path)
        chi = character(4, 3)
        low, high = cache.path_for(chi.label, 10.0), cache.path_for(chi.label, 10.000001)
        assert low != high and high.name == "chi3_T10.000001.zc"
        cache.load_or_scan(chi, 10.0)
        cache.load_or_scan(chi, 10.000001)
        before, stamp = low.read_bytes(), low.stat().st_mtime_ns

        def no_scan(*args, **kwargs):
            raise AssertionError("the third run should be a cache hit")

        monkeypatch.setattr(zeros, "scan_zeros", no_scan)
        assert cache.load_or_scan(chi, 10.0)[chi.label].height == 10.0
        assert low.read_bytes() == before and low.stat().st_mtime_ns == stamp

    def test_load_or_scan_caches(self, tmp_path):
        cache = ZeroCache(tmp_path)
        chi = character(4, 3)
        zs1 = cache.load_or_scan(chi, 15.0)[chi.label]
        path = cache.path_for(chi.label, 15.0)
        assert path.exists()
        before = path.read_bytes()
        zs2 = cache.load_or_scan(chi, 15.0)[chi.label]
        assert path.read_bytes() == before
        assert np.array_equal(zs1.ordinates, zs2.ordinates)

    def test_load_or_scan_propagates_corruption(self, tmp_path):
        cache = ZeroCache(tmp_path)
        chi = character(4, 3)
        cache.load_or_scan(chi, 15.0)
        path = cache.path_for(chi.label, 15.0)
        raw = bytearray(path.read_bytes())
        raw[60] ^= 0x55
        path.write_bytes(bytes(raw))
        with pytest.raises(CacheChecksumError):
            cache.load_or_scan(chi, 15.0)
        # explicit force rescans over the bad file
        zs = cache.load_or_scan(chi, 15.0, force=True)[chi.label]
        assert zs.certified

    def test_missing_returns_none(self, tmp_path):
        cache = ZeroCache(tmp_path)
        assert cache.load(character(4, 3).label, 33.0) is None


class TestConjugatePairs:
    def test_load_or_scan_returns_the_pair_loaded_or_scanned(self, tmp_path):
        cache = ZeroCache(tmp_path)
        rep, conj = character(5, 2), character(5, 3)
        for chi in (rep, conj):  # either member asks for the same pair
            for _ in range(2):  # scanned, then loaded
                sets = cache.load_or_scan(chi, 10.0)
                assert list(sets) == [rep.label, conj.label]
                assert np.array_equal(sets[conj.label].ordinates,
                                      -sets[rep.label].ordinates[::-1])

    def test_warm_modulus_reads_each_file_once_and_mirrors_nothing(self, tmp_path, monkeypatch):
        cache = ZeroCache(tmp_path)
        cold = zeros_for_modulus(15, 10.0, cache=cache)
        reads = []

        def counting(path):
            reads.append(Path(path))
            return read_zero_set(path)

        def refuse(*args, **kwargs):
            raise AssertionError("a warm load neither scans nor mirrors")

        monkeypatch.setattr(store, "read_zero_set", counting)
        monkeypatch.setattr(zeros, "scan_zeros", refuse)
        monkeypatch.setattr(zeros, "_reflect", refuse)
        warm = zeros_for_modulus(15, 10.0, cache=cache)
        assert sorted(reads) == sorted(tmp_path.rglob("*.zc"))  # each file once
        assert list(warm) == list(cold)
        for label, zs in warm.items():
            assert zs.label == cold[label].label
            assert np.array_equal(zs.ordinates, cold[label].ordinates)

    @pytest.mark.parametrize("defect", ["ordinate", "header"])
    def test_a_pair_that_is_not_an_exact_mirror_is_rescanned_once(self, tmp_path, monkeypatch,
                                                                   defect):
        cache = ZeroCache(tmp_path)
        rep = character(5, 2)
        cache.load_or_scan(rep, 10.0)
        conj = cache.path_for(character(5, 3).label, 10.0)
        before = conj.read_bytes()
        stored = read_zero_set(conj)
        if defect == "ordinate":
            moved = stored.ordinates.copy()
            moved[moved.size // 2] += 1e-9
            write_zero_set(conj, replace(stored, ordinates=moved))  # with a valid checksum
        else:
            write_zero_set(conj, replace(stored, expected_count=stored.expected_count + 1.0))
        read_zero_set(conj)  # reads cleanly
        scanned = []

        def recording(chi, T, **kwargs):
            scanned.append(str(chi.label))
            return scan_zeros(chi, T, **kwargs)

        monkeypatch.setattr(zeros, "scan_zeros", recording)
        sets = cache.load_or_scan(rep, 10.0)
        assert scanned == ["5:2"]
        assert conj.read_bytes() == before  # rewritten as the exact mirror
        assert np.array_equal(sets[character(5, 3).label].ordinates,
                              -sets[rep.label].ordinates[::-1])
        cache.load_or_scan(rep, 10.0)
        assert scanned == ["5:2"]  # then a hit


class TestEmitTable:
    def test_csv_determinism_and_parse(self, tmp_path):
        rows = [
            {"q": 4, "a": 1, "value": math.pi, "kind": "demo"},
            {"q": 4, "a": 3, "value": -1.0 / 3, "kind": "demo"},
        ]
        p1, p2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        emit_table(rows, p1, "csv")
        emit_table(rows, p2, "csv")
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().strip().splitlines()
        assert lines[0] == "q,a,value,kind"
        assert float(lines[1].split(",")[2]) == math.pi  # 17 digits round-trip

    def test_json_round_trip_exact(self, tmp_path):
        rows = [{"x": 0.1 + 0.2, "n": 7, "s": "a,b", "flag": True}]
        p = tmp_path / "t.json"
        emit_table(rows, p, "json")
        back = json.loads(p.read_text())
        assert back == [{"x": 0.1 + 0.2, "n": 7, "s": "a,b", "flag": True}]

    def test_empty_rows(self, tmp_path):
        p = tmp_path / "empty.csv"
        emit_table([], p, "csv")
        assert p.read_text() == ""
        pj = tmp_path / "empty.json"
        emit_table([], pj, "json")
        assert json.loads(pj.read_text()) == []

    def test_streaming_many_rows(self, tmp_path):
        def gen():
            for i in range(100000):
                yield {"i": i, "v": i * 0.5}

        p = tmp_path / "big.csv"
        emit_table(gen(), p, "csv")
        with open(p) as fh:
            assert sum(1 for _ in fh) == 100001

    def test_mismatched_keys_rejected(self):
        for rows in ([{"a": 1}, {"b": 2}], [{"a": 1, "b": 2}, {"a": 1}]):
            for fmt in ("csv", "json"):
                with pytest.raises(ValueError, match="common key set"):
                    emit_table(rows, io.StringIO(), fmt)

    def test_reordered_keys_write_the_first_rows_order(self):
        ordered = [{"a": 1, "s": "x", "v": 0.5}, {"a": 2, "s": "y", "v": -0.25}]
        shuffled = [ordered[0], {"v": -0.25, "a": 2, "s": "y"}]
        for fmt in ("csv", "json"):
            want, got = io.StringIO(), io.StringIO()
            emit_table(ordered, want, fmt)
            emit_table(shuffled, got, fmt)
            assert got.getvalue() == want.getvalue()

    def test_json_cell_is_the_csv_cell(self):
        # quoted where the CSV cell is no JSON literal: strings and non-finite floats
        row = {"s": "ab", "nan": math.nan, "inf": np.float64(math.inf), "ninf": -math.inf,
               "f": 0.1, "n": np.int64(7), "b": False}
        csv_buf, json_buf = io.StringIO(), io.StringIO()
        emit_table([row], csv_buf, "csv")
        emit_table([row], json_buf, "json")
        assert csv_buf.getvalue().splitlines()[1] == "ab,nan,inf,-inf,0.10000000000000001,7,false"
        assert json_buf.getvalue() == (
            '[\n  {"s": "ab", "nan": "nan", "inf": "inf", "ninf": "-inf", '
            '"f": 0.10000000000000001, "n": 7, "b": false}\n]\n'
        )
        # json_cell is the rule the --json summary applies to the same cells
        parsed = json.loads(json_buf.getvalue())[0]
        assert [store.json_cell(v) for v in row.values()] == list(parsed.values())

    def test_unsupported_value_rejected(self):
        buf = io.StringIO()
        with pytest.raises(TypeError):
            emit_table([{"a": 1 + 2j}], buf, "csv")

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            emit_table([], io.StringIO(), "xml")
