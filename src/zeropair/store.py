"""Binary zero caches and deterministic table emission.

A cache file is a little-endian header, whose layout is the field table
_FIELDS, then count float64 ordinates in ascending order, then a zlib.crc32
of everything before it.  The header holds the magic "ZPZC", the version
(currently 1), the character label, conductor and parity, the certified
byte, the rotation branch tag (NUL padded), the scan height, mesh step and
tolerance, the counting formula's value at the height, and the count.

Writes are atomic (temp file + rename) and refuse to replace a certified
set with an uncertified one unless forced.  Loads raise distinct error
types for bad magic, unknown version and checksum mismatch, and raise
CacheInvariantError when a header field breaks its load rule (parity and
certified in {0, 1}, the branch tag ASCII, height, mesh step and tolerance
finite and positive, the expected count finite and non-negative) or the
payload is not finite, ascending, inside the window and of the stated
count.  Loaded sets carry point brackets and NaN residuals; the
uncertainty of a stored ordinate is the set-level tolerance.  A conjugate
pair's files are written together, from one scan, and ZeroCache.load_or_scan
returns the pair's sets, loaded only if the files are exact mirrors.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
import tempfile
import zlib
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Mapping

import numpy as np

from zeropair.characters import CharacterLabel, DirichletCharacter
from zeropair.lfunc import ROTATION_BRANCH
from zeropair.zeros import DEFAULT_MESH_STEP, ZeroSet, conjugate_pair, scan_pair

MAGIC = b"ZPZC"
VERSION = 1
TABLE_FORMATS = ("csv", "json")  # the formats emit_table writes
_BRANCH_BYTES = 16

# a header field's load rule: (test of the unpacked value, what the value must be)
_BIT = ((0, 1).__contains__, "0 or 1")
_POSITIVE = (lambda v: math.isfinite(v) and v > 0, "finite and positive")
# the v1 header in file order: (name, struct code, load rule or None).  A name
# that is a ZeroSet field is written from, and read back into, that field.
_FIELDS = (
    ("magic", "4s", None),
    ("version", "H", None),
    ("modulus", "I", None),
    ("index", "I", None),
    ("conductor", "I", None),
    ("parity", "B", _BIT),
    ("certified", "B", _BIT),
    ("branch", f"{_BRANCH_BYTES}s", (bytes.isascii, "ASCII")),
    ("height", "d", _POSITIVE),
    ("mesh_step", "d", _POSITIVE),
    ("tolerance", "d", _POSITIVE),
    ("expected_count", "d", (lambda v: math.isfinite(v) and v >= 0, "finite and non-negative")),
    ("count", "Q", None),
)
_HEADER = struct.Struct("<" + "".join(code for _, code, _ in _FIELDS))
_NAMES = [name for name, _, _ in _FIELDS]
_RULES = [(name, *rule) for name, _, rule in _FIELDS if rule is not None]
# the ZeroSet fields stored as they are: not the branch tag (bytes) or certified (a byte)
_STORED = [f.name for f in fields(ZeroSet)
           if f.name in _NAMES and f.name not in ("branch", "certified")]
_CRC = struct.Struct("<I")


class ZeroCacheError(Exception):
    """Base class for zero-cache failures."""


class CacheFormatError(ZeroCacheError):
    """File is not a zero cache, or is structurally truncated."""


class CacheVersionError(ZeroCacheError):
    """File declares an unsupported format version."""


class CacheChecksumError(ZeroCacheError):
    """Stored checksum does not match the contents."""


class CacheInvariantError(ZeroCacheError):
    """Contents parse but violate a zero-set invariant."""


class CacheOverwriteError(ZeroCacheError):
    """Refusing to replace a certified set with an uncertified one."""


def _serialize(zs: ZeroSet) -> bytes:
    branch = zs.branch.encode("ascii")
    if len(branch) > _BRANCH_BYTES:
        raise ValueError(f"branch tag too long: {zs.branch!r}")
    head = {name: getattr(zs, name) for name in _STORED}
    head.update(magic=MAGIC, version=VERSION, modulus=zs.label.modulus, index=zs.label.index,
                certified=1 if zs.certified else 0, branch=branch, count=zs.count)
    body = _HEADER.pack(*(head[name] for name in _NAMES)) + zs.ordinates.astype("<f8").tobytes()
    return body + _CRC.pack(zlib.crc32(body))


def write_zero_set(path: Path | str, zs: ZeroSet, force: bool = False) -> Path:
    """Atomically write a zero set; see CacheOverwriteError for the policy."""
    path = Path(path)
    if path.exists() and not force and not zs.certified:
        try:
            existing = read_zero_set(path)
        except ZeroCacheError:
            existing = None
        if existing is not None and existing.certified:
            raise CacheOverwriteError(
                f"{path} holds a certified set; refusing an uncertified replacement"
            )
    path.parent.mkdir(parents=True, exist_ok=True)
    data = _serialize(zs)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def read_zero_set(path: Path | str) -> ZeroSet:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size + _CRC.size:
        raise CacheFormatError(f"{path}: file too short for a zero cache")
    head = dict(zip(_NAMES, _HEADER.unpack_from(data, 0)))
    if head["magic"] != MAGIC:
        raise CacheFormatError(f"{path}: bad magic {head['magic']!r}")
    if head["version"] != VERSION:
        raise CacheVersionError(f"{path}: unsupported version {head['version']}")
    count = head["count"]
    want = _HEADER.size + 8 * count + _CRC.size
    if len(data) != want:
        raise CacheFormatError(f"{path}: expected {want} bytes, found {len(data)}")
    (crc_stored,) = _CRC.unpack_from(data, len(data) - _CRC.size)
    if zlib.crc32(data[: -_CRC.size]) != crc_stored:
        raise CacheChecksumError(f"{path}: checksum mismatch")

    for name, test, what in _RULES:
        if not test(head[name]):
            field = name.replace("_", " ")
            raise CacheInvariantError(f"{path}: {field} {head[name]!r} is not {what}")
    ordinates = np.frombuffer(data, dtype="<f8", count=count, offset=_HEADER.size)
    if not np.all(np.isfinite(ordinates)):
        raise CacheInvariantError(f"{path}: non-finite ordinate")
    if count > 1 and not np.all(np.diff(ordinates) > 0):
        raise CacheInvariantError(f"{path}: ordinates not strictly ascending")
    if count and float(np.max(np.abs(ordinates))) > head["height"] + 1e-9:
        raise CacheInvariantError(f"{path}: ordinate outside the stated window")
    try:
        label = CharacterLabel(head["modulus"], head["index"])
    except ValueError as exc:
        raise CacheInvariantError(f"{path}: invalid label: {exc}") from exc

    return ZeroSet(
        label=label,
        branch=head["branch"].rstrip(b"\x00").decode("ascii"),
        ordinates=ordinates,
        lo=ordinates,
        hi=ordinates,
        residual=np.full(count, math.nan),
        certified=bool(head["certified"]),
        **{name: head[name] for name in _STORED},
    )


def _height_token(T: float) -> str:
    """Shortest round-trip form of T, so distinct heights get distinct files."""
    return repr(float(T)).removesuffix(".0")


class ZeroCache:
    """Directory of zero-set files, keyed by character label and height."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def path_for(self, label: CharacterLabel, T: float) -> Path:
        return (
            self.root
            / "zeros"
            / f"q{label.modulus}"
            / f"chi{label.index}_T{_height_token(T)}.zc"
        )

    def load(self, label: CharacterLabel, T: float) -> ZeroSet | None:
        path = self.path_for(label, T)
        if not path.exists():
            return None
        return read_zero_set(path)

    def load_or_scan(
        self,
        chi: DirichletCharacter,
        T: float,
        mesh_step: float | None = None,
        tolerance: float = 1e-10,
        force: bool = False,
    ) -> dict[CharacterLabel, ZeroSet]:
        """The sets of chi's conjugate pair by label, loaded or scanned.

        The pair's files are a hit only if both hold a set with the current
        branch tag and the requested scan parameters, and the other member's
        is the exact mirror of the representative's; otherwise the
        representative is scanned once and both files are written.
        Unreadable files raise; clearing or forcing past them is an explicit
        caller decision.
        """
        if not force:
            want_mesh = mesh_step if mesh_step is not None else DEFAULT_MESH_STEP
            want = (float(T), ROTATION_BRANCH, float(want_mesh), float(tolerance))
            sets = {psi.label: self.load(psi.label, T) for psi in conjugate_pair(chi)}
            rep, *others = sets.values()
            if all(zs is not None and zs.label == label
                   and (zs.height, zs.branch, zs.mesh_step, zs.tolerance) == want
                   for label, zs in sets.items()) and all(_mirrors(rep, zs) for zs in others):
                return sets
        sets = scan_pair(chi, T, mesh_step=mesh_step, tolerance=tolerance)
        for zs in sets.values():
            write_zero_set(self.path_for(zs.label, T), zs, force=True)
        return sets


def _mirrors(rep: ZeroSet, zs: ZeroSet) -> bool:
    """zs is rep's exact mirror, both matching the request: every other header
    field but the index equal, and the ordinates -rep.ordinates[::-1]."""
    head = attrgetter("conductor", "parity", "certified", "expected_count")
    return head(zs) == head(rep) and np.array_equal(zs.ordinates, -rep.ordinates[::-1])


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, np.floating):
        return format(float(v), ".17g")
    if isinstance(v, str):
        return v
    raise TypeError(f"unsupported table value {v!r} of type {type(v).__name__}")


def json_cell(v):
    """A table cell as a strict JSON value: a non-finite float becomes its CSV
    token, the string "nan", "inf" or "-inf"; any other cell is itself."""
    finite = not isinstance(v, (float, np.floating)) or math.isfinite(v)
    return v if finite else _format_value(v)


def _json_token(v) -> str:
    """The CSV token of json_cell(v), quoted if that is a string."""
    cell = json_cell(v)
    return json.dumps(cell) if isinstance(cell, str) else _format_value(cell)


def emit_table(
    rows: Iterable[Mapping[str, object]],
    dest: Path | str | IO[str],
    fmt: str = "csv",
) -> None:
    """Stream rows (dicts sharing a key set) to CSV or JSON.

    Floats are rendered with 17 significant digits, so values round-trip
    exactly and repeated runs emit byte-identical output.  The first row's
    keys, in their order, are the columns, and every row is written in that
    order; an empty CSV stays headerless because no key set is known.  A
    JSON cell is the CSV cell, quoted where it is not a JSON literal.
    """
    if fmt not in TABLE_FORMATS:
        raise ValueError(f"unsupported format {fmt!r}")
    own = not hasattr(dest, "write")
    fh: IO[str]
    if own:
        path = Path(dest)
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "w", encoding="utf-8", newline="")
    else:
        fh = dest  # type: ignore[assignment]
    try:
        it = iter(rows)
        first = next(it, None)
        if fmt == "json":
            fh.write("[")
        if first is not None:
            keys = list(first.keys())
            key_set = set(keys)
            if fmt == "csv":
                fh.write(",".join(keys) + "\n")
            for i, row in enumerate(itertools.chain([first], it)):
                if set(row.keys()) != key_set:
                    raise ValueError("rows do not share a common key set")
                if fmt == "csv":
                    fh.write(",".join(_format_value(row[k]) for k in keys) + "\n")
                else:
                    body = ", ".join(f"{json.dumps(k)}: {_json_token(row[k])}" for k in keys)
                    fh.write(("\n" if i == 0 else ",\n") + "  {" + body + "}")
            if fmt == "json":
                fh.write("\n")
        if fmt == "json":
            fh.write("]\n")
    finally:
        if own:
            fh.close()
