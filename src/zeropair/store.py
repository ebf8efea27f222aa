"""Binary zero caches and deterministic table emission.

Cache file layout (little endian), checksummed with zlib.crc32:

    magic      4s   "ZPZC"
    version    u16  currently 1
    modulus    u32
    index      u32
    conductor  u32
    parity     u8
    certified  u8
    branch     16s  rotation branch tag, NUL padded
    height     f64
    mesh_step  f64
    tolerance  f64
    expected   f64  value of the counting formula at height
    count      u64
    payload    count * f64, ordinates in ascending order
    crc32      u32  over everything above

Writes are atomic (temp file + rename) and refuse to replace a certified
set with an uncertified one unless forced.  Loads re-validate the header
(height, mesh step and tolerance finite and positive) and the payload
(finite, ascending, inside the window, count consistent) and raise distinct
error types for bad magic, unknown version, checksum mismatch and invariant
violations.  Loaded sets carry point brackets and NaN residuals; the
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
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Mapping

import numpy as np

from zeropair.characters import CharacterLabel, DirichletCharacter
from zeropair.lfunc import ROTATION_BRANCH
from zeropair.zeros import ZeroSet, conjugate_pair, default_mesh_step, scan_pair

MAGIC = b"ZPZC"
VERSION = 1
_HEADER = struct.Struct("<4sHIIIBB16sddddQ")
_CRC = struct.Struct("<I")
_BRANCH_BYTES = 16


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
    ordinates = zs.ordinates
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        zs.label.modulus,
        zs.label.index,
        zs.conductor,
        zs.parity,
        1 if zs.certified else 0,
        branch.ljust(_BRANCH_BYTES, b"\x00"),
        zs.height,
        zs.mesh_step,
        zs.tolerance,
        zs.expected_count,
        len(ordinates),
    )
    payload = ordinates.astype("<f8").tobytes()
    body = header + payload
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
    (
        magic,
        version,
        modulus,
        index,
        conductor,
        parity,
        certified,
        branch_raw,
        height,
        mesh_step,
        tolerance,
        expected,
        count,
    ) = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise CacheFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise CacheVersionError(f"{path}: unsupported version {version}")
    want = _HEADER.size + 8 * count + _CRC.size
    if len(data) != want:
        raise CacheFormatError(f"{path}: expected {want} bytes, found {len(data)}")
    (crc_stored,) = _CRC.unpack_from(data, len(data) - _CRC.size)
    if zlib.crc32(data[: -_CRC.size]) != crc_stored:
        raise CacheChecksumError(f"{path}: checksum mismatch")

    for name, value in (("height", height), ("mesh step", mesh_step), ("tolerance", tolerance)):
        if not (math.isfinite(value) and value > 0):
            raise CacheInvariantError(f"{path}: {name} {value!r} is not finite and positive")
    ordinates = np.frombuffer(data, dtype="<f8", count=count, offset=_HEADER.size)
    if not np.all(np.isfinite(ordinates)):
        raise CacheInvariantError(f"{path}: non-finite ordinate")
    if count > 1 and not np.all(np.diff(ordinates) > 0):
        raise CacheInvariantError(f"{path}: ordinates not strictly ascending")
    if count and float(np.max(np.abs(ordinates))) > height + 1e-9:
        raise CacheInvariantError(f"{path}: ordinate outside the stated window")
    try:
        label = CharacterLabel(modulus, index)
    except ValueError as exc:
        raise CacheInvariantError(f"{path}: invalid label: {exc}") from exc

    branch = branch_raw.rstrip(b"\x00").decode("ascii")
    return ZeroSet(
        label=label,
        conductor=conductor,
        parity=parity,
        height=height,
        mesh_step=mesh_step,
        tolerance=tolerance,
        branch=branch,
        ordinates=ordinates,
        lo=ordinates,
        hi=ordinates,
        residual=np.full(count, math.nan),
        expected_count=expected,
        certified=bool(certified),
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
            want_mesh = mesh_step if mesh_step is not None else default_mesh_step(chi.modulus, T)
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
    if fmt not in ("csv", "json"):
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
