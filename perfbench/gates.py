"""Correctness gates of the benchmark and the tally behind `failed`.

An operation is one zeropair CLI call.  It fails on a non-zero exit or when
any gate on its output fails.  Gates compare against the reference outputs
in perfbench/reference/, written by pin.py:

- zero sets: the count of every set matches exactly, every set is
  certified, and each ordinate lies within 2x the scan tolerance of the
  reference ordinate;
- check suites: exit 0, every line PASS, and the expected number of rows;
- paircorr rows, report cells: equal to the reference within REL_TOL
  relative, with ABS_FLOOR absolute for cells that are zero up to rounding
  (imaginary parts of real sums);
- report bundles: the warm bundle is byte-identical to the cold one.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_FLOOR = 1e-12
PER_OP_LISTED = 3  # errors kept per failed operation for the log; all are counted
MAX_LISTED = 30


class Tally:
    """Attempted and failed operations, with the first errors for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, label: str, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            shown = errors[:PER_OP_LISTED]
            if len(errors) > len(shown):
                shown.append(f"... {len(errors) - len(shown)} more")
            room = MAX_LISTED - len(self.errors)
            self.errors.extend(f"{label}: {e}" for e in shown[: max(0, room)])
        return not errors

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_FLOOR)


def set_key(label: str, height: float) -> str:
    return f"{label}@{float(height):g}"


def _flag_values(argv: list[str], flag: str) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a == flag]


def exit_errors(op: dict) -> list[str]:
    if op["rc"] != 0:
        tail = op["err"].strip().splitlines()[-1:] or [""]
        return [f"exit code {op['rc']} {tail[0]}".rstrip()]
    if op["out"] is None:
        return ["no JSON summary on stdout"]
    return []


def zero_set_errors(key: str, got: dict | None, want: dict) -> list[str]:
    if got is None:
        return [f"zero set {key} missing from the cache"]
    if not got["certified"]:
        return [f"zero set {key} not certified"]
    ref = want["ordinates"]
    if got["count"] != len(ref) or len(got["ordinates"]) != len(ref):
        return [f"zero set {key} has {got['count']} zeros, reference {len(ref)}"]
    worst = max((abs(a - b) for a, b in zip(got["ordinates"], ref)), default=0.0)
    if worst > 2.0 * want["tolerance"]:
        return [f"zero set {key} ordinate off by {worst:.3e} > 2 x {want['tolerance']:g}"]
    return []


def zeros_op_errors(op: dict, sets: dict, ref: dict) -> list[str]:
    """`zeros --json`: every reported set certified, counted and placed as the reference."""
    errors = exit_errors(op)
    if errors:
        return errors
    rows = op["out"].get("rows") or []
    if not rows:
        return ["no rows"]
    for row in rows:
        key = set_key(row["inducer"], row["T"])
        want = ref.get(key)
        if want is None:
            errors.append(f"zero set {key} has no reference")
        elif not row["certified"]:
            errors.append(f"zero set {key} reported uncertified")
        elif row["count"] != len(want["ordinates"]):
            errors.append(f"zero set {key} reported {row['count']} zeros, reference {len(want['ordinates'])}")
        else:
            errors.extend(zero_set_errors(key, sets.get(key), want))
    return errors


def expected_rows(argv: list[str]) -> int:
    """Rows a `check` or `paircorr` call must return for its grid flags."""
    n = {f: len(_flag_values(argv, f)) for f in ("--q", "--x", "--T", "--U", "--Z")}
    if argv[0] == "paircorr":
        return n["--T"] * n["--x"]
    suite = _flag_values(argv, "--suite")[0]
    qs, xs = max(1, n["--q"]), max(1, n["--x"])
    if suite == "increment":
        us = [float(u) for u in _flag_values(argv, "--U")] or [5.0]
        ts = [float(t) for t in _flag_values(argv, "--T")] or [15.0]
        return qs * xs * sum(1 for u in us for t in ts if u < t)
    if suite == "reconstruction":
        return qs * xs
    return qs * xs * max(1, n["--T"])


def check_op_errors(op: dict) -> list[str]:
    errors = exit_errors(op)
    if errors:
        return errors
    rows = op["out"].get("rows") or []
    if op["out"].get("passed") is not True:
        errors.append("suite did not pass")
    failing = [r for r in rows if r.get("passed") is not True]
    if failing:
        errors.append(f"{len(failing)} of {len(rows)} lines FAIL")
    if len(rows) != expected_rows(op["argv"]):
        errors.append(f"{len(rows)} rows, expected {expected_rows(op['argv'])}")
    return errors


def paircorr_key(q, a, x, T) -> str:
    return f"{int(q)}:{int(a)}:{float(x):g}:{float(T):g}"


def paircorr_op_errors(op: dict, ref: dict) -> list[str]:
    errors = exit_errors(op)
    if errors:
        return errors
    rows = op["out"].get("rows") or []
    if len(rows) != expected_rows(op["argv"]):
        errors.append(f"{len(rows)} rows, expected {expected_rows(op['argv'])}")
    for row in rows:
        key = paircorr_key(row["q"], row["a"], row["x"], row["T"])
        want = ref.get(key)
        if want is None:
            errors.append(f"paircorr {key} has no reference")
        elif not (close(row["ReF"], want[0]) and close(row["ImF"], want[1])):
            errors.append(f"paircorr {key} = {row['ReF']!r}{row['ImF']:+}i, reference {want[0]!r}{want[1]:+}i")
    return errors


def op_errors(op: dict, sets: dict, zero_ref: dict, pair_ref: dict) -> list[str]:
    command = op["argv"][0]
    if command == "zeros":
        return zeros_op_errors(op, sets, zero_ref)
    if command == "check":
        return check_op_errors(op)
    if command == "paircorr":
        return paircorr_op_errors(op, pair_ref)
    return exit_errors(op)


# -------------------------------------------------------------- report bundle


def _cell_errors(name: str, got: list[list[str]], want: list[list[str]]) -> list[str]:
    if len(got) != len(want):
        return [f"{name}: {len(got)} lines, reference {len(want)}"]
    errors = []
    for lineno, (grow, wrow) in enumerate(zip(got, want), start=1):
        if len(grow) != len(wrow):
            errors.append(f"{name}:{lineno}: {len(grow)} cells, reference {len(wrow)}")
            continue
        for col, (g, w) in enumerate(zip(grow, wrow)):
            if g == w:
                continue
            try:
                ok = close(float(g), float(w))
            except ValueError:
                ok = False
            if not ok:
                errors.append(f"{name}:{lineno}:{col + 1}: {g!r}, reference {w!r}")
    return errors


def bundle_errors(got_dir: Path, ref_dir: Path) -> list[str]:
    """Cells of every bundle file against the pinned reference bundle."""
    got_names = sorted(p.name for p in got_dir.iterdir()) if got_dir.is_dir() else []
    want_names = sorted(p.name for p in ref_dir.iterdir())
    if got_names != want_names:
        return [f"bundle files {got_names}, reference {want_names}"]
    errors = []
    for name in want_names:
        got, want = got_dir / name, ref_dir / name
        if name.endswith(".csv"):
            with open(got, newline="") as g, open(want, newline="") as w:
                errors.extend(_cell_errors(name, list(csv.reader(g)), list(csv.reader(w))))
        elif json.loads(got.read_text()) != json.loads(want.read_text()):
            errors.append(f"{name} differs from the reference")
    return errors


def bundle_digest(directory: Path) -> str:
    """sha256 over the bundle's file names and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def identical_errors(cold: Path, warm: Path) -> list[str]:
    names = sorted(p.name for p in cold.iterdir())
    if names != sorted(p.name for p in warm.iterdir()):
        return ["cold and warm bundles list different files"]
    return [f"{n}: warm bytes differ from cold" for n in names
            if (cold / n).read_bytes() != (warm / n).read_bytes()]
