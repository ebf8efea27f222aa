"""Negative self-tests of the benchmark's correctness gates.

Usage, from the repository root:  python3 perfbench/selftest.py

On tiny inputs (the zero sets of q = 3 at T = 15, one check at q = 4, and
the pinned report bundle) each gate must pass the untouched output and trip
on a broken copy, and each trip must raise failed_frac:

- a zero set with one ordinate dropped, and one with an ordinate moved by
  more than 2x the scan tolerance
- a check suite that exits 3 (a tolerance no quadrature can meet)
- a report bundle with one mutated cell
- a warm bundle whose bytes differ from the cold one

Exits 0 when every gate behaved so, 1 otherwise.
"""

from __future__ import annotations

import copy
import csv
import os
import shutil
import sys

import gates
import run


def trip(name: str, untouched: list[str], broken: list[str]) -> bool:
    tally = gates.Tally()
    tally.record(f"{name} (untouched)", untouched)
    before = tally.failed_frac
    tally.record(f"{name} (broken)", broken)
    ok = not untouched and bool(broken) and tally.failed_frac > before
    print(f"{'ok  ' if ok else 'FAIL'} {name}: failed_frac {before:.2f} -> {tally.failed_frac:.2f}"
          f" ({broken[0] if broken else 'gate did not trip'})")
    for error in untouched:
        print(f"     untouched output failed: {error}")
    return ok


def main() -> int:
    work = run.WORK / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        tail = ["--json", "--cache-dir", "{cache}"]
        check = ["check", "--suite", "integral", "--q", "4", "--x", "3", "--T", "15"]
        res, _ = run.Runner(work).worker(
            work / "ops", ops=[["zeros", "--q", "3", "--T", "15"] + tail, check + tail,
                               check + ["--tol", "1e-30"] + tail],
            max_reps=1, dump_sets=True,
        )
        zeros_op, check_op, failing_check = res["reps"][0]["ops"]
        sets = res["sets"]["cache"]
        ref = {k: {"tolerance": v["tolerance"], "ordinates": v["ordinates"]} for k, v in sets.items()}
        reported = {gates.set_key(r["inducer"], r["T"]) for r in zeros_op["out"]["rows"]}
        key = max(reported, key=lambda k: sets[k]["count"])
        dropped = copy.deepcopy(sets)
        dropped[key]["ordinates"].pop(len(dropped[key]["ordinates"]) // 2)
        dropped[key]["count"] -= 1
        moved = copy.deepcopy(sets)
        moved[key]["ordinates"][0] += 3.0 * ref[key]["tolerance"]

        cold, warm = work / "cold", work / "warm"
        shutil.copytree(run.REFERENCE / "report", cold)
        shutil.copytree(run.REFERENCE / "report", warm)
        with open(warm / "thm_ratio.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][4] = repr(float(rows[1][4]) * (1 + 1e-6))
        with open(warm / "thm_ratio.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)

        results = [
            trip("zero set with one ordinate dropped",
                 gates.zeros_op_errors(zeros_op, sets, ref), gates.zeros_op_errors(zeros_op, dropped, ref)),
            trip("zero set with one ordinate moved 3x the tolerance",
                 gates.zeros_op_errors(zeros_op, sets, ref), gates.zeros_op_errors(zeros_op, moved, ref)),
            trip("check suite exiting 3",
                 gates.check_op_errors(check_op), gates.check_op_errors(failing_check)),
            trip("report bundle with one mutated cell",
                 gates.bundle_errors(cold, run.REFERENCE / "report"),
                 gates.bundle_errors(warm, run.REFERENCE / "report")),
            trip("warm bundle differing from the cold one",
                 gates.identical_errors(cold, run.REFERENCE / "report"), gates.identical_errors(cold, warm)),
        ]
    finally:
        run.remove_work(work)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
