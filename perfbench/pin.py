"""Regenerate the benchmark's reference outputs in perfbench/reference/.

Usage, from the repository root:  python3 perfbench/pin.py

Run it only when a change is meant to alter the program's outputs, and
say so in that change.  It writes

  zeros.json      every zero set the scan and pairstats workloads produce:
                  scan tolerance and ordinates, keyed "q:index@T"
  paircorr.json   ReF, ImF of every paircorr row of pairstats, for every
                  residue class of every modulus, so that any seed is checked
  report/         the bundle of `zeropair report`

and fails if any check suite of pairstats does not pass for some class.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import gates
import run


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def _clean(ops: list[dict]) -> None:
    for op in ops:
        errors = gates.check_op_errors(op) if op["argv"][0] == "check" else gates.exit_errors(op)
        if errors:
            _fail(f"{' '.join(op['argv'])}: {errors} {op['err'][-500:]}")


def main() -> int:
    work = run.WORK / f"pin-{os.getpid()}"
    work.mkdir(parents=True)
    runner = run.Runner(work)
    runner.deadline += 1800.0
    try:
        scan, _ = runner.worker(work / "scan", ops=run.scan_ops(run.DEFAULT_SEED),
                                cache="cache", max_reps=1, dump_sets=True)
        _clean(scan["reps"][0]["ops"])
        grid, _ = runner.worker(work / "grid", setup_ops=run.grid_setup_ops(), dump_sets=True)
        _clean(grid["setup"])
        sets = {**scan["sets"]["cache"], **grid["sets"]["cache"]}
        bad = [k for k, v in sets.items() if not v.get("certified")]
        if bad:
            _fail(f"uncertified or unreadable zero sets: {bad}")

        paircorr = {}
        widest = max(len(run.units(q)) for q in run.GRID_QS)
        for i in range(widest):
            classes = {q: run.units(q)[i % len(run.units(q))] for q in run.GRID_QS}
            res, _ = runner.worker(work / "grid", ops=run.pairstats_ops(classes), max_reps=1)
            ops = res["reps"][0]["ops"]
            _clean(ops)
            for op in ops:
                if op["argv"][0] == "paircorr":
                    for row in op["out"]["rows"]:
                        key = gates.paircorr_key(row["q"], row["a"], row["x"], row["T"])
                        paircorr[key] = [row["ReF"], row["ImF"]]

        rep, _ = runner.worker(work / "report", ops=[run.report_argv("cold")], max_reps=1)
        _clean(rep["reps"][0]["ops"])

        run.REFERENCE.mkdir(exist_ok=True)
        lines = [f"{json.dumps(k)}: {json.dumps({'tolerance': v['tolerance'], 'ordinates': v['ordinates']})}"
                 for k, v in sorted(sets.items())]
        (run.REFERENCE / "zeros.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
        lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(paircorr.items())]
        (run.REFERENCE / "paircorr.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
        shutil.rmtree(run.REFERENCE / "report", ignore_errors=True)
        shutil.copytree(work / "report" / "cold", run.REFERENCE / "report")
        print(f"pinned {len(sets)} zero sets, {len(paircorr)} paircorr rows, "
              f"report bundle {gates.bundle_digest(run.REFERENCE / 'report')}")
    finally:
        run.remove_work(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
