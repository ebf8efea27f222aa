"""One benchmark process: import the zeropair CLI from src/, run operations, report.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

The parent (run.py) starts this with src/ on PYTHONPATH, the same way the
tier-1 tests import the package, and with the pass directory as the working
directory.  PLAN.json holds:

  t0          the parent's time.monotonic() just before it started this process
  setup_ops   argument lists run first; they count as set-up
  ops         argument lists of one timed repetition; "{cache}" is replaced
              by the repetition's cache directory
  cache       cache directory pattern, formatted with rep=<index>
  seconds     start another repetition only if it should end within this
              budget, counted from the first timed operation; at least one runs
  max_reps    upper bound on repetitions (null: none)
  trace       wrap the program's layers with spans.Tracer during the timed ops
  dump_sets   after the timed ops, read back every cached zero set
  env         record library versions and BLAS threads (kept out of timed
              processes, whose lifetime is itself a measurement)

Each operation is one call of zeropair.cli.main with its standard output
captured; its time is the wall time of that call.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def another_repetition(elapsed: float, reps: int, seconds: float, max_reps) -> bool:
    """Whether one more repetition, as long as the mean so far, should end within seconds."""
    if max_reps and reps >= max_reps:
        return False
    return elapsed * (reps + 1) / reps <= seconds


def run_op(cli, argv: list[str]) -> dict:
    """One call of cli.main, looked up at call time so that a traced run sees the wrapper."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # recorded as a failed operation; the loop goes on
        rc = -1
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    try:
        summary = json.loads(out.getvalue())
    except ValueError:
        summary = None
    return {"argv": argv, "rc": rc, "s": elapsed, "out": summary, "err": err.getvalue()[-2000:]}


def dump_sets(cache_dir: Path) -> dict:
    """Every zero set under cache_dir, read back through the public reader."""
    from zeropair.store import ZeroCacheError, read_zero_set

    sets = {}
    for path in sorted(cache_dir.rglob("*.zc")):
        try:
            zs = read_zero_set(path)
        except ZeroCacheError as exc:
            sets[str(path)] = {"error": str(exc)}
            continue
        sets[f"{zs.label}@{zs.height:g}"] = {
            "count": zs.count,
            "certified": bool(zs.certified),
            "tolerance": zs.tolerance,
            "ordinates": [float(t) for t in zs.ordinates],
        }
    return sets


def blas_threads() -> dict:
    """Thread counts reported by every OpenBLAS library loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy
    import zeropair

    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "zeropair": str(Path(zeropair.__file__).parent),
    }


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    import zeropair.cli as cli

    setup = [run_op(cli, argv) for argv in plan["setup_ops"]]
    ready_s = time.monotonic() - plan["t0"]

    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    reps = []
    start = time.monotonic()
    while plan["ops"]:
        cache = plan["cache"].format(rep=len(reps))
        ops = [run_op(cli, [a.replace("{cache}", cache) for a in argv]) for argv in plan["ops"]]
        reps.append({"cache": cache, "ops": ops})
        if not another_repetition(time.monotonic() - start, len(reps), plan["seconds"],
                                  plan["max_reps"]):
            break
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.raw()

    sets = {}
    if plan["dump_sets"]:
        caches = [plan["cache"].format(rep=0)] if not reps else [r["cache"] for r in reps]
        sets = {c: dump_sets(Path(c)) for c in caches}

    result = {
        "ready_s": ready_s,
        "setup": setup,
        "reps": reps,
        "layers": layers,
        "sets": sets,
        "env": environment() if plan["env"] else None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
