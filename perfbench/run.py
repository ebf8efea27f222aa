"""zeropair benchmark: three workloads through the public CLI, gated for correctness.

Usage, from the repository root:

  python3 perfbench/run.py --workload {scan,pairstats,report} \\
      [--seed N] [--seconds S] [--trace 0|1]

Every operation is a `zeropair.cli.main` call made by perfbench/worker.py, a
separate process that imports the package from src/ as the tier-1 tests do,
with one BLAS thread.  One client runs in a closed loop: the next operation
starts when the previous one has returned.  Caches and bundles live under
.bench_work/ in the checkout and are deleted before exit.

Workloads (why each was chosen: BENCHMARK.json and perfbench/README.md):

  scan       cold cache, `zeros --q Q --T 30` for Q = 1..24 in a seeded
             order, then `zeros --q 1 --T 1000`
  pairstats  set-up scans the acceptance grid into a fresh cache; the timed
             phase runs check/paircorr on it, all warm; the seed picks the
             residue class a of each modulus for paircorr and reconstruction
  report     `zeropair report` in a fresh process on an empty cache, then in
             another fresh process on the cache the first one left

--trace 0 prints the end-to-end metrics: setup_s (median of the set-ups),
wall_s (median time of one timed repetition) and peak_rss_mb (largest peak
RSS of a process doing timed work).  --trace 1 runs one repetition untraced
and one with spans.Tracer installed, and prints the per-layer metrics, the
tracing overhead, and fails when a predicted span is missing.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when a result was
printed, and non-zero (with no result) when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gates
import spans
from worker import another_repetition

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"
WORK = ROOT / ".bench_work"

RUN_LIMIT_S = 170.0  # every worker is killed past this, so a run ends in 180 s
DEFAULT_SEED = 0

SCAN_QS = tuple(range(1, 25))
SCAN_T = 30
TALL = ("1", "1000")  # q, T of the single-character tall set
GRID_QS = (1, 3, 4, 5, 8, 12)
GRID_TS = (15, 30, 60)
GRID_XS = (2, 3, 5, 10)
INCREMENT_UT = ((5, 15), (15, 30), (30, 60))
TALL_XS = (2, 10, 100, 1000)
# the reconstruction suite asserts that the error shrinks from the first to
# the last Z; at x = 1000.5 that holds for every class of these moduli
RECONSTRUCTION_QS = (1, 3, 5)
RECONSTRUCTION_ZS = (15, 60)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def remove_work(work: Path) -> None:
    """Delete one run's work directory, and .bench_work once it is empty."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # another run's directory is still there
        pass


def units(q: int) -> list[int]:
    return [a for a in range(1, max(q, 2)) if math.gcd(a, q) == 1]


def _flags(flag: str, values) -> list[str]:
    return [s for v in values for s in (flag, str(v))]


def scan_ops(seed: int) -> list[list[str]]:
    qs = list(SCAN_QS)
    random.Random(seed).shuffle(qs)
    ops = [["zeros", "--q", str(q), "--T", str(SCAN_T)] for q in qs]
    ops.append(["zeros", "--q", TALL[0], "--T", TALL[1]])
    return [op + ["--json", "--cache-dir", "{cache}"] for op in ops]


def grid_setup_ops() -> list[list[str]]:
    ops = [["zeros", "--q", str(q), "--T", str(T)] for q in GRID_QS for T in GRID_TS]
    ops.append(["zeros", "--q", TALL[0], "--T", TALL[1]])
    return [op + ["--json", "--cache-dir", "cache"] for op in ops]


def residue_classes(seed: int) -> dict[int, int]:
    rng = random.Random(seed)
    return {q: rng.choice(units(q)) for q in GRID_QS}


def pairstats_ops(classes: dict[int, int]) -> list[list[str]]:
    """The timed operations; `classes` maps each modulus to its residue class.

    The quadrature suites stay at a = 1: their adaptive refinement depends
    on the class (3.9 to 5.2 s of work over ten seeds), which would make the
    work, not the program, set the spread between seeds.
    """
    grid = _flags("--T", GRID_TS) + _flags("--x", GRID_XS)
    ops = [["check", "--suite", "integral"] + _flags("--q", GRID_QS) + grid]
    for u, t in INCREMENT_UT:
        ops.append(["check", "--suite", "increment"] + _flags("--q", GRID_QS)
                   + ["--U", str(u), "--T", str(t)])
    for q, a in classes.items():
        ops.append(["paircorr", "--q", str(q), "--a", str(a)] + grid)
    ops.append(["paircorr", "--q", TALL[0], "--T", TALL[1]] + _flags("--x", TALL_XS))
    ops.append(["check", "--suite", "integral", "--q", TALL[0], "--x", "10", "--T", TALL[1]])
    for q in RECONSTRUCTION_QS:
        ops.append(["check", "--suite", "reconstruction", "--q", str(q), "--a", str(classes[q])]
                   + _flags("--Z", RECONSTRUCTION_ZS))
    return [op + ["--json", "--cache-dir", "cache"] for op in ops]


def report_argv(out: str) -> list[str]:
    return ["report", "--json", "--cache-dir", "cache", "--out", out]


# ------------------------------------------------------------------ processes


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("ZEROPAIR_CACHE_DIR", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts workers one at a time and waits for each; owns the work directory."""

    def __init__(self, work: Path):
        self.work = work
        self.env = worker_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self._ids = itertools.count()

    def worker(self, cwd: Path, ops=(), setup_ops=(), cache="cache", seconds=0.0,
               max_reps=None, trace=False, dump_sets=False, env=False) -> tuple[dict, float]:
        """Run one worker process; returns its result and its lifetime in seconds."""
        cwd.mkdir(parents=True, exist_ok=True)
        n = next(self._ids)
        plan_path = self.work / f"plan{n}.json"
        result_path = self.work / f"result{n}.json"
        err_path = self.work / f"stderr{n}.txt"
        plan = {"setup_ops": list(setup_ops), "ops": list(ops), "cache": cache,
                "seconds": seconds, "max_reps": max_reps, "trace": trace,
                "dump_sets": dump_sets, "env": env}
        with open(err_path, "w") as err:
            plan["t0"] = time.monotonic()
            plan_path.write_text(json.dumps(plan))
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path)],
                cwd=cwd, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"worker in {cwd.name} passed the {RUN_LIMIT_S:g} s run limit")
            elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            tail = err_path.read_text().strip().splitlines()[-5:]
            raise BenchError(f"worker exited with {proc.returncode}: " + " | ".join(tail))
        return json.loads(result_path.read_text()), elapsed


# ------------------------------------------------------------------ workloads


class Outcome:
    """What one run measured, before it is turned into metrics."""

    def __init__(self):
        self.tally = gates.Tally()
        self.setup_s: list[float] = []
        self.walls: list[float] = []
        self.rss_kb: list[int] = []
        self.notes: dict = {}
        self.env: dict = {}
        self.layers: dict | None = None


class Workload:
    name = ""
    setup_ops: list = []
    setups = 5  # set-ups per untraced run; setup_s is their median

    def __init__(self, seed: int, seconds: float, runner: Runner, refs: dict):
        self.seed, self.seconds, self.runner, self.refs = seed, seconds, runner, refs

    def gate(self, tally: gates.Tally, ops: list[dict], sets: dict) -> None:
        for op in ops:
            errors = gates.op_errors(op, sets, self.refs["zeros"], self.refs["paircorr"])
            tally.record(" ".join(op["argv"][:5]), errors)

    def set_up(self, out: Outcome, index: int) -> Path:
        """One set-up in a fresh directory; returns the directory."""
        cwd = self.runner.work / f"setup{index}"
        res, _ = self.runner.worker(cwd, setup_ops=self.setup_ops, dump_sets=bool(self.setup_ops),
                                    env=index == 0)
        out.setup_s.append(res["ready_s"])
        self.gate(out.tally, res["setup"], res["sets"].get("cache", {}))
        if res["env"]:
            out.env.update(res["env"])
        return cwd

    def timed(self, out: Outcome, cwd: Path, trace: bool, max_reps=None) -> None:
        raise NotImplementedError

    def run(self, trace: bool) -> Outcome:
        out = Outcome()
        cwd = None
        for i in range(1 if trace else self.setups):
            cwd = self.set_up(out, i)
        if not trace:
            self.timed(out, cwd, trace=False)
            return out
        self.timed(out, cwd, trace=False, max_reps=1)
        untraced = out.walls[-1]
        self.timed(out, cwd, trace=True, max_reps=1)
        out.notes["trace_overhead_frac"] = out.walls[-1] / untraced - 1.0
        return out


class InWorker(Workload):
    """Timed repetitions inside one worker process."""

    cache = "cache"
    cold_cache = False  # each repetition starts from an empty cache

    def ops(self) -> list[list[str]]:
        raise NotImplementedError

    def timed(self, out: Outcome, cwd: Path, trace: bool, max_reps=None) -> None:
        cache = ("traced-" if trace and self.cold_cache else "") + self.cache
        res, _ = self.runner.worker(
            cwd, ops=self.ops(), cache=cache, seconds=self.seconds, max_reps=max_reps,
            trace=trace, dump_sets=self.cold_cache,
        )
        for rep in res["reps"]:
            sets = res["sets"].get(rep["cache"], {})
            self.gate(out.tally, rep["ops"], sets)
            out.walls.append(sum(op["s"] for op in rep["ops"]))
            self.count(out, rep["ops"], sets)
        out.rss_kb.append(res["maxrss_kb"])
        if trace:
            out.layers = {"timed": res["layers"]}

    def count(self, out: Outcome, ops: list[dict], sets: dict) -> None:
        pass


class Scan(InWorker):
    name = "scan"
    cache = "cache{rep}"
    cold_cache = True

    def ops(self):
        return scan_ops(self.seed)

    def count(self, out, ops, sets):
        zeros = sum(s.get("count", 0) for s in sets.values())
        out.notes.setdefault("zeros_per_rep", []).append(zeros)

    def predictions(self, layers: dict) -> list[str]:
        raw = layers["timed"]
        c = raw["counts"]
        errors = []
        if spans.calls(raw, "lfunc") == 0 or c["lfunc.z_points"] == 0:
            errors.append("scan: no lfunc spans")
        if c["zeros.scans"] == 0 or c["store.writes"] == 0:
            errors.append("scan: no zeros.scan_zeros or store.write_zero_set spans")
        return errors


class PairStats(InWorker):
    name = "pairstats"
    setup_ops = grid_setup_ops()
    setups = 2  # each one scans the grid, about 8 s

    def ops(self):
        return pairstats_ops(residue_classes(self.seed))

    def count(self, out, ops, sets):
        rows = sum(len(op["out"].get("rows") or []) for op in ops if op["out"])
        out.notes.setdefault("rows_per_rep", []).append(rows)

    def predictions(self, layers: dict) -> list[str]:
        raw = layers["timed"]
        c = raw["counts"]
        errors = []
        if c["lfunc.z_points"] != 0 or spans.calls(raw, "lfunc") != 0:
            errors.append(f"pairstats: lfunc ran ({c['lfunc.z_points']} Z points) on a warm cache")
        if c["store.lookups"] == 0 or c["store.hits"] != c["store.lookups"]:
            errors.append(f"pairstats: store.hit_frac is {c['store.hits']}/{c['store.lookups']}, not 1")
        for layer in ("paircorr", "explicit"):
            if spans.calls(raw, layer) == 0:
                errors.append(f"pairstats: no {layer} spans")
        if c["paircorr.pair_terms"] == 0 or c["paircorr.quad_nodes"] == 0:
            errors.append("pairstats: no paircorr pair terms or quadrature nodes counted")
        return errors


class Report(Workload):
    name = "report"

    def timed(self, out: Outcome, cwd: Path, trace: bool, max_reps=None) -> None:
        start = time.monotonic()
        reps = 0
        while True:
            self.one_pass(out, trace, reps)
            reps += 1
            if not another_repetition(time.monotonic() - start, reps, self.seconds, max_reps):
                break

    def one_pass(self, out: Outcome, trace: bool, index: int) -> None:
        cwd = self.runner.work / f"report{index}{'t' if trace else ''}"
        times, raws = {}, {}
        for phase in ("cold", "warm"):
            res, elapsed = self.runner.worker(cwd, ops=[report_argv(phase)], seconds=0.0,
                                              max_reps=1, trace=trace)
            op = res["reps"][0]["ops"][0]
            errors = gates.exit_errors(op)
            if not errors:
                errors = gates.bundle_errors(cwd / phase, REFERENCE / "report")
            if phase == "warm" and not errors:
                errors = gates.identical_errors(cwd / "cold", cwd / "warm")
            out.tally.record(f"report {phase}", errors)
            out.notes.setdefault(f"report_{phase}_s", []).append(elapsed)
            if (cwd / phase).is_dir():
                out.notes[f"sha256_{phase}"] = gates.bundle_digest(cwd / phase)
            out.rss_kb.append(res["maxrss_kb"])
            times[phase] = elapsed
            raws[phase] = res["layers"]
        out.walls.append(times["cold"] + times["warm"])
        if trace:
            out.layers = raws
        shutil.rmtree(cwd)

    def predictions(self, layers: dict) -> list[str]:
        cold, warm = layers["cold"], layers["warm"]
        errors = []
        if spans.calls(cold, "lfunc") == 0 or cold["counts"]["store.writes"] == 0:
            errors.append("report cold: no lfunc spans or cache writes on an empty cache")
        if spans.calls(warm, "lfunc") != 0:
            errors.append(f"report warm: {spans.calls(warm, 'lfunc')} lfunc spans on a filled cache")
        wc = warm["counts"]
        if wc["store.lookups"] == 0 or wc["store.hits"] != wc["store.lookups"]:
            errors.append(f"report warm: store.hit_frac is {wc['store.hits']}/{wc['store.lookups']}")
        for raw in (cold, warm):
            if spans.calls(raw, "conjectures") == 0 or raw["counts"]["conjectures.class_evals"] == 0:
                errors.append("report: no conjectures spans")
        return errors


WORKLOADS = {"scan": Scan, "pairstats": PairStats, "report": Report}


# ------------------------------------------------------------------ output


def load_references() -> dict:
    return {
        "zeros": json.loads((REFERENCE / "zeros.json").read_text()),
        "paircorr": json.loads((REFERENCE / "paircorr.json").read_text()),
    }


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return info


def end_to_end(out: Outcome) -> dict:
    return {
        "setup_s": (statistics.median(out.setup_s), "s"),
        "wall_s": (statistics.median(out.walls), "s"),
        "peak_rss_mb": (max(out.rss_kb) * 1024 / 1e6, "MB"),
    }


def per_layer(out: Outcome) -> dict:
    metrics = spans.layer_metrics(spans.merge(list(out.layers.values())))
    metrics["trace.overhead_frac"] = (out.notes["trace_overhead_frac"], "fraction")
    return metrics


def print_summary(name: str, args, out: Outcome, metrics: dict) -> None:
    wall = statistics.median(out.walls)
    lines = [
        f"workload {name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}",
        f"env {json.dumps({**machine(), **out.env}, sort_keys=True)}",
        f"set-ups {len(out.setup_s)}: " + " ".join(f"{s:.3f}" for s in out.setup_s) + " s",
        f"timed repetitions {len(out.walls)}: " + " ".join(f"{w:.3f}" for w in out.walls) + " s",
        f"attempted {out.tally.attempted} failed {out.tally.failed} "
        f"failed_frac {out.tally.failed_frac:.4f}",
    ]
    if "zeros_per_rep" in out.notes:
        zeros = out.notes["zeros_per_rep"][0]
        lines.append(f"zeros_per_s {zeros / wall:.2f} 1/s ({zeros} certified zeros per repetition)")
    if "rows_per_rep" in out.notes:
        rows = out.notes["rows_per_rep"][0]
        lines.append(f"evals_per_s {rows / wall:.2f} 1/s ({rows} statistic rows per repetition)")
    for phase in ("cold", "warm"):
        if f"report_{phase}_s" in out.notes:
            lines.append(f"report_{phase}_s {statistics.median(out.notes[f'report_{phase}_s']):.4f} s "
                         f"sha256 {out.notes.get(f'sha256_{phase}')}")
    for key, (value, unit) in metrics.items():
        lines.append(f"metric {key} {value:.6g} {unit}")
    if out.layers:
        merged = spans.merge(list(out.layers.values()))
        top = sorted(merged["names"].items(), key=lambda kv: -kv[1][2])[:12]
        lines.append("spans by self time: " + ", ".join(
            f"{n} {own:.3f}s/{calls}" for n, (calls, _, own) in top))
    lines.extend(f"gate failure {e}" for e in out.tally.errors)
    print("\n".join(lines))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zeropair" / "cli.py").is_file():
        print(f"error: no zeropair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (REFERENCE / "zeros.json").is_file():
        print(f"error: reference outputs missing under {REFERENCE}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.seconds, Runner(work), load_references())
        out = workload.run(trace=bool(args.trace))
        if args.trace:
            missing = workload.predictions(out.layers)
            if missing:
                raise spans.TraceError("; ".join(missing))
            metrics = per_layer(out)
        else:
            metrics = end_to_end(out)
    except (BenchError, spans.TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        remove_work(work)

    print_summary(args.workload, args, out, metrics)
    result = {
        "correct": out.tally.failed == 0,
        "attempted": out.tally.attempted,
        "failed": out.tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
