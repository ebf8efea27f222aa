"""Command-line front end: one executable, one subcommand per operation.

The table _COMMANDS is the command line: each subcommand's help line, its
handler and its flags, marked where they repeat or take a default, over the
table _FLAGS, which defines each flag once.

Each subcommand's handler checks its flags and returns (params, work):
params is what a dry run prints and a run's summary carries, and work(cfg)
computes the rows.  main alone decides --dry-run, so a dry run rejects
exactly what a run rejects.

Settings resolve in order: built-in defaults, then the ZEROPAIR_CACHE_DIR
environment variable, then the --config key=value file, then flags.  Every
run with the same resolved settings and inputs writes byte-identical
output; nothing here consumes a random seed or the clock.

Exit codes: 0 success, 2 for invalid input or unknown flags, 3 when a
certification or numeric error budget could not be met.  With --json the
standard output is a single machine-readable summary object; otherwise
tables go to stdout (or --out) in the configured format.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from zeropair.characters import (
    CharacterLabel,
    character,
    enumerate_characters,
    euler_phi,
    require_tabulable,
    require_unit,
)
from zeropair.conjectures import (
    dyadic_profile,
    eh_sums,
    montgomery_table,
    weak_form_table,
)
from zeropair.explicit import psi_progression_from_zeros
from zeropair.lfunc import (
    BERNOULLI_TERMS,
    TARGET_ABS_ERROR,
    EvalPrecision,
    PrecisionError,
    mesh_interpolation,
)
from zeropair.paircorr import (
    CertificationError,
    f_q,
    f_q_via_integral,
    f_zeta_ratio,
    gue_density,
    increment_identity_check,
    spacing_histogram,
)
from zeropair.sieve import psi_character, psi_progression, require_in_range
from zeropair.store import TABLE_FORMATS, ZeroCache, ZeroCacheError, emit_table, json_cell
from zeropair.zeros import (
    DEFAULT_TOLERANCE,
    WINDOWS,
    check_scan_parameters,
    zeros_for_characters,
    zeros_for_modulus,
)

__all__ = ["RunConfig", "main"]

_ZETA = CharacterLabel(1, 1)

# fixed grids behind `report`, written verbatim to its manifest.json and
# documented in the README so the bundle is reproducible without reading this file
_REPORT_GRIDS = {
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

_SUITE_TOL = {"integral": 1e-4, "increment": 1e-4, "orthogonality": 1e-8}


@dataclass(frozen=True)
class RunConfig:
    """Run-wide settings.  Defaults:

    cache_dir      "cache" (ZEROPAIR_CACHE_DIR overrides, flag wins)
    tolerance      1e-10   zero-refinement tolerance, below the mesh step
    rel_tol        1e-6    identity checks' discretization bound / max(|rhs|, 1), in (0, 1)
    mesh_step      none    scan mesh override in (0, 0.5]; none = the default 0.05
    threads        1       worker pool for independent zero scans
    format         csv     table output format (csv or json)
    """

    cache_dir: Path = Path("cache")
    tolerance: float = DEFAULT_TOLERANCE
    rel_tol: float = 1e-6
    mesh_step: float | None = None
    threads: int = 1
    format: str = "csv"

    def __post_init__(self):
        # the one check of every setting, so that --dry-run rejects what a run rejects
        if self.format not in TABLE_FORMATS:
            raise ValueError(f"format must be {' or '.join(TABLE_FORMATS)}, got {self.format!r}")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if not 0 < self.rel_tol < 1:
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        check_scan_parameters(self.mesh_step, self.tolerance)

    def manifest(self) -> dict:
        return {**asdict(self), "cache_dir": str(self.cache_dir), "deterministic": True}


_CONFIG_COERCERS = {
    "cache_dir": Path,
    "tolerance": float,
    "rel_tol": float,
    "mesh_step": lambda raw: None if raw.strip().lower() == "none" else float(raw),
    "threads": int,
    "format": str,
}


def parse_config_file(path: Path) -> dict:
    """Read `key = value` lines; # starts a comment, blank lines ignored."""
    out = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_COERCERS:
            known = ", ".join(sorted(_CONFIG_COERCERS))
            raise ValueError(f"{path}:{lineno}: unknown key {key!r} (known: {known})")
        out[key] = _CONFIG_COERCERS[key](value)
    return out


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    env_cache = os.environ.get("ZEROPAIR_CACHE_DIR")
    if env_cache:
        values["cache_dir"] = Path(env_cache)
    if getattr(args, "config", None) is not None:
        values.update(parse_config_file(args.config))
    for key in _CONFIG_COERCERS:  # the keys a flag also sets: cache_dir, format, threads
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    return RunConfig(**values)


@dataclass
class _Result:
    rows: list | None
    summary: dict
    exit_code: int = 0
    lines: list = field(default_factory=list)


def _parse_chi(spec: str):
    """The character named by a --chi spec q:index."""
    try:
        q, index = map(int, spec.split(":"))
    except ValueError:
        raise ValueError(f"--chi wants integers q:index, got {spec!r}") from None
    return character(q, index)


def _grid(args, key: str, default=None) -> list:
    """A repeatable flag's sorted distinct values, else its default, else an error."""
    values = getattr(args, key)
    if values:
        return sorted(set(values))
    if default is None:
        raise ValueError(f"{args.command} needs at least one --{key}")
    return list(default)


def _sieve_x(x, floor: float = 1.0):
    """x (one value or a sorted grid), every value above floor and within sieve.MAX_X."""
    lo, hi = (x[0], x[-1]) if isinstance(x, list) else (x, x)
    if lo is None or lo <= floor:
        raise ValueError(f"--x must exceed {floor:g}")
    require_in_range(hi)
    return x


def _moduli(args) -> list:
    """The moduli 1..Q of --Q or the --q grid, each positive with --a, if given, a unit."""
    if (args.Q is None) == (not args.q):
        raise ValueError("give exactly one of --Q and --q")
    qs = _grid(args, "q") if args.q else list(range(1, args.Q + 1))
    if not qs:
        raise ValueError("--Q must be positive")
    for q in qs:
        require_unit(q, 1 if args.a is None else args.a)
    return qs


def _zero_sets(cfg: RunConfig, q: int, T: float, force: bool = False) -> dict:
    """Zero sets of every character mod q to height T, through the cache."""
    return zeros_for_modulus(q, T, cfg.mesh_step, cfg.tolerance, cache=ZeroCache(cfg.cache_dir),
                             force=force, threads=cfg.threads)


def _montgomery_rows(xs, qs, a) -> list:
    rows = []
    for r in montgomery_table(xs, qs, a=a):
        rows.append(
            {
                "x": r.x,
                "q": r.q,
                "a": r.a,
                "error": r.error,
                "normalizer": r.normalizer,
                "normalized": r.normalized,
                "impliedEpsilon": r.implied_epsilon,
                "grhRatio": r.grh_ratio,
                "regime": ("classical" if r.q == 1
                           else "below-sqrt" if r.q * r.q <= r.x else "above-sqrt"),
            }
        )
    return rows


def _dyadic_rows(prof) -> list:
    rows = []
    base = {"x": prof.x, "q": prof.q, "a": prof.a, "eps": prof.eps, "J": prof.depth}
    for j, (err, scaled) in enumerate(zip(prof.block_errors, prof.block_normalized)):
        rows.append({**base, "piece": "block", "j": j, "error": err, "normalized": scaled})
    tail_scale = math.sqrt(prof.x / (2**prof.depth * prof.q))
    rows.append(
        {**base, "piece": "tail", "j": prof.depth,
         "error": prof.tail_error, "normalized": prof.tail_error / tail_scale}
    )
    rows.append(
        {**base, "piece": "total", "j": -1,
         "error": prof.total_error,
         "normalized": prof.total_error / math.sqrt(prof.x / prof.q)}
    )
    return rows


def _paircorr_row(res) -> dict:
    return {
        "q": res.q,
        "a": res.a,
        "x": res.x,
        "T": res.T,
        "ReF": res.value.real,
        "ImF": res.value.imag,
        "ratio_to_thm15": res.thm_ratio if res.thm_ratio is not None else math.nan,
        "trivialBoundRatio": res.trivial_ratio if res.trivial_ratio is not None else math.nan,
    }


# ---------------------------------------------------------------- handlers


def _cmd_zeros(args):
    if args.T is None or args.T <= 0:
        raise ValueError("--T must be positive")
    if (args.chi is None) == (args.q is None):
        raise ValueError("zeros needs --q or --chi, and --chi excludes --q")
    chars = [_parse_chi(args.chi)] if args.chi is not None else enumerate_characters(args.q)

    def work(cfg: RunConfig) -> _Result:
        cache = ZeroCache(cfg.cache_dir)
        if args.chi is not None:
            sets = zeros_for_characters(chars, args.T, cfg.mesh_step, cfg.tolerance, cache=cache,
                                        force=args.force, threads=cfg.threads)
        else:
            sets = _zero_sets(cfg, args.q, args.T, force=args.force)
        rows = []
        all_certified = True
        for chi in chars:
            zs = sets[chi.label]
            all_certified &= zs.certified
            rows.append(
                {
                    "q": chi.modulus,
                    "index": chi.index,
                    "conductor": chi.conductor,
                    "inducer": str(zs.label),
                    "T": args.T,
                    "count": zs.count,
                    "expected": zs.expected_count,
                    "certified": zs.certified,
                    "file": str(cache.path_for(zs.label, args.T)),
                }
            )
        prec = EvalPrecision.for_height(args.T)
        em = {
            "direct_terms": prec.direct_terms,
            "bernoulli_terms": BERNOULLI_TERMS,
            "target_abs_error": TARGET_ABS_ERROR,
        }
        # the highest interpolation order of the scanned meshes, from their
        # parameters alone, so a run served from the cache reports it too;
        # a plan depends on the set only through its modulus and mesh step
        meshes = {(zs.label.modulus, zs.mesh_step) for zs in sets.values()}
        plan = max((mesh_interpolation(q, args.T, step, prec) for q, step in meshes),
                   key=lambda m: (m.order, m.truncation))
        interp = {"order": plan.order, "truncation_bound": plan.truncation,
                  "target": TARGET_ABS_ERROR}
        code = 0 if all_certified else 3
        return _Result(rows, {"certified": all_certified, "em": em, "interp": interp}, code)

    return {"T": args.T, "characters": [str(c.label) for c in chars]}, work


def _cmd_psi(args):
    x = _sieve_x(args.x, 0.0)
    if args.chi is None:
        q = args.q if args.q is not None else 1
        a = args.a if args.a is not None else 1
        require_unit(q, a)
        params = {"x": x, "q": q, "a": a}
        return params, lambda cfg: [{**params, "psi": psi_progression(x, q, a)}]
    if args.q is not None or args.a is not None:
        raise ValueError("--chi excludes --q/--a")
    chi = _parse_chi(args.chi)

    def work(cfg: RunConfig) -> list:
        val = psi_character(x, chi)
        return [{"x": x, "q": chi.modulus, "index": chi.index,
                 "re": val.real, "im": val.imag}]

    return {"x": x, "chi": str(chi.label)}, work


def _cmd_paircorr(args):
    q, a = args.q, args.a
    require_unit(q, a)
    require_tabulable(q)
    xs, ts = _grid(args, "x"), _grid(args, "T")
    _pair_grid({"x": xs, "T": ts})

    def work(cfg: RunConfig) -> list:
        rows = []
        for T in ts:
            sets = _zero_sets(cfg, q, T)
            for x in xs:
                res = f_q(q, a, x, T, sets, window=args.window)
                rows.append(_paircorr_row(res))
        return rows

    return {"q": q, "a": a, "x": xs, "T": ts, "window": args.window}, work


def _cmd_explicit(args):
    q, a = args.q, args.a
    require_unit(q, a)
    require_tabulable(q)
    xs, zs = _grid(args, "x"), _grid(args, "Z")
    _sieve_grid({"x": xs, "Z": zs}, least_z=1)

    def work(cfg: RunConfig) -> list:
        return [{"x": run.x, "Z": run.z, "q": run.q, "a": run.a,
                 "reconstructed": run.reconstructed, "exact": run.exact,
                 "absError": run.abs_error, "budget": run.error_budget}
                for runs in _explicit_runs(cfg, q, a, xs, zs) for run in runs]

    return {"q": q, "a": a, "x": xs, "Z": zs}, work


def _cmd_montgomery(args):
    xs = _sieve_x(_grid(args, "x"))
    qs = _moduli(args)
    return {"x": xs, "q": qs, "a": args.a}, lambda cfg: _montgomery_rows(xs, qs, args.a)


def _eh_rows(xs, Qs) -> list:
    rows = []
    for x in xs:
        for Q, val in zip(Qs, eh_sums(x, Qs)):
            rows.append({"x": x, "Q": Q, "value": val, "valueOverX": val / x})
    return rows


def _cmd_eh(args):
    x = _sieve_x(args.x)
    qs = _grid(args, "Q")
    if qs[0] < 1 or qs[-1] >= x:
        raise ValueError("need 1 <= Q < x")
    return {"x": x, "Q": qs}, lambda cfg: _eh_rows((x,), qs)


def _weak_rows(x, qs, alphas, a) -> list:
    return [asdict(r) for alpha in alphas for r in weak_form_table(x, qs, alpha, a=a)]


def _cmd_weak(args):
    x = _sieve_x(args.x)
    alphas = _grid(args, "alpha")
    if alphas[0] < 0.0 or alphas[-1] > 1.0:
        raise ValueError(f"every alpha must lie in [0, 1], got {alphas}")
    qs = _moduli(args)
    params = {"x": x, "q": qs, "a": args.a, "alpha": alphas}
    return params, lambda cfg: _weak_rows(x, qs, alphas, args.a)


def _cmd_dyadic(args):
    x = _sieve_x(args.x)
    q, a = args.q, args.a
    require_unit(q, a)
    eps = args.eps
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if q > x ** (1.0 - eps):
        raise ValueError(f"need q <= x^(1-eps) = {x ** (1.0 - eps):g}, got q={q}")
    params = {"x": x, "q": q, "a": a, "eps": eps}
    return params, lambda cfg: _dyadic_rows(dyadic_profile(x, q, a, eps))


def _integral_rows(q, a, grid, cfg):
    for T in grid["T"]:
        sets = _zero_sets(cfg, q, T)
        for x in grid["x"]:
            res = f_q_via_integral(q, a, x, T, sets, cfg.rel_tol)
            yield {"x": x, "T": T}, (), f"x={x:g} T={T:g}", res.rel_residual


def _increment_rows(q, a, grid, cfg):
    for u, t in grid["UT"]:
        sets = _zero_sets(cfg, q, t)
        for x in grid["x"]:
            res = increment_identity_check(x, t, u, q, a, sets, cfg.rel_tol)
            yield {"x": x, "U": u, "T": t}, (), f"x={x:g} U={u:g} T={t:g}", res.rel_residual


def _orthogonality_rows(q, a, grid, cfg):
    for x in grid["x"]:
        combined = (
            sum(chi(a).conjugate() * psi_character(x, chi) for chi in enumerate_characters(q))
            / euler_phi(q)
        )
        residual = abs(combined - psi_progression(x, q, a))
        yield {"x": x}, (), f"x={x:g}", residual


def _explicit_runs(cfg: RunConfig, q: int, a: int, xs, zs) -> list:
    """psi_progression_from_zeros for each x, one list over zs per x, on the
    zero sets to max(zs): the rows of explicit and the reconstruction suite."""
    sets = _zero_sets(cfg, q, max(zs))
    return [[psi_progression_from_zeros(x, z, q, a, sets) for z in zs] for x in xs]


def _reconstruction_rows(q, a, grid, cfg):
    zs = grid["Z"]
    for x, runs in zip(grid["x"], _explicit_runs(cfg, q, a, grid["x"], zs)):
        errs = [run.abs_error for run in runs]
        notes = [f"x={x:g} Z={z:g} absError={err:.6f}" for z, err in zip(zs, errs)]
        fields = {"x": x, "firstZ": zs[0], "lastZ": zs[-1],
                  "firstErr": errs[0], "lastErr": errs[-1]}
        text = f"x={x:g} Z={zs[0]:g}->{zs[-1]:g} err={errs[0]:.4f}->{errs[-1]:.4f}"
        yield fields, notes, text, errs[-1] < errs[0]


def _pair_grid(grid: dict) -> dict:
    """The x and T rule of f_q, for paircorr and the integral suite."""
    if min(grid["x"]) < 2 or min(grid["T"]) <= 0:
        raise ValueError("need every x >= 2 and every T > 0")
    return grid


def _increment_grid(grid: dict) -> dict:
    pairs = [(u, t) for u in grid["U"] for t in grid["T"] if u < t]
    if not pairs or min(grid["U"]) < 0 or min(grid["x"]) <= 0:
        raise ValueError("increment needs every x > 0, every U >= 0 and a pair with U < T")
    return {"x": grid["x"], "UT": pairs}


def _sieve_grid(grid: dict, least_z: int = 0) -> dict:
    """The grid rule where x reaches the sieve: x within MAX_X, and least_z or
    more truncations Z, each with 2 <= Z <= x, for a zero-sum reconstruction."""
    zs = grid.get("Z", ())
    if len(zs) < least_z or zs and (zs[0] < 2.0 or zs[-1] > grid["x"][0]):
        raise ValueError(f"need {least_z} or more --Z, each with 2 <= Z <= x")
    _sieve_x(grid["x"], 0.0)
    return grid


# suite -> (default grid per flag, grid step, row generator).  A suite reads the
# grid flags of its default grid, and --tol only if it has a _SUITE_TOL entry.
# The grid step applies every rule the rows apply at run time and gives the
# dry-run params.  A generator yields (row fields, note lines, verdict text,
# outcome) for one modulus: the outcome is the residual for suites with a
# tolerance, and the pass/fail verdict itself otherwise.
_SUITES = {
    "integral": ({"x": (3.0,), "T": (15.0,)}, _pair_grid, _integral_rows),
    "increment": ({"x": (3.0,), "U": (5.0,), "T": (15.0,)}, _increment_grid, _increment_rows),
    "orthogonality": ({"x": (1000.5,)}, _sieve_grid, _orthogonality_rows),
    "reconstruction": ({"x": (1000.5,), "Z": (30.0, 100.0)}, lambda grid: _sieve_grid(grid, 2),
                       _reconstruction_rows),
}


def _cmd_check(args):
    suite, a = args.suite, args.a
    defaults, make_grid, suite_rows = _SUITES[suite]
    unread = {key for grid, _, _ in _SUITES.values() for key in grid} - set(defaults)
    for key in sorted(unread) + ([] if suite in _SUITE_TOL else ["tol"]):
        if getattr(args, key) is not None:
            raise ValueError(f"the {suite} suite does not read --{key}")
    tol = args.tol if args.tol is not None else _SUITE_TOL.get(suite)
    if tol is not None and tol <= 0:
        raise ValueError(f"--tol must be positive, got {tol}")
    qs = _grid(args, "q", (4,))
    for q in qs:
        require_unit(q, a)
        require_tabulable(q)
    grid = make_grid({key: _grid(args, key, d) for key, d in defaults.items()})
    params = {"suite": suite, "q": qs, "a": a, **grid}
    if tol is not None:
        params["tol"] = tol

    def work(cfg: RunConfig) -> _Result:
        rows: list = []
        lines: list = []
        failed = False
        for q in qs:
            head = f"{suite} q={q} a={a}"
            for fields, notes, text, outcome in suite_rows(q, a, grid, cfg):
                ok = outcome
                if tol is not None:
                    ok = outcome < tol
                    fields = {**fields, "residual": outcome, "tol": tol}
                    text += f" residual={outcome:.3e} tol={tol:.1e}"
                failed |= not ok
                rows.append({"suite": suite, "q": q, "a": a, **fields, "passed": ok})
                lines.extend(f"{head} {note}" for note in notes)
                lines.append(f"{head} {text} {'PASS' if ok else 'FAIL'}")
        return _Result(rows, {"passed": not failed}, 3 if failed else 0, lines)

    return params, work


def _report_row(res) -> dict:
    """A paircorr row with the report's window and regime columns."""
    regime = "in-range" if res.in_classical_range else "extrapolated"
    return {**_paircorr_row(res), "window": res.window, "regime": regime}


def _cmd_report(args):
    out_dir = args.out if args.out is not None else Path("report")

    def work(cfg: RunConfig) -> _Result:
        out_dir.mkdir(parents=True, exist_ok=True)
        files = []

        grids = _REPORT_GRIDS

        def write(name: str, rows: list) -> None:
            emit_table(rows, out_dir / name, "csv")
            files.append(name)

        # single-modulus ratio ladder, positive window
        zset = _zero_sets(cfg, 1, 100.0)[_ZETA]
        zrows = [_report_row(f_zeta_ratio(x, 100.0, zset)) for x in grids["zeta_xs"]]
        write("zeta_ratio_T100.csv", zrows)

        # character-weighted ratio grid, symmetric window
        trows = []
        for q in grids["thm_qs"]:
            for T in grids["thm_Ts"]:
                sets = _zero_sets(cfg, q, T)
                for x in grids["thm_xs"]:
                    trows.append(_report_row(f_q(q, 1, x, T, sets)))
        write("thm_ratio.csv", trows)

        # scaled-gap histogram with the conjectured overlay
        hist_grid = grids["histogram"]
        alpha, beta, bins = hist_grid["alpha"], hist_grid["beta"], hist_grid["bins"]
        hist = spacing_histogram(zset, 100.0, alpha, beta, bins)
        width = (beta - alpha) / bins
        hrows = []
        for i in range(bins):
            lo = float(hist.bin_edges[i])
            hi = float(hist.bin_edges[i + 1])
            mid = 0.5 * (lo + hi)
            count = int(hist.counts[i])
            hrows.append(
                {
                    "lo": lo,
                    "hi": hi,
                    "mid": mid,
                    "count": count,
                    "expected": float(hist.expected[i]),
                    "observedDensity": count / (hist.normalization * width),
                    "gueDensity": float(gue_density(mid)),
                    "diagonalBin": lo <= 0.0 < hi,
                }
            )
        write("gue_histogram_q1_T100.csv", hrows)

        ladder = grids["x_ladder"]
        write("montgomery.csv", _montgomery_rows(ladder, grids["montgomery_qs"], None))
        write("eh.csv", _eh_rows(ladder, grids["eh_Qs"]))
        write("weak.csv", _weak_rows(1_000_000.0, grids["weak_qs"], grids["weak_alphas"], 1))

        drows = []
        for x, q in ((float(2**20), 8), (1_000_000.0, 101)):
            drows.extend(_dyadic_rows(dyadic_profile(x, q, 1, 0.1)))
        write("dyadic.csv", drows)

        manifest = {
            "command": "report",
            "files": files,
            "config": cfg.manifest(),
            "grids": grids,
        }
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
        files.append("manifest.json")
        lines = [f"wrote {out_dir / name}" for name in files]
        return _Result(None, {"files": files}, 0, lines)

    return {"out": str(out_dir)}, work


# every flag, defined once: its argparse keywords, and a default that a
# command takes only where it marks the flag "name="
_FLAGS = {
    "config": {"type": Path, "help": "key=value settings file"},
    "cache-dir": {"type": Path, "help": "zero cache root (default: cache)"},
    "format": {"choices": TABLE_FORMATS, "help": "table output format (default: csv)"},
    "threads": {"type": int, "help": "scan worker count (default: 1)"},
    "out": {"type": Path, "help": "write tables to this path (report: directory)"},
    "json": {"action": "store_true", "help": "print a machine-readable summary on stdout"},
    "dry-run": {"action": "store_true", "help": "validate inputs, compute nothing"},
    "q": {"type": int, "default": 1, "help": "modulus"},
    "a": {"type": int, "default": 1, "help": "residue class"},
    "x": {"type": float, "help": "evaluation point"},
    "T": {"type": float, "help": "height"},
    "chi": {"help": "character as q:index"},
    "force": {"action": "store_true", "help": "rescan even when cached"},
    "window": {"choices": WINDOWS, "default": "both", "help": "ordinate window"},
    "Z": {"type": float, "help": "truncation height"},
    "Q": {"type": int, "help": "modulus ceiling: every q <= Q"},
    "alpha": {"type": float, "help": "normalizer exponent in [0, 1]"},
    "eps": {"type": float, "default": 0.1, "help": "depth exponent"},
    "suite": {"choices": tuple(_SUITES), "required": True, "help": "identity suite"},
    "U": {"type": float, "help": "lower height of the increment suite"},
    "tol": {"type": float, "help": "suite tolerance override; reconstruction has none"},
}
_COMMON_FLAGS = "config cache-dir format threads out json dry-run"

# subcommand -> (help line, handler, flags).  A flag "name*" repeats, and a
# flag "name=" takes its _FLAGS default; any other flag defaults to None.
_COMMANDS = {
    "zeros": ("scan and cache zero sets: every character mod --q, or the one --chi instead",
              _cmd_zeros, "q chi T force"),
    "psi": ("exact sieve counts: psi(x; q, a), q = a = 1 unless given, or psi(x, chi) with "
            "--chi alone", _cmd_psi, "x q a chi"),
    "paircorr": ("pair correlation table", _cmd_paircorr, "q= a= x* T* window="),
    "explicit": ("zero-sum reconstructions of psi(x; q, a)", _cmd_explicit, "x* Z* q= a="),
    "montgomery": ("normalized class errors; without --a, every unit class", _cmd_montgomery,
                   "x* Q q* a"),
    "eh": ("summed worst-class errors, one row per modulus ceiling --Q", _cmd_eh, "x Q*"),
    "weak": ("interpolated normalizer table; without --a, every unit class", _cmd_weak,
             "x alpha* Q q* a"),
    "dyadic": ("halving-block error profile", _cmd_dyadic, "x q= a= eps="),
    "check": ("identity suites over the moduli --q (default 4)", _cmd_check,
              "suite q* a= x* T* U* Z* tol"),
    "report": ("standard CSV bundle, written to the --out directory (default: report)",
               _cmd_report, ""),
}


def _add_flags(parser, specs: str) -> None:
    for spec in specs.split():
        name = spec.rstrip("*=")
        kw = _FLAGS[name]
        if spec[-1] == "*":
            kw = {**kw, "action": "append", "default": None, "help": kw["help"] + ", repeatable"}
        elif spec[-1] == "=":
            kw = {**kw, "help": kw["help"] + " (default: %(default)s)"}
        elif "default" in kw:
            kw = {**kw, "default": None}
        parser.add_argument("--" + name, **kw)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    _add_flags(common.add_argument_group("common options"), _COMMON_FLAGS)
    parser = argparse.ArgumentParser(
        prog="zeropair",
        description="Pair correlation statistics of Dirichlet L-function zeros.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (line, _, flags) in _COMMANDS.items():
        _add_flags(sub.add_parser(name, parents=[common], help=line, description=line), flags)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        # inf and nan are invalid on every float flag, repeatable ones included
        for name, value in vars(args).items():
            for v in value if isinstance(value, list) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValueError(f"--{name} must be finite, got {v}")
        cfg = resolve_config(args)
        params, work = _COMMANDS[args.command][1](args)
        result = None if args.dry_run else work(cfg)
    except (CertificationError, PrecisionError, ZeroCacheError) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2

    if isinstance(result, list):
        result = _Result(result, {})
    summary = {
        "command": args.command,
        "ok": result is None or result.exit_code == 0,
        "config": cfg.manifest(),
    }
    if result is None:
        summary.update(dry_run=True, params=params)
        print(json.dumps(summary, allow_nan=False) if args.json else f"dry-run ok: {args.command}")
        return 0
    summary.update(params=params, **result.summary)

    wrote = None
    if result.rows is not None and args.out is not None:
        emit_table(result.rows, args.out, cfg.format)
        wrote = args.out
        summary["out"] = str(args.out)
        summary["row_count"] = len(result.rows)
    if args.json:
        if result.rows is not None and wrote is None:
            summary["rows"] = [{k: json_cell(v) for k, v in row.items()} for row in result.rows]
        print(json.dumps(summary, allow_nan=False))
        return result.exit_code
    if result.rows is not None and wrote is None and (cfg.format == "json" or not result.lines):
        # a JSON table stands alone on stdout so that it parses; its rows
        # carry the verdicts the text lines would repeat
        emit_table(result.rows, sys.stdout, cfg.format)
        return result.exit_code
    for line in result.lines:
        print(line)
    if wrote is not None:
        print(f"wrote {wrote} ({len(result.rows)} rows)")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
