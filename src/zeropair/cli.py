"""Command-line front end: one executable, one subcommand per operation.

Subcommands: zeros, psi, paircorr, explicit, montgomery, eh, weak, dyadic,
check (identity suites), report (CSV bundle of the standard tables).

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from zeropair.characters import (
    CharacterLabel,
    DirichletCharacter,
    character,
    conductor_and_inducer,
    enumerate_characters,
    euler_phi,
)
from zeropair.conjectures import (
    dyadic_profile,
    eh_sum,
    montgomery_table,
    weak_form_table,
)
from zeropair.explicit import psi_progression_from_zeros
from zeropair.lfunc import EvalPrecision
from zeropair.paircorr import (
    CertificationError,
    PairCorrInput,
    QuadSpec,
    QuadratureError,
    f_q,
    f_q_via_integral,
    f_zeta_ratio,
    gue_density,
    increment_identity_check,
    spacing_histogram,
)
from zeropair.sieve import psi_character, psi_progression, shared_table
from zeropair.store import ZeroCache, ZeroCacheError, emit_table
from zeropair.zeros import DEFAULT_TOLERANCE, ZeroSet

__all__ = ["RunConfig", "main"]

_ZETA = CharacterLabel(1, 1)

# fixed grids behind `report`; documented in the README so the bundle is
# reproducible without reading this file
_REPORT_ZETA_XS = (2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0, 200.0, 500.0)
_REPORT_THM_QS = (1, 3, 4, 5, 8, 12)
_REPORT_THM_XS = (2.0, 3.0, 5.0, 10.0)
_REPORT_THM_TS = (15.0, 30.0, 60.0)
_REPORT_X_LADDER = (1000.0, 10000.0, 100000.0, 1000000.0)
_REPORT_MONT_QS = (1, 3, 4, 5, 8, 12, 101)
_REPORT_EH_QS = (1, 10, 50, 100)
_REPORT_WEAK_ALPHAS = (0.0, 0.5, 1.0)
_REPORT_WEAK_QS = (3, 4, 5, 8, 12, 101)
_REPORT_HIST = (0.0, 3.0, 30)  # alpha, beta, bins

_SUITE_TOL = {"integral": 1e-4, "increment": 1e-4, "orthogonality": 1e-8}


@dataclass(frozen=True)
class RunConfig:
    """Run-wide settings.  Defaults:

    cache_dir      "cache" (ZEROPAIR_CACHE_DIR overrides, flag wins)
    tolerance      1e-10   zero-refinement tolerance
    rel_tol        1e-6    quadrature relative error target
    mesh_step      none    scan mesh override; none = per-(q,T) default
    threads        1       worker pool for independent zero scans
    format         csv     table output format (csv or json)
    deterministic  true    recorded attestation: no seeded randomness
    """

    cache_dir: Path = Path("cache")
    tolerance: float = DEFAULT_TOLERANCE
    rel_tol: float = 1e-6
    mesh_step: float | None = None
    threads: int = 1
    format: str = "csv"
    deterministic: bool = True

    def manifest(self) -> dict:
        return {
            "cache_dir": str(self.cache_dir),
            "tolerance": self.tolerance,
            "rel_tol": self.rel_tol,
            "mesh_step": self.mesh_step,
            "threads": self.threads,
            "format": self.format,
            "deterministic": self.deterministic,
        }


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


_CONFIG_COERCERS = {
    "cache_dir": Path,
    "tolerance": float,
    "rel_tol": float,
    "mesh_step": lambda raw: None if raw.strip().lower() == "none" else float(raw),
    "threads": int,
    "format": str,
    "deterministic": _parse_bool,
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
    for key, flag in (
        ("cache_dir", "cache_dir"),
        ("format", "format"),
        ("threads", "threads"),
    ):
        flag_value = getattr(args, flag, None)
        if flag_value is not None:
            values[key] = flag_value
    cfg = RunConfig(**values)
    if cfg.format not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {cfg.format!r}")
    if cfg.threads < 1:
        raise ValueError("threads must be at least 1")
    return cfg


@dataclass
class _Result:
    rows: list | None
    header: list | None
    summary: dict
    exit_code: int = 0
    lines: list = field(default_factory=list)


def _parse_chi(spec: str) -> CharacterLabel:
    parts = spec.split(":")
    if len(parts) != 2:
        raise ValueError(f"--chi wants q:index, got {spec!r}")
    try:
        q, index = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"--chi wants integers q:index, got {spec!r}") from None
    return CharacterLabel(q, index)


def _cached_sets(
    q: int, T: float, cfg: RunConfig, force: bool = False
) -> dict[CharacterLabel, ZeroSet]:
    """Zero sets for every character mod q, via the cache, keyed by label.

    Induced characters share their inducer's set, so only distinct
    inducers are scanned; with threads > 1 those scans run concurrently
    and are reassembled in a fixed order.
    """
    cache = ZeroCache(cfg.cache_dir)
    chars = enumerate_characters(q)
    inducers: dict[CharacterLabel, DirichletCharacter] = {}
    for chi in chars:
        _, ind = conductor_and_inducer(chi)
        inducers.setdefault(ind.label, ind)
    ordered = sorted(inducers.values(), key=lambda c: (c.modulus, c.index))

    def scan(ind: DirichletCharacter) -> ZeroSet:
        return cache.load_or_scan(
            ind, T, mesh_step=cfg.mesh_step, tolerance=cfg.tolerance, force=force
        )

    if cfg.threads > 1 and len(ordered) > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            scanned = list(pool.map(scan, ordered))
    else:
        scanned = [scan(ind) for ind in ordered]
    by_label = dict(zip((ind.label for ind in ordered), scanned))
    out = {}
    for chi in chars:
        _, ind = conductor_and_inducer(chi)
        out[chi.label] = by_label[ind.label]
    return out


def _table_limit(x: float) -> int:
    return max(100_000, math.ceil(x))


def _require_unit(a: int, q: int) -> None:
    if q < 1:
        raise ValueError("q must be positive")
    if math.gcd(a, q) != 1:
        raise ValueError(f"a={a} must be coprime to q={q}")


def _mont_regime(x: float, q: int) -> str:
    if q == 1:
        return "classical"
    return "below-sqrt" if q * q <= x else "above-sqrt"


def _montgomery_rows(xs, qs, a, table) -> list:
    rows = []
    for r in montgomery_table(xs, qs, a=a, table=table):
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
                "regime": _mont_regime(r.x, r.q),
            }
        )
    return rows


_MONT_HEADER = [
    "x", "q", "a", "error", "normalizer", "normalized",
    "impliedEpsilon", "grhRatio", "regime",
]


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


_DYADIC_HEADER = ["x", "q", "a", "eps", "J", "piece", "j", "error", "normalized"]

_PAIRCORR_HEADER = ["q", "a", "x", "T", "ReF", "ImF", "ratio_to_thm15", "trivialBoundRatio"]


def _paircorr_row(res) -> dict:
    return {
        "q": res.q,
        "a": res.a,
        "x": res.x,
        "T": res.T,
        "ReF": res.value.real,
        "ImF": res.value.imag,
        "ratio_to_thm15": res.thm_ratio if res.thm_ratio is not None else math.nan,
        "trivialBoundRatio": res.trivial_ratio,
    }


# ---------------------------------------------------------------- handlers


def _cmd_zeros(args, cfg: RunConfig) -> _Result:
    if args.T is None or args.T <= 0:
        raise ValueError("--T must be positive")
    if args.chi is not None:
        label = _parse_chi(args.chi)
        chars = [character(label.modulus, label.index)]
    elif args.q is not None:
        if args.q < 1:
            raise ValueError("--q must be positive")
        chars = enumerate_characters(args.q)
    else:
        raise ValueError("zeros needs --q or --chi")
    header = ["q", "index", "conductor", "inducer", "T", "count", "expected",
              "certified", "file"]
    params = {"T": args.T, "characters": [str(c.label) for c in chars]}
    if args.dry_run:
        return _Result([], header, {"dry_run": True, "params": params})
    cache = ZeroCache(cfg.cache_dir)
    if args.chi is not None:
        _, ind = conductor_and_inducer(chars[0])
        sets = {
            chars[0].label: cache.load_or_scan(
                ind, args.T, mesh_step=cfg.mesh_step,
                tolerance=cfg.tolerance, force=args.force,
            )
        }
    else:
        sets = _cached_sets(chars[0].modulus, args.T, cfg, force=args.force)
    rows = []
    all_certified = True
    for chi in chars:
        zs = sets[chi.label]
        all_certified &= zs.certified
        rows.append(
            {
                "q": chi.modulus,
                "index": chi.index,
                "conductor": conductor_and_inducer(chi)[0],
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
        "bernoulli_terms": prec.bernoulli_terms,
        "target_abs_error": prec.target_abs_error,
    }
    code = 0 if all_certified else 3
    summary = {"params": params, "certified": all_certified, "em": em}
    return _Result(rows, header, summary, code)


def _cmd_psi(args, cfg: RunConfig) -> _Result:
    if args.x is None or args.x <= 0:
        raise ValueError("--x must be positive")
    if args.chi is not None and (args.q is not None or args.a is not None):
        raise ValueError("--chi excludes --q/--a")
    if args.chi is not None:
        label = _parse_chi(args.chi)
        header = ["x", "q", "index", "re", "im"]
        params = {"x": args.x, "chi": str(label)}
        if args.dry_run:
            return _Result([], header, {"dry_run": True, "params": params})
        chi = character(label.modulus, label.index)
        val = psi_character(args.x, chi, shared_table(_table_limit(args.x)))
        rows = [{"x": args.x, "q": label.modulus, "index": label.index,
                 "re": val.real, "im": val.imag}]
        return _Result(rows, header, {"params": params})
    q = args.q if args.q is not None else 1
    a = args.a if args.a is not None else 1
    _require_unit(a, q)
    header = ["x", "q", "a", "psi"]
    params = {"x": args.x, "q": q, "a": a}
    if args.dry_run:
        return _Result([], header, {"dry_run": True, "params": params})
    val = psi_progression(args.x, q, a, shared_table(_table_limit(args.x)))
    return _Result([{"x": args.x, "q": q, "a": a, "psi": val}], header, {"params": params})


def _cmd_paircorr(args, cfg: RunConfig) -> _Result:
    q = args.q if args.q is not None else 1
    a = args.a if args.a is not None else 1
    _require_unit(a, q)
    xs = sorted(set(args.x or ()))
    ts = sorted(set(args.T or ()))
    if not xs or not ts:
        raise ValueError("paircorr needs at least one --x and one --T")
    if min(xs) < 2.0:
        raise ValueError("x must be at least 2")
    if min(ts) <= 0.0:
        raise ValueError("T must be positive")
    params = {"q": q, "a": a, "x": xs, "T": ts, "window": args.window}
    if args.dry_run:
        return _Result([], _PAIRCORR_HEADER, {"dry_run": True, "params": params})
    rows = []
    for T in ts:
        sets = _cached_sets(q, T, cfg)
        for x in xs:
            res = f_q(PairCorrInput(q=q, a=a, x=x, T=T, zero_sets=sets), window=args.window)
            rows.append(_paircorr_row(res))
    return _Result(rows, _PAIRCORR_HEADER, {"params": params})


def _cmd_explicit(args, cfg: RunConfig) -> _Result:
    q = args.q if args.q is not None else 1
    a = args.a if args.a is not None else 1
    _require_unit(a, q)
    xs = sorted(set(args.x or ()))
    zs = sorted(set(args.Z or ()))
    if not xs or not zs:
        raise ValueError("explicit needs at least one --x and one --Z")
    for z in zs:
        for x in xs:
            if not 2.0 <= z <= x:
                raise ValueError(f"need 2 <= Z <= x, got Z={z:g}, x={x:g}")
    header = ["x", "Z", "q", "a", "reconstructed", "exact", "absError", "budget"]
    params = {"q": q, "a": a, "x": xs, "Z": zs}
    if args.dry_run:
        return _Result([], header, {"dry_run": True, "params": params})
    sets = _cached_sets(q, max(zs), cfg)
    table = shared_table(_table_limit(max(xs)))
    rows = []
    for x in xs:
        for z in zs:
            run = psi_progression_from_zeros(x, z, q, a, sets, table)
            rows.append(
                {
                    "x": run.x,
                    "Z": run.z,
                    "q": run.q,
                    "a": run.a,
                    "reconstructed": float(run.reconstructed.real)
                    if isinstance(run.reconstructed, complex)
                    else run.reconstructed,
                    "exact": float(run.exact.real)
                    if isinstance(run.exact, complex)
                    else run.exact,
                    "absError": run.abs_error,
                    "budget": run.error_budget,
                }
            )
    return _Result(rows, header, {"params": params})


def _mont_moduli(args) -> list:
    if args.Q is not None and args.q:
        raise ValueError("give either --Q or --q, not both")
    if args.Q is not None:
        if args.Q < 1:
            raise ValueError("--Q must be positive")
        return list(range(1, args.Q + 1))
    if args.q:
        if min(args.q) < 1:
            raise ValueError("moduli must be positive")
        return sorted(set(args.q))
    raise ValueError("need --Q or --q")


def _cmd_montgomery(args, cfg: RunConfig) -> _Result:
    xs = sorted(set(args.x or ()))
    if not xs or xs[0] <= 1.0:
        raise ValueError("montgomery needs --x values above 1")
    qs = _mont_moduli(args)
    if args.a is not None:
        for q in qs:
            _require_unit(args.a, q)
    params = {"x": xs, "q": qs, "a": args.a}
    if args.dry_run:
        return _Result([], _MONT_HEADER, {"dry_run": True, "params": params})
    table = shared_table(_table_limit(max(xs)))
    rows = _montgomery_rows(xs, qs, args.a, table)
    return _Result(rows, _MONT_HEADER, {"params": params})


def _cmd_eh(args, cfg: RunConfig) -> _Result:
    if args.x is None or args.x <= 1:
        raise ValueError("--x must exceed 1")
    qs = sorted(set(args.Q or ()))
    if not qs:
        raise ValueError("eh needs at least one --Q")
    if qs[0] < 1 or qs[-1] >= args.x:
        raise ValueError("need 1 <= Q < x")
    header = ["x", "Q", "value", "valueOverX"]
    params = {"x": args.x, "Q": qs}
    if args.dry_run:
        return _Result([], header, {"dry_run": True, "params": params})
    table = shared_table(_table_limit(args.x))
    rows = []
    for Q in qs:
        val = eh_sum(args.x, Q, table=table)
        rows.append({"x": args.x, "Q": Q, "value": val, "valueOverX": val / args.x})
    return _Result(rows, header, {"params": params})


_WEAK_HEADER = ["x", "q", "a", "alpha", "error", "normalizer", "normalized"]


def _cmd_weak(args, cfg: RunConfig) -> _Result:
    if args.x is None or args.x <= 1:
        raise ValueError("--x must exceed 1")
    alphas = sorted(set(args.alpha or ()))
    if not alphas:
        raise ValueError("weak needs at least one --alpha")
    for al in alphas:
        if not 0.0 <= al <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {al}")
    qs = _mont_moduli(args)
    if args.a is not None:
        for q in qs:
            _require_unit(args.a, q)
    params = {"x": args.x, "q": qs, "a": args.a, "alpha": alphas}
    if args.dry_run:
        return _Result([], _WEAK_HEADER, {"dry_run": True, "params": params})
    table = shared_table(_table_limit(args.x))
    rows = []
    for alpha in alphas:
        for r in weak_form_table(args.x, qs, alpha, a=args.a, table=table):
            rows.append(
                {
                    "x": r.x, "q": r.q, "a": r.a, "alpha": r.alpha,
                    "error": r.error, "normalizer": r.normalizer,
                    "normalized": r.normalized,
                }
            )
    return _Result(rows, _WEAK_HEADER, {"params": params})


def _cmd_dyadic(args, cfg: RunConfig) -> _Result:
    if args.x is None or args.x <= 1:
        raise ValueError("--x must exceed 1")
    q = args.q if args.q is not None else 1
    a = args.a if args.a is not None else 1
    _require_unit(a, q)
    eps = args.eps
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if q > args.x ** (1.0 - eps):
        raise ValueError(f"need q <= x^(1-eps) = {args.x ** (1.0 - eps):g}, got q={q}")
    params = {"x": args.x, "q": q, "a": a, "eps": eps}
    if args.dry_run:
        return _Result([], _DYADIC_HEADER, {"dry_run": True, "params": params})
    table = shared_table(_table_limit(args.x))
    prof = dyadic_profile(args.x, q, a, eps, table=table)
    return _Result(_dyadic_rows(prof), _DYADIC_HEADER, {"params": params})


def _check_grid(args, key, default):
    values = getattr(args, key, None)
    return sorted(set(values)) if values else list(default)


def _cmd_check(args, cfg: RunConfig) -> _Result:
    suite = args.suite
    a = args.a if args.a is not None else 1
    tol = args.tol if args.tol is not None else _SUITE_TOL.get(suite)
    qs = _check_grid(args, "q", (4,))
    for q in qs:
        _require_unit(a, q)
    quad = QuadSpec(rel_tol=cfg.rel_tol)
    rows: list = []
    lines: list = []
    failed = False

    if suite == "integral":
        xs = _check_grid(args, "x", (3.0,))
        ts = _check_grid(args, "T", (15.0,))
        params = {"suite": suite, "q": qs, "a": a, "x": xs, "T": ts, "tol": tol}
        if args.dry_run:
            return _Result([], None, {"dry_run": True, "params": params})
        for q in qs:
            for T in ts:
                sets = _cached_sets(q, T, cfg)
                for x in xs:
                    res = f_q_via_integral(
                        PairCorrInput(q=q, a=a, x=x, T=T, zero_sets=sets), quad=quad
                    )
                    ok = res.rel_residual < tol
                    failed |= not ok
                    rows.append(
                        {"suite": suite, "q": q, "a": a, "x": x, "T": T,
                         "residual": res.rel_residual, "tol": tol, "passed": ok}
                    )
                    lines.append(
                        f"integral q={q} a={a} x={x:g} T={T:g} "
                        f"residual={res.rel_residual:.3e} tol={tol:.1e} "
                        f"{'PASS' if ok else 'FAIL'}"
                    )
    elif suite == "increment":
        xs = _check_grid(args, "x", (3.0,))
        us = _check_grid(args, "U", (5.0,))
        ts = _check_grid(args, "T", (15.0,))
        pairs = [(u, t) for u in us for t in ts if u < t]
        if not pairs:
            raise ValueError("increment needs at least one pair with U < T")
        params = {"suite": suite, "q": qs, "a": a, "x": xs, "UT": pairs, "tol": tol}
        if args.dry_run:
            return _Result([], None, {"dry_run": True, "params": params})
        for q in qs:
            for u, t in pairs:
                sets = _cached_sets(q, t, cfg)
                for x in xs:
                    res = increment_identity_check(x, t, u, q, a, sets, quad=quad)
                    ok = res.rel_residual < tol
                    failed |= not ok
                    rows.append(
                        {"suite": suite, "q": q, "a": a, "x": x, "U": u, "T": t,
                         "residual": res.rel_residual, "tol": tol, "passed": ok}
                    )
                    lines.append(
                        f"increment q={q} a={a} x={x:g} U={u:g} T={t:g} "
                        f"residual={res.rel_residual:.3e} tol={tol:.1e} "
                        f"{'PASS' if ok else 'FAIL'}"
                    )
    elif suite == "orthogonality":
        xs = _check_grid(args, "x", (1000.5,))
        params = {"suite": suite, "q": qs, "a": a, "x": xs, "tol": tol}
        if args.dry_run:
            return _Result([], None, {"dry_run": True, "params": params})
        table = shared_table(_table_limit(max(xs)))
        for q in qs:
            phi = euler_phi(q)
            for x in xs:
                combined = (
                    sum(
                        chi(a).conjugate() * psi_character(x, chi, table)
                        for chi in enumerate_characters(q)
                    )
                    / phi
                )
                direct = psi_progression(x, q, a, table)
                residual = abs(combined - direct)
                ok = residual < tol
                failed |= not ok
                rows.append(
                    {"suite": suite, "q": q, "a": a, "x": x,
                     "residual": residual, "tol": tol, "passed": ok}
                )
                lines.append(
                    f"orthogonality q={q} a={a} x={x:g} residual={residual:.3e} "
                    f"tol={tol:.1e} {'PASS' if ok else 'FAIL'}"
                )
    elif suite == "reconstruction":
        xs = _check_grid(args, "x", (1000.5,))
        zs = _check_grid(args, "Z", (30.0, 100.0))
        if len(zs) < 2:
            raise ValueError("reconstruction needs at least two --Z values")
        params = {"suite": suite, "q": qs, "a": a, "x": xs, "Z": zs}
        if args.dry_run:
            return _Result([], None, {"dry_run": True, "params": params})
        table = shared_table(_table_limit(max(xs)))
        for q in qs:
            sets = _cached_sets(q, max(zs), cfg)
            for x in xs:
                errs = [
                    psi_progression_from_zeros(x, z, q, a, sets, table).abs_error
                    for z in zs
                ]
                for z, err in zip(zs, errs):
                    lines.append(f"reconstruction q={q} a={a} x={x:g} Z={z:g} absError={err:.6f}")
                ok = errs[-1] < errs[0]
                failed |= not ok
                rows.append(
                    {"suite": suite, "q": q, "a": a, "x": x,
                     "firstZ": zs[0], "lastZ": zs[-1],
                     "firstErr": errs[0], "lastErr": errs[-1], "passed": ok}
                )
                lines.append(
                    f"reconstruction q={q} a={a} x={x:g} "
                    f"Z={zs[0]:g}->{zs[-1]:g} err={errs[0]:.4f}->{errs[-1]:.4f} "
                    f"{'PASS' if ok else 'FAIL'}"
                )
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(f"unknown suite {suite!r}")

    header = list(rows[0].keys()) if rows else None
    summary = {"params": params, "passed": not failed}
    return _Result(rows, header, summary, 3 if failed else 0, lines)


def _cmd_report(args, cfg: RunConfig) -> _Result:
    out_dir = args.out if args.out is not None else Path("report")
    params = {"out": str(out_dir)}
    if args.dry_run:
        return _Result(None, None, {"dry_run": True, "params": params})
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []

    def write(name: str, rows: list, header: list) -> None:
        emit_table(rows, out_dir / name, "csv", header=header)
        files.append(name)

    # single-modulus ratio ladder, positive window
    sets1 = _cached_sets(1, 100.0, cfg)
    zset = sets1[_ZETA]
    zrows = []
    for x in _REPORT_ZETA_XS:
        res = f_zeta_ratio(x, 100.0, zset)
        row = _paircorr_row(res)
        row["window"] = res.window
        row["regime"] = "in-range" if res.in_classical_range else "extrapolated"
        zrows.append(row)
    write("zeta_ratio_T100.csv", zrows, _PAIRCORR_HEADER + ["window", "regime"])

    # character-weighted ratio grid, symmetric window
    trows = []
    for q in _REPORT_THM_QS:
        for T in _REPORT_THM_TS:
            sets = _cached_sets(q, T, cfg)
            for x in _REPORT_THM_XS:
                res = f_q(PairCorrInput(q=q, a=1, x=x, T=T, zero_sets=sets))
                row = _paircorr_row(res)
                row["window"] = res.window
                row["regime"] = "in-range" if res.in_classical_range else "extrapolated"
                trows.append(row)
    write("thm_ratio.csv", trows, _PAIRCORR_HEADER + ["window", "regime"])

    # scaled-gap histogram with the conjectured overlay
    alpha, beta, bins = _REPORT_HIST
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
    write(
        "gue_histogram_q1_T100.csv",
        hrows,
        ["lo", "hi", "mid", "count", "expected", "observedDensity", "gueDensity",
         "diagonalBin"],
    )

    table = shared_table(_table_limit(max(max(_REPORT_X_LADDER), float(2**20))))
    write(
        "montgomery.csv",
        _montgomery_rows(_REPORT_X_LADDER, _REPORT_MONT_QS, None, table),
        _MONT_HEADER,
    )

    erows = []
    for x in _REPORT_X_LADDER:
        for Q in _REPORT_EH_QS:
            val = eh_sum(x, Q, table=table)
            erows.append({"x": x, "Q": Q, "value": val, "valueOverX": val / x})
    write("eh.csv", erows, ["x", "Q", "value", "valueOverX"])

    wrows = []
    for al in _REPORT_WEAK_ALPHAS:
        for r in weak_form_table(1_000_000.0, _REPORT_WEAK_QS, al, a=1, table=table):
            wrows.append(
                {
                    "x": r.x, "q": r.q, "a": r.a, "alpha": r.alpha,
                    "error": r.error, "normalizer": r.normalizer,
                    "normalized": r.normalized,
                }
            )
    write("weak.csv", wrows, _WEAK_HEADER)

    drows = []
    for x, q in ((float(2**20), 8), (1_000_000.0, 101)):
        drows.extend(_dyadic_rows(dyadic_profile(x, q, 1, 0.1, table=table)))
    write("dyadic.csv", drows, _DYADIC_HEADER)

    manifest = {
        "command": "report",
        "files": files,
        "config": cfg.manifest(),
        "grids": {
            "zeta_xs": list(_REPORT_ZETA_XS),
            "thm_qs": list(_REPORT_THM_QS),
            "thm_xs": list(_REPORT_THM_XS),
            "thm_Ts": list(_REPORT_THM_TS),
            "histogram": {"alpha": alpha, "beta": beta, "bins": bins},
            "x_ladder": list(_REPORT_X_LADDER),
            "montgomery_qs": list(_REPORT_MONT_QS),
            "eh_Qs": list(_REPORT_EH_QS),
            "weak_alphas": list(_REPORT_WEAK_ALPHAS),
            "weak_qs": list(_REPORT_WEAK_QS),
        },
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    files.append("manifest.json")
    lines = [f"wrote {out_dir / name}" for name in files]
    return _Result(None, None, {"params": params, "files": files}, 0, lines)


_HANDLERS = {
    "zeros": _cmd_zeros,
    "psi": _cmd_psi,
    "paircorr": _cmd_paircorr,
    "explicit": _cmd_explicit,
    "montgomery": _cmd_montgomery,
    "eh": _cmd_eh,
    "weak": _cmd_weak,
    "dyadic": _cmd_dyadic,
    "check": _cmd_check,
    "report": _cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("common options")
    group.add_argument("--config", type=Path, help="key=value settings file")
    group.add_argument("--cache-dir", dest="cache_dir", type=Path,
                       help="zero cache root (default: cache)")
    group.add_argument("--format", choices=("csv", "json"),
                       help="table output format (default: csv)")
    group.add_argument("--threads", type=int, help="scan worker count (default: 1)")
    group.add_argument("--out", type=Path,
                       help="write tables to this path (report: directory)")
    group.add_argument("--json", action="store_true",
                       help="print a machine-readable summary on stdout")
    group.add_argument("--dry-run", dest="dry_run", action="store_true",
                       help="validate inputs, compute nothing")

    parser = argparse.ArgumentParser(
        prog="zeropair",
        description="Pair correlation statistics of Dirichlet L-function zeros.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("zeros", parents=[common], help="scan and cache zero sets")
    p.add_argument("--q", type=int, help="modulus; scans every character mod q")
    p.add_argument("--chi", help="single character as q:index")
    p.add_argument("--T", type=float, help="scan height")
    p.add_argument("--force", action="store_true", help="rescan even when cached")

    p = sub.add_parser("psi", parents=[common], help="exact sieve counts")
    p.add_argument("--x", type=float, help="evaluation point")
    p.add_argument("--q", type=int, help="modulus (with --a)")
    p.add_argument("--a", type=int, help="residue class (with --q)")
    p.add_argument("--chi", help="character sum instead, as q:index")

    p = sub.add_parser("paircorr", parents=[common], help="pair correlation table")
    p.add_argument("--q", type=int, help="modulus (default 1)")
    p.add_argument("--a", type=int, help="residue class (default 1)")
    p.add_argument("--x", type=float, action="append", help="repeatable")
    p.add_argument("--T", type=float, action="append", help="repeatable")
    p.add_argument("--window", choices=("both", "positive"), default="both")

    p = sub.add_parser("explicit", parents=[common], help="zero-sum reconstructions")
    p.add_argument("--x", type=float, action="append", help="repeatable")
    p.add_argument("--Z", type=float, action="append", help="truncation height, repeatable")
    p.add_argument("--q", type=int, help="modulus (default 1)")
    p.add_argument("--a", type=int, help="residue class (default 1)")

    p = sub.add_parser("montgomery", parents=[common], help="normalized class errors")
    p.add_argument("--x", type=float, action="append", help="repeatable")
    p.add_argument("--Q", type=int, help="all moduli up to Q")
    p.add_argument("--q", type=int, action="append", help="specific moduli, repeatable")
    p.add_argument("--a", type=int, help="fix the residue class (default: all units)")

    p = sub.add_parser("eh", parents=[common], help="summed worst-class errors")
    p.add_argument("--x", type=float, help="evaluation point")
    p.add_argument("--Q", type=int, action="append", help="modulus ceiling, repeatable")

    p = sub.add_parser("weak", parents=[common], help="interpolated normalizer table")
    p.add_argument("--x", type=float, help="evaluation point")
    p.add_argument("--alpha", type=float, action="append", help="exponent in [0,1], repeatable")
    p.add_argument("--Q", type=int, help="all moduli up to Q")
    p.add_argument("--q", type=int, action="append", help="specific moduli, repeatable")
    p.add_argument("--a", type=int, help="fix the residue class (default: all units)")

    p = sub.add_parser("dyadic", parents=[common], help="halving-block error profile")
    p.add_argument("--x", type=float, help="evaluation point")
    p.add_argument("--q", type=int, help="modulus")
    p.add_argument("--a", type=int, help="residue class (default 1)")
    p.add_argument("--eps", type=float, default=0.1, help="depth exponent (default 0.1)")

    p = sub.add_parser("check", parents=[common], help="identity suites")
    p.add_argument("--suite", required=True,
                   choices=("integral", "increment", "orthogonality", "reconstruction"))
    p.add_argument("--q", type=int, action="append", help="moduli, repeatable (default 4)")
    p.add_argument("--a", type=int, help="residue class (default 1)")
    p.add_argument("--x", type=float, action="append", help="repeatable")
    p.add_argument("--T", type=float, action="append", help="repeatable")
    p.add_argument("--U", type=float, action="append", help="increment suite lower heights")
    p.add_argument("--Z", type=float, action="append", help="reconstruction truncations")
    p.add_argument("--tol", type=float, help="override the suite tolerance")

    p = sub.add_parser("report", parents=[common], help="standard CSV bundle")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        cfg = resolve_config(args)
        result = _HANDLERS[args.command](args, cfg)
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    except (QuadratureError, ZeroCacheError) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2

    summary = {
        "command": args.command,
        "ok": result.exit_code == 0,
        "config": cfg.manifest(),
    }
    summary.update(result.summary)

    if result.summary.get("dry_run"):
        print(json.dumps(summary) if args.json else f"dry-run ok: {args.command}")
        return result.exit_code

    wrote = None
    if result.rows is not None and args.out is not None and args.command != "report":
        emit_table(result.rows, args.out, cfg.format, header=result.header)
        wrote = args.out
        summary["out"] = str(args.out)
        summary["row_count"] = len(result.rows)
    if args.json:
        if result.rows is not None and wrote is None:
            summary["rows"] = result.rows
        print(json.dumps(summary))
        return result.exit_code
    for line in result.lines:
        print(line)
    if result.rows is not None and wrote is None and not result.lines:
        emit_table(result.rows, sys.stdout, cfg.format, header=result.header)
    elif wrote is not None:
        print(f"wrote {wrote} ({len(result.rows)} rows)")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
