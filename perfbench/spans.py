"""Spans around the public functions of each zeropair module, installed at run time.

Nothing under src/ is edited.  `Tracer.install` replaces every function named
in LAYERS, in each zeropair module that holds a reference to it, with a
wrapper that records a span (name, start, end, parent) and the work counts
that can be read off the call's arguments or result.  `uninstall` restores
the originals.

A layer's self time is the time of its spans minus the time of their child
spans.  Counts come from arguments and results only, so they do not depend
on the hardware and repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable


class TraceError(RuntimeError):
    """A wrapped function is missing, or a predicted span did not fire."""


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


# ------------------------------------------------------------------ counters
# Each takes (counts, args, kwargs, result, before, outer) where `before` is
# what the spec's `pre` returned at span start and `outer` is true when the
# parent span belongs to another layer.


def _count_z_points(counts, args, kwargs, result, before, outer):
    ts = _arg(args, kwargs, 1, "ts")
    counts["lfunc.z_points"] += int(getattr(ts, "size", 1))


def _count_em(counts, args, kwargs, result, before, outer):
    s = _arg(args, kwargs, 0, "s")
    prec = _arg(args, kwargs, 2, "prec")
    points = int(s.size)
    if prec is None:
        lfunc = sys.modules["zeropair.lfunc"]
        height = float(abs(s.imag).max()) if points else 0.0
        prec = lfunc.EvalPrecision.for_height(height)
    terms = points * prec.direct_terms
    counts["lfunc.em_terms"] += terms
    # the direct part materialises a points x N complex128 matrix
    counts["lfunc.em_matrix_peak_bytes"] = max(counts["lfunc.em_matrix_peak_bytes"], 16 * terms)


def _pre_z_points(counts):
    return counts["lfunc.z_points"]


def _count_scan(counts, args, kwargs, result, before, outer):
    zeros = sys.modules["zeropair.zeros"]
    chi = _arg(args, kwargs, 0, "chi")
    T = float(_arg(args, kwargs, 1, "T"))
    step = _arg(args, kwargs, 2, "mesh_step")
    if step is None:
        step = zeros.default_mesh_step(chi.modulus, T)
    mesh = 2 * math.ceil(T / step) + 1
    used = counts["lfunc.z_points"] - before
    counts["zeros.scans"] += 1
    counts["zeros.zeros_found"] += result.count
    counts["zeros.mesh_points"] += mesh
    counts["zeros.refine_points"] += used - mesh
    counts["zeros.scan_z_points"] += used


def _pre_scans(counts):
    return counts["zeros.scans"]


def _count_lookup(counts, args, kwargs, result, before, outer):
    counts["store.lookups"] += 1
    if counts["zeros.scans"] == before:
        counts["store.hits"] += 1


def _count_read(counts, args, kwargs, result, before, outer):
    counts["store.reads"] += 1
    counts["store.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_write(counts, args, kwargs, result, before, outer):
    counts["store.writes"] += 1
    counts["store.bytes_written"] += os.path.getsize(result)


def _count_table(counts, args, kwargs, result, before, outer):
    counts["sieve.table_entries"] += int(result.n.size)


def _count_class_grid(counts, args, kwargs, result, before, outer):
    xs = _arg(args, kwargs, 0, "x_list")
    qs = _arg(args, kwargs, 1, "q_list")
    counts["conjectures.class_evals"] += len(set(xs)) * len(set(qs))


def _count_eh(counts, args, kwargs, result, before, outer):
    counts["conjectures.class_evals"] += int(_arg(args, kwargs, 1, "Q"))


def _count_weak(counts, args, kwargs, result, before, outer):
    counts["conjectures.class_evals"] += len(set(_arg(args, kwargs, 1, "q_list")))


def _count_pairs(counts, args, kwargs, result, before, outer):
    counts["paircorr.pair_terms"] += int(result.term_count)


def _count_nodes(counts, args, kwargs, result, before, outer):
    counts["paircorr.quad_nodes"] += int(result.node_count)


def _count_hist(counts, args, kwargs, result, before, outer):
    counts["paircorr.hist_pairs"] += int(result.window_count) ** 2


def _count_zero_terms(counts, args, kwargs, result, before, outer):
    if outer:
        counts["explicit.zero_terms"] += int(result.term_count)


def _count_command(counts, args, kwargs, result, before, outer):
    counts["cli.commands"] += 1


@dataclass(frozen=True)
class Spec:
    module: str  # zeropair submodule
    qualname: str  # "function" or "Class.method"
    kind: str = ""  # sub-layer used for split self times, e.g. paircorr "direct"
    count: Callable | None = None
    pre: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


LAYERS = (
    Spec("characters", "enumerate_characters"),
    Spec("characters", "character"),
    Spec("characters", "conductor_and_inducer"),
    Spec("characters", "gauss_sum"),
    Spec("characters", "euler_phi"),
    Spec("lfunc", "hurwitz_zeta_batch", "em", _count_em),
    Spec("lfunc", "hurwitz_zeta"),
    Spec("lfunc", "l_value"),
    Spec("lfunc", "l_critical_batch"),
    Spec("lfunc", "root_number"),
    Spec("lfunc", "hardy_z_batch", "", _count_z_points),
    Spec("lfunc", "hardy_z"),
    Spec("lfunc", "completed_l"),
    Spec("zeros", "scan_zeros", "", _count_scan, _pre_z_points),
    Spec("zeros", "refine_zero"),
    Spec("zeros", "zeros_for_modulus"),
    Spec("store", "read_zero_set", "read", _count_read),
    Spec("store", "write_zero_set", "write", _count_write),
    Spec("store", "ZeroCache.load_or_scan", "", _count_lookup, _pre_scans),
    Spec("store", "ZeroCache.load"),
    Spec("store", "emit_table", "emit"),
    Spec("sieve", "primes_up_to"),
    Spec("sieve", "primes_in_window"),
    Spec("sieve", "LambdaTable.build", "build", _count_table),
    Spec("sieve", "shared_table"),
    Spec("sieve", "psi"),
    Spec("sieve", "psi_progression"),
    Spec("sieve", "psi_character"),
    Spec("sieve", "pi_count"),
    Spec("sieve", "pi_progression"),
    Spec("sieve", "s_of_x"),
    Spec("sieve", "brun_titchmarsh_check"),
    Spec("conjectures", "montgomery_table", "", _count_class_grid),
    Spec("conjectures", "eh_sum", "", _count_eh),
    Spec("conjectures", "weak_form_table", "", _count_weak),
    Spec("conjectures", "dyadic_profile"),
    Spec("paircorr", "f_q", "direct", _count_pairs),
    Spec("paircorr", "f_zeta_ratio", "direct", _count_pairs),
    Spec("paircorr", "g_pair", "direct", _count_pairs),
    Spec("paircorr", "f_q_via_integral", "quad", _count_nodes),
    Spec("paircorr", "increment_identity_check", "quad", _count_nodes),
    Spec("paircorr", "sigma_sum", "quad"),
    Spec("paircorr", "spacing_histogram", "hist", _count_hist),
    Spec("paircorr", "r1_batch"),
    Spec("paircorr", "r1"),
    Spec("paircorr", "r1_mean_square"),
    Spec("paircorr", "mean_value_check"),
    Spec("explicit", "zero_sum"),
    Spec("explicit", "psi_from_zeros", "", _count_zero_terms),
    Spec("explicit", "psi_chi_from_zeros", "", _count_zero_terms),
    Spec("explicit", "psi_progression_from_zeros", "", _count_zero_terms),
    Spec("explicit", "ramified_mass"),
    Spec("cli", "main", "", _count_command),
)

COUNTERS = (
    "lfunc.z_points", "lfunc.em_terms", "lfunc.em_matrix_peak_bytes",
    "zeros.scans", "zeros.zeros_found", "zeros.mesh_points", "zeros.refine_points",
    "zeros.scan_z_points", "store.lookups", "store.hits", "store.reads",
    "store.bytes_read", "store.writes", "store.bytes_written", "sieve.table_entries",
    "conjectures.class_evals", "paircorr.pair_terms", "paircorr.quad_nodes",
    "paircorr.hist_pairs", "explicit.zero_terms", "cli.commands",
)


class Tracer:
    """Records spans in memory while installed; single-threaded callers only."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts = {key: 0 for key in COUNTERS}
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, spec: Spec, original):
        spans, stack, counts = self.spans, self._stack, self.counts
        name, count, pre = spec.name, spec.count, spec.pre
        prefix = spec.module + "."

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            before = pre(counts) if pre is not None else None
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                outer = parent < 0 or not spans[parent][0].startswith(prefix)
                count(counts, args, kwargs, result, before, outer)
            return result

        return functools.update_wrapper(wrapper, original)

    def install(self) -> None:
        for spec in LAYERS:
            importlib.import_module(f"zeropair.{spec.module}")
        loaded = [m for n, m in sorted(sys.modules.items()) if n.startswith("zeropair")]
        for spec in LAYERS:
            mod = sys.modules[f"zeropair.{spec.module}"]
            owner_name, _, attr = spec.qualname.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.uninstall()
                raise TraceError(
                    f"zeropair.{spec.name} not found: "
                    "the benchmark's layer table no longer matches the program"
                )
            if isinstance(raw, staticmethod):
                self._replace(owner, attr, raw, staticmethod(self._wrap(spec, raw.__func__)))
            elif owner_name:
                self._replace(owner, attr, raw, self._wrap(spec, raw))
            else:
                wrapper = self._wrap(spec, raw)
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            self._replace(m, key, raw, wrapper)

    def _replace(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self._restore.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    def raw(self) -> dict:
        """Per-span-name calls, inclusive and self seconds, plus the counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        names: dict[str, list] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            entry = names.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered
        return {"names": names, "counts": dict(self.counts)}


def merge(raws: list[dict]) -> dict:
    """Combine the raw records of several processes of one pass."""
    names: dict[str, list] = {}
    counts = {key: 0 for key in COUNTERS}
    for raw in raws:
        for name, (calls, incl, own) in raw["names"].items():
            entry = names.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += incl
            entry[2] += own
        for key, value in raw["counts"].items():
            if key == "lfunc.em_matrix_peak_bytes":
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    return {"names": names, "counts": counts}


def calls(raw: dict, layer: str) -> int:
    return sum(c for name, (c, _, _) in raw["names"].items() if name.startswith(layer + "."))


def layer_metrics(raw: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, name -> (value, unit), from a raw record."""
    names, c = raw["names"], raw["counts"]
    specs = {spec.name: spec for spec in LAYERS}

    def self_s(layer: str, kind: str | None = None) -> float:
        return sum(
            own for name, (_, _, own) in names.items()
            if specs[name].module == layer and (kind is None or specs[name].kind == kind)
        )

    def incl_s(layer: str, kind: str) -> float:
        return sum(
            incl for name, (_, incl, _) in names.items()
            if specs[name].module == layer and specs[name].kind == kind
        )

    em_s = incl_s("lfunc", "em")
    return {
        "characters.busy_s": (self_s("characters"), "s"),
        "lfunc.busy_s": (self_s("lfunc"), "s"),
        "lfunc.em_s": (em_s, "s"),
        "lfunc.z_points": (c["lfunc.z_points"], "count"),
        "lfunc.em_terms": (c["lfunc.em_terms"], "count"),
        "lfunc.em_terms_per_s": (c["lfunc.em_terms"] / em_s if em_s else 0.0, "1/s"),
        "lfunc.em_matrix_peak_mb": (c["lfunc.em_matrix_peak_bytes"] / 1e6, "MB"),
        "zeros.self_s": (self_s("zeros"), "s"),
        "zeros.scans": (c["zeros.scans"], "count"),
        "zeros.zeros_found": (c["zeros.zeros_found"], "count"),
        "zeros.mesh_points": (c["zeros.mesh_points"], "count"),
        "zeros.refine_points": (c["zeros.refine_points"], "count"),
        "zeros.z_evals_per_zero": (
            c["zeros.scan_z_points"] / c["zeros.zeros_found"] if c["zeros.zeros_found"] else 0.0,
            "count",
        ),
        "store.read_s": (incl_s("store", "read"), "s"),
        "store.reads": (c["store.reads"], "count"),
        "store.bytes_read": (c["store.bytes_read"], "B"),
        "store.write_s": (incl_s("store", "write"), "s"),
        "store.writes": (c["store.writes"], "count"),
        "store.bytes_written": (c["store.bytes_written"], "B"),
        "store.hit_frac": (
            c["store.hits"] / c["store.lookups"] if c["store.lookups"] else 0.0, "fraction"
        ),
        "store.emit_s": (incl_s("store", "emit"), "s"),
        "sieve.table_build_s": (incl_s("sieve", "build"), "s"),
        "sieve.table_entries": (c["sieve.table_entries"], "count"),
        "sieve.busy_s": (self_s("sieve"), "s"),
        "conjectures.busy_s": (self_s("conjectures"), "s"),
        "conjectures.class_evals": (c["conjectures.class_evals"], "count"),
        "paircorr.direct_s": (self_s("paircorr", "direct"), "s"),
        "paircorr.pair_terms": (c["paircorr.pair_terms"], "count"),
        "paircorr.quad_s": (self_s("paircorr", "quad"), "s"),
        "paircorr.quad_nodes": (c["paircorr.quad_nodes"], "count"),
        "paircorr.hist_s": (self_s("paircorr", "hist"), "s"),
        "paircorr.hist_pairs": (c["paircorr.hist_pairs"], "count"),
        "explicit.busy_s": (self_s("explicit"), "s"),
        "explicit.zero_terms": (c["explicit.zero_terms"], "count"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.commands": (c["cli.commands"], "count"),
    }
