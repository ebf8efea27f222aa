"""Acceptance gate: eleven criteria, one test and one printed verdict each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they are produced.  The suite scans its own zero sets (no cache needed)
and is deterministic end to end; the only randomness is a fixed-seed
generator for the mean-value envelope instances.
"""

import cmath
import csv
import json
import math
import time

import numpy as np
import pytest

from zeropair.characters import (
    CharacterLabel,
    character,
    enumerate_characters,
    euler_phi,
    gauss_sum,
    orthogonality_matrix,
)
from zeropair.cli import main as cli_main
from zeropair.explicit import psi_progression_from_zeros
from zeropair.lfunc import EvalPrecision, hardy_z_batch
from zeropair.paircorr import (
    f_q,
    f_q_via_integral,
    g_pair,
    increment_identity_check,
    mean_value_check,
    sigma_sum,
)
from zeropair.sieve import (
    brun_titchmarsh_check,
    psi,
    psi_character,
    psi_progression,
    s_of_x,
)
from zeropair.zeros import scan_zeros, zeros_for_modulus

GRID_QS = (1, 3, 4, 5, 8, 12)
GRID_XS = (2.0, 3.0, 5.0, 10.0)
GRID_TS = (15.0, 30.0, 60.0)
UT_PAIRS = ((5.0, 15.0), (15.0, 30.0), (30.0, 60.0))

_TIMINGS: dict = {}


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"CRITERION {num:2d} {'PASS' if ok else 'FAIL'}: {label} ({detail})"
    print(line)
    assert ok, line


def _units(q: int) -> list:
    return [a for a in range(1, q + 1) if math.gcd(a, q) == 1] or [1]


@pytest.fixture(scope="module")
def prim100():
    """Every primitive character with modulus <= 24, scanned to height 100."""
    t0 = time.perf_counter()
    sets = {}
    for q in range(1, 25):
        for chi in enumerate_characters(q):
            if chi.is_primitive:
                sets[chi.label] = scan_zeros(chi, 100.0)
    _TIMINGS["prim100"] = time.perf_counter() - t0
    return sets


@pytest.fixture(scope="module")
def grid_sets():
    t0 = time.perf_counter()
    sets = {(q, T): zeros_for_modulus(q, T) for q in GRID_QS for T in GRID_TS}
    _TIMINGS["grid_sets"] = time.perf_counter() - t0
    return sets


@pytest.fixture(scope="module")
def fq_grid(grid_sets):
    out = {}
    for q in GRID_QS:
        for T in GRID_TS:
            for a in _units(q):
                for x in GRID_XS:
                    out[(q, a, x, T)] = f_q(q, a, x, T, grid_sets[(q, T)])
    return out


def test_criterion_01_character_exactness():
    t0 = time.perf_counter()
    worst_tau = 0.0
    for q in range(1, 51):
        units, M = orthogonality_matrix(q)
        phi = euler_phi(q)
        assert np.array_equal(M, phi * np.eye(len(units), dtype=M.dtype)), q
        for chi in enumerate_characters(q):
            if chi.is_primitive:
                worst_tau = max(worst_tau, abs(abs(gauss_sum(chi)) - math.sqrt(q)))
    elapsed = time.perf_counter() - t0
    ok = worst_tau < 1e-10 and elapsed < 10.0
    _verdict(1, "character orthogonality and Gauss-sum moduli", ok,
             f"worst tau deviation {worst_tau:.2e}, {elapsed:.1f}s")


def test_criterion_02_zero_certification(prim100):
    t0 = time.perf_counter()
    worst_drift = 0
    worst_sym = 0.0
    mirrored = 0
    prec = EvalPrecision.for_height(100.0)
    for label, zs in prim100.items():
        assert zs.certified, label
        worst_drift = max(worst_drift, abs(zs.count - round(zs.expected_count)))
        chi = character(label.modulus, label.index)
        if chi.is_real:
            # the negative half is the reflection of the positive one; each
            # reflected bracket must still be a sign change of Z evaluated there
            neg = zs.ordinates < 0
            zlo = hardy_z_batch(chi, zs.lo[neg], prec)
            zhi = hardy_z_batch(chi, zs.hi[neg], prec)
            assert np.all(np.sign(zlo) * np.sign(zhi) < 0), label
            mirrored += int(np.count_nonzero(neg))
            continue
        # zeros at height g for chi mirror zeros at -g for the conjugate,
        # both scanned on the whole window
        mirror = prim100[chi.conjugate().label]
        pos = [o for o in zs.ordinates if o > 0]
        neg = sorted(-o for o in mirror.ordinates if o < 0)
        assert len(pos) == len(neg), label
        if pos:
            worst_sym = max(worst_sym, max(abs(p - n) for p, n in zip(pos, neg)))
    oracles = {
        CharacterLabel(1, 1): 14.134725,
        CharacterLabel(4, 3): 6.020949,
        CharacterLabel(3, 2): 8.039737,
    }
    worst_first = 0.0
    for label, want in oracles.items():
        first = min(o for o in prim100[label].ordinates if o > 0)
        worst_first = max(worst_first, abs(first - want))
    elapsed = _TIMINGS["prim100"] + (time.perf_counter() - t0)
    ok = (worst_drift <= 2 and worst_sym < 1e-9 and worst_first < 1e-4
          and elapsed < 300.0)
    _verdict(2, "zero certification for all primitive characters to q=24", ok,
             f"{len(prim100)} sets, count drift {worst_drift}, symmetry "
             f"{worst_sym:.1e}, {mirrored} reflected brackets flip sign, "
             f"first-ordinate {worst_first:.1e}, {elapsed:.0f}s")


def test_criterion_03_integral_representation(grid_sets, fq_grid):
    t0 = time.perf_counter()
    worst = 0.0
    for q in GRID_QS:
        for T in GRID_TS:
            for a in _units(q):
                for x in GRID_XS:
                    res = f_q_via_integral(q, a, x, T, grid_sets[(q, T)])
                    rel = abs(res.lhs - res.rhs.real) / abs(res.rhs.real)
                    worst = max(worst, rel)
    elapsed = _TIMINGS["grid_sets"] + (time.perf_counter() - t0)
    ok = worst < 1e-4 and elapsed < 600.0
    _verdict(3, "integral route matches the zero-pair double sum", ok,
             f"204 grid points, worst relative residual {worst:.2e}, {elapsed:.0f}s")


def test_criterion_04_increment_identity(grid_sets):
    worst = 0.0
    for q in GRID_QS:
        for U, T in UT_PAIRS:
            for a in _units(q):
                for x in GRID_XS:
                    res = increment_identity_check(x, T, U, q, a, grid_sets[(q, T)])
                    worst = max(worst, res.rel_residual)
    ok = worst < 1e-4
    _verdict(4, "window-increment identity on the same grid", ok,
             f"worst relative residual {worst:.2e}")


def test_criterion_05_realness(fq_grid):
    worst = 0.0
    for res in fq_grid.values():
        worst = max(worst, abs(res.value.imag) / (1.0 + abs(res.value.real)))
    ok = worst <= 1e-9
    _verdict(5, "aggregate pair sums are real", ok,
             f"worst normalized imaginary part {worst:.2e}")


def _brute_lambda(n: int) -> float:
    if n < 2:
        return 0.0
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            return math.log(p) if m == 1 else 0.0
        p += 1
    return math.log(m)


def _brute_pair(o1, o2, x: float) -> complex:
    total = 0j
    for g1 in o1:
        for g2 in o2:
            d = g1 - g2
            total += cmath.exp(1j * math.log(x) * d) * 4.0 / (4.0 + d * d)
    return total


def test_criterion_06_brute_force_equivalence(grid_sets):
    rels = {}
    sets4 = grid_sets[(4, 15.0)]
    sets5 = grid_sets[(5, 15.0)]

    def window(zs, T):
        return [o for o in zs.ordinates if abs(o) <= T]

    # aggregate pair sum with character weights
    want = 0j
    for chi1 in enumerate_characters(4):
        for chi2 in enumerate_characters(4):
            want += (chi1(3).conjugate() * chi2(3)
                     * _brute_pair(window(sets4[chi1.label], 15.0),
                                   window(sets4[chi2.label], 15.0), 10.0))
    got = f_q(4, 3, 10.0, 15.0, sets4).value
    rels["f_q"] = abs(got - want) / abs(want)

    # single character pair
    c1, c2 = character(5, 2), character(5, 3)
    want = _brute_pair(window(sets5[c1.label], 15.0), window(sets5[c2.label], 15.0), 3.0)
    got = g_pair(c1, c2, 3.0, 15.0, sets5).value
    rels["g_pair"] = abs(got - want) / abs(want)

    # single zero sum with a shifted frequency
    want = 0j
    for chi in enumerate_characters(4):
        for g in window(sets4[chi.label], 15.0):
            want += chi(3).conjugate() * cmath.exp(1j * g * (math.log(3.0) + 0.4))
    got = sigma_sum(3.0, 15.0, 0.4, 4, 3, sets4)
    rels["sigma_sum"] = abs(got - want) / abs(want)

    # prime-side family against a trial-division oracle
    x = 10_000
    lam = [0.0] * (x + 1)
    for n in range(2, x + 1):
        lam[n] = _brute_lambda(n)
    rels["psi"] = abs(psi(float(x)) - math.fsum(lam)) / math.fsum(lam)
    want = math.fsum(lam[n] for n in range(2, x + 1) if n % 7 == 3)
    rels["psi_progression"] = abs(psi_progression(float(x), 7, 3) - want) / want
    chi = character(5, 2)
    wantc = sum(chi(n) * lam[n] for n in range(2, x + 1))
    rels["psi_character"] = (abs(psi_character(float(x), chi) - wantc)
                             / abs(wantc))

    def brute_psi(y, q, a):
        return math.fsum(lam[n] for n in range(2, int(y) + 1) if n % q == a % q)

    from zeropair.conjectures import eh_sum
    want = math.fsum(
        max(abs(brute_psi(2000, q, a) - 2000.0 / euler_phi(q)) for a in _units(q))
        for q in range(1, 11)
    )
    rels["eh_sum"] = abs(eh_sum(2000.0, 10) - want) / want

    worst = max(rels.values())
    ok = worst < 1e-10
    detail = ", ".join(f"{k} {v:.1e}" for k, v in rels.items())
    _verdict(6, "brute-force equivalence on small instances", ok, detail)


def test_criterion_07_explicit_formula():
    t0 = time.perf_counter()
    trend_ok = True
    margins = []
    for q in (1, 4):
        sets = zeros_for_modulus(q, 100.0)
        errs = [
            psi_progression_from_zeros(1000.5, z, q, 1, sets).abs_error
            for z in (30.0, 100.0)
        ]
        trend_ok &= errs[1] < errs[0]
        margins.append(f"q={q}: {errs[0]:.3f}->{errs[1]:.3f}")
    worst_rec = 0.0
    for q in (3, 4, 5):
        phi = euler_phi(q)
        for a in _units(q):
            combined = sum(
                chi(a).conjugate() * psi_character(1000.5, chi)
                for chi in enumerate_characters(q)
            ) / phi
            direct = psi_progression(1000.5, q, a)
            worst_rec = max(worst_rec, abs(combined - direct))
    elapsed = time.perf_counter() - t0
    ok = trend_ok and worst_rec < 1e-8 and elapsed < 120.0
    _verdict(7, "zero-sum reconstruction deepens and recombines", ok,
             f"{'; '.join(margins)}; recombination {worst_rec:.1e}, {elapsed:.0f}s")


def test_criterion_08_brun_titchmarsh():
    t0 = time.perf_counter()
    worst = math.inf
    count = 0
    for q in range(1, 51):
        for ratio in (2.0, 10.0, 100.0):
            for x in (0.0, 1e3, 1e6):
                for a in _units(q):
                    res = brun_titchmarsh_check(x, ratio * q, q, a)
                    worst = min(worst, res.margin)
                    count += 1
    elapsed = time.perf_counter() - t0
    ok = worst > 0 and elapsed < 60.0
    _verdict(8, "sieve upper bound holds with positive margin", ok,
             f"{count} checks, worst margin {worst:.2f}, {elapsed:.1f}s")


def test_criterion_09_second_moment_normalization():
    worst_lo, worst_hi, worst_drift = math.inf, 0.0, True
    for q in (1, 3, 4, 5):
        base = s_of_x(1e6, q, 1)
        ratio = base.value * euler_phi(q) / math.log(1e6)
        worst_lo = min(worst_lo, ratio)
        worst_hi = max(worst_hi, ratio)
        doubled = s_of_x(1e6, q, 1, cutoff=16_000_000)
        worst_drift &= abs(doubled.value - base.value) < base.remainder_bound
    ok = 0.8 <= worst_lo and worst_hi <= 1.2 and worst_drift
    _verdict(9, "second-moment sum tracks log x over phi(q)", ok,
             f"ratios in [{worst_lo:.3f}, {worst_hi:.3f}], tail doubling certified")


def test_criterion_10_mean_value_envelope():
    single = mean_value_check([(14.1347, 0.7)], 50.0, 0.1)
    single_ok = (
        single.close_pair_count == 0
        and single.exact_integral == pytest.approx(single.main_term, rel=1e-12)
    )
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(20):
        mu = np.sort(rng.uniform(0.0, 60.0, 50))
        c = rng.uniform(0.1, 1.0, 50)
        res = mean_value_check(list(zip(mu.tolist(), c.tolist())), 40.0, 0.05)
        worst = max(worst, res.constant)
    ok = single_ok and worst <= 4.0
    _verdict(10, "mean-value envelope with recorded constant", ok,
             f"single-frequency exact, worst C {worst:.3f} over 20 instances")


def test_criterion_11_trend_reports(tmp_path_factory):
    cache = tmp_path_factory.mktemp("acc_cache")
    first = tmp_path_factory.mktemp("acc_report") / "r1"
    second = first.parent / "r2"
    assert cli_main(["report", "--cache-dir", str(cache), "--out", str(first)]) == 0
    assert cli_main(["report", "--cache-dir", str(cache), "--out", str(second)]) == 0

    names = ["zeta_ratio_T100.csv", "thm_ratio.csv", "gue_histogram_q1_T100.csv",
             "montgomery.csv", "eh.csv", "weak.csv", "dyadic.csv", "manifest.json"]
    deterministic = all(
        (first / n).read_bytes() == (second / n).read_bytes() for n in names
    )

    with open(first / "eh.csv", newline="") as fh:
        eh_rows = list(csv.DictReader(fh))
    by_x: dict = {}
    for row in eh_rows:
        by_x.setdefault(row["x"], []).append(float(row["value"]))
    eh_monotone = all(vals == sorted(vals) for vals in by_x.values())

    with open(first / "dyadic.csv", newline="") as fh:
        dy_rows = list(csv.DictReader(fh))
    telescope_ok = True
    for key in {(r["x"], r["q"]) for r in dy_rows}:
        rows = [r for r in dy_rows if (r["x"], r["q"]) == key]
        blocks = math.fsum(float(r["error"]) for r in rows if r["piece"] == "block")
        tail = next(float(r["error"]) for r in rows if r["piece"] == "tail")
        total = next(float(r["error"]) for r in rows if r["piece"] == "total")
        telescope_ok &= abs(blocks + tail - total) <= 1e-6 * max(1.0, abs(total))

    with open(first / "montgomery.csv", newline="") as fh:
        regimes = {row["regime"] for row in csv.DictReader(fh)}
    labels_ok = regimes <= {"classical", "below-sqrt", "above-sqrt"} and regimes

    manifest = json.loads((first / "manifest.json").read_text())
    bundle_ok = sorted(manifest["files"]) == sorted(n for n in names
                                                    if n != "manifest.json")

    ok = bool(deterministic and eh_monotone and telescope_ok and labels_ok
              and bundle_ok)
    _verdict(11, "trend bundle is deterministic with internal invariants", ok,
             f"byte-identical {deterministic}, eh monotone {eh_monotone}, "
             f"telescoping {telescope_ok}")
