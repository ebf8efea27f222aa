"""Certified scanning for critical-line zeros of primitive L-functions.

A scan walks a symmetric mesh on [-T, T], brackets sign changes of the
rotated (real) critical-line value, splits suspicious near-tangent dips at
half steps, and refines every bracket with vectorised Illinois false
position.  Each trial point sits at least tolerance/2 inside its bracket,
so the bracket also closes from the side far from the root, and a step
that fails to halve its bracket forces a bisection next, which bounds the
worst case at two steps per halving.  A final secant step inside the
closed bracket gives the ordinate and its residual.  Every evaluation uses
EvalPrecision.for_height(T), the smallest Euler-Maclaurin size certified on
the whole window.

The result carries a certificate: the count of located zeros must agree
with the counting formula

    q = 1:  2 * ((T/2pi) log(T/2pi e)) + 7/4
    q > 1:  (T/pi) log(qT/2pi e)         (clamped at 0)

to within +-2, ordinates must be strictly separated, every refined
residual must be small, and every ordinate must sit in a bracket no wider
than the tolerance whose ends have values of opposite sign (or be an exact
zero).  Failing sets are returned with certified=False, never silently
dropped.

Scans never assume conjugate symmetry of the ordinates; the negative half
of the window is walked for real characters too, so symmetry stays a
testable property of the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from zeropair.characters import CharacterLabel, DirichletCharacter, conductor_and_inducer, enumerate_characters
from zeropair.lfunc import EvalPrecision, ROTATION_BRANCH, hardy_z_batch

DEFAULT_TOLERANCE = 1e-10
DEFAULT_RESIDUAL_TOL = 1e-6
COUNT_SLACK = 2  # lower-order terms of the counting formula land inside this
REFINE_STEP_CAP = 80  # refinement steps; bisection alone needs ~29 from 0.05 to 1e-10


def default_mesh_step(q: int, T: float) -> float:
    """Mesh fine enough to separate zeros at density ~ log(qT)/pi."""
    return min(0.05, 0.5 * math.pi / math.log(q * (T + 3)))


def count_expected(chi: DirichletCharacter, T: float) -> float:
    """Approximate number of zeros with |ordinate| <= T, clamped at 0."""
    if T <= 0:
        return 0.0
    q = chi.modulus
    two_pi_e = 2 * math.pi * math.e
    if q == 1:
        val = 2 * ((T / (2 * math.pi)) * math.log(T / two_pi_e)) + 7 / 4
    else:
        val = (T / math.pi) * math.log(q * T / two_pi_e)
    return max(0.0, val)


@dataclass(frozen=True)
class ZeroRecord:
    ordinate: float
    bracket: tuple[float, float]
    residual: float


@dataclass(frozen=True)
class ZeroSet:
    """Zeros of one primitive character in [-height, height], with certificate."""

    label: CharacterLabel
    conductor: int
    parity: int
    height: float
    mesh_step: float
    tolerance: float
    branch: str
    records: tuple[ZeroRecord, ...]
    expected_count: float
    certified: bool

    @property
    def count(self) -> int:
        return len(self.records)

    @property
    def ordinates(self) -> np.ndarray:
        return np.array([r.ordinate for r in self.records], dtype=np.float64)

    def truncated(self, T: float) -> "ZeroSet":
        """The sub-window |ordinate| <= T, re-certified at the new height."""
        if T > self.height + 1e-12:
            raise ValueError(f"cannot truncate to {T}: set only reaches {self.height}")
        kept = tuple(r for r in self.records if abs(r.ordinate) <= T)
        chi = _character_of(self.label)
        expected = count_expected(chi, T)
        certified = self.certified and _counts_agree(len(kept), expected)
        return replace(
            self, height=T, records=kept, expected_count=expected, certified=certified
        )


def _character_of(label: CharacterLabel) -> DirichletCharacter:
    from zeropair.characters import character

    return character(label.modulus, label.index)


def _counts_agree(found: int, expected: float) -> bool:
    return abs(found - round(expected)) <= COUNT_SLACK


def _refine_brackets(
    chi, lo: np.ndarray, hi: np.ndarray, zlo: np.ndarray, zhi: np.ndarray,
    prec: EvalPrecision, tol: float,
) -> tuple[np.ndarray, ...]:
    """Illinois false position to width <= tol, then one secant step inside the bracket.

    Every trial point lies at least tol/2 inside its bracket, so a point that
    lands next to the root closes the bracket from the far side.  A step that
    fails to halve its bracket makes the next step a bisection, so at most
    two steps pass per halving.  Returns the ordinates, their residuals, the
    brackets and the values of Z at the bracket ends; a bracket collapsed to
    a point holds an exact zero, with both end values 0.
    """
    lo, hi = np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)
    zlo, zhi = np.array(zlo, dtype=np.float64), np.array(zhi, dtype=np.float64)
    # end values for the false-position step; Illinois halves the value of an
    # end that is kept twice in a row
    flo, fhi = zlo.copy(), zhi.copy()
    kept = np.zeros(lo.size, dtype=np.int8)  # +1: hi kept last step, -1: lo kept
    bisect = np.zeros(lo.size, dtype=bool)
    for _ in range(REFINE_STEP_CAP):
        idx = np.nonzero(hi - lo > tol)[0]
        if not idx.size:
            break
        a, b, fa, fb = lo[idx], hi[idx], flo[idx], fhi[idx]
        width = b - a
        halve = bisect[idx]
        x = np.where(halve, a + 0.5 * width, a + width * (fa / (fa - fb)))
        x = np.clip(x, a + 0.5 * tol, b - 0.5 * tol)
        z = hardy_z_batch(chi, x, prec)

        right = np.sign(z) == np.sign(zlo[idx])  # the root lies in [x, b]
        exact = z == 0.0
        lo[idx] = np.where(right | exact, x, a)
        hi[idx] = np.where(right & ~exact, b, x)
        zlo[idx] = np.where(right | exact, z, zlo[idx])
        zhi[idx] = np.where(right & ~exact, zhi[idx], z)

        side = np.where(right, 1, -1)
        again = kept[idx] == side
        flo[idx] = np.where(right, z, np.where(again, 0.5 * fa, fa))
        fhi[idx] = np.where(right, np.where(again, 0.5 * fb, fb), z)
        # a bisection restarts false position from the true end values
        flo[idx] = np.where(halve, zlo[idx], flo[idx])
        fhi[idx] = np.where(halve, zhi[idx], fhi[idx])
        kept[idx] = np.where(halve, 0, side)
        bisect[idx] = ~halve & (hi[idx] - lo[idx] > 0.5 * width)
    with np.errstate(divide="ignore", invalid="ignore"):
        secant = lo + (hi - lo) * (zlo / (zlo - zhi))
    ordinates = np.clip(np.where(hi > lo, secant, lo), lo, hi)
    residual = np.abs(hardy_z_batch(chi, ordinates, prec))
    return ordinates, residual, lo, hi, zlo, zhi


def _brackets_certified(
    ords: np.ndarray, lo: np.ndarray, hi: np.ndarray,
    zlo: np.ndarray, zhi: np.ndarray, tol: float,
) -> bool:
    """Each ordinate sits in a sign-change bracket no wider than tol, or is exact."""
    exact = (lo == hi) & (zlo == 0.0) & (zhi == 0.0)
    flip = np.sign(zlo) * np.sign(zhi) < 0
    inside = (lo <= ords) & (ords <= hi) & (hi - lo <= tol)
    return bool(np.all(exact | (flip & inside)))


def scan_zeros(
    chi: DirichletCharacter,
    T: float,
    mesh_step: float | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    prec: EvalPrecision | None = None,
) -> ZeroSet:
    """Scan [-T, T] for zeros of a primitive character's critical line."""
    if not chi.is_primitive:
        raise ValueError(f"scan requires a primitive character, got {chi.label}")
    if T <= 0:
        raise ValueError("T must be positive")
    if mesh_step is None:
        mesh_step = default_mesh_step(chi.modulus, T)
    if not 0 < mesh_step <= 0.5:
        raise ValueError("mesh_step must lie in (0, 0.5]")
    if tolerance <= 0 or tolerance >= mesh_step:
        raise ValueError("tolerance must lie in (0, mesh_step)")
    if prec is None:
        prec = EvalPrecision.for_height(T)

    half = math.ceil(T / mesh_step)
    ts = np.linspace(-T, T, 2 * half + 1)
    z = hardy_z_batch(chi, ts, prec)

    sign = np.sign(z)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    lo, hi = ts[flips], ts[flips + 1]
    zlo, zhi = z[flips], z[flips + 1]

    exact_nodes = np.nonzero(sign == 0)[0]

    # near-tangent dips: a strict local minimum of |Z| with no sign change
    # around it can hide a close pair of zeros; re-test at half steps
    absz = np.abs(z)
    interior = np.arange(1, ts.size - 1)
    dip = interior[
        (absz[interior] < absz[interior - 1])
        & (absz[interior] < absz[interior + 1])
        & (sign[interior - 1] == sign[interior])
        & (sign[interior] == sign[interior + 1])
        & (sign[interior] != 0)
    ]
    if dip.size:
        mids_l = 0.5 * (ts[dip - 1] + ts[dip])
        mids_r = 0.5 * (ts[dip] + ts[dip + 1])
        zl, zr = np.split(hardy_z_batch(chi, np.concatenate([mids_l, mids_r]), prec), 2)
        add_lo, add_hi, add_zlo, add_zhi = [], [], [], []
        for j, i in enumerate(dip):
            for a, b, za, zb in (
                (ts[i - 1], mids_l[j], z[i - 1], zl[j]),
                (mids_l[j], ts[i], zl[j], z[i]),
                (ts[i], mids_r[j], z[i], zr[j]),
                (mids_r[j], ts[i + 1], zr[j], z[i + 1]),
            ):
                if np.sign(za) * np.sign(zb) < 0:
                    add_lo.append(a)
                    add_hi.append(b)
                    add_zlo.append(za)
                    add_zhi.append(zb)
        if add_lo:
            lo = np.concatenate([lo, add_lo])
            hi = np.concatenate([hi, add_hi])
            zlo = np.concatenate([zlo, add_zlo])
            zhi = np.concatenate([zhi, add_zhi])

    ords, resid, blo, bhi, zblo, zbhi = _refine_brackets(
        chi, lo, hi, zlo, zhi, prec, tolerance
    )

    records = [
        ZeroRecord(float(o), (float(a), float(b)), float(r))
        for o, a, b, r in zip(ords, blo, bhi, resid)
    ]
    for i in exact_nodes:
        t0 = float(ts[i])
        records.append(ZeroRecord(t0, (t0, t0), 0.0))
    records.sort(key=lambda r: r.ordinate)

    expected = count_expected(chi, T)
    separated = all(
        records[i + 1].ordinate - records[i].ordinate > tolerance
        for i in range(len(records) - 1)
    )
    certified = (
        _counts_agree(len(records), expected)
        and separated
        and _brackets_certified(ords, blo, bhi, zblo, zbhi, tolerance)
        and all(r.residual <= residual_tol for r in records)
    )
    return ZeroSet(
        label=chi.label,
        conductor=chi.conductor,
        parity=chi.parity,
        height=float(T),
        mesh_step=float(mesh_step),
        tolerance=float(tolerance),
        branch=ROTATION_BRANCH,
        records=tuple(records),
        expected_count=expected,
        certified=certified,
    )


def refine_zero(
    chi: DirichletCharacter,
    bracket: tuple[float, float],
    tolerance: float = DEFAULT_TOLERANCE,
    prec: EvalPrecision | None = None,
) -> ZeroRecord:
    """Narrow one sign-change bracket; raises if the bracket does not flip sign."""
    a, b = float(bracket[0]), float(bracket[1])
    if not a < b:
        raise ValueError("bracket must satisfy a < b")
    if prec is None:
        prec = EvalPrecision.for_height(max(abs(a), abs(b)))
    za, zb = hardy_z_batch(chi, np.array([a, b]), prec)
    if za == 0.0:
        return ZeroRecord(a, (a, a), 0.0)
    if zb == 0.0:
        return ZeroRecord(b, (b, b), 0.0)
    if math.copysign(1.0, za) == math.copysign(1.0, zb):
        raise ValueError(f"no sign change over {bracket} for {chi.label}")
    ords, resid, lo, hi, _, _ = _refine_brackets(
        chi, np.array([a]), np.array([b]), np.array([za]), np.array([zb]), prec, tolerance
    )
    return ZeroRecord(float(ords[0]), (float(lo[0]), float(hi[0])), float(resid[0]))


def zeros_for_modulus(
    q: int,
    T: float,
    mesh_step: float | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    cache=None,
) -> dict[CharacterLabel, ZeroSet]:
    """Zero sets for every character mod q, scanned through the inducers.

    Imprimitive characters share their inducer's set by reference (the
    stripped Euler factors are zero-free on the critical line); principal
    characters map to the q = 1 set.  With a cache, scans go through
    cache.load_or_scan.
    """
    out: dict[CharacterLabel, ZeroSet] = {}
    by_inducer: dict[CharacterLabel, ZeroSet] = {}
    for chi in enumerate_characters(q):
        _, psi = conductor_and_inducer(chi)
        zs = by_inducer.get(psi.label)
        if zs is None:
            if cache is not None:
                zs = cache.load_or_scan(psi, T, mesh_step=mesh_step, tolerance=tolerance)
            else:
                zs = scan_zeros(psi, T, mesh_step=mesh_step, tolerance=tolerance)
            by_inducer[psi.label] = zs
        out[chi.label] = zs
    return out
