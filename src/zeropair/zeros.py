"""Certified scanning for critical-line zeros of primitive L-functions.

A scan walks a symmetric mesh on [-T, T] (a real character's from the node
-h; see below) of the rotated (real) critical-line value and re-tests each
near-tangent dip at its half steps.  One rule
brackets rows of points: a sign change between neighbours gives a bracket,
and an exact zero a bracket collapsed onto its point.  The mesh, the dips and
refine_zero all take their brackets from it, and every bracket, exact ones
included, goes through the same refinement and certificate.  Refinement is
vectorised Illinois false position on an evaluator of Z: each trial point
sits at least tolerance/2 inside its bracket, so the bracket also closes
from the side far from the root, and a step that fails to halve its bracket
forces a bisection next, at most two steps per halving.  A final secant
step gives the ordinate; the bracket's ends then move out to the ordinate
-+ tolerance/2, so that no end's sign is rounding.  A scan takes its mesh,
Z on it and an evaluator of Z between the nodes from one call,
lfunc.scan_mesh; the dip re-tests and refinement steps use the evaluator,
which interpolates the mesh's direct sums within a stated truncation bound
(see lfunc; like the Euler-Maclaurin certificate, it leaves out rounding).
The residual at each ordinate is one Euler-Maclaurin hardy_z_batch call per
scan, an independent cross-check.  refine_zero refines on hardy_z_batch
itself.  Everything runs at EvalPrecision.for_height(T), the smallest
Euler-Maclaurin size N certified on the whole window for the fixed M and
target of lfunc.

The result carries a certificate: the count of located zeros must agree
with the counting formula

    q = 1:  2 * ((T/2pi) log(T/2pi e)) + 7/4
    q > 1:  (T/pi) log(qT/2pi e)         (clamped at 0)

to within +-2, ordinates must be strictly separated, every refined
residual must be small, and every ordinate must sit in a bracket no wider
than the tolerance whose ends have values of opposite sign, or in a
collapsed one.  Failing sets are returned with certified=False, never
silently dropped.

Each conjugate pair {chi, conj chi} is scanned once, since
L(1/2 - it, chi) = conj L(1/2 + it, conj chi): the zeros of chi on [-T, 0)
are the negated zeros of conj chi on (0, T].  The member with the smaller
index represents a complex pair and is scanned on all of [-T, T]; the set
of the other member is its mirror (ordinates negated and reversed, the same
certificate), built once, by scan_pair.  zeros_for_characters is the one
path from characters to sets: a character takes its inducer's set, and each
pair of inducers comes from scan_pair or, whole, from the cache's
load_or_scan, which loads a pair only if its files are exact mirrors.  A
real chi, q = 1 included, has an even Z: its scan refines only the brackets
in [0, T] and reflects them, keeping an exact zero at 0 once.  A reflected
bracket keeps its sign change because Z_chi(-t) = Z_conj(chi)(t) (see
lfunc.hardy_z_batch).  Symmetry is still tested directly: the acceptance
suite compares the scans of both members of every complex pair, and checks
every reflected bracket of a real character for a sign change of Z
evaluated on the negative half.

Sums over zeros take their ordinates from ZeroSet.window, which checks the
certificate first, or from character_family, its character-weighted form:
the windows of every character mod q in one flat array, with an array of
weights conj(chi(a)) beside it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping

import numpy as np

from zeropair.characters import (
    CharacterLabel,
    DirichletCharacter,
    conductor_and_inducer,
    enumerate_characters,
    require_unit,
)
from zeropair.lfunc import (
    EvalPrecision,
    PrecisionError,
    ROTATION_BRANCH,
    hardy_z_batch,
    release_meshes,
    scan_mesh,
)

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MESH_STEP = 0.05  # the mesh step of every accepted scan; default_mesh_step says why
RESIDUAL_TOL = 1e-6  # largest |Z| at a refined ordinate of a certified set
COUNT_SLACK = 2  # lower-order terms of the counting formula land inside this
REFINE_STEP_CAP = 80  # refinement steps; bisection alone needs ~29 from 0.05 to 1e-10
WINDOWS = ("both", "positive")  # ordinate windows of ZeroSet.window


def default_mesh_step(q: int, T: float) -> float:
    """DEFAULT_MESH_STEP.  Zeros at density log(q T)/pi need a step below
    pi / (2 log(q (T + 3))), under 0.05 only once q (T + 3) > e^(10 pi) ~ 4.4e13.
    A scan's mesh holds phi(q) (20 T + 22) elements or more, at most
    lfunc._ARRAY_ELEMENTS = 2^24, so phi(q) < 762,601 and q/phi(q) < 5.6 (a
    larger ratio takes eight prime factors, phi(q) >= 1,658,880): every
    accepted scan has q (T + 3) below 1.3e7.  Only perfbench/spans.py's
    _count_scan calls this; the program reads DEFAULT_MESH_STEP."""
    return DEFAULT_MESH_STEP


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


class CertificationError(ValueError):
    """An operation required certified zero sets and did not get them."""


@dataclass(frozen=True, eq=False)
class ZeroSet:
    """Zeros of one primitive character in [-height, height], with certificate.

    ordinates, lo, hi and residual are parallel float64 arrays in ascending
    ordinate order: each ordinate sits in its bracket [lo, hi], and residual
    is |Z| there (NaN for a set read from the cache, which stores ordinates
    only).  The arrays are read-only because induced characters share one
    set by reference.
    """

    label: CharacterLabel
    conductor: int
    parity: int
    height: float
    mesh_step: float
    tolerance: float
    branch: str
    ordinates: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    residual: np.ndarray
    expected_count: float
    certified: bool

    def __post_init__(self):
        for name in ("ordinates", "lo", "hi", "residual"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def count(self) -> int:
        return int(self.ordinates.size)

    def window(self, T: float, window: str = "both") -> np.ndarray:
        """Ordinates with |g| <= T ("both") or 0 < g <= T ("positive"),
        after require_certified(self, T)."""
        if window not in WINDOWS:
            raise ValueError(f"window must be one of {WINDOWS}, got {window!r}")
        require_certified(self, T)
        o = self.ordinates
        if window == "both":
            return o[np.abs(o) <= T]
        return o[(o > 0.0) & (o <= T)]


def require_certified(zs: ZeroSet, T: float) -> None:
    """Raise CertificationError unless zs is certified and reaches height T."""
    if not zs.certified:
        raise CertificationError(f"zero set {zs.label} is not certified")
    if zs.height + 1e-12 < T:
        raise CertificationError(
            f"zero set {zs.label} reaches only height {zs.height:g}, need {T:g}"
        )


def zero_set_for(zero_sets: Mapping[CharacterLabel, ZeroSet], label: CharacterLabel) -> ZeroSet:
    """zero_sets[label], or a KeyError that names the missing character."""
    try:
        return zero_sets[label]
    except KeyError:
        raise KeyError(f"no zero set supplied for character {label}") from None


def character_family(
    q: int, a: int, T: float, zero_sets: Mapping[CharacterLabel, ZeroSet], window: str = "both"
) -> tuple[np.ndarray, np.ndarray]:
    """The ordinates of every character chi mod q, each set windowed to T and
    the sets concatenated in enumerate_characters order, and each ordinate's
    weight conj(chi(a)) as complex128, so that conj(chi1(a)) chi2(a) is
    weights_j conj(weights_k)."""
    require_unit(q, a)
    chars = enumerate_characters(q)
    blocks = [zero_set_for(zero_sets, chi.label).window(T, window) for chi in chars]
    weights = [np.full(o.size, chi(a).conjugate(), dtype=np.complex128)
               for chi, o in zip(chars, blocks)]
    return np.concatenate(blocks), np.concatenate(weights)


def _counts_agree(found: int, expected: float) -> bool:
    return abs(found - round(expected)) <= COUNT_SLACK


def _sign_brackets(t: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Rows lo, hi, zlo, zhi of the brackets in rows of points t and values z:
    one between neighbours of opposite sign, and one collapsed onto each exact
    zero (lo == hi, both end values 0), in row-major order of the left end."""
    sign = np.sign(z)
    flip = np.zeros(z.shape, dtype=bool)
    flip[:, :-1] = sign[:, :-1] * sign[:, 1:] < 0
    row, col = np.nonzero(flip | (sign == 0))
    end = col + flip[row, col]
    return np.array([t[row, col], t[row, end], z[row, col], z[row, end]])


def _refine_brackets(
    z: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray, hi: np.ndarray, zlo: np.ndarray, zhi: np.ndarray, tol: float,
) -> tuple[np.ndarray, ...]:
    """Illinois false position on the evaluator z to width <= tol, then one
    secant step inside the bracket.

    Every trial point lies at least tol/2 inside its bracket, so a point that
    lands next to the root closes the bracket from the far side.  A step that
    fails to halve its bracket makes the next step a bisection, so at most
    two steps pass per halving.  Returns the ordinates, the brackets (ends
    moved out to the ordinate -+ tol/2) and the values of Z at their ends; a
    bracket collapsed to a point holds an exact zero, with both end values 0.
    """
    first_lo, first_hi = np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)
    lo, hi = first_lo.copy(), first_hi.copy()
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
        zx = z(x)

        right = np.sign(zx) == np.sign(zlo[idx])  # the root lies in [x, b]
        exact = zx == 0.0
        lo[idx] = np.where(right | exact, x, a)
        hi[idx] = np.where(right & ~exact, b, x)
        zlo[idx] = np.where(right | exact, zx, zlo[idx])
        zhi[idx] = np.where(right & ~exact, zhi[idx], zx)

        side = np.where(right, 1, -1)
        again = kept[idx] == side
        flo[idx] = np.where(right, zx, np.where(again, 0.5 * fa, fa))
        fhi[idx] = np.where(right, np.where(again, 0.5 * fb, fb), zx)
        # a bisection restarts false position from the true end values
        flo[idx] = np.where(halve, zlo[idx], flo[idx])
        fhi[idx] = np.where(halve, zhi[idx], fhi[idx])
        kept[idx] = np.where(halve, 0, side)
        bisect[idx] = ~halve & (hi[idx] - lo[idx] > 0.5 * width)
    with np.errstate(divide="ignore", invalid="ignore"):
        secant = lo + (hi - lo) * (zlo / (zlo - zhi))
    ordinates = np.clip(np.where(hi > lo, secant, lo), lo, hi)
    # the last false-position point often lands next to the root, where the
    # sign of Z is rounding: move both ends of an open bracket out to the
    # ordinate -+ tol/2 (less an ulp, so the width stays <= tol), within the
    # first bracket, and take the certificate's signs there
    move = np.nonzero(hi > lo)[0]
    if move.size:
        reach = 0.5 * tol - np.spacing(np.abs(ordinates[move]))
        lo[move] = np.maximum(ordinates[move] - reach, first_lo[move])
        hi[move] = np.minimum(ordinates[move] + reach, first_hi[move])
        zlo[move], zhi[move] = np.split(z(np.concatenate([lo[move], hi[move]])), 2)
    return ordinates, lo, hi, zlo, zhi


def _brackets_certified(
    ords: np.ndarray, lo: np.ndarray, hi: np.ndarray,
    zlo: np.ndarray, zhi: np.ndarray, tol: float,
) -> bool:
    """Each ordinate sits in a sign-change bracket no wider than tol, or is exact."""
    exact = (lo == hi) & (zlo == 0.0) & (zhi == 0.0)
    flip = np.sign(zlo) * np.sign(zhi) < 0
    inside = (lo <= ords) & (ords <= hi) & (hi - lo <= tol)
    return bool(np.all(exact | (flip & inside)))


def check_scan_parameters(mesh_step: float | None, tolerance: float) -> None:
    """ValueError unless 0 < mesh_step <= 0.5 and 0 < tolerance < mesh_step;
    None stands for DEFAULT_MESH_STEP."""
    step = DEFAULT_MESH_STEP if mesh_step is None else mesh_step
    if not 0 < step <= 0.5:
        raise ValueError(f"mesh_step must be none or lie in (0, 0.5], got {mesh_step}")
    if not 0 < tolerance < step:
        raise ValueError(f"tolerance must lie in (0, {step:g}), got {tolerance}")


def scan_zeros(
    chi: DirichletCharacter,
    T: float,
    mesh_step: float | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ZeroSet:
    """Scan [-T, T] for zeros of a primitive character's critical line; a real
    character's set is the reflection of its scan of [0, T]."""
    if not chi.is_primitive:
        raise ValueError(f"scan requires a primitive character, got {chi.label}")
    if T <= 0:
        raise ValueError("T must be positive")
    if mesh_step is None:
        mesh_step = DEFAULT_MESH_STEP
    check_scan_parameters(mesh_step, tolerance)
    prec = EvalPrecision.for_height(T)

    ts, z, z_at = scan_mesh(chi, T, mesh_step, prec)
    if chi.is_real:
        # Z is even; start at the node -h so that a dip at 0 is re-tested
        ts, z = ts[ts.size // 2 - 1 :], z[z.size // 2 - 1 :]

    # near-tangent dips: a strict local minimum of |Z| with no sign change
    # around it can hide a close pair of zeros; re-test at half steps
    sign = np.sign(z)
    absz = np.abs(z)
    interior = np.arange(1, ts.size - 1)
    dip = interior[
        (absz[interior] < absz[interior - 1])
        & (absz[interior] < absz[interior + 1])
        & (sign[interior - 1] == sign[interior])
        & (sign[interior] == sign[interior + 1])
        & (sign[interior] != 0)
    ]
    mids_l = 0.5 * (ts[dip - 1] + ts[dip])
    mids_r = 0.5 * (ts[dip] + ts[dip + 1])
    zl, zr = np.split(z_at(np.concatenate([mids_l, mids_r])), 2)
    dip_t = np.stack([ts[dip - 1], mids_l, ts[dip], mids_r, ts[dip + 1]], axis=1)
    dip_z = np.stack([z[dip - 1], zl, z[dip], zr, z[dip + 1]], axis=1)
    brackets = np.hstack([_sign_brackets(ts[None], z[None]), _sign_brackets(dip_t, dip_z)])

    if chi.is_real:
        # the half [0, T]: a bracket left of 0 mirrors one right of it
        brackets = brackets[:, brackets[0] >= 0.0]

    ords, lo, hi, zlo, zhi = _refine_brackets(z_at, *brackets, tolerance)
    resid = np.abs(hardy_z_batch(chi, ords, prec))  # the Euler-Maclaurin cross-check
    order = np.argsort(ords, kind="stable")
    arrays = ords[order], lo[order], hi[order], resid[order]
    if chi.is_real:
        # P u -P; an exact zero at 0 (a bracket collapsed onto it) is kept once
        at_zero = (arrays[1] == 0.0) & (arrays[2] == 0.0)
        positive = tuple(a[~at_zero] for a in arrays)
        arrays = tuple(np.concatenate([m, a[at_zero], p])
                       for m, a, p in zip(_reflect(*positive), arrays, positive))
    ordinates = arrays[0]

    expected = count_expected(chi, T)
    certified = (
        _counts_agree(ordinates.size, expected)
        and bool(np.all(np.diff(ordinates) > tolerance))
        and _brackets_certified(ords, lo, hi, zlo, zhi, tolerance)
        and bool(np.all(resid <= RESIDUAL_TOL))
    )
    return ZeroSet(
        label=chi.label,
        conductor=chi.conductor,
        parity=chi.parity,
        height=float(T),
        mesh_step=float(mesh_step),
        tolerance=float(tolerance),
        branch=ROTATION_BRANCH,
        ordinates=ordinates,
        lo=arrays[1],
        hi=arrays[2],
        residual=arrays[3],
        expected_count=expected,
        certified=certified,
    )


def _reflect(ordinates, lo, hi, residual) -> tuple[np.ndarray, ...]:
    """Parallel ascending arrays of a zero set under t -> -t, still ascending."""
    return -ordinates[::-1], -hi[::-1], -lo[::-1], residual[::-1]


def conjugate_pair(chi: DirichletCharacter) -> tuple[DirichletCharacter, ...]:
    """(chi,) for a real chi; else chi and its conjugate, the representative
    (the smaller index) first."""
    if chi.is_real:
        return (chi,)
    return tuple(sorted((chi, chi.conjugate()), key=lambda psi: psi.index))


def scan_pair(
    chi: DirichletCharacter,
    T: float,
    mesh_step: float | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict[CharacterLabel, ZeroSet]:
    """The sets of chi's conjugate pair by label, from one scan of its
    representative: the other member's is the mirror, with the reflected
    ordinates, brackets and residuals and the same certificate."""
    rep, *others = conjugate_pair(chi)
    zs = scan_zeros(rep, T, mesh_step=mesh_step, tolerance=tolerance)
    sets = {zs.label: zs}
    for other in others:
        ordinates, lo, hi, residual = _reflect(zs.ordinates, zs.lo, zs.hi, zs.residual)
        sets[other.label] = replace(zs, label=other.label, ordinates=ordinates, lo=lo, hi=hi,
                                    residual=residual)
    return sets


def refine_zero(
    chi: DirichletCharacter,
    bracket: tuple[float, float],
    tolerance: float = DEFAULT_TOLERANCE,
    prec: EvalPrecision | None = None,
) -> tuple[float, float, float, float]:
    """Narrow one sign-change bracket to (ordinate, lo, hi, residual); (a, a, a, 0.0) if Z(a) = 0.

    Raises ValueError if the bracket has neither, and PrecisionError if
    refinement stops at REFINE_STEP_CAP before the bracket is certified.
    """
    a, b = float(bracket[0]), float(bracket[1])
    if not a < b:
        raise ValueError("bracket must satisfy a < b")
    if prec is None:
        prec = EvalPrecision.for_height(max(abs(a), abs(b)))
    ends = np.array([[a, b]])
    found = _sign_brackets(ends, hardy_z_batch(chi, ends[0], prec)[None])
    if not found.shape[1]:
        raise ValueError(f"no sign change over {bracket} for {chi.label}")
    ords, lo, hi, zlo, zhi = _refine_brackets(
        lambda ts: hardy_z_batch(chi, ts, prec), *found[:, :1], tolerance
    )
    resid = np.abs(hardy_z_batch(chi, ords, prec))
    if not _brackets_certified(ords, lo, hi, zlo, zhi, tolerance):
        raise PrecisionError(
            f"refinement of {bracket} for {chi.label} stopped at {REFINE_STEP_CAP} steps "
            f"with a bracket {hi[0] - lo[0]:.3e} wide (tolerance {tolerance:.1e})"
        )
    return float(ords[0]), float(lo[0]), float(hi[0]), float(resid[0])


def zeros_for_characters(
    chars: Iterable[DirichletCharacter],
    T: float,
    mesh_step: float | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    cache=None,
    force: bool = False,
    threads: int = 1,
) -> dict[CharacterLabel, ZeroSet]:
    """Zero sets for the characters chars by label, scanned through their inducers.

    Imprimitive characters share their inducer's set by reference (the
    stripped Euler factors are zero-free on the critical line); principal
    characters map to the q = 1 set.  Each conjugate pair of inducers is
    scanned once, through its representative, in ascending label order, so
    the inducers of one modulus follow each other and reuse its mesh
    columns; the other member gets the mirror of the representative's set.
    With a cache, each pair comes from cache.load_or_scan, loaded or scanned
    (force rescans past it); with threads > 1 the pairs run on a thread pool
    and are reassembled in the same order.
    """
    inducer_of = {chi.label: conductor_and_inducer(chi)[1] for chi in chars}
    pairs = sorted(
        {pair[0].label: pair for pair in map(conjugate_pair, inducer_of.values())}.values(),
        key=lambda pair: (pair[0].modulus, pair[0].index),
    )

    def scan(pair: tuple[DirichletCharacter, ...]) -> dict[CharacterLabel, ZeroSet]:
        if cache is None:
            return scan_pair(pair[0], T, mesh_step=mesh_step, tolerance=tolerance)
        return cache.load_or_scan(pair[0], T, mesh_step=mesh_step, tolerance=tolerance, force=force)

    if threads > 1 and len(pairs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            scanned = list(pool.map(scan, pairs))
    else:
        scanned = [scan(pair) for pair in pairs]
    release_meshes()  # they served these characters; a process scanning many keeps none
    by_label = {label: zs for sets in scanned for label, zs in sets.items()}
    return {label: by_label[psi.label] for label, psi in inducer_of.items()}


def zeros_for_modulus(q: int, T: float, *args, **kwargs) -> dict[CharacterLabel, ZeroSet]:
    """zeros_for_characters(enumerate_characters(q), T, ...): the zero sets
    of every character mod q, in enumerate_characters order."""
    return zeros_for_characters(enumerate_characters(q), T, *args, **kwargs)
