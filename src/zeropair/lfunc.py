"""Dirichlet L-functions via Euler-Maclaurin evaluation of Hurwitz zeta.

The core evaluator computes zeta(s, a) as

    sum_{k<N} (k+a)^(-s)  +  (N+a)^(1-s)/(s-1)  +  (N+a)^(-s)/2
    + sum_{j<=M} B_{2j}/(2j)! * (s)_{2j-1} * (N+a)^(-s-2j+1)

with (s)_r the rising factorial, and certifies the truncation at runtime
against the standard remainder bound

    |R| <= |B_{2M+2}/(2M+2)! * (s)_{2M+1} * (N+a)^(-s-2M-1)|
           * |s+2M+1| / (Re(s)+2M+1).

M is fixed at BERNOULLI_TERMS = 12 and the target at TARGET_ABS_ERROR =
1e-12, so an EvalPrecision holds N alone.  The bound is C(s) * w^-(Re s +
2M + 1) for w = N + a, so the smallest N that meets the target follows in
closed form (settled against the bound itself) for the worst shift a -> 0,
where w = N.  EvalPrecision.for_height(T) does this at s = 1/2 + iT, the
worst point of a critical-line window |t| <= T; evaluations without an
explicit precision do it over the points they are given.  Every evaluation
still checks the bound at its own points and raises PrecisionError when it
fails.

L(s, chi) for primitive chi mod q is q^(-s) sum_a chi(a) zeta(s, a/q).  The
points enter as a column and the shifts a/q broadcast against it, so one
Euler-Maclaurin pass yields every residue column and a matrix-vector product
with the values chi(a) combines them; the pass is chunked so that points x
residues x N stays bounded.

A zero scan takes everything from one call, scan_mesh, which returns the
mesh, Z on it and an evaluator of Z between its nodes.  Every character mod
q needs the same columns on the same mesh, so they are computed once per
(q, T, mesh step, precision) and the last few meshes are kept; each further
character costs matrix-vector products.  Only the half t >= 0 is computed
and kept: the shifts are real, so the columns at -t are the conjugates of
those at t, a character's product there is conj(cols @ conj(chi)), and
theta is odd, so the phase at -t is mirrored too.  The direct sums
D_a(t) = sum_{n<N} (n+a)^(-1/2) e^(-it log(n+a)) on the mesh come from
mesh_exp_sums, the blocked exponential-sum kernel for equispaced points
(the Odlyzko-Schonhage factorisation), which also serves the sigma(v)
quadrature of paircorr; the Euler-Maclaurin tail is added at the same
points, and the remainder check runs once per mesh, at every node up to T.
The mesh keeps the direct sums beside the columns.

Between the mesh nodes, the evaluator gives Z at any t of [-T, T] without a
new direct sum (the second half of Odlyzko-Schonhage).  A character's
direct sum S(t) = sum_a chi(a) D_a(t) has its frequencies -log(n + a/q) in
a band of half width beta = (log q + log(N - 1 + a_max)) / 2 (a_max the
largest unit shift), so times e^(-ict), c the band's centre, its (p+1)-th
derivative is at most beta^(p+1) sum|c_n|, sum|c_n| = sum_a sum_n
(n + a/q)^(-1/2).  The degree-p Lagrange stencil of the p + 1 mesh nodes
nearest t, from exact node values, then errs in Z by at most

    2 beta^(p+1) sum|c_n| h^(p+1) |prod_{j<=p} (u - j)| / (p+1)! q^(-1/2)

(real and imaginary parts, times |q^-s|), u the position of t in its
stencil in mesh steps.  This is a truncation bound, like the
Euler-Maclaurin remainder: the rounding already in the node values, times
the stencil's Lebesgue constant (at most 2.04 here), is not in it.  That
rounding grows with t; at q = 1, T = 10^4 it is about 2e-11, above both
the truncation bound and the target (ROADMAP item 2 states it).
mesh_interpolation picks the smallest p whose bound at the worst centred
position meets TARGET_ABS_ERROR, from (q, T, mesh step, precision) alone;
scan_mesh asks it before the mesh pass, so a mesh too coarse for every p up
to _INTERP_MAX_ORDER raises PrecisionError at once, and the evaluator
raises it too for any point whose own bound exceeds the target.  The mesh
carries _MESH_PAD nodes past T, so every stencil of the window is centred.
The Euler-Maclaurin tail, q^-s and the phase are added at t itself, and the
realness check runs as for the mesh.  The evaluator accepts no point beyond
the node at T, so the mesh's remainder check covers it.  hardy_z_batch
stays the independent Euler-Maclaurin oracle: for tests, for the residuals
of a scan, for refine_zero and, through the same kernel, for l_value.

Imprimitive values are obtained from the inducing character by stripping
Euler factors.  At s = 1, L(1, chi) is i pi tau(chi)/q^2 sum_a conj chi(a) a
for odd chi and -tau(chi)/q sum_a conj chi(a) log sin(pi a/q) for even chi
(Washington, Cyclotomic Fields, Thm 4.9).  hardy_z rotates the critical line
by conj(sqrt(eps)) e^(i theta(t)), sqrt(eps) the principal root of the root
number, so that the value is real; its residual imaginary part is checked
before it is discarded.  theta(t) is the phase of the gamma factor
(q/pi)^z Gamma(z), z = (s + parity)/2, whose log Gamma is Stirling's series
at Re w >= 8, with truncation below 2^13 |B_26| / (26 * 25 |w|^25) < 5e-16.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from zeropair.characters import (
    DirichletCharacter,
    _factorize,
    character,
    conductor_and_inducer,
    gauss_sum,
    units,
)


class PoleError(ValueError):
    """Evaluation requested at a pole."""


class PrecisionError(RuntimeError):
    """The requested tolerance cannot be certified with the given parameters."""


class RealnessError(PrecisionError):
    """A rotated critical-line value failed its realness check."""


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """The Bernoulli number B_m, exact (B_1 = -1/2), from the recurrence
    sum_{j<=m} C(m+1, j) B_j = 0."""
    if m == 0:
        return Fraction(1)
    return -sum(math.comb(m + 1, j) * bernoulli(j) for j in range(m)) / (m + 1)


BERNOULLI_TERMS = 12  # M, the Bernoulli terms of every Euler-Maclaurin sum
TARGET_ABS_ERROR = 1e-12  # certified bound of the EM remainder and of the mesh interpolation
_BERN_OVER_FACT = tuple(  # the remainder bound reads one past M
    float(bernoulli(2 * j) / math.factorial(2 * j)) for j in range(1, BERNOULLI_TERMS + 2)
)
_STIRLING = tuple(float(bernoulli(2 * k) / (2 * k * (2 * k - 1))) for k in range(1, 13))
_STIRLING_MIN_RE = 8  # least Re w at which the series is summed
# elements of one direct-sum product: N x (block bases + block width) for the
# two operands of one mesh_exp_sums product; and, 1 MiB of complex128,
# points x residues x N in the Euler-Maclaurin kernel and rows x residues for
# the scan mesh's tail, whose temporaries would otherwise add copies of the
# whole mesh to a scan's peak
_EM_CHUNK_ELEMENTS = 1 << 22
_EM_KERNEL_ELEMENTS = 1 << 16
# the most elements of an array that grows with the height, k x N or k x (mesh
# nodes + pad): 8 times the largest documented run (2.0M, q = 1 at T = 10^5);
# at the 70 bytes per element a scan peaks at (q = 97, T = 1000), about 1.2 GB
_ARRAY_ELEMENTS = 1 << 24
REALNESS_TOL = 1e-8  # largest |Im| of a rotated value, relative to 1 + |value|
_MESH_LOCKS: dict = {}  # per _mesh_columns key: one thread builds a mesh, other keys in parallel
_MESH_LOCKS_GUARD = threading.Lock()


def _exp_i(a: np.ndarray, f: np.ndarray, c=0.0) -> np.ndarray:
    """np.exp(c + 1j * (a * f)) for real a and f, to the same floats, in one
    complex array: a * f goes into its imaginary part, the exponential over it."""
    out = np.zeros(np.broadcast_shapes(a.shape, f.shape), dtype=np.complex128)
    np.multiply(a, f, out=out.imag)
    out.imag += 0.0  # 1j * y has the imaginary part 0 * 0 + 1 * y, +0 where y is -0
    out += c
    return np.exp(out, out=out)


def mesh_exp_sums(
    start: float, step: float, count: int, freqs: np.ndarray, log_coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exponential sums on an equispaced mesh.

    Returns the points v_m, m < count, and an array of shape (count, R) whose
    column r holds sum_n exp(log_coeffs[r, n] + i v_m freqs[r, n]); freqs is
    real and log_coeffs real or complex, both of shape (R, N).  A coefficient
    of -inf contributes nothing.

    The points are v = v_b + j h with h = step, block bases
    v_b = start + b B h and offsets j < B = ceil(sqrt(count)).  On that grid
    the exponential factors as

        exp(c + i v f) = exp(c + i v_b f) exp(i j h f),

    so the sums of every block of one row are one matrix product
    (P/B, N) @ (N, B), with about 2 sqrt(P) R N exponentials instead of
    P R N for P = count points (Odlyzko and Schonhage, Trans. AMS 309,
    1988).  The coefficients enter through the exponent, so a caller can pass
    logarithms and receive the same floats as a dense exp(c + i v f).  Each
    product keeps N (bases + B) within _EM_CHUNK_ELEMENTS: the block bases
    are chunked, and B shrinks when N B alone would exceed the budget.
    """
    rows, n = freqs.shape
    width = math.isqrt(count - 1) + 1  # ceil(sqrt(count))
    if n:
        width = min(width, max(1, _EM_CHUNK_ELEMENTS // n - 1))
    bases = start + np.arange(-(-count // width)) * (width * step)
    offsets = np.arange(width) * step
    points = (bases[:, None] + offsets).ravel()[:count]
    out = np.zeros((bases.size * width, rows), dtype=np.complex128)  # the last block in full
    if n == 0:
        return points, out[:count]
    chunk = min(bases.size, max(1, _EM_CHUNK_ELEMENTS // n - width))
    for r in range(rows):
        offs = _exp_i(offsets, freqs[r, :, None])  # (N, B)
        for b in range(0, bases.size, chunk):
            lead = _exp_i(bases[b : b + chunk, None], freqs[r], log_coeffs[r])  # (P/B, N)
            out[b * width : (b + chunk) * width, r] = np.matmul(lead, offs).ravel()
    return points, out[:count]


@dataclass(frozen=True)
class EvalPrecision:
    """The Euler-Maclaurin direct terms N; M is BERNOULLI_TERMS and the
    certified target TARGET_ABS_ERROR."""

    direct_terms: int

    def __post_init__(self):
        if self.direct_terms < 1:
            raise ValueError("direct_terms must be >= 1")

    @staticmethod
    def for_height(height: float) -> "EvalPrecision":
        """The smallest certified N for critical-line points 1/2 + it, |t| <= height.

        The remainder bound grows with |t| and falls as w = N + a grows, so it
        holds on the whole window once it holds at t = height for a -> 0.
        """
        return _precision_for(np.array([complex(0.5, abs(height))]))


def _require_elements(elements: int, what: str) -> None:
    """PrecisionError, before anything is built, if elements > _ARRAY_ELEMENTS."""
    if elements > _ARRAY_ELEMENTS:
        raise PrecisionError(f"{what} needs {elements:,} array elements > {_ARRAY_ELEMENTS:,}")


def _em_remainder_bound(s: np.ndarray, w: float | np.ndarray) -> np.ndarray:
    m = BERNOULLI_TERMS
    sigma = s.real
    if np.any(sigma + 2 * m + 1 <= 0):
        raise PrecisionError("remainder bound invalid: Re(s) + 2M + 1 must be positive")
    rising = np.ones_like(s)
    for i in range(2 * m + 1):
        rising = rising * (s + i)
    lead = abs(_BERN_OVER_FACT[m])
    return (
        lead
        * np.abs(rising)
        * w ** (-(sigma + 2 * m + 1))
        * np.abs(s + 2 * m + 1)
        / (sigma + 2 * m + 1)
    )


def _precision_for(s: np.ndarray) -> EvalPrecision:
    """The smallest N whose remainder bound meets the target at every point of
    s for the worst shift a -> 0, where w = N + a falls to N."""
    s = np.ravel(s)
    n = 1
    if s.size:
        # the bound is (its value at w = 1) * w^-(Re s + 2M + 1): solve for w,
        # then settle the rounding against the bound itself
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite root is refused below
            at_one = _em_remainder_bound(s, 1.0)
        root = np.max((at_one / TARGET_ABS_ERROR) ** (1.0 / (s.real + 2 * BERNOULLI_TERMS + 1)))
        if not np.isfinite(root):
            raise PrecisionError(f"the remainder bound overflows at |s| = {np.max(np.abs(s)):.3g}")
        n = max(1, math.ceil(root))

        def meets(k: int) -> bool:
            return float(np.max(_em_remainder_bound(s, float(k)))) <= TARGET_ABS_ERROR

        while not meets(n):
            n += 1
        while n > 1 and meets(n - 1):
            n -= 1
    return EvalPrecision(n)


def _certify(s: np.ndarray, shift: float, prec: EvalPrecision) -> None:
    """Raise PrecisionError unless the remainder bound meets the target at every
    point of s for the given shift.

    The bound falls as w = N + a grows, so checking at the smallest shift in
    use covers every column; a point is bounded as if it met that shift.
    """
    bound = _em_remainder_bound(s, prec.direct_terms + shift)
    worst = float(np.max(bound)) if bound.size else 0.0
    if worst > TARGET_ABS_ERROR:
        raise PrecisionError(
            f"Euler-Maclaurin remainder {worst:.3e} exceeds target "
            f"{TARGET_ABS_ERROR:.3e} (N={prec.direct_terms}, M={BERNOULLI_TERMS})"
        )


def _add_em_tail(total: np.ndarray, s: np.ndarray, w: np.ndarray) -> None:
    """Add w^(1-s)/(s-1) + w^-s/2 and the M Bernoulli terms to total in place,
    for w = N + a; s and w broadcast to the shape of total."""
    wneg = np.exp(-s * np.log(w))  # w^-s
    total += w * wneg / (s - 1) + 0.5 * wneg

    rising = s
    wpow = wneg / w
    wstep = 1.0 / (w * w)
    for j in range(1, BERNOULLI_TERMS + 1):
        total += _BERN_OVER_FACT[j - 1] * rising * wpow
        if j < BERNOULLI_TERMS:
            rising = rising * (s + (2 * j - 1)) * (s + 2 * j)
            wpow = wpow * wstep


def hurwitz_zeta_batch(
    s: np.ndarray, a: float | np.ndarray, prec: EvalPrecision | None = None
) -> np.ndarray:
    """zeta(s, a) elementwise for complex s (none equal to 1) and shifts 0 < a <= 1.

    s and a broadcast against each other: a column s of shape (P, 1) with a
    of shape (k,) evaluates k Hurwitz columns at P points in one pass.
    Without prec, N is the smallest that certifies every point of s.  The
    remainder bound is checked at the smallest shift, which carries the
    largest bound, once per point of s.
    """
    a = np.asarray(a, dtype=np.float64)
    if not np.all((a > 0) & (a <= 1)):
        raise ValueError(f"a must lie in (0, 1], got {a}")
    s = np.asarray(s, dtype=np.complex128)
    if np.any(s == 1):
        raise PoleError("zeta(s, a) has a pole at s = 1")
    if prec is None:
        prec = _precision_for(s)
    _require_elements(np.broadcast(s, a).size * prec.direct_terms, "an Euler-Maclaurin pass")
    _certify(s, float(np.min(a, initial=1.0)), prec)

    logs = np.log(a[..., None] + np.arange(prec.direct_terms, dtype=np.float64))
    terms = s[..., None] * -logs
    np.exp(terms, out=terms)
    total = terms.sum(axis=-1)
    _add_em_tail(total, s, prec.direct_terms + a)
    return total


def hurwitz_zeta(s: complex, a: float, prec: EvalPrecision | None = None) -> complex:
    """zeta(s, a) for a single complex s != 1, 0 < a <= 1."""
    return complex(hurwitz_zeta_batch(np.array([s], dtype=complex), a, prec)[0])


def _euler_factors(chi_star: DirichletCharacter, q: int) -> list[int]:
    """Primes dividing q but not the conductor of chi_star."""
    qstar = chi_star.modulus
    return [p for p, _ in _factorize(q) if qstar % p != 0]


@lru_cache(maxsize=None)
def _unit_shifts(q: int) -> np.ndarray:
    """Shifts a/q over the units a in [1, q], the support of every character mod q."""
    shifts = np.array([a / q for a in units(q)])
    shifts.flags.writeable = False
    return shifts


@lru_cache(maxsize=None)
def _residues(label) -> tuple[np.ndarray, np.ndarray]:
    """Shifts a/q and values chi(a) over the a in [1, q] with chi(a) != 0."""
    chi = character(label.modulus, label.index)
    q = chi.modulus
    values = np.array([chi(a) for a in units(q)], dtype=np.complex128)
    values.flags.writeable = False
    return _unit_shifts(q), values


def _l_primitive(chi: DirichletCharacter, s: np.ndarray, prec: EvalPrecision) -> np.ndarray:
    """L(s, chi) for primitive chi at a 1-d array of s: one Euler-Maclaurin call
    per chunk covers every residue column, and a matrix-vector product with
    the character values combines them."""
    shifts, values = _residues(chi.label)
    step = max(1, _EM_KERNEL_ELEMENTS // (shifts.size * prec.direct_terms))
    total = np.empty(s.shape, dtype=np.complex128)
    for i in range(0, s.size, step):
        total[i : i + step] = hurwitz_zeta_batch(s[i : i + step, None], shifts, prec) @ values
    q = chi.modulus
    if q > 1:
        total *= np.exp(-s * math.log(q))
    return total


def l_value(
    chi: DirichletCharacter, s: complex, prec: EvalPrecision | None = None
) -> complex:
    """L(s, chi) by the Hurwitz-zeta combination of the inducing character."""
    s = complex(s)
    if chi.is_principal and s == 1:
        raise PoleError("L(s, principal) has a pole at s = 1")
    qstar, psi = conductor_and_inducer(chi)
    if psi is not chi:
        val = l_value(psi, s, prec)
        for p in _euler_factors(psi, chi.modulus):
            val *= 1 - psi(p) * p ** (-s)
        return val

    q = chi.modulus
    if s == 1:
        shifts, values = _residues(chi.label)
        weights = 1j * math.pi * shifts if chi.parity else -np.log(np.sin(np.pi * shifts))
        return gauss_sum(chi) / q * complex(values.conj() @ weights)

    points = np.array([s])
    if prec is None:
        prec = _precision_for(points)
    return complex(_l_primitive(chi, points, prec)[0])


def l_critical_batch(
    chi: DirichletCharacter, ts: np.ndarray, prec: EvalPrecision | None = None
) -> np.ndarray:
    """L(1/2 + it, chi) for an array of real t; chi must be primitive."""
    if not chi.is_primitive:
        raise ValueError("l_critical_batch requires a primitive character")
    ts = np.asarray(ts, dtype=np.float64)
    s = 0.5 + 1j * ts.ravel()
    if prec is None:
        prec = _precision_for(s)
    return _l_primitive(chi, s, prec).reshape(ts.shape)


def root_number(chi: DirichletCharacter) -> complex:
    """tau(chi) / (i^parity sqrt(q)) for primitive chi; unimodular."""
    if not chi.is_primitive:
        raise ValueError("root numbers are defined for primitive characters only")
    q = chi.modulus
    if q == 1:
        return complex(1.0, 0.0)
    eps = gauss_sum(chi) / (1j**chi.parity * math.sqrt(q))
    if abs(abs(eps) - 1.0) > 1e-10:
        raise PrecisionError(f"root number for {chi.label} lost unimodularity: |eps|={abs(eps)}")
    return eps


ROTATION_BRANCH = "principal-sqrt"


def _log_gamma(z: np.ndarray) -> np.ndarray:
    """log Gamma(z) elementwise, up to 2 pi i k; no z may be a pole.

    Stirling's series with 12 terms at w = z + n, the smallest shift n with
    Re w >= 8 for the call's smallest Re z, less one complex log of
    prod_{j<n} (z + j), whose branch every caller's exponential forgets.  The
    truncation is at most 2^13 |B_26| / (26 * 25 |w|^25) < 5e-16 (DLMF 5.11(ii)).
    """
    z = np.asarray(z, dtype=np.complex128)
    n = max(0, math.ceil(_STIRLING_MIN_RE - float(np.min(z.real, initial=_STIRLING_MIN_RE))))
    shift = math.prod(z + j for j in range(n))
    w = z + n
    inv2, series = 1.0 / (w * w), np.zeros_like(w)
    for c in _STIRLING[::-1]:
        series *= inv2
        series += c
    return (w - 0.5) * np.log(w) - w + 0.5 * math.log(2 * math.pi) + series / w - np.log(shift)


def _log_gamma_factor(chi: DirichletCharacter, s) -> np.ndarray:
    """log of the gamma factor: z log(q/pi) + log Gamma(z), z = (s + parity)/2; Im is theta."""
    z = (np.asarray(s, dtype=np.complex128) + chi.parity) / 2
    return z * math.log(chi.modulus / math.pi) + _log_gamma(z)


@lru_cache(maxsize=None)
def _rotation(label) -> complex:
    """conj(sqrt(eps)) for the root number eps, on the ROTATION_BRANCH."""
    return cmath.sqrt(root_number(character(label.modulus, label.index))).conjugate()


def _phase(chi: DirichletCharacter, ts: np.ndarray, mirror: bool = False) -> np.ndarray:
    """The rotation times e^(i theta(t)) at ts.  With mirror, ts is a half mesh
    from t = 0 and the phase is returned on the whole mesh -ts[:0:-1], ts:
    theta is odd, so e^(i theta(-t)) is the conjugate of e^(i theta(t))."""
    turn = np.exp(1j * _log_gamma_factor(chi, 0.5 + 1j * ts).imag)
    if mirror:
        turn = np.concatenate([turn[:0:-1].conj(), turn])
    return _rotation(chi.label) * turn


def _rotated_real(chi: DirichletCharacter, ts: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The real parts of rotated values; RealnessError if any residual imaginary
    part exceeds REALNESS_TOL * (1 + |value|)."""
    resid = np.abs(vals.imag)
    allowed = REALNESS_TOL * (1.0 + np.abs(vals))
    if np.any(resid > allowed):
        worst = int(np.argmax(resid - allowed))
        raise RealnessError(
            f"rotated value at t={ts[worst]:.6f} for {chi.label} kept an imaginary "
            f"part {resid[worst]:.3e} (|value|={abs(vals[worst]):.3e})"
        )
    return vals.real


def hardy_z_batch(
    chi: DirichletCharacter,
    ts: np.ndarray,
    prec: EvalPrecision | None = None,
) -> np.ndarray:
    """The rotated critical-line values for primitive chi; real by construction.

    Conjugate-symmetric: Z_chi(-t) = Z_conj(chi)(t), since
    L(1/2 - it, chi) = conj L(1/2 + it, conj chi), the phase is odd in t and
    the rotation of conj chi is the conjugate of chi's (the principal square
    root of a root number -1 would flip the sign, which moves no zero).  A
    real chi, with root number 1, has an even Z.  Raises RealnessError if any
    residual imaginary part exceeds REALNESS_TOL * (1 + |value|).
    """
    ts = np.asarray(ts, dtype=np.float64)
    vals = _phase(chi, ts) * l_critical_batch(chi, ts, prec)
    return _rotated_real(chi, ts, vals)


@lru_cache(maxsize=4)
def _mesh_columns(q: int, T: float, mesh_step: float, prec: EvalPrecision):
    """The half scan mesh, its direct sums and its Hurwitz columns for the
    units a mod q, as read-only arrays (ts, direct, cols).

    ts holds the nodes t_m = m h, m <= ceil(T / mesh_step) + _MESH_PAD, with
    h = T / ceil(T / mesh_step), so the node ceil(T / mesh_step) is T; direct
    holds D_a(t) = sum_{n<N} (n + a)^(-1/2) e^(-i t log(n+a)) for the shifts
    a/q at every node, and cols the columns q^-s zeta(s, a/q), s = 1/2 + it,
    at the nodes up to T.  The nodes up to T come from one mesh_exp_sums
    call in its blocked layout; the _MESH_PAD nodes past T come from a
    second call and give every interpolation stencil of the window its
    nodes on both sides.  The columns add the Euler-Maclaurin tail, with
    the remainder check, to a copy of the direct sums at the same floats t.
    The shifts a/q and q are real, so the mesh of [-T, T] is this half and
    its mirrored conjugate; no negative node is stored.
    """
    half = math.ceil(T / mesh_step)
    h = T / half
    shifts = _unit_shifts(q)
    n = prec.direct_terms
    logs = np.log(shifts[:, None] + np.arange(n, dtype=np.float64))
    ts, direct = mesh_exp_sums(0.0, h, half + 1, -logs, -0.5 * logs)
    pad_ts, pad = mesh_exp_sums((half + 1) * h, h, _MESH_PAD, -logs, -0.5 * logs)
    ts, direct = np.concatenate([ts, pad_ts]), np.concatenate([direct, pad])
    cols = direct[: half + 1].copy()
    s = 0.5 + 1j * ts[: half + 1, None]
    _certify(s, float(shifts[0]), prec)
    rows = max(1, _EM_KERNEL_ELEMENTS // shifts.size)  # the tail's temporaries, a block at a time
    for i in range(0, half + 1, rows):
        _add_em_tail(cols[i : i + rows], s[i : i + rows], n + shifts)
    if q > 1:
        cols *= np.exp(-s * math.log(q))
    for a in (ts, direct, cols):
        a.flags.writeable = False
    return ts, direct, cols


def release_meshes() -> None:
    """Drop every cached scan mesh."""
    with _MESH_LOCKS_GUARD:
        _mesh_columns.cache_clear()
        _MESH_LOCKS.clear()


def _mirrored(half: np.ndarray, values: np.ndarray) -> np.ndarray:
    """rows @ values on a symmetric mesh from the half mesh's rows at t >= 0:
    the row at -t is the conjugate of the row at t, so its product is
    conj(row @ conj(values)).  The contiguous rows are multiplied and the
    products reversed: a reversed operand would run outside BLAS, to other
    floats."""
    negative = half[1:] @ values.conj()
    return np.concatenate([np.conjugate(negative, out=negative)[::-1], half @ values])


def _stencil_peak(order: int) -> float:
    """An upper bound of |prod_{j<=p} (u - j)|, p = order, for u within 1/2 of
    the stencil's centre p/2: each factor is at most max(|p/2 - j|, 1/2)."""
    return math.prod(max(abs(order / 2 - j), 0.5) for j in range(order + 1))


@dataclass(frozen=True)
class MeshInterpolation:
    """The interpolation of a scan mesh's direct sums (see the module notes):
    the stencil degree `order`, its truncation bound `truncation` at the
    worst centred position, the mesh step, the band's centre and half width,
    and scale = 2 sum|c_n| / sqrt(q).  The bound leaves out the rounding
    already in the mesh nodes, as the Euler-Maclaurin certificate leaves out
    its own."""

    order: int
    truncation: float
    step: float
    centre: float
    width: float
    scale: float


def _stencil_factor(scale: float, width_step: float, order: int) -> float:
    """The interpolation bound of a degree-`order` stencil over |prod_j (u - j)|."""
    return scale * width_step ** (order + 1) / math.factorial(order + 1)


_INTERP_MAX_ORDER = 40  # highest stencil degree; _MESH_PAD nodes past T serve it
_MESH_PAD = _INTERP_MAX_ORDER // 2 + 1


def mesh_interpolation(
    q: int, T: float, mesh_step: float, prec: EvalPrecision
) -> MeshInterpolation:
    """The interpolation order of the scan mesh (q, T, mesh_step, prec) and its
    truncation bound; PrecisionError if no order up to _INTERP_MAX_ORDER meets
    TARGET_ABS_ERROR, i.e. the mesh is too coarse for its band."""
    half = math.ceil(T / mesh_step)
    h = T / half
    shifts = _unit_shifts(q)
    n = prec.direct_terms
    _require_elements(shifts.size * max(n, half + 1 + _MESH_PAD), f"the mesh of q={q} to T={T:g}")
    top, bottom = -math.log(shifts[0]), -math.log(n - 1 + shifts[-1])
    width = 0.5 * (top - bottom)
    terms = float(np.sum((shifts[:, None] + np.arange(n)) ** -0.5))
    scale = 2.0 * terms / math.sqrt(q)
    for p in range(1, _INTERP_MAX_ORDER + 1):
        bound = _stencil_factor(scale, width * h, p) * _stencil_peak(p)
        if bound <= TARGET_ABS_ERROR:
            return MeshInterpolation(p, bound, h, 0.5 * (top + bottom), width, scale)
    raise PrecisionError(
        f"mesh step {h:.4g} is too coarse to interpolate q={q} up to T={T:g}: order "
        f"{_INTERP_MAX_ORDER} still bounds the truncation by {bound:.3e} "
        f"> target {TARGET_ABS_ERROR:.3e}"
    )


def scan_mesh(
    chi: DirichletCharacter, T: float, mesh_step: float, prec: EvalPrecision
) -> tuple[np.ndarray, np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The scan mesh of [-T, T] with spacing at most mesh_step, the rotated
    values of primitive chi on it, and an evaluator of them anywhere in [-T, T].

    The P = 2 ceil(T / mesh_step) + 1 points are symmetric about the node
    t = 0.  The Hurwitz columns and direct sums depend only on
    (q, T, mesh_step, prec) and are kept, for t >= 0 only, for the next
    character of the same modulus, which then costs matrix-vector products;
    the negative half is mirrored, and so is the phase.  They are certified
    once, at every node up to the node at T, the evaluator's edge.  The
    realness check runs at every mesh point.

    The evaluator interpolates the character's direct sum
    S(t) = sum_a chi(a) D_a(t) from the degree-p stencil of the p + 1 mesh
    nodes nearest t, each node's value demodulated by e^(-i centre (t_j - t))
    so that the interpolated function is band-limited (see the module notes);
    t - t_j is a few mesh steps, so the phase carries no error of order t.
    The Euler-Maclaurin tail, q^-s and the phase are then added at t itself,
    and the realness check runs as in hardy_z_batch.  p is
    mesh_interpolation's order, found before the mesh pass, so a mesh too
    coarse for every order fails at once; every point's own truncation bound
    is checked against TARGET_ABS_ERROR, and a point over it raises
    PrecisionError.  The rounding of the mesh nodes, times the stencil's
    Lebesgue constant (at most 2.04 for a centred stencil of degree <= 40),
    is not in that bound.
    """
    if not chi.is_primitive:
        raise ValueError("scan_mesh requires a primitive character")
    q, T, mesh_step = chi.modulus, float(T), float(mesh_step)
    plan = mesh_interpolation(q, T, mesh_step, prec)
    p = plan.order
    key = (q, T, mesh_step, prec)
    with _MESH_LOCKS_GUARD:
        lock = _MESH_LOCKS.setdefault(key, threading.Lock())
    with lock:
        half_ts, direct, cols = _mesh_columns(*key)
    shifts, values = _residues(chi.label)
    nodes = half_ts[: cols.shape[0]]
    ts = np.concatenate([-nodes[:0:-1], nodes])
    ts.flags.writeable = False
    z = _rotated_real(chi, ts, _phase(chi, nodes, mirror=True) * _mirrored(cols, values))

    sums = _mirrored(direct, values)  # S(t) on the mesh of [-T - pad, T + pad]
    h, origin, edge = plan.step, half_ts.size - 1, nodes[-1]  # edge: the mesh node at T
    offsets = np.arange(p + 1)
    # Lagrange denominators prod_{i != j} (j - i) = (-1)^(p-j) j! (p-j)!
    denom = np.array([(-1) ** (p - j) * math.factorial(j) * math.factorial(p - j)
                      for j in range(p + 1)], dtype=np.float64)
    factor = _stencil_factor(plan.scale, plan.width * h, p)

    def z_at(ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=np.float64)
        if np.any(np.abs(ts) > edge):
            raise ValueError(f"points must lie in [-{T:g}, {T:g}]")
        first = np.floor(ts / h + origin - 0.5 * p + 0.5).astype(np.intp)
        node = first - origin  # the mesh node t_first, mirrored for first < origin
        gaps = (ts - np.copysign(half_ts[np.abs(node)], node))[:, None] / h - offsets  # u - j
        left = np.cumprod(np.hstack([np.ones((ts.size, 1)), gaps[:, :-1]]), axis=1)
        right = np.cumprod(np.hstack([np.ones((ts.size, 1)), gaps[:, :0:-1]]), axis=1)[:, ::-1]
        worst = factor * float(np.max(np.abs(left[:, -1] * gaps[:, -1]), initial=0.0))
        if worst > TARGET_ABS_ERROR:
            raise PrecisionError(
                f"mesh interpolation truncation bound {worst:.3e} exceeds target "
                f"{TARGET_ABS_ERROR:.3e} (order {p}, step {h:.4g}) for {chi.label}"
            )
        weights = left * right / denom * np.exp(1j * (plan.centre * h) * gaps)
        total = np.einsum("ij,ij->i", weights, sums[first[:, None] + offsets])
        s = 0.5 + 1j * ts
        tail = np.zeros((ts.size, shifts.size), dtype=np.complex128)
        _add_em_tail(tail, s[:, None], prec.direct_terms + shifts)
        total += tail @ values
        if q > 1:
            total *= np.exp(-s * math.log(q))
        return _rotated_real(chi, ts, _phase(chi, ts) * total)

    return ts, z, z_at


def hardy_z(chi: DirichletCharacter, t: float, prec: EvalPrecision | None = None) -> float:
    return float(hardy_z_batch(chi, np.array([t]), prec)[0])


def completed_l(chi: DirichletCharacter, s: complex, prec: EvalPrecision | None = None) -> complex:
    """(q/pi)^((s+parity)/2) Gamma((s+parity)/2) L(s, chi) for primitive chi."""
    if not chi.is_primitive:
        raise ValueError("completed_l requires a primitive character")
    s = complex(s)
    return cmath.exp(complex(_log_gamma_factor(chi, s))) * l_value(chi, s, prec)
