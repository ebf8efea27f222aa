"""Dirichlet L-functions via Euler-Maclaurin evaluation of Hurwitz zeta.

The core evaluator computes zeta(s, a) as

    sum_{k<N} (k+a)^(-s)  +  (N+a)^(1-s)/(s-1)  +  (N+a)^(-s)/2
    + sum_{j<=M} B_{2j}/(2j)! * (s)_{2j-1} * (N+a)^(-s-2j+1)

with (s)_r the rising factorial, and certifies the truncation at runtime
against the standard remainder bound

    |R| <= |B_{2M+2}/(2M+2)! * (s)_{2M+1} * (N+a)^(-s-2M-1)|
           * |s+2M+1| / (Re(s)+2M+1).

Choice of N: with M = 12 the bound is C(s) * w^-(Re s + 2M + 1) for
w = N + a, so the smallest N that meets the target follows in closed form
(settled against the bound itself) for the worst shift a -> 0, where w = N.
EvalPrecision.for_height(T) does this at s = 1/2 + iT, the worst point of a
critical-line window |t| <= T; evaluations without an explicit precision do
it over the points they are given.  Every evaluation still checks the bound
at its own points and raises PrecisionError when it fails.

L(s, chi) for primitive chi mod q is q^(-s) sum_a chi(a) zeta(s, a/q).  The
shifts a/q broadcast against the points, so one Euler-Maclaurin pass yields
every residue column and a matrix-vector product with the values chi(a)
combines them; the pass is chunked so that points x residues x N stays
bounded.  Imprimitive values are obtained from the inducing character by
stripping Euler factors.  hardy_z rotates the critical line by a unimodular
phase (fixed to the principal square root of the root number) so that the
rotated value is real; the residual imaginary part is checked before it is
discarded.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import digamma, loggamma

from zeropair.characters import (
    DirichletCharacter,
    _factorize,
    character,
    conductor_and_inducer,
    gauss_sum,
)


class PoleError(ValueError):
    """Evaluation requested at a pole."""


class PrecisionError(RuntimeError):
    """The requested tolerance cannot be certified with the given parameters."""


class RealnessError(PrecisionError):
    """A rotated critical-line value failed its realness check."""


# B_{2j} for j = 1..13, exact
_BERNOULLI_EVEN = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
    Fraction(854513, 138),
    Fraction(-236364091, 2730),
    Fraction(8553103, 6),
)
_BERN_OVER_FACT = tuple(
    float(b / math.factorial(2 * (j + 1))) for j, b in enumerate(_BERNOULLI_EVEN)
)
_MAX_BERNOULLI_TERMS = len(_BERNOULLI_EVEN) - 1  # one more is needed for the bound


_BERNOULLI_TERMS = 12  # M used by every precision this module chooses itself
_EM_CHUNK_ELEMENTS = 1 << 22  # points x residues x N of one direct-sum tensor


@dataclass(frozen=True)
class EvalPrecision:
    """Euler-Maclaurin truncation parameters plus the certified target."""

    target_abs_error: float = 1e-12
    direct_terms: int = 64
    bernoulli_terms: int = 12

    def __post_init__(self):
        if self.target_abs_error <= 0:
            raise ValueError("target_abs_error must be positive")
        if self.direct_terms < 1:
            raise ValueError("direct_terms must be >= 1")
        if not (1 <= self.bernoulli_terms <= _MAX_BERNOULLI_TERMS):
            raise ValueError(f"bernoulli_terms must lie in [1, {_MAX_BERNOULLI_TERMS}]")

    @staticmethod
    def for_height(height: float, target_abs_error: float = 1e-12) -> "EvalPrecision":
        """The smallest certified N for critical-line points 1/2 + it, |t| <= height.

        The remainder bound grows with |t| and falls as w = N + a grows, so it
        holds on the whole window once it holds at t = height for a -> 0.
        """
        return _precision_for(np.array([complex(0.5, abs(height))]), target_abs_error)


def _em_remainder_bound(s: np.ndarray, w: float | np.ndarray, prec: EvalPrecision) -> np.ndarray:
    m = prec.bernoulli_terms
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


def _precision_for(s: np.ndarray, target_abs_error: float = 1e-12) -> EvalPrecision:
    """M = 12 and the smallest N whose remainder bound meets the target at every
    point of s for the worst shift a -> 0, where w = N + a falls to N."""
    probe = EvalPrecision(target_abs_error, 1, _BERNOULLI_TERMS)
    s = np.ravel(s)
    n = 1
    if s.size:
        # the bound is (its value at w = 1) * w^-(Re s + 2M + 1): solve for w,
        # then settle the rounding against the bound itself
        at_one = _em_remainder_bound(s, 1.0, probe)
        root = (at_one / target_abs_error) ** (1.0 / (s.real + 2 * _BERNOULLI_TERMS + 1))
        n = max(1, math.ceil(float(np.max(root))))

        def meets(k: int) -> bool:
            return float(np.max(_em_remainder_bound(s, float(k), probe))) <= target_abs_error

        while not meets(n):
            n += 1
        while n > 1 and meets(n - 1):
            n -= 1
    return EvalPrecision(target_abs_error, n, _BERNOULLI_TERMS)


def hurwitz_zeta_batch(
    s: np.ndarray, a: float | np.ndarray, prec: EvalPrecision | None = None
) -> np.ndarray:
    """zeta(s, a) elementwise for complex s (none equal to 1) and shifts 0 < a <= 1.

    s and a broadcast against each other: s of shape (P, k) with a of shape
    (k,) evaluates k Hurwitz columns at P points in one pass.  Without prec,
    N is the smallest that certifies every point of s.
    """
    a = np.asarray(a, dtype=np.float64)
    if not np.all((a > 0) & (a <= 1)):
        raise ValueError(f"a must lie in (0, 1], got {a}")
    s = np.asarray(s, dtype=np.complex128)
    if np.any(s == 1):
        raise PoleError("zeta(s, a) has a pole at s = 1")
    if prec is None:
        prec = _precision_for(s)
    n, m = prec.direct_terms, prec.bernoulli_terms
    w = n + a

    bound = _em_remainder_bound(s, w, prec)
    worst = float(np.max(bound)) if bound.size else 0.0
    if worst > prec.target_abs_error:
        raise PrecisionError(
            f"Euler-Maclaurin remainder {worst:.3e} exceeds target "
            f"{prec.target_abs_error:.3e} (N={n}, M={m})"
        )

    logs = np.log(a[..., None] + np.arange(n, dtype=np.float64))
    terms = s[..., None] * -logs
    np.exp(terms, out=terms)
    total = terms.sum(axis=-1)

    wneg = np.exp(-s * np.log(w))  # w^-s
    total += w * wneg / (s - 1) + 0.5 * wneg

    rising = np.array(s)
    wpow = wneg / w
    wstep = 1.0 / (w * w)
    for j in range(1, m + 1):
        total += _BERN_OVER_FACT[j - 1] * rising * wpow
        if j < m:
            rising = rising * (s + (2 * j - 1)) * (s + 2 * j)
            wpow = wpow * wstep
    return total


def hurwitz_zeta(s: complex, a: float, prec: EvalPrecision | None = None) -> complex:
    """zeta(s, a) for a single complex s != 1, 0 < a <= 1."""
    return complex(hurwitz_zeta_batch(np.array([s], dtype=complex), a, prec)[0])


def _euler_factors(chi_star: DirichletCharacter, q: int) -> list[int]:
    """Primes dividing q but not the conductor of chi_star."""
    qstar = chi_star.modulus
    return [p for p, _ in _factorize(q) if qstar % p != 0]


@lru_cache(maxsize=None)
def _residues(label) -> tuple[np.ndarray, np.ndarray]:
    """Shifts a/q and values chi(a) over the a in [1, q] with chi(a) != 0."""
    chi = character(label.modulus, label.index)
    q = chi.modulus
    support = [a for a in range(1, q + 1) if chi(a) != 0]
    shifts = np.array([a / q for a in support], dtype=np.float64)
    values = np.array([chi(a) for a in support], dtype=np.complex128)
    shifts.flags.writeable = values.flags.writeable = False
    return shifts, values


def _l_primitive(chi: DirichletCharacter, s: np.ndarray, prec: EvalPrecision) -> np.ndarray:
    """L(s, chi) for primitive chi at a 1-d array of s: one Euler-Maclaurin call
    per chunk covers every residue column, and a matrix-vector product with
    the character values combines them."""
    shifts, values = _residues(chi.label)
    k = shifts.size
    step = max(1, _EM_CHUNK_ELEMENTS // (k * prec.direct_terms))
    total = np.empty(s.shape, dtype=np.complex128)
    for i in range(0, s.size, step):
        block = s[i : i + step, None]
        cols = hurwitz_zeta_batch(np.broadcast_to(block, (block.shape[0], k)), shifts, prec)
        total[i : i + step] = cols @ values
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
        # the 1/(s-1) poles of the zeta(s, a/q) cancel since sum_a chi(a) = 0,
        # leaving the finite parts -psi0(a/q)
        total = 0j
        for a in range(1, q + 1):
            va = chi(a)
            if va != 0:
                total += va * digamma(a / q)
        return -total / q

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


@dataclass(frozen=True)
class CompletedLParams:
    """Data fixing the real rotation of the critical line for one character."""

    modulus: int
    index: int
    parity: int
    root_number: complex
    rotation: complex  # principal square root of the root number
    branch: str = ROTATION_BRANCH

    @staticmethod
    def from_character(chi: DirichletCharacter) -> "CompletedLParams":
        eps = root_number(chi)
        return CompletedLParams(
            chi.modulus, chi.index, chi.parity, eps, cmath.sqrt(eps)
        )


@lru_cache(maxsize=None)
def _params_for(label) -> CompletedLParams:
    return CompletedLParams.from_character(character(label.modulus, label.index))


def _phase(params: CompletedLParams, ts: np.ndarray) -> np.ndarray:
    z = (0.5 + params.parity) / 2 + 0.5j * ts
    theta = loggamma(z).imag + (ts / 2) * math.log(params.modulus / math.pi)
    return params.rotation.conjugate() * np.exp(1j * theta)


def hardy_z_batch(
    chi: DirichletCharacter,
    ts: np.ndarray,
    prec: EvalPrecision | None = None,
    realness_tol: float = 1e-8,
) -> np.ndarray:
    """The rotated critical-line values for primitive chi; real by construction.

    Conjugate-symmetric in the sense hardy_z(chi, -t) = hardy_z(conj chi, t)
    up to a global sign fixed by the rotation branch.  Raises RealnessError
    if any residual imaginary part exceeds realness_tol * (1 + |value|).
    """
    ts = np.asarray(ts, dtype=np.float64)
    vals = _phase(_params_for(chi.label), ts) * l_critical_batch(chi, ts, prec)
    resid = np.abs(vals.imag)
    allowed = realness_tol * (1.0 + np.abs(vals))
    if np.any(resid > allowed):
        worst = int(np.argmax(resid - allowed))
        raise RealnessError(
            f"rotated value at t={ts[worst]:.6f} for {chi.label} kept an imaginary "
            f"part {resid[worst]:.3e} (|value|={abs(vals[worst]):.3e})"
        )
    return vals.real


def hardy_z(
    chi: DirichletCharacter,
    t: float,
    prec: EvalPrecision | None = None,
    realness_tol: float = 1e-8,
) -> float:
    return float(hardy_z_batch(chi, np.array([t]), prec, realness_tol)[0])


def completed_l(chi: DirichletCharacter, s: complex, prec: EvalPrecision | None = None) -> complex:
    """(q/pi)^((s+parity)/2) Gamma((s+parity)/2) L(s, chi) for primitive chi."""
    if not chi.is_primitive:
        raise ValueError("completed_l requires a primitive character")
    s = complex(s)
    z = (s + chi.parity) / 2
    pref = z * math.log(chi.modulus / math.pi) + complex(loggamma(complex(z)))
    return cmath.exp(pref) * l_value(chi, s, prec)
