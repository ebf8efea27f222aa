"""Pair correlation statistics over certified zero sets.

The central object is the character-weighted double sum over zero pairs

    sum over chi1, chi2 mod q of conj(chi1(a)) chi2(a)
        sum over |g1|,|g2| <= T of x^{i(g1-g2)} w(g1-g2),

with w(u) = 4/(4+u^2).  Since w is the Fourier transform of e^{-2|v|},
the same aggregate equals the integral over v of |S(x,T,v)|^2 e^{-2|v|},
where S(x,T,v) = sum_chi conj(chi(a)) sum_{|g|<=T} x^{ig} e^{ivg}.  The
double sum and the quadrature share nothing but the zero ordinates, so
their agreement is a genuine cross-check of both routes; the same holds
for the increment version restricted to ordinates in (U, T].

The prime-power counterpart of the zero sum (head scaled by (x/n)^{-1/2},
tail by (x/n)^{3/2}, with a certified bound past the cutoff) lives here
too, together with its mean square in t, the scaled-gap histogram against
the 1 - (sin(pi u)/(pi u))^2 density, and an exact mean-value envelope
check for finite exponential sums.

Conventions.  Pair sums default to the symmetric window |g| <= T; the
classical single-character statistic uses 0 < g <= T.  Both are available
through the window flag, and the reference ratios scale accordingly: the
symmetric window carries twice the zeros, so its in-range target is
phi(q) T log(x) / pi, against T log(x) / (2 pi) for the positive window.

Structure.  Every character-weighted statistic starts from one family,
zeros.character_family(q, a, T, zero_sets, window): one array of the
ordinates of every character mod q, each set certified to T by
ZeroSet.window, and one of their weights conj(chi(a)).  Every direct pair
sum is _pair_sum: x^{i(g_j - g_k)} factors as x^{i g_j} conj(x^{i g_k}),
so each ordinate takes one phase, its angle reduced mod 2 pi in
double-double by _phases, and each row tile is the real weight tile
w(g_j - g_k) times the conjugate phases in one real matrix product; no N x N
array is built and no exponential is taken per pair.  spacing_histogram
scans the ascending window by offset: the gaps o[j + k] - o[j] grow with k,
so it stops at the first offset whose gaps all lie beyond its reach.  Both
identity checks are one path: f_q_via_integral (U = 0) and
increment_identity_check take the family's ordinates in (U, T], compute
their direct sum, and pass the same arrays to _identity_check, which
integrates |S(x,T,v) - S(x,U,v)|^2 e^{-2|v|} against it into one
IdentityCheckResult: the trapezoid rule on one equispaced mesh with
v = 0 a node, plus the Euler-Maclaurin corrections for the kink there, with
the step fixed by an a-priori bound (Trefethen and Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 56, 2014) and
stated with the result.  Every exponential sum sum_j c_j e^{i v g_j} goes
through lfunc.mesh_exp_sums, the blocked kernel of the scan mesh: the
quadrature samples sigma(v) on its mesh, r1_batch samples the prime side
on the equispaced mesh that r1_mean_square integrates, and sigma_sum at
one v and r1 at one t are one-point meshes.  The direct sums never use
it, and the quadrature never uses _phases, so the two routes stay
independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from zeropair.characters import (
    CharacterLabel,
    DirichletCharacter,
    euler_phi,
    require_unit,
)
from zeropair import lfunc
from zeropair.sieve import SOfXResult, progression_tags, s_of_x
from zeropair.zeros import CertificationError, ZeroSet, character_family, zero_set_for

__all__ = [
    "CertificationError",
    "weight",
    "gue_density",
    "GPairResult",
    "PairCorrResult",
    "IdentityCheckResult",
    "R1Result",
    "R1MeanSquareResult",
    "SpacingHistogram",
    "MeanValueResult",
    "g_pair",
    "f_q",
    "f_zeta_ratio",
    "sigma_sum",
    "f_q_via_integral",
    "increment_identity_check",
    "r1",
    "r1_batch",
    "r1_mean_square",
    "spacing_histogram",
    "mean_value_check",
]

# Sum of Lambda(n)/n^{3/2} over n > C is at most 3.12/sqrt(C): partial
# summation against psi(u) <= 1.04 u drops the boundary term and leaves
# (3/2) * 1.04 * 2 / sqrt(C).
_TAIL_CONSTANT = 3.12


def weight(u):
    """The pair weight 4/(4+u^2), in (0, 1]; elementwise on arrays."""
    return 4.0 / (4.0 + u * u)


def gue_density(u):
    """1 - (sin(pi u)/(pi u))^2, the conjectured scaled-gap density."""
    s = np.sinc(u)
    return 1.0 - s * s


def _check_args(x: float, T: float) -> None:
    if x <= 0:
        raise ValueError("x must be positive")
    if T <= 0:
        raise ValueError("T must be positive")


# 2 pi = _TWO_PI_HI + _TWO_PI_LO to about 1e-32; _TWO_PI_HI is float64(2 pi)
_TWO_PI_HI = 2.0 * math.pi
_TWO_PI_LO = 2.4492935982947064e-16
_SPLITTER = 134217729.0  # 2^27 + 1, Veltkamp's split of a float64 into 26-bit halves


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker)."""
    p = a * b
    ca, cb = _SPLITTER * a, _SPLITTER * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _phases(lx: float, g: np.ndarray) -> np.ndarray:
    """e^{i lx g}, elementwise, with lx g reduced mod 2 pi in double-double.

    lx g is carried exactly as p + e, and 2 pi as _TWO_PI_HI + _TWO_PI_LO, so
    the reduced angle hi + lo is good to far below 1e-16 absolute at any
    |lx g| below 2^40; the components are cos and sin of hi, corrected to
    first order in lo.  A plain exp(1j lx g) loses ulp(lx g) of phase, which
    grows with |g| and does not cancel between near pairs."""
    p, e = _two_prod(lx, g)
    k = np.rint(p / _TWO_PI_HI)
    kh, kl = _two_prod(k, _TWO_PI_HI)
    s, t = p - kh, (e - kl) - k * _TWO_PI_LO  # p - kh is exact (Sterbenz)
    hi = s + t
    b = hi - s
    lo = (s - (hi - b)) + (t - b)
    c, sn = np.cos(hi), np.sin(hi)
    out = np.empty(g.shape, dtype=np.complex128)
    out.real = c - sn * lo
    out.imag = sn + c * lo
    return out


# pairs per row tile of _pair_sum: 2 MB of float64, which stays in cache
_PAIR_TILE_ELEMENTS = 1 << 18


def _pair_sum(
    g1: np.ndarray, c1: np.ndarray, g2: np.ndarray, c2: np.ndarray, x: float
) -> tuple[complex, int]:
    """sum over j, k of c1_j conj(c2_k) x^{i(g1_j - g2_k)} w(g1_j - g2_k), and
    its number of terms.

    The oscillation factors as x^{i g1_j} conj(x^{i g2_k}), so each ordinate
    takes one phase, u = c1 x^{i g1} and v = c2 x^{i g2}, and each row tile
    of at most _PAIR_TILE_ELEMENTS pairs (one row when a row alone is
    longer) is the real weight tile w(g1_j - g2_k) times
    [Re conj(v), Im conj(v)].  The terms are not
    sorted by gap: against math.fsum that bought no digits of the real part.
    One dot product adds the row sums, so the tile size does not change the
    order in which rows add."""
    lx = math.log(x)
    u = c1 * _phases(lx, g1)
    v = (c2 * _phases(lx, g2)).conj()
    v_parts = np.stack([v.real, v.imag], axis=1)
    rows = np.empty((g1.size, 2))
    step = max(1, min(g1.size, _PAIR_TILE_ELEMENTS // max(1, g2.size)))
    tile = np.empty((step, g2.size))  # reused: a fresh tile per block faults in its pages again
    for i in range(0, g1.size, step):
        w = tile[: g1.size - i]
        np.subtract(g1[i : i + step, None], g2, out=w)  # becomes weight(w) in place
        np.multiply(w, w, out=w)
        w += 4.0
        np.divide(4.0, w, out=w)
        np.matmul(w, v_parts, out=rows[i : i + w.shape[0]])
    return complex(u @ (rows[:, 0] + 1j * rows[:, 1])), g1.size * g2.size


@dataclass(frozen=True)
class GPairResult:
    value: complex
    term_count: int


@dataclass(frozen=True)
class PairCorrResult:
    """Aggregate pair correlation with its reference ratios.

    thm_ratio normalizes the real part by the in-range expectation
    (phi(q) T log(x) / pi for the symmetric window, half that denominator's
    target for the positive window); None when log x = 0.  trivial_ratio
    divides |Re| by T (phi(q) log(qT))^2, the crude a-priori ceiling.
    """

    q: int
    a: int
    x: float
    T: float
    window: str
    value: complex
    term_count: int
    thm_ratio: float | None
    trivial_ratio: float | None

    @property
    def real(self) -> float:
        return self.value.real

    @property
    def in_classical_range(self) -> bool:
        return 1.0 <= self.x <= self.T


def g_pair(
    chi1: DirichletCharacter,
    chi2: DirichletCharacter,
    x: float,
    T: float,
    zero_sets: Mapping[CharacterLabel, ZeroSet],
    window: str = "both",
) -> GPairResult:
    """Unweighted double sum over the two characters' windowed zeros."""
    _check_args(x, T)
    o1 = zero_set_for(zero_sets, chi1.label).window(T, window)
    o2 = zero_set_for(zero_sets, chi2.label).window(T, window)
    return GPairResult(*_pair_sum(o1, np.ones(o1.size), o2, np.ones(o2.size), x))


def _pair_result(
    q: int, a: int, x: float, T: float, zero_sets: Mapping[CharacterLabel, ZeroSet], window: str
) -> PairCorrResult:
    """The pair sum over the character family of (q, a), with its reference ratios."""
    gammas, weights = character_family(q, a, T, zero_sets, window)
    value, terms = _pair_sum(gammas, weights, gammas, weights, x)
    phi = euler_phi(q)
    lx = math.log(x)
    # positive window carries half the zeros, so the in-range target halves
    normalizer = math.pi if window == "both" else 2.0 * math.pi
    thm = normalizer * value.real / (phi * T * lx) if lx != 0.0 else None
    ceiling = T * (phi * math.log(q * T)) ** 2
    trivial = abs(value.real) / ceiling if ceiling != 0.0 else None
    return PairCorrResult(
        q=q, a=a, x=x, T=T, window=window,
        value=value, term_count=terms, thm_ratio=thm, trivial_ratio=trivial,
    )


def f_q(
    q: int,
    a: int,
    x: float,
    T: float,
    zero_sets: Mapping[CharacterLabel, ZeroSet],
    window: str = "both",
) -> PairCorrResult:
    """Aggregate pair correlation for the progression a mod q.

    zero_sets maps every character label mod q to a certified zero set of
    height at least T (imprimitive labels point at their inducer's set).
    """
    if x < 2:
        raise ValueError("x must be at least 2")
    if T <= 0:
        raise ValueError("T must be positive")
    return _pair_result(q, a, x, T, zero_sets, window)


def f_zeta_ratio(
    x: float, T: float, zeta_set: ZeroSet, window: str = "positive"
) -> PairCorrResult:
    """Modulus-one pair sum with its ratio to the in-range target.

    Defaults to the positive-ordinate window, where the proven in-range
    behaviour is T log(x) / (2 pi); thm_ratio tends to 1 for 1 <= x <= T
    (slowly; desk-scale T gives weak statistics).  At x = 1 the raw value
    is returned with the ratio undefined.  Values of x outside [1, T] are
    still computed; in_classical_range flags them as extrapolation.
    """
    _check_args(x, T)
    label = CharacterLabel(1, 1)
    if zeta_set.label != label:
        raise ValueError(f"expected the modulus-one zero set, got {zeta_set.label}")
    return _pair_result(1, 1, x, T, {label: zeta_set}, window)


def _plain_exponent(gammas: np.ndarray, weights: np.ndarray, x: float) -> np.ndarray:
    """log(weights) + i g log x, so sigma(v) = sum_j e^{exponent_j + i v g_j}.
    Plain complex arithmetic, not the double-double _phases of the direct
    pair sums, keeps sigma_sum and the identity checks independent of them."""
    return np.log(weights) + 1j * math.log(x) * gammas


def sigma_sum(
    x: float,
    T: float,
    v: float,
    q: int,
    a: int,
    zero_sets: Mapping[CharacterLabel, ZeroSet],
) -> complex:
    """sum_chi conj(chi(a)) sum_{|g| <= T} x^{ig} e^{ivg}."""
    _check_args(x, T)
    gammas, weights = character_family(q, a, T, zero_sets)
    exponent = _plain_exponent(gammas, weights, x)
    return complex(lfunc.mesh_exp_sums(float(v), 1.0, 1, gammas[None], exponent[None])[1][0, 0])


# The truncation V meets (zero count)^2 e^{-2V} <= QUAD_BUDGET_FACTOR
# * max(|target|, 1); TRAPEZOID_ORDER is K, the number of Euler-Maclaurin
# corrections at the kink of e^{-2|v|} at v = 0.
QUAD_BUDGET_FACTOR = 1e-8
TRAPEZOID_ORDER = 30


def _trapezoid_mesh(
    order: int, size: int, span: float, target: float, v_max: float
) -> tuple[int, float, float]:
    """The fewest intervals n on [0, v_max] whose step h = v_max / n meets
    2 zeta(2K) size^2 (h (span + 2) / 2 pi)^{2K} <= target, K = order; returns
    n, h and that bound at h.  It bounds the Euler-Maclaurin remainder past K
    corrections of the trapezoid rule on both half-lines for |S|^2 e^{-2|v|},
    S a sum of `size` unit terms: each pair term is e^{(i d -+ 2) v}, |d| <= span."""
    # 2 zeta(2K) / (2 pi)^{2K} = |B_{2K}| / (2K)!
    lead = abs(float(lfunc.bernoulli(2 * order) / math.factorial(2 * order)))
    h = (target / (lead * size * size)) ** (1.0 / (2 * order)) / (span + 2.0)
    n = math.ceil(v_max / h)
    h = v_max / n
    return n, h, lead * size * size * (h * (span + 2.0)) ** (2 * order)


def _kink_correction(gammas: np.ndarray, coeffs: np.ndarray, h: float, order: int) -> float:
    """sum_{k<=K} B_{2k} h^{2k} / (2k)! [f^{(2k-1)}(0+) - f^{(2k-1)}(0-)] for
    f(v) = |S(v)|^2 e^{-2|v|}, S(v) = sum_j coeffs_j e^{i v g_j}, K = order.

    In t = v / h, where no power overflows, S has the Taylor coefficients
    sum_j coeffs_j (i g_j h)^a / a!, a < 2K; |S|^2 has their convolution with
    their conjugates, and the jump of f across 0 that convolved with the
    coefficients of e^{-2ht} - e^{2ht}, -2 (2h)^b / b! at odd b.  Term k is h
    B_{2k} / (2k) times the coefficient of t^{2k-1} of the jump."""
    m = 2 * order
    powers = np.vstack([np.ones((1, gammas.size)), (1j * h) * gammas / np.arange(1, m)[:, None]])
    s = np.cumprod(powers, axis=0, out=powers) @ coeffs
    sq = np.convolve(s, s.conj())[:m].real
    kink = -2.0 * np.cumprod(np.concatenate([[1.0], 2.0 * h / np.arange(1, m)]))
    kink[::2] = 0.0
    jumps = np.convolve(sq, kink)[1:m:2]
    weights = [float(lfunc.bernoulli(2 * k) / (2 * k)) for k in range(1, order + 1)]
    return h * float(np.dot(weights, jumps))


@dataclass(frozen=True)
class IdentityCheckResult:
    """Both routes of the e^{-2|v|} identity between heights U <= T.

    lhs integrates |S(x,T,v) - S(x,U,v)|^2 e^{-2|v|} (S(x,U,v) = 0 for the
    full aggregate) by the trapezoid rule on node_count equispaced nodes over
    |v| <= v_max, v = 0 among them, plus `order` Euler-Maclaurin corrections
    for the kink there; rhs is the direct pair sum over ordinates in (U, T],
    of term_count pairs.  Up to rounding, abs_residual is at most
    discretization_bound + truncation_bound.  truncation_bound is
    (zero count)^2 e^{-2 v_max}, which bounds the integral beyond v_max;
    discretization_bound is the remainder bound of _trapezoid_mesh, which the
    step makes at most rel_tol max(|rhs|, 1), plus (h coth h - 1)
    truncation_bound, for the nodes beyond v_max and the halved ends.
    """

    lhs: float
    rhs: complex
    term_count: int
    v_max: float
    truncation_bound: float
    discretization_bound: float
    node_count: int
    order: int

    @property
    def abs_residual(self) -> float:
        return abs(self.lhs - self.rhs.real)

    @property
    def rel_residual(self) -> float:
        return self.abs_residual / max(abs(self.rhs.real), 1e-12)


def _identity_check(
    gammas: np.ndarray,
    weights: np.ndarray,
    x: float,
    rhs: complex,
    terms: int,
    rel_tol: float,
) -> IdentityCheckResult:
    """The quadrature side of the identity, against the direct sum rhs of
    `terms` pairs: the integrand's sum runs over the ordinates gammas with
    their weights, which also set v_max and the step."""
    if not 0 < rel_tol < 1:
        raise ValueError("rel_tol must lie in (0, 1)")
    exponent = _plain_exponent(gammas, weights, x)
    count, order = gammas.size, TRAPEZOID_ORDER
    if count == 0:
        return IdentityCheckResult(0.0, rhs, terms, 0.0, 0.0, 0.0, 0, order)
    scale = max(abs(rhs.real), 1.0)
    # +0.5 keeps the realized bound a factor e below the budget
    v_max = max(2.0, 0.5 * math.log(count * count / (QUAD_BUDGET_FACTOR * scale)) + 0.5)
    truncation = count * count * math.exp(-2.0 * v_max)
    span = float(gammas.max() - gammas.min())
    # every |conj(chi(a))| is 1, so the sum of the coefficients' sizes is the count
    n, h, remainder = _trapezoid_mesh(order, count, span, rel_tol * scale, v_max)
    vs, sums = lfunc.mesh_exp_sums(-v_max, h, 2 * n + 1, gammas[None], exponent[None])
    s = sums[:, 0]
    ys = (s.real * s.real + s.imag * s.imag) * np.exp(-2.0 * np.abs(vs))
    lhs = h * float(ys.sum() - 0.5 * (ys[0] + ys[-1]))
    lhs += _kink_correction(gammas, np.exp(exponent), h, order)
    bound = remainder + (h / math.tanh(h) - 1.0) * truncation
    return IdentityCheckResult(lhs, rhs, terms, v_max, truncation, bound, 2 * n + 1, order)


def f_q_via_integral(
    q: int,
    a: int,
    x: float,
    T: float,
    zero_sets: Mapping[CharacterLabel, ZeroSet],
    rel_tol: float = 1e-6,
) -> IdentityCheckResult:
    """Evaluate the aggregate through the e^{-2|v|} integral and compare."""
    # the public f_q, so that a tracer of f_q counts these pair terms too
    direct = f_q(q, a, x, T, zero_sets)
    gammas, weights = character_family(q, a, T, zero_sets)
    return _identity_check(gammas, weights, x, direct.value, direct.term_count, rel_tol)


def increment_identity_check(
    x: float,
    T: float,
    U: float,
    q: int,
    a: int,
    zero_sets: Mapping[CharacterLabel, ZeroSet],
    rel_tol: float = 1e-6,
) -> IdentityCheckResult:
    """Check the increment identity between heights U < T.

    The plain difference f_q(T) - f_q(U) is not the rhs: it also includes
    cross pairs (one ordinate below U, one above).
    """
    _check_args(x, T)
    if not 0 <= U <= T:
        raise ValueError(f"need 0 <= U <= T, got U={U}, T={T}")
    gammas, weights = character_family(q, a, T, zero_sets)
    above = np.abs(gammas) > U
    gammas, weights = gammas[above], weights[above]
    rhs, terms = _pair_sum(gammas, weights, gammas, weights, x)
    return _identity_check(gammas, weights, x, rhs, terms, rel_tol)


@dataclass(frozen=True)
class R1Result:
    """Prime-side sum at a single t, with its certified tail bound."""

    x: float
    t: float
    q: int
    a: int
    cutoff: int
    value: complex
    tail_bound: float
    term_count: int


def _r1_terms(x: float, q: int, a: int, cutoff: int | None) -> tuple[np.ndarray, np.ndarray, int]:
    """Log-coefficients and log-frequencies of the prime-side sum, and its cutoff."""
    if x < 2:
        raise ValueError("x must be at least 2")
    require_unit(q, a)
    if cutoff is None:
        cutoff = max(100_000, 8 * math.ceil(x))
    if cutoff < 8 * x:
        raise ValueError(f"cutoff {cutoff} is below 8x = {8 * x:g}")
    ns, lp = progression_tags(cutoff, q, a)
    coeff = np.where(ns <= x, lp * np.sqrt(ns / x), lp * (x / ns) ** 1.5)
    freqs = math.log(x) - np.log(ns)
    return np.log(coeff), freqs, int(cutoff)


def r1_batch(
    x: float,
    start: float,
    step: float,
    count: int,
    q: int,
    a: int,
    cutoff: int | None = None,
) -> tuple[np.ndarray, float, int, int]:
    """R1 at t = start + m step for m < count; returns (values, tail bound,
    cutoff, terms)."""
    log_coeff, freqs, cutoff = _r1_terms(x, q, a, cutoff)
    phi = euler_phi(q)
    scale = -phi / math.sqrt(x)
    _, out = lfunc.mesh_exp_sums(start, step, count, freqs[None], log_coeff[None])
    tail = _TAIL_CONSTANT * phi * x / math.sqrt(cutoff)
    return scale * out[:, 0], tail, cutoff, freqs.size


def r1(x: float, t: float, q: int, a: int, cutoff: int | None = None) -> R1Result:
    """Prime-side expansion at one t: head terms scaled by (x/n)^{-1/2+it},
    tail terms up to the cutoff by (x/n)^{3/2+it}, times -phi(q)/sqrt(x)."""
    values, tail, cut, terms = r1_batch(x, float(t), 1.0, 1, q, a, cutoff)
    return R1Result(
        x=float(x), t=float(t), q=q, a=a, cutoff=cut,
        value=complex(values[0]), tail_bound=tail, term_count=terms,
    )


@dataclass(frozen=True)
class R1MeanSquareResult:
    """Quadrature of |R1|^2 over [-T, T] against its reference size."""

    x: float
    T: float
    q: int
    a: int
    integral: float
    main_term: float  # 2 T S(x) phi(q)^2
    ratio: float
    spacing: float
    node_count: int
    cutoff: int
    tail_bound: float
    in_regime: bool  # T >= x / phi(q)
    s_result: SOfXResult


def _simpson(ys: np.ndarray, h: float) -> float:
    return (h / 3.0) * float(
        ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()
    )


def r1_mean_square(
    x: float,
    T: float,
    q: int,
    a: int,
    spacing: float | None = None,
    cutoff: int | None = None,
) -> R1MeanSquareResult:
    """Composite-Simpson mean square of the prime-side sum."""
    if T <= 0:
        raise ValueError("T must be positive")
    max_spacing = 0.25 / math.log(x) if x > 1 else 0.25
    if spacing is None:
        spacing = max_spacing
    if spacing > max_spacing * (1 + 1e-12):
        raise ValueError(
            f"node spacing {spacing:g} too coarse for x={x:g}; "
            f"need at most {max_spacing:g}"
        )
    intervals = 2 * max(1, math.ceil(T / spacing))
    h = 2.0 * T / intervals
    values, tail, cut, _ = r1_batch(x, -T, h, intervals + 1, q, a, cutoff)
    sq = values.real * values.real + values.imag * values.imag
    integral = _simpson(sq, h)
    s_res = s_of_x(x, q, a, cutoff=cut)
    phi = euler_phi(q)
    main = 2.0 * T * s_res.value * phi * phi
    return R1MeanSquareResult(
        x=float(x), T=float(T), q=q, a=a,
        integral=integral, main_term=main, ratio=integral / main,
        spacing=h, node_count=intervals + 1, cutoff=cut,
        tail_bound=tail, in_regime=T >= x / phi, s_result=s_res,
    )


@dataclass(frozen=True)
class SpacingHistogram:
    """Ordered-pair scaled-gap counts with the conjectured overlay.

    Gaps are scaled by log(T)/(2 pi); the per-bin expected column is
    binwidth * density(midpoint) * (T/(2 pi)) log T and carries no
    diagonal mass.  The diagonal (gap exactly 0, one pair per zero) is a
    whole-window constant, exposed separately: delta_term is the overlay
    normalization when 0 lies in [alpha, beta], and diagonal_count the
    exact number of such pairs.
    """

    label: CharacterLabel
    T: float
    alpha: float
    beta: float
    bin_edges: np.ndarray
    counts: np.ndarray
    expected: np.ndarray
    normalization: float
    includes_diagonal: bool
    delta_term: float
    diagonal_count: int
    window_count: int

    @property
    def pair_count(self) -> int:
        return int(self.counts.sum())


def spacing_histogram(
    zs: ZeroSet, T: float, alpha: float, beta: float, bins: int
) -> SpacingHistogram:
    """Histogram of scaled gaps over ordered pairs of positive ordinates."""
    if not alpha < beta:
        raise ValueError("need alpha < beta")
    if bins < 1:
        raise ValueError("need at least one bin")
    if T <= 1:
        raise ValueError("T must exceed 1 for the log T scaling")
    o = zs.window(T, "positive")  # strictly ascending, as certified
    scale = math.log(T) / (2.0 * math.pi)
    edges = np.linspace(alpha, beta, bins + 1)
    reach = max(abs(alpha), abs(beta))
    counts = o.size * np.histogram([0.0], edges)[0]  # the diagonal
    # the gaps at offset k grow elementwise with k, and so do their scaled
    # values: once the smallest lies beyond the reach, every later one does
    for k in range(1, o.size):
        d = (o[k:] - o[:-k]) * scale
        if d.min() > reach:
            break
        counts += np.histogram(np.concatenate([d, -d]), edges)[0]
    mids = 0.5 * (edges[:-1] + edges[1:])
    norm = (T / (2.0 * math.pi)) * math.log(T)
    expected = np.diff(edges) * gue_density(mids) * norm
    includes = alpha <= 0.0 <= beta
    return SpacingHistogram(
        label=zs.label, T=float(T), alpha=float(alpha), beta=float(beta),
        bin_edges=edges, counts=counts, expected=expected, normalization=norm,
        includes_diagonal=includes, delta_term=norm if includes else 0.0,
        diagonal_count=o.size, window_count=o.size,
    )


@dataclass(frozen=True)
class MeanValueResult:
    """Exact mean value of a finite exponential sum vs its envelope.

    exact_integral is the closed form sum over frequency pairs of
    c(mu) c(nu) K(mu - nu) with K(d) = integral over [-T, T] of
    e^{2 pi i d t} dt, so K(0) = 2T and K(d) = sin(2 pi d T)/(pi d).
    The envelope is (1/delta) sum c^2 + T * (close-pair coefficient mass);
    constant records |exact - main| relative to it.
    """

    T: float
    delta: float
    term_count: int
    exact_integral: float
    main_term: float
    off_diagonal_bound: float
    envelope: float
    constant: float
    close_pair_count: int


def mean_value_check(
    frequencies: Sequence[tuple[float, float]], T: float, delta: float
) -> MeanValueResult:
    """Exact closed-form mean value against the delta-separation envelope."""
    if T <= 0:
        raise ValueError("T must be positive")
    if not 1.0 / (2.0 * T) <= delta <= 0.5:
        raise ValueError(
            f"delta={delta:g} outside [1/(2T), 1/2] = "
            f"[{1.0 / (2.0 * T):g}, 0.5]"
        )
    if not frequencies:
        raise ValueError("frequency list must be nonempty")
    mu = np.array([m for m, _ in frequencies], dtype=np.float64)
    c = np.array([cv for _, cv in frequencies], dtype=np.float64)
    d = np.subtract.outer(mu, mu)
    kernel = 2.0 * T * np.sinc(2.0 * T * d)
    exact = float(c @ kernel @ c)
    main = 2.0 * T * float(c @ c)
    absd = np.abs(d)
    close = (absd > 0.0) & (absd < delta)
    cc = np.abs(np.outer(c, c))
    off_bound = T * float(cc[close].sum())
    envelope = float(c @ c) / delta + off_bound
    return MeanValueResult(
        T=float(T), delta=float(delta), term_count=mu.size,
        exact_integral=exact, main_term=main, off_diagonal_bound=off_bound,
        envelope=envelope, constant=abs(exact - main) / envelope,
        close_pair_count=int(np.count_nonzero(close)),
    )
