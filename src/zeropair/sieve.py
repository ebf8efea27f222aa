"""Prime-power tables and weighted prime sums.

The central object tags every prime power n = p^k in a range with its base
and exponent, so set-level statements (which n land in which residue
class, how psi decomposes over characters) can be tested exactly on
integers.  Sums of log p are exact too: each float64 weight log p >= log 2
is an integer multiple of 2^-53, so logp_sums adds those integers in
narrow limbs that no float64 total can round, and rounds each group's
exact sum once.  A rendered sum therefore equals math.fsum of the same
tags, whatever their order, and repeated runs agree bit for bit.

Callers pass x and never see a table.  The process keeps one, which
grows only when some x lies beyond it, to the smallest power of two >= x
(at least 2^17); x above MAX_X is rejected, since a larger table would
hold more tags than the exact sums allow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from zeropair.characters import DirichletCharacter, UnitRoot, euler_phi, require_unit


def primes_up_to(limit: int) -> np.ndarray:
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def primes_in_window(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi], sieved against base primes up to sqrt(hi)."""
    lo = max(lo, 2)
    if hi < lo:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(hi - lo + 1, dtype=bool)
    for p in primes_up_to(math.isqrt(hi)):
        p = int(p)
        start = max(p * p, ((lo + p - 1) // p) * p)
        mask[start - lo :: p] = False
        if lo <= p <= hi:
            mask[p - lo] = True
    return np.nonzero(mask)[0].astype(np.int64) + lo


# For log 2 <= logp < 32, logp * 2^53 is an integer below 2^58, held as a low
# and a high limb of _LIMB_BITS bits.  A float64 total of fewer than
# _EXACT_TAGS limbs stays an integer below 2^53, so np.bincount adds them
# without rounding.
_LIMB_BITS = 29
_EXACT_TAGS = 2 ** (53 - _LIMB_BITS)
# pi(2^28) = 14,630,843 tags fit _EXACT_TAGS; pi(2^29) is about 28.2 million
MAX_X = 2**28


@dataclass(frozen=True)
class LambdaTable:
    """Prime powers n = p^k in [2, limit] with (p, k) tags, sorted by n: int32 n, p and int8 k."""

    limit: int
    n: np.ndarray
    p: np.ndarray
    k: np.ndarray
    logp: np.ndarray  # log of the base, the rendered weight of each tag

    @staticmethod
    def build(limit: int) -> "LambdaTable":
        if not 2 <= limit <= MAX_X:
            raise ValueError(f"limit must lie in [2, MAX_X = 2^28], got {limit}")
        primes = primes_up_to(limit).astype(np.int32)
        ns = [primes]
        ps = [primes]
        ks = [np.ones(primes.size, dtype=np.int8)]
        for p in primes[primes <= math.isqrt(limit)]:
            p = int(p)
            v = p * p
            k = 2
            while v <= limit:
                ns.append(np.array([v], dtype=np.int32))
                ps.append(np.array([p], dtype=np.int32))
                ks.append(np.array([k], dtype=np.int8))
                v *= p
                k += 1
        n = np.concatenate(ns)
        p_ = np.concatenate(ps)
        k_ = np.concatenate(ks)
        order = np.argsort(n, kind="stable")
        n, p_, k_ = n[order], p_[order], k_[order]
        return LambdaTable(int(limit), n, p_, k_, np.log(p_.astype(np.float64)))

    def cut(self, x: float) -> int:
        """Index of the first tag with n > x; requires x within table range."""
        if x > self.limit:
            raise ValueError(f"x={x} exceeds table limit {self.limit}")
        # a key in the table's dtype (a Python int makes numpy convert the table)
        return int(np.searchsorted(self.n, self.n.dtype.type(max(math.floor(x), 0)), side="right"))

    @cached_property
    def _limbs(self) -> np.ndarray:
        """(2, size) float64 low and high limbs of logp * 2^53."""
        if self.n.size >= _EXACT_TAGS:
            raise ValueError(f"{self.n.size} tags exceed the exact-sum budget of {_EXACT_TAGS}")
        top = 2.0 ** (2 * _LIMB_BITS - 53)
        if self.logp.size and not (self.logp.min() >= 0.5 and self.logp.max() < top):
            raise ValueError(f"exact sums need every logp in [1/2, {top:g})")
        # limb i = floor(logp * 2^(53 - i * _LIMB_BITS)) mod 2^_LIMB_BITS; ldexp,
        # floor and fmod are exact in float64 and need no temporaries
        limbs = np.empty((2, self.logp.size))
        for i, limb in enumerate(limbs):
            np.ldexp(self.logp, 53 - i * _LIMB_BITS, out=limb)
            np.fmod(np.floor(limb, out=limb), 2.0**_LIMB_BITS, out=limb)
        return limbs


_MIN_LIMIT = 2**17
_table: LambdaTable | None = None


def require_in_range(x: float) -> None:
    """Reject an x beyond MAX_X, the largest table whose sums stay exact."""
    if not x <= MAX_X:
        raise ValueError(f"x={x:g} exceeds MAX_X = 2^28, the largest x with exact prime sums")


def shared_table(limit: float) -> LambdaTable:
    """The process's one table, kept while it reaches limit and otherwise
    rebuilt at the smallest power of two >= limit, at least 2^17."""
    global _table
    if _table is None or _table.limit < limit:
        _table = None  # free the smaller table before the build
        _table = LambdaTable.build(max(_MIN_LIMIT, 1 << (math.ceil(limit) - 1).bit_length()))
    return _table


def table_for(x: float) -> LambdaTable:
    """The shared table, reaching x, for any x up to MAX_X."""
    require_in_range(x)
    return shared_table(x)


def logp_sums(x: float, q: int, group: np.ndarray | None = None) -> list[float]:
    """Sums of log p over the prime powers n <= x, one per class n mod q.

    With group, class r adds to entry group[r] instead.  Every entry is the
    correctly rounded value of its exact sum (an empty class gives 0.0).
    """
    table = table_for(x)
    cut = table.cut(x)
    keys = table.n[:cut] % q
    size = q
    if group is not None:
        keys = group[keys]
        size = int(group.max()) + 1
    lo, hi = (np.bincount(keys, weights=limb[:cut], minlength=size).astype(np.int64).tolist()
              for limb in table._limbs)
    # int / int is correctly rounded, as math.fsum is
    return [(a + (b << _LIMB_BITS)) / 2**53 for a, b in zip(lo, hi)]


def psi(x: float) -> float:
    """sum of log p over prime powers <= x."""
    return logp_sums(x, 1)[0]


def psi_progression(x: float, q: int, a: int) -> float:
    """sum of log p over prime powers <= x in the class a mod q."""
    require_unit(q, a)
    return logp_sums(x, q)[a % q]


def psi_character(x: float, chi: DirichletCharacter) -> complex:
    """sum of chi(n) log p over prime powers n <= x.

    Tags are grouped by the exact angle of chi(n); each group's sum is exact
    until it is multiplied by its root of unity, so the float result is as
    close to the exact one as the final few operations allow.
    """
    q = chi.modulus
    m = chi._group.exponent
    # residues off the group (chi(n) = 0) land in the dropped entry m
    angle_of = np.full(q, m, dtype=np.int64)
    for r in range(q):
        av = chi.angle_numerator(r)
        if av is not None:
            angle_of[r] = av
    total = complex(0.0, 0.0)
    for kang, group in enumerate(logp_sums(x, q, angle_of)[:m]):
        if group:
            total += group * UnitRoot.of(kang, m).value
    return total


def progression_tags(x: float, q: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    """The prime powers n <= x with n = a mod q, as float64, and their log p."""
    table = table_for(x)
    cut = table.cut(x)
    sel = table.n[:cut] % q == a % q
    return table.n[:cut][sel].astype(np.float64), table.logp[:cut][sel]


def pi_count(x: float) -> int:
    table = table_for(x)
    return int(np.count_nonzero(table.k[: table.cut(x)] == 1))


def pi_progression(x: float, q: int, a: int) -> int:
    require_unit(q, a)
    table = table_for(x)
    cut = table.cut(x)
    sel = table.k[:cut] == 1
    return int(np.count_nonzero(table.n[:cut][sel] % q == a % q))


@dataclass(frozen=True)
class SOfXResult:
    """The normalized second-moment sum over a progression, with its tail."""

    x: float
    q: int
    a: int
    cutoff: int
    head: float  # (1/x^2) sum_{n<=x, n=a(q)} n Lambda(n)^2
    tail: float  # x^2 sum_{x<n<=cutoff, n=a(q)} Lambda(n)^2 / n^3
    remainder_bound: float  # x^2 (log cutoff)^2 / (2 cutoff^2), past the cutoff

    @property
    def value(self) -> float:
        return self.head + self.tail


def s_of_x(x: float, q: int, a: int, cutoff: int | None = None) -> SOfXResult:
    if x < 2:
        raise ValueError("x must be at least 2")
    require_unit(q, a)
    if cutoff is None:
        cutoff = 8 * math.ceil(x)
    if cutoff < 8 * x:
        raise ValueError("cutoff must be at least 8x")
    ns, ls = progression_tags(cutoff, q, a)
    inside = ns <= x
    ns_in, ls_in = ns[inside], ls[inside]
    head = math.fsum(ns_in * ls_in * ls_in) / (x * x)
    ns_out, ls_out = ns[~inside], ls[~inside]
    tail = math.fsum(ls_out * ls_out / (ns_out * ns_out * ns_out)) * (x * x)

    bound = x * x * math.log(cutoff) ** 2 / (2 * cutoff * cutoff)
    return SOfXResult(float(x), q, a, int(cutoff), head, tail, bound)


@dataclass(frozen=True)
class BrunTitchmarshResult:
    x: float
    y: float
    q: int
    a: int
    count: int  # primes in (x, x+y] congruent to a mod q
    bound: float  # 2y / (phi(q) log(y/q))
    margin: float

    @property
    def holds(self) -> bool:
        return self.margin > 0


def brun_titchmarsh_check(x: float, y: float, q: int, a: int) -> BrunTitchmarshResult:
    """Compare the sieve bound 2y/(phi(q) log(y/q)) with an exact count."""
    if y <= q:
        raise ValueError(f"y must exceed q, got y={y}, q={q}")
    if x < 0:
        raise ValueError("x must be nonnegative")
    require_unit(q, a)
    lo = math.floor(x) + 1
    hi = math.floor(x + y)
    window = primes_in_window(lo, hi)
    count = int(np.count_nonzero(window % q == a % q))
    bound = 2 * y / (euler_phi(q) * math.log(y / q))
    return BrunTitchmarshResult(float(x), float(y), q, a, count, bound, bound - count)
