"""Dirichlet characters with exact root-of-unity arithmetic.

Characters mod q are labeled by the units mod q themselves: the character
with index m sends n to e(sum_i e_i(m)*e_i(n)/d_i), where e_i() is the
discrete log with respect to a fixed generator tuple (g_i) of the unit
group and d_i = ord(g_i).  Index 1 is always the principal character, and
conjugation inverts the index mod q.

Generator convention: for an odd prime power p^e, the smallest primitive
root mod p^e; for 4, the residue 3; for 2^e with e >= 3, the pair (-1, 5)
in that order.  Character values are exact angles (rationals mod 1), so
multiplicativity, conductors and orthogonality can be checked without any
rounding.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

# unit-group tables are O(phi(q)) memory; beyond this use a different tool
MAX_MODULUS = 10**6


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _prime_factors(n: int) -> list[int]:
    return [p for p, _ in _factorize(n)]


def euler_phi(q: int) -> int:
    if q < 1:
        raise ValueError("q must be a positive integer")
    phi = 1
    for p, e in _factorize(q):
        phi *= (p - 1) * p ** (e - 1)
    return phi


@lru_cache(maxsize=None)
def _smallest_primitive_root(p: int, e: int) -> int:
    """Smallest primitive root mod p**e, p an odd prime."""
    pe = p**e
    order = pe // p * (p - 1)
    checks = [order // r for r in _prime_factors(order)]
    for g in range(2, pe):
        if g % p == 0:
            continue
        if all(pow(g, c, pe) != 1 for c in checks):
            return g
    raise ArithmeticError(f"no primitive root mod {pe}")  # unreachable


def _crt_lift(g: int, pe: int, cof: int) -> int:
    """The residue mod pe*cof that is g mod pe and 1 mod cof."""
    if cof == 1:
        return g % pe
    k = (1 - g) * pow(pe, -1, cof) % cof
    return (g + pe * k) % (pe * cof)


class _UnitGroup:
    """Fixed generator decomposition of (Z/q)^* with a full dlog table."""

    __slots__ = ("q", "gens", "orders", "exponent", "dlog", "units", "factors")

    def __init__(self, q: int):
        self.q = q
        self.factors = _factorize(q)
        gens: list[int] = []
        orders: list[int] = []
        for p, e in self.factors:
            pe = p**e
            cof = q // pe
            if p == 2:
                if e == 1:
                    continue
                if e == 2:
                    gens.append(_crt_lift(3, pe, cof))
                    orders.append(2)
                else:
                    gens.append(_crt_lift(pe - 1, pe, cof))
                    orders.append(2)
                    gens.append(_crt_lift(5, pe, cof))
                    orders.append(2 ** (e - 2))
            else:
                gens.append(_crt_lift(_smallest_primitive_root(p, e), pe, cof))
                orders.append(pe // p * (p - 1))
        self.gens = tuple(gens)
        self.orders = tuple(orders)
        self.exponent = math.lcm(*orders) if orders else 1

        vals: list[int] = []
        exps: list[tuple[int, ...]] = []

        def emit(i: int, v: int, t: tuple[int, ...]):
            if i == len(gens):
                vals.append(v)
                exps.append(t)
                return
            g, d = gens[i], orders[i]
            w = v
            for k in range(d):
                emit(i + 1, w, t + (k,))
                w = w * g % q

        emit(0, 1 % q, ())
        self.dlog = dict(zip(vals, exps))
        if len(self.dlog) != len(vals):
            raise ArithmeticError(f"generator decomposition failed for q={q}")
        self.units = sorted(self.dlog)


@lru_cache(maxsize=None)
def _unit_group(q: int) -> _UnitGroup:
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"modulus must be a positive integer, got {q!r}")
    if q > MAX_MODULUS:
        raise ValueError(f"modulus {q} exceeds supported bound {MAX_MODULUS}")
    return _UnitGroup(q)


_EXACT_VALUES = {
    Fraction(0): complex(1.0, 0.0),
    Fraction(1, 4): complex(0.0, 1.0),
    Fraction(1, 2): complex(-1.0, 0.0),
    Fraction(3, 4): complex(0.0, -1.0),
}


@dataclass(frozen=True)
class UnitRoot:
    """The root of unity e(k/m) = exp(2*pi*i*k/m), stored as the exact angle."""

    numerator: int
    denominator: int

    @staticmethod
    def of(numerator: int, denominator: int) -> "UnitRoot":
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        k = numerator % denominator
        g = math.gcd(k, denominator)
        return UnitRoot(k // g, denominator // g)

    @property
    def angle(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    @property
    def value(self) -> complex:
        exact = _EXACT_VALUES.get(self.angle)
        if exact is not None:
            return exact
        return cmath.exp(2j * math.pi * self.numerator / self.denominator)

    def __mul__(self, other: "UnitRoot") -> "UnitRoot":
        m = math.lcm(self.denominator, other.denominator)
        k = self.numerator * (m // self.denominator) + other.numerator * (m // other.denominator)
        return UnitRoot.of(k, m)

    def __pow__(self, n: int) -> "UnitRoot":
        return UnitRoot.of(self.numerator * n, self.denominator)

    def conjugate(self) -> "UnitRoot":
        return UnitRoot.of(-self.numerator, self.denominator)

    @property
    def is_one(self) -> bool:
        return self.numerator == 0


@dataclass(frozen=True, order=True)
class CharacterLabel:
    modulus: int
    index: int

    def __post_init__(self):
        if not isinstance(self.modulus, int) or self.modulus < 1:
            raise ValueError(f"modulus must be a positive integer, got {self.modulus!r}")
        if not isinstance(self.index, int) or not (1 <= self.index <= self.modulus):
            raise ValueError(f"index must lie in [1, {self.modulus}], got {self.index!r}")
        if math.gcd(self.index, self.modulus) != 1:
            raise ValueError(f"index {self.index} is not coprime to modulus {self.modulus}")

    def __str__(self) -> str:
        return f"{self.modulus}:{self.index}"


def _local_conductor(p: int, e: int, ts: tuple[int, ...]) -> int:
    """Conductor of the local character on U(p^e) given its exponent tuple."""
    if p == 2:
        if e == 1:
            return 1
        if e == 2:
            return 4 if ts[0] else 1
        t0, t1 = ts
        if t1 != 0:
            v = (t1 & -t1).bit_length() - 1  # 2-adic valuation
            return 2 ** (e - v)
        return 4 if t0 else 1
    (t,) = ts
    if t == 0:
        return 1
    v = 0
    while t % p == 0:
        t //= p
        v += 1
    return p ** max(1, e - v)


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod q, evaluated through exact angles."""

    label: CharacterLabel
    exponents: tuple[int, ...]
    order: int
    parity: int
    conductor: int
    _group: _UnitGroup = field(repr=False, compare=False)
    _weights: tuple[int, ...] = field(repr=False, compare=False)

    @property
    def modulus(self) -> int:
        return self.label.modulus

    @property
    def index(self) -> int:
        return self.label.index

    @property
    def is_principal(self) -> bool:
        return self.index == 1

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    @property
    def is_real(self) -> bool:
        return self.order <= 2

    def angle_numerator(self, n: int) -> int | None:
        """Angle of chi(n) as a numerator over the group exponent, or None."""
        g = self._group
        t = g.dlog.get(n % g.q)
        if t is None:
            return None
        acc = 0
        for w, e in zip(self._weights, t):
            acc += w * e
        return acc % g.exponent

    def angle(self, n: int) -> Fraction | None:
        k = self.angle_numerator(n)
        if k is None:
            return None
        return Fraction(k, self._group.exponent)

    def root(self, n: int) -> UnitRoot | None:
        k = self.angle_numerator(n)
        if k is None:
            return None
        return UnitRoot.of(k, self._group.exponent)

    def __call__(self, n: int) -> complex:
        r = self.root(n)
        return complex(0.0, 0.0) if r is None else r.value

    def conjugate(self) -> "DirichletCharacter":
        q = self.modulus
        if q <= 2:
            return self
        return character(q, pow(self.index, -1, q))


def character(q: int, index: int) -> DirichletCharacter:
    """The character mod q with the given unit index (1 = principal)."""
    return _character_cached(CharacterLabel(q, index))


@lru_cache(maxsize=None)
def _character_cached(label: CharacterLabel) -> DirichletCharacter:
    q, index = label.modulus, label.index
    g = _unit_group(q)
    exps = g.dlog[index % q]
    m = g.exponent
    weights = tuple(e * (m // d) % m for e, d in zip(exps, g.orders))

    order = 1
    for w in weights:
        order = math.lcm(order, m // math.gcd(m, w))

    if q <= 2:
        parity = 0
    else:
        t = g.dlog[q - 1]
        acc = sum(w * e for w, e in zip(weights, t)) % m
        if acc == 0:
            parity = 0
        elif 2 * acc == m:
            parity = 1
        else:
            raise ArithmeticError(f"chi(-1) not real for q={q}, index={index}")

    conductor = 1
    pos = 0
    for p, e in g.factors:
        width = 2 if (p == 2 and e >= 3) else (0 if (p == 2 and e == 1) else 1)
        conductor *= _local_conductor(p, e, exps[pos : pos + width])
        pos += width
    return DirichletCharacter(label, exps, order, parity, conductor, g, weights)


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, principal first (ascending index)."""
    g = _unit_group(q)
    if q == 1:
        return [character(1, 1)]
    return [character(q, u) for u in g.units]


def conductor_and_inducer(chi: DirichletCharacter) -> tuple[int, DirichletCharacter]:
    """The conductor q* and the primitive character mod q* inducing chi."""
    qstar = chi.conductor
    if qstar == chi.modulus:
        return qstar, chi
    units = _unit_group(chi.modulus).units
    for psi in enumerate_characters(qstar):
        if not psi.is_primitive or psi.order != chi.order or psi.parity != chi.parity:
            continue
        if all(psi.angle(u) == chi.angle(u) for u in units):
            return qstar, psi
    raise ArithmeticError(f"no primitive character mod {qstar} induces {chi.label}")


def gauss_sum(chi: DirichletCharacter) -> complex:
    """sum_{a mod q} chi(a) e(a/q), evaluated from exact angles."""
    q = chi.modulus
    if q == 1:
        return complex(1.0, 0.0)
    m = chi._group.exponent
    total = complex(0.0, 0.0)
    for a in chi._group.units:
        k = chi.angle_numerator(a)
        total += UnitRoot.of(k * q + a * m, m * q).value
    return total


def orthogonality_matrix(q: int) -> tuple[list[int], np.ndarray]:
    """Exact table of sum_chi conj(chi(a)) chi(b) over unit pairs (a, b).

    Each entry is accumulated character by character as a count vector of
    roots of unity and reduced modulo the cyclotomic polynomial of the
    group exponent, so the returned integers are exact.  Raises if any
    entry fails to reduce to a rational integer.
    """
    g = _unit_group(q)
    units = g.units
    m = g.exponent
    nu = len(units)

    chars = enumerate_characters(q)
    angles = np.empty((len(chars), nu), dtype=np.int64)
    for i, chi in enumerate(chars):
        angles[i] = [chi.angle_numerator(u) for u in units]

    # diff[c, a, b] = angle_c(b) - angle_c(a)  (mod m)
    diff = (angles[:, None, :] - angles[:, :, None]) % m
    pair_index = np.arange(nu * nu, dtype=np.int64).reshape(1, nu, nu)
    counts = np.zeros((nu * nu, m), dtype=np.int64)
    np.add.at(counts, (np.broadcast_to(pair_index, diff.shape).ravel(), diff.ravel()), 1)

    reduction = _cyclotomic_reduction_table(m)  # (m, deg) int64
    entries = counts @ reduction
    if entries.shape[1] > 1 and np.any(entries[:, 1:] != 0):
        raise ArithmeticError(f"orthogonality entry not a rational integer for q={q}")
    return units, entries[:, 0].reshape(nu, nu).copy()


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials, den monic, remainder must vanish."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        out[i - dn] = c
        if c:
            for j, dj in enumerate(den):
                num[i - dn + j] -= c * dj
    if any(num[:dn]):
        raise ArithmeticError("polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_div_exact(poly, _cyclotomic(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _cyclotomic_reduction_table(m: int) -> np.ndarray:
    """Row k holds the coefficients of X^k reduced mod the m-th cyclotomic."""
    phi = _cyclotomic(m)
    deg = len(phi) - 1
    table = np.zeros((m, deg), dtype=np.int64)
    row = np.zeros(deg, dtype=np.int64)
    row[0] = 1
    table[0] = row
    low = np.array(phi[:deg], dtype=np.int64)
    for k in range(1, m):
        lead = row[deg - 1]
        row = np.roll(row, 1)
        row[0] = 0
        if lead:
            row = row - lead * low  # X^deg = -(low part), phi monic
        table[k] = row
    return table
