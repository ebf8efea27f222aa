"""Truncated zero-sum reconstructions of weighted prime-power counts.

Each reconstruction sums x^(1/2+ig)/(1/2+ig) over certified ordinates with
|g| <= Z, adds the main term of its target count and records the gap to the
exact sieve value.  The error budget has the shape x log^2(qxZ) / Z of the
truncation error (Davenport, Multiplicative Number Theory, ch. 17 and 19)
with no asserted constant: the measured ratio of the gap to the budget is
reported per run, never turned into a hard bound.

psi(x; q, a) is one sum over the ordinates of zeros.character_family with
weights conj(chi(a)), the family the pair sums of paircorr use; psi(x) is
its case q = 1, and psi(x, chi) for nonprincipal chi is a single
character's sum.  Prime powers sharing a factor with q lie in no coprime
class, so their exact mass leaves the main term x before the division by
phi(q).  The window of conj(chi) is the mirror of chi's, so the family is
closed under g -> -g with conjugate weights, and its sum is twice the real
part over g > 0 plus the terms at g = 0: real by construction.  That mirror
is checked, and a family without it raises CertificationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from zeropair.characters import (
    CharacterLabel,
    DirichletCharacter,
    conductor_and_inducer,
    enumerate_characters,
    euler_phi,
)
from zeropair.sieve import logp_sums, psi_character, psi_progression
from zeropair.zeros import CertificationError, ZeroSet, character_family, zero_set_for

__all__ = [
    "ExplicitFormulaRun",
    "zero_sum",
    "ramified_mass",
    "psi_from_zeros",
    "psi_chi_from_zeros",
    "psi_progression_from_zeros",
]

_ZETA_LABEL = CharacterLabel(1, 1)


@dataclass(frozen=True)
class ExplicitFormulaRun:
    """One reconstruction-versus-exact comparison: reconstructed and exact are
    floats for psi(x) and psi(x; q, a), complex for psi(x, chi)."""

    x: float
    z: float
    q: int
    a: int
    reconstructed: complex
    exact: complex
    term_count: int

    @property
    def abs_error(self) -> float:
        return abs(self.reconstructed - self.exact)

    @property
    def error_budget(self) -> float:
        """The budget shape x log^2(qxZ) / Z, the same for every target."""
        return self.x * math.log(self.q * self.x * self.z) ** 2 / self.z

    @property
    def measured_constant(self) -> float:
        """Observed ratio of the error to the shape-only budget."""
        return self.abs_error / self.error_budget


def _check_range(x: float, z: float) -> None:
    if not 2.0 <= z <= x:
        raise ValueError(f"need 2 <= Z <= x, got Z={z:g}, x={x:g}")


def _terms(x: float, o: np.ndarray) -> np.ndarray:
    """x^(1/2+ig)/(1/2+ig) for every ordinate g in o."""
    rho = 0.5 + 1j * o
    return np.exp(math.log(x) * rho) / rho


def _require_mirrored(q: int, z: float, zero_sets: Mapping[CharacterLabel, ZeroSet]) -> None:
    """CertificationError unless every window of conj(chi) mod q mirrors chi's."""
    for chi in enumerate_characters(q):
        o, bar = (zero_set_for(zero_sets, psi.label).window(z) for psi in (chi, chi.conjugate()))
        if not np.array_equal(bar, -o[::-1]):
            raise CertificationError(f"{chi.label} and its conjugate do not mirror up to {z:g}")


def zero_sum(x: float, zs: ZeroSet, z: float) -> complex:
    """Sum of x^(1/2+ig)/(1/2+ig) over recorded ordinates with |g| <= z."""
    return complex(np.sum(_terms(x, zs.window(z))))


def ramified_mass(x: float, q: int) -> float:
    """Sum of log p over prime powers <= x whose prime divides q, exact and
    correctly rounded: the classes sharing a factor with q form group 0."""
    coprime = np.array([math.gcd(r, q) == 1 for r in range(q)], dtype=np.int64)
    return logp_sums(x, q, coprime)[0]


def psi_from_zeros(x: float, z: float, zeta_set: ZeroSet) -> ExplicitFormulaRun:
    """psi(x) from the zeros of zeta: psi_progression_from_zeros at q = 1."""
    if zeta_set.label != _ZETA_LABEL:
        raise ValueError(f"expected the zeta zero set, got {zeta_set.label}")
    return psi_progression_from_zeros(x, z, 1, 1, {_ZETA_LABEL: zeta_set})


def psi_chi_from_zeros(
    x: float, z: float, chi: DirichletCharacter, zero_set: ZeroSet
) -> ExplicitFormulaRun:
    """Reconstruct psi(x, chi) as minus the truncated zero sum.

    Only nonprincipal chi is accepted: the principal sum carries the main
    term x and belongs to psi_from_zeros via its inducing zeta set.  The
    zero set must be the one for chi itself or for its primitive inducer
    (an induced character keeps the critical-line zeros of its inducer).
    """
    _check_range(x, z)
    if chi.is_principal:
        raise ValueError("principal character has a main term; use psi_from_zeros")
    _, inducer = conductor_and_inducer(chi)
    if zero_set.label not in (chi.label, inducer.label):
        raise ValueError(
            f"zero set {zero_set.label} matches neither {chi.label} "
            f"nor its inducer {inducer.label}"
        )
    o = zero_set.window(z)
    return ExplicitFormulaRun(
        x=x,
        z=z,
        q=chi.modulus,
        a=0,
        reconstructed=-complex(np.sum(_terms(x, o))),
        exact=psi_character(x, chi),
        term_count=o.size,
    )


def psi_progression_from_zeros(
    x: float,
    z: float,
    q: int,
    a: int,
    zero_sets: Mapping[CharacterLabel, ZeroSet],
) -> ExplicitFormulaRun:
    """Reconstruct psi(x; q, a) from one zero sum per character mod q.

    reconstructed = (x - ramified mass - sum over chi of conj(chi(a)) S_chi)
    divided by phi(q), where S_chi is the truncated zero sum of chi's set,
    taken over the positive half of the mirrored family (module docstring).
    The run's a is reduced to 1..q.
    """
    _check_range(x, z)
    gammas, weights = character_family(q, a, z, zero_sets)
    _require_mirrored(q, z, zero_sets)
    g, w = gammas[gammas >= 0.0], weights[gammas >= 0.0]
    side = (w * _terms(x, g)).real
    total = 2.0 * float(np.sum(side[g > 0.0])) + float(np.sum(side[g == 0.0]))
    return ExplicitFormulaRun(
        x=x,
        z=z,
        q=q,
        a=(a - 1) % q + 1,
        reconstructed=(x - ramified_mass(x, q) - total) / euler_phi(q),
        exact=psi_progression(x, q, a),
        term_count=gammas.size,
    )
