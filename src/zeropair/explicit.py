"""Truncated zero-sum reconstructions of weighted prime-power counts.

Each reconstruction evaluates a finite sum of x^(1/2+ig)/(1/2+ig) over
certified ordinates with |g| <= Z, assembles the main term appropriate to
the target count, and records the gap to the exact sieve value.  The
truncation error budget has the shape x log^2(.) / Z with no asserted
constant; the measured ratio of the gap to the budget is the output of
interest, reported per run and never turned into a hard bound here.

Three targets are covered: the full count psi(x), a single character sum
psi(x, chi) for nonprincipal chi, and the residue-class count psi(x; q, a).
For the full count the ordinates come in mirror pairs, so the sum is taken
as twice the real part over the positive half, which makes the result real
by construction.  The residue-class count aggregates one zero sum per
character mod q with weight conj(chi(a)); prime powers sharing a factor
with q belong to no coprime class, so their exact mass is removed from the
main term x before dividing by phi(q).  That aggregate is one weighted sum
over the flat ordinates and weights of zeros.character_family, the family
the pair sums of paircorr use, so a run's term count is the number of
ordinates its ZeroSet.window cuts keep.  The small imaginary part
left over after aggregation is kept as a diagnostic, not silently lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from zeropair.characters import CharacterLabel, DirichletCharacter, conductor_and_inducer, euler_phi
from zeropair.sieve import logp_sums, psi, psi_character, psi_progression
from zeropair.zeros import ZeroSet, character_family, zero_set_for

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
    """One reconstruction-versus-exact comparison.

    reconstructed and exact are floats for psi(x) and psi(x; q, a) runs
    and complex for character runs.  imag_residue is the magnitude of the
    imaginary part dropped when a mathematically real aggregate is reduced
    to its real part; it is zero by construction for the paired zeta sum.
    """

    x: float
    z: float
    q: int
    a: int
    reconstructed: complex
    exact: complex
    error_budget: float
    term_count: int
    imag_residue: float

    @property
    def abs_error(self) -> float:
        return abs(self.reconstructed - self.exact)

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


def zero_sum(x: float, zs: ZeroSet, z: float) -> complex:
    """Sum of x^(1/2+ig)/(1/2+ig) over recorded ordinates with |g| <= z."""
    return complex(np.sum(_terms(x, zs.window(z))))


def ramified_mass(x: float, q: int) -> float:
    """Sum of log p over prime powers <= x whose prime divides q, exact and
    correctly rounded: the classes sharing a factor with q form group 0."""
    coprime = np.array([math.gcd(r, q) == 1 for r in range(q)], dtype=np.int64)
    return logp_sums(x, q, coprime)[0]


def psi_from_zeros(x: float, z: float, zeta_set: ZeroSet) -> ExplicitFormulaRun:
    """Reconstruct psi(x) as x minus the truncated zero sum.

    The budget shape is x log^2(xZ) / Z.
    """
    _check_range(x, z)
    if zeta_set.label != _ZETA_LABEL:
        raise ValueError(f"expected the zeta zero set, got {zeta_set.label}")
    o = zeta_set.window(z)
    # pairing g with -g exactly keeps the result real regardless of the
    # last-digit noise between the two independently refined halves
    total = 2.0 * float(np.sum(_terms(x, o[o > 0.0]).real))
    budget = x * math.log(x * z) ** 2 / z
    return ExplicitFormulaRun(
        x=x,
        z=z,
        q=1,
        a=1,
        reconstructed=x - total,
        exact=psi(x),
        error_budget=budget,
        term_count=o.size,
        imag_residue=0.0,
    )


def psi_chi_from_zeros(
    x: float, z: float, chi: DirichletCharacter, zero_set: ZeroSet
) -> ExplicitFormulaRun:
    """Reconstruct psi(x, chi) as minus the truncated zero sum.

    Only nonprincipal chi is accepted: the principal sum carries the main
    term x and belongs to psi_from_zeros via its inducing zeta set.  The
    zero set must be the one for chi itself or for its primitive inducer
    (an induced character keeps the critical-line zeros of its inducer).
    The budget shape is x log^2(qx) / Z.
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
    q = chi.modulus
    o = zero_set.window(z)
    budget = x * math.log(q * x) ** 2 / z
    return ExplicitFormulaRun(
        x=x,
        z=z,
        q=q,
        a=0,
        reconstructed=-complex(np.sum(_terms(x, o))),
        exact=psi_character(x, chi),
        error_budget=budget,
        term_count=o.size,
        imag_residue=0.0,
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
    divided by phi(q), where S_chi is the truncated zero sum of chi's set.
    The ramified mass (prime powers sharing a factor with q) is subtracted
    exactly: those prime powers lie in no coprime class, so leaving them in
    the main term would misallocate their weight across the classes.  For
    q = 1 this is exactly psi_from_zeros.  The budget shape is
    x log^2(qx) / Z.
    """
    _check_range(x, z)
    if q == 1:
        return psi_from_zeros(x, z, zero_set_for(zero_sets, _ZETA_LABEL))
    gammas, weights = character_family(q, a, z, zero_sets)
    phi = euler_phi(q)
    total = complex(np.sum(weights * _terms(x, gammas)))
    raw = (x - ramified_mass(x, q) - total) / phi
    budget = x * math.log(q * x) ** 2 / z
    return ExplicitFormulaRun(
        x=x,
        z=z,
        q=q,
        a=a % q,
        reconstructed=raw.real,
        exact=psi_progression(x, q, a),
        error_budget=budget,
        term_count=gammas.size,
        imag_residue=abs(raw.imag),
    )
