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
main term x before dividing by phi(q).  The per-character sums are taken
over each set's own recorded ordinates, and the small imaginary part left
over after aggregation is kept as a diagnostic rather than silently lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from zeropair.characters import (
    CharacterLabel,
    DirichletCharacter,
    _prime_factors,
    conductor_and_inducer,
    enumerate_characters,
    euler_phi,
    require_unit,
)
from zeropair.sieve import (
    LambdaTable,
    psi,
    psi_character,
    psi_progression,
    table_for,
)
from zeropair.zeros import ZeroSet, require_certified

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


def zero_sum(x: float, zs: ZeroSet, z: float) -> complex:
    """Sum of x^(1/2+ig)/(1/2+ig) over recorded ordinates with |g| <= z."""
    require_certified(zs, z)
    o = zs.ordinates
    o = o[np.abs(o) <= z]
    if o.size == 0:
        return 0j
    rho = 0.5 + 1j * o
    return complex(np.sum(np.exp(math.log(x) * rho) / rho))


def _paired_zeta_sum(x: float, zs: ZeroSet, z: float) -> tuple[float, int]:
    """The same sum for the self-mirrored zeta set, folded to 2 Re.

    Pairing g with -g exactly keeps the result real regardless of the
    last-digit noise between the two independently refined halves.
    """
    require_certified(zs, z)
    o = zs.ordinates
    pos = o[(o > 0.0) & (o <= z)]
    count = int(np.count_nonzero(np.abs(o) <= z))
    if pos.size == 0:
        return 0.0, count
    rho = 0.5 + 1j * pos
    total = 2.0 * float(np.sum((np.exp(math.log(x) * rho) / rho).real))
    return total, count


def ramified_mass(x: float, q: int) -> float:
    """Sum of log p over prime powers <= x whose prime divides q."""
    total = 0.0
    for p in _prime_factors(q):
        pk = p
        while pk <= x:
            total += math.log(p)
            pk *= p
    return total


def psi_from_zeros(
    x: float, z: float, zeta_set: ZeroSet, table: LambdaTable | None = None
) -> ExplicitFormulaRun:
    """Reconstruct psi(x) as x minus the truncated zero sum.

    The budget shape is x log^2(xZ) / Z.
    """
    _check_range(x, z)
    if zeta_set.label != _ZETA_LABEL:
        raise ValueError(f"expected the zeta zero set, got {zeta_set.label}")
    table = table_for(x, table)
    total, count = _paired_zeta_sum(x, zeta_set, z)
    budget = x * math.log(x * z) ** 2 / z
    return ExplicitFormulaRun(
        x=x,
        z=z,
        q=1,
        a=1,
        reconstructed=x - total,
        exact=psi(x, table),
        error_budget=budget,
        term_count=count,
        imag_residue=0.0,
    )


def psi_chi_from_zeros(
    x: float,
    z: float,
    chi: DirichletCharacter,
    zero_set: ZeroSet,
    table: LambdaTable | None = None,
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
    table = table_for(x, table)
    q = chi.modulus
    o = zero_set.ordinates
    count = int(np.count_nonzero(np.abs(o) <= z))
    budget = x * math.log(q * x) ** 2 / z
    return ExplicitFormulaRun(
        x=x,
        z=z,
        q=q,
        a=0,
        reconstructed=-zero_sum(x, zero_set, z),
        exact=psi_character(x, chi, table),
        error_budget=budget,
        term_count=count,
        imag_residue=0.0,
    )


def psi_progression_from_zeros(
    x: float,
    z: float,
    q: int,
    a: int,
    zero_sets: Mapping[CharacterLabel, ZeroSet],
    table: LambdaTable | None = None,
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
    require_unit(q, a)
    _check_range(x, z)
    if q == 1:
        lab = _ZETA_LABEL
        if lab not in zero_sets:
            raise KeyError(f"no zero set supplied for {lab}")
        return psi_from_zeros(x, z, zero_sets[lab], table)
    table = table_for(x, table)
    phi = euler_phi(q)
    total = 0j
    count = 0
    for chi in enumerate_characters(q):
        lab = chi.label
        if lab not in zero_sets:
            raise KeyError(f"no zero set supplied for {lab}")
        zs = zero_sets[lab]
        total += chi(a).conjugate() * zero_sum(x, zs, z)
        count += int(np.count_nonzero(np.abs(zs.ordinates) <= z))
    raw = (x - ramified_mass(x, q) - total) / phi
    budget = x * math.log(q * x) ** 2 / z
    return ExplicitFormulaRun(
        x=x,
        z=z,
        q=q,
        a=a % q,
        reconstructed=raw.real,
        exact=psi_progression(x, q, a, table),
        error_budget=budget,
        term_count=count,
        imag_residue=abs(raw.imag),
    )
