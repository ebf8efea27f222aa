"""Finite-scale measurements of residue-class prime error terms.

Nothing here proves or asserts an asymptotic statement.  Each harness
computes exact sieve errors psi(x; q, a) - x/phi(q) and renders them on a
candidate scale, so that the output is a table of measured ratios and
exponents rather than a verdict:

- montgomery_table divides by sqrt(x/q) and reports the exponent epsilon
  that the observed ratio would demand, clamped at zero;
- eh_sum accumulates worst-class errors over all moduli up to Q, and
  eh_sums does so for several nested Q in one pass;
- weak_form_table generalizes the normalizer to sqrt(x phi(q)^alpha / q),
  interpolating between the two scalings above as alpha goes 0 to 1;
- dyadic_profile splits the error over halving blocks down to the depth
  where the block length stops dominating the modulus, and checks that
  the blocks and tail reassemble the total exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from zeropair.characters import euler_phi, require_unit, units
from zeropair.sieve import logp_sums, psi_progression

__all__ = [
    "MontgomeryRow",
    "WeakFormRow",
    "DyadicProfile",
    "montgomery_table",
    "eh_sum",
    "eh_sums",
    "weak_form_table",
    "dyadic_profile",
]


@dataclass(frozen=True)
class MontgomeryRow:
    """One (x, q, a) error measurement on the sqrt(x/q) scale.

    normalizer is recorded per row so that its invariance under the
    joint scaling (x, q) -> (4x, 4q) is visible in the output without
    being asserted.  implied_epsilon is the exponent e with
    |normalized| = x^e when the ratio exceeds 1, and 0 otherwise;
    grh_ratio measures the same error against the sqrt(x) log^2 x
    envelope instead.
    """

    x: float
    q: int
    a: int
    error: float
    normalizer: float
    normalized: float
    implied_epsilon: float
    grh_ratio: float


@dataclass(frozen=True)
class WeakFormRow:
    """Error measurement on the sqrt(x phi(q)^alpha / q) scale."""

    x: float
    q: int
    a: int
    alpha: float
    error: float
    normalizer: float
    normalized: float


@dataclass(frozen=True)
class DyadicProfile:
    """Halving-block decomposition of psi(x; q, a) - x/phi(q).

    Block j covers (x/2^(j+1), x/2^j] for j < depth, where depth is the
    largest J with (x/2^J)^(1-eps) >= q; the tail keeps everything at or
    below x/2^depth.  block_normalized renders each block error on the
    sqrt(x/(2^j q)) scale of the block-level target.
    """

    x: float
    q: int
    a: int
    eps: float
    depth: int
    block_errors: tuple[float, ...]
    block_normalized: tuple[float, ...]
    tail_error: float
    total_error: float

    @property
    def tail_main_term(self) -> float:
        return self.x / (2**self.depth * euler_phi(self.q))

    @property
    def telescoped(self) -> float:
        """Sum of block errors and the tail error; equals total_error."""
        return math.fsum(self.block_errors) + self.tail_error


def _class_errors(x: float, q: int) -> dict[int, float]:
    """psi(x; q, a) - x/phi(q) for every unit a, in one table pass."""
    sums = logp_sums(x, q)
    main = x / euler_phi(q)
    return {a: sums[a % q] - main for a in units(q)}


def _classes_by_modulus(q_list, a: int | None) -> dict[int, list[int]]:
    """Sorted distinct moduli, each mapped to the unit classes it reports.

    A given a must be a unit for every q and stands alone (reduced mod q);
    without it every unit class of q is reported.
    """
    qs = sorted(set(int(q) for q in q_list))
    if not qs or qs[0] < 1:
        raise ValueError("moduli must be positive")
    if a is None:
        return {q: units(q) for q in qs}
    for q in qs:
        require_unit(q, a)
    return {q: [1] if q == 1 else [a % q] for q in qs}


def _implied_epsilon(normalized: float, x: float) -> float:
    if abs(normalized) <= 1.0:
        return 0.0
    return math.log(abs(normalized)) / math.log(x)


def _normalized_errors(xs, q_list, a: int | None, normalizer):
    """(x, q, class, error, normalizer(x, q)) for every x in xs, modulus and class
    of _classes_by_modulus, in one table pass per (x, q)."""
    class_sets = _classes_by_modulus(q_list, a)
    for x in xs:
        for q, classes in class_sets.items():
            errors, scale = _class_errors(x, q), normalizer(x, q)
            for cls in classes:
                yield x, q, cls, errors[cls], scale


def montgomery_table(x_list, q_list, a: int | None = None) -> list[MontgomeryRow]:
    """Rows for every x in x_list, q in q_list, and unit class a.

    Passing a fixes the residue class (it must be a unit for every q);
    otherwise all unit classes of each q are enumerated.
    """
    xs = sorted(set(float(x) for x in x_list))
    if not xs or xs[0] <= 1.0:
        raise ValueError("x values must exceed 1")
    rows = []
    for x, q, cls, err, scale in _normalized_errors(xs, q_list, a, lambda x, q: math.sqrt(x / q)):
        normalized = err / scale
        rows.append(
            MontgomeryRow(
                x=x,
                q=q,
                a=cls,
                error=err,
                normalizer=scale,
                normalized=normalized,
                implied_epsilon=_implied_epsilon(normalized, x),
                grh_ratio=abs(err) / (math.sqrt(x) * math.log(x) ** 2),
            )
        )
    return rows


def eh_sums(x: float, Qs) -> list[float]:
    """eh_sum(x, Q) for each Q in Qs, with each modulus's worst-class term computed once."""
    if not Qs or min(Qs) < 1:
        raise ValueError("Q must be positive")
    if not max(Qs) < x:
        raise ValueError(f"need Q < x, got Q={max(Qs)}, x={x:g}")
    terms = [max(abs(e) for e in _class_errors(x, q).values())
             for q in range(1, max(Qs) + 1)]
    return [math.fsum(terms[:Q]) for Q in Qs]


def eh_sum(x: float, Q: int) -> float:
    """Sum over q <= Q of the worst unit-class error at x.

    Each term is max over units a of |psi(x; q, a) - x/phi(q)|, so the
    sum is nondecreasing in Q; Q = 1 gives |psi(x) - x|.
    """
    return eh_sums(x, (Q,))[0]


def weak_form_table(x: float, q_list, alpha: float, a: int | None = None) -> list[WeakFormRow]:
    """Error rows on the sqrt(x phi(q)^alpha / q) scale.

    alpha = 0 reproduces the montgomery_table normalizer, alpha = 1
    brings the scale up to roughly sqrt(x).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if x <= 1.0:
        raise ValueError("x must exceed 1")
    return [
        WeakFormRow(
            x=x,
            q=q,
            a=cls,
            alpha=alpha,
            error=err,
            normalizer=scale,
            normalized=err / scale,
        )
        for x, q, cls, err, scale in _normalized_errors(
            [x], q_list, a, lambda x, q: math.sqrt(x * euler_phi(q) ** alpha / q)
        )
    ]


def dyadic_profile(x: float, q: int, a: int, eps: float = 0.1) -> DyadicProfile:
    """Split the class error at x into halving blocks down to depth J.

    J is the largest integer with (x/2^J)^(1-eps) >= q; the precondition
    q <= x^(1-eps) makes J >= 0.  Block j carries
    psi(x/2^j) - psi(x/2^(j+1)) - x/(2^(j+1) phi(q)) restricted to the
    class, and the tail keeps psi(x/2^J) - x/(2^J phi(q)), so the pieces
    sum to psi(x; q, a) - x/phi(q) exactly.
    """
    require_unit(q, a)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if x <= 1.0:
        raise ValueError("x must exceed 1")
    if q > x ** (1.0 - eps):
        raise ValueError(f"need q <= x^(1-eps) = {x ** (1.0 - eps):g}, got q={q}")
    phi = euler_phi(q)
    # largest J with (x/2^J)^(1-eps) >= q; the guard absorbs roundoff on
    # exact-power boundaries
    depth = math.floor(math.log2(x) - math.log2(q) / (1.0 - eps) + 1e-12)
    counts = [psi_progression(x / 2**j, q, a) for j in range(depth + 1)]
    blocks = []
    scaled = []
    for j in range(depth):
        err = counts[j] - counts[j + 1] - x / (2 ** (j + 1) * phi)
        blocks.append(err)
        scaled.append(err / math.sqrt(x / (2**j * q)))
    tail = counts[depth] - x / (2**depth * phi)
    return DyadicProfile(
        x=x,
        q=q,
        a=a % q if q > 1 else 1,
        eps=eps,
        depth=depth,
        block_errors=tuple(blocks),
        block_normalized=tuple(scaled),
        tail_error=tail,
        total_error=counts[0] - x / phi,
    )
