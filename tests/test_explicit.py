import cmath
import math
from dataclasses import replace

import pytest

from zeropair.characters import CharacterLabel, character, enumerate_characters, euler_phi
from zeropair.explicit import (
    psi_chi_from_zeros,
    psi_from_zeros,
    psi_progression_from_zeros,
    ramified_mass,
    zero_sum,
)
from zeropair.paircorr import CertificationError, f_q
from zeropair.sieve import psi, psi_character, psi_progression
from zeropair.zeros import zeros_for_modulus

ZETA = CharacterLabel(1, 1)


@pytest.fixture(scope="module")
def sets1():
    return zeros_for_modulus(1, 100.0)


@pytest.fixture(scope="module")
def sets3():
    return zeros_for_modulus(3, 100.0)


@pytest.fixture(scope="module")
def sets4():
    return zeros_for_modulus(4, 100.0)


@pytest.fixture(scope="module")
def sets5():
    return zeros_for_modulus(5, 100.0)


def brute_zero_sum(zs, x, z):
    total = 0j
    for t in zs.ordinates:
        if abs(t) <= z:
            rho = 0.5 + 1j * float(t)
            total += cmath.exp(rho * math.log(x)) / rho
    return total


class TestZeroSum:
    def test_matches_brute_force(self, sets1):
        zs = sets1[ZETA]
        got = zero_sum(100.5, zs, 60.0)
        want = brute_zero_sum(zs, 100.5, 60.0)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_empty_window(self, sets1):
        assert zero_sum(100.5, sets1[ZETA], 5.0) == 0j

    def test_uncertified_rejected(self, sets1):
        broken = replace(sets1[ZETA], certified=False)
        with pytest.raises(CertificationError):
            zero_sum(100.5, broken, 30.0)

    def test_insufficient_height_rejected(self, sets1):
        low = zeros_for_modulus(1, 30.0)[ZETA]
        with pytest.raises(CertificationError):
            zero_sum(100.5, low, 50.0)


class TestRamifiedMass:
    @pytest.mark.parametrize("q", [1, 4, 12, 30])
    def test_exact_against_fsum_oracle(self, q):
        # math.fsum of the float64 log p is the correctly rounded exact sum
        for x in (1.5, 1000.5, 2.0**20):
            want = math.fsum(math.log(p) for p in (2, 3, 5) if q % p == 0
                             for k in range(1, 64) if p**k <= x)
            assert ramified_mass(x, q) == want

    def test_prime_power_modulus(self):
        # prime powers of 2 up to 1000.5: 2, 4, ..., 512
        assert ramified_mass(1000.5, 4) == pytest.approx(9 * math.log(2), rel=1e-14)

    def test_two_primes(self):
        want = 9 * math.log(2) + 6 * math.log(3)
        assert ramified_mass(1000.5, 12) == pytest.approx(want, rel=1e-14)

    def test_trivial_modulus(self):
        assert ramified_mass(1000.5, 1) == 0.0

    def test_matches_sieve_split(self):
        x, q = 5000.5, 30
        coprime = sum(
            psi_progression(x, q, a) for a in range(1, q) if math.gcd(a, q) == 1
        )
        assert psi(x) - coprime == pytest.approx(ramified_mass(x, q), abs=1e-9)


class TestPsiFromZeros:
    def test_range_enforced(self, sets1):
        zs = sets1[ZETA]
        with pytest.raises(ValueError):
            psi_from_zeros(1000.5, 1.5, zs)
        with pytest.raises(ValueError):
            psi_from_zeros(50.5, 60.0, zs)

    def test_wrong_set_rejected(self, sets4):
        chi = character(4, 3)
        with pytest.raises(ValueError):
            psi_from_zeros(1000.5, 30.0, sets4[chi.label])

    def test_empty_window_returns_main_term(self, sets1):
        run = psi_from_zeros(1000.5, 14.0, sets1[ZETA])
        assert run.reconstructed == 1000.5
        assert run.term_count == 0
        assert run.abs_error == pytest.approx(abs(1000.5 - psi(1000.5)))
        assert run.imag_residue == 0.0

    def test_exact_side_is_sieve_value(self, sets1):
        run = psi_from_zeros(1000.5, 50.0, sets1[ZETA])
        assert run.exact == psi(1000.5)

    def test_real_by_construction(self, sets1):
        run = psi_from_zeros(1000.5, 100.0, sets1[ZETA])
        assert isinstance(run.reconstructed, float)
        assert run.imag_residue == 0.0

    def test_term_count_z30(self, sets1):
        # three positive ordinates below 30, mirrored
        run = psi_from_zeros(1000.5, 30.0, sets1[ZETA])
        assert run.term_count == 6

    def test_budget_shape(self, sets1):
        run = psi_from_zeros(1000.5, 50.0, sets1[ZETA])
        assert run.error_budget == pytest.approx(1000.5 * math.log(1000.5 * 50.0) ** 2 / 50.0)
        assert run.measured_constant == pytest.approx(run.abs_error / run.error_budget)

    def test_error_trend_majority(self, sets1):
        zs = sets1[ZETA]
        good = 0
        total = 0
        for x in (500.5, 1000.5, 5000.5):
            errs = [psi_from_zeros(x, z, zs).abs_error for z in (30.0, 50.0, 100.0)]
            for lo, hi in zip(errs[1:], errs):
                total += 1
                good += lo <= hi
        assert good / total >= 0.8

    def test_deeper_truncation_wins_at_x1000(self, sets1):
        zs = sets1[ZETA]
        shallow = psi_from_zeros(1000.5, 30.0, zs)
        deep = psi_from_zeros(1000.5, 100.0, zs)
        assert deep.abs_error < shallow.abs_error


class TestPsiChiFromZeros:
    def test_principal_rejected(self, sets4):
        chi0 = character(4, 1)
        with pytest.raises(ValueError):
            psi_chi_from_zeros(500.5, 30.0, chi0, sets4[chi0.label])

    def test_mismatched_set_rejected(self, sets1):
        chi = character(4, 3)
        with pytest.raises(ValueError):
            psi_chi_from_zeros(500.5, 30.0, chi, sets1[ZETA])

    def test_real_character_within_budget(self, sets4):
        chi = character(4, 3)
        run = psi_chi_from_zeros(500.5, 100.0, chi, sets4[chi.label])
        assert run.exact == psi_character(500.5, chi)
        assert run.measured_constant <= 1.0
        assert run.q == 4 and run.a == 0

    def test_complex_character_componentwise(self, sets5):
        chi = next(c for c in enumerate_characters(5) if not c.is_real)
        run = psi_chi_from_zeros(500.5, 100.0, chi, sets5[chi.label])
        assert abs(run.reconstructed.imag) > 0.1
        assert abs(run.reconstructed.real - run.exact.real) < run.error_budget
        assert abs(run.reconstructed.imag - run.exact.imag) < run.error_budget

    def test_conjugate_character_mirrors(self, sets5):
        chi = next(c for c in enumerate_characters(5) if not c.is_real)
        bar = chi.conjugate()
        a = psi_chi_from_zeros(500.5, 100.0, chi, sets5[chi.label])
        b = psi_chi_from_zeros(500.5, 100.0, bar, sets5[bar.label])
        # conjugate sets are scanned independently; agreement is only as
        # tight as the refinement, not exact
        assert abs(a.reconstructed - b.reconstructed.conjugate()) < 1e-6

    def test_empty_window_is_zero(self, sets4):
        chi = character(4, 3)
        run = psi_chi_from_zeros(500.5, 5.0, chi, sets4[chi.label])
        assert run.reconstructed == 0j
        assert run.abs_error == pytest.approx(abs(psi_character(500.5, chi)))

    def test_induced_character_accepts_inducer_set(self):
        sets8 = zeros_for_modulus(8, 30.0)
        chi = next(
            c for c in enumerate_characters(8) if not c.is_principal and c.conductor == 4
        )
        run = psi_chi_from_zeros(500.5, 30.0, chi, sets8[chi.label])
        # chi(2^k) = 0 for both the mod-8 character and its inducer, so the
        # exact sides coincide and the usual budget applies unchanged
        assert run.measured_constant <= 1.0


class TestPsiProgressionFromZeros:
    def test_validation(self, sets4):
        with pytest.raises(ValueError):
            psi_progression_from_zeros(1000.5, 30.0, 4, 2, sets4)
        with pytest.raises(ValueError):
            psi_progression_from_zeros(1000.5, 0.5, 4, 1, sets4)
        with pytest.raises(KeyError):
            psi_progression_from_zeros(1000.5, 30.0, 8, 1, sets4)

    @pytest.mark.parametrize("q, missing", [(1, ZETA), (4, CharacterLabel(4, 3))])
    def test_missing_set_message_matches_paircorr(self, sets1, sets4, q, missing):
        sets = {label: zs for label, zs in {**sets1, **sets4}.items() if label != missing}
        with pytest.raises(KeyError) as from_zeros:
            psi_progression_from_zeros(1000.5, 30.0, q, 1, sets)
        with pytest.raises(KeyError) as from_pairs:
            f_q(q, 1, 3.0, 30.0, sets)
        assert str(from_zeros.value) == str(from_pairs.value)
        assert f"no zero set supplied for character {missing}" in str(from_zeros.value)

    def test_q1_reduces_to_psi_from_zeros(self, sets1):
        direct = psi_from_zeros(1000.5, 50.0, sets1[ZETA])
        via = psi_progression_from_zeros(1000.5, 50.0, 1, 1, sets1)
        assert via == direct

    def test_exact_side_is_sieve_value(self, sets4):
        run = psi_progression_from_zeros(1000.5, 60.0, 4, 3, sets4)
        assert run.exact == psi_progression(1000.5, 4, 3)

    def test_deeper_truncation_wins(self, sets4):
        shallow = psi_progression_from_zeros(1000.5, 15.0, 4, 1, sets4)
        deep = psi_progression_from_zeros(1000.5, 60.0, 4, 1, sets4)
        assert deep.abs_error < shallow.abs_error

    def test_two_path_equality(self, sets5):
        x, z, q, a = 500.5, 100.0, 5, 2
        direct = psi_progression_from_zeros(x, z, q, a, sets5)
        total = 0j
        for chi in enumerate_characters(q):
            if chi.is_principal:
                part = x - ramified_mass(x, q) - zero_sum(x, sets5[chi.label], z)
            else:
                part = psi_chi_from_zeros(x, z, chi, sets5[chi.label]).reconstructed
            total += chi(a).conjugate() * part
        rearranged = (total / euler_phi(q)).real
        assert abs(direct.reconstructed - rearranged) < 1e-10

    def test_unit_sum_matches_full_count(self, sets1, sets3, sets4, sets5):
        x, z = 1000.5, 100.0
        full = psi_from_zeros(x, z, sets1[ZETA]).reconstructed
        for q, ss in ((3, sets3), (4, sets4), (5, sets5)):
            units = [a for a in range(1, q) if math.gcd(a, q) == 1]
            total = math.fsum(
                psi_progression_from_zeros(x, z, q, a, ss).reconstructed
                for a in units
            )
            assert abs(total - (full - ramified_mass(x, q))) <= 1e-8 * x

    def test_imag_residue_small(self, sets5):
        x = 1000.5
        for a in (1, 2, 3, 4):
            run = psi_progression_from_zeros(x, 100.0, 5, a, sets5)
            assert run.imag_residue <= 1e-10 * x

    def test_empty_window_returns_main_term(self, sets4):
        # 2 <= Z below the lowest mod-4 ordinate (6.02)
        run = psi_progression_from_zeros(1000.5, 5.0, 4, 1, sets4)
        want = (1000.5 - ramified_mass(1000.5, 4)) / euler_phi(4)
        assert run.reconstructed == pytest.approx(want, rel=1e-15)
        assert run.term_count == 0
