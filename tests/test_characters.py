import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from zeropair.characters import (
    UnitRoot,
    character,
    conductor_and_inducer,
    enumerate_characters,
    gauss_sum,
    orthogonality_matrix,
    require_unit,
    units,
)


def euler_phi(q: int) -> int:
    return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)


class TestLabels:
    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            enumerate_characters(0)
        with pytest.raises(ValueError):
            enumerate_characters(-3)

    def test_index_must_be_coprime_and_in_range(self):
        with pytest.raises(ValueError):
            character(12, 4)
        with pytest.raises(ValueError):
            character(12, 13)
        with pytest.raises(ValueError):
            character(12, 0)

    def test_index_one_is_principal(self):
        for q in (1, 2, 7, 12, 45):
            assert character(q, 1).is_principal


class TestEnumeration:
    @pytest.mark.parametrize("q", list(range(1, 201)))
    def test_count_is_euler_phi(self, q):
        assert len(enumerate_characters(q)) == euler_phi(q)

    def test_units_are_the_support(self):
        assert units(1) == [1]
        for q in range(2, 61):
            assert units(q) == [a for a in range(1, q + 1) if character(q, 1)(a) != 0]
            assert len(units(q)) == euler_phi(q)

    def test_require_unit(self):
        require_unit(1, 0)
        require_unit(12, -7)
        for q, a, message in ((0, 1, "q must be positive"), (-3, 1, "q must be positive"),
                              (12, 9, "a=9 must be coprime to q=12")):
            with pytest.raises(ValueError, match=message):
                require_unit(q, a)

    def test_principal_first(self):
        for q in (1, 2, 8, 30):
            chars = enumerate_characters(q)
            assert chars[0].is_principal
            assert len({c.index for c in chars}) == len(chars)

    def test_modulus_one(self):
        (chi,) = enumerate_characters(1)
        # the trivial character is 1 on every integer
        assert chi(0) == 1 and chi(17) == 1 and chi(-5) == 1
        assert chi.conductor == 1 and chi.is_primitive


class TestValues:
    def test_mod4_nonprincipal(self):
        chi = character(4, 3)
        assert chi(3) == -1
        assert chi.parity == 1
        assert chi.order == 2
        assert chi.is_primitive

    def test_mod3_quadratic(self):
        chi = character(3, 2)
        assert chi(2) == -1
        assert chi.parity == 1 and chi.conductor == 3

    def test_all_characters_mod_8_are_real(self):
        for chi in enumerate_characters(8):
            assert chi.is_real
            for n in range(1, 8, 2):
                assert chi(n) in (1, -1)

    def test_zero_off_units(self):
        chi = character(12, 5)
        for n in (0, 2, 3, 4, 6, 8, 9, 10, 21):
            if math.gcd(n, 12) != 1:
                assert chi(n) == 0
                assert chi.angle(n) is None

    def test_period(self):
        chi = character(9, 2)
        for n in range(1, 40):
            assert chi(n) == chi(n + 9) == chi(n + 36)

    @pytest.mark.parametrize("q", [3, 4, 5, 8, 9, 12, 24])
    def test_multiplicative_exact_small_grid(self, q):
        for chi in enumerate_characters(q):
            m_exp = chi._group.exponent
            nums = [chi.angle_numerator(n) for n in range(201)]
            for m in range(1, 201):
                am = nums[m]
                for n in range(m, 201):
                    an = nums[n]
                    amn = chi.angle_numerator(m * n)
                    if am is None or an is None:
                        assert amn is None
                    else:
                        assert amn == (am + an) % m_exp

    def test_multiplicative_exact_random_large(self):
        rng = random.Random(7)
        for q in (7, 16, 45):
            for chi in enumerate_characters(q):
                for _ in range(50):
                    m = rng.randrange(1, 1001)
                    n = rng.randrange(1, 1001)
                    am, an, amn = chi.angle(m), chi.angle(n), chi.angle(m * n)
                    if am is None or an is None:
                        assert amn is None
                    else:
                        assert amn == (am + an) % 1

    def test_conjugate_inverts_values(self):
        for q in (5, 7, 12, 16):
            for chi in enumerate_characters(q):
                bar = chi.conjugate()
                for n in range(1, q + 1):
                    a, b = chi.angle(n), bar.angle(n)
                    if a is None:
                        assert b is None
                    else:
                        assert (a + b) % 1 == 0

    def test_parity_matches_value_at_minus_one(self):
        for q in (3, 4, 5, 8, 15, 16, 21):
            for chi in enumerate_characters(q):
                assert chi(q - 1) == (1 if chi.parity == 0 else -1)

    def test_order_is_exact(self):
        for q in (5, 7, 9, 16):
            for chi in enumerate_characters(q):
                for k in range(1, chi.order + 1):
                    # chi^k principal iff the order divides k
                    is_triv = all(
                        (chi.angle(n) * k) % 1 == 0
                        for n in range(1, q + 1)
                        if math.gcd(n, q) == 1
                    )
                    assert is_triv == (k == chi.order)


class TestUnitRoot:
    def test_reduction(self):
        r = UnitRoot.of(10, 12)
        assert (r.numerator, r.denominator) == (5, 6)
        assert UnitRoot.of(-1, 4).angle == Fraction(3, 4)

    def test_quarter_turn_values_are_exact(self):
        assert UnitRoot.of(1, 4).value == 1j
        assert UnitRoot.of(2, 4).value == -1
        assert UnitRoot.of(0, 5).value == 1

    def test_value_matches_angle(self):
        for k in range(7):
            r = UnitRoot.of(k, 7)
            assert abs(r.value - cmath.exp(2j * math.pi * k / 7)) < 1e-15


class TestConductor:
    def test_principal_conductor_one(self):
        for q in (1, 2, 4, 12, 36):
            qstar, psi = conductor_and_inducer(character(q, 1))
            assert qstar == 1 and psi.modulus == 1

    def test_primitive_fixed_point(self):
        for q, idx in [(3, 2), (4, 3), (5, 2), (7, 3), (12, 11)]:
            chi = character(q, idx)
            assert chi.is_primitive
            qstar, psi = conductor_and_inducer(chi)
            assert qstar == q and psi is chi

    def test_mod8_from_mod4(self):
        # the character mod 8 agreeing with the odd one mod 4 has conductor 4
        chi = character(8, 7)
        assert chi.conductor == 4
        qstar, psi = conductor_and_inducer(chi)
        assert (qstar, psi.modulus, psi.index) == (4, 4, 3)
        for n in range(1, 16, 2):
            assert chi(n) == psi(n)

    def test_mod12_examples(self):
        assert character(12, 5).conductor == 3
        assert character(12, 7).conductor == 4
        assert character(12, 11).conductor == 12

    def test_inducer_matches_on_all_units(self):
        for q in range(1, 51):
            for chi in enumerate_characters(q):
                qstar, psi = conductor_and_inducer(chi)
                assert psi.is_primitive and psi.conductor == qstar
                assert qstar == chi.conductor and q % qstar == 0
                for n in range(1, q + 1):
                    if math.gcd(n, q) == 1:
                        assert chi.angle(n) == psi.angle(n)

    def test_conductor_divides_and_idempotent(self):
        for q in (24, 36, 45):
            for chi in enumerate_characters(q):
                qstar, psi = conductor_and_inducer(chi)
                assert conductor_and_inducer(psi) == (qstar, psi)


class TestGaussSums:
    def test_mod4(self):
        tau = gauss_sum(character(4, 3))
        assert abs(tau - 2j) < 1e-12

    def test_mod1(self):
        assert gauss_sum(character(1, 1)) == 1

    def test_mod3(self):
        tau = gauss_sum(character(3, 2))
        assert abs(tau - 1j * math.sqrt(3)) < 1e-12

    def test_primitive_modulus_up_to_50(self):
        for q in range(1, 51):
            for chi in enumerate_characters(q):
                if chi.is_primitive:
                    assert abs(abs(gauss_sum(chi)) - math.sqrt(q)) < 1e-10

    def test_conjugate_relation(self):
        # tau(conj chi) = chi(-1) * conj(tau(chi)) for primitive chi
        for q, idx in [(5, 2), (7, 3), (13, 2), (16, 3)]:
            chi = character(q, idx)
            assert chi.is_primitive
            lhs = gauss_sum(chi.conjugate())
            rhs = chi(q - 1) * gauss_sum(chi).conjugate()
            assert abs(lhs - rhs) < 1e-10


class TestOrthogonality:
    @pytest.mark.parametrize("q", list(range(1, 31)))
    def test_exact_identity_matrix(self, q):
        units, M = orthogonality_matrix(q)
        phi = len(units)
        assert M.dtype == np.int64
        assert np.array_equal(M, phi * np.eye(phi, dtype=np.int64))

    def test_q12_matches_brute_force(self):
        units, M = orthogonality_matrix(12)
        chars = enumerate_characters(12)
        for i, a in enumerate(units):
            for j, b in enumerate(units):
                brute = sum(chi(a).conjugate() * chi(b) for chi in chars)
                assert abs(brute - M[i, j]) < 1e-9

    def test_q1(self):
        units, M = orthogonality_matrix(1)
        assert units == [0]
        assert M.shape == (1, 1) and M[0, 0] == 1
