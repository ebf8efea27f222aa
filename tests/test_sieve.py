import math
from fractions import Fraction

import numpy as np
import pytest

from zeropair.characters import MAX_MODULUS, character, enumerate_characters, euler_phi
from zeropair.paircorr import r1
from zeropair import sieve
from zeropair.sieve import (
    MAX_X,
    BrunTitchmarshResult,
    LambdaTable,
    brun_titchmarsh_check,
    logp_sums,
    pi_count,
    pi_progression,
    primes_in_window,
    primes_up_to,
    psi,
    psi_character,
    psi_progression,
    s_of_x,
    table_for,
)


def brute_tag(n: int) -> tuple[int, int] | None:
    for p in range(2, n + 1):
        if n % p == 0:
            m, k = n, 0
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
    return None


@pytest.fixture(scope="module")
def table_1e5() -> LambdaTable:
    return LambdaTable.build(10**5)


class TestTable:
    def test_tags_2_to_100(self):
        t = LambdaTable.build(100)
        # brute-force factorization over [2, 100]: 25 primes, 10 higher powers
        brute = {n: brute_tag(n) for n in range(2, 101) if brute_tag(n)}
        assert t.n.size == len(brute) == 35
        for n, p, k in zip(t.n, t.p, t.k):
            assert brute[int(n)] == (int(p), int(k))
        assert int(np.count_nonzero(t.k == 1)) == 25
        higher = sorted(int(n) for n, k in zip(t.n, t.k) if k > 1)
        assert higher == [4, 8, 9, 16, 25, 27, 32, 49, 64, 81]

    def test_lambda_values(self):
        t = LambdaTable.build(100)
        i = int(np.searchsorted(t.n, 8))
        assert t.logp[i] == math.log(2)
        assert (t.p[i], t.k[i]) == (2, 3)
        assert 12 not in t.n
        assert t.logp[np.searchsorted(t.n, 97)] == math.log(97)

    def test_sorted_strictly(self, table_1e5):
        assert np.all(np.diff(table_1e5.n) > 0)

    def test_matches_trial_division(self, table_1e5):
        t = table_1e5
        cut = t.cut(3000)
        got = {int(n): (int(p), int(k)) for n, p, k in zip(t.n[:cut], t.p[:cut], t.k[:cut])}
        want = {n: brute_tag(n) for n in range(2, 3001) if brute_tag(n)}
        assert got == want

    def test_narrow_tags(self, table_1e5):
        # 4 + 4 + 1 bytes of tags, the float64 weight and its two limbs
        t = table_1e5
        assert (t.n.dtype, t.p.dtype, t.k.dtype) == (np.int32, np.int32, np.int8)
        held = t.n.nbytes + t.p.nbytes + t.k.nbytes + t.logp.nbytes + t._limbs.nbytes
        assert held == 33 * t.n.size

    def test_int32_residues_are_exact(self, table_1e5):
        wide = table_1e5.n.astype(np.int64)
        for q in (1, 7, 65_536, 99_991, MAX_MODULUS):
            assert np.array_equal(table_1e5.n % q, wide % q)
        top = np.array([MAX_X], dtype=np.int32)  # the largest n a table holds
        assert int((top % MAX_MODULUS)[0]) == MAX_X % MAX_MODULUS

    def test_build_beyond_max_x_rejected(self):
        with pytest.raises(ValueError, match="MAX_X"):
            LambdaTable.build(MAX_X + 1)
        with pytest.raises(ValueError):
            LambdaTable.build(1)

    def test_cut_below_the_table(self, table_1e5):
        # a negative x still cuts before every tag, beyond the int32 range too
        for x in (1.5, -5.0, -3e9):
            assert table_1e5.cut(x) == 0
            assert psi(x) == 0.0

    def test_cut_beyond_limit_rejected(self, table_1e5):
        with pytest.raises(ValueError):
            table_1e5.cut(10**5 + 1)

    def test_table_for_sizes_and_checks(self, monkeypatch):
        monkeypatch.setattr(sieve, "_table", None)
        first = table_for(3.5)
        assert first.limit == 2**17
        assert table_for(2.0**17) is first
        grown = table_for(2.0**17 + 0.5)
        assert grown.limit == 2**18
        # the table only grows: a smaller x keeps the larger table
        assert table_for(3.5) is grown
        assert table_for(150_000.5) is grown
        with pytest.raises(ValueError, match="MAX_X"):
            table_for(MAX_X + 1)

    def test_beyond_max_x_builds_nothing(self, monkeypatch):
        monkeypatch.setattr(sieve, "_table", None)
        monkeypatch.setattr(LambdaTable, "build", staticmethod(lambda limit: pytest.fail("built")))
        for x in (MAX_X + 0.5, 1e10, math.nan):
            with pytest.raises(ValueError, match="MAX_X"):
                psi(x)

    def test_max_x_fits_the_exact_sum_budget(self):
        # no table is built: Dusart's pi(x) < x/ln x (1 + 1.2762/ln x) for the
        # primes, at most sqrt(x) log2(x) higher powers, against the tag budget
        lx = math.log(MAX_X)
        tags = MAX_X / lx * (1 + 1.2762 / lx) + math.sqrt(MAX_X) * math.log2(MAX_X)
        assert tags < sieve._EXACT_TAGS
        # and the next power of two already has pi(2x) >= 2x/ln 2x primes beyond it
        assert 2 * MAX_X / math.log(2 * MAX_X) >= sieve._EXACT_TAGS

    def test_windowed_equals_direct(self):
        direct = primes_up_to(5000)
        lo, hi = 1000, 5000
        window = primes_in_window(lo, hi)
        assert np.array_equal(window, direct[(direct >= lo) & (direct <= hi)])
        assert np.array_equal(primes_in_window(2, 30), primes_up_to(30))


# empty table, a small cut, a prime power (3^12, included by the cut), and two large cuts
EXACT_XS = (1.5, 1000.5, 3.0**12, 1e6, 2.0**21)


@pytest.fixture(scope="module")
def exact_tags():
    """A table reaching 2^21, with each tag's logp up to 2^21 as an exact Fraction."""
    t = table_for(2**21)
    cut = t.cut(2**21)
    return t, t.n[:cut].tolist(), [Fraction(v) for v in t.logp[:cut].tolist()]


class TestExactSums:
    @pytest.mark.parametrize("q", [1, 7, 12, 101, 997])
    def test_every_class_matches_fraction_oracle(self, exact_tags, q):
        # the oracle adds each cut's new tags to exact per-class totals, so
        # at every x it holds the sum of the masked slice n % q == r
        t, ns, fracs = exact_tags
        totals = [Fraction(0)] * q
        done = 0
        for x in EXACT_XS:
            cut = t.cut(x)
            for n, f in zip(ns[done:cut], fracs[done:cut]):
                totals[n % q] += f
            done = cut
            assert logp_sums(x, q) == [float(s) for s in totals]

    def test_empty_classes_are_zero(self):
        assert logp_sums(1.5, 7) == [0.0] * 7
        sums = logp_sums(2.0**21, 12)
        # no prime power is 0, 6 or 10 mod 12
        assert [sums[r] for r in (0, 6, 10)] == [0.0, 0.0, 0.0]
        assert sums[2] == math.log(2)

    def test_group_map_sums_whole_classes(self, table_1e5):
        # classes 1, 4 -> group 0; 2, 3 -> group 1; 0 -> group 2; each group
        # is rounded once, so it equals fsum over its tags, not over its classes
        t = table_1e5
        residues = t.n % 5
        want = [math.fsum(t.logp[np.isin(residues, classes)]) for classes in ((1, 4), (2, 3), (0,))]
        assert logp_sums(10**5, 5, np.array([2, 0, 1, 1, 0])) == want

    @pytest.mark.parametrize("bad", [200.0, 0.25, math.nan])
    def test_logp_outside_limb_budget_raises(self, bad, monkeypatch):
        n = np.array([2, 3, 4], dtype=np.int64)
        logp = np.array([math.log(2), bad, math.log(2)])
        t = LambdaTable(4, n, np.array([2, 3, 2]), np.array([1, 1, 2]), logp)
        with pytest.raises(ValueError, match="exact sums"):
            t._limbs
        # the shared table covers x = 4, so psi sums over t
        monkeypatch.setattr(sieve, "_table", t)
        with pytest.raises(ValueError):
            psi(4)

    def test_table_beyond_tag_budget_raises(self, monkeypatch):
        monkeypatch.setattr(sieve, "_EXACT_TAGS", 25)
        with pytest.raises(ValueError, match="exceed the exact-sum budget"):
            LambdaTable.build(60)._limbs  # 17 primes and 8 higher powers
        t = LambdaTable.build(58)  # one tag fewer
        monkeypatch.setattr(sieve, "_table", t)
        assert psi(58) == math.fsum(t.logp)


class TestPsi:
    def test_psi_100_exact_tag_sum(self):
        ref = math.fsum(math.log(p) for n in range(2, 101) if (tag := brute_tag(n)) for p in [tag[0]])
        assert psi(100) == ref

    def test_psi_at_non_integer(self):
        assert psi(1000.5) == psi(1000)

    def test_progression_partition(self, table_1e5):
        # classes mod q partition the coprime tags exactly
        t = table_1e5
        x = 10**5
        total = psi(x)
        for q in (3, 4, 5, 12):
            parts = [psi_progression(x, q, a) for a in range(1, q + 1) if math.gcd(a, q) == 1]
            ramified = math.fsum(
                lp for n, lp in zip(t.n, t.logp) if math.gcd(int(n) % q, q) != 1
            )
            assert abs(math.fsum(parts) + ramified - total) <= 1e-9

    def test_progression_mask_is_exact_on_tags(self, table_1e5):
        t = table_1e5
        q = 12
        cut = t.cut(10**4)
        seen = set()
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            mask = t.n[:cut] % q == a
            seen.update(int(n) for n in t.n[:cut][mask])
        coprime = {int(n) for n in t.n[:cut] if math.gcd(int(n), q) == 1}
        assert seen == coprime

    def test_character_sum_small_example(self):
        chi = character(4, 3)
        got = psi_character(10, chi)
        assert got == math.log(5) - math.log(7)

    def test_character_sum_matches_brute(self, table_1e5):
        t = table_1e5
        x = 10**4
        for q, idx in [(3, 2), (5, 2), (8, 3), (12, 11)]:
            chi = character(q, idx)
            cut = t.cut(x)
            brute = sum(
                chi(int(n)) * lp for n, lp in zip(t.n[:cut], t.logp[:cut])
            )
            got = psi_character(x, chi)
            assert abs(got - brute) <= 1e-9

    def test_principal_character_drops_ramified(self, table_1e5):
        t = table_1e5
        x = 50000
        chi = character(6, 1)
        got = psi_character(x, chi)
        assert abs(got.imag) == 0.0
        direct = math.fsum(
            lp for n, lp in zip(t.n[: t.cut(x)], t.logp[: t.cut(x)]) if int(n) % 6 in (1, 5)
        )
        assert abs(got.real - direct) <= 1e-9

    def test_orthogonality_reconstruction(self):
        # (1/phi) sum_chi conj(chi(a)) psi(x, chi) = psi(x; q, a) to 1e-8
        for q in (3, 4, 5, 12):
            chars = enumerate_characters(q)
            phi = len(chars)
            per_char = {c.label: psi_character(10**5, c) for c in chars}
            for a in range(1, q + 1):
                if math.gcd(a, q) != 1:
                    continue
                combo = sum(c(a).conjugate() * per_char[c.label] for c in chars) / phi
                direct = psi_progression(10**5, q, a)
                assert abs(combo.real - direct) <= 1e-8
                assert abs(combo.imag) <= 1e-8

    def test_invalid_progression_rejected(self):
        with pytest.raises(ValueError):
            psi_progression(100, 4, 2)


class TestCounting:
    def test_pi_100_by_class_mod_4(self):
        assert pi_count(100) == 25
        assert pi_progression(100, 4, 1) == 11
        assert pi_progression(100, 4, 3) == 13

    def test_pi_10000(self):
        assert pi_count(10**4) == 1229


class TestSOfX:
    def test_value_and_ratio_at_1e4(self):
        r = s_of_x(10**4, 1, 1)
        assert 0.7 <= r.value * euler_phi(1) / math.log(10**4) <= 1.3
        assert r.head > 0 and r.tail > 0
        assert r.cutoff >= 8 * 10**4

    def test_head_matches_brute(self):
        x = 500
        r = s_of_x(x, 3, 1)
        brute = math.fsum(
            n * math.log(tag[0]) ** 2
            for n in range(2, x + 1)
            if (tag := brute_tag(n)) and n % 3 == 1
        ) / x**2
        assert abs(r.head - brute) <= 1e-12

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            s_of_x(1000, 1, 1, cutoff=4000)

    def test_larger_cutoff_shrinks_certified_remainder(self):
        a = s_of_x(1000, 4, 1, cutoff=8000)
        b = s_of_x(1000, 4, 1, cutoff=32000)
        assert b.remainder_bound < a.remainder_bound
        # and the reported values agree within the larger certified remainder
        assert abs(a.value - b.value) <= a.remainder_bound

    def test_coprimality_enforced(self):
        with pytest.raises(ValueError):
            s_of_x(1000, 4, 2)


class TestBrunTitchmarsh:
    def test_simple_window(self):
        r = brun_titchmarsh_check(1000, 40, 4, 1)
        assert isinstance(r, BrunTitchmarshResult)
        assert r.count == int(
            np.count_nonzero(primes_in_window(1001, 1040) % 4 == 1)
        )
        assert r.holds

    def test_y_must_exceed_q(self):
        with pytest.raises(ValueError):
            brun_titchmarsh_check(0, 4, 4, 1)
        with pytest.raises(ValueError):
            brun_titchmarsh_check(100, 3, 4, 1)

    def test_full_grid_holds(self):
        for q in range(1, 51):
            for ratio in (2, 10, 100):
                y = q * ratio
                for x in (0, 10**3, 10**6):
                    for a in range(1, min(q, 8) + 1):
                        if math.gcd(a, q) != 1:
                            continue
                        assert brun_titchmarsh_check(x, y, q, a).holds

    def test_bound_formula(self):
        r = brun_titchmarsh_check(0, 30, 3, 2)
        assert abs(r.bound - 2 * 30 / (2 * math.log(10))) <= 1e-12


class TestModulusValidation:
    """Progression entry points reject q < 1 instead of dividing by it."""

    CALLS = {
        "pi_progression": lambda q: pi_progression(100, q, 1),
        "s_of_x": lambda q: s_of_x(10.0, q, 1),
        "brun_titchmarsh_check": lambda q: brun_titchmarsh_check(100.0, 50.0, q, 1),
        "r1": lambda q: r1(10.0, 0.5, q, 1),
    }

    @pytest.mark.parametrize("q", [0, -3])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_nonpositive_modulus_raises(self, name, q):
        with pytest.raises(ValueError, match="q must be positive"):
            self.CALLS[name](q)
