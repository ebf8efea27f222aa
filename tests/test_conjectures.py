import math

import pytest

from zeropair.characters import euler_phi, units
from zeropair.cli import _REPORT_GRIDS
from zeropair.conjectures import (
    dyadic_profile,
    eh_sum,
    eh_sums,
    montgomery_table,
    weak_form_table,
)
from zeropair.sieve import psi, psi_progression, table_for


def brute_lambda(n):
    for p in range(2, n + 1):
        if n % p == 0:
            m = n
            while m % p == 0:
                m //= p
            return math.log(p) if m == 1 else 0.0
    return 0.0


class TestMontgomeryTable:
    def test_q1_column_is_full_count_error(self):
        row = montgomery_table([1000.0], [1])[0]
        assert row.error == psi(1000.0) - 1000.0
        assert row.normalized == row.error / math.sqrt(1000.0)
        assert row.a == 1

    def test_enumerates_all_units(self):
        rows = montgomery_table([1000.0], [12])
        assert [r.a for r in rows] == [1, 5, 7, 11]

    def test_fixed_class(self):
        rows = montgomery_table([1000.0], [5, 7], a=3)
        assert [(r.q, r.a) for r in rows] == [(5, 3), (7, 3)]
        with pytest.raises(ValueError):
            montgomery_table([1000.0], [9], a=3)

    def test_error_column_matches_sieve(self):
        row = montgomery_table([2000.0], [7], a=2)[0]
        want = psi_progression(2000.0, 7, 2) - 2000.0 / 6
        assert row.error == pytest.approx(want, abs=1e-12)

    def test_implied_epsilon_clamped(self):
        rows = montgomery_table([1000.0, 50000.0], [3, 4, 25])
        for r in rows:
            if abs(r.normalized) <= 1.0:
                assert r.implied_epsilon == 0.0
            else:
                assert r.implied_epsilon == pytest.approx(
                    math.log(abs(r.normalized)) / math.log(r.x)
                )
                assert r.implied_epsilon > 0.0

    def test_normalizer_invariant_under_joint_scaling(self):
        base = montgomery_table([1000.0], [4], a=1)[0]
        scaled = montgomery_table([4000.0], [16], a=1)[0]
        assert base.normalizer == scaled.normalizer

    def test_grh_ratio_shape(self):
        row = montgomery_table([5000.0], [7], a=1)[0]
        env = math.sqrt(5000.0) * math.log(5000.0) ** 2
        assert row.grh_ratio == pytest.approx(abs(row.error) / env)
        assert row.grh_ratio < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            montgomery_table([1.0], [3])
        with pytest.raises(ValueError):
            montgomery_table([100.0], [0])


class TestEhSum:
    def test_single_modulus(self):
        assert eh_sum(50000.0, 1) == abs(psi(50000.0) - 50000.0)

    def test_monotone_in_q(self):
        vals = [eh_sum(5000.0, Q) for Q in range(1, 25)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_brute_force_oracle(self):
        x, Q = 2000.0, 12
        lam = [0.0] + [brute_lambda(n) for n in range(1, 2001)]
        total = 0.0
        for q in range(1, Q + 1):
            phi = euler_phi(q)
            best = 0.0
            for a in range(1, q + 1):
                if math.gcd(a, q) == 1:
                    s = sum(lam[n] for n in range(1, 2001) if n % q == a % q)
                    best = max(best, abs(s - x / phi))
            total += best
        got = eh_sum(x, Q)
        assert got == pytest.approx(total, rel=1e-10)

    def test_scale_sanity(self):
        val = eh_sum(100000.0, 46)
        assert 0.0 < val < 100000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            eh_sum(1000.0, 0)
        with pytest.raises(ValueError):
            eh_sum(100.0, 100)


class TestWeakFormTable:
    def test_alpha_zero_matches_montgomery(self):
        weak = weak_form_table(1000.0, [7, 12], 0.0)
        mont = montgomery_table([1000.0], [7, 12])
        assert [(w.q, w.a, w.normalized) for w in weak] == [
            (m.q, m.a, m.normalized) for m in mont
        ]

    def test_alpha_one_normalizer(self):
        row = weak_form_table(1000.0, [7], 1.0, a=1)[0]
        assert row.normalizer == pytest.approx(math.sqrt(1000.0 * 6 / 7))

    def test_half_alpha_sweep(self):
        qs = [3, 4, 5, 8]
        rows = weak_form_table(10000.0, qs, 0.5)
        assert len(rows) == sum(euler_phi(q) for q in qs)
        for r in rows:
            assert r.normalizer == pytest.approx(
                math.sqrt(10000.0 * euler_phi(r.q) ** 0.5 / r.q)
            )

    def test_alpha_range_enforced(self):
        for alpha in (-0.1, 1.1):
            with pytest.raises(ValueError):
                weak_form_table(1000.0, [3], alpha)

    def test_non_unit_class_rejected(self):
        with pytest.raises(ValueError):
            weak_form_table(1000.0, [9], 0.5, a=3)


class TestDyadicProfile:
    def test_depth_power_of_two_example(self):
        prof = dyadic_profile(float(2**20), 8, 1, 0.1)
        assert prof.depth == 16
        assert len(prof.block_errors) == 16

    def test_depth_boundary_case(self):
        # (2^10 / 2^8)^(1/2) = 2 meets q = 2 with equality
        prof = dyadic_profile(float(2**10), 2, 1, 0.5)
        assert prof.depth == 8

    def test_telescoping_identity(self):
        for x, q, a in ((1000.0, 3, 2), (50000.0, 12, 7), (2.0**20, 101, 3), (5000.0, 1, 1)):
            prof = dyadic_profile(x, q, a)
            assert abs(prof.telescoped - prof.total_error) <= 1e-8 * math.sqrt(x)

    def test_total_error_is_sieve_error(self):
        prof = dyadic_profile(10000.0, 7, 2)
        want = psi_progression(10000.0, 7, 2) - 10000.0 / 6
        assert prof.total_error == pytest.approx(want, abs=1e-12)

    def test_block_and_tail_shapes(self):
        x, q, a = 20000.0, 5, 3
        prof = dyadic_profile(x, q, a)
        phi = euler_phi(q)
        j = 2
        want = (
            psi_progression(x / 2**j, q, a)
            - psi_progression(x / 2 ** (j + 1), q, a)
            - x / (2 ** (j + 1) * phi)
        )
        assert prof.block_errors[j] == pytest.approx(want, abs=1e-12)
        assert prof.block_normalized[j] == pytest.approx(
            prof.block_errors[j] / math.sqrt(x / (2**j * q))
        )
        tail_want = psi_progression(x / 2**prof.depth, q, a) - prof.tail_main_term
        assert prof.tail_error == pytest.approx(tail_want, abs=1e-12)

    def test_modulus_range_enforced(self):
        with pytest.raises(ValueError):
            dyadic_profile(100.0, 11, 1, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            dyadic_profile(1000.0, 4, 2)
        with pytest.raises(ValueError):
            dyadic_profile(1000.0, 3, 1, 0.0)
        with pytest.raises(ValueError):
            dyadic_profile(1000.0, 3, 1, 1.0)


def _fsum_class_sum(x, q, a, table):
    """psi(x; q, a) by the mask-and-fsum formula the tables used to render."""
    cut = table.cut(x)
    return math.fsum(table.logp[:cut][table.n[:cut] % q == a % q])


def _class_errors(x, q, table):
    main = x / euler_phi(q)
    return {a: _fsum_class_sum(x, q, a, table) - main for a in units(q)}


class TestReportTablesByteIdentical:
    """The conjecture tables on the report's grids equal the fsum formula exactly."""

    @pytest.fixture(scope="class")
    def report_table(self):
        return table_for(2**20)

    def test_montgomery(self, report_table):
        rows = montgomery_table(_REPORT_GRIDS["x_ladder"], _REPORT_GRIDS["montgomery_qs"])
        want = {(x, q): _class_errors(x, q, report_table)
                for x in _REPORT_GRIDS["x_ladder"] for q in _REPORT_GRIDS["montgomery_qs"]}
        assert [r.error for r in rows] == [want[r.x, r.q][r.a] for r in rows]

    def test_eh(self, report_table):
        for x in _REPORT_GRIDS["x_ladder"]:
            worst = [max(abs(e) for e in _class_errors(x, q, report_table).values())
                     for q in range(1, max(_REPORT_GRIDS["eh_Qs"]) + 1)]
            want = [math.fsum(worst[:Q]) for Q in _REPORT_GRIDS["eh_Qs"]]
            assert eh_sums(x, _REPORT_GRIDS["eh_Qs"]) == want
            for Q, value in zip(_REPORT_GRIDS["eh_Qs"], want):
                assert eh_sum(x, Q) == value

    def test_weak(self, report_table):
        x = 1_000_000.0
        want = {q: _class_errors(x, q, report_table) for q in _REPORT_GRIDS["weak_qs"]}
        for alpha in _REPORT_GRIDS["weak_alphas"]:
            for r in weak_form_table(x, _REPORT_GRIDS["weak_qs"], alpha, 1):
                assert r.error == want[r.q][r.a]

    @pytest.mark.parametrize("x, q", [(float(2**20), 8), (1_000_000.0, 101)])
    def test_dyadic(self, report_table, x, q):
        prof = dyadic_profile(x, q, 1, 0.1)
        phi = euler_phi(q)
        counts = [_fsum_class_sum(x / 2**j, q, 1, report_table) for j in range(prof.depth + 1)]
        blocks = tuple(counts[j] - counts[j + 1] - x / (2 ** (j + 1) * phi)
                       for j in range(prof.depth))
        assert prof.block_errors == blocks
        assert prof.tail_error == counts[-1] - x / (2**prof.depth * phi)
        assert prof.total_error == counts[0] - x / phi
