import cmath
import math
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from zeropair import paircorr
from zeropair.characters import CharacterLabel, character, enumerate_characters
from zeropair.lfunc import mesh_exp_sums
from zeropair.paircorr import (
    CertificationError,
    f_q,
    f_q_via_integral,
    f_zeta_ratio,
    g_pair,
    gue_density,
    increment_identity_check,
    mean_value_check,
    r1,
    r1_mean_square,
    sigma_sum,
    spacing_histogram,
    weight,
)
from zeropair.sieve import MAX_X
from zeropair.zeros import character_family, zeros_for_modulus


@pytest.fixture(scope="module")
def sets1():
    return zeros_for_modulus(1, 30.0)


@pytest.fixture(scope="module")
def sets1_1000():
    return zeros_for_modulus(1, 1000.0)


@pytest.fixture(scope="module")
def sets4_1000():
    return zeros_for_modulus(4, 1000.0)


@pytest.fixture(scope="module")
def sets1_100():
    return zeros_for_modulus(1, 100.0)


@pytest.fixture(scope="module")
def sets3():
    return zeros_for_modulus(3, 30.0)


@pytest.fixture(scope="module")
def sets8():
    return zeros_for_modulus(8, 30.0)


@pytest.fixture(scope="module")
def sets12():
    return zeros_for_modulus(12, 30.0)


@pytest.fixture(scope="module")
def sets4():
    return zeros_for_modulus(4, 30.0)


@pytest.fixture(scope="module")
def sets5():
    return zeros_for_modulus(5, 20.0)


def window_ordinates(zs, T, window="both"):
    out = []
    for t in map(float, zs.ordinates):
        if window == "both" and abs(t) <= T:
            out.append(t)
        if window == "positive" and 0 < t <= T:
            out.append(t)
    return out


def brute_g(ords1, ords2, x):
    total = 0j
    for g1 in ords1:
        for g2 in ords2:
            d = g1 - g2
            total += cmath.exp(1j * math.log(x) * d) * 4.0 / (4.0 + d * d)
    return total


def brute_f_q(q, a, x, T, zero_sets, window="both"):
    total = 0j
    for chi1 in enumerate_characters(q):
        o1 = window_ordinates(zero_sets[chi1.label], T, window)
        for chi2 in enumerate_characters(q):
            o2 = window_ordinates(zero_sets[chi2.label], T, window)
            total += chi1(a).conjugate() * chi2(a) * brute_g(o1, o2, x)
    return total


class TestWeight:
    def test_reference_points(self):
        assert weight(0.0) == 1.0
        assert weight(2.0) == 0.5
        assert weight(-2.0) == 0.5

    def test_even_and_decaying(self):
        for u in (0.3, 1.7, 9.0):
            assert weight(u) == weight(-u)
            assert 0.0 < weight(u + 1.0) < weight(u) <= 1.0


class TestGPair:
    def test_x_one_diagonal_lower_bound(self, sets1):
        chi = character(1, 1)
        res = g_pair(chi, chi, 1.0, 30.0, sets1)
        count = len(window_ordinates(sets1[chi.label], 30.0))
        assert res.term_count == count * count
        assert abs(res.value.imag) < 1e-12
        assert res.value.real >= count  # diagonal contributes weight 1 each

    def test_swap_conjugation(self, sets5):
        chi1, chi2 = character(5, 2), character(5, 3)
        a = g_pair(chi1, chi2, 3.0, 20.0, sets5).value
        b = g_pair(chi2, chi1, 3.0, 20.0, sets5).value
        assert abs(a - b.conjugate()) < 1e-12

    def test_brute_force_zeta(self, sets1):
        chi = character(1, 1)
        got = g_pair(chi, chi, 2.0, 30.0, sets1).value
        want = brute_g(
            window_ordinates(sets1[chi.label], 30.0),
            window_ordinates(sets1[chi.label], 30.0),
            2.0,
        )
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_brute_force_cross_characters(self, sets4):
        chi1, chi2 = character(4, 1), character(4, 3)
        got = g_pair(chi1, chi2, 3.0, 20.0, sets4).value
        want = brute_g(
            window_ordinates(sets4[chi1.label], 20.0),
            window_ordinates(sets4[chi2.label], 20.0),
            3.0,
        )
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_positive_window(self, sets4):
        chi = character(4, 3)
        res = g_pair(chi, chi, 2.0, 15.0, sets4, window="positive")
        n_pos = len(window_ordinates(sets4[chi.label], 15.0, "positive"))
        assert res.term_count == n_pos * n_pos

    def test_empty_window(self, sets4):
        chi = character(4, 3)
        res = g_pair(chi, chi, 2.0, 3.0, sets4)  # first ordinate is 6.02
        assert res.value == 0 and res.term_count == 0

    def test_uncertified_rejected(self, sets4):
        chi = character(4, 3)
        bad = dict(sets4)
        bad[chi.label] = replace(sets4[chi.label], certified=False)
        with pytest.raises(CertificationError):
            g_pair(chi, chi, 2.0, 15.0, bad)

    def test_insufficient_height_rejected(self, sets4):
        chi = character(4, 3)
        with pytest.raises(CertificationError):
            g_pair(chi, chi, 2.0, 60.0, sets4)

    def test_bad_window_name(self, sets4):
        chi = character(4, 3)
        with pytest.raises(ValueError):
            g_pair(chi, chi, 2.0, 15.0, sets4, window="upper")


class TestFq:
    def test_input_validation(self, sets4):
        with pytest.raises(ValueError):
            f_q(4, 2, 3.0, 15.0, sets4)  # a not a unit
        with pytest.raises(ValueError, match="x must be at least 2"):
            f_q(4, 1, 1.5, 15.0, sets4)
        with pytest.raises(ValueError, match="T must be positive"):
            f_q(4, 1, 3.0, 0.0, sets4)
        with pytest.raises(CertificationError):
            f_q(4, 1, 3.0, 60.0, sets4)  # sets reach only 30

    def test_missing_character_set(self, sets4):
        partial = {k: v for k, v in sets4.items() if k != CharacterLabel(4, 3)}
        with pytest.raises(KeyError):
            f_q(4, 1, 3.0, 15.0, partial)

    def test_modulus_one_reduces_to_single_pair(self, sets1):
        chi = character(1, 1)
        res = f_q(1, 1, 2.0, 30.0, sets1)
        single = g_pair(chi, chi, 2.0, 30.0, sets1)
        assert res.value == single.value
        assert res.term_count == single.term_count

    def test_brute_force_quadruple_loop(self, sets4):
        for a in (1, 3):
            res = f_q(4, a, 3.0, 15.0, sets4)
            want = brute_f_q(4, a, 3.0, 15.0, sets4)
            assert abs(res.value - want) <= 1e-10 * max(1.0, abs(want))

    def test_realness_on_small_grid(self, sets1, sets3, sets4, sets5):
        cases = [(1, sets1, 30.0), (3, sets3, 30.0), (4, sets4, 30.0), (5, sets5, 20.0)]
        for q, sets, T in cases:
            for a in range(1, q + 1):
                if math.gcd(a, q) != 1:
                    continue
                for x in (2.0, 3.0, 10.0):
                    res = f_q(q, a, x, T, sets)
                    assert abs(res.value.imag) <= 1e-9 * (1 + abs(res.value.real))

    def test_trivial_ratio_below_one(self, sets4):
        res = f_q(4, 1, 3.0, 15.0, sets4)
        assert 0.0 <= res.trivial_ratio <= 1.0

    def test_ratio_echo_fields(self, sets4):
        res = f_q(4, 3, 5.0, 15.0, sets4)
        assert (res.q, res.a, res.x, res.T, res.window) == (4, 3, 5.0, 15.0, "both")
        assert res.thm_ratio is not None and math.isfinite(res.thm_ratio)


class TestTiledPairSums:
    """The direct pair sums run over row tiles of at most
    paircorr._PAIR_TILE_ELEMENTS differences; lowering that budget splits
    every sum into many tiles and must not move a digit that matters."""

    # (q, a, x, T); the modulus-one cases are the tall set of the benchmark
    FSUM_CASES = [(1, 1, 2.0, 1000.0), (1, 1, 10.0, 1000.0), (1, 1, 100.0, 1000.0),
                  (1, 1, 1000.0, 1000.0), (12, 5, 5.0, 30.0), (8, 3, 3.0, 30.0),
                  (5, 2, 2.0, 20.0)]

    @pytest.fixture
    def sets_by_q(self, sets1_1000, sets5, sets8, sets12):
        return {1: sets1_1000, 5: sets5, 8: sets8, 12: sets12}

    # 64 pairs per tile; the id "1024" is the older name of this case, from
    # when the budget was counted in elements of 16 per pair
    @pytest.mark.parametrize("budget", [None, pytest.param(1 << 6, id="1024")])
    @pytest.mark.parametrize("case", FSUM_CASES)
    def test_real_part_matches_fsum(self, sets_by_q, monkeypatch, case, budget):
        q, a, x, T = case
        if budget is not None:
            monkeypatch.setattr(paircorr, "_PAIR_TILE_ELEMENTS", budget)
        sets = sets_by_q[q]
        res = f_q(q, a, x, T, sets)
        gammas, weights = character_family(q, a, T, sets)
        assert budget is None or gammas.size**2 > budget  # more than one tile
        d = np.subtract.outer(gammas, gammas)
        terms = np.outer(weights, weights.conj()) * np.exp(1j * math.log(x) * d) * weight(d)
        want = math.fsum(terms.real.ravel())
        assert abs(res.value.real - want) <= 1e-15 * abs(want)
        assert abs(res.value.imag) <= 1e-13 * abs(want)

    def test_many_tiles_agree_with_one(self, sets4, monkeypatch):
        chi1, chi2 = character(4, 1), character(4, 3)

        def sums():
            return (f_q(4, 3, 5.0, 30.0, sets4), g_pair(chi1, chi2, 3.0, 30.0, sets4),
                    increment_identity_check(2.0, 30.0, 10.0, 4, 3, sets4))

        default = sums()
        monkeypatch.setattr(paircorr, "_PAIR_TILE_ELEMENTS", 6)
        tiled = sums()
        for one, many in zip(default, tiled):
            assert one.term_count == many.term_count > 100
        for one, many in ((default[0].value, tiled[0].value), (default[1].value, tiled[1].value),
                          (default[2].rhs, tiled[2].rhs)):
            assert abs(one - many) <= 1e-14 * abs(one)

    # (q, index1, index2, x, T): two distinct characters; the oracle rounds
    # each gap before its phase, so x and T stay as small as in FSUM_CASES
    CROSS_CASES = [(5, 2, 4, 5.0, 20.0), (8, 3, 7, 3.0, 30.0), (12, 5, 11, 2.0, 30.0)]

    # 16 pairs per tile; the id "256" is the older name of this case, from
    # when the budget was counted in elements of 16 per pair
    @pytest.mark.parametrize("budget", [None, pytest.param(1 << 4, id="256")])
    @pytest.mark.parametrize("case", CROSS_CASES)
    def test_cross_characters_match_fsum(self, sets_by_q, monkeypatch, case, budget):
        q, i1, i2, x, T = case
        if budget is not None:
            monkeypatch.setattr(paircorr, "_PAIR_TILE_ELEMENTS", budget)
        sets = sets_by_q[q]
        chi1, chi2 = character(q, i1), character(q, i2)
        res = g_pair(chi1, chi2, x, T, sets)
        d = np.subtract.outer(sets[chi1.label].window(T), sets[chi2.label].window(T))
        terms = np.exp(1j * math.log(x) * d) * weight(d)
        want = complex(math.fsum(terms.real.ravel()), math.fsum(terms.imag.ravel()))
        assert res.term_count == d.size
        assert budget is None or d.size > budget  # more than one tile
        assert abs(res.value - want) <= 1e-15 * abs(want)

    def test_memory_is_bounded_by_the_tile_budget(self, sets1_1000, monkeypatch):
        monkeypatch.setattr(paircorr, "_PAIR_TILE_ELEMENTS", 1 << 12)
        tracemalloc.start()
        try:
            res = f_q(1, 1, 10.0, 1000.0, sets1_1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.term_count > 1_000_000  # a full N x N array would be 27 MB
        assert peak < 8 * 2**20

    def test_empty_window_is_zero(self, sets4):
        res = f_q(4, 3, 3.0, 5.0, sets4)  # first ordinate is 6.02
        assert res.value == 0 and res.term_count == 0


class TestPhases:
    """paircorr._phases(lx, g) = e^{i lx g} with lx g reduced mod 2 pi in
    double-double: each component within 2e-16 of the exact value at the
    float64 lx, where a plain exp(1j lx g) is off by ulp(lx g)."""

    @pytest.mark.parametrize("x", [2.0, 1000.0, 1e8])
    def test_components_match_mpmath(self, x):
        rng = np.random.default_rng(15)
        g = np.concatenate([rng.uniform(-1e4, 1e4, 200), rng.uniform(-30.0, 30.0, 40),
                            [0.0, 1e4, -1e4, 14.134725141734695, 5e-324]])
        lx = math.log(x)
        got = paircorr._phases(lx, g)
        with mpmath.workprec(200):
            for t, z in zip(g, got):
                angle = mpmath.mpf(lx) * mpmath.mpf(float(t))
                assert abs(z.real - mpmath.cos(angle)) <= 2e-16, t
                assert abs(z.imag - mpmath.sin(angle)) <= 2e-16, t


class TestSigma:
    def test_counts_at_x_one(self, sets1):
        val = sigma_sum(1.0, 30.0, 0.0, 1, 1, sets1)
        count = len(window_ordinates(sets1[CharacterLabel(1, 1)], 30.0))
        assert abs(val - count) < 1e-12

    def test_substitution_identity(self, sets4):
        for v in (-1.3, 0.0, 0.8):
            s1 = sigma_sum(2.0, 15.0, v, 4, 3, sets4)
            s2 = sigma_sum(2.0 * math.exp(v), 15.0, 0.0, 4, 3, sets4)
            assert abs(s1 - s2) < 1e-12 * max(1.0, abs(s2))

    def test_brute_force(self, sets4):
        x, T, v = 3.0, 15.0, 0.4
        want = 0j
        for chi in enumerate_characters(4):
            for g in window_ordinates(sets4[chi.label], T):
                want += chi(3).conjugate() * cmath.exp(1j * g * (math.log(x) + v))
        got = sigma_sum(x, T, v, 4, 3, sets4)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestIntegralRoute:
    def test_zeta_explicit_v(self, sets1):
        chk = f_q_via_integral(1, 1, 2.0, 30.0, sets1)
        assert chk.rel_residual < 1e-4
        # v_max is derived from the zero count and the budget, a factor e inside it
        count = len(window_ordinates(sets1[CharacterLabel(1, 1)], 30.0))
        budget = paircorr.QUAD_BUDGET_FACTOR * max(abs(chk.rhs.real), 1.0)
        assert chk.v_max == max(2.0, 0.5 * math.log(count * count / budget) + 0.5)
        assert chk.truncation_bound == pytest.approx(budget / math.e)
        assert chk.node_count > 0

    def test_mod4_auto_v(self, sets4):
        chk = f_q_via_integral(4, 3, 3.0, 15.0, sets4)
        assert chk.rel_residual < 1e-4
        assert chk.truncation_bound < 1e-8 * max(1.0, abs(chk.rhs.real))

    def test_integrand_at_origin_is_count_squared(self, sets1):
        # at x = 1, v = 0 every term is 1
        count = len(window_ordinates(sets1[CharacterLabel(1, 1)], 30.0))
        val = sigma_sum(1.0, 30.0, 0.0, 1, 1, sets1)
        assert abs(abs(val) ** 2 - count**2) < 1e-9

    def test_rel_tol_validation(self, sets4):
        for check in (lambda tol: f_q_via_integral(4, 1, 3.0, 15.0, sets4, tol),
                      lambda tol: increment_identity_check(3.0, 15.0, 5.0, 4, 1, sets4, tol)):
            with pytest.raises(ValueError, match=r"rel_tol must lie in \(0, 1\)"):
                check(2.0)


class TestMeshSigma:
    def test_blocked_sigma_matches_the_dense_sum(self, sets1_1000):
        x, T = 10.0, 1000.0
        gammas, weights = character_family(1, 1, T, sets1_1000)
        exponent = np.log(weights) + 1j * math.log(x) * gammas
        vs, sums = mesh_exp_sums(-13.4, math.pi / 4000.0, 34_141, gammas[None], exponent[None])
        coeffs = weights * np.exp(1j * math.log(x) * gammas)
        dense = np.concatenate([np.exp(1j * np.outer(v, gammas)) @ coeffs
                                for v in np.array_split(vs, 64)])
        assert gammas.size > 1000 and vs.size == 34_141
        assert np.max(np.abs(sums[:, 0] - dense)) <= 1e-12 * np.max(np.abs(dense))

    # the trapezoid mesh follows from the a-priori bound alone: its node
    # count is (2 v_max / h) + 1 for the step that meets rel_tol
    @pytest.mark.parametrize("case, nodes, order", [
        ("q4", 141, 30),
        ("q1_1000", 12593, 30),
    ])
    def test_quadrature_work_is_pinned(self, sets4, sets1_1000, case, nodes, order):
        if case == "q4":
            chk = f_q_via_integral(4, 3, 3.0, 15.0, sets4)
        else:
            chk = f_q_via_integral(1, 1, 10.0, 1000.0, sets1_1000)
        assert (chk.node_count, chk.order) == (nodes, order)


class TestTrapezoidBound:
    @pytest.mark.parametrize("q, T", [(1, 15.0), (4, 15.0), (1, 1000.0), (4, 1000.0)])
    def test_residual_within_stated_bound(self, sets1, sets4, sets1_1000, sets4_1000, q, T):
        sets = {(1, 15.0): sets1, (4, 15.0): sets4, (1, 1000.0): sets1_1000,
                (4, 1000.0): sets4_1000}[q, T]
        checks = [f_q_via_integral(q, a, x, T, sets) for a in {1, q - 1} - {0} for x in (3.0, 10.0)]
        checks.append(increment_identity_check(10.0, T, T / 3.0, q, 1, sets))
        for chk in checks:
            assert chk.order == paircorr.TRAPEZOID_ORDER
            # the step meets its target, and the rest of the bound is far below it
            assert chk.discretization_bound <= 1.01e-6 * max(abs(chk.rhs.real), 1.0)
            assert chk.abs_residual <= chk.discretization_bound + chk.truncation_bound

    @pytest.mark.parametrize("broken", ["span", "order"])
    def test_broken_premise_exceeds_the_bound(self, sets4, monkeypatch, broken):
        """A step rule told a span 8x too small (so h (D + 2) >= 2 pi), or
        one that picks h for K = 30 while only 4 corrections are added,
        states a bound the residual then exceeds."""
        rule = paircorr._trapezoid_mesh
        if broken == "span":
            monkeypatch.setattr(paircorr, "_trapezoid_mesh", lambda order, size, span, *rest:
                                rule(order, size, span / 8.0, *rest))
        else:
            monkeypatch.setattr(paircorr, "TRAPEZOID_ORDER", 4)
            monkeypatch.setattr(paircorr, "_trapezoid_mesh", lambda order, *rest: rule(30, *rest))
        chk = f_q_via_integral(4, 3, 3.0, 15.0, sets4)
        if broken == "span":
            gammas, _ = character_family(4, 3, 15.0, sets4)
            h = 2.0 * chk.v_max / (chk.node_count - 1)
            assert h * (np.ptp(gammas) + 2.0) >= 2.0 * math.pi
        assert chk.abs_residual > 100.0 * (chk.discretization_bound + chk.truncation_bound)


class TestIncrementIdentity:
    def test_empty_increment(self, sets4):
        res = increment_identity_check(3.0, 15.0, 15.0, 4, 1, sets4)
        assert res.lhs == 0.0 and res.rhs == 0 and res.term_count == 0

    def test_u_zero_matches_full(self, sets4, sets1_1000):
        # U = 0 is the integral route itself, field for field
        for q, a, x, T, sets in ((4, 1, 3.0, 15.0, sets4), (1, 1, 10.0, 1000.0, sets1_1000)):
            res = increment_identity_check(x, T, 0.0, q, a, sets)
            full = f_q_via_integral(q, a, x, T, sets)
            assert res.rhs == f_q(q, a, x, T, sets).value
            assert res == full  # every field, the bounds and the mesh included
            assert res.rel_residual < 1e-4

    def test_mod3_example(self, sets3):
        res = increment_identity_check(2.0, 15.0, 5.0, 3, 1, sets3)
        assert res.rel_residual < 1e-4

    def test_nonempty_lower_window(self, sets4):
        # (U, T) = (15, 30) has zeros on both sides of U; the identity
        # holds against the sum restricted to ordinates in (U, T]
        res = increment_identity_check(3.0, 30.0, 15.0, 4, 1, sets4)
        assert res.rel_residual < 1e-4

    def test_brute_force_restricted_sum(self, sets4):
        U, T, x = 10.0, 25.0, 2.0
        res = increment_identity_check(x, T, U, 4, 3, sets4)
        want = 0j
        for chi1 in enumerate_characters(4):
            o1 = [g for g in window_ordinates(sets4[chi1.label], T) if abs(g) > U]
            for chi2 in enumerate_characters(4):
                o2 = [g for g in window_ordinates(sets4[chi2.label], T) if abs(g) > U]
                want += chi1(3).conjugate() * chi2(3) * brute_g(o1, o2, x)
        assert abs(res.rhs - want) <= 1e-10 * max(1.0, abs(want))

    def test_validation(self, sets4):
        with pytest.raises(ValueError):
            increment_identity_check(3.0, 15.0, -1.0, 4, 1, sets4)
        with pytest.raises(ValueError):
            increment_identity_check(3.0, 15.0, 16.0, 4, 1, sets4)


class TestZetaRatio:
    def test_x_one_returns_raw(self, sets1_100):
        res = f_zeta_ratio(1.0, 100.0, sets1_100[CharacterLabel(1, 1)])
        assert res.thm_ratio is None
        assert abs(res.value.imag) <= 1e-9 * (1 + abs(res.value.real))

    def test_unit_height_has_no_trivial_ratio(self, sets1):
        # log(qT) = 0 at q = T = 1, so the a-priori ceiling is 0
        res = f_zeta_ratio(3.0, 1.0, sets1[CharacterLabel(1, 1)])
        assert res.trivial_ratio is None
        assert res.value == 0 and res.thm_ratio == 0.0

    def test_in_range_point(self, sets1_100):
        res = f_zeta_ratio(5.0, 100.0, sets1_100[CharacterLabel(1, 1)])
        assert res.in_classical_range
        assert res.term_count == 29 * 29
        # weak statistics at this height; order of magnitude only
        assert 0.25 <= res.thm_ratio <= 4.0

    def test_extrapolation_flagged(self, sets1_100):
        res = f_zeta_ratio(150.0, 100.0, sets1_100[CharacterLabel(1, 1)])
        assert not res.in_classical_range

    def test_window_conventions_agree(self, sets1_100):
        z = sets1_100[CharacterLabel(1, 1)]
        pos = f_zeta_ratio(5.0, 100.0, z).thm_ratio
        both = f_zeta_ratio(5.0, 100.0, z, window="both").thm_ratio
        assert abs(pos - both) < 0.1

    def test_wrong_set_rejected(self, sets4):
        with pytest.raises(ValueError):
            f_zeta_ratio(5.0, 15.0, sets4[CharacterLabel(4, 3)])


def brute_lambda(n: int) -> float:
    m, f = n, 0
    for p in range(2, n + 1):
        if m % p == 0:
            f = p
            while m % p == 0:
                m //= p
            break
    return math.log(f) if f and m == 1 else 0.0


class TestR1:
    def test_brute_force_t_zero(self):
        res = r1(50.0, 0.0, 1, 1, cutoff=400)
        acc = 0.0
        for n in range(2, 401):
            lam = brute_lambda(n)
            if lam:
                acc += lam * (math.sqrt(n / 50.0) if n <= 50 else (50.0 / n) ** 1.5)
        want = -acc / math.sqrt(50.0)
        assert abs(res.value - want) <= 1e-12 * abs(want)

    def test_brute_force_progression(self):
        x, t, q, a = 50.0, 1.7, 4, 3
        res = r1(x, t, q, a, cutoff=400)
        want = 0j
        for n in range(2, 401):
            if n % q != a:
                continue
            lam = brute_lambda(n)
            if lam:
                scale = math.sqrt(n / x) if n <= x else (x / n) ** 1.5
                want += lam * scale * cmath.exp(1j * t * math.log(x / n))
        want *= -2 / math.sqrt(x)  # phi(4) = 2
        assert abs(res.value - want) <= 1e-12 * abs(want)

    def test_negative_t_conjugates(self):
        a = r1(100.0, 2.5, 3, 2).value
        b = r1(100.0, -2.5, 3, 2).value
        assert abs(a - b.conjugate()) < 1e-13

    def test_cutoff_doubling_within_tail_budget(self):
        a = r1(1000.0, 5.0, 4, 1, cutoff=100_000)
        b = r1(1000.0, 5.0, 4, 1, cutoff=200_000)
        assert abs(a.value - b.value) <= a.tail_bound
        assert b.tail_bound < a.tail_bound

    def test_validation(self):
        with pytest.raises(ValueError):
            r1(1000.0, 0.0, 4, 2)  # a not a unit
        with pytest.raises(ValueError):
            r1(1.5, 0.0, 1, 1)
        with pytest.raises(ValueError):
            r1(1000.0, 0.0, 1, 1, cutoff=4000)  # below 8x
        with pytest.raises(ValueError, match="MAX_X"):
            r1(1000.0, 0.0, 1, 1, cutoff=2 * MAX_X)


class TestR1MeanSquare:
    def test_in_regime_ratio_window(self):
        ms = r1_mean_square(100.0, 150.0, 1, 1)
        assert ms.in_regime
        assert ms.integral >= 0.0
        assert 0.5 <= ms.ratio <= 2.0

    def test_progression_ratio_window(self):
        ms = r1_mean_square(100.0, 150.0, 4, 1)
        assert 0.5 <= ms.ratio <= 2.0

    def test_node_doubling_stability(self):
        base = r1_mean_square(100.0, 60.0, 1, 1)
        fine = r1_mean_square(100.0, 60.0, 1, 1, spacing=base.spacing / 2)
        assert fine.node_count > base.node_count
        assert abs(fine.integral - base.integral) < 0.005 * abs(base.integral)

    def test_regime_flag(self):
        ms = r1_mean_square(100.0, 50.0, 1, 1)
        assert not ms.in_regime  # T < x / phi(q)

    def test_spacing_rule_enforced(self):
        with pytest.raises(ValueError):
            r1_mean_square(100.0, 50.0, 1, 1, spacing=0.2)  # 0.25/log(100) = 0.054

    def test_main_term_wiring(self):
        ms = r1_mean_square(100.0, 60.0, 4, 1)
        assert ms.main_term == pytest.approx(2 * 60.0 * ms.s_result.value * 4)


class TestSpacingHistogram:
    def test_gue_density_limits(self):
        assert gue_density(0.0) == pytest.approx(0.0)
        assert gue_density(50.0) == pytest.approx(1.0, abs=1e-3)
        u = np.linspace(0.0, 5.0, 101)
        d = gue_density(u)
        assert np.all(d >= 0.0) and np.all(d <= 1.0 + 1e-12)

    def test_counts_match_brute_force(self, sets1_100):
        zs = sets1_100[CharacterLabel(1, 1)]
        h = spacing_histogram(zs, 100.0, 0.0, 3.0, 12)
        pos = window_ordinates(zs, 100.0, "positive")
        scale = math.log(100.0) / (2 * math.pi)
        gaps = [(g1 - g2) * scale for g1 in pos for g2 in pos]
        assert h.window_count == len(pos) == 29
        assert h.pair_count == sum(1 for g in gaps if 0.0 <= g <= 3.0)
        assert int(h.counts[0]) >= h.diagonal_count  # zero gaps land in bin one

    def test_diagonal_convention(self, sets1_100):
        zs = sets1_100[CharacterLabel(1, 1)]
        sym = spacing_histogram(zs, 100.0, -2.0, 2.0, 8)
        assert sym.includes_diagonal and sym.delta_term == sym.normalization
        off = spacing_histogram(zs, 100.0, 0.5, 3.0, 10)
        assert not off.includes_diagonal and off.delta_term == 0.0

    def test_expected_column(self, sets1_100):
        zs = sets1_100[CharacterLabel(1, 1)]
        h = spacing_histogram(zs, 100.0, 0.0, 3.0, 12)
        assert h.expected.shape == (12,)
        assert h.normalization == pytest.approx((100.0 / (2 * math.pi)) * math.log(100.0))
        width = 0.25
        mid = 0.5 * (h.bin_edges[3] + h.bin_edges[4])
        assert h.expected[3] == pytest.approx(width * gue_density(mid) * h.normalization)

    @pytest.mark.parametrize(
        "alpha, beta", [(-1e6, 1e6), (0.0, 1e300), (-3.0, 0.5), (0.5, 0.500001), (-1.0, 2.0)]
    )
    def test_any_reach_matches_every_pair(self, sets1_100, alpha, beta):
        zs = sets1_100[CharacterLabel(1, 1)]
        h = spacing_histogram(zs, 100.0, alpha, beta, 7)
        o = zs.window(100.0, "positive")
        scale = math.log(100.0) / (2.0 * math.pi)
        want, _ = np.histogram(np.subtract.outer(o, o).ravel() * scale, h.bin_edges)
        assert np.array_equal(h.counts, want)
        assert h.window_count == o.size

    def test_long_reach_runs_through_many_offsets(self, sets1_100):
        """About 2,000 ascending ordinates with beta = 40 scaled units: the
        offset scan passes at least 25 offsets before the gaps leave the
        reach, and still counts every ordered pair the brute force does."""
        T = 1e4
        rng = np.random.default_rng(7)
        o = np.cumsum(rng.uniform(0.2, 1.8, 2000))  # mean gap 1, so o[-1] < T
        zs = replace(sets1_100[CharacterLabel(1, 1)], height=T, ordinates=o,
                     lo=o, hi=o, residual=np.zeros(o.size))
        scale = math.log(T) / (2.0 * math.pi)
        assert np.min(o[25:] - o[:-25]) * scale < 40.0  # no stop before offset 25
        for alpha, beta in ((0.0, 40.0), (-40.0, 40.0), (-7.5, 12.25)):
            h = spacing_histogram(zs, T, alpha, beta, 33)
            want, _ = np.histogram(np.subtract.outer(o, o) * scale, h.bin_edges)
            assert np.array_equal(h.counts, want)

    def test_validation(self, sets1_100):
        zs = sets1_100[CharacterLabel(1, 1)]
        with pytest.raises(ValueError):
            spacing_histogram(zs, 100.0, 2.0, 1.0, 4)
        with pytest.raises(ValueError):
            spacing_histogram(zs, 100.0, 0.0, 3.0, 0)
        with pytest.raises(ValueError):
            spacing_histogram(zs, 0.5, 0.0, 3.0, 4)
        with pytest.raises(CertificationError):
            spacing_histogram(replace(zs, certified=False), 100.0, 0.0, 3.0, 4)


class TestMeanValue:
    def test_single_frequency_exact(self):
        res = mean_value_check([(1.3, 2.0)], 10.0, 0.25)
        assert res.exact_integral == res.main_term == 2 * 10.0 * 4.0
        assert res.constant == 0.0

    def test_two_separated_frequencies(self):
        mu1, mu2, c1, c2, T = 0.0, 0.8, 1.5, -0.7, 20.0
        res = mean_value_check([(mu1, c1), (mu2, c2)], T, 0.5)
        # lone cross pair bounded by 2 |c1 c2| / (pi |mu1 - mu2|)
        bound = 2 * abs(c1 * c2) / (math.pi * abs(mu1 - mu2))
        assert abs(res.exact_integral - res.main_term) <= bound + 1e-12

    def test_duplicate_frequency_adds_diagonally(self):
        res = mean_value_check([(2.0, 1.0), (2.0, 1.0)], 10.0, 0.25)
        # identical frequencies: exact = 2T (c1+c2)^2
        assert res.exact_integral == pytest.approx(2 * 10.0 * 4.0)
        assert res.main_term == pytest.approx(2 * 10.0 * 2.0)

    def test_random_instances_within_envelope(self):
        rng = np.random.default_rng(20240817)
        for _ in range(20):
            mu = np.sort(rng.uniform(0.0, 10.0, 50))
            c = rng.uniform(-1.0, 1.0, 50)
            res = mean_value_check(list(zip(mu, c)), 50.0, 0.05)
            assert res.constant <= 4.0

    def test_delta_range_enforced(self):
        with pytest.raises(ValueError):
            mean_value_check([(1.0, 1.0)], 10.0, 0.01)  # below 1/(2T)
        with pytest.raises(ValueError):
            mean_value_check([(1.0, 1.0)], 10.0, 0.6)  # above 1/2
        with pytest.raises(ValueError):
            mean_value_check([], 10.0, 0.25)
