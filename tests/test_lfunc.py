import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest

from zeropair import lfunc
from zeropair.characters import character, enumerate_characters
from zeropair.lfunc import (
    CompletedLParams,
    EvalPrecision,
    PoleError,
    PrecisionError,
    RealnessError,
    ROTATION_BRANCH,
    completed_l,
    hardy_z,
    hardy_z_batch,
    hurwitz_zeta,
    hurwitz_zeta_batch,
    l_critical_batch,
    l_value,
    root_number,
    _em_remainder_bound,
)

mp.mp.dps = 30


class TestHurwitzZeta:
    def test_zeta_2(self):
        assert abs(hurwitz_zeta(2, 1.0) - math.pi**2 / 6) <= 1e-12

    def test_zeta_3_against_series_oracle(self):
        ref = float(mp.zeta(3))
        assert abs(hurwitz_zeta(3, 1.0) - ref) <= 1e-12

    def test_half_shift(self):
        # zeta(2, 1/2) = pi^2/2
        assert abs(hurwitz_zeta(2, 0.5) - math.pi**2 / 2) <= 1e-12

    def test_zeta_at_half(self):
        ref = float(mp.zeta(mp.mpf("0.5")))
        assert abs(hurwitz_zeta(0.5, 1.0) - ref) <= 1e-12

    @pytest.mark.parametrize("t", [0.3, 5.0, 21.7, 64.2, 99.5])
    @pytest.mark.parametrize("a", [1.0, 0.5, 1 / 3, 0.811])
    def test_critical_line_against_mpmath(self, t, a):
        s = 0.5 + 1j * t
        ref = complex(mp.zeta(mp.mpc("0.5", mp.mpf(t)), mp.mpf(a)))
        assert abs(hurwitz_zeta(s, a) - ref) <= 1e-11

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            hurwitz_zeta(1.0, 0.5)
        with pytest.raises(PoleError):
            hurwitz_zeta_batch(np.array([2.0, 1.0 + 0j]), 1.0)

    def test_bad_shift_rejected(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 0.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 1.5)

    def test_unreachable_tolerance_is_distinct_error(self):
        prec = EvalPrecision(target_abs_error=1e-30, direct_terms=5, bernoulli_terms=1)
        with pytest.raises(PrecisionError):
            hurwitz_zeta(0.5 + 40j, 0.5, prec)

    def test_self_consistency_doubling_direct_terms(self):
        prec = EvalPrecision.for_height(50.0)
        doubled = EvalPrecision(
            prec.target_abs_error, 2 * prec.direct_terms, prec.bernoulli_terms
        )
        for t in (0.0, 17.3, 50.0):
            s = 0.5 + 1j * t
            v1 = hurwitz_zeta(s, 0.25, prec)
            v2 = hurwitz_zeta(s, 0.25, doubled)
            assert abs(v1 - v2) <= prec.target_abs_error

    def test_precision_parameters_validated(self):
        with pytest.raises(ValueError):
            EvalPrecision(direct_terms=0)
        with pytest.raises(ValueError):
            EvalPrecision(bernoulli_terms=0)
        with pytest.raises(ValueError):
            EvalPrecision(bernoulli_terms=40)
        with pytest.raises(ValueError):
            EvalPrecision(target_abs_error=0.0)


def _critical_bound(T: float, n: int) -> float:
    """The remainder bound at 1/2 + iT for the worst shift a -> 0, where w = N."""
    prec = EvalPrecision.for_height(T)
    return float(_em_remainder_bound(np.array([0.5 + 1j * T]), float(n), prec)[0])


class TestPrecisionChoice:
    @pytest.mark.parametrize("T", [15.0, 30.0, 100.0, 1000.0])
    def test_for_height_is_minimal(self, T):
        prec = EvalPrecision.for_height(T)
        n = prec.direct_terms
        assert prec.bernoulli_terms == 12
        assert _critical_bound(T, n) <= prec.target_abs_error < _critical_bound(T, n - 1)

    def test_documented_sizes(self):
        got = [EvalPrecision.for_height(T).direct_terms for T in (30.0, 100.0, 1000.0)]
        assert got == [15, 46, 471]

    @pytest.mark.parametrize("T", [15.0, 30.0, 100.0, 1000.0])
    def test_one_term_fewer_fails_the_certificate(self, T):
        prec = EvalPrecision.for_height(T)
        fewer = EvalPrecision(prec.target_abs_error, prec.direct_terms - 1, prec.bernoulli_terms)
        s = np.array([0.5 + 1j * T])
        hurwitz_zeta_batch(s, 1e-9, prec)
        with pytest.raises(PrecisionError):
            hurwitz_zeta_batch(s, 1e-9, fewer)

    @pytest.mark.parametrize("q,idx", [(1, 1), (5, 2), (7, 3), (12, 5)])
    def test_left_of_critical_line_against_mpmath(self, q, idx):
        chi = character(q, idx)
        s = 0.2 + 50j
        ref = complex(mp.dirichlet(mp.mpc("0.2", 50), [chi(n) for n in range(q)]))
        assert abs(l_value(chi, s) - ref) <= 1e-11

    @pytest.mark.parametrize("s,a", [(5.0, 0.05), (6.0, 0.01), (3.0 + 0.5j, 0.05)])
    def test_default_precision_certifies_points_right_of_the_line(self, s, a):
        # sizing N at Re s = 1/2 would fail the bound at the first two points
        ref = complex(mp.zeta(mp.mpmathify(s), a))
        assert abs(hurwitz_zeta(s, a) - ref) <= 1e-13 * abs(ref)


class TestBroadcastKernel:
    def test_columns_match_scalar_shift_calls(self):
        prec = EvalPrecision.for_height(60.0)
        ts = np.array([-58.2, -3.0, 0.0, 0.4, 11.9, 37.5, 60.0])
        shifts = np.arange(1, 24) / 23.0
        s = np.broadcast_to((0.5 + 1j * ts)[:, None], (ts.size, shifts.size))
        cols = hurwitz_zeta_batch(s, shifts, prec)
        assert cols.shape == (ts.size, shifts.size)
        for j, a in enumerate(shifts):
            one = hurwitz_zeta_batch(0.5 + 1j * ts, a, prec)
            assert np.max(np.abs(cols[:, j] - one) / np.maximum(1.0, np.abs(one))) <= 1e-13

    def test_every_primitive_character_mod_23_against_mpmath(self):
        ts = np.array([-9.4, 23.6])
        checked = 0
        with mp.workdps(17):
            for chi in enumerate_characters(23):
                if not chi.is_primitive:
                    continue
                values = [chi(n) for n in range(23)]
                got = l_critical_batch(chi, ts)
                for t, v in zip(ts, got):
                    ref = complex(mp.dirichlet(mp.mpc(0.5, t), values))
                    assert abs(v - ref) <= 1e-10 * (1 + abs(ref))
                checked += 1
        assert checked == 21

    def test_chunks_stay_within_the_element_budget(self, monkeypatch):
        chi = character(7, 3)
        ts = np.linspace(-40.0, 40.0, 301)
        whole = l_critical_batch(chi, ts)
        sizes = []
        kernel = lfunc.hurwitz_zeta_batch

        def recording(s, a, prec=None):
            sizes.append(np.size(s) * prec.direct_terms)
            return kernel(s, a, prec)

        monkeypatch.setattr(lfunc, "_EM_CHUNK_ELEMENTS", 2000)
        monkeypatch.setattr(lfunc, "hurwitz_zeta_batch", recording)
        chunked = l_critical_batch(chi, ts)
        assert len(sizes) > 1 and max(sizes) <= 2000
        assert sum(sizes) == ts.size * 6 * EvalPrecision.for_height(40.0).direct_terms
        assert np.max(np.abs(chunked - whole)) <= 1e-13 * np.max(np.abs(whole))


class TestLValues:
    def test_trivial_character_gives_zeta(self):
        chi = character(1, 1)
        assert abs(l_value(chi, 2) - math.pi**2 / 6) <= 1e-12
        assert abs(l_value(chi, 3) - float(mp.zeta(3))) <= 1e-12

    def test_principal_pole(self):
        with pytest.raises(PoleError):
            l_value(character(1, 1), 1)
        with pytest.raises(PoleError):
            l_value(character(4, 1), 1)

    def test_mod4_at_one(self):
        assert abs(l_value(character(4, 3), 1) - math.pi / 4) <= 1e-10

    def test_mod4_at_two(self):
        assert abs(l_value(character(4, 3), 2) - float(mp.catalan)) <= 1e-12

    def test_mod3_at_two_against_series_oracle(self):
        # sum over complete periods, so the block series is absolutely convergent
        chi = character(3, 2)
        ref = mp.nsum(
            lambda k: 1 / (3 * k + 1) ** 2 - 1 / (3 * k + 2) ** 2, [0, mp.inf]
        )
        assert abs(l_value(chi, 2) - float(ref)) <= 1e-10

    def test_principal_strips_euler_factors(self):
        # L(s, principal mod 4) = zeta(s) (1 - 2^-s)
        for s in (2.0, 3.5, 0.5 + 9.1j):
            lhs = l_value(character(4, 1), s)
            rhs = l_value(character(1, 1), s) * (1 - 2 ** complex(-s))
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))

    def test_imprimitive_matches_dirichlet_series(self):
        # chi mod 12 induced from mod 3: check against a long partial sum
        chi = character(12, 5)
        s = 3.0
        direct = sum(chi(n) * n ** (-s) for n in range(1, 4001))
        assert abs(l_value(chi, s) - direct) <= 1e-9

    def test_imprimitive_euler_product_relation(self):
        chi = character(12, 5)
        psi = character(3, 2)
        for s in (2.0, 0.5 + 5.0j):
            lhs = l_value(chi, s)
            rhs = l_value(psi, s) * (1 - psi(2) * 2 ** complex(-s))
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))

    def test_nonprincipal_at_one_via_digamma_matches_series(self):
        chi = character(5, 2)
        val = l_value(chi, 1)
        # chi(1..4) = 1, i, -i, -1; blocks over complete periods decay like 1/k^2
        i = mp.mpc(0, 1)
        ref = complex(
            mp.nsum(
                lambda k: 1 / (5 * k + 1) + i / (5 * k + 2) - i / (5 * k + 3) - 1 / (5 * k + 4),
                [0, mp.inf],
            )
        )
        assert abs(val - ref) <= 1e-10

    def test_batch_matches_scalar(self):
        chi = character(5, 2)
        ts = np.array([0.0, 3.3, 17.9])
        batch = l_critical_batch(chi, ts)
        for t, v in zip(ts, batch):
            assert abs(v - l_value(chi, 0.5 + 1j * t)) <= 1e-11

    def test_batch_requires_primitive(self):
        with pytest.raises(ValueError):
            l_critical_batch(character(12, 5), np.array([1.0]))


class TestRootNumbers:
    def test_trivial(self):
        assert root_number(character(1, 1)) == 1

    def test_mod4(self):
        assert abs(root_number(character(4, 3)) - 1) <= 1e-12

    def test_mod3(self):
        assert abs(root_number(character(3, 2)) - 1) <= 1e-12

    def test_unimodular_all_primitive_up_to_30(self):
        for q in range(1, 31):
            for chi in enumerate_characters(q):
                if chi.is_primitive:
                    assert abs(abs(root_number(chi)) - 1) <= 1e-10

    def test_imprimitive_rejected(self):
        with pytest.raises(ValueError):
            root_number(character(12, 5))

    def test_params_record_branch(self):
        params = CompletedLParams.from_character(character(4, 3))
        assert params.branch == ROTATION_BRANCH
        assert abs(params.rotation**2 - params.root_number) <= 1e-12


class TestHardyZ:
    def test_zeta_at_zero_ordinate(self):
        assert abs(hardy_z(character(1, 1), 14.134725141734694)) <= 1e-6

    def test_zeta_at_origin(self):
        ref = float(mp.zeta(mp.mpf("0.5")))
        assert abs(hardy_z(character(1, 1), 0.0) - ref) <= 1e-10

    def test_mod4_at_first_ordinates(self):
        chi = character(4, 3)
        for t in (6.0209489046976, 10.2437703041666, 12.9880980123124):
            assert abs(hardy_z(chi, t)) <= 1e-6

    def test_mod3_at_first_ordinate(self):
        assert abs(hardy_z(character(3, 2), 8.039737155681472)) <= 1e-6

    def test_magnitude_matches_l(self):
        chi = character(5, 2)
        for t in (0.7, 12.3, 41.9):
            z = hardy_z(chi, t)
            l = l_value(chi, 0.5 + 1j * t)
            assert abs(abs(z) - abs(l)) <= 1e-9 * (1 + abs(l))

    def test_realness_residual_small_on_random_points(self):
        rng = random.Random(11)
        labels = [(1, 1), (3, 2), (4, 3), (5, 2), (5, 3), (8, 3), (8, 5), (12, 11)]
        pts = np.array([rng.uniform(-80, 80) for _ in range(125 * len(labels))])
        for (q, idx), chunk in zip(labels, pts.reshape(len(labels), -1)):
            # raises RealnessError if any residual exceeds 1e-8 * (1 + |Z|)
            hardy_z_batch(character(q, idx), chunk)

    def test_conjugate_symmetry_in_t(self):
        rng = random.Random(13)
        for q, idx in [(5, 2), (7, 3), (13, 2)]:
            chi = character(q, idx)
            bar = chi.conjugate()
            ts = np.array([rng.uniform(0.1, 60) for _ in range(40)])
            z1 = hardy_z_batch(chi, ts)
            z2 = hardy_z_batch(bar, -ts)
            # same zeros either way; values agree up to a fixed unimodular sign
            ratio = z2 / z1
            assert np.max(np.abs(np.abs(ratio) - 1)) <= 1e-6
            assert np.max(np.abs(ratio - ratio[0])) <= 1e-6

    def test_imprimitive_rejected(self):
        with pytest.raises(ValueError):
            hardy_z(character(12, 5), 1.0)

    def test_precision_failure_propagates(self):
        prec = EvalPrecision(target_abs_error=1e-30, direct_terms=5, bernoulli_terms=1)
        with pytest.raises(PrecisionError):
            hardy_z(character(4, 3), 50.0, prec)


class TestFunctionalEquation:
    @pytest.mark.parametrize("q,idx", [(1, 1), (3, 2), (4, 3), (5, 2), (7, 3), (8, 3), (9, 2), (13, 2), (16, 3), (24, 11)])
    def test_completed_symmetry(self, q, idx):
        chi = character(q, idx)
        if not chi.is_primitive:
            pytest.skip("needs a primitive character")
        eps = root_number(chi)
        bar = chi.conjugate()
        for s in (0.3 + 7.2j, 0.5 + 33.7j, 0.5 + 59.1j, 1.1 + 0.6j):
            lhs = completed_l(chi, s)
            rhs = eps * completed_l(bar, 1 - s)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)

    def test_rotation_squares_to_root_number(self):
        for q, idx in [(5, 2), (7, 3), (11, 2), (13, 6)]:
            params = CompletedLParams.from_character(character(q, idx))
            assert abs(params.rotation**2 - params.root_number) <= 1e-12
            assert abs(abs(params.rotation) - 1) <= 1e-12
