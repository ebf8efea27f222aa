import math

import numpy as np
import pytest

from zeropair import zeros
from zeropair.characters import character, enumerate_characters
from zeropair.cli import main
from zeropair.lfunc import EvalPrecision, hardy_z_batch
from zeropair.zeros import (
    ZeroRecord,
    ZeroSet,
    _brackets_certified,
    _refine_brackets,
    count_expected,
    default_mesh_step,
    refine_zero,
    scan_zeros,
    zeros_for_modulus,
)

# leading positive ordinates, independently computed to high precision
ZETA_ORDINATES = [14.134725141734694, 21.022039638771556, 25.010857580145689]
CHI4_ORDINATES = [6.0209489046976, 10.2437703041666, 12.9880980123124]
CHI3_ORDINATES = [8.0397371556815, 11.2492062077729]


class TestCountExpected:
    def test_clamped_at_zero(self):
        assert count_expected(character(3, 2), 0.5) == 0.0
        assert count_expected(character(1, 1), 0.1) >= 0.0

    def test_zeta_values(self):
        # 2*((T/2pi) log(T/2pi e)) + 7/4
        T = 30.0
        val = count_expected(character(1, 1), T)
        ref = 2 * ((T / (2 * math.pi)) * math.log(T / (2 * math.pi * math.e))) + 1.75
        assert abs(val - ref) <= 1e-12

    def test_mod4_near_six_at_15(self):
        val = count_expected(character(4, 3), 15.0)
        assert abs(val - 6.0) <= 0.3

    def test_grows_with_q_and_T(self):
        assert count_expected(character(5, 2), 50) > count_expected(character(3, 2), 50)
        assert count_expected(character(3, 2), 80) > count_expected(character(3, 2), 40)


class TestScan:
    def test_zeta_to_30(self):
        zs = scan_zeros(character(1, 1), 30.0)
        assert zs.certified
        pos = [r.ordinate for r in zs.records if r.ordinate > 0]
        neg = [r.ordinate for r in zs.records if r.ordinate < 0]
        assert len(pos) == len(neg) == 3
        for got, want in zip(pos, ZETA_ORDINATES):
            assert abs(got - want) <= 1e-8
        for got, want in zip(sorted(-t for t in neg), ZETA_ORDINATES):
            assert abs(got - want) <= 1e-8

    def test_mod4_to_15(self):
        zs = scan_zeros(character(4, 3), 15.0)
        assert zs.certified and zs.count == 6
        pos = [r.ordinate for r in zs.records if r.ordinate > 0]
        for got, want in zip(pos, CHI4_ORDINATES):
            assert abs(got - want) <= 1e-8

    def test_mod3_first_ordinate(self):
        zs = scan_zeros(character(3, 2), 12.0)
        pos = [r.ordinate for r in zs.records if r.ordinate > 0]
        assert abs(pos[0] - CHI3_ORDINATES[0]) <= 1e-8
        assert abs(pos[1] - CHI3_ORDINATES[1]) <= 1e-8

    def test_empty_window_certified(self):
        zs = scan_zeros(character(3, 2), 0.5)
        assert zs.count == 0 and zs.certified

    def test_residuals_below_tolerance(self):
        zs = scan_zeros(character(5, 2), 25.0)
        assert zs.certified
        assert all(r.residual <= 1e-6 for r in zs.records)
        assert all(r.bracket[0] <= r.ordinate <= r.bracket[1] for r in zs.records)
        assert all(r.bracket[1] - r.bracket[0] <= zs.tolerance for r in zs.records)

    def test_ordinates_sorted_and_separated(self):
        zs = scan_zeros(character(7, 3), 40.0)
        o = zs.ordinates
        assert np.all(np.diff(o) > zs.tolerance)

    def test_mesh_halving_stability(self):
        chi = character(4, 3)
        a = scan_zeros(chi, 15.0)
        b = scan_zeros(chi, 15.0, mesh_step=default_mesh_step(4, 15.0) / 2)
        assert a.count == b.count
        assert np.max(np.abs(a.ordinates - b.ordinates)) <= 1e-9

    def test_conjugate_symmetry_of_ordinates(self):
        # complex pair mod 5: ordinates of the conjugate mirror in sign
        chi = character(5, 2)
        a = scan_zeros(chi, 30.0)
        b = scan_zeros(chi.conjugate(), 30.0)
        assert a.count == b.count
        assert np.max(np.abs(a.ordinates + b.ordinates[::-1])) <= 1e-9

    def test_asymmetry_of_complex_character(self):
        # a complex character's zeros are not symmetric about 0
        zs = scan_zeros(character(5, 2), 30.0)
        pos = zs.ordinates[zs.ordinates > 0]
        neg = -zs.ordinates[zs.ordinates < 0][::-1]
        k = min(len(pos), len(neg))
        assert np.max(np.abs(pos[:k] - neg[:k])) > 1e-3

    def test_imprimitive_rejected(self):
        with pytest.raises(ValueError):
            scan_zeros(character(12, 5), 10.0)

    def test_bad_parameters_rejected(self):
        chi = character(4, 3)
        with pytest.raises(ValueError):
            scan_zeros(chi, -5.0)
        with pytest.raises(ValueError):
            scan_zeros(chi, 10.0, mesh_step=0.9)
        with pytest.raises(ValueError):
            scan_zeros(chi, 10.0, tolerance=0.2)

    def test_certificate_fields(self):
        zs = scan_zeros(character(8, 3), 20.0)
        assert zs.label.modulus == 8 and zs.conductor == 8
        assert zs.branch == "principal-sqrt"
        assert zs.height == 20.0 and zs.mesh_step <= 0.05


class TestRefine:
    def test_refines_known_zero(self):
        r = refine_zero(character(1, 1), (14.0, 14.3))
        assert abs(r.ordinate - ZETA_ORDINATES[0]) <= 1e-9
        assert r.residual <= 1e-8
        assert r.bracket[1] - r.bracket[0] <= 1e-10

    def test_tightens_to_requested_width(self):
        r = refine_zero(character(4, 3), (5.9, 6.1), tolerance=1e-8)
        assert r.bracket[1] - r.bracket[0] <= 1e-8
        assert abs(r.ordinate - CHI4_ORDINATES[0]) <= 1e-7

    def test_degenerate_bracket_rejected(self):
        with pytest.raises(ValueError):
            refine_zero(character(1, 1), (2.0, 3.0))
        with pytest.raises(ValueError):
            refine_zero(character(1, 1), (3.0, 2.0))


class TestRefinementCertificate:
    def test_every_bracket_flips_sign(self):
        chi = character(5, 2)
        zs = scan_zeros(chi, 30.0)
        assert zs.certified and zs.count > 0
        lo = np.array([r.bracket[0] for r in zs.records])
        hi = np.array([r.bracket[1] for r in zs.records])
        assert np.all(lo < hi)
        assert np.all(hi - lo <= zs.tolerance)
        assert np.all((lo <= zs.ordinates) & (zs.ordinates <= hi))
        prec = EvalPrecision.for_height(30.0)
        zlo, zhi = hardy_z_batch(chi, lo, prec), hardy_z_batch(chi, hi, prec)
        assert np.all(np.sign(zlo) * np.sign(zhi) < 0)

    def test_bracket_check_rejects_each_defect(self):
        ords, lo, hi = np.array([1.5e-11]), np.array([0.0]), np.array([1e-10])
        zlo, zhi = np.array([-1.0]), np.array([2.0])
        assert _brackets_certified(ords, lo, hi, zlo, zhi, 1e-10)
        assert not _brackets_certified(ords, lo, hi, zlo, 3 * zlo, 1e-10)  # no sign change
        assert not _brackets_certified(ords, lo, 2 * hi, zlo, zhi, 1e-10)  # too wide
        assert not _brackets_certified(ords + 1e-9, lo, hi, zlo, zhi, 1e-10)  # outside
        # a bracket collapsed onto an exact zero stands on its own
        point = np.array([0.25])
        assert _brackets_certified(point, point, point, np.zeros(1), np.zeros(1), 1e-10)

    def test_step_cap_reached_is_not_certified(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(zeros, "REFINE_STEP_CAP", 3)
        zs = scan_zeros(character(5, 2), 20.0)
        assert zs.count > 0 and not zs.certified
        code = main(["zeros", "--chi", "5:2", "--T", "20", "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        assert code == 3

    def test_refinement_points_per_zero(self, monkeypatch):
        points = [0]

        def counting(chi, ts, prec=None):
            points[0] += np.size(ts)
            return hardy_z_batch(chi, ts, prec)

        monkeypatch.setattr(zeros, "hardy_z_batch", counting)
        T = 60.0
        mesh = 2 * math.ceil(T / default_mesh_step(5, T)) + 1
        found = refined = 0
        for chi in enumerate_characters(5):
            if chi.is_primitive:
                points[0] = 0
                zs = scan_zeros(chi, T)
                assert zs.certified
                found += zs.count
                refined += points[0] - mesh
        # dip re-tests and the final residual count too
        assert refined <= 12 * found

    @pytest.mark.parametrize(
        "f",
        [
            lambda t: (t - 0.0123) ** 3,
            lambda t: np.expm1(40.0 * (t - 0.031)),
            lambda t: np.arctan(1e6 * (t - 0.0049)),
            lambda t: t**9 - 0.02**9,
        ],
        ids=["cubic", "exponential", "step", "flat"],
    )
    def test_hard_functions_close_within_twice_bisection(self, monkeypatch, f):
        steps = [0]

        def fake(chi, ts, prec=None):
            steps[0] += 1
            return f(np.asarray(ts, dtype=np.float64))

        monkeypatch.setattr(zeros, "hardy_z_batch", fake)
        tol, lo, hi = 1e-10, np.array([0.0]), np.array([0.05])
        ords, resid, blo, bhi, zlo, zhi = _refine_brackets(
            None, lo, hi, f(lo), f(hi), None, tol
        )
        assert _brackets_certified(ords, blo, bhi, zlo, zhi, tol)
        # the last call is the residual; a halving costs at most two steps
        assert steps[0] - 1 <= 2 * math.ceil(math.log2(0.05 / tol))


class TestTruncation:
    def test_truncate_recertifies(self):
        zs = scan_zeros(character(1, 1), 30.0)
        tr = zs.truncated(20.0)
        assert tr.height == 20.0
        assert tr.count == 2  # just +-14.13
        assert tr.certified
        assert all(abs(r.ordinate) <= 20.0 for r in tr.records)

    def test_truncate_beyond_height_rejected(self):
        zs = scan_zeros(character(4, 3), 15.0)
        with pytest.raises(ValueError):
            zs.truncated(16.0)


class TestModulusMap:
    def test_mod4_sharing(self):
        m = zeros_for_modulus(4, 15.0)
        assert len(m) == 2
        principal = m[character(4, 1).label]
        nonprincipal = m[character(4, 3).label]
        assert principal.label.modulus == 1  # the q=1 set stands in
        assert nonprincipal.label.modulus == 4
        assert nonprincipal.count == 6

    def test_mod12_shares_inducers(self):
        m = zeros_for_modulus(12, 15.0)
        assert len(m) == 4
        # 12:5 is induced from 3:2, 12:7 from 4:3
        lab5 = character(12, 5).label
        lab7 = character(12, 7).label
        assert m[lab5].label.modulus == 3
        assert m[lab7].label.modulus == 4
        # shared by reference with the primitive scans
        m3 = zeros_for_modulus(3, 15.0)
        assert m[lab5].count == m3[character(3, 2).label].count

    def test_all_certified_small(self):
        for q in (1, 3, 5, 8):
            for zs in zeros_for_modulus(q, 25.0).values():
                assert zs.certified


class TestCompletenessModerate:
    # the full conductor sweep at T=100 lives in the acceptance suite
    @pytest.mark.parametrize("q", [1, 3, 4, 5, 7, 8])
    def test_certified_at_T50(self, q):
        for chi in enumerate_characters(q):
            if chi.is_primitive:
                zs = scan_zeros(chi, 50.0)
                assert zs.certified, (q, chi.index, zs.count, zs.expected_count)
