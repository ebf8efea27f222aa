import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from zeropair import lfunc, zeros
from zeropair.characters import character, conductor_and_inducer, enumerate_characters
from zeropair.cli import main
from zeropair.lfunc import EvalPrecision, PrecisionError, hardy_z_batch
from zeropair.paircorr import CertificationError as PairCorrCertificationError
from zeropair.zeros import (
    CertificationError,
    ZeroSet,
    _brackets_certified,
    _refine_brackets,
    character_family,
    conjugate_pair,
    count_expected,
    default_mesh_step,
    refine_zero,
    require_certified,
    scan_pair,
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
        pos = [t for t in zs.ordinates if t > 0]
        neg = [t for t in zs.ordinates if t < 0]
        assert len(pos) == len(neg) == 3
        for got, want in zip(pos, ZETA_ORDINATES):
            assert abs(got - want) <= 1e-8
        for got, want in zip(sorted(-t for t in neg), ZETA_ORDINATES):
            assert abs(got - want) <= 1e-8

    def test_mod4_to_15(self):
        zs = scan_zeros(character(4, 3), 15.0)
        assert zs.certified and zs.count == 6
        pos = [t for t in zs.ordinates if t > 0]
        for got, want in zip(pos, CHI4_ORDINATES):
            assert abs(got - want) <= 1e-8

    def test_mod3_first_ordinate(self):
        zs = scan_zeros(character(3, 2), 12.0)
        pos = [t for t in zs.ordinates if t > 0]
        assert abs(pos[0] - CHI3_ORDINATES[0]) <= 1e-8
        assert abs(pos[1] - CHI3_ORDINATES[1]) <= 1e-8

    def test_empty_window_certified(self):
        zs = scan_zeros(character(3, 2), 0.5)
        assert zs.count == 0 and zs.certified

    def test_residuals_below_tolerance(self):
        zs = scan_zeros(character(5, 2), 25.0)
        assert zs.certified
        assert np.all(zs.residual <= 1e-6)
        assert np.all((zs.lo <= zs.ordinates) & (zs.ordinates <= zs.hi))
        assert np.all(zs.hi - zs.lo <= zs.tolerance)

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


class TestMeshSharing:
    def test_characters_of_one_modulus_share_the_columns(self):
        lfunc._mesh_columns.cache_clear()
        chars = [chi for chi in enumerate_characters(23) if chi.is_primitive]
        for chi in chars:
            assert scan_zeros(chi, 30.0).certified
        info = lfunc._mesh_columns.cache_info()
        # each scan reads the mesh once, for its values and its evaluator
        assert (info.misses, info.hits) == (1, len(chars) - 1) == (1, 20)


class TestRefine:
    def test_refines_known_zero(self):
        ordinate, lo, hi, residual = refine_zero(character(1, 1), (14.0, 14.3))
        assert abs(ordinate - ZETA_ORDINATES[0]) <= 1e-9
        assert residual <= 1e-8
        assert hi - lo <= 1e-10

    def test_tightens_to_requested_width(self):
        ordinate, lo, hi, _ = refine_zero(character(4, 3), (5.9, 6.1), tolerance=1e-8)
        assert hi - lo <= 1e-8
        assert abs(ordinate - CHI4_ORDINATES[0]) <= 1e-7

    def test_step_cap_reached_raises(self, monkeypatch):
        monkeypatch.setattr(zeros, "REFINE_STEP_CAP", 3)
        with pytest.raises(PrecisionError):
            refine_zero(character(1, 1), (14.0, 14.3))

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
        lo, hi = zs.lo, zs.hi
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
        # the mesh comes with scan_mesh's evaluator, so every point of the
        # evaluator belongs to a dip re-test or a refinement step, and every
        # hardy_z_batch point to a final residual
        points = [0]
        mesh = zeros.scan_mesh

        def counting_mesh(chi, T, mesh_step, prec):
            ts, z, z_at = mesh(chi, T, mesh_step, prec)

            def counted(ts):
                points[0] += np.size(ts)
                return z_at(ts)

            return ts, z, counted

        def counting(chi, ts, prec=None):
            points[0] += np.size(ts)
            return hardy_z_batch(chi, ts, prec)

        monkeypatch.setattr(zeros, "scan_mesh", counting_mesh)
        monkeypatch.setattr(zeros, "hardy_z_batch", counting)
        found = refined = 0
        for chi in enumerate_characters(5):
            if chi.is_primitive:
                points[0] = 0
                zs = scan_zeros(chi, 60.0)
                assert zs.certified
                found += zs.count
                refined += points[0]
        assert found > 0 and refined >= found
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
    def test_hard_functions_close_within_twice_bisection(self, f):
        steps = [0]

        def fake(ts):
            steps[0] += 1
            return f(np.asarray(ts, dtype=np.float64))

        tol, lo, hi = 1e-10, np.array([0.0]), np.array([0.05])
        ords, blo, bhi, zlo, zhi = _refine_brackets(fake, lo, hi, f(lo), f(hi), tol)
        assert _brackets_certified(ords, blo, bhi, zlo, zhi, tol)
        # every call is a step (the residual is the caller's); a halving costs at most two
        assert steps[0] <= 2 * math.ceil(math.log2(0.05 / tol))


class TestBracketSources:
    """Every bracket of a scan, on the mesh, at a dip's half steps or in
    refine_zero, comes from one rule; a fake Z on a known mesh shows each.
    The complex character 5:2 is scanned on the whole mesh, the real
    character 1:1 on its half [-h, 1] and reflected."""

    MESH = np.concatenate([-np.linspace(1.0, 0.05, 20), np.linspace(0.0, 1.0, 21)])

    @pytest.fixture
    def fake_z(self, monkeypatch):
        def use(f):
            def batch(chi, ts, prec=None):
                return f(np.asarray(ts, dtype=np.float64))

            def mesh(chi, T, mesh_step, prec):
                return self.MESH, f(self.MESH), lambda ts: batch(chi, ts)

            monkeypatch.setattr(zeros, "scan_mesh", mesh)
            monkeypatch.setattr(zeros, "hardy_z_batch", batch)

        return use

    def scan(self, label=(5, 2)):
        return scan_zeros(character(*label), 1.0, mesh_step=0.05)

    def test_dip_yields_a_close_pair(self, fake_z):
        f = lambda t: (t - 0.31) * (t - 0.33)
        assert np.all(f(self.MESH) > 0)  # no sign change on the mesh
        fake_z(f)
        zs = self.scan()
        assert zs.count == 2
        assert np.all(np.abs(zs.ordinates - [0.31, 0.33]) <= 1e-10)
        assert np.all(zs.lo < zs.hi)

    def test_exact_zero_at_a_mesh_node(self, fake_z):
        node = self.MESH[30]
        fake_z(lambda t: t - node)
        zs = self.scan()
        assert zs.count == 1
        assert zs.ordinates[0] == zs.lo[0] == zs.hi[0] == node
        assert zs.residual[0] == 0.0

    def test_exact_zero_at_a_dip_half_step(self, fake_z):
        m = 0.5 * (self.MESH[25] + self.MESH[26])  # left half step of the dip at t_26
        f = lambda t: (t - m) * (t - m - 0.015)
        assert np.all(f(self.MESH) > 0)
        fake_z(f)
        zs = self.scan()
        hit = zs.ordinates == m
        assert hit.sum() == 1
        assert zs.lo[hit][0] == zs.hi[hit][0] == m

    def test_real_exact_zero_at_the_origin_counts_once(self, fake_z):
        fake_z(lambda t: t**2 * (t**2 - 0.31**2))
        zs = self.scan((1, 1))
        assert zs.count == 3
        assert np.all(np.abs(zs.ordinates - [-0.31, 0.0, 0.31]) <= 1e-10)
        assert zs.ordinates[1] == zs.lo[1] == zs.hi[1] == 0.0 and zs.residual[1] == 0.0

    def test_real_close_pair_behind_a_dip_at_the_origin(self, fake_z):
        # the dip at node 0 is re-tested only because the half scan starts at -h
        f = lambda t: (t**2 - 0.022**2) * (t**2 - 0.027**2)
        assert np.all(f(self.MESH) > 0)  # no sign change on the mesh
        fake_z(f)
        zs = self.scan((1, 1))
        assert zs.count == 4
        assert np.all(np.abs(zs.ordinates - [-0.027, -0.022, 0.022, 0.027]) <= 1e-10)
        assert np.array_equal(zs.ordinates, -zs.ordinates[::-1])
        assert np.array_equal(zs.lo, -zs.hi[::-1]) and np.all(zs.lo < zs.hi)

    def test_uncertified_representative_uncertifies_its_pair(
        self, fake_z, monkeypatch, tmp_path, capsys
    ):
        fake_z(lambda t: np.sin(40.0 * t))  # about 25 zeros where the formula expects none
        scanned = []
        scan = zeros.scan_zeros

        def recording(chi, T, **kwargs):
            scanned.append(chi.label)
            return scan(chi, T, **kwargs)

        monkeypatch.setattr(zeros, "scan_zeros", recording)
        code = main(["zeros", "--q", "5", "--T", "1", "--cache-dir", str(tmp_path), "--json"])
        rows = {row["index"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
        assert code == 3
        assert character(5, 3).label not in scanned and character(5, 2).label in scanned
        assert rows[2]["certified"] is False and rows[3]["certified"] is False
        assert rows[2]["count"] == rows[3]["count"] > 2

    def test_refine_zero_exact_end(self, fake_z):
        fake_z(lambda t: t - 0.25)
        chi = character(1, 1)
        assert refine_zero(chi, (0.25, 0.5)) == (0.25, 0.25, 0.25, 0.0)
        assert refine_zero(chi, (0.0, 0.25)) == (0.25, 0.25, 0.25, 0.0)

    @pytest.mark.parametrize("label", [(1, 1), (5, 2)], ids=["zeta", "complex-mod5"])
    def test_batch_values_do_not_depend_on_the_batch(self, label):
        # batches of two or more points; for q > 1 a one-point batch may move
        # by an ulp, since a one-row matrix product takes another BLAS kernel
        chi = character(*label)
        prec = EvalPrecision.for_height(40.0)
        ts = np.random.default_rng(7).uniform(-40.0, 40.0, 64)
        whole = hardy_z_batch(chi, ts, prec)
        perm = np.random.default_rng(8).permutation(ts.size)
        shuffled = np.empty_like(whole)
        shuffled[perm] = hardy_z_batch(chi, ts[perm], prec)
        parts = np.split(ts, [2, 20, 33])
        split = np.concatenate([hardy_z_batch(chi, part, prec) for part in parts])
        assert np.array_equal(whole, shuffled) and np.array_equal(whole, split)


class TestZeroSetArrays:
    def test_arrays_are_read_only(self):
        zs = scan_zeros(character(4, 3), 15.0)
        for name in ("ordinates", "lo", "hi", "residual"):
            arr = getattr(zs, name)
            assert arr.dtype == np.float64 and arr.shape == (zs.count,)
            with pytest.raises(ValueError):
                arr[0] = 0.0
        # the constructor copies, so a caller's array stays writable and apart
        raw = zs.ordinates.copy()
        other = ZeroSet(**{**vars(zs), "ordinates": raw})
        raw[0] = 0.0
        assert other.ordinates[0] == zs.ordinates[0]

    def test_require_certified(self):
        zs = scan_zeros(character(4, 3), 15.0)
        require_certified(zs, 15.0)
        with pytest.raises(CertificationError, match="reaches only height 15, need 16"):
            require_certified(zs, 16.0)
        with pytest.raises(CertificationError, match="is not certified"):
            require_certified(replace(zs, certified=False), 10.0)
        assert PairCorrCertificationError is CertificationError


class TestWindow:
    @pytest.fixture(scope="class")
    def zs(self):
        return scan_zeros(character(5, 2), 30.0)

    def test_cuts_both_and_positive(self, zs):
        o = zs.ordinates
        assert np.array_equal(zs.window(18.0), o[np.abs(o) <= 18.0])
        assert np.array_equal(zs.window(18.0, "positive"), o[(o > 0.0) & (o <= 18.0)])
        assert 0 < zs.window(18.0).size < zs.count
        assert zs.window(30.0).size == zs.count

    def test_unknown_window_rejected(self, zs):
        with pytest.raises(ValueError, match="window must be one of"):
            zs.window(18.0, "negative")

    def test_uncertified_set_rejected(self, zs):
        with pytest.raises(CertificationError, match="is not certified"):
            replace(zs, certified=False).window(18.0)

    def test_short_set_rejected(self, zs):
        with pytest.raises(CertificationError, match="reaches only height 30, need 31"):
            zs.window(31.0, "positive")


class TestCharacterFamily:
    def test_weights_and_windows(self):
        sets = zeros_for_modulus(5, 20.0)
        gammas, weights = character_family(5, 2, 15.0, sets, "positive")
        assert gammas.shape == weights.shape and weights.dtype == np.complex128
        # one block per character, in enumerate_characters order, each
        # weighted by the constant conj(chi(2))
        start = 0
        for chi in enumerate_characters(5):
            o = sets[chi.label].window(15.0, "positive")
            block = slice(start, start + o.size)
            assert np.array_equal(gammas[block], o)
            assert np.all(weights[block] == chi(2).conjugate())
            start += o.size
        assert start == gammas.size

    def test_missing_set_named(self):
        sets = zeros_for_modulus(4, 15.0)
        del sets[character(4, 3).label]
        with pytest.raises(KeyError, match="no zero set supplied for character 4:3"):
            character_family(4, 1, 15.0, sets)
        with pytest.raises(ValueError):
            character_family(4, 2, 15.0, sets)  # 2 is not a unit mod 4


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

    @pytest.mark.parametrize("q", [15, 24])
    def test_one_scan_per_conjugate_pair_in_label_order(self, monkeypatch, q):
        scanned = {}

        def counting(chi, T, **kwargs):
            zs = scan_zeros(chi, T, **kwargs)
            assert chi.label not in scanned
            scanned[chi.label] = zs
            return zs

        monkeypatch.setattr(zeros, "scan_zeros", counting)
        m = zeros_for_modulus(q, 10.0)
        chars = enumerate_characters(q)
        assert list(m) == [chi.label for chi in chars]
        inducers = {chi.label: conductor_and_inducer(chi)[1] for chi in chars}
        reps = {psi.label: conjugate_pair(psi)[0].label for psi in inducers.values()}
        assert list(scanned) == sorted(set(reps.values()),
                                       key=lambda lab: (lab.modulus, lab.index))
        assert (q == 15) == (len(reps) > len(scanned))  # mod 15 has complex pairs
        for label, psi in inducers.items():
            zs, rep = m[label], scanned[reps[psi.label]]
            if psi.label == rep.label:
                # induced characters share their inducer's set by reference
                assert zs is rep
            else:
                # the other member of a pair is the representative's mirror
                assert (zs.label, zs.certified) == (psi.label, rep.certified)
                assert np.array_equal(zs.ordinates, -rep.ordinates[::-1])
                assert np.array_equal(zs.lo, -rep.hi[::-1])
                assert np.array_equal(zs.residual, rep.residual[::-1])

    def test_cache_path_and_force(self):
        calls = []

        class FakeCache:
            def load_or_scan(self, chi, T, mesh_step=None, tolerance=None, force=False):
                calls.append((chi.label, T, mesh_step, tolerance, force))
                return scan_pair(chi, T, mesh_step=mesh_step, tolerance=tolerance)

        m = zeros_for_modulus(15, 10.0, tolerance=1e-9, cache=FakeCache(), force=True)
        assert len(m) == 8
        # one call per conjugate pair, through its representative
        reps = {conjugate_pair(character(lab.modulus, lab.index))[0].label
                for lab in (zs.label for zs in m.values())}
        assert [c[0] for c in calls] == sorted(reps, key=lambda lab: (lab.modulus, lab.index))
        assert len(calls) < len({zs.label for zs in m.values()})
        assert all(c[1:] == (10.0, None, 1e-9, True) for c in calls)

    def test_threads_match_serial_bit_for_bit(self):
        serial = zeros_for_modulus(24, 12.0)
        pooled = zeros_for_modulus(24, 12.0, threads=2)
        assert list(serial) == list(pooled)
        for label, zs in serial.items():
            other = pooled[label]
            assert (other.label, other.certified, other.expected_count) == (
                zs.label, zs.certified, zs.expected_count)
            for name in ("ordinates", "lo", "hi", "residual"):
                assert np.array_equal(getattr(zs, name), getattr(other, name))
        # the pool keeps the sharing: one object per inducer
        assert len({id(zs) for zs in pooled.values()}) == len({zs.label for zs in pooled.values()})

    @pytest.mark.parametrize("q,T,threads", [(23, 100.0, 2), (15, 30.0, 2), (15, 30.0, 6)])
    def test_threads_build_each_mesh_once(self, monkeypatch, q, T, threads):
        # the first pairs of a modulus start at once; one thread builds its
        # mesh and the others wait for it, also with more threads than cores
        # and a short switch interval
        seen = []
        release = zeros.release_meshes

        def recording():
            seen.append(lfunc._mesh_columns.cache_info())
            release()

        lfunc.release_meshes()
        monkeypatch.setattr(zeros, "release_meshes", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            m = zeros_for_modulus(q, T, threads=threads)
        finally:
            sys.setswitchinterval(interval)
        moduli = {zs.label.modulus for zs in m.values()}
        assert seen[0].misses == len(moduli) == (2 if q == 23 else 4)
        for label, zs in zeros_for_modulus(q, T).items():
            assert np.array_equal(m[label].ordinates, zs.ordinates)

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
