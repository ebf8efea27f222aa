import cmath
import math
import random
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from zeropair import lfunc, zeros
from zeropair.characters import character, enumerate_characters
from zeropair.lfunc import (
    BERNOULLI_TERMS,
    TARGET_ABS_ERROR,
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
    mesh_exp_sums,
    root_number,
    scan_mesh,
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
        prec = EvalPrecision(direct_terms=5)  # for_height(40) needs 19
        with pytest.raises(PrecisionError):
            hurwitz_zeta(0.5 + 40j, 0.5, prec)

    def test_self_consistency_doubling_direct_terms(self):
        prec = EvalPrecision.for_height(50.0)
        doubled = EvalPrecision(2 * prec.direct_terms)
        for t in (0.0, 17.3, 50.0):
            s = 0.5 + 1j * t
            v1 = hurwitz_zeta(s, 0.25, prec)
            v2 = hurwitz_zeta(s, 0.25, doubled)
            assert abs(v1 - v2) <= TARGET_ABS_ERROR

    def test_precision_parameters_validated(self):
        with pytest.raises(ValueError):
            EvalPrecision(direct_terms=0)


class TestBernoulli:
    def test_exact_against_mpmath(self):
        for m in range(61):
            p, q = mp.bernfrac(m)
            assert lfunc.bernoulli(m) == Fraction(int(p), int(q)), m
            assert float(lfunc.bernoulli(m)) == pytest.approx(float(mp.bernoulli(m)), rel=1e-15)


def _critical_bound(T: float, n: int) -> float:
    """The remainder bound at 1/2 + iT for the worst shift a -> 0, where w = N."""
    return float(_em_remainder_bound(np.array([0.5 + 1j * T]), float(n))[0])


class TestPrecisionChoice:
    @pytest.mark.parametrize("T", [15.0, 30.0, 100.0, 1000.0])
    def test_for_height_is_minimal(self, T):
        prec = EvalPrecision.for_height(T)
        n = prec.direct_terms
        assert BERNOULLI_TERMS == 12
        assert _critical_bound(T, n) <= TARGET_ABS_ERROR < _critical_bound(T, n - 1)

    def test_documented_sizes(self):
        got = [EvalPrecision.for_height(T).direct_terms for T in (30.0, 100.0, 1000.0)]
        assert got == [15, 46, 471]

    @pytest.mark.parametrize("T", [15.0, 30.0, 100.0, 1000.0])
    def test_one_term_fewer_fails_the_certificate(self, T):
        prec = EvalPrecision.for_height(T)
        fewer = EvalPrecision(prec.direct_terms - 1)
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


def _mesh_elements(q: int, T: float) -> tuple[int, int]:
    """k x N and k x (mesh nodes + pad) of the default scan of modulus q to T,
    by arithmetic alone."""
    k = len(lfunc._unit_shifts(q))
    half = math.ceil(T / zeros.DEFAULT_MESH_STEP)
    return k * EvalPrecision.for_height(T).direct_terms, k * (half + 1 + lfunc._MESH_PAD)


class TestHeightLimits:
    @pytest.mark.parametrize("T", [5e12, 1e300])
    def test_overflowing_remainder_bound_is_a_precision_error(self, T):
        with pytest.raises(PrecisionError, match="remainder bound overflows"):
            EvalPrecision.for_height(T)

    def test_budget_holds_the_documented_runs_and_refuses_height_1e9(self):
        assert _mesh_elements(97, 1000.0) == (96 * 471, 1_922_112)
        assert max(_mesh_elements(1, 1e5)) == 2_000_022
        # a few times the largest documented run: the budget is not the limit there
        assert 8 * 2_000_022 <= lfunc._ARRAY_ELEMENTS
        k_n, k_nodes = _mesh_elements(5, 1e9)
        assert k_n == 4 * 616_417_599 > lfunc._ARRAY_ELEMENTS
        assert k_nodes > lfunc._ARRAY_ELEMENTS

    def test_mesh_over_the_budget_is_refused_before_the_mesh_pass(self, monkeypatch):
        prec = EvalPrecision.for_height(30.0)
        step = zeros.DEFAULT_MESH_STEP
        monkeypatch.setattr(lfunc, "_ARRAY_ELEMENTS", max(_mesh_elements(5, 30.0)) - 1)
        lfunc._mesh_columns.cache_clear()
        with pytest.raises(PrecisionError, match="array elements"):
            lfunc.mesh_interpolation(5, 30.0, step, prec)
        with pytest.raises(PrecisionError, match="array elements"):
            scan_mesh(character(5, 2), 30.0, step, prec)
        assert lfunc._mesh_columns.cache_info().misses == 0
        monkeypatch.setattr(lfunc, "_ARRAY_ELEMENTS", max(_mesh_elements(5, 30.0)))
        assert lfunc.mesh_interpolation(5, 30.0, step, prec).order >= 1

    def test_euler_maclaurin_pass_over_the_budget_is_refused(self, monkeypatch):
        prec = EvalPrecision.for_height(30.0)
        s = np.full((10, 4), 0.5 + 30j)
        monkeypatch.setattr(lfunc, "_ARRAY_ELEMENTS", 40 * prec.direct_terms - 1)
        with pytest.raises(PrecisionError, match="array elements"):
            hurwitz_zeta_batch(s, np.array([0.2, 0.4, 0.6, 0.8]), prec)
        monkeypatch.setattr(lfunc, "_ARRAY_ELEMENTS", 40 * prec.direct_terms)
        assert hurwitz_zeta_batch(s, np.array([0.2, 0.4, 0.6, 0.8]), prec).shape == (10, 4)


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
            sizes.append(np.broadcast(s, a).size * prec.direct_terms)
            return kernel(s, a, prec)

        monkeypatch.setattr(lfunc, "_EM_KERNEL_ELEMENTS", 2000)
        monkeypatch.setattr(lfunc, "hurwitz_zeta_batch", recording)
        chunked = l_critical_batch(chi, ts)
        assert len(sizes) > 1 and max(sizes) <= 2000
        assert sum(sizes) == ts.size * 6 * EvalPrecision.for_height(40.0).direct_terms
        assert np.max(np.abs(chunked - whole)) <= 1e-13 * np.max(np.abs(whole))

    def test_a_column_of_points_equals_the_broadcast_points(self):
        prec = EvalPrecision.for_height(60.0)
        s = (0.5 + 1j * np.array([-58.2, -3.0, 0.0, 0.4, 11.9, 37.5, 60.0]))[:, None]
        shifts = np.arange(1, 24) / 23.0
        column = hurwitz_zeta_batch(s, shifts, prec)
        assert column.shape == (7, 23)
        assert np.array_equal(column, hurwitz_zeta_batch(np.broadcast_to(s, (7, 23)), shifts, prec))


class TestRemainderAtSmallestShift:
    def test_smallest_shift_carries_the_largest_bound(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(0.2, 3.0, 200) + 1j * rng.uniform(-150.0, 150.0, 200)
        shifts = np.array([a / 23 for a in range(1, 23)])
        n = 30
        every = _em_remainder_bound(s[:, None], n + shifts)
        smallest = _em_remainder_bound(s, n + shifts.min())
        assert np.max(np.abs(smallest - every.max(axis=1)) / every.max(axis=1)) <= 1e-14

    def test_broadcast_kernel_still_raises_at_the_certified_edge(self):
        prec = EvalPrecision.for_height(100.0)
        fewer = EvalPrecision(prec.direct_terms - 1)
        s = np.broadcast_to(np.array([[0.5 + 100j]]), (1, 3))
        shifts = np.array([0.9, 1e-9, 0.5])
        hurwitz_zeta_batch(s, shifts, prec)
        with pytest.raises(PrecisionError):
            hurwitz_zeta_batch(s, shifts, fewer)


def _primitive(q):
    return [chi for chi in enumerate_characters(q) if chi.is_primitive]


class TestMeshEvaluator:
    def test_mesh_points(self):
        T, step = 30.0, 0.05
        ts, z, _ = scan_mesh(character(1, 1), T, step, EvalPrecision.for_height(T))
        assert ts.size == z.size == 2 * math.ceil(T / step) + 1
        assert ts[0] == -T and abs(ts[-1] - T) <= 1e-12
        assert np.all(np.diff(ts) <= step + 1e-12)
        assert not ts.flags.writeable

    def test_negative_half_is_the_conjugate_of_the_positive(self):
        # only the half t >= 0 is kept; the product on the whole mesh, of the
        # columns and of the direct sums the evaluator interpolates, is that
        # of the mirrored conjugate rows, to the same floats
        T, step = 30.0, 0.05
        prec = EvalPrecision.for_height(T)
        for q in (23, 97):
            chi = _primitive(q)[0]
            lfunc._mesh_columns.cache_clear()
            ts, z, _ = scan_mesh(chi, T, step, prec)
            half = ts.size // 2
            assert ts[half] == 0.0 and np.array_equal(ts, -ts[::-1])
            nodes, direct, cols = lfunc._mesh_columns(q, T, step, prec)
            assert cols.shape == (half + 1, q - 1) and np.array_equal(nodes[: half + 1], ts[half:])
            assert direct.shape == (half + 1 + lfunc._MESH_PAD, q - 1) == (nodes.size, q - 1)
            values = lfunc._residues(chi.label)[1]
            for rows in (cols, direct):
                whole = np.concatenate([rows[:0:-1].conj(), rows]) @ values
                assert np.array_equal(lfunc._mirrored(rows, values), whole)

    def test_matches_hardy_z_batch_for_every_character_mod_23(self):
        T = 30.0
        prec = EvalPrecision.for_height(T)
        chars = _primitive(23)
        assert len(chars) == 21
        for chi in chars:
            ts, z, _ = scan_mesh(chi, T, zeros.DEFAULT_MESH_STEP, prec)
            ref = hardy_z_batch(chi, ts, prec)
            assert np.max(np.abs(z - ref) / (1 + np.abs(ref))) <= 1e-13

    def test_matches_hardy_z_batch_at_height_1000(self):
        T = 1000.0
        chi = character(1, 1)
        prec = EvalPrecision.for_height(T)
        ts, z, _ = scan_mesh(chi, T, zeros.DEFAULT_MESH_STEP, prec)
        ref = hardy_z_batch(chi, ts, prec)
        assert np.max(np.abs(z - ref) / (1 + np.abs(ref))) <= 2e-12

    def test_against_mpmath_siegelz_at_height_1000(self):
        T = 1000.0
        prec = EvalPrecision.for_height(T)
        ts, z, _ = scan_mesh(character(1, 1), T, zeros.DEFAULT_MESH_STEP, prec)
        picks = np.random.default_rng(7).choice(ts.size, 40, replace=False)
        picks = np.concatenate([picks, [0, ts.size // 2, ts.size - 1]])
        with mp.workdps(20):
            for i in picks:
                assert abs(z[i] - float(mp.siegelz(mp.mpf(float(ts[i]))))) <= 2e-12

    def test_one_term_fewer_raises(self):
        T = 30.0
        prec = EvalPrecision.for_height(T)
        fewer = EvalPrecision(prec.direct_terms - 1)
        chi = _primitive(23)[0]
        scan_mesh(chi, T, 0.05, prec)
        with pytest.raises(PrecisionError):
            scan_mesh(chi, T, 0.05, fewer)

    def test_corrupted_rotation_raises(self, monkeypatch):
        chi = _primitive(23)[3]
        tilted = lfunc._rotation(chi.label) * cmath.exp(0.3j)
        prec = EvalPrecision.for_height(30.0)
        scan_mesh(chi, 30.0, 0.05, prec)
        monkeypatch.setattr(lfunc, "_rotation", lambda label: tilted)
        with pytest.raises(RealnessError):
            scan_mesh(chi, 30.0, 0.05, prec)

    def test_imprimitive_rejected(self):
        with pytest.raises(ValueError):
            scan_mesh(character(12, 5), 10.0, 0.05, EvalPrecision.for_height(10.0))

    def test_column_blocks_stay_within_the_element_budget(self, monkeypatch):
        T, step = 30.0, 0.05
        prec = EvalPrecision.for_height(T)
        lfunc._mesh_columns.cache_clear()
        whole = lfunc._mesh_columns(23, T, step, prec)
        sizes = []
        matmul = np.matmul

        def recording(lead, offs):
            sizes.append(lead.size + offs.size)
            return matmul(lead, offs)

        monkeypatch.setattr(lfunc, "_EM_CHUNK_ELEMENTS", 5000)
        monkeypatch.setattr(lfunc, "_EM_KERNEL_ELEMENTS", 22 * 50)  # the tail by 50 rows
        monkeypatch.setattr(lfunc.np, "matmul", recording)
        lfunc._mesh_columns.cache_clear()
        blocked = lfunc._mesh_columns(23, T, step, prec)
        lfunc._mesh_columns.cache_clear()
        assert len(sizes) > 1 and max(sizes) <= 5000
        assert all(np.array_equal(b, w) for b, w in zip(blocked, whole))

    @pytest.mark.parametrize("label, T, tol", [((1, 1), 1000.0, 2e-12), ((23, 2), 30.0, 1e-13)])
    def test_negative_half_matches_hardy_z_batch_at_minus_t(self, label, T, tol):
        # the phase is computed on t >= 0 and mirrored
        chi = character(*label)
        prec = EvalPrecision.for_height(T)
        ts, z, _ = scan_mesh(chi, T, zeros.DEFAULT_MESH_STEP, prec)
        neg = ts < 0
        ref = hardy_z_batch(chi, ts[neg], prec)
        assert np.max(np.abs(z[neg] - ref) / (1 + np.abs(ref))) <= tol


class TestMeshInterpolation:
    """scan_mesh's evaluator: Z anywhere in [-T, T] from the direct sums of the
    scan mesh, within the truncation bound of mesh_interpolation."""

    @pytest.mark.parametrize("label, T", [((1, 1), 1000.0), ((23, 2), 100.0)])
    def test_within_stated_bound_of_hardy_z_batch(self, label, T):
        chi = character(*label)
        assert chi.is_primitive and (label[0] == 1 or not chi.is_real)
        prec = EvalPrecision.for_height(T)
        step = zeros.DEFAULT_MESH_STEP
        plan = lfunc.mesh_interpolation(label[0], T, step, prec)
        assert plan.truncation <= TARGET_ABS_ERROR
        ts = np.random.default_rng(5).uniform(-T, T, 300)
        ts = np.concatenate([ts, [-T, 0.0, T]])
        got = scan_mesh(chi, T, step, prec)[2](ts)
        ref = hardy_z_batch(chi, ts, prec)
        assert np.max(np.abs(got - ref)) <= plan.truncation + TARGET_ABS_ERROR

    def test_truncation_bound_leaves_out_the_rounding_of_the_nodes_at_height_10000(self):
        # at q = 1, T = 10^4 the nodes' rounding, not the truncation, sets the
        # error: the difference from hardy_z_batch exceeds the truncation bound
        # plus the target, and stays within the truncation bound plus the
        # stencil's Lebesgue constant times the nodes' own difference from it
        T = 10_000.0
        chi = character(1, 1)
        prec = EvalPrecision.for_height(T)
        step = zeros.DEFAULT_MESH_STEP
        plan = lfunc.mesh_interpolation(1, T, step, prec)
        p, h = plan.order, plan.step
        ts = np.random.default_rng(5).uniform(-T, T, 200)
        mesh_ts, mesh_z, z_at = scan_mesh(chi, T, step, prec)
        err = np.abs(z_at(ts) - hardy_z_batch(chi, ts, prec))
        # the stencil of t: the p + 1 nodes from round(t / h - p / 2)
        first = np.floor(ts / h - 0.5 * p + 0.5)
        nodes = (first[:, None] + np.arange(p + 1)) * h
        at = np.searchsorted(mesh_ts, nodes.ravel() - h / 2)
        assert np.max(np.abs(mesh_ts[at] - nodes.ravel())) <= 1e-9 * h
        node_err = np.abs(mesh_z[at] - hardy_z_batch(chi, mesh_ts[at], prec)).reshape(nodes.shape)
        u = np.linspace(p / 2 - 0.5, p / 2 + 0.5, 201)
        lagrange = np.prod([[(u - i) / (j - i) for i in range(p + 1) if i != j]
                            for j in range(p + 1)], axis=1)
        lebesgue = float(np.max(np.abs(lagrange).sum(axis=0)))
        assert 1.0 < lebesgue <= 2.04
        assert np.max(err) > plan.truncation + TARGET_ABS_ERROR
        assert np.all(err <= plan.truncation + lebesgue * np.max(node_err, axis=1)
                      + TARGET_ABS_ERROR)

    def test_order_is_the_smallest_that_meets_the_target(self):
        T = 100.0
        prec = EvalPrecision.for_height(T)
        plan = lfunc.mesh_interpolation(23, T, zeros.DEFAULT_MESH_STEP, prec)
        p = plan.order
        def bound(order):
            return lfunc._stencil_factor(plan.scale, plan.width * plan.step, order) * (
                lfunc._stencil_peak(order))

        assert plan.truncation == bound(p) <= TARGET_ABS_ERROR
        assert bound(p - 1) > TARGET_ABS_ERROR

    def test_stencil_peak_bounds_the_node_polynomial_near_the_centre(self):
        for p in range(1, 13):
            u = p / 2 + np.linspace(-0.5, 0.5, 1001)
            node = np.prod(u[:, None] - np.arange(p + 1), axis=1)
            assert np.max(np.abs(node)) <= lfunc._stencil_peak(p)

    def test_mesh_too_coarse_for_any_order_raises(self):
        prec = EvalPrecision.for_height(1000.0)
        with pytest.raises(PrecisionError):
            lfunc.mesh_interpolation(1, 1000.0, 0.5, prec)
        with pytest.raises(PrecisionError):
            scan_mesh(character(1, 1), 1000.0, 0.5, prec)

    def test_too_coarse_mesh_fails_before_the_mesh_pass(self):
        prec = EvalPrecision.for_height(1000.0)
        lfunc._mesh_columns.cache_clear()  # a mesh pass would count a miss, cached or not before
        misses = lfunc._mesh_columns.cache_info().misses
        with pytest.raises(PrecisionError, match="too coarse"):
            scan_mesh(character(1, 1), 1000.0, 0.5, prec)
        assert lfunc._mesh_columns.cache_info().misses == misses

    def test_order_below_the_chosen_one_raises(self, monkeypatch):
        T = 100.0
        chi = character(23, 2)
        prec = EvalPrecision.for_height(T)
        step = zeros.DEFAULT_MESH_STEP
        ts = np.linspace(10.0, 10.0 + 3 * step, 41)
        scan_mesh(chi, T, step, prec)[2](ts)
        chosen = lfunc.mesh_interpolation

        def lower(*args):
            plan = chosen(*args)
            return replace(plan, order=plan.order - 2)

        monkeypatch.setattr(lfunc, "mesh_interpolation", lower)
        with pytest.raises(PrecisionError):
            scan_mesh(chi, T, step, prec)[2](ts)

    def test_window_certified_at_its_worst_point(self):
        T = 30.0
        prec = EvalPrecision.for_height(T)
        fewer = EvalPrecision(prec.direct_terms - 1)
        chi = _primitive(23)[0]
        scan_mesh(chi, T, 0.05, prec)
        with pytest.raises(PrecisionError):
            scan_mesh(chi, T, 0.05, fewer)

    def test_points_outside_the_window_rejected(self):
        T = 30.0
        prec = EvalPrecision.for_height(T)
        z = scan_mesh(character(1, 1), T, 0.05, prec)[2]
        with pytest.raises(ValueError):
            z(np.array([T + 0.01]))


class TestMeshExpSums:
    def _case(self, count=10_000, n=50):
        rng = np.random.default_rng(11)
        freqs = rng.uniform(-20.0, 20.0, (1, n))
        log_coeffs = rng.uniform(-1.0, 0.0, (1, n)) + 1j * rng.uniform(-3.0, 3.0, (1, n))
        return -5.0, 1e-3, count, freqs, log_coeffs

    def test_matches_the_dense_sum_at_its_points(self):
        start, step, count, freqs, log_coeffs = self._case(count=2_000)
        vs, sums = mesh_exp_sums(start, step, count, freqs, log_coeffs)
        assert vs.shape == (count,) and sums.shape == (count, 1)
        assert vs[0] == start and np.max(np.abs(vs - (start + np.arange(count) * step))) <= 1e-14
        dense = np.exp(log_coeffs[0] + 1j * np.outer(vs, freqs[0])).sum(axis=1)
        assert np.max(np.abs(sums[:, 0] - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_empty_frequency_set_gives_zeros(self):
        vs, sums = mesh_exp_sums(-1.0, 0.25, 9, np.empty((2, 0)), np.empty((2, 0)))
        assert vs.size == 9 and vs[-1] == 1.0
        assert sums.shape == (9, 2) and not np.any(sums)

    @pytest.mark.parametrize("budget, same_width", [(6000, True), (3000, False)])
    def test_products_stay_within_the_element_budget(self, monkeypatch, budget, same_width):
        start, step, count, freqs, log_coeffs = self._case()
        whole_vs, whole = mesh_exp_sums(start, step, count, freqs, log_coeffs)
        sizes = []
        matmul = np.matmul

        def recording(lead, offs):
            sizes.append(lead.size + offs.size)
            return matmul(lead, offs)

        monkeypatch.setattr(lfunc, "_EM_CHUNK_ELEMENTS", budget)
        monkeypatch.setattr(lfunc.np, "matmul", recording)
        vs, sums = mesh_exp_sums(start, step, count, freqs, log_coeffs)
        # one row of N = 50 over a 100 x 100 mesh needs 50 * (100 + 100) elements
        assert len(sizes) > 1 and max(sizes) <= budget
        assert np.max(np.abs(sums - whole)) <= 1e-13 * np.max(np.abs(whole))
        if same_width:
            assert np.array_equal(vs, whole_vs) and np.array_equal(sums, whole)


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

    def test_closed_forms_at_one_match_digamma(self):
        parities = set()
        count = 0
        for q in range(3, 40):
            for chi in _primitive(q):
                ref = -mp.fsum(complex(chi(a)) * mp.digamma(mp.mpf(a) / q)
                               for a in range(1, q) if chi(a) != 0) / q
                assert abs(l_value(chi, 1) - complex(ref)) <= 1e-13
                parities.add(chi.parity)
                count += 1
        assert parities == {0, 1} and count == 278

    def test_batch_matches_scalar(self):
        chi = character(5, 2)
        ts = np.array([0.0, 3.3, 17.9])
        batch = l_critical_batch(chi, ts)
        for t, v in zip(ts, batch):
            assert abs(v - l_value(chi, 0.5 + 1j * t)) <= 1e-11

    def test_batch_requires_primitive(self):
        with pytest.raises(ValueError):
            l_critical_batch(character(12, 5), np.array([1.0]))


_STIRLING_BOUND = 5e-16  # the truncation bound _log_gamma states for Re w >= 8


def _log_gamma_tol(z: complex) -> float:
    """The stated truncation bound plus four roundings of the terms that form
    log Gamma(z): (w - 1/2) log w at w = z + n and the n logs of the shift."""
    n = max(0, math.ceil(8 - z.real))
    w = z + n
    scale = abs(w * cmath.log(w)) + sum(abs(cmath.log(z + j)) for j in range(n))
    return _STIRLING_BOUND + 4 * np.finfo(float).eps * scale


def _mod_2pi(x) -> float:
    return float(x - 2 * mp.pi * mp.nint(x / (2 * mp.pi)))


def _log_gamma_err(got, z) -> float:
    """|got - log Gamma(z)|, with the imaginary part taken mod 2 pi."""
    err = mp.mpc(complex(got)) - mp.loggamma(mp.mpc(complex(z)))
    return abs(complex(float(err.real), _mod_2pi(err.imag)))


_HEIGHTS = np.array([0.0, 0.37, 5.5, 14.13, 17.85, 250.5, 999.9, 5000.3, 9999.7])
_HEIGHTS = np.concatenate([_HEIGHTS, -_HEIGHTS[1:]])


class TestGammaFactor:
    def test_theta_matches_siegeltheta_for_q1(self):
        chi = character(1, 1)
        theta = lfunc._log_gamma_factor(chi, 0.5 + 1j * _HEIGHTS).imag
        for t, th in zip(_HEIGHTS, theta):
            err = _mod_2pi(mp.mpf(float(th)) - mp.siegeltheta(mp.mpf(float(t))))
            assert abs(err) <= _log_gamma_tol(complex(0.25, t / 2))

    @pytest.mark.parametrize("parity", [0, 1])
    def test_theta_matches_loggamma_for_q_above_1(self, parity):
        chi = next(c for q in range(3, 12) for c in _primitive(q) if c.parity == parity)
        q = chi.modulus
        theta = lfunc._log_gamma_factor(chi, 0.5 + 1j * _HEIGHTS).imag
        for t, th in zip(_HEIGHTS, theta):
            z = mp.mpc((0.5 + parity) / 2, mp.mpf(float(t)) / 2)
            ref = mp.im(mp.loggamma(z)) + z.imag * mp.log(mp.mpf(q) / mp.pi)
            assert abs(_mod_2pi(mp.mpf(float(th)) - ref)) <= _log_gamma_tol(complex(z))

    @pytest.mark.parametrize("re", [-0.05, -5.0, -20.0])
    def test_left_of_the_line_takes_a_longer_shift(self, re):
        zs = re + 1j * np.array([0.3, 1.7, 12.5, -45.0, 300.0, 5000.0])
        for z, got in zip(zs, lfunc._log_gamma(zs)):
            assert _log_gamma_err(got, z) <= _log_gamma_tol(complex(z))

    def test_series_without_the_shift_misses_the_bound(self, monkeypatch):
        zs = np.array([0.25 + 0.5j, 0.75 + 1.2j, 1.5 + 0.3j])
        monkeypatch.setattr(lfunc, "_STIRLING_MIN_RE", 0)
        assert max(_log_gamma_err(got, z) / _log_gamma_tol(complex(z))
                   for z, got in zip(zs, lfunc._log_gamma(zs))) > 1


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

    def test_rotation_on_its_branch(self):
        chi = character(4, 3)
        rotation = lfunc._rotation(chi.label)
        assert ROTATION_BRANCH == "principal-sqrt"
        assert rotation.conjugate() == cmath.sqrt(root_number(chi))
        assert abs(rotation.conjugate() ** 2 - root_number(chi)) <= 1e-12


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

    def test_reflection_is_the_conjugate_character(self):
        # Z_chi(-t) = Z_conj(chi)(t), sign included: the reflected brackets of
        # a mirrored zero set keep their end values
        ts = np.random.default_rng(17).uniform(0.1, 60.0, 48)
        prec = EvalPrecision.for_height(60.0)
        checked = 0
        for q in range(1, 25):
            for chi in _primitive(q):
                z = hardy_z_batch(chi.conjugate(), ts, prec)
                reflected = hardy_z_batch(chi, -ts, prec)
                assert np.max(np.abs(reflected - z) / (1 + np.abs(z))) <= 1e-12, chi.label
                checked += 1
        assert checked == 108

    def test_imprimitive_rejected(self):
        with pytest.raises(ValueError):
            hardy_z(character(12, 5), 1.0)

    def test_precision_failure_propagates(self):
        prec = EvalPrecision(direct_terms=5)  # for_height(50) needs 24
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
            chi = character(q, idx)
            rotation = lfunc._rotation(chi.label)
            assert abs(rotation.conjugate() ** 2 - root_number(chi)) <= 1e-12
            assert abs(abs(rotation) - 1) <= 1e-12
