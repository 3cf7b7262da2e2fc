"""Core operator order, dual scan, and spectral calculus tests."""

import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from eclim import opcore
from eclim.opcore import (
    CERT_RESIDUAL_RTOL,
    FULL_EIGH_MAX_DIM,
    PSD_RTOL,
    AffineCertificate,
    DensityState,
    EnergyCurve,
    EnergyProfile,
    HermitianMatrix,
    ReferenceHamiltonian,
    dual_scan,
    dual_scan_witness,
    energy,
    ground_shift,
    identity,
    project_to_energy_shell,
    psd_order_leq,
    psd_sqrt,
    random_hermitian,
    random_psd,
    random_reference,
    require_psd,
    require_psd_spectrum,
    retract_columns,
    rng_from_seed,
    vector_energy,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def diag(*vals):
    return HermitianMatrix(np.diag(vals).astype(complex))


def ref(*vals):
    return ReferenceHamiltonian(diag(*vals))


class TestHermitianMatrix:
    def test_symmetrizes_small_defect(self):
        m = HermitianMatrix(np.array([[1.0, 1e-13j], [0.0, 2.0]]))
        assert np.allclose(m.entries, m.entries.conj().T)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square_and_nan(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            HermitianMatrix(np.array([[np.nan, 0], [0, 0]]))

    def test_overflowing_norms_still_reject_a_non_hermitian_matrix(self):
        # The Frobenius norms of these overflow; pytest turns an overflow
        # warning into an error, so none may be raised either.
        with pytest.raises(ValueError, match=r"not Hermitian \(defect 1\.414e\+200\)"):
            HermitianMatrix([[0.0, 1e200], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianMatrix([[0.0, 1e300], [1e300 * (1.0 + 1e-9), 0.0]])
        stack = np.array([np.eye(2), [[0.0, 1e200], [0.0, 0.0]]], dtype=complex)
        with pytest.raises(ValueError, match=r"not Hermitian \(defect 1\.414e\+200\)"):
            dual_scan_witness(stack, ref(0.0, 1.0), 0.5)

    def test_overflowing_norms_accept_a_hermitian_matrix(self):
        m = HermitianMatrix([[1e300, 1e300], [1e300 * (1.0 + 1e-11), 0.0]])
        assert m.entries[0, 1] == m.entries[1, 0] == (1e300 + 1e300 * (1.0 + 1e-11)) / 2.0
        assert HermitianMatrix([[0.0, 1e200], [1e200, 0.0]]).entries[0, 1] == 1e200

    def test_overflowing_sum_stores_finite_entries(self):
        # A + A* overflows here; pytest turns the overflow warning into an error.
        m = HermitianMatrix([[1e308, 1e308j], [-1e308j, 1e308]])
        assert np.all(np.isfinite(m.entries))
        assert np.array_equal(m.entries, np.array([[1e308, 1e308j], [-1e308j, 1e308]]))

    def test_entries_read_only(self):
        m = diag(1.0, 2.0)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_eigendecomposition_cached_read_only(self):
        m = random_psd(4, rng_from_seed(2))
        evals, evecs = m.eigh()
        again = m.eigh()
        assert again[0] is evals and again[1] is evecs
        assert m.eigvals() is m.eigvals()
        assert np.array_equal(m.eigvals(), np.linalg.eigvalsh(m.entries))
        for arr in (evals, evecs, m.eigvals()):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestPsdOrder:
    def test_diagonal_dominance(self):
        assert psd_order_leq(diag(0.0, 1.0), diag(1.0, 2.0))

    def test_identity_vs_pauli_x(self):
        assert not psd_order_leq(identity(2), HermitianMatrix(SX))
        assert psd_order_leq(HermitianMatrix(SX), identity(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psd_order_leq(identity(2), identity(3))


class TestGroundShift:
    def test_diag_3_5(self):
        r = ground_shift(diag(3.0, 5.0))
        assert np.allclose(r.entries, np.diag([0.0, 2.0]))
        assert r.ground_energy_removed == pytest.approx(3.0)

    def test_already_grounded(self):
        r = ground_shift(diag(0.0, 1.0))
        assert np.allclose(r.entries, np.diag([0.0, 1.0]))
        assert r.ground_energy_removed == pytest.approx(0.0, abs=1e-14)

    def test_spin_laplacian_shift_matches_eigendecomposition(self):
        # oracle: direct eigendecomposition of the built operator
        from eclim.models import spin_system
        s = spin_system(4)
        raw = s.laplacian.entries
        lo = float(np.linalg.eigvalsh(raw)[0])
        r = ground_shift(s.laplacian)
        assert r.ground_energy_removed == pytest.approx(lo, abs=1e-9)
        assert float(np.linalg.eigvalsh(r.entries)[0]) == pytest.approx(0.0, abs=1e-12)

    def test_reference_rejects_negative(self):
        with pytest.raises(ValueError):
            ReferenceHamiltonian(diag(-1.0, 1.0))


class TestEnergy:
    def test_plus_state(self):
        plus = DensityState.pure(np.array([1.0, 1.0]))
        assert energy(ref(0.0, 1.0), plus) == pytest.approx(0.5)

    def test_ground_state(self):
        zero = DensityState.pure(np.array([1.0, 0.0]))
        assert energy(ref(0.0, 1.0), zero) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed_qutrit(self):
        rho = DensityState(HermitianMatrix(np.eye(3) / 3.0))
        assert energy(ref(0.0, 1.0, 2.0), rho) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            energy(ref(0.0, 1.0), DensityState(HermitianMatrix(np.eye(3) / 3.0)))

    def test_subnormalized_state_allowed(self):
        rho = DensityState(HermitianMatrix(0.4 * np.eye(2)))
        assert rho.trace() == pytest.approx(0.8)


class TestDualScan:
    def test_analytic_2x2(self):
        # oracle: brute force over pure states (sqrt(1-s), sqrt(s)); the
        # objective is s subject to s <= E, hence the value is E = 0.25.
        g = ref(0.0, 1.0)
        s = np.linspace(0.0, 0.25, 100001)
        oracle = float(np.max(s))
        value, cert = dual_scan(g.matrix, g, 0.25)
        assert value == pytest.approx(oracle, abs=1e-9)
        assert cert.lam == pytest.approx(1.0, abs=1e-6)
        assert cert.e0 == pytest.approx(0.0, abs=1e-9)

    def test_identity_and_zero(self):
        g = ref(0.0, 1.0)
        v, c = dual_scan(identity(2), g, 0.7)
        assert v == pytest.approx(1.0, abs=1e-9)
        assert (c.lam, c.e0) == (pytest.approx(0.0, abs=1e-6), pytest.approx(1.0, abs=1e-6))
        v0, c0 = dual_scan(HermitianMatrix(np.zeros((2, 2))), g, 0.7)
        assert v0 == pytest.approx(0.0, abs=1e-12)
        assert c0.e0 == pytest.approx(0.0, abs=1e-12)

    def test_objective_convexity(self):
        rng = rng_from_seed(10)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            m = random_psd(d, rng)
            g = random_reference(d, rng)
            lam = np.sort(rng.random(3) * 5.0)
            vals = [lam_ * 1.0 + max(0.0, float(np.linalg.eigvalsh(
                m.entries - lam_ * g.entries)[-1])) for lam_ in lam]
            if lam[2] - lam[0] < 1e-12:
                continue
            t = (lam[1] - lam[0]) / (lam[2] - lam[0])
            interp = (1 - t) * vals[0] + t * vals[2]
            assert vals[1] <= interp + 1e-9 * (1.0 + abs(interp))

    def test_strong_duality_small(self):
        from eclim.norms import constrained_rayleigh_max, random_feasible_sample_max
        rng = rng_from_seed(77)
        for i in range(12):
            d = int(rng.integers(2, 7))
            m = random_psd(d, rng)
            g = random_reference(d, rng)
            e = [0.1, 1.0, 10.0][i % 3]
            dv, _ = dual_scan(m, g, e)
            pv, _ = constrained_rayleigh_max(m, g, e)
            sv = random_feasible_sample_max(m, g, e, 10000, seed=i)
            gap = (dv - max(pv, sv)) / max(1.0, abs(dv))
            assert -1e-9 <= gap <= 1e-6

    def test_witness_feasible_and_tight(self):
        rng = rng_from_seed(5)
        for i in range(25):
            d = int(rng.integers(2, 7))
            m = random_psd(d, rng)
            g = random_reference(d, rng)
            e = [0.1, 1.0, 10.0][i % 3]
            value, _ = dual_scan(m, g, e)
            psi = dual_scan_witness(m.entries[None], g, e)[0]
            assert vector_energy(g, psi) <= e + 1e-9 * (1.0 + e)
            direct = float(np.real(psi.conj() @ m.entries @ psi))
            assert direct <= value + 1e-8 * (1.0 + abs(value))
            assert direct >= value - 1e-7 * (1.0 + abs(value))

    def test_witness_pins_the_budget(self):
        # The witness is built at the returned slope, so a slope that is off
        # by more than the 1e-10 bracket moves its energy and value.
        rng = rng_from_seed(15)
        binding = 0
        for i in range(40):
            d = int(rng.integers(2, 9))
            m = random_psd(d, rng)
            g = random_reference(d, rng)
            e = [0.05, 0.3, 1.0][i % 3]
            value, cert = dual_scan(m, g, e)
            if cert.lam == 0.0:
                continue
            psi = dual_scan_witness(m.entries[None], g, e)[0]
            binding += 1
            assert abs(vector_energy(g, psi) - e) <= 1e-9 * (1.0 + e)
            direct = float(np.real(psi.conj() @ m.entries @ psi))
            assert abs(direct - value) <= 1e-9 * (1.0 + abs(value))
        assert binding >= 20

    @pytest.mark.parametrize("d", [4, FULL_EIGH_MAX_DIM + 2])
    def test_witness_stack_matches_single_matrices(self, d):
        rng = rng_from_seed(16 + d)
        g = random_reference(d, rng)
        ms = [random_hermitian(d, rng) for _ in range(5)] + [random_psd(d, rng) for _ in range(3)]
        stack = np.array([m.entries for m in ms])
        kinds = set()
        for e in (0.05 * g.max_energy(), 0.5 * g.max_energy(), 2.0 * g.max_energy()):
            psis = dual_scan_witness(stack, g, e)
            assert psis.shape == (len(ms), d)
            for m, psi in zip(ms, psis):
                assert np.array_equal(psi, dual_scan_witness(m.entries[None], g, e)[0])
            for m in ms[5:]:  # dual_scan takes PSD M only
                kinds.add(dual_scan(m, g, e)[1].lam == 0.0)
        assert kinds == {True, False}  # slack and binding budgets both occur

    def test_witness_stack_rejects_non_hermitian(self):
        a = np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            dual_scan_witness(a, ref(0.0, 1.0), 0.5)

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            dual_scan(identity(2), ref(0.0, 1.0), 0.0)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(opcore, "DUAL_MAX_ITER", 2)
        with pytest.raises(RuntimeError):
            dual_scan(random_psd(4, rng_from_seed(3)), random_reference(4, rng_from_seed(4)), 0.3)


def _grid_reference(m, g, e, rounds=5, points=401):
    """min over lam >= 0 of lam*E + max(0, lambda_max(M - lam*G)) by zooming grids.

    g is convex, so its minimum stays between the neighbours of each grid's
    best point.
    """
    def f(lam):
        return lam * e + max(0.0, float(np.linalg.eigvalsh(m.entries - lam * g.entries)[-1]))

    lo, hi = 0.0, 2.0 * max(0.0, float(m.eigvals()[-1])) / e + 1.0
    best = f(0.0)
    for _ in range(rounds):
        lams = np.linspace(lo, hi, points)
        vals = [f(x) for x in lams]
        i = int(np.argmin(vals))
        best = min(best, vals[i])
        lo, hi = lams[max(i - 1, 0)], lams[min(i + 1, points - 1)]
    return best


def _number_reference():
    return ref(0.0, 1.0, 2.0, 3.0)


def _two_level():
    return HermitianMatrix(np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)), ref(0.0, 1.0)


# (name, M, G, E, closed-form value or None for a grid reference, witness attains it)
EDGE_CASES = [
    ("slack", diag(1.0, 2.0), ref(0.0, 1.0), 5.0, 2.0, True),
    ("zero M", diag(0.0, 0.0, 0.0), ref(0.0, 1.0, 2.0), 0.5, 0.0, True),
    # M - lam*G = (1 - lam) G is zero at lam* = 1: all four levels cross.
    ("degenerate crossing", diag(0.0, 1.0, 2.0, 3.0), _number_reference(), 1.5, 1.5, True),
    # M = 2G + 0.5: g is flat on [0, 2] at E = 3 and kinked at lam = 2 for E = 1.5.
    ("flat segment", diag(0.5, 2.5, 4.5, 6.5), _number_reference(), 3.0, 6.5, True),
    ("collinear kink", diag(0.5, 2.5, 4.5, 6.5), _number_reference(), 1.5, 3.5, True),
    # Two levels: the budget binds, value a(1-E) + cE + 2|b|sqrt(E(1-E)).
    ("tiny budget", *_two_level(), 1e-6, 1.0 - 1e-6 + 2e-6 + np.sqrt(1e-6 * (1 - 1e-6)), True),
    ("huge budget", *_two_level(), 1e6, 1.5 + np.sqrt(0.5), True),
    ("tiny budget d=5", random_psd(5, rng_from_seed(21)), random_reference(5, rng_from_seed(22)),
     1e-6, None, True),
    ("huge budget d=5", random_psd(5, rng_from_seed(21)), random_reference(5, rng_from_seed(22)),
     1e6, None, True),
]
# The same, for an M that is not PSD: dual_scan rejects it, and the see-saw's
# witness step, which takes any Hermitian M, still meets the dual's value.
INDEFINITE_CASES = [
    ("negative M", diag(-1.0, -2.0), ref(0.0, 1.0), 0.5, 0.0, False),
    # lambda_max(M - lam*G) = 1 - lam reaches 0 at the minimizer lam* = 1;
    # the optimum is the subnormalized state 0.5|1><1|.
    ("kink at zero", diag(-1.0, 1.0), ref(0.0, 1.0), 0.5, 0.5, False),
    ("indefinite d=6", random_hermitian(6, rng_from_seed(23)), random_reference(6, rng_from_seed(24)),
     0.7, None, True),
]


class TestDualSolverEdgeCases:
    @pytest.mark.parametrize("case", EDGE_CASES, ids=[c[0] for c in EDGE_CASES])
    def test_value_certificate_and_witness(self, case):
        _, m, g, e, closed, witness_attains = case
        expected = _grid_reference(m, g, e) if closed is None else closed
        value, cert = dual_scan(m, g, e)
        assert abs(value - expected) <= 1e-10 * (1.0 + abs(expected))
        assert cert.verify(m, g).residual >= -1e-12 * (1.0 + abs(value))
        assert cert.bound(e) == pytest.approx(value, rel=1e-15, abs=1e-15)
        _check_witness(m, g, e, value, witness_attains)

    @pytest.mark.parametrize("case", INDEFINITE_CASES, ids=[c[0] for c in INDEFINITE_CASES])
    def test_indefinite_m_is_rejected_and_its_witness_kept(self, case):
        _, m, g, e, closed, witness_attains = case
        with pytest.raises(ValueError, match="M must be PSD"):
            dual_scan(m, g, e)
        value = _grid_reference(m, g, e) if closed is None else closed
        _check_witness(m, g, e, value, witness_attains)

    def test_indefinite_draw_is_rejected(self):
        # M = (W + W*)/2 against an integer diagonal G at E = 2.4e-4: such
        # draws gave a dual up to 2.4 (relative) above a feasible witness.
        g = ref(*range(6))
        for seed in range(20):
            m = random_hermitian(6, rng_from_seed(seed))
            assert m.eigvals()[0] < -0.1
            with pytest.raises(ValueError, match="M must be PSD"):
                EnergyProfile(m, g)
            with pytest.raises(ValueError, match="M must be PSD"):
                dual_scan(m, g, 2.4e-4)
        # rank one: its zero eigenvalues carry rounding, inside the slack
        v = rng_from_seed(1).standard_normal(6) + 1j
        rank_one = HermitianMatrix(np.outer(v, v.conj()))
        assert dual_scan(rank_one, g, 2.4e-4)[0] > 0.0


def _check_witness(m, g, e, value, attains):
    """The dual-scan witness is feasible, at most ``value``, and meets it if ``attains``."""
    psi = dual_scan_witness(m.entries[None], g, e)[0]
    assert vector_energy(g, psi) <= e * (1.0 + 1e-12)
    direct = float(np.real(psi.conj() @ m.entries @ psi))
    assert direct <= value + 1e-9 * (1.0 + abs(value))
    if attains:
        assert direct >= value - 1e-9 * (1.0 + abs(value))


class TestEnergyProfile:
    @staticmethod
    def _instances():
        rng = rng_from_seed(31)
        for d in range(2, 9):
            yield random_psd(d, rng), random_reference(d, rng)
        from eclim.models import spin_system
        spin = spin_system(7)
        diff = spin.sx + random_hermitian(spin.dim, rng, operator_norm=0.5) - spin.sy
        yield HermitianMatrix(diff.entries.conj().T @ diff.entries), spin.reference
        # the subset solve under the secant search, then under the model's
        for d in (16, opcore._MODEL_MIN_DIM):
            yield from TestEnergyProfile._subset_instances(d)

    @staticmethod
    def _subset_instances(d: int):
        """Two pairs above FULL_EIGH_MAX_DIM, where cuts come from the subset solve."""
        assert d > FULL_EIGH_MAX_DIM
        rng = rng_from_seed(32)
        yield random_psd(d, rng), random_reference(d, rng)
        # lambda_max(M - lam*G) = max_i (sqrt(i + 1) - lam*i): for E < d - 1 the
        # strictly concave levels put the minimizer at the crossing of exactly
        # two of them, a kink where the top eigenvalue is doubly degenerate.
        levels = np.arange(d, dtype=float)
        yield diag(*np.sqrt(levels + 1.0)), ref(*levels)

    @pytest.mark.parametrize("d", [16, opcore._MODEL_MIN_DIM])
    def test_subset_solves_match_the_primal_oracle(self, d):
        from eclim.norms import eco_norm_primal

        grid = np.geomspace(1e-3, 50.0, 12)
        for m, g in self._subset_instances(d):
            root = psd_sqrt(m)
            profile = EnergyProfile(m, g)
            for e in grid:
                value, cert = profile.solve(e)
                assert cert.bound(e) == pytest.approx(value, rel=1e-15, abs=1e-15)
                primal, _ = eco_norm_primal(root.entries, g, e)
                assert primal ** 2 * (1.0 - 1e-12) <= value <= primal ** 2 * (1.0 + 1e-9)
            # the model places probes from _MODEL_MIN_DIM on, and only there
            assert (profile.model_probes > 0) == (d >= opcore._MODEL_MIN_DIM)

    def test_grid_matches_cold_solves_in_any_order(self):
        grid = np.geomspace(1e-3, 50.0, 12)
        for m, g in self._instances():
            cold = {e: dual_scan(m, g, e)[0] for e in grid}
            curves = []
            for seed in (0, 1):
                order = rng_from_seed(seed).permutation(grid)
                profile = EnergyProfile(m, g)
                solved = {e: profile.solve(e) for e in order}
                assert profile.last_gap <= 1e-12 * (1.0 + abs(solved[order[-1]][0]))
                for e, (v, cert) in solved.items():
                    assert abs(v - cold[e]) <= 1e-12 * (1.0 + abs(cold[e]))
                    assert cert.bound(e) == pytest.approx(v, rel=1e-15, abs=1e-15)
                curves.append(EnergyCurve(tuple(grid), tuple(solved[e][0] for e in grid),
                                          tuple(solved[e][1] for e in grid)))
            assert max(abs(a - b) / (1.0 + abs(a))
                       for a, b in zip(curves[0].values, curves[1].values)) <= 1e-12

    def test_a_secant_stalled_at_one_end_bisects(self):
        # Instance primal-36 of the benchmark's duality-primal workload at seed
        # 33 (d = 5, E = 0.1), rebuilt from its seed.  The lower end's
        # subgradient is -1.4e-17, so every secant point was clamped tol/2
        # below the upper end; 200 such cuts could not close the bracket.
        from eclim.norms import eco_norm_primal, eco_profile

        rng = np.random.Generator(np.random.PCG64(33))
        for i in range(37):
            for d in range(2, 7):
                a = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(d)
                w = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                rng.integers(0, 2 ** 31)
                if (i, d) == (36, 5):
                    op, g = a, ground_shift(HermitianMatrix(w @ w.conj().T / d))
        profile = eco_profile(op, g)
        value, cert = profile.solve(0.1)
        assert profile.evaluations <= 100  # 59; 202 without the bisection
        assert profile.last_gap <= 1e-12 * (1.0 + value)
        assert cert.bound(0.1) == pytest.approx(value, rel=1e-15)
        primal, _ = eco_norm_primal(op, g, 0.1)
        assert primal ** 2 * (1.0 - 1e-12) <= value <= primal ** 2 * (1.0 + 1e-9)

    def test_warm_solves_reuse_cuts(self):
        m, g = random_psd(6, rng_from_seed(41)), random_reference(6, rng_from_seed(42))
        grid = np.geomspace(1e-2, 10.0, 12)
        cold = 0
        for e in grid:
            profile = EnergyProfile(m, g)
            profile.solve(e)
            cold += profile.evaluations
        warm = EnergyProfile(m, g)
        for e in grid:
            warm.solve(e)
        assert warm.evaluations < cold
        before = warm.evaluations
        warm.solve(grid[3])
        assert warm.evaluations == before


def compressed_witness(evals, evecs, g, e):
    """The witness tail with G always compressed to the top eigenspace of M - lam*G,
    also when that space is one-dimensional, then retracted onto the energy shell."""
    scale = 1.0 + float(np.max(np.abs(evals)))
    basis = evecs[:, evals >= evals[-1] - opcore.WITNESS_GAP_RTOL * scale]
    g_small = basis.conj().T @ g.entries @ basis
    ge, gv = np.linalg.eigh((g_small + g_small.conj().T) / 2.0)
    vecs = basis @ gv
    if e >= ge[-1]:
        psi = vecs[:, -1]
    elif e >= ge[0]:
        j = int(np.searchsorted(ge, e))
        s = (e - ge[j - 1]) / (ge[j] - ge[j - 1])
        psi = np.sqrt(1.0 - s) * vecs[:, j - 1] + np.sqrt(s) * vecs[:, j]
    else:
        psi = vecs[:, 0]
    return project_to_energy_shell(psi / np.linalg.norm(psi), g, e)


class TestWitnessTail:
    @pytest.mark.parametrize("n", [4, 6, 9, 16])
    def test_one_dimensional_top_space_matches_the_compression(self, n):
        rng = rng_from_seed(70 + n)
        g = random_reference(n, rng)
        retracted = 0
        for lam in (0.0, 0.3, 2.0):
            evals, evecs = np.linalg.eigh(random_hermitian(n, rng).entries - lam * g.entries)
            scale = 1.0 + float(np.max(np.abs(evals)))
            assert evals[-2] < evals[-1] - opcore.WITNESS_GAP_RTOL * scale  # one top vector
            for e in (0.02 * g.max_energy(), 0.3 * g.max_energy(), 2.0 * g.max_energy()):
                psi = opcore._pinned_witness(evals, evecs, g, e)
                retracted += vector_energy(g, psi) > e
                got = opcore._shell_projector(g, e)(psi)
                assert got.tobytes() == compressed_witness(evals, evecs, g, e).tobytes()
        assert retracted > 0  # infeasible top vectors went through retract_columns

    @pytest.mark.parametrize("d", [4, FULL_EIGH_MAX_DIM])
    def test_slack_stack_takes_one_eigh_and_binding_rows_no_eigvalsh(self, d, monkeypatch):
        rng = rng_from_seed(80 + d)
        g = random_reference(d, rng)
        g.eigh()  # cached on G, so the count below sees only the stack's solves
        stack = np.array([random_hermitian(d, rng).entries for _ in range(6)])
        binding = 0.05 * g.max_energy()
        for m in stack:  # the dual's slope at lam = 0, E - <v|G|v>, is negative
            evals, evecs = np.linalg.eigh(m)
            assert evals[-1] > evals[-2] and evals[-1] > 0.0
            assert vector_energy(g, evecs[:, -1]) > binding
        calls = []

        def counted(name):
            solve = getattr(np.linalg, name)
            return lambda a: calls.append((name, a.shape)) or solve(a)

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        dual_scan_witness(stack, g, 2.0 * g.max_energy())  # every row is slack
        assert calls == [("eigh", stack.shape)]
        calls.clear()
        dual_scan_witness(stack, g, binding)
        assert calls and {name for name, _ in calls} == {"eigh"}  # no ||M||, no gap


class TestRetraction:
    def test_exact_energy(self):
        rng = rng_from_seed(3)
        g = random_reference(5, rng)
        for _ in range(50):
            v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            v /= np.linalg.norm(v)
            e_target = 0.2
            out = project_to_energy_shell(v, g, e_target)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12
            assert vector_energy(g, out) <= e_target + 1e-10

    def test_feasible_input_unchanged(self):
        rng = rng_from_seed(4)
        g = random_reference(5, rng)
        for _ in range(20):
            v = g.ground_vector() + 0.05 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
            v /= np.linalg.norm(v)
            e_target = vector_energy(g, v) * 1.5 + 1e-3
            out = project_to_energy_shell(v, g, e_target)
            assert np.array_equal(out, v / np.linalg.norm(v))

    def test_columnwise_matches_vector_form(self):
        rng = rng_from_seed(6)
        g = random_reference(6, rng)
        ge, gv = g.eigh()
        ge = np.clip(ge, 0.0, None)
        e_target = 0.3
        v = rng.standard_normal((6, 40)) + 1j * rng.standard_normal((6, 40))
        v[:, :5] = g.ground_vector()[:, None] + 0.01 * v[:, :5]  # feasible columns
        v /= np.linalg.norm(v, axis=0)
        c = gv.conj().T @ v
        feasible = ge @ np.abs(c) ** 2 <= e_target
        assert np.any(feasible) and not np.all(feasible)
        out = retract_columns(c, ge, e_target)
        assert np.array_equal(out[:, feasible], c[:, feasible])
        assert np.all(ge @ np.abs(out) ** 2 <= e_target * (1.0 + 1e-12))
        assert np.allclose(np.linalg.norm(out, axis=0), 1.0, rtol=0.0, atol=1e-12)
        for j in range(v.shape[1]):
            one = project_to_energy_shell(v[:, j], g, e_target)
            assert np.allclose(gv @ out[:, j], one, rtol=0.0, atol=1e-13)


class TestSpectralFunction:
    """``psd_sqrt``, the one spectral function."""

    def test_sqrt_diag(self):
        assert np.allclose(psd_sqrt(diag(0.0, 4.0)).entries, np.diag([0.0, 2.0]))

    def test_sqrt_identity(self):
        assert np.allclose(psd_sqrt(identity(3)).entries, np.eye(3))

    def test_sqrt_round_trip(self):
        rng = rng_from_seed(8)
        m = random_psd(5, rng)
        r = psd_sqrt(m)
        assert np.linalg.norm(r.entries @ r.entries - m.entries) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="sqrt undefined on spectrum"):
            psd_sqrt(diag(-1.0, 1.0))

    def test_sqrt_operator_monotone(self):
        rng = rng_from_seed(12)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            a = random_psd(d, rng)
            b = HermitianMatrix(a.entries + random_psd(d, rng).entries)
            assert psd_order_leq(psd_sqrt(a), psd_sqrt(b), 1e-8)


class TestEnergyCurve:
    def test_dual_scan_curve_satisfies_concavity(self):
        rng = rng_from_seed(4)
        g = random_reference(4, rng)
        m = random_psd(4, rng)
        grid = [0.25, 0.5, 1.0, 2.0, 4.0]
        vals, certs = [], []
        for e in grid:
            v, c = dual_scan(m, g, e)
            vals.append(v)
            certs.append(c)
        curve = EnergyCurve(tuple(grid), tuple(vals), tuple(certs))
        for i in range(len(grid)):
            for j in range(i + 1, len(grid)):
                assert curve.values[i] <= curve.values[j] + 1e-9
                assert curve.values[j] <= (grid[j] / grid[i]) * curve.values[i] + 1e-9

    def test_rejects_nonconcave(self):
        c = AffineCertificate(0.0, 0.0)
        with pytest.raises(ValueError):
            EnergyCurve((1.0, 2.0), (1.0, 3.0), (c, c))


class TestAffineCertificate:
    def test_verify_residual(self):
        g = ref(0.0, 1.0)
        cert = AffineCertificate(1.0, 0.0)
        verified = cert.verify(g.matrix, g)
        assert verified.residual >= -1e-12

    def test_residual_is_computed_when_read(self):
        rng = rng_from_seed(10)
        d = FULL_EIGH_MAX_DIM + 4
        g = random_reference(d, rng)
        m = random_psd(d, rng)
        _, cert = dual_scan(m, g, 0.3 * g.max_energy())
        assert callable(cert.__dict__["residual"])  # proved, not yet computed
        gap = cert.lam * g.entries + cert.e0 * np.eye(d) - m.entries
        assert cert.residual == float(np.linalg.eigvalsh(gap)[0])
        assert cert.__dict__["residual"] == cert.residual  # kept after the first read
        assert cert == AffineCertificate(cert.lam, cert.e0, residual=cert.residual)
        assert AffineCertificate(1.0, 0.0).residual == 0.0

    def test_verify_rejects_invalid(self):
        g = ref(0.0, 1.0)
        with pytest.raises(ValueError):
            AffineCertificate(0.0, 0.0).verify(identity(2), g)

    def test_rejects_negative_constants(self):
        with pytest.raises(ValueError):
            AffineCertificate(-0.1, 0.0)


# Each gate's smallest eigenvalue x below 0 as a function of the input, and
# its slack: the gate accepts x just inside the slack and rejects it just past.
GATES = {
    "reference": (lambda x: ReferenceHamiltonian(diag(-x, 1.0)), PSD_RTOL * 2.0),
    "state": (lambda x: DensityState(diag(-x, 0.5)), PSD_RTOL * 1.5),
    "sqrt": (lambda x: psd_sqrt(diag(-x, 1.0)), PSD_RTOL * 2.0),
    "affine_certificate": (lambda x: AffineCertificate(1.0, 0.0).verify(diag(x, 1.0),
                                                                       ref(0.0, 1.0)),
                           CERT_RESIDUAL_RTOL * 2.0),
}
SIDES = pytest.mark.parametrize("factor, accepted", [(0.9, True), (1.1, False)],
                                ids=["inside", "past"])


class TestOneCheck:
    def test_spectrum_form_reads_the_first_eigenvalue(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        assert float(require_psd_spectrum(np.array([-1e-3, 2.0]), 1e-3, "x")) == -1e-3
        with pytest.raises(ValueError, match="x"):
            require_psd_spectrum(np.array([-2e-3, 2.0]), 1e-3, "x")

    @pytest.mark.parametrize("gate", sorted(GATES))
    @SIDES
    def test_gate_boundary(self, gate, factor, accepted):
        build, slack = GATES[gate]
        if accepted:
            build(factor * slack)
        else:
            with pytest.raises(ValueError, match="min eigenvalue"):
                build(factor * slack)


def _rounding_bound(gap: np.ndarray, slack: float) -> float:
    """The shift c of ``opcore._proves_psd``: 3 gamma_(n+3) (sum |gap_jj| + n slack)."""
    n = gap.shape[0]
    u = 2.0 ** -53
    gamma = (n + 3) * u / (1.0 - (n + 3) * u)
    return 3.0 * gamma * (float(np.sum(np.abs(gap.diagonal().real))) + n * slack)


def _gap_with_floor(d: int, floor: float, rng) -> np.ndarray:
    """A dense Hermitian gap with least eigenvalue ``floor`` (up to its rounding)
    and the others in [0.5, 2]."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    evals = np.concatenate([[floor], rng.uniform(0.5, 2.0, d - 1)])
    gap = (q * evals) @ q.conj().T
    return (gap + gap.conj().T) / 2.0


def _gap_with_exact_floor(d: int, a0: float, rng):
    """A Hermitian gap whose spectrum is known exactly, and its least eigenvalue
    as a Fraction: a symmetric permutation of 2x2 blocks [[a, b], [b*, a]] with
    b = (3 + 4i)/8, whose eigenvalues are a -+ 5/8 exactly.  Block 0 has a = a0."""
    b = (3.0 + 4.0j) / 8.0
    diagonal = np.concatenate([[a0], rng.uniform(1.0, 2.0, d // 2 - 1)])
    blocks = np.zeros((d, d), dtype=complex)
    for k, a in enumerate(diagonal):
        blocks[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[a, b], [np.conj(b), a]]
    perm = rng.permutation(d)
    return blocks[np.ix_(perm, perm)], min(Fraction(float(a)) for a in diagonal) - Fraction(5, 8)


def _decision(gap, slack) -> bool:
    try:
        require_psd(gap, slack, "gap")
    except ValueError:
        return False
    return True


class TestPsdProof:
    """Above FULL_EIGH_MAX_DIM a single gate first tries a Cholesky proof of
    gap + slack*1 > 0; it falls back to eigvalsh, so it is never looser."""

    @pytest.mark.parametrize("d", [16, 128])
    def test_decision_equals_eigvalsh_beyond_the_rounding_bound(self, d):
        rng = rng_from_seed(d)
        slack = 1e-6
        # The built gap's true floor is -slack + delta within ~n u ||gap||.
        built = 1e-12
        for delta in (-1e-3, -1e-6, -1e-9, -1e-10, -3e-11, -1e-11, -3e-12, -1e-12,
                      0.0, 1e-12, 3e-12, 1e-11, 3e-11, 1e-10, 1e-9, 1e-6, 1e-3):
            gap = _gap_with_floor(d, -slack + delta, rng)
            c = _rounding_bound(gap, slack)
            proved = opcore._proves_psd(gap, slack)
            if delta <= -built:
                assert not proved, delta
            if delta >= 2.0 * c + built:
                assert proved, delta
            if abs(delta) > c + built:
                assert _decision(gap, slack) == (np.linalg.eigvalsh(gap)[0] >= -slack), delta

    @pytest.mark.parametrize("d", [16, 128])
    def test_factors_the_gap_shifted_by_slack_minus_the_rounding_bound(self, monkeypatch, d):
        factored, cholesky = [], np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: factored.append(a.copy()) or cholesky(a))
        gap = _gap_with_floor(d, 0.5, rng_from_seed(d + 2))
        slack = 1e-6
        assert opcore._proves_psd(gap, slack)
        shifted = gap + (slack - _rounding_bound(gap, slack)) * np.eye(d)
        assert len(factored) == 1 and np.array_equal(factored[0], shifted)

    @pytest.mark.parametrize("d", [16, 128])
    def test_never_proves_an_exact_floor_below_minus_slack(self, d):
        rng = rng_from_seed(d + 1)
        slack = 2.0 ** -20
        probe, _ = _gap_with_exact_floor(d, 1.0, rng)
        c = _rounding_bound(probe, slack)
        for delta in (-4 * c, -2 * c, -c, -c / 2, -2.0 ** -60, 0.0, 2.0 ** -60, c / 2, c,
                      2 * c, 4 * c, 8 * c):
            gap, floor = _gap_with_exact_floor(d, 0.625 - slack + delta, rng)
            proved = opcore._proves_psd(gap, slack)
            if proved:
                assert floor > -Fraction(slack), delta
            if delta >= 4 * c:
                assert proved, delta

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (5, 2), (2, 5)], ids=["diag", "lower", "upper"])
    def test_a_non_finite_gap_is_never_proved(self, bad, where):
        gap = np.eye(16, dtype=complex)
        gap[where] = bad
        assert not opcore._proves_psd(gap, 1e-8)
        # the gate decides as eigvalsh does, LinAlgError included
        try:
            expect = require_psd_spectrum(np.linalg.eigvalsh(gap), 1e-8, "gap")
        except (ValueError, np.linalg.LinAlgError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                require_psd(gap, 1e-8, "gap")
        else:
            assert np.array_equal(require_psd(gap, 1e-8, "gap"), expect, equal_nan=True)

    def test_single_gates_above_the_cut_try_the_proof_first(self, monkeypatch):
        calls = []
        cholesky, eigvalsh = np.linalg.cholesky, np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: calls.append(("cholesky", a.shape)) or cholesky(a))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(("eigvalsh", a.shape)) or eigvalsh(a))
        d = FULL_EIGH_MAX_DIM
        assert require_psd(np.eye(d + 1), 0.0, "gap") is None
        assert require_psd(np.eye(d), 0.0, "gap") == 1.0
        with pytest.raises(ValueError, match=r"^gap \(min eigenvalue -1\.000e\+00\)$"):
            require_psd(-np.eye(d + 1), 0.5, "gap")
        assert calls == [("cholesky", (d + 1, d + 1)), ("eigvalsh", (d, d)),
                         ("cholesky", (d + 1, d + 1)), ("eigvalsh", (d + 1, d + 1))]

    def test_the_gap_is_left_bitwise_unchanged(self):
        rng = rng_from_seed(5)
        for floor, writeable in ((1.0, True), (-1.0, True), (1.0, False)):
            gap = _gap_with_floor(32, floor, rng)
            before = gap.copy()
            gap.flags.writeable = writeable
            assert opcore._proves_psd(gap, 1e-8) == (floor > 0)  # completes, then fails
            assert gap.tobytes() == before.tobytes()


class TestNonFiniteInput:
    """A budget, e0 or time that is not finite is bad input, not an answer."""

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0])
    def test_budgets(self, bad):
        from eclim.channels import KrausChannel
        from eclim.norms import (CpDifference, constrained_rayleigh_max, ecd_norm_seesaw,
                                 eco_norm, eco_norm_primal, random_feasible_sample_max)
        g = ref(0.0, 1.0)
        m = diag(0.0, 1.0)
        identity_map = CpDifference.from_channel(KrausChannel.identity(2))
        calls = [
            lambda: eco_norm(m.entries, g, bad),
            lambda: EnergyProfile(m, g).solve(bad),
            lambda: dual_scan_witness(m.entries[None], g, bad),
            lambda: ecd_norm_seesaw(identity_map, g, bad, restarts=1),
            lambda: eco_norm_primal(m.entries, g, bad),
            lambda: constrained_rayleigh_max(m, g, bad),
            lambda: random_feasible_sample_max(m, g, bad, 10),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="positive and finite"):
                call()

    def test_primal_upper_bracket_overflow_is_named(self):
        # 2*max(1, lam_max(M)/E) is not finite at a subnormal budget.
        from eclim.norms import constrained_rayleigh_max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match=r"overflows at the energy budget E=1e-320"):
                constrained_rayleigh_max(diag(0.0, 1.0), ref(0.0, 1.0), 1e-320)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_stability_e0(self, bad):
        from eclim.lindblad import min_omega
        with pytest.raises(ValueError, match="e0 must be positive and finite"):
            min_omega(diag(0.0, 1.0), ref(0.0, 1.0), bad)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
    def test_times(self, bad):
        from eclim.apps import trotter_run
        from eclim.lindblad import LindbladGenerator
        from eclim.models import BirthRates, birth_trace
        with pytest.raises(ValueError, match="time must be"):
            birth_trace(BirthRates.power(0.0), 5, bad)
        gen = LindbladGenerator.from_hamiltonian(SX)
        with pytest.raises(ValueError, match="time must be"):
            trotter_run(gen, gen, ref(0.0, 1.0), 1.0, bad, [4])


def _records_with_arrays():
    """(caller arrays, build, fields) of each record that takes arrays,
    with its inputs in the dtype it stores, so no conversion copies them."""
    from eclim.channels import KrausChannel
    from eclim.gaussian import GaussianChannel, GaussianGenerator, GaussianState
    from eclim.lindblad import LindbladGenerator
    p = 0.4
    kraus = [np.diag([1.0, np.sqrt(1 - p)]).astype(complex),
             np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)]
    cases = [
        ("HermitianMatrix", [np.diag([0.0, 1.0]).astype(complex)],
         lambda a: HermitianMatrix(a[0]), ("entries",)),
        ("KrausChannel", kraus, lambda a: KrausChannel(tuple(a)), ("kraus",)),
        ("LindbladGenerator", [-0.5 * np.diag([0.0, 1.0]).astype(complex),
                               np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)],
         lambda a: LindbladGenerator(a[0], (a[1],)), ("k", "lindblad")),
        ("GaussianState", [np.eye(2), np.zeros(2)],
         lambda a: GaussianState(1, a[0], a[1]), ("gamma", "beta")),
        ("GaussianChannel", [np.sqrt(0.5) * np.eye(2), 0.5 * np.eye(2), np.zeros(2)],
         lambda a: GaussianChannel(*a), ("x", "y", "alpha")),
        ("GaussianGenerator", [-0.5 * np.eye(2), np.eye(2)],
         lambda a: GaussianGenerator(1, *a), ("xdot", "ydot")),
    ]
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


class TestOneStorePath:
    """Every frozen record stores its fields through ``opcore._set_fields``."""

    @pytest.mark.parametrize("arrays, build, fields", _records_with_arrays())
    def test_record_owns_its_arrays(self, arrays, build, fields):
        record = build(arrays)
        assert all(a.flags.writeable for a in arrays)
        before = [np.array(getattr(record, f)) for f in fields]
        for a in arrays:
            a += 3.0
        for f, was in zip(fields, before):
            now = getattr(record, f)
            assert np.array_equal(np.asarray(now), was), f
            for arr in (now if isinstance(now, tuple) else (now,)):
                assert not arr.flags.writeable, f

    def test_object_setattr_only_in_the_helper(self):
        import inspect
        from pathlib import Path
        counts = {p.name: p.read_text().count("object.__setattr__")
                  for p in sorted(Path(opcore.__file__).parent.glob("*.py"))}
        assert inspect.getsource(opcore._set_fields).count("object.__setattr__") == 1
        assert {name: n for name, n in counts.items() if n} == {"opcore.py": 1}
