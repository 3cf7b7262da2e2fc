"""Generator certification, semigroup simulation, and energy-bound tests."""

from math import comb

import numpy as np
import pytest

import eclim.lindblad as lindblad
from eclim.lindblad import (
    DENSE_EXPM_MAX_DIM,
    BoundViolation,
    EnergyBoundReport,
    LindbladGenerator,
    StabilityCertificate,
    best_certificate,
    default_e0_grid,
    dissipation_matrix,
    evolve,
    evolve_grid,
    joint_constants,
    min_omega,
    pencil_vector,
    stability_curve,
    unitary_dissipation,
    verify_energy_bound,
)
from eclim.opcore import (
    CERT_RESIDUAL_RTOL,
    DensityState,
    HermitianMatrix,
    ReferenceHamiltonian,
    energy,
    random_density,
    random_hermitian,
    random_reference,
    rng_from_seed,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def ref(*vals):
    return ReferenceHamiltonian(HermitianMatrix(np.diag(vals).astype(complex)))


def random_generator(d, rng, conservative=None):
    h = random_hermitian(d, rng).entries
    n_l = int(rng.integers(0, 3))
    ls = tuple(0.7 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
               for _ in range(n_l))
    if conservative is None:
        conservative = bool(rng.integers(0, 2))
    if conservative or not ls:
        return LindbladGenerator.from_hamiltonian(h, ls)
    k = -1j * h - 0.5 * sum(l.conj().T @ l for l in ls) - 0.05 * np.eye(d)
    return LindbladGenerator(k, ls)


class TestGeneratorValidation:
    def test_hamiltonian_is_conservative(self):
        gen = LindbladGenerator.from_hamiltonian(SX)
        assert gen.formally_conservative

    def test_damping_is_conservative(self):
        gen = LindbladGenerator.from_hamiltonian(np.zeros((2, 2)), (LOWER,))
        assert gen.formally_conservative

    def test_strictly_dissipative_flagged(self):
        k = -0.5 * LOWER.conj().T @ LOWER - 0.1 * np.eye(2)
        gen = LindbladGenerator(k, (LOWER,))
        assert not gen.formally_conservative

    def test_rejects_expanding(self):
        with pytest.raises(ValueError):
            LindbladGenerator(0.1 * np.eye(2), (LOWER,))


class TestDissipationMatrix:
    def test_commuting_hamiltonian(self):
        gen = LindbladGenerator.from_hamiltonian(np.diag([1.0, 3.0]).astype(complex))
        m = dissipation_matrix(gen, ref(0.0, 1.0))
        assert np.allclose(m.entries, 0.0, atol=1e-12)

    def test_sigma_x_gives_minus_sigma_y(self):
        gen = LindbladGenerator.from_hamiltonian(SX)
        m = dissipation_matrix(gen, ref(0.0, 1.0))
        assert np.allclose(m.entries, -SY, atol=1e-12)
        assert sorted(np.linalg.eigvalsh(m.entries)) == [pytest.approx(-1.0),
                                                         pytest.approx(1.0)]

    def test_pure_damping(self):
        gen = LindbladGenerator(-0.5 * np.diag([0.0, 1.0]).astype(complex), (LOWER,))
        m = dissipation_matrix(gen, ref(0.0, 1.0))
        assert np.allclose(m.entries, -np.diag([0.0, 1.0]), atol=1e-12)

    def test_unitary_dissipation_is_the_hamiltonian_generators(self):
        rng = rng_from_seed(4)
        g = random_reference(4, rng)
        h = random_hermitian(4, rng)
        m = dissipation_matrix(LindbladGenerator.from_hamiltonian(h), g)
        assert np.allclose(unitary_dissipation(h, g).entries, m.entries, atol=1e-12)


class TestMinOmega:
    def test_zero_matrix(self):
        cert = min_omega(HermitianMatrix(np.zeros((2, 2))), ref(0.0, 1.0), 1.0)
        assert cert.omega == 0.0

    def test_minus_sigma_y_pencil(self):
        # congruence gives off-diagonal 1/sqrt(e0(1+e0)); eigenvalues +-
        m = HermitianMatrix(-SY)
        assert min_omega(m, ref(0.0, 1.0), 1.0, symmetric=True).omega == pytest.approx(
            1.0 / np.sqrt(2.0), abs=1e-12)
        assert min_omega(m, ref(0.0, 1.0), 3.0, symmetric=True).omega == pytest.approx(
            1.0 / np.sqrt(12.0), abs=1e-12)

    def test_unit_slope_growth(self):
        g = ref(0.0, 1.0, 2.0)
        for e0 in (0.5, 2.0, 50.0):
            cert = min_omega(g.matrix, g, e0)
            expect = max(eps / (eps + e0) for eps in (0.0, 1.0, 2.0))
            assert cert.omega == pytest.approx(expect, abs=1e-12)

    def test_requires_positive_e0(self):
        with pytest.raises(ValueError):
            min_omega(HermitianMatrix(np.zeros((2, 2))), ref(0.0, 1.0), 0.0)

    def test_residual_nonnegative(self):
        rng = rng_from_seed(1)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            m = random_hermitian(d, rng)
            g = random_reference(d, rng)
            cert = min_omega(m, g, 0.7, symmetric=bool(rng.integers(0, 2)))
            assert cert.residual >= -1e-10 * (1.0 + m.operator_norm())

    def test_residual_is_the_unsymmetrized_gap_floor(self):
        rng = rng_from_seed(6)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            m = random_hermitian(d, rng)
            g = random_reference(d, rng)
            for e0 in (0.1, 2.0):
                for symmetric in (False, True):
                    cert = min_omega(m, g, e0, symmetric=symmetric)
                    shifted = cert.omega * (g.entries + e0 * np.eye(d))
                    expect = float(np.linalg.eigvalsh(shifted - m.entries)[0])
                    if symmetric:
                        expect = min(expect, float(np.linalg.eigvalsh(shifted + m.entries)[0]))
                    assert cert.residual == expect

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["minus_m", "plus_m"])
    @pytest.mark.parametrize("factor, accepted", [(0.9, True), (1.1, False)],
                             ids=["inside", "past"])
    def test_too_small_omega_is_rejected(self, monkeypatch, sign, factor, accepted):
        # M = diag(0, +-2), G = diag(0, 1), e0 = 1 pencil to omega = 1; an
        # omega lowered to 1 - delta leaves the residual -2 delta against the
        # slack 1e-8 * (1 + ||M||).  The symmetric certificate checks
        # omega (G + e0) - M and omega (G + e0) + M; sign picks which one binds.
        delta = factor * CERT_RESIDUAL_RTOL * 3.0 / 2.0
        pencil = lindblad._pencil

        def lowered(m, g, e0):
            w, a = pencil(m, g, e0)
            return w, (1.0 - delta) * a

        monkeypatch.setattr(lindblad, "_pencil", lowered)
        m = HermitianMatrix(np.diag([0.0, 2.0 * sign]).astype(complex))
        if accepted:
            cert = min_omega(m, ref(0.0, 1.0), 1.0, symmetric=True)
            assert cert.residual == pytest.approx(-2.0 * delta, rel=1e-6)
        else:
            with pytest.raises(ValueError, match="stability certificate fails verification"):
                min_omega(m, ref(0.0, 1.0), 1.0, symmetric=True)


class TestStabilityCurve:
    def test_commuting_all_zero(self):
        gen = LindbladGenerator.from_hamiltonian(np.diag([1.0, 3.0]).astype(complex))
        g = ref(0.0, 1.0)
        certs = stability_curve(dissipation_matrix(gen, g), g, (0.5, 1.0, 2.0))
        assert all(c.omega == 0.0 for c in certs)

    def test_omega_nonincreasing(self):
        rng = rng_from_seed(2)
        gen = random_generator(4, rng)
        g = random_reference(4, rng)
        certs = stability_curve(dissipation_matrix(gen, g), g, default_e0_grid(g))
        omegas = [c.omega for c in certs]
        assert all(b <= a + 1e-12 for a, b in zip(omegas, omegas[1:]))


class TestBudget:
    def test_finite_budget_is_the_closed_form(self):
        cert = StabilityCertificate(0.7, 0.3)
        assert cert.budget(1.5, -2.0) == float(np.exp(0.7 * 2.0) * (1.5 + 0.3) - 0.3)

    @pytest.mark.parametrize("energy_in, t", [(1e308, 1.0), (1.0, 1e3)])
    def test_overflow_is_inf_without_a_warning(self, energy_in, t):
        # pytest turns warnings into errors, so an overflow warning fails here
        assert StabilityCertificate(1.0, 0.5).budget(energy_in, t) == np.inf


class TestEvolve:
    def test_zero_generator(self):
        gen = LindbladGenerator.from_hamiltonian(np.zeros((2, 2)))
        rho = DensityState.pure(np.array([0.6, 0.8]))
        assert np.allclose(evolve(gen, rho, 2.5).entries, rho.entries, atol=1e-12)

    def test_amplitude_damping_closed_form(self):
        # pins the vectorization convention
        gen = LindbladGenerator.from_hamiltonian(np.zeros((2, 2)), (LOWER,))
        rho = DensityState.pure(np.array([0.0, 1.0]))
        for t in (0.2, 1.0, 3.0):
            out = evolve(gen, rho, t)
            expect = np.diag([1.0 - np.exp(-t), np.exp(-t)])
            assert np.allclose(out.entries, expect, atol=1e-10)

    def test_hamiltonian_matches_unitary_conjugation(self):
        rng = rng_from_seed(3)
        h = random_hermitian(3, rng)
        gen = LindbladGenerator.from_hamiltonian(h)
        rho = random_density(3, rng)
        t = 0.9
        evals, evecs = h.eigh()
        u = evecs @ np.diag(np.exp(-1j * evals * t)) @ evecs.conj().T
        expect = u @ rho.entries @ u.conj().T
        assert np.allclose(evolve(gen, rho, t).entries, expect, atol=1e-10)

    def test_trace_behavior(self):
        rng = rng_from_seed(4)
        cons = random_generator(3, rng, conservative=True)
        rho = random_density(3, rng)
        assert evolve(cons, rho, 1.3).trace() == pytest.approx(rho.trace(), abs=1e-9)
        diss = random_generator(3, rng, conservative=False)
        if not diss.formally_conservative:
            assert evolve(diss, rho, 1.3).trace() <= rho.trace() + 1e-9

    def test_negative_time_rejected(self):
        gen = LindbladGenerator.from_hamiltonian(np.zeros((2, 2)))
        rho = DensityState.pure(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            evolve(gen, rho, -0.1)
        for grid in ((0.5, -0.1), (0.5, float("nan")), (float("inf"),)):
            with pytest.raises(ValueError):
                evolve_grid(gen, rho, grid)

    def test_large_dimension_sparse_path(self):
        # dim 30 exercises the expm_multiply branch against the dense one
        n = 30
        a = np.diag(np.sqrt(np.arange(1, n)), 1).astype(complex)
        gen = LindbladGenerator.from_hamiltonian(np.zeros((n, n)), (a,))
        pops = np.exp(-np.arange(n) / 2.0)
        pops /= pops.sum()
        rho = DensityState(HermitianMatrix(np.diag(pops).astype(complex)))
        number = ref(*np.arange(n, dtype=float))
        e0 = energy(number, rho)
        out = evolve(gen, rho, 0.8)
        assert energy(number, out) == pytest.approx(e0 * np.exp(-0.8), rel=1e-8)


# One dimension on each side of the dense/sparse dispatch.
REGIMES = (max(2, DENSE_EXPM_MAX_DIM // 2), DENSE_EXPM_MAX_DIM + 4)


def fock_damping(d, kappa=1.0):
    a = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)
    return LindbladGenerator.from_hamiltonian(np.zeros((d, d)), (np.sqrt(kappa) * a,))


class TestEvolveGrid:
    @pytest.mark.parametrize("d", REGIMES)
    def test_shuffled_grid_matches_per_time_evolve(self, d):
        rng = rng_from_seed(40 + d)
        gen = random_generator(d, rng, conservative=False)
        rho = random_density(d, rng)
        grid = [0.9, 0.0, 0.3, 1.7, 0.3, 0.05, 0.9, 0.0, 1.1]
        states = evolve_grid(gen, rho, grid)
        assert len(states) == len(grid)
        assert states[1] is rho and states[7] is rho
        for t, out in zip(grid, states):
            expect = evolve(gen, rho, t).entries
            assert np.max(np.abs(out.entries - expect)) <= 1e-12

    @pytest.mark.parametrize("d", (2,) + REGIMES)
    def test_amplitude_damping_closed_form(self, d):
        # From the top Fock level |d-1>, the populations are binomial with
        # survival probability exp(-kappa t) per quantum.
        kappa = 0.7
        gen = fock_damping(d, kappa)
        top = np.zeros(d)
        top[-1] = 1.0
        rho = DensityState.pure(top)
        grid = (1.5, 0.1, 0.6, 3.0)
        for t, out in zip(grid, evolve_grid(gen, rho, grid)):
            p = np.exp(-kappa * t)
            k = d - 1
            pops = [comb(k, n) * p ** n * (1.0 - p) ** (k - n) for n in range(d)]
            assert np.max(np.abs(out.entries - np.diag(pops))) <= 1e-10

    @pytest.mark.parametrize("d", REGIMES)
    def test_trace_increase_raises_inside_sweep(self, d, monkeypatch):
        gen = fock_damping(d)
        rho = DensityState(HermitianMatrix(np.eye(d, dtype=complex) / d))
        calls = []
        if d <= DENSE_EXPM_MAX_DIM:
            real = lindblad.expm

            def inflated(a):
                calls.append(a)
                return real(a) * (1.5 if len(calls) == 3 else 1.0)

            monkeypatch.setattr(lindblad, "expm", inflated)
        else:
            real = lindblad.expm_multiply

            def inflated(a, v):
                calls.append(a)
                return real(a, v) * (1.5 if len(calls) == 3 else 1.0)

            monkeypatch.setattr(lindblad, "expm_multiply", inflated)
        with pytest.raises(BoundViolation):
            evolve_grid(gen, rho, (0.4, 0.1, 0.2, 0.8))
        # The dense regime builds the grid's propagators before applying them;
        # the sweep stops at the step that raised.
        assert len(calls) == (4 if d <= DENSE_EXPM_MAX_DIM else 3)

    @pytest.mark.parametrize("d", REGIMES)
    def test_cache_holds_only_the_last_grid(self, d):
        gen = fock_damping(d)
        rho = DensityState(HermitianMatrix(np.eye(d, dtype=complex) / d))
        rng = rng_from_seed(41)
        for _ in range(50):
            grid = [0.0] + list(rng.random(3) * 2.0)
            evolve_grid(gen, rho, grid)
        cache = gen._cache
        assert set(cache) <= {"superop", "superop_sparse", "grid"}
        if d <= DENSE_EXPM_MAX_DIM:
            assert set(cache["grid"]) == set(grid[1:])
        else:
            assert "grid" not in cache

    def test_evolve_reuses_the_last_grid(self, monkeypatch):
        gen = fock_damping(3)
        rho = DensityState.pure(np.array([0.0, 0.6, 0.8]))
        grid = (0.2, 0.5, 1.0)
        states = evolve_grid(gen, rho, grid)
        monkeypatch.setattr(lindblad, "expm", None)  # any new propagator would fail
        for t, out in zip(grid, states):
            assert np.array_equal(evolve(gen, rho, t).entries, out.entries)


class TestVerifyEnergyBound:
    def test_commuting_energy_constant(self):
        gen = LindbladGenerator.from_hamiltonian(np.diag([1.0, 3.0]).astype(complex))
        g = ref(0.0, 1.0)
        cert = min_omega(dissipation_matrix(gen, g), g, 1.0)
        rho = DensityState.pure(np.array([0.6, 0.8]))
        report = verify_energy_bound(gen, g, cert, rho, (0.1, 0.5, 1.0))
        assert cert.omega == 0.0
        for e_t in report.energies:
            assert e_t == pytest.approx(report.initial_energy, abs=1e-10)

    def test_damping_omega_zero(self):
        gen = LindbladGenerator.from_hamiltonian(np.zeros((2, 2)), (LOWER,))
        g = ref(0.0, 1.0)
        cert = min_omega(dissipation_matrix(gen, g), g, 1.0)
        assert cert.omega == 0.0
        rho = DensityState.pure(np.array([0.0, 1.0]))
        report = verify_energy_bound(gen, g, cert, rho, (0.2, 1.0, 2.0))
        assert report.worst_margin >= -1e-7

    def test_random_certified_generators(self):
        rng = rng_from_seed(5)
        for i in range(20):
            d = int(rng.integers(2, 6))
            gen = random_generator(d, rng)
            g = random_reference(d, rng)
            m = dissipation_matrix(gen, g)
            cert = min_omega(m, g, float(default_e0_grid(g)[6]))
            for _ in range(3):
                rho = random_density(d, rng)
                report = verify_energy_bound(gen, g, cert, rho,
                                             np.linspace(0.1, 2.0, 8))
                assert report.worst_margin >= -1e-7 * (1.0 + report.initial_energy
                                                       + cert.e0)

    def test_violation_raises(self):
        gen = LindbladGenerator.from_hamiltonian(SX)
        g = ref(0.0, 1.0)
        bogus = StabilityCertificate(0.0, 1e-6)
        rho = DensityState.pure(np.array([1.0, 0.0]))
        with pytest.raises(BoundViolation):
            verify_energy_bound(gen, g, bogus, rho, (1.0,))

    def test_first_order_sharpness(self):
        rng = rng_from_seed(6)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            gen = random_generator(d, rng)
            g = random_reference(d, rng)
            m = dissipation_matrix(gen, g)
            e0 = 1.0
            psi = pencil_vector(m, g, e0)
            rho = DensityState.pure(psi)
            delta = 1e-5
            deriv = (energy(g, evolve(gen, rho, delta)) - energy(g, rho)) / delta
            expect = float(np.real(psi.conj() @ m.entries @ psi))
            assert deriv == pytest.approx(expect, rel=1e-3, abs=1e-8)


class TestJointConstants:
    def test_pairwise_max_verifies_for_each(self):
        rng = rng_from_seed(7)
        g = random_reference(3, rng)
        gens = [random_generator(3, rng) for _ in range(3)]
        grid = default_e0_grid(g)
        curves = [stability_curve(dissipation_matrix(gen, g), g, grid) for gen in gens]
        joint = joint_constants(curves)
        cert = best_certificate(joint, 1.0, 1.0)
        for gen in gens:
            rho = random_density(3, rng)
            report = verify_energy_bound(gen, g, cert, rho, (0.25, 1.0))
            assert report.worst_margin >= -1e-7 * (1.0 + report.initial_energy + cert.e0)


def test_report_structure():
    gen = LindbladGenerator.from_hamiltonian(np.zeros((2, 2)))
    g = ref(0.0, 1.0)
    cert = StabilityCertificate(0.0, 1.0)
    rho = DensityState.pure(np.array([1.0, 0.0]))
    report = verify_energy_bound(gen, g, cert, rho, (0.5, 1.0))
    assert isinstance(report, EnergyBoundReport)
    assert len(report.times) == len(report.margins) == 2
