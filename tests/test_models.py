"""Birth process, spin system, and Rabi model tests."""

import numpy as np
import pytest

from eclim.lindblad import evolve
from eclim.models import (
    BirthRates,
    birth_epsilons,
    birth_generator,
    birth_survival_exact,
    birth_tau,
    birth_trace,
    ad_norm_su2,
    rabi_certificate,
    rabi_commutator,
    rabi_hamiltonian,
    spin_system,
)
from eclim.norms import eco_norm
from eclim.opcore import (
    DensityState,
    HermitianMatrix,
    ReferenceHamiltonian,
    haar_state,
    psd_order_leq,
    rng_from_seed,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestBirthTau:
    def test_geometric_two(self):
        tau, verdict = birth_tau(BirthRates.geometric(2.0), 60)
        assert tau == pytest.approx(2.0, abs=1e-12)
        assert verdict == "finite"

    def test_constant_diverges(self):
        tau, verdict = birth_tau(BirthRates.power(0.0), 50)
        assert tau == pytest.approx(50.0)
        assert verdict == "diverges"

    def test_basel(self):
        tau, verdict = birth_tau(BirthRates.power(2.0), 200000)
        assert verdict == "finite"
        assert abs(tau - np.pi ** 2 / 6.0) < 1.0 / 200000

    def test_explicit_undecided(self):
        tau, verdict = birth_tau(BirthRates.from_list([1.0, 2.0, 4.0]), 3)
        assert tau == pytest.approx(1.75)
        assert verdict == "undecided"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BirthRates.from_list([1.0, 0.0])


class TestBirthGenerator:
    def test_conservative_except_top(self):
        gen = birth_generator(BirthRates.power(0.0), 5)
        assert not gen.formally_conservative
        defect = sum(l.conj().T @ l for l in gen.lindblad) + gen.k + gen.k.conj().T
        # exactly conservative on levels below the cutoff
        assert np.allclose(defect[:5, :5], 0.0, atol=1e-12)
        assert defect[5, 5] == pytest.approx(-1.0)

    def test_conservative_regime_poisson(self):
        # constant rates: the trace equals the Poisson cdf P(X_t <= N)
        # exactly, and reaches the 1e-6 level at N >= 5t once t >= 3
        from math import exp, factorial
        for n, t in ((5, 1.0), (15, 3.0), (20, 4.0)):
            tr = birth_trace(BirthRates.power(0.0), n, t)
            poisson = sum(exp(-t) * t ** k / factorial(k) for k in range(n + 1))
            assert tr == pytest.approx(poisson, abs=1e-9)
        assert birth_trace(BirthRates.power(0.0), 15, 3.0) >= 1.0 - 1e-6
        assert birth_trace(BirthRates.power(0.0), 20, 4.0) >= 1.0 - 1e-6

    def test_escape_with_fast_rates(self):
        tr = birth_trace(BirthRates.geometric(2.0), 40, 3.0)
        assert tr < 0.9
        # matches the hypoexponential closed form
        assert tr == pytest.approx(birth_survival_exact(BirthRates.geometric(2.0), 40, 3.0),
                                   abs=1e-9)

    def test_trace_decreasing_in_time(self):
        rates = BirthRates.geometric(2.0)
        traces = [birth_trace(rates, 40, t) for t in (1.0, 2.0, 3.0, 4.0)]
        assert all(b < a for a, b in zip(traces, traces[1:]))

    def test_escape_persists_as_cutoff_grows(self):
        # raising the cutoff can only delay escape, so the deficit shrinks
        # toward the escape probability, which stays bounded away from 0
        rates = BirthRates.geometric(2.0)
        deficits = [1.0 - birth_trace(rates, n, 3.0) for n in (20, 30, 40)]
        assert all(b <= a + 1e-9 for a, b in zip(deficits, deficits[1:]))
        assert all(d > 0.5 for d in deficits)

    def test_constant_deficit_vanishes(self):
        rates = BirthRates.power(0.0)
        assert 1.0 - birth_trace(rates, 25, 3.0) < 1e-9

    def test_generator_matches_population_chain(self):
        rates = BirthRates.geometric(2.0)
        gen = birth_generator(rates, 12)
        rho0 = np.zeros((13, 13), dtype=complex)
        rho0[0, 0] = 1.0
        out = evolve(gen, DensityState(HermitianMatrix(rho0)), 1.5)
        assert out.trace() == pytest.approx(birth_trace(rates, 12, 1.5), abs=1e-9)


class TestBirthEpsilons:
    def test_doubling(self):
        cert = birth_epsilons(BirthRates.power(0.0), 5)
        assert cert.epsilons == (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)

    def test_geometric_bounded(self):
        cert = birth_epsilons(BirthRates.geometric(2.0), 60)
        # the partial products converge, so epsilons stay bounded
        assert cert.epsilons[-1] < 2.5
        assert cert.epsilons[-1] == pytest.approx(cert.epsilons[-2], rel=1e-12)

    def test_residuals_nonnegative_conservative(self):
        for rates, cutoff in ((BirthRates.power(0.0), 200),
                              (BirthRates.power(0.7), 200),
                              (BirthRates.geometric(0.5), 40)):
            cert = birth_epsilons(rates, cutoff)
            assert min(cert.residuals) >= 0.0
            assert cert.omega == 1.0
            assert cert.e0 == pytest.approx(1.0 / rates.rates_array(1)[0])

    def test_overflowing_sequence_raises(self):
        with pytest.raises(ValueError, match="epsilon sequence exceeds float range"):
            birth_epsilons(BirthRates.geometric(0.5), 100)


class TestSpinSystem:
    def test_single_qubit(self):
        s = spin_system(1)
        assert np.allclose(s.laplacian.entries, 3.0 * np.eye(2))
        assert s.ground_energy == pytest.approx(3.0)

    def test_two_qubits_spectrum(self):
        s = spin_system(2)
        eigs = np.unique(np.round(s.laplacian.eigvals(), 9))
        assert list(eigs) == [pytest.approx(0.0), pytest.approx(8.0)]

    def test_commutators_many_qubits(self):
        s = spin_system(7)  # construction validates [Sx, Sy] = 2i Sz
        assert s.dim == 128
        assert s.ground_energy == pytest.approx(3.0, abs=1e-9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            spin_system(0)
        with pytest.raises(ValueError):
            spin_system(11)


class TestAdNorm:
    def test_basis_direction(self):
        assert ad_norm_su2([1.0, 0.0, 0.0]) == pytest.approx(2.0)

    def test_zero(self):
        assert ad_norm_su2([0.0, 0.0, 0.0]) == 0.0

    def test_scaling(self):
        c = np.array([0.3, -1.2, 0.4])
        assert ad_norm_su2(2.0 * c) == pytest.approx(2.0 * ad_norm_su2(c))
        assert ad_norm_su2(c) == pytest.approx(2.0 * np.linalg.norm(c))


class TestNelsonBounds:
    def test_generator_squared_below_laplacian(self):
        for n in range(1, 6):
            s = spin_system(n)
            for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                ax = s.generator(c)
                assert psd_order_leq(HermitianMatrix(ax.entries @ ax.entries),
                                     s.laplacian, 1e-9)

    def test_eco_norm_of_spin_operators(self):
        for n in (2, 3, 4):
            s = spin_system(n)
            for e in (0.5, 2.0, 8.0):
                for op in (s.sx, s.sy, s.sz):
                    v, _ = eco_norm(op.entries, s.reference, e)
                    assert v <= np.sqrt(e + s.ground_energy) + 1e-9

    def test_group_energy_limited(self):
        # f_U(E) <= e^{2|t| * 2} (E + gse) - gse for U = exp(-it Sx)
        from eclim.channels import KrausChannel, max_output_energy
        s = spin_system(2)
        g = s.reference
        gse = s.ground_energy
        evals, evecs = s.sx.eigh()
        rng = rng_from_seed(9)
        for t in rng.uniform(-1.0, 1.0, size=5):
            u = evecs @ np.diag(np.exp(-1j * evals * t)) @ evecs.conj().T
            for e in (0.5, 2.0):
                f, _ = max_output_energy(KrausChannel.unitary(u), g, g, e)
                bound = np.exp(2.0 * abs(t) * 2.0) * (e + gse) - gse
                assert f <= bound + 1e-8 * (1.0 + bound)


class TestRabi:
    def test_commuting_when_uncoupled(self):
        model = rabi_hamiltonian(1.0, 0.0, 0.5, 20)
        assert rabi_certificate(model, 2.0).omega == pytest.approx(0.0, abs=1e-12)

    def test_interior_commutator_identity(self):
        model = rabi_hamiltonian(1.0, 0.3, 0.5, 30)
        n = 31
        a = np.diag(np.sqrt(np.arange(1, n)), 1).astype(complex)
        ideal = 1j * 0.3 * np.kron(PAULI_X, a - a.conj().T)
        keep = np.flatnonzero(model.interior)
        comm = rabi_commutator(model).entries
        assert np.allclose(comm[np.ix_(keep, keep)], ideal[np.ix_(keep, keep)],
                           atol=1e-12)

    def test_certificate_below_analytic(self):
        model = rabi_hamiltonian(1.0, 0.3, 0.5, 40)
        cert = rabi_certificate(model, 2.0)
        assert cert.omega <= 0.3 * (1.0 + 1e-3)
        assert cert.residual >= -1e-10

    def test_certificate_stable_in_cutoff(self):
        c40 = rabi_certificate(rabi_hamiltonian(1.0, 0.3, 0.5, 40), 2.0)
        c60 = rabi_certificate(rabi_hamiltonian(1.0, 0.3, 0.5, 60), 2.0)
        assert abs(c40.omega - c60.omega) < 1e-6

    def test_number_reference_grounded(self):
        model = rabi_hamiltonian(1.0, 0.3, 0.5, 10)
        assert isinstance(model.number, ReferenceHamiltonian)
        assert float(model.number.eigh()[0][0]) == pytest.approx(0.0, abs=1e-12)
