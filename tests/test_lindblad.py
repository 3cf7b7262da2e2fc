"""Generator certification, semigroup simulation, and energy-bound tests."""

from math import comb

import numpy as np
import pytest
import scipy.sparse
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

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
from eclim.models import spin_system
from eclim.opcore import (
    CERT_RESIDUAL_RTOL,
    FULL_EIGH_MAX_DIM,
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
    @staticmethod
    def _defect(gen):
        return sum(l.conj().T @ l for l in gen.lindblad) + gen.k + gen.k.conj().T

    def test_hamiltonian_is_conservative(self):
        gen = LindbladGenerator.from_hamiltonian(SX)
        assert np.allclose(self._defect(gen), 0.0, atol=1e-15)

    def test_damping_is_conservative(self):
        gen = LindbladGenerator.from_hamiltonian(np.zeros((2, 2)), (LOWER,))
        assert np.allclose(self._defect(gen), 0.0, atol=1e-15)

    def test_rejects_expanding(self):
        with pytest.raises(ValueError):
            LindbladGenerator(0.1 * np.eye(2), (LOWER,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
    def test_rejects_non_finite_operators_by_name(self, bad):
        # checked before the dissipativity test, so no numpy warning comes first
        k = np.zeros((2, 2), dtype=complex)
        k[0, 0] = bad
        with pytest.raises(ValueError, match="^K has a non-finite entry$"):
            LindbladGenerator(k, (LOWER,))
        l = LOWER.copy()
        l[1, 0] = bad
        with pytest.raises(ValueError, match="^Lindblad operator 1 has a non-finite entry$"):
            LindbladGenerator(np.zeros((2, 2)), (LOWER, l))
        # from_hamiltonian names H and L before its own arithmetic on them
        with pytest.raises(ValueError, match="^H has a non-finite entry$"):
            LindbladGenerator.from_hamiltonian(k, (LOWER,))
        with pytest.raises(ValueError, match="^Lindblad operator 1 has a non-finite entry$"):
            LindbladGenerator.from_hamiltonian(np.zeros((2, 2)), (LOWER, l))

    def test_overflowing_lindblad_products_are_named(self):
        # pytest turns warnings into errors, so a warning from the products fails here
        with pytest.raises(ValueError, match=r"^Lindblad operator 1 is too large: L\*L overflows$"):
            LindbladGenerator.from_hamiltonian(np.zeros((2, 2)), (LOWER, 1e200 * LOWER))
        # each L*L is 1e308, finite; their sum is not
        with pytest.raises(ValueError, match=r"^K = -iH - \(1/2\) sum L\*L has a non-finite entry$"):
            LindbladGenerator.from_hamiltonian(np.zeros((2, 2)), (1e154 * LOWER, 1e154 * LOWER))


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


def _spy_floors(monkeypatch) -> list:
    """Record the gap of every floor lindblad checks (require_psd still decides)."""
    floors, require_psd = [], lindblad.require_psd

    def spy(gap_of, slack, what):
        floors.append(np.array(gap_of()))
        return require_psd(gap_of, slack, what)

    monkeypatch.setattr(lindblad, "require_psd", spy)
    return floors


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
        # checked before any scaling, so no division warning comes first
        m, g = HermitianMatrix(np.zeros((2, 2))), ref(0.0, 1.0)
        for e0 in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="e0 must be positive and finite"):
                min_omega(m, g, e0)
            with pytest.raises(ValueError, match="e0 must be positive and finite"):
                lindblad._scaled_pencil(lindblad._rotated(m, g), e0)

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

    def test_residual_read_after_a_proved_check_is_the_gap_floor(self):
        # Above FULL_EIGH_MAX_DIM the floors are proved by Cholesky, and the
        # residual is computed from the rebuilt gaps when first read.
        rng = rng_from_seed(9)
        d = FULL_EIGH_MAX_DIM + 3
        for symmetric in (False, True):
            m, g = random_hermitian(d, rng), random_reference(d, rng)
            cert = min_omega(m, g, 0.7, symmetric=symmetric)
            shifted = cert.omega * (g.entries + 0.7 * np.eye(d))
            expect = float(np.linalg.eigvalsh(shifted - m.entries)[0])
            if symmetric:
                expect = min(expect, float(np.linalg.eigvalsh(shifted + m.entries)[0]))
            assert cert.residual == expect
            assert cert == StabilityCertificate(cert.omega, 0.7, residual=expect)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["minus_m", "plus_m"])
    @pytest.mark.parametrize("factor, accepted", [(0.9, True), (1.1, False)],
                             ids=["inside", "past"])
    def test_too_small_omega_is_rejected(self, monkeypatch, sign, factor, accepted):
        # M = diag(0, +-2), G = diag(0, 1), e0 = 1 pencil to omega = 1; an
        # omega lowered to 1 - delta leaves the residual -2 delta against the
        # slack 1e-8 * (1 + ||M||).  The symmetric certificate checks
        # omega (G + e0) - M and omega (G + e0) + M; sign picks which one binds.
        delta = factor * CERT_RESIDUAL_RTOL * 3.0 / 2.0
        scaled = lindblad._scaled_pencil

        def lowered(rotated, e0):
            s, b = scaled(rotated, e0)
            return s, (1.0 - delta) * b

        monkeypatch.setattr(lindblad, "_scaled_pencil", lowered)
        m = HermitianMatrix(np.diag([0.0, 2.0 * sign]).astype(complex))
        if accepted:
            cert = min_omega(m, ref(0.0, 1.0), 1.0, symmetric=True)
            assert cert.residual == pytest.approx(-2.0 * delta, rel=1e-6)
        else:
            with pytest.raises(ValueError, match="stability certificate fails verification"):
                min_omega(m, ref(0.0, 1.0), 1.0, symmetric=True)


def _direct_pencil(m: HermitianMatrix, g: ReferenceHamiltonian, e0: float) -> np.ndarray:
    """W M W with W = (G + e0)^(-1/2) from an eigendecomposition of G + e0 itself."""
    ev, vecs = np.linalg.eigh(g.entries + e0 * np.eye(g.dim))
    w = vecs @ (ev[:, None] ** -0.5 * vecs.conj().T)
    a = w @ m.entries @ w
    return (a + a.conj().T) / 2.0


def _pencil_cases() -> list:
    rng = rng_from_seed(17)
    cases = [pytest.param(random_hermitian(d, rng), random_reference(d, rng), id=f"random-{d}")
             for d in (2, 5, 16)]
    spin = spin_system(3)  # the Casimir reference: eigenvalues 0 and 12, four each
    return cases + [pytest.param(random_hermitian(spin.dim, rng), spin.reference, id="casimir-8")]


def _commuting_cases() -> list:
    rng = rng_from_seed(18)
    cases = []
    for d in (2, 5, 16):
        g = ref(0.0, *np.sort(rng.uniform(0.5, 4.0, d - 1)))
        h = HermitianMatrix(np.diag(rng.standard_normal(d)).astype(complex))
        cases.append(pytest.param(h, g, id=f"diagonal-{d}"))
    spin = spin_system(3)
    return cases + [pytest.param(spin.sx, spin.reference, id="casimir-8")]


class TestEigenbasisPencil:
    """The pencil taken in G's eigenbasis against the W M W matrix built directly."""

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("m, g", _pencil_cases())
    def test_omegas_match_the_direct_pencil(self, m, g, symmetric):
        curve = stability_curve(m, g, default_e0_grid(g), symmetric)
        for e0, omega in zip(curve.e0s, curve.omegas):
            evals = np.linalg.eigvalsh(_direct_pencil(m, g, e0))
            expect = max(0.0, float(evals[-1]))
            if symmetric:
                expect = max(expect, float(-evals[0]))
            assert abs(omega - expect) <= 1e-12 * (1.0 + abs(expect))

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("h, g", _commuting_cases())
    def test_commuting_dissipation_has_zero_omega(self, h, g, symmetric):
        grid = default_e0_grid(g)
        m = unitary_dissipation(h, g)
        assert stability_curve(m, g, grid, symmetric).omegas == (0.0,) * len(grid)
        if not symmetric:  # -G <= 0 commutes with G but is not zero
            m = HermitianMatrix(-g.entries)
            assert stability_curve(m, g, grid).omegas == (0.0,) * len(grid)

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("d", [2, 13, 128])
    def test_zero_matrix_skips_the_eigensolve_with_the_same_bits(self, monkeypatch, d,
                                                                 symmetric):
        g = spin_system(7).reference if d == 128 else random_reference(d, rng_from_seed(d))
        rotated = lindblad._rotated(HermitianMatrix(np.zeros((d, d))), g)
        for e0 in default_e0_grid(g):
            evals = np.linalg.eigvalsh(lindblad._scaled_pencil(rotated, e0)[1])
            expect = max(0.0, float(evals[-1]))
            if symmetric:
                expect = max(expect, float(-evals[0]))
            calls = []
            monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args: calls.append(args))
            omega = lindblad._pencil_omega(rotated, e0, symmetric)
            monkeypatch.undo()
            assert calls == []
            assert np.float64(omega).tobytes() == np.float64(expect).tobytes()
        with pytest.raises(ValueError, match="e0 must be positive"):
            lindblad._pencil_omega(rotated, 0.0, symmetric)

    @pytest.mark.parametrize("m, g", _pencil_cases())
    def test_pencil_vector_saturates(self, m, g):
        for e0 in default_e0_grid(g)[::3]:
            top = float(np.linalg.eigvalsh(_direct_pencil(m, g, e0))[-1])
            v = pencil_vector(m, g, e0)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
            lhs = float(np.real(v.conj() @ m.entries @ v))
            rhs = top * float(np.real(v.conj() @ (g.entries + e0 * np.eye(g.dim)) @ v))
            assert lhs == pytest.approx(rhs, abs=1e-10 * (1.0 + abs(rhs)))


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

    def test_items_are_verified_on_first_read_only(self, monkeypatch):
        rng = rng_from_seed(11)
        g = random_reference(4, rng)
        m = random_hermitian(4, rng)
        grid = default_e0_grid(g)
        for symmetric in (False, True):
            floors = _spy_floors(monkeypatch)
            curve = stability_curve(m, g, grid, symmetric)
            assert len(curve) == len(grid)
            assert floors == []
            first = curve[3]
            assert curve[3] is first
            assert len(floors) == (2 if symmetric else 1)
            monkeypatch.undo()
            assert list(curve) == [min_omega(m, g, float(e0), symmetric) for e0 in grid]

    def test_best_certificate_verifies_only_the_first_winner(self, monkeypatch):
        rng = rng_from_seed(12)
        g = random_reference(4, rng)
        m = dissipation_matrix(random_generator(4, rng), g)
        grid = default_e0_grid(g)
        curves = [stability_curve(m, g, grid) for _ in range(2)]  # every candidate tied
        floors = _spy_floors(monkeypatch)
        best = best_certificate(curves, 1.0, 0.7)
        assert len(floors) == 1
        eager = [c for curve in curves for c in curve]
        assert best == min(eager, key=lambda c: c.budget(1.0, 0.7))
        assert any(best is c for c in curves[0])

    def test_no_candidates(self):
        with pytest.raises(ValueError, match="no certificates supplied"):
            best_certificate([], 1.0, 1.0)


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
        # dim 30 exercises the Taylor-action branch against the closed form
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


def expm_action_reference(gen, t, rho):
    """scipy.linalg.expm(t S) @ vec(rho), one dense expm per connected block of S.

    S is assembled here from K and the L_a, and permuted to block-diagonal
    form through its sparsity graph, so the d = 61 Fock generator (121 blocks
    of at most 61 states) needs no dense 3721 x 3721 expm.
    """
    eye = scipy.sparse.identity(gen.dim, format="csr")
    s = scipy.sparse.kron(gen.k, eye) + scipy.sparse.kron(eye, gen.k.conj())
    for l in gen.lindblad:
        s = s + scipy.sparse.kron(l, l.conj())
    s = scipy.sparse.csr_matrix(s)
    vec = rho.entries.reshape(-1)
    out = np.zeros_like(vec)
    _, labels = connected_components(abs(s), directed=False)
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        out[idx] = expm(t * s[idx][:, idx].toarray()) @ vec[idx]
    return out


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
            real = lindblad._taylor_action

            def inflated(op, h, v):
                calls.append(h)
                return real(op, h, v) * (1.5 if len(calls) == 3 else 1.0)

            monkeypatch.setattr(lindblad, "_taylor_action", inflated)
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

    @pytest.mark.parametrize("kind, param", [("random", 9), ("random", 12), ("random", 16),
                                             ("fock", 0.5), ("fock", 1.5)])
    def test_taylor_action_matches_dense_expm(self, kind, param):
        if kind == "random":
            d = param
            rng = rng_from_seed(60 + d)
            jump = 0.7 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            gen = LindbladGenerator.from_hamiltonian(random_hermitian(d, rng), (jump,))
            grid = (0.3, 1.1)
        else:
            d = 61
            gen = fock_damping(d, param)
            grid = (0.5, 1.0)
        rho = random_density(d, rng_from_seed(61))
        a, _, norm = gen.shifted_superoperator()
        # Random generators with a dense jump operator fill S and store A
        # dense; the Fock generator stays CSR.
        assert isinstance(a, np.ndarray) == (kind == "random")
        if (kind, param) == ("fock", 1.5):
            # A step past scipy's estimator threshold h ||A||_1 > 63.4.
            assert 0.5 * norm > 63.4
        for t, out in zip(grid, evolve_grid(gen, rho, grid)):
            expect = expm_action_reference(gen, t, rho)
            got = out.entries.reshape(-1)
            assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)

    def test_sweep_leaves_the_global_rng_alone(self):
        gen = fock_damping(61, 1.5)
        thermal = DensityState(HermitianMatrix(np.diag(0.5 ** np.arange(1, 62)).astype(complex)))
        saved = np.random.get_state()
        try:
            np.random.seed(0)
            evolve_grid(gen, thermal, (0.5, 1.0))
            after = np.random.random()
            np.random.seed(0)
            assert after == np.random.random()
        finally:
            np.random.set_state(saved)

    def test_evolve_reuses_the_last_grid(self, monkeypatch):
        gen = fock_damping(3)
        rho = DensityState.pure(np.array([0.0, 0.6, 0.8]))
        grid = (0.2, 0.5, 1.0)
        states = evolve_grid(gen, rho, grid)
        monkeypatch.setattr(lindblad, "expm", None)  # any new propagator would fail
        for t, out in zip(grid, states):
            assert np.array_equal(evolve(gen, rho, t).entries, out.entries)



def phase_covariant(d, kind):
    """H = 0.3 N with Fock damping, damping plus pumping, or dephasing: no
    jump mixes coherence orders, so S is block diagonal."""
    a = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)
    number = np.diag(np.arange(d)).astype(complex)
    jumps = {"damping": (a,), "pumping": (a, 0.4 * a.conj().T), "dephasing": (0.5 * number,)}
    return LindbladGenerator.from_hamiltonian(0.3 * number, jumps[kind])


def sector_states(d):
    """Fock, thermal and coherence states, states with -0.0 entries, and zero states."""
    fock = np.zeros((d, d), dtype=complex)
    fock[d // 2, d // 2] = 1.0
    thermal = np.diag(0.5 ** np.arange(1, d + 1)).astype(complex)
    psi = np.zeros(d, dtype=complex)
    psi[[2, 5]] = np.sqrt(0.5)
    # coherence orders +-1 only: PSD within the slack, trace 0
    orders = 1e-12 * (np.eye(d, k=1) + np.eye(d, k=-1)).astype(complex)
    signed, signed_zero = thermal.copy(), np.zeros((d, d), dtype=complex)
    for m in (signed, signed_zero):  # a -0.0 that survives (A + A*)/2, at (0, 3)
        m[0, 3], m[3, 0] = complex(-0.0, -0.0), complex(-0.0, 0.0)
    return {"fock": fock, "thermal": thermal, "superposition": np.outer(psi, psi),
            "orders": orders, "signed": signed, "zero": np.zeros((d, d), dtype=complex),
            "signed zero": signed_zero}


def full_sweep(gen, rho, times):
    """Each distinct time's state by _taylor_action on the full d^2 operator."""
    op, prev, vec = gen.shifted_superoperator(), 0.0, rho.entries.reshape(-1)
    out = {0.0: rho.entries}
    for t in sorted(set(times) - {0.0}):
        vec = lindblad._taylor_action(op, t - prev, vec)
        prev = t
        out[t] = lindblad._checked_state(vec, gen.dim, rho.trace(), t).entries
    return [out[t] for t in times]


class TestSector:
    """The sweep steps only the invariant sector that holds the state, with
    the same bits as the sweep over every entry."""

    @pytest.mark.parametrize("d", (9, 20, 61))
    @pytest.mark.parametrize("kind", ("damping", "pumping", "dephasing"))
    def test_sweep_matches_the_full_action_bitwise(self, d, kind):
        gen = phase_covariant(d, kind)
        grid = (0.4, 0.0, 1.1, 0.4)
        for name, entries in sector_states(d).items():
            rho = DensityState(HermitianMatrix(entries))
            if name.startswith("signed"):
                assert np.signbit(rho.entries.real).any()
            got = evolve_grid(gen, rho, grid)
            for out, expect in zip(got, full_sweep(gen, rho, grid)):
                assert np.array_equal(out.entries, expect), (name, out.entries - expect)
                # +0 and -0.0 compare equal: compare the bits too
                assert out.entries.tobytes() == expect.tobytes(), name

    @pytest.mark.parametrize("kind", ("damping", "pumping", "dephasing"))
    def test_sector_is_the_weak_components_meeting_the_state(self, kind):
        d = 20
        gen = phase_covariant(d, kind)
        a = gen.shifted_superoperator()[0]
        _, labels = connected_components(abs(a), directed=True, connection="weak")
        for name, entries in sector_states(d).items():
            vec = DensityState(HermitianMatrix(entries)).entries.reshape(-1)
            held = (vec != 0) | np.signbit(vec.real) | np.signbit(vec.imag)
            expect = np.flatnonzero(np.isin(labels, labels[held]))
            keep, op = lindblad._sector(gen.shifted_superoperator(), vec)
            if expect.size in (0, d * d):
                assert keep == slice(None)
            else:
                assert np.array_equal(keep, expect), name
                assert np.array_equal(op[0].toarray(), a[expect][:, expect].toarray())
                assert op[1:] == gen.shifted_superoperator()[1:]

    def test_mixing_hamiltonian_steps_every_entry(self, monkeypatch):
        d = 20
        a = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)
        gen = LindbladGenerator.from_hamiltonian(0.2 * (a + a.conj().T), (a,))
        rho = DensityState(HermitianMatrix(sector_states(d)["thermal"]))
        grid = (0.3, 0.9)
        sizes, real = [], lindblad._taylor_action
        monkeypatch.setattr(lindblad, "_taylor_action",
                            lambda op, h, v: sizes.append(v.size) or real(op, h, v))
        got = evolve_grid(gen, rho, grid)
        monkeypatch.undo()
        assert sizes == [d * d] * len(grid)
        for out, expect in zip(got, full_sweep(gen, rho, grid)):
            assert out.entries.tobytes() == expect.tobytes()


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
    def test_candidate_verifies_each_member_at_its_own_omega(self, monkeypatch):
        rng = rng_from_seed(8)
        g = random_reference(3, rng)
        ms = [dissipation_matrix(random_generator(3, rng), g) for _ in range(3)]
        grid = default_e0_grid(g)
        joint = joint_constants(ms, g, grid)
        floors = _spy_floors(monkeypatch)
        cert = joint[5]
        assert len(floors) == len(ms)
        monkeypatch.undo()
        members = [min_omega(m, g, float(grid[5])) for m in ms]
        shifted = g.entries + float(grid[5]) * np.eye(3)
        for floor, m, member in zip(floors, ms, members):
            assert np.array_equal(floor, member.omega * shifted - m.entries)
        assert cert == StabilityCertificate(max(c.omega for c in members), float(grid[5]),
                                            residual=min(c.residual for c in members))

    @pytest.mark.parametrize("case", ["tiny-e0", "random"])
    def test_every_item_passes_each_members_gate_at_the_joint_constants(self, case):
        # One grid for every member: at e0 = 1e-20 the zero matrix's omega is 0
        # and sigma_x's about 1e10, so the joint certificate must carry sigma_x's.
        if case == "tiny-e0":
            g, grid = ref(0.0, 1.0), (1e-20, 1e-15)
            ms = [HermitianMatrix(np.zeros((2, 2))), HermitianMatrix(SX)]
        else:
            rng = rng_from_seed(9)
            g = random_reference(4, rng)
            ms = [dissipation_matrix(random_generator(4, rng), g) for _ in range(3)]
            grid = default_e0_grid(g)
        for cert in joint_constants(ms, g, grid):
            for m in ms:
                gap = cert.omega * (g.entries + cert.e0 * np.eye(g.dim)) - m.entries
                slack = CERT_RESIDUAL_RTOL * (1.0 + m.operator_norm())
                assert float(np.linalg.eigvalsh(gap)[0]) >= -slack
            assert cert.residual >= -CERT_RESIDUAL_RTOL * (1.0 + max(m.operator_norm()
                                                                     for m in ms))

    def test_needs_a_dissipation_matrix(self):
        with pytest.raises(ValueError, match="no dissipation matrices supplied"):
            joint_constants([], ref(0.0, 1.0), (1.0,))

    def test_pairwise_max_verifies_for_each(self):
        rng = rng_from_seed(7)
        g = random_reference(3, rng)
        gens = [random_generator(3, rng) for _ in range(3)]
        grid = default_e0_grid(g)
        joint = joint_constants([dissipation_matrix(gen, g) for gen in gens], g, grid)
        cert = best_certificate([joint], 1.0, 1.0)
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
