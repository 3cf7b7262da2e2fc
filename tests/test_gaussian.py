"""Covariance-layer tests: states, channels, semigroups, certificates."""

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

from eclim.gaussian import (
    GAUSS_PSD_RTOL,
    GaussianChannel,
    GaussianGenerator,
    GaussianState,
    apply_channel,
    channel_energy_bound,
    evolve_gaussian,
    fock_damping_crosscheck,
    gaussian_stability,
    generator_dictionary,
    generator_from_dictionary,
    semigroup_channel,
    state_energy,
    symplectic_form,
)
from eclim.opcore import rng_from_seed


def random_generator(n, rng):
    xdot = rng.standard_normal((2 * n, 2 * n))
    sigma = symplectic_form(n)
    b = xdot.T @ sigma + sigma @ xdot
    ydot = rng.standard_normal((2 * n, 2 * n))
    ydot = ydot @ ydot.T + (np.linalg.norm(b, 2) + 0.1) * np.eye(2 * n)
    return GaussianGenerator(n, xdot, ydot)


def random_channel(n, rng):
    x = rng.standard_normal((2 * n, 2 * n))
    sigma = symplectic_form(n)
    need = float(np.linalg.norm(1j * sigma - 1j * (x.T @ sigma @ x), 2))
    y = rng.standard_normal((2 * n, 2 * n))
    y = y @ y.T + need * np.eye(2 * n)
    return GaussianChannel(x, y, np.zeros(2 * n))


# Each gate's smallest eigenvalue is -x; the slacks are 1e-9 times
# 1 + max|gamma|, 1 + max|Y| + max|X|^2 and 1 + max|Ydot| + max|Xdot|.
GATES = {
    "state": (lambda x: GaussianState(1, (1.0 - x) * np.eye(2), np.zeros(2)), 2.0),
    "channel": (lambda x: GaussianChannel(np.sqrt(0.5) * np.eye(2), (0.5 - x) * np.eye(2),
                                          np.zeros(2)), 2.0),
    "generator": (lambda x: GaussianGenerator(1, -0.5 * np.eye(2), (1.0 - x) * np.eye(2)), 2.5),
}


@pytest.mark.parametrize("gate", sorted(GATES))
@pytest.mark.parametrize("factor, accepted", [(0.9, True), (1.1, False)],
                         ids=["inside", "past"])
def test_psd_gate_boundary(gate, factor, accepted):
    build, scale = GATES[gate]
    x = factor * GAUSS_PSD_RTOL * scale
    if accepted:
        build(x)
    else:
        with pytest.raises(ValueError, match="min eigenvalue"):
            build(x)


class TestStates:
    def test_vacuum_energy_zero(self):
        assert state_energy(GaussianState.vacuum(1)) == 0.0
        assert state_energy(GaussianState.vacuum(3)) == 0.0

    def test_coherent_energy(self):
        s = GaussianState.coherent(1, np.array([np.sqrt(2.0), 0.0]))
        assert state_energy(s) == pytest.approx(1.0)

    def test_thermal_energy(self):
        for nbar in (0.3, 1.0, 4.2):
            assert state_energy(GaussianState.thermal(1, nbar)) == pytest.approx(nbar)

    def test_rejects_subheisenberg(self):
        with pytest.raises(ValueError):
            GaussianState(1, 0.5 * np.eye(2), np.zeros(2))


class TestChannels:
    def test_identity(self):
        s = GaussianState.coherent(1, np.array([0.7, -0.2]))
        out = apply_channel(GaussianChannel.identity(1), s)
        assert np.allclose(out.gamma, s.gamma) and np.allclose(out.beta, s.beta)

    def test_attenuator_fixes_vacuum(self):
        out = apply_channel(GaussianChannel.attenuator(1, 0.4), GaussianState.vacuum(1))
        assert np.allclose(out.gamma, np.eye(2))

    def test_displacement_makes_coherent(self):
        alpha = np.array([1.3, -0.4])
        out = apply_channel(GaussianChannel.displacement(1, alpha),
                            GaussianState.vacuum(1))
        assert np.allclose(out.beta, alpha)
        assert np.allclose(out.gamma, np.eye(2))

    @pytest.mark.parametrize("x, alpha, name", [
        (np.diag([1.0, np.nan]), np.zeros(2), "X"),
        (np.eye(2), np.array([np.nan, 0.0]), "alpha"),
        (np.eye(2), np.array([0.0, np.inf]), "alpha"),
    ])
    def test_rejects_non_finite_fields(self, x, alpha, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            GaussianChannel(x, np.eye(2), alpha)

    def test_rejects_noiseless_contraction(self):
        with pytest.raises(ValueError):
            GaussianChannel(0.5 * np.eye(2), np.zeros((2, 2)), np.zeros(2))

    def test_factorization_displacement_after_nondisplacing(self):
        rng = rng_from_seed(1)
        c = random_channel(1, rng)
        alpha = rng.standard_normal(2)
        full = GaussianChannel(c.x, c.y, alpha)
        s = GaussianState.thermal(1, 0.7)
        via = apply_channel(GaussianChannel.displacement(1, alpha),
                            apply_channel(c, s))
        direct = apply_channel(full, s)
        assert np.allclose(via.gamma, direct.gamma)
        assert np.allclose(via.beta, direct.beta)


class TestChannelEnergyBound:
    def test_identity(self):
        assert channel_energy_bound(GaussianChannel.identity(1), 0.8) == pytest.approx(0.8)

    def test_attenuator(self):
        for eta in (0.2, 0.7):
            c = GaussianChannel.attenuator(1, eta)
            assert channel_energy_bound(c, 1.3) == pytest.approx(eta * 1.3)

    def test_amplifier(self):
        c = GaussianChannel(np.sqrt(2.0) * np.eye(2), np.eye(2), np.zeros(2))
        assert channel_energy_bound(c, 1.0) == pytest.approx(3.0)

    def test_rejects_displacing(self):
        c = GaussianChannel.displacement(1, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            channel_energy_bound(c, 1.0)

    def test_bound_validity(self):
        rng = rng_from_seed(2)
        for _ in range(100):
            n = int(rng.integers(1, 3))
            c = random_channel(n, rng)
            s = GaussianState.thermal(n, float(rng.random() * 2))
            e = state_energy(s)
            out = state_energy(apply_channel(c, s))
            assert out <= channel_energy_bound(c, e) + 1e-8


class TestDictionary:
    def test_zero(self):
        g = GaussianGenerator(1, np.zeros((2, 2)), np.zeros((2, 2)))
        m, h = generator_dictionary(g)
        assert np.allclose(m, 0.0) and np.allclose(h, 0.0)

    def test_rotation(self):
        omega = 0.7
        g = GaussianGenerator.rotation(omega)
        m, h = generator_dictionary(g)
        assert np.allclose(np.real(m), 0.0, atol=1e-12)
        sigma = symplectic_form(1)
        expect_h = 0.5 * (sigma @ (omega * sigma).T - (omega * sigma) @ sigma)
        assert np.allclose(h, expect_h)
        assert np.allclose(h, omega * np.eye(2))

    def test_damping_m_psd(self):
        m, _ = generator_dictionary(GaussianGenerator.damping(1.0))
        assert float(np.linalg.eigvalsh(m)[0]) >= -1e-12

    def test_round_trip_and_constraints(self):
        rng = rng_from_seed(3)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            g = random_generator(n, rng)
            m, h = generator_dictionary(g)
            assert np.allclose(m, m.conj().T)
            assert float(np.linalg.eigvalsh(m)[0]) >= -1e-9 * (1.0 + np.abs(m).max())
            assert np.allclose(h, h.T)
            g2 = generator_from_dictionary(m, h, n)
            assert np.max(np.abs(g2.xdot - g.xdot)) < 1e-10
            assert np.max(np.abs(g2.ydot - g.ydot)) < 1e-10


class TestEvolution:
    def test_zero_generator(self):
        g = GaussianGenerator(1, np.zeros((2, 2)), np.zeros((2, 2)))
        s = GaussianState.thermal(1, 0.9)
        out = evolve_gaussian(g, s, 1.7)
        assert np.allclose(out.gamma, s.gamma, atol=1e-12)

    def test_damping_closed_form(self):
        kappa, nbar = 0.8, 1.7
        g = GaussianGenerator.damping(kappa)
        s = GaussianState.thermal(1, nbar)
        for t in (0.3, 1.0, 2.0):
            e = state_energy(evolve_gaussian(g, s, t))
            assert e == pytest.approx(nbar * np.exp(-kappa * t), abs=1e-10)

    def test_semigroup_property(self):
        rng = rng_from_seed(4)
        g = random_generator(2, rng)
        s = GaussianState.thermal(2, 0.5)
        a = evolve_gaussian(g, evolve_gaussian(g, s, 0.4), 0.35)
        b = evolve_gaussian(g, s, 0.75)
        assert np.max(np.abs(a.gamma - b.gamma)) < 1e-8
        assert np.max(np.abs(a.beta - b.beta)) < 1e-8

    def test_semigroup_channels_are_cp(self):
        rng = rng_from_seed(5)
        for _ in range(10):
            g = random_generator(1, rng)
            semigroup_channel(g, float(rng.random() * 2))  # constructor validates

    def test_convention_lock_rotation_direction(self):
        # a positive-frequency rotation turns +Q displacement toward -P
        g = GaussianGenerator.rotation(1.0)
        s = GaussianState.coherent(1, np.array([np.sqrt(2.0), 0.0]))
        out = evolve_gaussian(g, s, np.pi / 2)
        assert np.allclose(out.beta, [0.0, -np.sqrt(2.0)], atol=1e-9)


def rel_err(a, b):
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


class TestNoiseIntegral:
    """Y(t) = int_0^t X(s)^T Ydot X(s) ds against closed forms and quadrature."""

    def test_damping(self):
        kappa = 0.8
        g = GaussianGenerator.damping(kappa)
        for t in (0.0, 0.3, 1.0, 4.0):
            y = semigroup_channel(g, t).y
            assert rel_err(y, (1.0 - np.exp(-kappa * t)) * np.eye(2)) <= 1e-12

    def test_rotation_adds_no_noise(self):
        g = GaussianGenerator.rotation(1.3, modes=2)
        for t in (0.5, 2.0):
            assert np.max(np.abs(semigroup_channel(g, t).y)) <= 1e-14

    def test_pure_diffusion(self):
        ydot = np.array([[0.5, 0.1], [0.1, 0.3]])
        g = GaussianGenerator(1, np.zeros((2, 2)), ydot)
        for t in (0.5, 1.0, 2.5):
            assert rel_err(semigroup_channel(g, t).y, t * ydot) <= 1e-14

    def test_composition_law(self):
        # T(s + t) = T(t) o T(s): Y(s+t) = X(t)^T Y(s) X(t) + Y(t).
        rng = rng_from_seed(8)
        for _ in range(20):
            g = random_generator(int(rng.integers(1, 4)), rng)
            s_, t = (float(v) for v in rng.random(2) * 1.5)
            a, b = semigroup_channel(g, s_), semigroup_channel(g, t)
            expect = semigroup_channel(g, s_ + t).y
            assert rel_err(b.x.T @ a.y @ b.x + b.y, expect) <= 1e-12

    def test_matches_quadrature(self):
        rng = rng_from_seed(9)
        for _ in range(5):
            g = random_generator(int(rng.integers(1, 3)), rng)
            t = float(rng.random() * 1.5) + 0.1

            def integrand(s):
                xs = expm(s * g.xdot)
                return xs.T @ g.ydot @ xs

            y, _ = quad_vec(integrand, 0.0, t, epsabs=0.0, epsrel=1e-13)
            assert rel_err(semigroup_channel(g, t).y, (y + y.T) / 2.0) <= 1e-10


class TestStability:
    def test_damping_constants(self):
        cert = gaussian_stability(GaussianGenerator.damping(1.0))
        assert cert.kind == "exponential"
        assert cert.omega == pytest.approx(1.0)
        assert cert.e0 == pytest.approx(0.75)

    def test_rotation_constants(self):
        for omega in (0.5, 2.0):
            cert = gaussian_stability(GaussianGenerator.rotation(omega))
            assert cert.omega == pytest.approx(2.0 * omega)
            assert cert.e0 == pytest.approx(0.5)

    def test_omega_homogeneity(self):
        g1 = GaussianGenerator.damping(1.0)
        g2 = GaussianGenerator.damping(2.0)
        assert gaussian_stability(g2).omega == pytest.approx(
            2.0 * gaussian_stability(g1).omega)

    def test_dynamic_bound(self):
        rng = rng_from_seed(6)
        for _ in range(100):
            n = int(rng.integers(1, 3))
            g = random_generator(n, rng)
            cert = gaussian_stability(g)
            s = GaussianState.thermal(n, float(rng.random() * 2))
            e0 = state_energy(s)
            t = float(rng.random() * 2) + 1e-3
            assert state_energy(evolve_gaussian(g, s, t)) <= cert.budget(e0, t) + 1e-7

    def test_pure_diffusion_time_affine(self):
        g = GaussianGenerator(1, np.zeros((2, 2)), 2.0 * np.eye(2))
        cert = gaussian_stability(g)
        assert cert.kind == "time_affine"
        s = GaussianState.vacuum(1)
        for t in (0.5, 1.0, 2.0):
            assert state_energy(evolve_gaussian(g, s, t)) <= cert.budget(0.0, t) + 1e-9


def test_fock_crosscheck_small():
    rows = fock_damping_crosscheck(1.0, 1.0, (0.5, 1.5), cutoff=40)
    for _, e_gauss, e_fock in rows:
        assert e_fock == pytest.approx(e_gauss, abs=1e-3)
