"""Kraus algebra, output-energy functions, and reference-change tests."""

import numpy as np
import pytest

from eclim import channels
from eclim.channels import (
    KrausChannel,
    amplitude_damping,
    apply,
    choi,
    choi_of_superoperator,
    compose,
    compose_energy_bound,
    depolarizing,
    dual_apply,
    energy_curve,
    extend_reference,
    jordan_kraus,
    kraus_from_choi,
    max_output_energy,
    monotone_image_check,
    sqrt_reference_certificate,
    stinespring,
    tensor_reference,
    tensor_with_identity,
)
from eclim.lindblad import LindbladGenerator
from eclim.opcore import (
    CERT_RESIDUAL_RTOL,
    PSD_RTOL,
    AffineCertificate,
    DensityState,
    HermitianMatrix,
    ReferenceHamiltonian,
    dual_scan_witness,
    energy,
    psd_order_leq,
    random_hermitian,
    random_psd,
    random_reference,
    rng_from_seed,
)


def ref(*vals):
    return ReferenceHamiltonian(HermitianMatrix(np.diag(vals).astype(complex)))


def random_cp_channel(d, rng, n_kraus=2):
    ks = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
          for _ in range(n_kraus)]
    s = sum(k.conj().T @ k for k in ks)
    top = float(np.linalg.eigvalsh((s + s.conj().T) / 2.0)[-1])
    return KrausChannel(tuple(k / np.sqrt(top * (1.0 + 1e-12)) for k in ks))


class TestKrausChannel:
    def test_trace_preserving_flag(self):
        assert amplitude_damping(0.3).trace_preserving
        assert not KrausChannel((np.diag([1.0, 0.5]).astype(complex),)).trace_preserving

    def test_rejects_super_normalized(self):
        with pytest.raises(ValueError):
            KrausChannel((1.2 * np.eye(2),))

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError):
            KrausChannel((np.eye(2), np.zeros((3, 3))))


class TestApplyAndDual:
    def test_identity(self):
        rho = DensityState.pure(np.array([0.6, 0.8]))
        assert np.allclose(apply(KrausChannel.identity(2), rho).entries, rho.entries)
        b = HermitianMatrix(np.array([[1.0, 2.0], [2.0, -1.0]]))
        assert np.allclose(dual_apply(KrausChannel.identity(2), b).entries, b.entries)

    def test_unitary_conjugation(self):
        rng = rng_from_seed(1)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(a)
        b = random_psd(3, rng)
        out = dual_apply(KrausChannel.unitary(u), b)
        assert np.allclose(out.entries, u.conj().T @ b.entries @ u)

    def test_amplitude_damping_heisenberg(self):
        # symbolic 2x2 oracle: K0* N K0 + K1* N K1 = (1-p) N
        for p in (0.0, 0.3, 0.9):
            out = dual_apply(amplitude_damping(p), HermitianMatrix(np.diag([0.0, 1.0])))
            assert np.allclose(out.entries, (1.0 - p) * np.diag([0.0, 1.0]))

    def test_full_decay_and_depolarizing(self):
        one = DensityState.pure(np.array([0.0, 1.0]))
        assert np.allclose(apply(amplitude_damping(1.0), one).entries, np.diag([1.0, 0.0]))
        assert np.allclose(apply(depolarizing(1.0), one).entries, np.eye(2) / 2.0,
                           atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dual_apply(amplitude_damping(0.5), HermitianMatrix(np.eye(3)))


class TestChoi:
    def test_identity_is_bell(self):
        c = choi(KrausChannel.identity(2))
        bell = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                bell[i * 2 + i, j * 2 + j] = 1.0
        assert np.allclose(c.entries, bell)
        assert np.trace(c.entries).real == pytest.approx(2.0)

    def test_completely_depolarizing(self):
        # rho -> tr(rho) 1/2 has Choi 1/2 on the doubled space
        k = [np.outer(np.eye(2)[i], np.eye(2)[j]) / np.sqrt(2)
             for i in range(2) for j in range(2)]
        chan = KrausChannel(tuple(np.asarray(x, dtype=complex) for x in k))
        assert np.allclose(choi(chan).entries, np.eye(4) / 2.0)

    def test_round_trip(self):
        rng = rng_from_seed(2)
        for _ in range(10):
            chan = random_cp_channel(3, rng)
            rebuilt = kraus_from_choi(choi(chan), 3, 3)
            assert np.allclose(choi(rebuilt).entries, choi(chan).entries, atol=1e-10)

    def test_rejects_non_psd(self):
        minus_identity = HermitianMatrix(-choi(KrausChannel.identity(2)).entries)
        with pytest.raises(ValueError, match="not PSD"):
            kraus_from_choi(minus_identity, 2, 2)

    @pytest.mark.parametrize("factor, accepted", [(0.9, True), (1.1, False)],
                             ids=["inside", "past"])
    def test_psd_gate_boundary(self, factor, accepted):
        x = factor * PSD_RTOL * 2.0  # slack 1e-9 * (1 + ||C||)
        c = HermitianMatrix(np.diag([1.0, 0.0, 0.0, -x]).astype(complex))
        if accepted:
            assert len(kraus_from_choi(c, 2, 2).kraus) == 1
        else:
            with pytest.raises(ValueError, match="Choi matrix is not PSD"):
                kraus_from_choi(c, 2, 2)

    def test_zero_choi_gives_zero_channel(self):
        chan = kraus_from_choi(HermitianMatrix(np.zeros((6, 6))), 2, 3)
        assert len(chan.kraus) == 1
        assert chan.kraus[0].shape == (3, 2)
        assert not np.any(chan.kraus[0])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dim_in"):
            kraus_from_choi(choi(amplitude_damping(0.3)), 2, 3)

    def test_jordan_split_rebuilds_difference(self):
        rng = rng_from_seed(7)
        t_plus, t_minus = random_cp_channel(3, rng), random_cp_channel(3, rng)
        c = HermitianMatrix(choi(t_plus).entries - choi(t_minus).entries)
        plus, minus = jordan_kraus(c, 3, 3)
        assert plus and minus
        rebuilt = (choi(KrausChannel(tuple(0.5 * k for k in plus))).entries
                   - choi(KrausChannel(tuple(0.5 * k for k in minus))).entries)
        assert np.allclose(4.0 * rebuilt, c.entries, atol=1e-10)

    def test_partial_trace_bounded(self):
        rng = rng_from_seed(3)
        chan = random_cp_channel(2, rng)
        c = choi(chan).entries
        red = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                red[i, j] = np.trace(c[i * 2:(i + 1) * 2, j * 2:(j + 1) * 2])
        assert psd_order_leq(HermitianMatrix(red), HermitianMatrix(np.eye(2)), 1e-9)


def choi_from_images(s_hat, dim_in, dim_out):
    """Block (i, j) is S(E_ij), one basis image at a time."""
    c = np.zeros((dim_in * dim_out, dim_in * dim_out), dtype=complex)
    for i in range(dim_in):
        for j in range(dim_in):
            e = np.zeros((dim_in, dim_in), dtype=complex)
            e[i, j] = 1.0
            out = (s_hat @ e.reshape(-1)).reshape(dim_out, dim_out)
            c[i * dim_out:(i + 1) * dim_out, j * dim_out:(j + 1) * dim_out] = out
    return HermitianMatrix(c)


class TestChoiOfSuperoperator:
    @staticmethod
    def random_generator(d, rng):
        ls = tuple(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                   for _ in range(int(rng.integers(1, 3))))
        return LindbladGenerator.from_hamiltonian(random_hermitian(d, rng), ls)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_basis_images(self, d):
        rng = rng_from_seed(100 + d)
        s1 = self.random_generator(d, rng).superoperator()
        s2 = self.random_generator(d, rng).superoperator()
        for s_hat in (s1 - s2, s1 @ s2 - s2 @ s1):
            got = choi_of_superoperator(s_hat, d, d)
            assert np.array_equal(got.entries, choi_from_images(s_hat, d, d).entries)

    def test_kraus_superoperator_gives_choi(self):
        rng = rng_from_seed(8)
        ks = [rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)) for _ in range(2)]
        top = np.linalg.norm(np.vstack(ks), 2) ** 2
        chan = KrausChannel(tuple(k / np.sqrt(2.0 * top) for k in ks))
        s_hat = sum(np.kron(k, k.conj()) for k in chan.kraus)
        assert np.allclose(choi_of_superoperator(s_hat, 2, 3).entries,
                           choi(chan).entries, atol=1e-12)


class TestMaxOutputEnergy:
    def test_identity_channel(self):
        g = ref(0.0, 1.0)
        v, _ = max_output_energy(KrausChannel.identity(2), g, g, 0.3)
        assert v == pytest.approx(0.3, abs=1e-9)

    def test_constant_channel(self):
        # rho -> tr(rho)|1><1| pumps exactly one quantum
        k = [np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
             np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)]
        chan = KrausChannel(tuple(k))
        g = ref(0.0, 1.0)
        v, cert = max_output_energy(chan, g, g, 5.0)
        assert v == pytest.approx(1.0, abs=1e-9)
        assert cert.lam == pytest.approx(0.0, abs=1e-7)
        assert cert.e0 == pytest.approx(1.0, abs=1e-7)

    def test_amplitude_damping_slope(self):
        g = ref(0.0, 1.0)
        for p in (0.2, 0.6):
            for e in (0.3, 0.9):
                v, cert = max_output_energy(amplitude_damping(p), g, g, e)
                assert v == pytest.approx((1.0 - p) * e, abs=1e-9)
        v, cert = max_output_energy(amplitude_damping(0.25), g, g, 0.5)
        assert cert.lam == pytest.approx(0.75, abs=1e-6)
        assert cert.e0 == pytest.approx(0.0, abs=1e-9)

    def test_representation_independence(self):
        # rotate the Kraus index by an isometry; f_T must not change
        rng = rng_from_seed(4)
        chan = random_cp_channel(3, rng)
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        rotated = KrausChannel(tuple(
            sum(u[a, b] * chan.kraus[b] for b in range(2)) for a in range(2)))
        g = random_reference(3, rng)
        v1, _ = max_output_energy(chan, g, g, 0.7)
        v2, _ = max_output_energy(rotated, g, g, 0.7)
        assert v1 == pytest.approx(v2, abs=1e-9)

    def test_tensor_with_identity_preserves_f(self):
        rng = rng_from_seed(5)
        for _ in range(5):
            chan = random_cp_channel(2, rng)
            g = random_reference(2, rng)
            e = float(rng.random() + 0.2)
            v1, _ = max_output_energy(chan, g, g, e)
            ge = extend_reference(g, 2)
            v2, _ = max_output_energy(tensor_with_identity(chan, 2), ge, ge, e)
            assert v1 == pytest.approx(v2, abs=1e-8 * (1.0 + v1))

    def test_attained_on_pure_states(self):
        rng = rng_from_seed(6)
        for _ in range(5):
            chan = random_cp_channel(3, rng)
            g = random_reference(3, rng)
            e = float(rng.random() + 0.2)
            m = dual_apply(chan, g.matrix)
            value, _, psi = dual_scan_witness(m, g, e)
            achieved = energy(g, apply(chan, DensityState.pure(psi)))
            assert achieved >= value - 1e-7 * (1.0 + value)


class TestEnergyCurve:
    def test_identity_grid(self):
        g = ref(0.0, 1.0, 2.0, 3.0, 4.0)
        curve = energy_curve(KrausChannel.identity(5), g, g, (1.0, 2.0, 4.0))
        assert list(curve.values) == [pytest.approx(x, abs=1e-8) for x in (1.0, 2.0, 4.0)]

    def test_ground_reset_channel(self):
        k = [np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
             np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)]
        g = ref(0.0, 1.0)
        curve = energy_curve(KrausChannel(tuple(k)), g, g, (0.5, 1.0, 2.0))
        assert max(curve.values) <= 1e-9


class TestComposition:
    def test_certificate_arithmetic(self):
        assert compose_energy_bound(AffineCertificate(1.0, 0.0),
                                    AffineCertificate(1.0, 0.0), 0.7) == pytest.approx(0.7)
        assert compose_energy_bound(AffineCertificate(2.0, 1.0),
                                    AffineCertificate(1.0, 0.0), 1.0) == pytest.approx(3.0)

    def test_dominates_exact_composition(self):
        rng = rng_from_seed(7)
        for _ in range(10):
            s = random_cp_channel(3, rng)
            t = random_cp_channel(3, rng)
            g = random_reference(3, rng)
            e = float(rng.random() + 0.2)
            _, cert_t = max_output_energy(t, g, g, e)
            ft = cert_t.lam * e + cert_t.e0
            _, cert_s = max_output_energy(s, g, g, max(ft, 1e-6))
            bound = compose_energy_bound(cert_s, cert_t, e)
            exact, _ = max_output_energy(compose(s, t), g, g, e)
            assert exact <= bound + 1e-8 * (1.0 + bound)


class TestSqrtReference:
    def test_identity_cert(self):
        g = ref(0.0, 1.0)
        out = sqrt_reference_certificate(KrausChannel.identity(2), g, g,
                                         AffineCertificate(1.0, 0.0))
        assert (out.lam, out.e0) == (pytest.approx(1.0), pytest.approx(0.0))

    def test_arithmetic(self):
        g = ref(0.0, 1.0)
        # (4, 9) -> (2, 3); use a crushing certificate that trivially holds
        out = sqrt_reference_certificate(amplitude_damping(0.5), g, g,
                                         AffineCertificate(4.0, 9.0))
        assert (out.lam, out.e0) == (pytest.approx(2.0), pytest.approx(3.0))
        assert out.residual >= -1e-12

    def test_random_energy_limited(self):
        rng = rng_from_seed(8)
        for _ in range(10):
            chan = random_cp_channel(3, rng)
            g_in = random_reference(3, rng)
            g_out = random_reference(3, rng)
            _, cert = max_output_energy(chan, g_in, g_out, 1.0)
            out = sqrt_reference_certificate(chan, g_in, g_out, cert)
            assert out.residual >= -1e-8 * (1.0 + 1.0)

    def test_rejects_invalid_certificate(self):
        g = ref(0.0, 1.0)
        chan = KrausChannel((np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
                             np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)))
        with pytest.raises(ValueError):
            sqrt_reference_certificate(chan, g, g, AffineCertificate(0.0, 0.0))


    @pytest.mark.parametrize("factor, accepted", [(0.9, True), (1.1, False)],
                             ids=["inside", "past"])
    def test_gate_boundary(self, monkeypatch, factor, accepted):
        # Raising sqrt(G_out) by x on the ground state leaves the residual -x
        # against the slack 1e-8 * (1 + ||T*(sqrt(G_out))||).
        g_in, g_out = ref(0.0, 1.0), ref(0.0, 1.0)
        x = factor * CERT_RESIDUAL_RTOL * 2.0
        spectral_function = channels.spectral_function

        def raised(m, f, p=None):
            out = spectral_function(m, f, p)
            if m is g_out.matrix:
                out = HermitianMatrix(out.entries + np.diag([x, 0.0]))
            return out

        monkeypatch.setattr(channels, "spectral_function", raised)
        args = (KrausChannel.identity(2), g_in, g_out, AffineCertificate(1.0, 0.0))
        if accepted:
            assert sqrt_reference_certificate(*args).residual == pytest.approx(-x, rel=1e-6)
        else:
            with pytest.raises(ValueError, match="square-root reference certificate"):
                sqrt_reference_certificate(*args)


class TestOperatorMonotoneImage:
    def test_random_pairs(self):
        rng = rng_from_seed(9)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            chan = random_cp_channel(d, rng)
            m = random_psd(d, rng)
            assert monotone_image_check(chan, m, tol=1e-8)


class TestTensorReference:
    def test_product_energy_adds(self):
        rng = rng_from_seed(10)
        ga = random_reference(2, rng)
        gb = random_reference(3, rng)
        gab = tensor_reference(ga, gb)
        rho_a = DensityState.pure(np.array([0.6, 0.8]))
        psi_b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rho_b = DensityState.pure(psi_b)
        joint = DensityState(HermitianMatrix(np.kron(rho_a.entries, rho_b.entries)))
        assert energy(gab, joint) == pytest.approx(
            energy(ga, rho_a) + energy(gb, rho_b), abs=1e-10)


class TestStinespring:
    def test_dilation_reproduces_channel(self):
        rng = rng_from_seed(11)
        chan = random_cp_channel(2, rng)
        v = stinespring(chan)
        rho = DensityState.pure(np.array([0.6, 0.8j]))
        big = v @ rho.entries @ v.conj().T
        r = len(chan.kraus)
        red = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                red[i, j] = np.trace(big[i * r:(i + 1) * r, j * r:(j + 1) * r])
        assert np.allclose(red, apply(chan, rho).entries, atol=1e-12)
