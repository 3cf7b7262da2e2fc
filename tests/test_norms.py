"""ECO and ECD norm tests against analytic cases and exact oracles."""

import numpy as np
import pytest

from eclim import norms
from eclim.channels import (
    KrausChannel,
    amplitude_damping,
    extend_reference,
    tensor_with_identity,
)
from eclim.norms import (
    CpDifference,
    constrained_rayleigh_max,
    ecd_norm_cp,
    ecd_norm_seesaw,
    eco_norm,
    eco_norm_primal,
    reevaluate_seesaw_witness,
    trace_norm,
)
from eclim.opcore import (
    FULL_EIGH_MAX_DIM,
    DensityState,
    HermitianMatrix,
    ReferenceHamiltonian,
    dual_scan,
    dual_scan_witness,
    energy,
    ground_shift,
    haar_state,
    project_to_energy_shell,
    random_psd,
    random_reference,
    rng_from_seed,
    vector_energy,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def ref(*vals):
    return ReferenceHamiltonian(HermitianMatrix(np.diag(vals).astype(complex)))


def random_contraction(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a / np.linalg.svd(a, compute_uv=False)[0]


def random_cp_channel(d, rng, n_kraus=2, trace_preserving=False):
    ks = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
          for _ in range(n_kraus)]
    s = sum(k.conj().T @ k for k in ks)
    if trace_preserving:
        w = np.linalg.inv(np.linalg.cholesky((s + s.conj().T) / 2.0).conj().T)
        return KrausChannel(tuple(k @ w for k in ks))
    top = float(np.linalg.eigvalsh((s + s.conj().T) / 2.0)[-1])
    return KrausChannel(tuple(k / np.sqrt(top * (1.0 + 1e-12)) for k in ks))


class TestEcoNorm:
    def test_pauli_x_is_one(self):
        value, _ = eco_norm(SX, ref(0.0, 1.0), 0.4)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_analytic_half(self):
        # ||diag(0,1)||_{op,E}^2 = E for E <= 1 (pure-state optimization)
        value, cert = eco_norm(np.diag([0.0, 1.0]), ref(0.0, 1.0), 0.25)
        assert value == pytest.approx(0.5, abs=1e-9)
        assert cert.lam * 0.25 + cert.e0 == pytest.approx(value ** 2, abs=1e-9)

    def test_zero(self):
        value, _ = eco_norm(np.zeros((2, 2)), ref(0.0, 1.0), 1.0)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_three_level(self):
        # two-eigenvector oracle: maximize 9s subject to 2s <= 1 gives 4.5
        value, _ = eco_norm(np.diag([0.0, 0.0, 3.0]), ref(0.0, 1.0, 2.0), 1.0)
        assert value == pytest.approx(np.sqrt(4.5), abs=1e-9)

    def test_concavity_ratio(self):
        rng = rng_from_seed(31)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            g = random_reference(d, rng)
            e1 = float(rng.random() * 2 + 0.05)
            e2 = e1 + float(rng.random() * 3 + 0.01)
            v1, _ = eco_norm(a, g, e1)
            v2, _ = eco_norm(a, g, e2)
            assert v1 <= v2 + 1e-9 * (1.0 + v2)
            assert v2 <= np.sqrt(e2 / e1) * v1 + 1e-9 * (1.0 + v1)

    def test_never_exceeds_operator_norm(self):
        rng = rng_from_seed(32)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            g = random_reference(d, rng)
            op = float(np.linalg.svd(a, compute_uv=False)[0])
            v, _ = eco_norm(a, g, float(rng.random() * 4 + 0.05))
            assert v <= op + 1e-9 * (1.0 + op)
            # inactive constraint at E >= lam_max(G): equals the operator norm
            v_full, _ = eco_norm(a, g, g.max_energy() + 1.0)
            assert v_full == pytest.approx(op, abs=1e-9 * (1.0 + op))

    def test_eco_equals_sqrt_of_ecd_for_contractions(self):
        rng = rng_from_seed(33)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            v = random_contraction(d, rng)
            g = random_reference(d, rng)
            e = float(rng.random() * 2 + 0.1)
            ev, _ = eco_norm(v, g, e)
            dv, _ = ecd_norm_cp(KrausChannel.unitary(v), g, e)
            assert ev ** 2 == pytest.approx(dv, abs=1e-8 * (1.0 + dv))


class TestEcoNormPrimal:
    def test_analytic_with_witness(self):
        value, psi = eco_norm_primal(np.diag([0.0, 1.0]), ref(0.0, 1.0), 0.25,
                                     restarts=16, seed=0)
        assert value == pytest.approx(0.5, abs=1e-8)
        assert np.abs(psi[0]) == pytest.approx(np.sqrt(0.75), abs=1e-6)
        assert np.abs(psi[1]) == pytest.approx(0.5, abs=1e-6)

    def test_identity(self):
        value, _ = eco_norm_primal(np.eye(3), ref(0.0, 1.0, 2.0), 0.5,
                                   restarts=4, seed=0)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_three_level(self):
        value, psi = eco_norm_primal(np.diag([0.0, 0.0, 3.0]), ref(0.0, 1.0, 2.0),
                                     1.0, restarts=16, seed=1)
        assert value == pytest.approx(np.sqrt(4.5), abs=1e-8)
        assert vector_energy(ref(0.0, 1.0, 2.0), psi) <= 1.0 + 1e-9

    def test_never_exceeds_dual(self):
        rng = rng_from_seed(34)
        cases = []
        for i in range(15):
            d = int(rng.integers(2, 6))
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            g = random_reference(d, rng)
            e = float(rng.random() * 2 + 0.05)
            cases.append((a, g, e))
        a4 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rank2 = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        g4 = random_reference(4, rng)
        cases += [
            (a4, ref(0.0, 1.0, 1.0, 1.0), 0.5),  # degenerate excited level
            (np.eye(4), ref(0.0, 1.0, 1.0, 1.0), 0.5),
            (a4, ref(0.0, 0.0, 1.0, 3.0), 0.2),  # degenerate ground level
            (rank2, g4, 0.3),  # rank-2 M = A*A
            (np.zeros((3, 3)), ref(0.0, 1.0, 2.0), 0.5),
            (a4, g4, g4.max_energy() + 1.0),  # slack budget
            (a4, g4, g4.max_energy()),
            (np.ones((3, 3)), ref(0.0, 1.0, 1.0), 0.5),
            # M - lam*G degenerate over three or more levels at the crossing
            (np.diag(np.sqrt([0.0, 1.0, 2.0, 3.0])), ref(0.0, 1.0, 2.0, 3.0), 1.5),
            (np.diag([0.0, 1.0, 2.0, 3.0, 4.0]), ref(0.0, 1.0, 4.0, 9.0, 16.0), 2.5),
            (np.diag(np.sqrt([1.0, 1.2, 2.8, 3.0])), ref(0.0, 0.2, 1.8, 2.0), 0.5),
            (np.diag([1.0, 2.0, 3.0, 4.0]), ref(0.0, 3.0, 8.0, 15.0), 5.0),
        ]
        for i, (a, g, e) in enumerate(cases):
            dual, _ = eco_norm(a, g, e)
            primal, psi = eco_norm_primal(a, g, e, restarts=32, seed=i)
            assert primal <= dual * (1.0 + 1e-6) + 1e-12
            assert dual - primal <= 1e-6 * max(1.0, dual)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
            assert vector_energy(g, psi) <= e * (1.0 + 1e-12)
            # deterministic: the seed does not enter the result
            again, _ = eco_norm_primal(a, g, e, restarts=32, seed=i + 1000)
            assert again == primal

    def test_eigensolves_per_binding_call(self, monkeypatch):
        # The duality-primal workload's draw: d = 2..6, budgets 0.1, 1, 10.
        # A slack call makes two eigensolves (G's and M's); a bisection to
        # adjacent floats made 58-67 per binding call, 61.8 on average.
        real, calls, counts = np.linalg.eigh, [0], []

        def spy(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        rng = rng_from_seed(61)
        for i in range(24):
            for j, d in enumerate(range(2, 7)):
                a = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(d)
                w = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                g = ground_shift(HermitianMatrix(w @ w.conj().T / d))
                calls[0] = 0
                with monkeypatch.context() as patch:
                    patch.setattr(np.linalg, "eigh", spy)
                    eco_norm_primal(a, g, (0.1, 1.0, 10.0)[(i + j) % 3])
                counts.append(calls[0])
        counts = np.array(counts)
        binding = counts[counts > 2]
        assert np.all(counts >= 2) and len(binding) >= len(counts) // 2
        assert binding.mean() <= 16.0
        assert binding.max() <= 70

    @pytest.mark.parametrize("name, bisected", [
        # constrained_rayleigh_max's values when it bisected to adjacent floats
        ("repeated", 5.008524631850898),
        ("degenerate", 2.500000000000001),
        ("split", 2.5000000000005005),
        ("tiny budget", 0.4946508760869755),
        ("huge budget", 2.011616978367393),
        ("d=12", 5.760774769558395),
    ])
    def test_hard_crossings(self, name, bisected):
        _, m, g, e = next(case for case in hard_crossings() if case[0] == name)
        value, psi = constrained_rayleigh_max(m, g, e)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        assert vector_energy(g, psi) <= e * (1.0 + 1e-12)
        assert abs(value - bisected) <= 1e-12 * abs(bisected)
        dual, _ = dual_scan(m, g, e)
        assert -1e-9 <= (dual - value) / max(1.0, dual) <= 1e-6



def haar_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated(diagonal, u):
    return u @ np.diag(diagonal).astype(complex) @ u.conj().T


def hard_crossings():
    """(name, M, G, E) where the primal oracle's Newton probes must fall back.

    In "degenerate" M and G commute, so the top level of M - lam*G is doubly
    degenerate at lam* = 1.5, where the line 4 - 2 lam (energy 2) meets the
    line 1 (energy 0); "split" couples the two levels by 5e-13, which splits
    that crossing by 1e-12.  Both optima are 2.5, at equal weights.
    """
    rng = rng_from_seed(2024)
    u4, u6 = haar_unitary(4, rng), haar_unitary(6, rng)
    coupled = np.diag([1.0, 2.0, 4.0, 0.5]).astype(complex)
    coupled[0, 2] = coupled[2, 0] = 5e-13
    cases = [
        ("repeated", random_psd(6, rng), rotated([0.0, 1.0, 1.0, 1.0, 2.0, 2.0], u6), 0.5),
        ("degenerate", rotated([1.0, 2.0, 4.0, 0.5], u4), rotated([0.0, 1.0, 2.0, 3.0], u4), 1.0),
        ("split", coupled, np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex), 1.0),
        ("tiny budget", random_psd(4, rng), random_reference(4, rng).matrix.entries, 1e-8),
        ("huge budget", random_psd(4, rng), 1e9 * random_reference(4, rng).matrix.entries, 1e8),
        ("d=12", random_psd(12, rng), random_reference(12, rng).matrix.entries, 1.0),
    ]
    return [(name, m if isinstance(m, HermitianMatrix) else HermitianMatrix(m),
             ground_shift(HermitianMatrix(g)), e) for name, m, g, e in cases]


def arc_edges():
    """(name, M, G, E, value) for the three shapes of the oracle's final arc.

    "parallel": a simple top level at the crossing, so both bracket ends give
    the same top eigenvector up to rounding; "orthogonal": commuting M and G
    whose top level is doubly degenerate at lam* = 1.5, where the ends give
    two orthogonal basis vectors; "threefold": M = G + P with P the projector
    onto a random three-dimensional subspace, so M - G = P is threefold
    degenerate at lam* = 1, and the optimum E + 1 mixes that subspace.
    """
    rng = rng_from_seed(27)
    g4 = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
    q = haar_unitary(4, rng)[:, :3]
    top_g = np.linalg.eigvalsh(q.conj().T @ g4 @ q)
    threefold_e = 0.5 * (top_g[0] + top_g[-1])
    return [
        ("parallel", HermitianMatrix(np.array([[1.0, 0.6], [0.6, 2.0]], dtype=complex)),
         ref(0.0, 1.0), 0.5, None),
        ("orthogonal", HermitianMatrix(np.diag([1.0, 4.0, 0.5]).astype(complex)),
         ref(0.0, 2.0, 1.0), 0.5, 1.75),
        ("threefold", HermitianMatrix(g4 + q @ q.conj().T), ground_shift(HermitianMatrix(g4)),
         threefold_e, threefold_e + 1.0),
    ]


class TestArcEndgame:
    """The oracle ends on the feasible end's top eigenvector and the points of
    energy E on the arc from it to the infeasible end's top eigenvector."""

    @pytest.mark.parametrize("name, overlap", [
        ("parallel", 1.0), ("orthogonal", 0.0), ("threefold", None)])
    def test_witness_feasible_and_tight(self, name, overlap, monkeypatch):
        _, m, g, e, exact = next(case for case in arc_edges() if case[0] == name)
        ends, real = [], norms._arc_points

        def spy(v_hi, v_lo, ge, energy_budget):
            ends.append(abs(np.vdot(v_hi, v_lo)))
            return real(v_hi, v_lo, ge, energy_budget)

        monkeypatch.setattr(norms, "_arc_points", spy)
        value, psi = constrained_rayleigh_max(m, g, e)
        assert len(ends) == 1
        if overlap is not None:
            assert ends[0] == pytest.approx(overlap, abs=1e-12)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        assert vector_energy(g, psi) <= e * (1.0 + 1e-12)
        dual, _ = dual_scan(m, g, e)
        assert abs(value - dual) <= 1e-12 * abs(dual)
        if exact is not None:
            assert value == pytest.approx(exact, rel=1e-12)


class TestEcdCp:
    def test_trace_preserving_is_one(self):
        value, _ = ecd_norm_cp(amplitude_damping(0.3), ref(0.0, 1.0), 0.7)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_subnormalized_diag(self):
        chan = KrausChannel((np.diag([1.0, 0.5]).astype(complex),))
        value, cert = ecd_norm_cp(chan, ref(0.0, 1.0), 2.0)
        assert value == pytest.approx(1.0, abs=1e-9)
        assert cert.lam == pytest.approx(0.0, abs=1e-6)
        assert cert.e0 == pytest.approx(1.0, abs=1e-6)

    def test_zero(self):
        value, _ = ecd_norm_cp(KrausChannel.zero(2), ref(0.0, 1.0), 1.0)
        assert value == pytest.approx(0.0, abs=1e-12)


class TestSeesaw:
    def test_flip_vs_identity_reaches_two(self):
        diff = CpDifference(KrausChannel.unitary(SX), KrausChannel.identity(2))
        est = ecd_norm_seesaw(diff, ref(0.0, 1.0), 1.0, ancilla_dim=2,
                              restarts=16, seed=3)
        assert est.value == pytest.approx(2.0, abs=1e-8)
        assert est.kind == "seesaw_lower"

    def test_zero_and_cancelling(self):
        g = ref(0.0, 1.0)
        z = CpDifference.from_channel(KrausChannel.zero(2))
        assert ecd_norm_seesaw(z, g, 1.0, restarts=4, seed=0).value == pytest.approx(0.0, abs=1e-12)
        t = amplitude_damping(0.4)
        tt = CpDifference(t, t)
        assert ecd_norm_seesaw(tt, g, 1.0, restarts=4, seed=0).value == pytest.approx(0.0, abs=1e-12)

    def test_monotone_within_restart(self):
        rng = rng_from_seed(40)
        g = random_reference(3, rng)
        diff = CpDifference(random_cp_channel(3, rng), random_cp_channel(3, rng))
        est = ecd_norm_seesaw(diff, g, 0.8, restarts=8, seed=11)
        for hist in est.history:
            for a, b in zip(hist, hist[1:]):
                assert b >= a - 1e-8 * (1.0 + abs(a))

    def test_witness_invariants(self):
        rng = rng_from_seed(41)
        g = random_reference(2, rng)
        diff = CpDifference(random_cp_channel(2, rng), random_cp_channel(2, rng))
        e = 0.6
        est = ecd_norm_seesaw(diff, g, e, restarts=8, seed=2)
        g_ext = extend_reference(g, 2)
        assert energy(g_ext, est.witness_state) <= e + 1e-9 * (1.0 + e)
        assert reevaluate_seesaw_witness(diff, est) == pytest.approx(
            est.value, abs=1e-8 * (1.0 + est.value))

    def test_lower_bounds_exact_cp_value(self):
        # for a cp map the seesaw may never exceed the exact ECD norm
        rng = rng_from_seed(42)
        for i in range(5):
            g = random_reference(2, rng)
            chan = random_cp_channel(2, rng)
            e = float(rng.random() + 0.2)
            exact, _ = ecd_norm_cp(chan, g, e)
            est = ecd_norm_seesaw(CpDifference.from_channel(chan), g, e,
                                  restarts=12, seed=i)
            assert est.value <= exact + 1e-7 * (1.0 + exact)

    def test_deterministic_given_seed(self):
        rng = rng_from_seed(43)
        g = random_reference(2, rng)
        diff = CpDifference(random_cp_channel(2, rng), random_cp_channel(2, rng))
        a = ecd_norm_seesaw(diff, g, 0.5, restarts=6, seed=9)
        b = ecd_norm_seesaw(diff, g, 0.5, restarts=6, seed=9)
        assert a.value == b.value


def seesaw_per_restart(s, g, energy_budget, ancilla_dim, restarts, seed):
    """The see-saw with each restart run alone to its end: the reference for the lockstep.

    Returns ``(value, histories, witness_state)``.
    """
    g_ext = extend_reference(g, ancilla_dim)
    s_ext = CpDifference(tensor_with_identity(s.plus, ancilla_dim),
                         tensor_with_identity(s.minus, ancilla_dim), s.scale)
    rng = rng_from_seed(seed)
    best_value, best_psi, histories = -np.inf, None, []
    for _ in range(restarts):
        psi = haar_state(s.dim_in * ancilla_dim, rng)
        psi = project_to_energy_shell(psi, g_ext, energy_budget)
        value_prev, trace = -np.inf, []
        local_best_value, local_best_psi = -np.inf, psi
        for _ in range(norms.SEESAW_MAX_ITER):
            image = s.apply_bipartite_pure(psi, ancilla_dim)
            evals, evecs = np.linalg.eigh((image + image.conj().T) / 2.0)
            value = float(np.sum(np.abs(evals)))
            trace.append(value)
            if value > local_best_value:
                local_best_value, local_best_psi = value, psi
            if value <= value_prev + norms.SEESAW_STALL * (1.0 + abs(value)):
                break
            value_prev = value
            signs = np.where(evals >= 0.0, 1.0, -1.0)
            w = evecs @ (signs[:, None] * evecs.conj().T)
            psi = dual_scan_witness(s_ext.dual_apply_bipartite(w)[None], g_ext, energy_budget)[0]
        histories.append(tuple(trace))
        if local_best_value > best_value:
            best_value, best_psi = local_best_value, local_best_psi
    return max(0.0, best_value), tuple(histories), DensityState.pure(best_psi)


class TestSeesawLockstep:
    """The lockstep see-saw is bitwise the per-restart loop."""

    @staticmethod
    def check(diff, g, e, ancilla_dim, restarts, seed):
        est = ecd_norm_seesaw(diff, g, e, ancilla_dim=ancilla_dim, restarts=restarts, seed=seed)
        value, histories, witness = seesaw_per_restart(diff, g, e, ancilla_dim, restarts, seed)
        assert est.value == value
        assert est.history == histories
        assert est.restarts_used == restarts
        assert np.array_equal(est.witness_state.entries, witness.entries)
        return est

    @pytest.mark.parametrize("e", [0.05, 0.4, 2.0])  # G (x) 1 tops out at energy 1
    @pytest.mark.parametrize("ancilla_dim", [1, 2, 3])
    def test_budgets_and_ancillas(self, e, ancilla_dim):
        rng = rng_from_seed(60 + ancilla_dim)
        diff = CpDifference(random_cp_channel(2, rng), random_cp_channel(2, rng, n_kraus=3))
        self.check(diff, ref(0.0, 1.0), e, ancilla_dim, 6, 5)

    @pytest.mark.parametrize("e", [0.05, 3.0])
    def test_above_full_eigh_dimension(self, e):
        rng = rng_from_seed(64)
        g = random_reference(4, rng)
        diff = CpDifference(random_cp_channel(4, rng), random_cp_channel(4, rng))
        assert 4 * 4 > FULL_EIGH_MAX_DIM
        self.check(diff, g, e * g.max_energy(), 4, 3, 2)

    def test_minus_pair_and_single_restart(self):
        rng = rng_from_seed(65)
        g = random_reference(3, rng)
        plus = random_cp_channel(3, rng, trace_preserving=True)
        minus = random_cp_channel(3, rng, trace_preserving=True)
        self.check(CpDifference(plus, minus), g, 0.3, 3, 5, 1)
        self.check(CpDifference(minus, plus), g, 0.3, 2, 1, 4)

    # Under a cap of 2 every restart leaves at the cap; under 7, some stall first.
    @pytest.mark.parametrize("cap, lengths", [(2, {2}), (7, {5, 6, 7})])
    def test_restarts_leave_at_different_iterations(self, monkeypatch, cap, lengths):
        monkeypatch.setattr(norms, "SEESAW_MAX_ITER", cap)
        rng = rng_from_seed(65)
        diff = CpDifference(random_cp_channel(2, rng), random_cp_channel(2, rng))
        est = self.check(diff, ref(0.0, 1.0), 0.3, 2, 8, 3)
        assert {len(h) for h in est.history} == lengths


class TestCpDifference:
    def test_from_superoperator_round_trip(self):
        rng = rng_from_seed(44)
        t_plus = random_cp_channel(2, rng)
        t_minus = random_cp_channel(2, rng)
        s_hat = (sum(np.kron(k, k.conj()) for k in t_plus.kraus)
                 - sum(np.kron(k, k.conj()) for k in t_minus.kraus))
        diff = CpDifference.from_superoperator(s_hat, 2, 2)
        # action agrees on a random pure bipartite state
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        img = diff.apply_bipartite_pure(psi, 2)
        mat = psi.reshape(2, 2)
        expect = sum((k @ mat).reshape(-1)[:, None] * (k @ mat).reshape(-1).conj()
                     for k in t_plus.kraus)
        expect = expect - sum((k @ mat).reshape(-1)[:, None] * (k @ mat).reshape(-1).conj()
                              for k in t_minus.kraus)
        assert np.allclose(img, expect, atol=1e-10)

    @pytest.mark.parametrize("ancilla_dim", [1, 2, 3])
    def test_extended_dual_apply_is_kraus_tensor_identity(self, ancilla_dim):
        rng = rng_from_seed(47 + ancilla_dim)
        s_hat = (sum(np.kron(k, k.conj()) for k in random_cp_channel(3, rng, 3).kraus)
                 - sum(np.kron(k, k.conj()) for k in random_cp_channel(3, rng).kraus))
        diff = CpDifference.from_superoperator(2.5 * s_hat, 3, 3)
        n = 3 * ancilla_dim
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = a + a.conj().T
        eye = np.eye(ancilla_dim, dtype=complex)
        expect = np.zeros((n, n), dtype=complex)
        for k in diff.plus.kraus:
            expect += np.kron(k, eye).conj().T @ w @ np.kron(k, eye)
        for k in diff.minus.kraus:
            expect -= np.kron(k, eye).conj().T @ w @ np.kron(k, eye)
        ext = CpDifference(tensor_with_identity(diff.plus, ancilla_dim),
                           tensor_with_identity(diff.minus, ancilla_dim), diff.scale)
        got = ext.dual_apply_bipartite(w)
        assert np.array_equal(got, diff.scale * expect)

    @pytest.mark.parametrize("ancilla_dim", [1, 3])
    def test_stacked_actions_match_per_slice(self, ancilla_dim):
        rng = rng_from_seed(67 + ancilla_dim)
        diff = CpDifference(random_cp_channel(3, rng, 3), random_cp_channel(3, rng))
        ext = CpDifference(tensor_with_identity(diff.plus, ancilla_dim),
                           tensor_with_identity(diff.minus, ancilla_dim), diff.scale)
        n = 3 * ancilla_dim
        psi = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
        w = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
        images = diff.apply_bipartite_pure(psi, ancilla_dim)
        duals = ext.dual_apply_bipartite(w)
        for r in range(5):
            assert np.array_equal(images[r], diff.apply_bipartite_pure(psi[r], ancilla_dim))
            assert np.array_equal(duals[r], ext.dual_apply_bipartite(w[r]))

    def test_scale_restores_norm(self):
        rng = rng_from_seed(45)
        k = 3.0 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        diff = CpDifference.from_kraus_pair([k], [], 2, 2)
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        img = diff.apply_bipartite_pure(psi, 2)
        mat = psi.reshape(2, 2)
        direct = (k @ mat).reshape(-1)
        assert np.allclose(img, np.outer(direct, direct.conj()), atol=1e-10)


def test_trace_norm_matches_singular_values():
    rng = rng_from_seed(46)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = a + a.conj().T
    assert trace_norm(h) == pytest.approx(float(np.sum(np.abs(np.linalg.eigvalsh(h)))))
