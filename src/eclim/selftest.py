"""Built-in example suite behind `eclim selftest`.

Checks the closed-form cases that need no randomness: each report line
reads ok/FAIL with the checked claim.  Returns the report and an exit code.
"""

from __future__ import annotations

import numpy as np

from .channels import KrausChannel, amplitude_damping, apply, choi, depolarizing, \
    dual_apply, max_output_energy
from .gaussian import GaussianChannel, GaussianGenerator, GaussianState, \
    apply_channel, channel_energy_bound, gaussian_stability, state_energy
from .lindblad import LindbladGenerator, evolve, min_omega
from .models import BirthRates, birth_epsilons, birth_tau
from .norms import ecd_norm_cp, eco_norm
from .opcore import (
    DensityState,
    HermitianMatrix,
    ReferenceHamiltonian,
    dual_scan,
    energy,
    ground_shift,
    identity,
    psd_order_leq,
    psd_sqrt,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _checks():
    diag01 = HermitianMatrix(np.diag([0.0, 1.0]).astype(complex))
    g01 = ReferenceHamiltonian(diag01)
    sx = HermitianMatrix(PAULI_X)

    yield "psd order: diag(0,1) <= diag(1,2)", lambda: psd_order_leq(
        diag01, HermitianMatrix(np.diag([1.0, 2.0]).astype(complex)))
    yield "psd order: identity <= pauli_x is false", lambda: not psd_order_leq(
        identity(2), sx)
    yield "psd order: pauli_x <= identity", lambda: psd_order_leq(sx, identity(2))

    def shift_case():
        ref = ground_shift(HermitianMatrix(np.diag([3.0, 5.0]).astype(complex)))
        return (abs(ref.ground_energy_removed - 3.0) < 1e-12
                and np.allclose(ref.entries, np.diag([0.0, 2.0])))
    yield "ground shift: diag(3,5) -> diag(0,2), shift 3", shift_case

    plus = DensityState.pure(np.array([1.0, 1.0]) / np.sqrt(2))
    yield "energy of |+> under diag(0,1) is 1/2", lambda: abs(
        energy(g01, plus) - 0.5) < 1e-12
    yield "energy of |0> is 0", lambda: energy(
        g01, DensityState.pure(np.array([1.0, 0.0]))) < 1e-12

    def mixed_energy():
        g = ground_shift(HermitianMatrix(np.diag([0.0, 1.0, 2.0]).astype(complex)))
        rho = DensityState(HermitianMatrix(np.eye(3) / 3.0))
        return abs(energy(g, rho) - 1.0) < 1e-12
    yield "energy of the maximally mixed qutrit under diag(0,1,2) is 1", mixed_energy

    def dual_trivials():
        v1, c1 = dual_scan(identity(2), g01, 0.7)
        v0, c0 = dual_scan(HermitianMatrix(np.zeros((2, 2))), g01, 0.7)
        return (abs(v1 - 1.0) < 1e-9 and abs(c1.lam) < 1e-6
                and abs(v0) < 1e-9 and abs(c0.e0) < 1e-9)
    yield "dual scan: identity -> 1 at (0,1); zero -> 0 at (0,0)", dual_trivials

    yield "sqrt(diag(0,4)) = diag(0,2)", lambda: np.allclose(
        psd_sqrt(HermitianMatrix(np.diag([0.0, 4.0]).astype(complex))).entries,
        np.diag([0.0, 2.0]))

    yield "eco norm of pauli_x is 1", lambda: abs(
        eco_norm(PAULI_X, g01, 0.3)[0] - 1.0) < 1e-9
    yield "eco norm of 0 is 0", lambda: eco_norm(
        np.zeros((2, 2)), g01, 0.3)[0] < 1e-9

    def ecd_tp():
        value, _ = ecd_norm_cp(amplitude_damping(0.4), g01, 0.5)
        return abs(value - 1.0) < 1e-9
    yield "ECD norm of a trace-preserving channel is 1", ecd_tp

    def channel_trivials():
        rho = DensityState.pure(np.array([0.0, 1.0]))
        full_decay = apply(amplitude_damping(1.0), rho)
        depol = apply(depolarizing(1.0), rho)
        bell = choi(KrausChannel.identity(2))
        return (np.allclose(full_decay.entries, np.diag([1.0, 0.0]))
                and np.allclose(depol.entries, np.eye(2) / 2.0, atol=1e-12)
                and abs(np.trace(bell.entries) - 2.0) < 1e-12)
    yield "amplitude damping p=1 and depolarizing p=1 act as expected", channel_trivials

    def damping_heisenberg():
        t = amplitude_damping(0.3)
        img = dual_apply(t, HermitianMatrix(np.diag([0.0, 1.0]).astype(complex)))
        return np.allclose(img.entries, np.diag([0.0, 0.7]))
    yield "amplitude damping pulls diag(0,1) back to 0.7 diag(0,1)", damping_heisenberg

    def f_id():
        value, _ = max_output_energy(KrausChannel.identity(2), g01, g01, 0.3)
        return abs(value - 0.3) < 1e-9
    yield "f_id(E) = E", f_id

    def lindblad_trivials():
        gen = LindbladGenerator.from_hamiltonian(np.zeros((2, 2)))
        rho = DensityState.pure(np.array([0.6, 0.8]))
        same = evolve(gen, rho, 1.3)
        m0 = min_omega(HermitianMatrix(np.zeros((2, 2))), g01, 1.0)
        return np.allclose(same.entries, rho.entries, atol=1e-10) and m0.omega == 0.0
    yield "zero generator is inert; min_omega(0) = 0", lindblad_trivials

    def damping_closed_form():
        gen = LindbladGenerator.from_hamiltonian(
            np.zeros((2, 2)), (np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),))
        out = evolve(gen, DensityState.pure(np.array([0.0, 1.0])), 0.9)
        expected = np.diag([1.0 - np.exp(-0.9), np.exp(-0.9)])
        return np.allclose(out.entries, expected, atol=1e-10)
    yield "pure damping matches diag(1-e^-t, e^-t)", damping_closed_form

    def gaussian_trivials():
        vac = GaussianState.vacuum(1)
        coh = GaussianState.coherent(1, np.array([np.sqrt(2.0), 0.0]))
        att = GaussianChannel.attenuator(1, 0.37)
        ident = GaussianChannel.identity(1)
        return (state_energy(vac) == 0.0
                and abs(state_energy(coh) - 1.0) < 1e-12
                and np.allclose(apply_channel(att, vac).gamma, np.eye(2))
                and np.allclose(apply_channel(ident, coh).beta, coh.beta)
                and abs(channel_energy_bound(ident, 0.8) - 0.8) < 1e-12)
    yield "gaussian vacuum/coherent/attenuator basics", gaussian_trivials

    def gaussian_cert():
        cert = gaussian_stability(GaussianGenerator.damping(1.0))
        return abs(cert.omega - 1.0) < 1e-12 and abs(cert.e0 - 0.75) < 1e-12
    yield "damping stability constants (1, 0.75)", gaussian_cert

    def birth_trivials():
        tau_geo, verdict_geo = birth_tau(BirthRates.geometric(2.0), 60)
        tau_const, verdict_const = birth_tau(BirthRates.power(0.0), 50)
        eps = birth_epsilons(BirthRates.power(0.0), 5).epsilons
        return (abs(tau_geo - 2.0) < 1e-12 and verdict_geo == "finite"
                and verdict_const == "diverges" and tau_const == 50.0
                and eps == (0.0, 1.0, 2.0, 4.0, 8.0, 16.0))
    yield "birth process: tau and doubling epsilons", birth_trivials


def run_selftest() -> tuple[str, int]:
    lines, failures = [], 0
    for name, check in _checks():
        try:
            ok = bool(check())
        except Exception as exc:  # a trivial check must never raise
            ok = False
            name = f"{name} (raised {exc!r})"
        lines.append(("ok   - " if ok else "FAIL - ") + name)
        failures += 0 if ok else 1
    lines.append(f"selftest: {'pass' if failures == 0 else f'{failures} failures'}")
    return "\n".join(lines) + "\n", 0 if failures == 0 else 1
