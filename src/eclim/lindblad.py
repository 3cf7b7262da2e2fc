"""Lindblad generators, stability-constant certification, and simulation.

A generator is the pair (K, {L_a}) acting as L(rho) = K rho + rho K* +
sum_a L_a rho L_a*.  Its dissipation matrix M = K*G + GK + sum L_a* G L_a
is the time-zero derivative of the energy, and the least omega with
M <= omega*(G + e0) is read off a Hermitian-definite pencil.  Together
(omega, e0) certify the Gronwall bound

    energy(t) <= exp(omega*t) * (E + e0) - e0.

Simulation vectorizes rho row-major, vec(A rho B) = (A (x) B^T) vec(rho),
so the superoperator is K (x) 1 + 1 (x) conj(K) + sum L (x) conj(L).
The amplitude-damping closed form pins this convention in the tests.
A time grid is evolved in one call: small systems apply dense propagators,
which a generator keeps for its last grid only; larger ones step the action
exp(dt L) vec(rho) through the sorted grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from .opcore import CERT_RESIDUAL_RTOL, DensityState, HermitianMatrix, ReferenceHamiltonian, \
    _set_fields, energy, require_psd

DISSIPATIVITY_RTOL = 1e-9
# Up to this dimension a dense expm of the d^2 x d^2 superoperator is cheaper
# than the sparse action on one state (d = 8: 1.6 against 1.8 ms; d = 9:
# 2.6 against 1.8 ms; 2-vCPU x86_64 VM, one BLAS thread), and its
# propagators serve every state evolved on the same grid.
DENSE_EXPM_MAX_DIM = 8
E0_GRID_POINTS = 13


class BoundViolation(RuntimeError):
    """A theorem-backed inequality failed beyond tolerance."""


@dataclass(frozen=True)
class LindbladGenerator:
    """Standard generator L(rho) = K rho + rho K* + sum L_a rho L_a*."""

    k: np.ndarray
    lindblad: tuple
    dim: int = field(init=False)
    formally_conservative: bool = field(init=False)

    def __post_init__(self):
        k = np.asarray(self.k, dtype=complex)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError("K must be a square matrix")
        ops = tuple(np.asarray(l, dtype=complex) for l in self.lindblad)
        for l in ops:
            if l.shape != k.shape:
                raise ValueError("Lindblad operators must match the dimension of K")
        dissipation = sum((l.conj().T @ l for l in ops), np.zeros_like(k)) + k + k.conj().T
        dissipation = (dissipation + dissipation.conj().T) / 2.0
        evals = np.linalg.eigvalsh(dissipation)
        scale = 1.0 + float(np.max(np.abs(k))) + float(np.max(np.abs(evals)))
        if float(evals[-1]) > DISSIPATIVITY_RTOL * scale:
            raise ValueError(
                f"dissipativity violated: sum L*L + K + K* has eigenvalue {evals[-1]:.3e} > 0"
            )
        conservative = bool(np.max(np.abs(evals)) <= DISSIPATIVITY_RTOL * scale)
        _set_fields(self, k=k, lindblad=ops, dim=k.shape[0],
                    formally_conservative=conservative, _cache={})

    @staticmethod
    def from_hamiltonian(h, lindblad=()) -> "LindbladGenerator":
        """Build K = -iH - (1/2) sum L*L from a Hamiltonian."""
        hm = h.entries if isinstance(h, HermitianMatrix) else np.asarray(h, dtype=complex)
        ops = tuple(np.asarray(l, dtype=complex) for l in lindblad)
        k = -1j * hm - 0.5 * sum((l.conj().T @ l for l in ops), np.zeros_like(hm))
        return LindbladGenerator(k, ops)

    def superoperator(self) -> np.ndarray:
        if "superop" not in self._cache:
            eye = np.eye(self.dim)
            s = np.kron(self.k, eye) + np.kron(eye, self.k.conj())
            for l in self.lindblad:
                s = s + np.kron(l, l.conj())
            self._cache["superop"] = s
        return self._cache["superop"]

    def superoperator_sparse(self) -> "scipy.sparse.csr_matrix":
        """Sparse assembly; avoids the dense dim^2 x dim^2 intermediate."""
        if "superop_sparse" not in self._cache:
            eye = scipy.sparse.identity(self.dim, dtype=complex, format="csr")
            k = scipy.sparse.csr_matrix(self.k)
            s = scipy.sparse.kron(k, eye) + scipy.sparse.kron(eye, k.conj())
            for l in self.lindblad:
                ls = scipy.sparse.csr_matrix(l)
                s = s + scipy.sparse.kron(ls, ls.conj())
            self._cache["superop_sparse"] = scipy.sparse.csr_matrix(s)
        return self._cache["superop_sparse"]

    def grid_propagators(self, times) -> dict:
        """exp(t * superoperator) for each time, keyed by time.

        Only the last grid's propagators are kept, so a grid reused across
        states costs one expm per time and memory stays bounded by one grid.
        """
        last = self._cache.get("grid", {})
        if not all(t in last for t in times):
            s = self.superoperator()
            last = {t: last[t] if t in last else expm(t * s) for t in times}
            self._cache["grid"] = last
        return last


def dissipation_matrix(gen: LindbladGenerator, g: ReferenceHamiltonian) -> HermitianMatrix:
    """M = K*G + GK + sum L* G L; the time-zero energy derivative."""
    if gen.dim != g.dim:
        raise ValueError(f"dimension mismatch: generator {gen.dim}, reference {g.dim}")
    ge = g.entries
    m = gen.k.conj().T @ ge + ge @ gen.k
    for l in gen.lindblad:
        m = m + l.conj().T @ ge @ l
    return HermitianMatrix(m)


def unitary_dissipation(h: HermitianMatrix, g: ReferenceHamiltonian) -> HermitianMatrix:
    """i[H, G]; the dissipation matrix of the unitary group exp(-itH)."""
    return HermitianMatrix(1j * (h.entries @ g.entries - g.entries @ h.entries))


@dataclass(frozen=True)
class StabilityCertificate:
    """Constants (omega, e0) in the energy growth bound exp(omega t)(E+e0)-e0."""

    omega: float
    e0: float
    residual: float = 0.0

    def __post_init__(self):
        if self.omega < 0 or self.e0 < 0:
            raise ValueError("stability constants must be nonnegative")

    def budget(self, energy_in: float, t: float) -> float:
        """f_t(E) = exp(omega |t|) (E + e0) - e0, or inf (no warning) past the float range."""
        with np.errstate(over="ignore"):
            return float(np.exp(self.omega * abs(t)) * (energy_in + self.e0) - self.e0)


def _pencil(m: HermitianMatrix, g: ReferenceHamiltonian, e0: float):
    """W = (G + e0)^(-1/2) and the Hermitian part of W M W (the pencil's eigenvalues)."""
    if m.dim != g.dim:
        raise ValueError(f"dimension mismatch: {m.dim} vs {g.dim}")
    if not 0 < e0 < np.inf:
        raise ValueError("e0 must be positive and finite so that G + e0 is definite")
    ge, gv = g.eigh()
    d = (np.clip(ge, 0.0, None) + e0) ** -0.5
    w = gv @ (d[:, None] * gv.conj().T)
    a = w @ m.entries @ w
    return w, (a + a.conj().T) / 2.0


def min_omega(m: HermitianMatrix, g: ReferenceHamiltonian, e0: float,
              symmetric: bool = False) -> StabilityCertificate:
    """Least omega >= 0 with M <= omega (G + e0), via the definite pencil.

    With ``symmetric`` the bound is enforced for -M as well (both time
    directions of a unitary group).  The certificate is re-verified: its
    ``residual``, the smallest eigenvalue of omega (G + e0) - M (and of
    omega (G + e0) + M), must be at least -1e-8 * (1 + ||M||), or
    ValueError is raised.
    """
    _, a = _pencil(m, g, e0)
    evals = np.linalg.eigvalsh(a)
    omega = max(0.0, float(evals[-1]))
    if symmetric:
        omega = max(omega, float(-evals[0]))

    shifted = omega * (g.entries + e0 * np.eye(g.dim))
    slack = CERT_RESIDUAL_RTOL * (1.0 + m.operator_norm())
    what = "stability certificate fails verification"
    residual = float(require_psd(shifted - m.entries, slack, what))
    if symmetric:
        residual = min(residual, float(require_psd(shifted + m.entries, slack, what)))
    return StabilityCertificate(omega, e0, residual=residual)


def pencil_vector(m: HermitianMatrix, g: ReferenceHamiltonian, e0: float) -> np.ndarray:
    """Unit vector saturating the pencil: the first-order-sharp state."""
    w, a = _pencil(m, g, e0)
    v = w @ np.linalg.eigh(a)[1][:, -1]
    return v / np.linalg.norm(v)


def default_e0_grid(g: ReferenceHamiltonian) -> np.ndarray:
    """Logarithmic grid 2^-6 .. 2^6 scaled by the top energy of G."""
    scale = max(g.max_energy(), 1e-6)
    return scale * np.logspace(-6, 6, E0_GRID_POINTS, base=2.0)


def stability_curve(m: HermitianMatrix, g: ReferenceHamiltonian, e0_grid,
                    symmetric: bool = False) -> list:
    """min_omega of a dissipation matrix M along an e0 grid; omega is nonincreasing in e0."""
    return [min_omega(m, g, float(e0), symmetric) for e0 in e0_grid]


def best_certificate(certs, energy_in: float, t: float) -> StabilityCertificate:
    """The certificate minimizing the bound exp(omega t)(E + e0) - e0."""
    if not certs:
        raise ValueError("no certificates supplied")
    return min(certs, key=lambda c: c.budget(energy_in, t))


def joint_constants(cert_lists) -> list:
    """Pairwise-max joint certificates across several dynamics, per e0."""
    joined = []
    for group in zip(*cert_lists):
        e0s = {round(c.e0, 12) for c in group}
        if len(e0s) != 1:
            raise ValueError("joint constants need aligned e0 grids")
        joined.append(StabilityCertificate(max(c.omega for c in group), group[0].e0,
                                           residual=min(c.residual for c in group)))
    return joined


def evolve_grid(gen: LindbladGenerator, rho: DensityState, times) -> list:
    """The states exp(tL) rho for every t in ``times``, in input order.

    Up to dimension DENSE_EXPM_MAX_DIM each state is a dense propagator
    exp(tS) applied to vec(rho).  Beyond it the sorted distinct times are
    swept once, each step applying the action exp((t - prev) S) to the
    previous state (Al-Mohy/Higham), so no time restarts from zero.  The
    trace may only decrease.
    """
    times = [float(t) for t in times]
    for t in times:
        if t < 0:
            raise ValueError("negative evolution times are not defined for semigroups")
        if not np.isfinite(t):
            raise ValueError(f"evolution times must be finite, got {t}")
    if gen.dim != rho.dim:
        raise ValueError(f"dimension mismatch: generator {gen.dim}, state {rho.dim}")
    steps = sorted({t for t in times if t != 0})
    vec = rho.entries.reshape(-1)
    tr_in = rho.trace()
    states = {0.0: rho}
    if gen.dim <= DENSE_EXPM_MAX_DIM:
        props = gen.grid_propagators(steps)
        for t in steps:
            states[t] = _checked_state(props[t] @ vec, gen.dim, tr_in)
    else:
        s, prev = gen.superoperator_sparse(), 0.0
        for t in steps:
            vec = expm_multiply((t - prev) * s, vec)
            prev = t
            states[t] = _checked_state(vec, gen.dim, tr_in)
    return [states[t] for t in times]


def _checked_state(vec: np.ndarray, dim: int, tr_in: float) -> DensityState:
    out = vec.reshape(dim, dim)
    out = (out + out.conj().T) / 2.0
    tr_out = float(np.real(np.trace(out)))
    if tr_out > tr_in + 1e-9:
        raise BoundViolation(f"evolution increased the trace: {tr_in} -> {tr_out}")
    return DensityState(HermitianMatrix(out))


def evolve(gen: LindbladGenerator, rho: DensityState, t: float) -> DensityState:
    """rho(t) = exp(t L) rho; the one-time case of ``evolve_grid``."""
    return evolve_grid(gen, rho, (t,))[0]


@dataclass(frozen=True)
class EnergyBoundReport:
    initial_energy: float
    times: tuple
    energies: tuple
    bounds: tuple
    margins: tuple

    @property
    def worst_margin(self) -> float:
        return min(self.margins) if self.margins else 0.0


def verify_energy_bound(gen: LindbladGenerator, g: ReferenceHamiltonian,
                        cert: StabilityCertificate, rho: DensityState,
                        t_grid) -> EnergyBoundReport:
    """Check energy(t) <= exp(omega t)(E + e0) - e0 along a time grid.

    Raises BoundViolation if any margin drops below the tolerance, which
    signals an invalid certificate or a simulation error.
    """
    e_in = energy(g, rho)
    tol = 1e-7 * (1.0 + e_in + cert.e0)
    times = [float(t) for t in t_grid]
    energies, bounds, margins = [], [], []
    for t, out in zip(times, evolve_grid(gen, rho, times)):
        e_t = energy(g, out)
        bound = cert.budget(e_in, t)
        margin = bound - e_t
        energies.append(e_t)
        bounds.append(bound)
        margins.append(margin)
        if margin < -tol:
            raise BoundViolation(
                f"energy bound violated at t={t}: energy {e_t} > bound {bound}"
            )
    return EnergyBoundReport(e_in, tuple(times), tuple(energies), tuple(bounds),
                             tuple(margins))
