"""Lindblad generators, stability-constant certification, and simulation.

A generator is the pair (K, {L_a}) acting as L(rho) = K rho + rho K* +
sum_a L_a rho L_a*.  Its dissipation matrix M = K*G + GK + sum L_a* G L_a
is the time-zero derivative of the energy, and the least omega with
M <= omega*(G + e0) is read off a Hermitian-definite pencil.  Together
(omega, e0) certify the Gronwall bound

    energy(t) <= exp(omega*t) * (E + e0) - e0.

A stability curve holds the pencil's omega at every e0 of a grid.  Those
values only rank the candidates: every certificate a result reads is
re-verified, by the floors of ``min_omega``, when it is first read; a
candidate that loses the ranking is not a certificate.

Simulation vectorizes rho row-major, vec(A rho B) = (A (x) B^T) vec(rho),
so the superoperator is K (x) 1 + 1 (x) conj(K) + sum L (x) conj(L).
The amplitude-damping closed form pins this convention in the tests.
A time grid is evolved in one call: small systems apply dense propagators,
which a generator keeps for its last grid only; larger ones step the action
exp(dt L) vec(rho) through the sorted grid with a truncated Taylor series
(Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2), 2011, Algorithm 3.2).  Its
degree and step count come from the exact 1-norm of the trace-shifted
superoperator, so no norm estimator runs and no random number is drawn.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
from scipy.linalg import expm

from .opcore import CERT_RESIDUAL_RTOL, DensityState, HermitianMatrix, ReferenceHamiltonian, \
    _set_fields, energy, require_psd

DISSIPATIVITY_RTOL = 1e-9
# Up to this dimension a dense expm of the d^2 x d^2 superoperator is cheaper
# than the Taylor action on one state at one time (d = 8: 2.0 against 2.6 ms;
# d = 9: 4.5 against 3.9 ms; medians over 5 random generators with one jump
# operator, generator built per call; 2-vCPU x86_64 VM, one BLAS thread), and
# its propagators serve every state evolved on the same grid.
DENSE_EXPM_MAX_DIM = 8
# The shifted superoperator of the Taylor action is stored dense when more
# than this share of its d^4 entries is nonzero: at d = 16, fully dense
# (65,536 nonzeros), a CSR complex matvec takes 172 us and a dense gemv 32 us
# (same VM, one BLAS thread); the damped Fock generator at d = 61 has about
# 7,300 nonzeros of 13.8 million and stays CSR.
DENSE_ACTION_MIN_FILL = 0.25
# theta_m: the largest ||hA||_1 for which m Taylor terms reach double
# precision (Higham, Functions of Matrices, Table A.3, and Al-Mohy/Higham
# 2011, Table 3.1).
TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
    13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0,
    45: 7.2, 50: 8.5, 55: 9.9,
}
TAYLOR_TOL = 2.0 ** -53  # unit roundoff, the truncation tolerance of the Taylor action
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

    def shifted_superoperator(self) -> tuple:
        """(A, mu, ||A||_1) with A = S - mu and mu = tr S / d^2, the Taylor action's operator.

        S is assembled sparse, without the dense d^2 x d^2 intermediate, and A
        is kept as CSR unless more than DENSE_ACTION_MIN_FILL of S is nonzero.
        """
        if "superop_sparse" not in self._cache:
            n = self.dim * self.dim
            eye = scipy.sparse.identity(self.dim, dtype=complex, format="csr")
            k = scipy.sparse.csr_matrix(self.k)
            s = scipy.sparse.kron(k, eye) + scipy.sparse.kron(eye, k.conj())
            for l in self.lindblad:
                ls = scipy.sparse.csr_matrix(l)
                s = s + scipy.sparse.kron(ls, ls.conj())
            mu = s.trace() / n
            if s.nnz > DENSE_ACTION_MIN_FILL * n * n:
                a = s.toarray()
                a.flat[::n + 1] -= mu
            else:
                a = scipy.sparse.csr_matrix(s - mu * scipy.sparse.identity(n, format="csr"))
            self._cache["superop_sparse"] = (a, mu, float(abs(a).sum(axis=0).max()))
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
        return _budget(self.omega, self.e0, energy_in, t)


def _budget(omega: float, e0: float, energy_in: float, t: float) -> float:
    with np.errstate(over="ignore"):
        return float(np.exp(omega * abs(t)) * (energy_in + e0) - e0)


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


def _pencil_omega(m: HermitianMatrix, g: ReferenceHamiltonian, e0: float,
                  symmetric: bool) -> float:
    """The pencil's least omega >= 0 with M <= omega (G + e0) (and -M with ``symmetric``)."""
    evals = np.linalg.eigvalsh(_pencil(m, g, e0)[1])
    omega = max(0.0, float(evals[-1]))
    return max(omega, float(-evals[0])) if symmetric else omega


def _floors(m: HermitianMatrix, g: ReferenceHamiltonian, omega: float, e0: float,
            symmetric: bool) -> float:
    """The residual of (omega, e0): the floor of omega (G + e0) - M (and of + M)."""
    shifted = omega * (g.entries + e0 * np.eye(g.dim))
    slack = CERT_RESIDUAL_RTOL * (1.0 + m.operator_norm())
    what = "stability certificate fails verification"
    residual = float(require_psd(shifted - m.entries, slack, what))
    if symmetric:
        residual = min(residual, float(require_psd(shifted + m.entries, slack, what)))
    return residual


def min_omega(m: HermitianMatrix, g: ReferenceHamiltonian, e0: float,
              symmetric: bool = False) -> StabilityCertificate:
    """Least omega >= 0 with M <= omega (G + e0), via the definite pencil.

    With ``symmetric`` the bound is enforced for -M as well (both time
    directions of a unitary group).  The certificate is re-verified: its
    ``residual``, the smallest eigenvalue of omega (G + e0) - M (and of
    omega (G + e0) + M), must be at least -1e-8 * (1 + ||M||), or
    ValueError is raised.
    """
    return stability_curve(m, g, (e0,), symmetric)[0]


def pencil_vector(m: HermitianMatrix, g: ReferenceHamiltonian, e0: float) -> np.ndarray:
    """Unit vector saturating the pencil: the first-order-sharp state."""
    w, a = _pencil(m, g, e0)
    v = w @ np.linalg.eigh(a)[1][:, -1]
    return v / np.linalg.norm(v)


def default_e0_grid(g: ReferenceHamiltonian) -> np.ndarray:
    """Logarithmic grid 2^-6 .. 2^6 scaled by the top energy of G."""
    scale = max(g.max_energy(), 1e-6)
    return scale * np.logspace(-6, 6, E0_GRID_POINTS, base=2.0)


class StabilityCurve(Sequence):
    """Candidates (omegas[i], e0s[i]) along an e0 grid, each verified when read.

    ``omegas`` come from pencils and only rank candidates.  Item i is the
    StabilityCertificate at e0s[i]; ``verify(i)`` returns its residual or
    raises, and the certificate is cached on first read.
    """

    def __init__(self, e0s: tuple, omegas: tuple, verify):
        self.e0s = e0s
        self.omegas = omegas
        self._verify = verify
        self._certs = {}

    def __len__(self) -> int:
        return len(self.e0s)

    def __getitem__(self, i: int) -> StabilityCertificate:
        i = range(len(self.e0s))[i]
        cert = self._certs.get(i)
        if cert is None:
            cert = self._certs[i] = StabilityCertificate(self.omegas[i], self.e0s[i],
                                                         residual=self._verify(i))
        return cert


def stability_curve(m: HermitianMatrix, g: ReferenceHamiltonian, e0_grid,
                    symmetric: bool = False) -> StabilityCurve:
    """The pencil's omega of a dissipation matrix M along an e0 grid; omega is
    nonincreasing in e0.  Each item passes ``min_omega``'s floors when read."""
    e0s = tuple(float(e0) for e0 in e0_grid)
    omegas = tuple(_pencil_omega(m, g, e0, symmetric) for e0 in e0s)
    return StabilityCurve(e0s, omegas, lambda i: _floors(m, g, omegas[i], e0s[i], symmetric))


def best_certificate(curves, energy_in: float, t: float) -> StabilityCertificate:
    """The verified certificate minimizing exp(omega t)(E + e0) - e0 over the
    candidates of ``curves``; ties go to the first in curve, then grid order.
    Only the winner is verified."""
    def bound(candidate):
        curve, i = candidate
        return _budget(curve.omegas[i], curve.e0s[i], energy_in, t)

    candidates = [(curve, i) for curve in curves for i in range(len(curve))]
    if not candidates:
        raise ValueError("no certificates supplied")
    curve, i = min(candidates, key=bound)
    return curve[i]


def joint_constants(curves) -> StabilityCurve:
    """Pairwise-max joint constants across several dynamics, per e0.

    Candidate i verifies every member curve at its own omega there; its
    residual is the least of theirs.
    """
    curves = tuple(curves)
    groups = list(zip(*(c.e0s for c in curves)))
    for group in groups:
        if len({round(e0, 12) for e0 in group}) != 1:
            raise ValueError("joint constants need aligned e0 grids")
    omegas = tuple(max(c.omegas[i] for c in curves) for i in range(len(groups)))
    return StabilityCurve(tuple(group[0] for group in groups), omegas,
                          lambda i: min(c[i].residual for c in curves))


def evolve_grid(gen: LindbladGenerator, rho: DensityState, times) -> list:
    """The states exp(tL) rho for every t in ``times``, in input order.

    Up to dimension DENSE_EXPM_MAX_DIM each state is a dense propagator
    exp(tS) applied to vec(rho).  Beyond it the sorted distinct times are
    swept once, each step applying the Taylor action exp((t - prev) S) to the
    previous state, so no time restarts from zero.  The trace may only
    decrease.
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
        op, prev = gen.shifted_superoperator(), 0.0
        for t in steps:
            vec = _taylor_action(op, t - prev, vec)
            prev = t
            states[t] = _checked_state(vec, gen.dim, tr_in)
    return [states[t] for t in times]


def _taylor_degree(norm: float) -> tuple:
    """(m, s) minimizing the m*s products of s steps of degree m, for ||hA||_1 = norm."""
    if norm == 0:
        return 0, 1
    return min(((m, int(np.ceil(norm / theta))) for m, theta in TAYLOR_THETA.items()),
               key=lambda ms: ms[0] * ms[1])


def _taylor_action(op: tuple, h: float, v: np.ndarray) -> np.ndarray:
    """exp(h S) v by Al-Mohy/Higham Algorithm 3.2 on the shifted operator (A, mu, ||A||_1).

    The exact norm bounds every alpha_p(A) the algorithm could estimate from
    above, so the double-precision error bound of the chosen (m, s) holds.
    Each of the s sub-steps sums Taylor terms until the last two together
    fall below TAYLOR_TOL times the partial sum (inf-norms).
    """
    a, mu, norm = op
    m, s = _taylor_degree(h * norm)
    eta = np.exp(h * mu / s)
    f = v.copy()
    for _ in range(s):
        c1 = bound = np.abs(v).max()
        for j in range(m):
            v = a @ v
            v *= h / (s * (j + 1))
            c2 = np.abs(v).max()
            f += v
            bound += c2
            # ||f|| <= bound up to rounding far below a factor 2, so the
            # exact test only runs once the cheap bound lets it pass.
            if c1 + c2 <= 2.0 * TAYLOR_TOL * bound and c1 + c2 <= TAYLOR_TOL * np.abs(f).max():
                break
            c1 = c2
        f *= eta
        v = f
    return f


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
