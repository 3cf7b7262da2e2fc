"""Concrete model builders: quantum birth process, spin systems, Rabi model.

The birth process is the level ladder with upward rates mu_n; its escape
time is tau = sum 1/mu_n and the truncated chain drops the outflow at
the top level, so the trace deficit measures probability mass past the
cutoff.  Spin systems carry the collective operators S_j built from Pauli
Kronecker products and the reference Hamiltonian Sx^2 + Sy^2 + Sz^2 minus
its ground energy.  The Rabi builder returns the truncated Hamiltonian
together with the interior projector used for edge-safe certification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lindblad import StabilityCertificate, min_omega, unitary_dissipation
from .opcore import HermitianMatrix, ReferenceHamiltonian, _set_fields, expm, ground_shift

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------------------
# Quantum birth process.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BirthRates:
    """Upward transition rates mu_n > 0 of the birth ladder."""

    kind: str           # "explicit" | "power" | "geometric"
    parameter: float = 0.0
    explicit: tuple = ()

    def __post_init__(self):
        if self.kind == "explicit":
            rates = tuple(float(r) for r in self.explicit)
            for n, r in enumerate(rates):
                if not math.isfinite(r):
                    raise ValueError(f"explicit rate mu_{n} must be finite, got {r}")
            if not rates or any(r <= 0 for r in rates):
                raise ValueError("explicit rates must be positive and nonempty")
            _set_fields(self, explicit=rates)
        elif self.kind == "power":
            if not math.isfinite(self.parameter):
                raise ValueError(f"power rule needs a finite p, got {self.parameter}")
            if self.parameter < 0:
                raise ValueError("power rule needs p >= 0")
        elif self.kind == "geometric":
            if not math.isfinite(self.parameter):
                raise ValueError(f"geometric rule needs a finite r, got {self.parameter}")
            if self.parameter <= 0:
                raise ValueError("geometric rule needs r > 0")
        else:
            raise ValueError(f"unknown rate rule {self.kind!r}")

    @staticmethod
    def from_list(rates) -> "BirthRates":
        return BirthRates("explicit", explicit=tuple(rates))

    @staticmethod
    def power(p: float) -> "BirthRates":
        return BirthRates("power", parameter=float(p))

    @staticmethod
    def geometric(r: float) -> "BirthRates":
        return BirthRates("geometric", parameter=float(r))

    def rates_array(self, count: int) -> np.ndarray:
        """mu_0 .. mu_(count-1); ValueError unless each is a normal float, so
        that 1/mu is finite as well."""
        if self.kind == "explicit":
            if count > len(self.explicit):
                raise ValueError("explicit rate list shorter than requested")
            mu = np.array(self.explicit[:count], dtype=float)
        else:
            levels = np.arange(count, dtype=float)
            with np.errstate(over="ignore"):
                if self.kind == "power":
                    mu = (levels + 1.0) ** self.parameter
                else:
                    mu = self.parameter ** levels
        if not np.all((mu >= np.finfo(float).tiny) & (mu <= np.finfo(float).max)):
            raise ValueError(f"{self.kind} rates leave the float range below level {count}; "
                             "reduce the cutoff")
        return mu


def birth_tau(rates: BirthRates, cutoff: int):
    """Partial sum of tau = sum 1/mu_n over n < cutoff and a convergence verdict.

    The verdict is provable for the closed-form rules (power p > 1 and
    geometric r > 1 converge; p <= 1 and r <= 1 diverge) and ``undecided``
    for explicit lists; the partial sum never changes it.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    if rates.kind in ("power", "geometric"):
        verdict = "finite" if rates.parameter > 1.0 else "diverges"
    else:
        verdict = "undecided"
    mu = rates.rates_array(cutoff)
    return float(np.sum(1.0 / mu)), verdict


def birth_trace(rates: BirthRates, cutoff: int, t: float) -> float:
    """Trace of the truncated evolution started from level 0 at time t.

    The birth generator maps diagonal states to diagonal states, so the
    trace reduces to the population chain p' = A p with A[n][n] = -mu_n and
    A[n+1][n] = mu_n (n < N); this stays well-conditioned even for the
    violently growing geometric rates.
    """
    if not 0 <= t < np.inf:
        raise ValueError("time must be nonnegative and finite")
    mu = rates.rates_array(cutoff + 1)
    a = np.diag(-mu) + np.diag(mu[:cutoff], -1)
    p0 = np.zeros(cutoff + 1)
    p0[0] = 1.0
    p = expm(float(t) * a) @ p0
    return float(np.sum(p))


@dataclass(frozen=True)
class BirthCertificate:
    """Escape-time certificate sequence and its residuals.

    epsilons follow eps_0 = 0, eps_1 = 1, eps_{n+1} = (1 + 1/mu_n) eps_n;
    residuals check mu_n (eps_{n+1} - eps_n) <= omega (eps_n + e0) with
    omega = 1 and e0 = 1/mu_0.
    """

    epsilons: tuple
    residuals: tuple
    omega: float
    e0: float


def birth_epsilons(rates: BirthRates, cutoff: int) -> BirthCertificate:
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    mu = rates.rates_array(cutoff)
    eps = np.zeros(cutoff + 1)
    eps[1] = 1.0
    with np.errstate(over="ignore"):
        for n in range(1, cutoff):
            eps[n + 1] = (1.0 + 1.0 / mu[n]) * eps[n]
            if not math.isfinite(eps[n + 1]):
                raise ValueError(
                    f"epsilon sequence exceeds float range at level {n + 1}; "
                    "reduce the cutoff"
                )
    omega, e0 = 1.0, 1.0 / mu[0]
    residuals = omega * (eps[:-1] + e0) - mu * np.diff(eps)
    return BirthCertificate(tuple(eps), tuple(residuals), omega, e0)


# ---------------------------------------------------------------------------
# Spin systems and su(2).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpinSystem:
    """Collective spin operators on n qubits with the quadratic reference."""

    n_qubits: int
    sx: HermitianMatrix
    sy: HermitianMatrix
    sz: HermitianMatrix
    laplacian: HermitianMatrix
    reference: ReferenceHamiltonian

    @property
    def dim(self) -> int:
        return self.sx.dim

    def generator(self, coeffs) -> HermitianMatrix:
        """A(X) = sum_j c_j S_j for a coefficient 3-vector."""
        c = np.asarray(coeffs, dtype=float).reshape(3)
        return HermitianMatrix(c[0] * self.sx.entries + c[1] * self.sy.entries
                               + c[2] * self.sz.entries)


def _collective(pauli: np.ndarray, n: int) -> np.ndarray:
    dim = 2 ** n
    total = np.zeros((dim, dim), dtype=complex)
    for k in range(n):
        op = np.eye(2 ** k, dtype=complex)
        op = np.kron(op, pauli)
        op = np.kron(op, np.eye(2 ** (n - k - 1), dtype=complex))
        total += op
    return total


@lru_cache(maxsize=8)
def spin_system(n_qubits: int) -> SpinSystem:
    if not 1 <= n_qubits <= 10:
        raise ValueError("n_qubits must lie in 1..10")
    sx = _collective(PAULI_X, n_qubits)
    sy = _collective(PAULI_Y, n_qubits)
    sz = _collective(PAULI_Z, n_qubits)

    comm = sx @ sy - sy @ sx - 2j * sz
    if np.max(np.abs(comm)) > 1e-10 * (1.0 + np.max(np.abs(sz))):
        raise AssertionError("su(2) commutator relation failed")

    laplacian = sx @ sx + sy @ sy + sz @ sz
    for s in (sx, sy, sz):
        defect = np.max(np.abs(laplacian @ s - s @ laplacian))
        if defect > 1e-9 * (1.0 + np.max(np.abs(laplacian))):
            raise AssertionError("Laplacian does not commute with the spin operators")

    lap = HermitianMatrix(laplacian)
    ref = ground_shift(lap)
    return SpinSystem(
        n_qubits=n_qubits,
        sx=HermitianMatrix(sx),
        sy=HermitianMatrix(sy),
        sz=HermitianMatrix(sz),
        laplacian=lap,
        reference=ref,
    )


def ad_norm_su2(coeffs) -> float:
    """Operator norm of ad_X for X = sum c_j X_j, equal to 2 |c|.

    The basis satisfies [X_i, X_j] = 2 eps_ijk X_k (so that A(X_j) = S_j),
    hence ad_X acts as twice the cross product with c.
    """
    c = np.asarray(coeffs, dtype=float).reshape(3)
    ad = 2.0 * np.array([
        [0.0, -c[2], c[1]],
        [c[2], 0.0, -c[0]],
        [-c[1], c[0], 0.0],
    ])
    return float(np.linalg.norm(ad, 2))


# ---------------------------------------------------------------------------
# Truncated Rabi model.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RabiModel:
    """Truncated Rabi Hamiltonian with its photon-number reference.

    ``interior`` marks the qubit (x) {0..cutoff-2} subspace; compressing
    there excises the rows the truncation corrupts.
    """

    hamiltonian: HermitianMatrix
    number: ReferenceHamiltonian
    interior: np.ndarray

    def __post_init__(self):
        _set_fields(self, interior=np.asarray(self.interior, dtype=bool))

    def compress(self, m: HermitianMatrix) -> HermitianMatrix:
        keep = np.flatnonzero(self.interior)
        return HermitianMatrix(m.entries[np.ix_(keep, keep)])

    def compress_reference(self) -> ReferenceHamiltonian:
        keep = np.flatnonzero(self.interior)
        return ReferenceHamiltonian(
            HermitianMatrix(self.number.entries[np.ix_(keep, keep)])
        )


def rabi_hamiltonian(omega: float, g: float, nu: float, cutoff: int) -> RabiModel:
    """H = omega a'a + g sigma_x (a + a') + nu sigma_z on C^2 (x) C^(cutoff+1).

    Before any matrix is built, a non-finite parameter is rejected by name,
    and so are parameters for which H N overflows: ``unitary_dissipation``
    takes i[H, N] from H N - N H, whose largest entry is at the top level N,
    (|omega| N + |nu|) N on the diagonal and |g| sqrt(N) N off it.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    omega, g, nu = float(omega), float(g), float(nu)  # Python floats overflow silently
    for name, value in (("omega", omega), ("g", g), ("nu", nu)):
        if not math.isfinite(value):
            raise ValueError(f"Rabi parameter {name} must be finite, got {value}")
    top = max(abs(omega) * cutoff + abs(nu), abs(g) * math.sqrt(cutoff)) * cutoff
    if not top <= np.finfo(float).max:
        raise ValueError(f"Rabi parameters omega={omega}, g={g}, nu={nu} overflow H or "
                         f"i[H, N] at cutoff {cutoff}; reduce them or the cutoff")
    n = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1, n)), 1).astype(complex)
    num = np.diag(np.arange(n)).astype(complex)
    eye2 = np.eye(2, dtype=complex)
    eyen = np.eye(n, dtype=complex)

    h = (omega * np.kron(eye2, num)
         + g * np.kron(PAULI_X, a + a.conj().T)
         + nu * np.kron(PAULI_Z, eyen))

    interior = np.kron(np.ones(2), np.arange(n) <= cutoff - 2).astype(bool)
    return RabiModel(
        hamiltonian=HermitianMatrix(h),
        number=ReferenceHamiltonian(HermitianMatrix(np.kron(eye2, num))),
        interior=interior,
    )


def rabi_certificate(model: RabiModel, e0: float = 2.0) -> StabilityCertificate:
    """Certified omega for +-i[H, N] <= omega (N + e0) on the interior.

    i[H, N] equals i g sigma_x (a - a') away from the truncation edge, which
    the compression excises.  The analytic two-level bound gives omega <= g
    at e0 = 2 (from 2 sqrt(x+1) <= x + 2), and the compressed pencil
    reproduces it.
    """
    comm = model.compress(unitary_dissipation(model.hamiltonian, model.number))
    ref = model.compress_reference()
    return min_omega(comm, ref, e0, symmetric=True)
