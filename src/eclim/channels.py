"""Kraus-channel algebra and the maximal-output-energy function.

A channel T with Kraus operators {K_a} acts as T(rho) = sum K_a rho K_a*.
Its maximal output energy at budget E is computed exactly by the dual scan
applied to the Heisenberg-picture image T*(G_out) = sum K_a* G_out K_a,
and every value comes with an affine certificate (lam, e0) witnessing
T*(G_out) <= lam*G_in + e0.

Choi convention: C = sum_ij E_ij (x) T(E_ij), so block (i, j) of C is
T(E_ij) and row i*dim_out + a pairs input index i with output index a.  A
Kraus operator K enters as the vector v with v[i*dim_out + a] = K[a, i].
A superoperator S acts on row-major vectorized matrices,
vec(A rho B) = (A (x) B^T) vec(rho).  The Jordan split of a Hermitian C is
C = C_+ - C_- with C_+ (C_-) the part on its positive (negative)
eigenvalues; eigenpair (w, v) gives sqrt(|w|) times the Kraus operator of v,
for the cp map with Choi matrix C_+ or C_-.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .opcore import (
    CERT_RESIDUAL_RTOL,
    PSD_RTOL,
    AffineCertificate,
    DensityState,
    EnergyCurve,
    EnergyProfile,
    HermitianMatrix,
    ReferenceHamiltonian,
    _set_fields,
    dual_scan,
    psd_order_leq,
    require_psd,
    require_psd_spectrum,
    spectral_function,
)

KRAUS_SUM_RTOL = 1e-9
# Choi eigenvalues within this (relative) distance of 0 give no Kraus operator.
CHOI_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class KrausChannel:
    """cp trace-nonincreasing map given by a list of dim_out x dim_in matrices."""

    kraus: tuple
    dim_in: int = field(init=False)
    dim_out: int = field(init=False)
    trace_preserving: bool = field(init=False)

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        rows, cols = ops[0].shape
        for k in ops:
            if k.ndim != 2 or k.shape != (rows, cols):
                raise ValueError("all Kraus operators must share one shape")
            if not np.all(np.isfinite(k)):
                raise ValueError("Kraus entries must be finite")
        s = sum(k.conj().T @ k for k in ops)
        top = kraus_sum_top(s)
        if top > 1.0 + KRAUS_SUM_RTOL:
            raise ValueError(f"Kraus sum exceeds identity (top eigenvalue {top})")
        tp = bool(np.linalg.norm(s - np.eye(cols)) <= KRAUS_SUM_RTOL * cols)
        _set_fields(self, kraus=ops, dim_in=cols, dim_out=rows, trace_preserving=tp)

    @staticmethod
    def zero(dim_in: int, dim_out: int | None = None) -> "KrausChannel":
        return KrausChannel((np.zeros((dim_out or dim_in, dim_in)),))

    @staticmethod
    def identity(dim: int) -> "KrausChannel":
        return KrausChannel((np.eye(dim, dtype=complex),))

    @staticmethod
    def unitary(u) -> "KrausChannel":
        return KrausChannel((np.asarray(u, dtype=complex),))

    def kraus_sum(self) -> HermitianMatrix:
        """T*(1) = sum K_a* K_a on the input space."""
        return HermitianMatrix(sum(k.conj().T @ k for k in self.kraus))


def kraus_sum_top(s: np.ndarray) -> float:
    """Top eigenvalue of a Kraus sum s = sum K_a* K_a (at most 1 when trace-nonincreasing)."""
    return float(np.linalg.eigvalsh((s + s.conj().T) / 2.0)[-1])


def apply(t: KrausChannel, rho: DensityState) -> DensityState:
    if rho.dim != t.dim_in:
        raise ValueError(f"dimension mismatch: state {rho.dim}, channel input {t.dim_in}")
    out = sum(k @ rho.entries @ k.conj().T for k in t.kraus)
    return DensityState(HermitianMatrix(out))


def dual_apply(t: KrausChannel, b: HermitianMatrix) -> HermitianMatrix:
    """Heisenberg-picture action T*(B) = sum K_a* B K_a."""
    if b.dim != t.dim_out:
        raise ValueError(f"dimension mismatch: operator {b.dim}, channel output {t.dim_out}")
    return HermitianMatrix(sum(k.conj().T @ b.entries @ k for k in t.kraus))


def compose(s: KrausChannel, t: KrausChannel) -> KrausChannel:
    """Kraus form of S after T (first T, then S)."""
    if s.dim_in != t.dim_out:
        raise ValueError(f"cannot compose: {s.dim_in} vs {t.dim_out}")
    return KrausChannel(tuple(a @ b for a in s.kraus for b in t.kraus))


def tensor_with_identity(t: KrausChannel, ancilla_dim: int) -> KrausChannel:
    eye = np.eye(ancilla_dim, dtype=complex)
    return KrausChannel(tuple(np.kron(k, eye) for k in t.kraus))


def tensor_reference(g_a: ReferenceHamiltonian, g_b: ReferenceHamiltonian) -> ReferenceHamiltonian:
    """Composite reference G_A (x) 1 + 1 (x) G_B."""
    ga, gb = g_a.entries, g_b.entries
    comp = np.kron(ga, np.eye(g_b.dim)) + np.kron(np.eye(g_a.dim), gb)
    return ReferenceHamiltonian(HermitianMatrix(comp))


def extend_reference(g: ReferenceHamiltonian, ancilla_dim: int) -> ReferenceHamiltonian:
    """G (x) 1 for a zero-energy ancilla."""
    return ReferenceHamiltonian(HermitianMatrix(np.kron(g.entries, np.eye(ancilla_dim))))


def choi(t: KrausChannel) -> HermitianMatrix:
    """Choi matrix sum_ij E_ij (x) T(E_ij) of dimension dim_in * dim_out."""
    d_in, d_out = t.dim_in, t.dim_out
    c = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for k in t.kraus:
        v = k.T.reshape(-1)  # index (i, row) -> K[row, i]
        c += np.outer(v, v.conj())
    return HermitianMatrix(c)


def jordan_kraus(c: HermitianMatrix, dim_in: int, dim_out: int):
    """Kraus families (plus, minus) of the Jordan split C = C_+ - C_-."""
    if c.dim != dim_in * dim_out:
        raise ValueError("Choi dimension does not match dim_in * dim_out")
    evals, evecs = c.eigh()
    scale = 1.0 + float(np.max(np.abs(evals)))
    plus, minus = [], []
    for w, v in zip(evals, evecs.T):
        k = v.reshape(dim_in, dim_out).T
        if w > CHOI_RANK_RTOL * scale:
            plus.append(np.sqrt(w) * k)
        elif w < -CHOI_RANK_RTOL * scale:
            minus.append(np.sqrt(-w) * k)
    return plus, minus


def kraus_from_choi(c: HermitianMatrix, dim_in: int, dim_out: int) -> KrausChannel:
    """Rebuild a Kraus form from a PSD Choi matrix."""
    plus, _ = jordan_kraus(c, dim_in, dim_out)
    evals = c.eigh()[0]
    require_psd_spectrum(evals, PSD_RTOL * (1.0 + float(np.max(np.abs(evals)))),
                         "Choi matrix is not PSD")
    return KrausChannel(tuple(plus) or (np.zeros((dim_out, dim_in)),))


def choi_of_superoperator(s_hat: np.ndarray, dim_in: int, dim_out: int) -> HermitianMatrix:
    """Choi matrix of any Hermiticity-preserving map given as a superoperator.

    Column i*dim_in + j of S is vec(S(E_ij)), so S[a*dim_out + b, i*dim_in + j]
    is entry (i*dim_out + a, j*dim_out + b) of C.
    """
    s4 = np.asarray(s_hat, dtype=complex).reshape(dim_out, dim_out, dim_in, dim_in)
    return HermitianMatrix(s4.transpose(2, 0, 3, 1).reshape(dim_in * dim_out, dim_in * dim_out))


def stinespring(t: KrausChannel) -> np.ndarray:
    """Dilation isometry V = sum_a K_a (x) |a> into output (x) Kraus-index space."""
    r = len(t.kraus)
    v = np.zeros((t.dim_out * r, t.dim_in), dtype=complex)
    for a, k in enumerate(t.kraus):
        for row in range(t.dim_out):
            v[row * r + a, :] = k[row, :]
    return v


def _output_energy_observable(t: KrausChannel, g_in: ReferenceHamiltonian,
                              g_out: ReferenceHamiltonian) -> HermitianMatrix:
    if t.dim_in != g_in.dim or t.dim_out != g_out.dim:
        raise ValueError("reference Hamiltonian dimensions do not match the channel")
    return dual_apply(t, g_out.matrix)


def max_output_energy(t: KrausChannel, g_in: ReferenceHamiltonian,
                      g_out: ReferenceHamiltonian, energy_budget: float):
    """Exact f_T(E) with a certificate for T*(G_out) <= lam*G_in + e0."""
    return dual_scan(_output_energy_observable(t, g_in, g_out), g_in, energy_budget)


def energy_curve(t: KrausChannel, g_in: ReferenceHamiltonian,
                 g_out: ReferenceHamiltonian, e_grid) -> EnergyCurve:
    """f_T on a grid of budgets, all solved from one energy profile."""
    profile = EnergyProfile(_output_energy_observable(t, g_in, g_out), g_in)
    values, certs = [], []
    for e in e_grid:
        v, c = profile.solve(float(e))
        values.append(v)
        certs.append(c)
    return EnergyCurve(tuple(float(e) for e in e_grid), tuple(values), tuple(certs))


def compose_energy_bound(cert_s: AffineCertificate, cert_t: AffineCertificate,
                         energy_budget: float) -> float:
    """f_S(f_T(E)) evaluated on affine certificates; dominates f_{ST}(E)."""
    return cert_s.lam * (cert_t.lam * energy_budget + cert_t.e0) + cert_s.e0


def sqrt_reference_certificate(t: KrausChannel, g_in: ReferenceHamiltonian,
                               g_out: ReferenceHamiltonian,
                               cert: AffineCertificate) -> AffineCertificate:
    """Reference change G -> sqrt(G): (lam, e0) becomes (sqrt(lam), sqrt(e0)).

    Chains T*(sqrt(G_out)) <= sqrt(T*(G_out)) <= sqrt(lam*G_in + e0) and the
    scalar estimate sqrt(lam*t + e0) <= sqrt(lam)*sqrt(t) + sqrt(e0); the
    resulting inequality is re-verified as a PSD check and a verification
    failure signals an invalid input certificate.
    """
    cert = cert.verify(dual_apply(t, g_out.matrix), g_in)
    lam_s, e0_s = float(np.sqrt(cert.lam)), float(np.sqrt(cert.e0))
    lhs = dual_apply(t, spectral_function(g_out.matrix, "sqrt"))
    gap = (lam_s * spectral_function(g_in.matrix, "sqrt").entries
           + e0_s * np.eye(g_in.dim) - lhs.entries)
    residual = require_psd(gap, CERT_RESIDUAL_RTOL * (1.0 + lhs.operator_norm()),
                           "square-root reference certificate fails verification")
    return AffineCertificate(lam_s, e0_s, residual=float(residual))


def amplitude_damping(p: float) -> KrausChannel:
    """Qubit amplitude damping with decay probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("decay probability must lie in [0, 1]")
    k0 = np.diag([1.0, np.sqrt(1.0 - p)]).astype(complex)
    k1 = np.zeros((2, 2), dtype=complex)
    k1[0, 1] = np.sqrt(p)
    return KrausChannel((k0, k1))


def depolarizing(p: float) -> KrausChannel:
    """Qubit depolarizing channel rho -> (1-p) rho + p * 1/2."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("mixing probability must lie in [0, 1]")
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    return KrausChannel((
        np.sqrt(1.0 - 3.0 * p / 4.0) * eye,
        np.sqrt(p / 4.0) * sx,
        np.sqrt(p / 4.0) * sy,
        np.sqrt(p / 4.0) * sz,
    ))


def monotone_image_check(t: KrausChannel, m: HermitianMatrix, tol: float = 1e-8) -> bool:
    """Verify T*(sqrt(M)) <= sqrt(T*(M)) for PSD M."""
    lhs = dual_apply(t, spectral_function(m, "sqrt"))
    rhs = spectral_function(dual_apply(t, m), "sqrt")
    return psd_order_leq(lhs, rhs, tol)
