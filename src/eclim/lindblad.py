"""Lindblad generators, stability-constant certification, and simulation.

A generator is the pair (K, {L_a}) acting as L(rho) = K rho + rho K* +
sum_a L_a rho L_a*.  Its dissipation matrix M = K*G + GK + sum L_a* G L_a
is the time-zero derivative of the energy, and the least omega with
M <= omega*(G + e0) is read off a Hermitian-definite pencil.  Together
(omega, e0) certify the Gronwall bound

    energy(t) <= exp(omega*t) * (E + e0) - e0.

A stability curve is a grid of e0 candidates, for one dissipation matrix or
jointly for several, whose pencils are solved only when read.  Their omegas
only rank the candidates: every certificate a result reads is re-verified, by
the floors of ``min_omega``, when it is first read; a candidate that loses the
ranking is not a certificate.  Below dimension _RITZ_MIN_DIM
``best_certificate`` reads every omega, which costs less than ranking them.
From there on an unsolved omega has one kind of floor, the Rayleigh quotients
of a few Lanczos vectors (Courant-Fischer), so it solves only the pencils that
can still win: 2-4 of the 26 of a left 7-qubit speed-limit run.

Simulation vectorizes rho row-major, vec(A rho B) = (A (x) B^T) vec(rho),
so the superoperator is K (x) 1 + 1 (x) conj(K) + sum L (x) conj(L).
The amplitude-damping closed form pins this convention in the tests.
A time grid is evolved in one call: small systems apply dense propagators,
which a generator keeps for its last grid only; larger ones step the action
exp(dt L) vec(rho) through the sorted grid with a truncated Taylor series
(Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2), 2011, Algorithm 3.2).  Its
degree and step count come from the exact 1-norm of the trace-shifted
superoperator, so no norm estimator runs and no random number is drawn.
A sparse superoperator is stepped only on the invariant sector that holds
the state: the weakly connected components of its sparsity pattern that meet
vec(rho).  A phase-covariant generator (H diagonal in the number basis, jumps
such as a, a* and N) never mixes coherence orders (Buca and Prosen, New J.
Phys. 14, 073007, 2012), so a thermal state of the d = 61 damped Fock
generator steps 61 of its 3,721 entries, with the bits of the full sweep.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .opcore import _UNIT_ROUNDOFF, CERT_RESIDUAL_RTOL, DensityState, HermitianMatrix, \
    ReferenceHamiltonian, _ComputedOnRead, _set_fields, energy, expm, require_psd

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
# 7,300 nonzeros of 13.8 million and stays CSR, and a product takes 19-28 us
# on all 3,721 entries and 4-7 us on the 61-entry sector of a diagonal state.
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
# The most matrix-vector products (m s) the Taylor action may take from 0 to
# the largest time of a grid.  A CSR product for the damped Fock generator at
# d = 61 (H = N, L = a, ||A||_1 = 90) takes 19-28 us on all 3,721 entries and
# 4-7 us on the 61-entry sector of a diagonal state (one BLAS thread), so the
# cap is about 20-28 s of full products, or 4-7 s in that sector; that
# generator needs 605 from 0 to t = 1.2.
TAYLOR_MAX_PRODUCTS = 10 ** 6
E0_GRID_POINTS = 13
# The absolute term ``_budget_floor`` subtracts for underflow.
_SEARCH_TINY = 2.0 ** -960
# From this dimension on, a Lanczos run of _RITZ_STEPS steps bounds a curve's
# omegas before its next pencil is solved densely.  A complex pencil
# ``eigvalsh`` against a run: d = 40, 0.14 against 0.16 ms; d = 48, 0.19
# against 0.17 ms; d = 64, 0.34 against 0.18 ms; d = 128, 1.78 against
# 0.30 ms (medians, a random unitary dissipation at e0 = max G; 2-vCPU
# x86_64 VM, one BLAS thread).  The gate sits above the crossover because a
# run that its candidate survives saves no solve; below it every pencil
# of a ranked curve is solved.  Ten steps: per left
# 7-qubit speed-limit run (seeds 0-7, 5 steps) 8 steps left 3.1 solves after
# 9.5 runs, 10 steps 2.4 after 8.8, 12 steps 2.1 after 8.5.
_RITZ_MIN_DIM = 64
_RITZ_STEPS = 10
# Ritz floors need no underflow or overflow terms while kappa, every e0 and
# max G lie within [1/_RITZ_RANGE, _RITZ_RANGE] (see ``_ritz_quotients``).
_RITZ_RANGE = 2.0 ** 400


class BoundViolation(RuntimeError):
    """A theorem-backed inequality failed beyond tolerance."""


@dataclass(frozen=True)
class LindbladGenerator:
    """Standard generator L(rho) = K rho + rho K* + sum L_a rho L_a*."""

    k: np.ndarray
    lindblad: tuple
    dim: int = field(init=False)

    def __post_init__(self):
        k = np.asarray(self.k, dtype=complex)
        if k.ndim != 2 or k.shape[0] != k.shape[1] or not k.size:
            raise ValueError("K must be a nonempty square matrix")
        _require_finite("K", k)
        ops = tuple(np.asarray(l, dtype=complex) for l in self.lindblad)
        for a, l in enumerate(ops):
            if l.shape != k.shape:
                raise ValueError("Lindblad operators must match the dimension of K")
            _require_finite(f"Lindblad operator {a}", l)
        dissipation = sum((l.conj().T @ l for l in ops), np.zeros_like(k)) + k + k.conj().T
        dissipation = (dissipation + dissipation.conj().T) / 2.0
        evals = np.linalg.eigvalsh(dissipation)
        scale = 1.0 + float(np.max(np.abs(k))) + float(np.max(np.abs(evals)))
        if float(evals[-1]) > DISSIPATIVITY_RTOL * scale:
            raise ValueError(
                f"dissipativity violated: sum L*L + K + K* has eigenvalue {evals[-1]:.3e} > 0"
            )
        _set_fields(self, k=k, lindblad=ops, dim=k.shape[0], _cache={})

    @staticmethod
    def from_hamiltonian(h, lindblad=()) -> "LindbladGenerator":
        """Build K = -iH - (1/2) sum L*L from a Hamiltonian; a non-finite H or
        L, or an L whose L*L overflows, is named before any arithmetic warns."""
        hm = h.entries if isinstance(h, HermitianMatrix) else np.asarray(h, dtype=complex)
        _require_finite("H", hm)
        ops = tuple(np.asarray(l, dtype=complex) for l in lindblad)
        for a, l in enumerate(ops):
            _require_finite(f"Lindblad operator {a}", l)
        with np.errstate(over="ignore", invalid="ignore"):
            grams = [l.conj().T @ l for l in ops]
            for a, gram in enumerate(grams):
                if not np.isfinite(gram).all():
                    raise ValueError(f"Lindblad operator {a} is too large: L*L overflows")
            k = -1j * hm - 0.5 * sum(grams, np.zeros_like(hm))
        _require_finite("K = -iH - (1/2) sum L*L", k)
        return LindbladGenerator(k, ops)

    def superoperator(self) -> np.ndarray:
        if "superop" not in self._cache:
            self._cache["superop"] = _kron_sum(np.kron, np.eye(self.dim), self.k, self.lindblad)
        return self._cache["superop"]

    def shifted_superoperator(self) -> tuple:
        """(A, mu, ||A||_1) with A = S - mu and mu = tr S / d^2, the Taylor action's operator.

        A is kept as CSR unless more than DENSE_ACTION_MIN_FILL of S is
        nonzero.  S has at most 2 d nnz(K) + sum nnz(L)^2 nonzeros.  When that
        count could pass the fill, S is assembled with dense ``np.kron`` (at
        d = 16 the sparse assembly of a dense S took twice as long);
        otherwise it is assembled sparse, without the dense d^2 x d^2
        intermediate.  Both give S, mu and ||A||_1 the same bits.
        """
        if "superop_sparse" not in self._cache:
            n = self.dim * self.dim
            fill = DENSE_ACTION_MIN_FILL * n * n
            dense = 2 * self.dim * np.count_nonzero(self.k) + sum(
                np.count_nonzero(l) ** 2 for l in self.lindblad) > fill
            if dense:
                s = _kron_sum(np.kron, np.eye(self.dim), self.k, self.lindblad)
            else:
                import scipy.sparse
                s = _kron_sum(scipy.sparse.kron,
                              scipy.sparse.identity(self.dim, dtype=complex, format="csr"),
                              scipy.sparse.csr_matrix(self.k),
                              [scipy.sparse.csr_matrix(l) for l in self.lindblad])
            mu = s.trace() / n
            if dense and np.count_nonzero(s) > fill:
                a = s
                a.flat[::n + 1] -= mu
            else:
                import scipy.sparse
                a = scipy.sparse.csr_matrix(
                    scipy.sparse.csr_matrix(s) - mu * scipy.sparse.identity(n, format="csr"))
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


def _require_finite(name: str, m: np.ndarray):
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has a non-finite entry")


def _kron_sum(kron, eye, k, lindblad):
    """K (x) 1 + 1 (x) conj(K) + sum L (x) conj(L), with ``kron`` dense or sparse."""
    s = kron(k, eye) + kron(eye, k.conj())
    for l in lindblad:
        s = s + kron(l, l.conj())
    return s


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
    """Constants (omega, e0) in the energy growth bound exp(omega t)(E+e0)-e0.

    ``residual`` is computed when it is first read (see ``min_omega``).
    """

    omega: float
    e0: float
    residual: float = _ComputedOnRead()

    def __post_init__(self):
        if self.omega < 0 or self.e0 < 0:
            raise ValueError("stability constants must be nonnegative")

    def budget(self, energy_in: float, t: float) -> float:
        """f_t(E) = exp(omega |t|) (E + e0) - e0, or inf (no warning) past the float range."""
        return _budget(self.omega, self.e0, energy_in, t)


def _budget(omega: float, e0: float, energy_in: float, t: float) -> float:
    with np.errstate(over="ignore"):
        return float(np.exp(omega * abs(t)) * (energy_in + e0) - e0)


def _rotated(m: HermitianMatrix, g: ReferenceHamiltonian) -> tuple:
    """(lam, V, A): G = V diag(lam) V* with lam clipped at 0, and A = Herm(V* M V).

    The pencil (M, G + e0) is taken in G's eigenbasis (Golub and Van Loan,
    Matrix Computations, 4th ed., Sec. 8.7): this one rotation, two d x d
    products, serves every e0 of a curve.
    """
    if m.dim != g.dim:
        raise ValueError(f"dimension mismatch: {m.dim} vs {g.dim}")
    lam, gv = g.clipped_eigh()
    a = gv.conj().T @ m.entries @ gv
    return lam, gv, (a + a.conj().T) / 2.0


def _require_e0(e0: float):
    if not 0 < e0 < np.inf:
        raise ValueError("e0 must be positive and finite so that G + e0 is definite")


def _scaled_pencil(rotated: tuple, e0: float) -> tuple:
    """(s, B): s = (lam + e0)^(-1/2) and B = diag(s) A diag(s), unitarily similar
    to (G + e0)^(-1/2) M (G + e0)^(-1/2), so B has the pencil's eigenvalues."""
    _require_e0(e0)
    lam, _, a = rotated
    s = (lam + e0) ** -0.5
    return s, s[:, None] * a * s


def _pencil_omega(rotated: tuple, e0: float, symmetric: bool) -> float:
    """The pencil's least omega >= 0 with M <= omega (G + e0) (and -M with ``symmetric``).

    An exactly zero A gives 0.0 with no eigensolve, once e0 is checked:
    ``eigvalsh`` returns exact zeros for the zero matrix, so the bits agree.
    """
    b = _scaled_pencil(rotated, e0)[1]
    if not rotated[2].any():
        return 0.0
    evals = np.linalg.eigvalsh(b)
    omega = max(0.0, float(evals[-1]))
    return max(omega, float(-evals[0])) if symmetric else omega


def _pencil_error(rotated: tuple) -> float:
    """kappa with |computed omega - exact omega| <= kappa / e0 at every e0 > 0.

    "Exact" is the pencil of the rotation's own (lam, A), lam >= 0, whose
    omega the Ritz quotients of ``_ritz_quotients`` bound from below.
    Let u = 2^-53 and n = dim A.  B = diag(s) A diag(s) with
    s = (lam + e0)^(-1/2) <= e0^(-1/2), so ||B||_F <= ||A||_F / e0.
    ``_scaled_pencil`` rounds s (a sum and a power, 3u) and two products,
    a perturbation of at most 9u ||B||_F.  ``eigvalsh`` (LAPACK's Householder
    tridiagonalization and tridiagonal solver) is backward stable: its
    eigenvalues are exact for a matrix within p(n) u ||B||_2 of its input.
    p(n) = 4n^2 takes the worst-case form of the bound for a product of n
    Householder reflections (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Lemma 19.3, its constant set to 4); observed errors
    are O(u ||B||_2).  By Weyl's theorem (Golub and Van Loan, Matrix
    Computations, 4th ed., Sec. 8.1.2) each eigenvalue, and so omega, moves
    by at most (4n^2 + 10) u ||A||_F / e0.  The 22u spare covers the rounding
    of ||A||_F.

    The bound on LAPACK is an assumption, not a proof.  It decides only
    which pencils get solved: were it wrong, the search could pick a
    different winner than the exhaustive ranking, and that winner would
    still pass ``min_omega``'s floors before any result reads it.
    """
    a = rotated[2]
    top = float(np.abs(a).max())
    size = top * float(np.linalg.norm(a / top)) if top > 0 else 0.0
    return (4.0 * a.shape[0] ** 2 + 32.0) * _UNIT_ROUNDOFF * size


def _ritz_quotients(rotated: tuple, e0: float, symmetric: bool) -> list:
    """(a, l, n) of the two extreme Ritz vectors of _RITZ_STEPS Lanczos steps
    on the scaled pencil B at e0, from a fixed start vector.

    Each Ritz vector y of B is mapped back to x = s y and normalized; then
    a = Re x*Ax (|Re x*Ax| with ``symmetric``), l = x* diag(lam) x and
    n = x*x.  By Courant-Fischer (Parlett, The Symmetric Eigenvalue Problem,
    SIAM 1998, ch. 11) x*Ax / x*(lam + e0')x lies between the least and the
    largest eigenvalue of the pencil at every e0' > 0, so a / (l + e0' n)
    is at most the exact omega at e0'.  That holds for any x, so the
    recurrence needs no reorthogonalization: rounding in it only makes the
    vectors less sharp.

    Only a, l, n and the floor's arithmetic round.  Let u = 2^-53 and
    d = dim A.  a is a matrix-vector product and a dot product of length d
    in complex arithmetic, within gamma_{2d+5} |x|*|A||x| <= (4d + 9) u
    ||A||_F n of its exact value (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Sec. 3.6); l and n are sums of d
    nonnegative terms, within (d + 2) u relative; l + e0' n and the division
    add 3u.  As l + e0' n >= e0' n and |a| <= ||A||_F n, the computed
    quotient is within (6d + 24) u ||A||_F / e0' of the exact one, at most
    ``_pencil_error``'s kappa / e0' because 4d^2 - 6d + 8 >= 5.75.  That
    spare of 5.75 u ||A||_F / e0' covers the subtraction of 2 kappa / e0'
    in ``StabilityCurve.omega_floors`` and the absolute underflow terms,
    below d 2^-1072, which the range _RITZ_RANGE keeps smaller than
    2^-600 relative: x has unit norm, e0' >= 2^-400 and kappa >= 2^-400.
    """
    lam, _, a = rotated
    s, b = _scaled_pencil(rotated, e0)
    d = b.shape[0]
    q, prev, beta = np.full(d, d ** -0.5, dtype=complex), 0.0, 0.0
    basis, alphas, betas = [], [], []
    while True:
        basis.append(q)
        w = b @ q - beta * prev
        alphas.append(float(np.vdot(q, w).real))
        w -= alphas[-1] * q
        beta = float(np.linalg.norm(w))
        if len(alphas) == _RITZ_STEPS or not beta > 0:
            break
        betas.append(beta)
        prev, q = q, w / beta
    tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    ritz = np.linalg.eigh(tridiagonal)[1][:, [0, -1]]
    x = s[:, None] * (np.column_stack(basis) @ ritz)
    x /= np.linalg.norm(x, axis=0)
    quad = np.real(np.sum(x.conj() * (a @ x), axis=0))
    power = np.abs(x) ** 2
    out = zip(np.abs(quad) if symmetric else quad, lam @ power, power.sum(axis=0))
    return [(float(v), float(l), float(n)) for v, l, n in out]


def _floors(m: HermitianMatrix, g: ReferenceHamiltonian, omega: float, e0: float,
            symmetric: bool):
    """Check the floors of omega (G + e0) - M (and + M), one ``require_psd`` each,
    by np.subtract and np.add (numpy multiplies -1.0 * M as by -1+0j, which can
    flip a zero); returns a function giving the residual of (omega, e0), their least."""
    slack = CERT_RESIDUAL_RTOL * (1.0 + m.operator_norm())
    floors = [require_psd(lambda op=op: op(omega * (g.entries + e0 * np.eye(g.dim)), m.entries),
                          slack, "stability certificate fails verification")
              for op in ((np.subtract, np.add) if symmetric else (np.subtract,))]
    return lambda: min(floor() for floor in floors)


def min_omega(m: HermitianMatrix, g: ReferenceHamiltonian, e0: float,
              symmetric: bool = False) -> StabilityCertificate:
    """Least omega >= 0 with M <= omega (G + e0), via the definite pencil.

    With ``symmetric`` the bound is enforced for -M as well (both time
    directions of a unitary group).  The certificate is re-verified: its
    ``residual``, the smallest eigenvalue of omega (G + e0) - M (and of
    omega (G + e0) + M), must be at least -1e-8 * (1 + ||M||), or
    ValueError is raised.  The check is made at once; the residual itself
    is computed when it is first read, one ``eigvalsh`` per gap, unless the
    check already computed it.
    """
    return stability_curve(m, g, (e0,), symmetric)[0]


def pencil_vector(m: HermitianMatrix, g: ReferenceHamiltonian, e0: float) -> np.ndarray:
    """Unit vector saturating the pencil: the first-order-sharp state."""
    rotated = _rotated(m, g)
    s, b = _scaled_pencil(rotated, e0)
    v = rotated[1] @ (s * np.linalg.eigh(b)[1][:, -1])
    return v / np.linalg.norm(v)


def default_e0_grid(g: ReferenceHamiltonian) -> np.ndarray:
    """Logarithmic grid 2^-6 .. 2^6 scaled by the top energy of G."""
    scale = max(g.max_energy(), 1e-6)
    return scale * np.logspace(-6, 6, E0_GRID_POINTS, base=2.0)


class StabilityCurve(Sequence):
    """Candidates (omega(i), e0s[i]) along one e0 grid for the dissipation
    matrices ``ms``, each verified when read.

    Candidate i's omega is the largest of the matrices' pencil omegas at
    e0s[i]: one matrix gives its stability constants, several their joint
    constants.  Each matrix is rotated into G's eigenbasis when its first
    omega or Ritz vector is needed; every omega is solved on first read and
    then cached, and ``omegas`` reads them all.  From dimension
    _RITZ_MIN_DIM on, ``take_ritz_vectors`` stores Lanczos vectors of a
    candidate's pencils, whose Ritz quotients are the one kind of floor on
    the unsolved omegas (``omega_floors``).  ``pencils_solved`` counts the
    dense pencil eigensolves made and ``ritz_runs`` the Lanczos runs, one
    per nonzero matrix each.  The omegas only rank candidates, through
    ``_rank``, the one question ``best_certificate`` asks a curve.  Item i
    is the StabilityCertificate at e0s[i]: when first read it passes each
    matrix's ``_floors`` at that matrix's own omega and e0s[i], or raises,
    and its residual, computed when read, is the least of theirs.  The
    certificate is cached.  It holds no reference to the curve, so a curve is freed as
    soon as its last reference goes, with no reference cycle.
    """

    def __init__(self, ms, g: ReferenceHamiltonian, e0_grid, symmetric: bool = False):
        ms = tuple(ms)
        if not ms:
            raise ValueError("no dissipation matrices supplied")
        for m in ms:
            if m.dim != g.dim:
                raise ValueError(f"dimension mismatch: {m.dim} vs {g.dim}")
        e0s = tuple(float(e0) for e0 in e0_grid)
        for e0 in e0s:
            _require_e0(e0)
        self.e0s, self._ms, self._g, self._symmetric = e0s, ms, g, symmetric
        self._rotations = [None] * len(ms)
        self._members = [None] * len(e0s)  # each matrix's omega, per solved candidate
        self._kappa = 0.0  # the largest _pencil_error of the rotations made
        self._ritz = []  # (a, l, n) of every Ritz vector taken
        self._ritz_at = set()  # the candidates whose pencils gave Ritz vectors
        self._certs = {}
        self.pencils_solved = self.ritz_runs = 0

    def __len__(self) -> int:
        return len(self.e0s)

    def __getitem__(self, i: int) -> StabilityCertificate:
        i = range(len(self.e0s))[i]
        cert = self._certs.get(i)
        if cert is None:
            omega, e0 = self.omega(i), self.e0s[i]
            floors = [_floors(m, self._g, w, e0, self._symmetric)
                      for m, w in zip(self._ms, self._members[i])]
            cert = self._certs[i] = StabilityCertificate(
                omega, e0, residual=lambda: min(floor() for floor in floors))
        return cert

    def _rotation(self, k: int) -> tuple:
        rotated = self._rotations[k]
        if rotated is None:
            m = self._ms[k]
            # A zero M rotates to zero, so its two d x d products are skipped.
            rotated = self._rotations[k] = _rotated(m, self._g) if m.entries.any() else \
                (*self._g.clipped_eigh(), np.zeros_like(m.entries))
            self._kappa = max(self._kappa, _pencil_error(rotated))
        return rotated

    def omega(self, i: int) -> float:
        """Candidate i's pencil omega, solved on first read."""
        members = self._members[i]
        if members is None:
            members = []
            for k in range(len(self._ms)):
                rotated = self._rotation(k)
                self.pencils_solved += bool(rotated[2].any())
                members.append(_pencil_omega(rotated, self.e0s[i], self._symmetric))
            self._members[i] = members
        return max(members)

    @property
    def omegas(self) -> tuple:
        return tuple(self.omega(i) for i in range(len(self.e0s)))

    def take_ritz_vectors(self, i: int) -> bool:
        """Store the Ritz vectors of candidate i's pencils, one Lanczos run per
        nonzero matrix; False, with nothing done, if candidate i is solved or
        already ran, or when kappa, an e0 or max G lies outside the range
        _RITZ_RANGE.  ``best_certificate`` asks for them from dimension
        _RITZ_MIN_DIM on."""
        if i in self._ritz_at or self._members[i] is not None:
            return False
        rotations = [self._rotation(k) for k in range(len(self._ms))]
        top = max(self._kappa, max(self.e0s), max(float(r[0][-1]) for r in rotations))
        if not (top <= _RITZ_RANGE and min(self._kappa, min(self.e0s)) * _RITZ_RANGE >= 1.0):
            return False
        self._ritz_at.add(i)
        for rotated in rotations:
            if rotated[2].any():
                self._ritz += _ritz_quotients(rotated, self.e0s[i], self._symmetric)
                self.ritz_runs += 1
        return True

    def _rank(self, energy_in: float, t: float) -> tuple:
        """``best_certificate``'s question at (E, t): the least budget solved and the
        first candidate with it, and the least ``_budget_floor`` unsolved and the first
        with it (inf/None if none)."""
        best, at_best, low, take = np.inf, None, np.inf, None
        for i, (floor, e0) in enumerate(zip(self.omega_floors(), self.e0s)):
            if self._members[i] is not None:
                budget = _budget(self.omega(i), e0, energy_in, t)
                if at_best is None or budget < best:
                    best, at_best = budget, i
            else:
                floor = _budget_floor(floor, e0, energy_in, t)
                if take is None or floor < low:
                    low, take = floor, i
        return best, at_best, low, take

    def omega_floors(self) -> list:
        """Lower bounds on every candidate's computed omega: the omega itself
        where solved, elsewhere the best Ritz floor, and 0 without one.

        Each stored Ritz vector (a, l, n) gives, by ``_ritz_quotients``,

            omega_j >= a / (l + e0_j n) - 2 kappa / e0_j

        at every e0_j of the grid at once.  ``take_ritz_vectors`` stores none
        outside the range _RITZ_RANGE, so kappa / e0_j never underflows here.
        """
        kappa = self._kappa
        return [max(members) if members is not None else
                max([0.0] + [a / (l + e0 * n) - 2.0 * kappa / e0 for a, l, n in self._ritz])
                for members, e0 in zip(self._members, self.e0s)]


def stability_curve(m: HermitianMatrix, g: ReferenceHamiltonian, e0_grid,
                    symmetric: bool = False) -> StabilityCurve:
    """The pencil's omega of a dissipation matrix M along an e0 grid; omega is
    nonincreasing in e0.  Each item passes ``min_omega``'s floors when read."""
    return StabilityCurve((m,), g, e0_grid, symmetric)


def _budget_floor(omega: float, e0: float, energy_in: float, t: float) -> float:
    """A lower bound on ``_budget(w, e0, energy_in, t)`` for every w >= omega,
    when 0 <= energy_in < inf and t is finite; -inf where it overflows.

    Let u = 2^-53, X(w) = exp(w |t|)(E + e0) and b(w) = X(w) - e0, the exact
    budget.  ``_budget`` rounds w |t| (which moves exp by w |t| u), exp (at
    most 8u, numpy's or libm's), E + e0, the product and the difference;
    since X >= E + e0 >= e0, its result is within
    r(w) = (w |t| + 13) u X(w) of b(w).  b - r grows with w while
    w |t| < 1/u - 14, which every w with a finite budget meets, so each
    computed budget at w >= omega is at least b(omega) - r(omega).  The same
    count for this function's own X and difference shows that subtracting
    (2 omega |t| + 32) u X leaves it below that, with 6u X to spare.  The
    absolute 2^-960 covers underflow.
    """
    scaled = omega * abs(t)
    try:
        grow = math.exp(scaled) * (energy_in + e0)
    except OverflowError:
        return -math.inf
    low = grow - e0 - (2.0 * scaled + 32.0) * _UNIT_ROUNDOFF * grow - _SEARCH_TINY
    return low if low == low else -math.inf  # inf - inf where E + e0 overflows


def best_certificate(curves, energy_in: float, t: float) -> StabilityCertificate:
    """The verified certificate minimizing exp(omega t)(E + e0) - e0 over the
    candidates of ``curves``; ties go to the first in curve, then grid order.
    Only the winner is verified.

    A curve below dimension _RITZ_MIN_DIM takes no Ritz vectors, so its
    unsolved floors are 0 and the ranking would solve its pencils one
    question at a time; every pencil is solved at once instead, which costs
    less (a d = 2 Trotter op's joint curve: 19.5 solves in about 0.4 ms,
    against 0.7 ms one at a time; one BLAS thread).  Every pencil is also
    solved where f_t(E) need not grow with omega (E < 0, E or t not
    finite).  From _RITZ_MIN_DIM on, pencils are solved only as the ranking
    needs them.  Every unsolved candidate has a floor on its budget
    (``omega_floors``, then ``_budget_floor``); each curve's ``_rank`` gives
    its least budget solved, its least floor and the candidate to take.
    Until every floor lies strictly above the least budget solved, the
    curve holding the least floor takes that candidate.  One taken for the
    first time gives Ritz vectors (``take_ritz_vectors``) instead of a
    solve; it is solved only if, with their floors, it still holds the
    least floor.  So each candidate left unsolved has a budget above the
    winner's, and the winner, ties and near-ties included, is the
    exhaustive ranking's.  A solve or a Ritz run asks its own curve again.
    """
    curves = tuple(curves)
    if not any(len(curve) for curve in curves):
        raise ValueError("no certificates supplied")
    ranked = 0.0 <= energy_in < np.inf and abs(t) < np.inf
    for curve in curves:
        if not (ranked and curve._g.dim >= _RITZ_MIN_DIM):
            curve.omegas  # solves every pencil
    ranks = [curve._rank(energy_in, t) for curve in curves]
    while True:
        low, k = min(((r[2], k) for k, r in enumerate(ranks) if r[3] is not None),
                     default=(np.inf, None))
        if k is None or low > min(r[0] for r in ranks):
            break
        if not curves[k].take_ritz_vectors(ranks[k][3]):
            curves[k].omega(ranks[k][3])
        ranks[k] = curves[k]._rank(energy_in, t)
    k = min((k for k, r in enumerate(ranks) if r[1] is not None), key=lambda k: ranks[k][0])
    return curves[k][ranks[k][1]]


def joint_constants(ms, g: ReferenceHamiltonian, e0_grid) -> StabilityCurve:
    """Pairwise-max joint constants of several dynamics along one e0 grid.

    ``ms`` holds their dissipation matrices.  Candidate i's omega is the
    largest of theirs at e0s[i], so one certificate bounds the energy growth
    of each; it passes every matrix's floors at that matrix's own omega and
    the shared e0 when read.
    """
    return StabilityCurve(ms, g, e0_grid)


def evolve_grid(gen: LindbladGenerator, rho: DensityState, times) -> list:
    """The states exp(tL) rho for every t in ``times``, in input order.

    Up to dimension DENSE_EXPM_MAX_DIM each state is a dense propagator
    exp(tS) applied to vec(rho).  Beyond it the sorted distinct times are
    swept once, each step applying the Taylor action exp((t - prev) S) to the
    previous state, so no time restarts from zero; a largest time whose
    Taylor action from 0 would take more than TAYLOR_MAX_PRODUCTS products
    is rejected before the sweep.  A sparse S is swept only on the sector
    ``_sector`` finds, the union of the weakly connected components of its
    pattern that meet vec(rho), with the full operator's mu and 1-norm; each
    step is scattered into a zero d^2 vector, bit for bit the full sweep's.
    The trace may only decrease, and a state that is not finite is rejected
    with its time.
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
            states[t] = _checked_state(props[t] @ vec, gen.dim, tr_in, t)
    else:
        op, prev = gen.shifted_superoperator(), 0.0
        norm = steps[-1] * op[2] if steps else 0.0
        # m s >= s >= norm / max theta_m, so a larger norm needs no count
        if not norm <= TAYLOR_MAX_PRODUCTS * max(TAYLOR_THETA.values()) or \
                math.prod(_taylor_degree(norm)) > TAYLOR_MAX_PRODUCTS:
            raise ValueError(f"evolution time {steps[-1]!r} is too long: the Taylor "
                             f"step count of ||tA||_1 = {norm:.3e} takes more than "
                             f"{TAYLOR_MAX_PRODUCTS} products")
        keep, op = _sector(op, vec)
        vec = vec[keep]
        for t in steps:
            vec = _taylor_action(op, t - prev, vec)
            prev = t
            out = np.zeros(gen.dim * gen.dim, dtype=complex)
            out[keep] = vec
            states[t] = _checked_state(out, gen.dim, tr_in, t)
    return [states[t] for t in times]


def _sector(op: tuple, vec: np.ndarray) -> tuple:
    """(keep, op): the indices of the invariant sector of A that holds ``vec``,
    and the Taylor operator (A, mu, ||A||_1) with A restricted to them.

    The sector is the union of the weakly connected components of A's stored
    pattern that meet the entries of ``vec`` other than +0 (a -0.0 counts),
    found by a breadth-first search over A's stored (row, column) pairs in
    both directions.  A weak component is closed both ways, so each kept row
    keeps all its stored entries in their order: every CSR row sum of the
    restricted product runs the same terms in the same order as the full
    one.  mu and ||A||_1 stay the full operator's, so (m, s) and the stopping
    test are unchanged, and the rows outside, +0 to begin with, stay +0 in
    the full action: a product over them sums +0 terms, and mu is real up to
    rounding (tr S = 2d Re tr K + sum |tr L|^2), so exp(h mu / s) has a
    positive real part and keeps +0.  A dense A, or a sector holding every
    index or none, gives (slice(None), op).
    """
    a = op[0]
    n = a.shape[0]
    if isinstance(a, np.ndarray):
        return slice(None), op
    rows, cols = np.repeat(np.arange(n), np.diff(a.indptr)), a.indices.astype(np.intp)
    seen = fresh = (vec != 0) | np.signbit(vec.real) | np.signbit(vec.imag)
    while fresh.any():
        near = np.zeros(n, dtype=bool)
        near[cols[fresh[rows]]] = True
        near[rows[fresh[cols]]] = True
        fresh = near & ~seen
        seen = seen | fresh
    keep = np.flatnonzero(seen)
    if keep.size in (0, n):
        return slice(None), op
    take = seen[rows]  # the stored entries of the kept rows, in their order
    indptr = np.concatenate(([0], np.cumsum(np.diff(a.indptr)[keep])))
    relabel = np.cumsum(seen) - 1  # monotone, so each row keeps its column order
    # A's own CSR class, so scipy stays named only where S is assembled
    sub = type(a)((a.data[take], relabel[cols[take]], indptr), shape=(keep.size, keep.size))
    return keep, (sub, op[1], op[2])


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


def _checked_state(vec: np.ndarray, dim: int, tr_in: float, t: float) -> DensityState:
    if not np.isfinite(vec).all():
        raise ValueError(f"the evolved state at time {t!r} is not finite")
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
