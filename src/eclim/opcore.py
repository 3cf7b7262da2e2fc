"""Hermitian linear algebra, the PSD operator order, and the parametric dual scan.

Everything downstream (energy-constrained norms, output-energy functions,
stability certificates) reduces to one primitive: given Hermitian M, a
reference Hamiltonian G with ground energy 0, and an energy budget E > 0,
minimize

    g(lam) = lam * E + max(0, lambda_max(M - lam * G))        over lam >= 0.

g is convex (pointwise max of affine functions of lam).  With v the top
eigenvector of M - lam*G, E - <v|G|v> is a subgradient of g at lam (E
alone where lambda_max <= 0).  ``EnergyProfile`` brackets the minimizer
by the sign of the subgradient and shrinks the bracket with secant steps
on the subgradient, falling back to the point where the tangents at the
two bracket ends meet (the minimizer at a kink, the midpoint on a
parabola).  From ``_MODEL_MIN_DIM`` on it places its probes, where it
can, at the minimizer of g compressed onto the top eigenvectors of its
latest cuts.  It stops on a certified gap: the better bracket end's value
minus the value where those tangents meet, which by convexity bounds g
from below on the bracket.  The cuts (lam, lambda_max, <v|G|v>) do not depend on E,
so one profile answers a whole grid of budgets.  The minimizer yields an affine certificate
(lam, E0) witnessing the operator inequality M <= lam*G + E0, re-verified
independently of the solver, and by strong duality the value equals
sup{tr[M rho] : tr[G rho] <= E} for PSD M (the ground state of G is a
strictly feasible point).

Every operator inequality is one ``require_psd`` gate on one gap's builder,
every affine one through ``AffineCertificate.verify``.  Above
``FULL_EIGH_MAX_DIM`` a gate is first proved in floating point
by a shifted Cholesky factorization (Rump, BIT 46, 2006), which costs a
fraction of the ``eigvalsh`` it replaces; the gate falls back to ``eigvalsh``
when the proof fails.  It returns the reader of a certificate's ``residual``,
the least eigenvalue of its gap, which is computed when first read.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_RTOL = 1e-10
PSD_RTOL = 1e-9
CERT_RESIDUAL_RTOL = 1e-8
DUAL_GAP_RTOL = 1e-12
DUAL_BRACKET_RTOL = 1e-10
DUAL_MAX_ITER = 200
# Eigenvalues of M - lam*G this close to the top (relative to 1 + the
# spectral radius) span the space the dual-scan witness is built in.
WITNESS_GAP_RTOL = 1e-8
# Above this dimension the top eigenpair comes from a one-eigenvalue LAPACK
# subset solve, which beats a full eigh from d ~ 12 on (2.0 ms against
# 4.6 ms at d = 128 on one x86_64 core with OpenBLAS); below it the full
# eigh has less call overhead (0.015 ms against 0.035 ms at d = 4).  The
# Cholesky proof of a PSD gate crosses over at the same size: 0.022 ms
# against 0.013 ms for eigvalsh at d = 6, 0.021 against 0.021 ms at d = 12,
# 0.017 against 0.029 ms at d = 16, 0.3-0.4 against 1.3-1.8 ms at d = 128
# (same machine), so it is tried above it.
FULL_EIGH_MAX_DIM = 12
# From _MODEL_MIN_DIM on an EnergyProfile keeps the top eigenvectors of its
# latest _MODEL_VECTORS cuts and places its probes by the dual compressed
# onto them, minimized in at most _MODEL_MAX_ITER points.  A probe costs
# 0.25-0.45 ms at any d, and halves the cuts; a cut costs 0.07 ms at d = 16,
# 0.16 at 48, 0.25 at 64, 0.7 at 96 and 1.8 at 128 (one x86_64 core with
# OpenBLAS).  At d = 16 the model made a see-saw ecd-norm 40% slower.
_MODEL_MIN_DIM = 64
_MODEL_VECTORS = 8
_MODEL_MAX_ITER = 12
_UNIT_ROUNDOFF = 2.0 ** -53


def _require_budget(energy_budget: float):
    if not 0 < energy_budget < np.inf:
        raise ValueError("energy budget must be positive and finite")


def _as_complex_matrix(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2 of a square matrix, or of each matrix in a stack (..., n, n).

    Rejects an A whose anti-Hermitian part exceeds
    ``1e-10 * (1 + frobenius norm)``.  Where a norm overflows, both are
    retaken of A / 2^k, with 2^k above every real and imaginary part of A:
    dividing by a power of two is exact, so the test is the same for any
    finite A.  There the part is A/2 + A*/2, which cannot overflow where
    A + A* can; halving is exact above the subnormals, so it is (A + A*)/2
    bit for bit wherever that sum is finite.
    """
    adj = np.swapaxes(a.conj(), -1, -2)
    scale = 1.0
    with np.errstate(over="ignore"):
        skew = np.linalg.norm(a - adj, axis=(-2, -1))
        size = np.linalg.norm(a, axis=(-2, -1))
    overflow = not math.isfinite((skew + size).sum())
    if overflow:
        top = np.maximum(np.max(np.abs(a.real), axis=(-2, -1)),
                         np.max(np.abs(a.imag), axis=(-2, -1)))
        scale = np.ldexp(1.0, -np.frexp(top)[1])
        b = scale[..., None, None] * a
        skew = np.linalg.norm(b - np.swapaxes(b.conj(), -1, -2), axis=(-2, -1))
        size = np.linalg.norm(b, axis=(-2, -1))
    bad = skew > HERMITICITY_RTOL * (scale + size)
    if np.any(bad):
        raise ValueError(f"matrix is not Hermitian (defect {np.max((skew / scale)[bad]):.3e})")
    return a / 2.0 + adj / 2.0 if overflow else (a + adj) / 2.0


def _set_fields(record, **fields):
    """Set a frozen record's fields after its checks have passed.

    Every array, alone or inside a tuple, is stored read-only, and copied
    first if it may share memory with what the caller passed for its field,
    so a record never shares memory with its caller.  Arrays the record made
    itself are not copied: at d = 128 those copies made glibc trim and regrow
    its heap under the eigensolver's temporaries, about 6% of a speedlimit op.
    """
    def frozen(value, passed):
        if isinstance(value, tuple):
            return tuple(frozen(v, passed) for v in value)
        if isinstance(value, np.ndarray):
            if any(isinstance(p, np.ndarray) and np.may_share_memory(value, p)
                   for p in passed):
                value = value.copy()
            value.flags.writeable = False
        return value

    for name, value in fields.items():
        passed = getattr(record, name, None)
        if not isinstance(passed, (tuple, list)):
            passed = (passed,)
        object.__setattr__(record, name, frozen(value, passed))


@dataclass(frozen=True)
class HermitianMatrix:
    """Dense complex square matrix with enforced Hermiticity.

    Construction symmetrizes via (A + A*)/2 and rejects inputs whose
    anti-Hermitian part exceeds ``1e-10 * (1 + frobenius norm)``.
    """

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        sym = _hermitian_part(_as_complex_matrix(self.entries))
        _set_fields(self, entries=sym, dim=sym.shape[0], _cache={})

    def eigh(self):
        """Ascending eigenvalues and eigenvectors (deterministic LAPACK order).

        Computed once per matrix; the arrays are read-only.
        """
        if "eigh" not in self._cache:
            evals, evecs = np.linalg.eigh(self.entries)
            evals.flags.writeable = False
            evecs.flags.writeable = False
            self._cache["eigh"] = (evals, evecs)
        return self._cache["eigh"]

    def eigvals(self) -> np.ndarray:
        """Ascending eigenvalues, computed once per matrix; read-only."""
        if "eigvals" not in self._cache:
            evals = np.linalg.eigvalsh(self.entries)
            evals.flags.writeable = False
            self._cache["eigvals"] = evals
        return self._cache["eigvals"]

    def operator_norm(self) -> float:
        return float(np.max(np.abs(self.eigvals())))

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        return HermitianMatrix(self.entries + other.entries)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        return HermitianMatrix(self.entries - other.entries)


def identity(dim: int) -> HermitianMatrix:
    return HermitianMatrix(np.eye(dim, dtype=complex))


@dataclass(frozen=True)
class ReferenceHamiltonian:
    """PSD Hermitian matrix with minimum eigenvalue 0 up to rounding.

    Fixes the system's energy scale; it need not generate any dynamics.
    ``ground_energy_removed`` records the shift applied at construction.
    """

    matrix: HermitianMatrix
    ground_energy_removed: float = 0.0

    def __post_init__(self):
        lo = float(require_psd_spectrum(self.matrix.eigvals(),
                                        PSD_RTOL * (1.0 + self.matrix.operator_norm()),
                                        "reference Hamiltonian is not PSD"))
        if lo != 0.0:
            shifted = HermitianMatrix(self.matrix.entries - lo * np.eye(self.matrix.dim))
            _set_fields(self, matrix=shifted,
                        ground_energy_removed=self.ground_energy_removed + lo)
        _set_fields(self, _cache={})

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def entries(self) -> np.ndarray:
        return self.matrix.entries

    def eigh(self):
        return self.matrix.eigh()

    def clipped_eigh(self) -> tuple:
        """(lam, V): G = V diag(lam) V* with lam clipped at 0; computed once, read-only."""
        if "clipped" not in self._cache:
            ge, gv = self.eigh()
            lam = np.clip(ge, 0.0, None)
            lam.flags.writeable = False
            self._cache["clipped"] = lam, gv
        return self._cache["clipped"]

    def max_energy(self) -> float:
        return self.matrix.operator_norm()

    def ground_vector(self) -> np.ndarray:
        """First ascending-order eigenvector; energy 0 up to rounding by construction."""
        _, vecs = self.eigh()
        return vecs[:, 0]


def ground_shift(h: HermitianMatrix) -> ReferenceHamiltonian:
    """Shift a Hermitian matrix so its ground energy is 0 up to rounding."""
    lo = float(h.eigvals()[0])
    shifted = HermitianMatrix(h.entries - lo * np.eye(h.dim))
    return ReferenceHamiltonian(shifted, ground_energy_removed=lo)


@dataclass(frozen=True)
class DensityState:
    """PSD matrix with trace in [0, 1]; subnormalized states are allowed."""

    matrix: HermitianMatrix

    def __post_init__(self):
        require_psd_spectrum(self.matrix.eigvals(),
                             PSD_RTOL * (1.0 + self.matrix.operator_norm()),
                             "state is not PSD")
        tr = float(np.real(np.trace(self.matrix.entries)))
        if tr < -1e-10 or tr > 1.0 + 1e-10:
            raise ValueError(f"state trace {tr} outside [0, 1]")

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def entries(self) -> np.ndarray:
        return self.matrix.entries

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix.entries)))

    @staticmethod
    def pure(psi: np.ndarray) -> "DensityState":
        v = np.asarray(psi, dtype=complex).reshape(-1)
        n = np.linalg.norm(v)
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        v = v / n
        return DensityState(HermitianMatrix(np.outer(v, v.conj())))


class _ComputedOnRead:
    """A float field of a frozen record that may be given as a function of no
    arguments: the function is called when the field is first read, and its
    value replaces it.  The field holds a float or a function, never an
    array, so it is kept in the record's ``__dict__`` directly: a certificate
    is made per dual solve, and ``_set_fields`` would double its cost."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, owner=None):
        if record is None:
            return 0.0  # the field's default
        value = record.__dict__[self.name]
        if callable(value):
            value = record.__dict__[self.name] = float(value())
        return value

    def __set__(self, record, value):
        record.__dict__[self.name] = value


@dataclass(frozen=True)
class AffineCertificate:
    """Pair (lam, e0) witnessing M <= lam*G + e0; the shared dual currency.

    ``residual`` is the most negative eigenvalue of lam*G + e0 - M
    (>= -1e-8 * (1 + |M|) when verified).  ``verify`` checks the inequality
    at once; the residual is computed when it is first read, by one
    ``eigvalsh`` of the gap, unless the check already computed it.
    """

    lam: float
    e0: float
    residual: float = _ComputedOnRead()

    def __post_init__(self):
        if self.lam < 0 or self.e0 < 0:
            raise ValueError("certificate slope and offset must be nonnegative")

    def verify(self, m: HermitianMatrix,
               g: ReferenceHamiltonian | HermitianMatrix) -> "AffineCertificate":
        """Check M <= lam*G + e0 (ValueError if not); the residual is computed when read."""
        residual = require_psd(
            lambda: self.lam * g.entries + self.e0 * np.eye(g.dim) - m.entries,
            CERT_RESIDUAL_RTOL * (1.0 + m.operator_norm()), "certificate fails verification")
        return AffineCertificate(self.lam, self.e0, residual=residual)


def require_psd(gap_of, slack: float, what: str):
    """Check that the gap B - A, built once by ``gap_of()``, has no eigenvalue
    below -``slack``; ValueError naming ``what`` where it has.

    Returns a function of no arguments giving the gap's smallest eigenvalue:
    the one computed here, or, where ``_proves_psd`` proved a gap above
    ``FULL_EIGH_MAX_DIM`` with none, one ``eigvalsh`` of a rebuilt
    ``gap_of()`` (which must build the same matrix) when it is called.
    Where the proof fails, and for a small gap, the gate
    decides from ``eigvalsh``, whose smallest eigenvalue is an estimate with
    its own rounding; a non-finite gap is never proved, so it meets
    ``eigvalsh`` (and its LinAlgError) as before.  So the proof never makes
    a gate looser.  The gap is not symmetrized: ``eigvalsh`` and
    ``cholesky`` read the same triangle, and gaps built from
    ``HermitianMatrix`` entries are exactly Hermitian.
    """
    gap = gap_of()
    if gap.shape[0] > FULL_EIGH_MAX_DIM and _proves_psd(gap, slack):
        return lambda: np.linalg.eigvalsh(gap_of())[0]
    floor = require_psd_spectrum(np.linalg.eigvalsh(gap), slack, what)
    return lambda: floor


def _proves_psd(gap: np.ndarray, slack: float) -> bool:
    """True only if gap + slack*1 is positive definite, proved in floating point.

    The proof (Rump, "Verification of positive definiteness", BIT Numer.
    Math. 46, 2006) is a Cholesky factorization of X = fl(gap + fl(slack - c)*1)
    that runs to completion, with c an a-priori bound on its rounding.  Let
    u = 2^-53, gamma_k = k u / (1 - k u), n the dimension and
    t = sum_j |Re gap_jj| + n*slack, and take gamma = gamma_(n+3).

    1. A Cholesky factorization of X that completes gives R with
       R*R = X + dX, |dX| <= gamma |R*| |R| (Demmel 1989; Higham, Accuracy
       and Stability of Numerical Algorithms, 2nd ed., Thm 10.3, whose
       gamma_(n+1) becomes gamma_(n+3) because a complex product is accurate
       to sqrt(2) gamma_2 <= gamma_3, Lemma 3.5; any blocking or summation
       order is covered).
    2. The diagonal gives |r_j|^2 <= x_jj / (1 - gamma), so
       |dX_ij| <= gamma/(1-gamma) sqrt(x_ii x_jj) and
       ||dX||_2 <= gamma/(1-gamma) tr X.  R has a positive diagonal, so
       R*R is definite and lambda_min(X) > -gamma/(1-gamma) tr X (Rump).
    3. The shift: X = gap + s*1 + E with s = fl(slack - c) <= slack - c +
       u |slack - c| and E diagonal, |E_jj| <= u x_jj (one rounded sum).
       Every x_jj > 0, so x_jj <= (1 + u)(|gap_jj| + slack) and
       tr X <= (1 + u) t.  Hence
       lambda_min(gap) + slack > c - u |slack - c| - (gamma/(1-gamma) + u)(1 + u) t.
    4. c = 3 gamma t leaves the right side above gamma t (gamma >= 4u), and
       that spare covers the rounding of t and of c itself, and underflow in
       the factorization, whose absolute errors are of order
       n^2 2^-1074 (1 + t), while t >= 2^-900.

    ``numpy.linalg.cholesky`` completes on a NaN pivot, so a factorization
    counts only when the gap and the factor's diagonal are finite: a NaN or
    inf anywhere in the gap, or a NaN born of an overflow, makes it fail.

    The shift is applied to the gap's diagonal in place and undone bit for
    bit afterwards (a read-only gap is copied first).  A shifted copy would
    be a fourth d x d array alive beside the gap and numpy's buffer and
    factor; at d = 128 it made the heap trim and refault every call, 96 page
    faults and 0.16 ms per proof on one x86_64 core.
    """
    n = gap.shape[0]
    gamma = (n + 3) * _UNIT_ROUNDOFF / (1.0 - (n + 3) * _UNIT_ROUNDOFF)
    with np.errstate(over="ignore"):  # an infinite t is a failed proof
        t = float(np.abs(gap.diagonal().real).sum()) + n * slack
    if not 2.0 ** -900 <= t < np.inf:
        return False
    if not gap.flags.writeable:
        gap = gap.copy()
    diagonal = gap.diagonal().copy()
    gap.flat[::n + 1] += slack - 3.0 * gamma * t
    try:
        factor = np.linalg.cholesky(gap)
    except np.linalg.LinAlgError:
        return False
    finally:
        gap.flat[::n + 1] = diagonal
    return bool(np.isfinite(gap.sum() + factor.diagonal().sum()))


def require_psd_spectrum(evals: np.ndarray, slack: float, what: str):
    """``require_psd`` on an ascending spectrum already at hand, such as a cached ``eigvals``."""
    lo = evals[0]
    if lo < -slack:
        raise ValueError(f"{what} (min eigenvalue {lo:.3e})")
    return lo


def psd_order_leq(a: HermitianMatrix, b: HermitianMatrix, tol: float = PSD_RTOL) -> bool:
    """Operator order A <= B, i.e. B - A is PSD up to a relative slack."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    diff = b.entries - a.entries
    evals = np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)
    scale = 1.0 + float(np.max(np.abs(evals))) if evals.size else 1.0
    return bool(evals[0] >= -tol * scale)


def energy(g: ReferenceHamiltonian, rho: DensityState) -> float:
    """Mean energy tr[G rho], clamped at 0 from below within tolerance."""
    if g.dim != rho.dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {rho.dim}")
    val = float(np.real(np.trace(g.entries @ rho.entries)))
    if val < 0:
        if val < -PSD_RTOL * (1.0 + g.max_energy()):
            raise ValueError(f"negative energy {val:.3e} beyond tolerance")
        return 0.0
    return val


def vector_energy(g: ReferenceHamiltonian, psi: np.ndarray) -> float:
    v = np.asarray(psi, dtype=complex).reshape(-1)
    return max(0.0, float(np.real(v.conj() @ (g.entries @ v))))


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square matrix by scipy's dense kernel.

    The one owner of that kernel; scipy is imported on the first call, so
    importing eclim loads no scipy module.
    """
    import scipy.linalg
    return scipy.linalg.expm(a)


def _top_cuts(a: np.ndarray, g: ReferenceHamiltonian):
    """The cut (lambda_max, <v|G|v>) of each Hermitian matrix in the stack ``a``.

    v is a unit top eigenvector.  Returns ``(cuts, eig)``: ``eig`` is the
    stack's ``eigh``, whole up to ``FULL_EIGH_MAX_DIM``; above it only the
    top eigenpair (eigenvalues (R, 1), eigenvectors (R, n, 1)), from scipy's
    one-eigenvalue subset solve (scipy is imported there, on the first such
    solve).  Either way ``eig[1][r, :, -1]`` is the v of cut r.  Stacked
    ``eigh`` loops LAPACK over the matrices, so every cut is bitwise the one
    a single matrix gets.
    """
    d = a.shape[-1]
    if d <= FULL_EIGH_MAX_DIM:
        eig = np.linalg.eigh(a)
    else:
        import scipy.linalg
        pairs = [scipy.linalg.eigh(x, subset_by_index=[d - 1, d - 1]) for x in a]
        eig = np.array([evals for evals, _ in pairs]), np.array([evecs for _, evecs in pairs])
    tops, vecs = eig[0][:, -1], eig[1][:, :, -1]
    g_vecs = g.entries @ vecs[..., None]
    cuts = [(float(top), float(np.real(np.vdot(v, gv[:, 0]))))
            for top, v, gv in zip(tops, vecs, g_vecs)]
    return cuts, eig


def _subgradient(cut, energy_budget: float) -> float:
    """Subgradient at a cut's slope of lam*E + max(0, lambda_max(M - lam*G))."""
    top, g_energy = cut
    return energy_budget - g_energy if top > 0.0 else energy_budget


def _compressed_point(a: np.ndarray, b: np.ndarray, lam: float, energy_budget: float):
    """(lam, r(lam), r'(lam), r''(lam)) of r(lam) = lam*E + max(0, mu(lam)),
    mu(lam) = lambda_max(A - lam*B).

    With u the top eigenvector and u_j the others, r' = E - <u|B|u> and
    r'' = 2 sum_j |<u_j|B|u>|^2 / (mu - mu_j), the derivatives of a simple top
    eigenvalue; levels tied with the top are left out of r''.  Where mu <= 0,
    r' = E and r'' = 0.
    """
    levels, u = np.linalg.eigh(a - lam * b)
    top = levels[-1]
    if top <= 0.0:
        return lam, lam * energy_budget, energy_budget, 0.0
    coupling = u.conj().T @ (b @ u[:, -1])
    gaps = top - levels[:-1]
    apart = gaps > 0.0
    curvature = 2.0 * float(np.sum(np.abs(coupling[:-1][apart]) ** 2 / gaps[apart]))
    return lam, lam * energy_budget + float(top), energy_budget - float(coupling[-1].real), curvature


def _tangents_meet(lo, hi) -> float:
    """Where the tangents at the points lo and hi, each (lam, value, slope, ...),
    meet, kept in [lo, hi]."""
    (a, ga, pa), (b, gb, pb) = lo[:3], hi[:3]
    return min(b, max(a, (gb - ga + pa * a - pb * b) / (pa - pb)))


def _compressed_minimizer(a: np.ndarray, b: np.ndarray, energy_budget: float,
                          lo: float, hi: float, stop: float, exact: float):
    """The minimizer over [lo, hi] of r(lam) = lam*E + max(0, lambda_max(A - lam*B))
    where r's slopes at lo and hi put it strictly inside, or at the end
    ``exact``; else None.

    At the slope ``exact`` r is the dual itself up to rounding, so r's
    subgradients there are among the dual's: a slope whose sign disagrees
    with the dual's bracket is rounding around 0, and the dual's minimizer is
    at that end.

    Inside, a Newton iteration on r' that keeps a bracket: each step goes to
    the shorter of the bracket ends' Newton steps that lands in the bracket
    and is under half the step before, and otherwise to where the ends'
    tangents meet (the minimizer at a kink).  It stops when a step is
    at most ``stop`` or after ``_MODEL_MAX_ITER`` points.
    """
    low, high = (_compressed_point(a, b, lam, energy_budget) for lam in (lo, hi))
    if low[2] >= 0.0 or high[2] <= 0.0:
        end = lo if low[2] >= 0.0 else hi
        return end if end == exact and (low[2] < 0.0 or high[2] > 0.0) else None
    x = last = np.inf
    for _ in range(_MODEL_MAX_ITER):
        newtons = [(abs(slope / curvature), lam - slope / curvature)
                   for lam, _, slope, curvature in (low, high) if curvature > 0.0]
        newtons = [(step, y) for step, y in newtons
                   if low[0] <= y <= high[0] and step < 0.5 * last]
        if newtons:
            step, x = min(newtons)
        else:
            cross = _tangents_meet(low, high)
            step, x = abs(cross - x), cross
        if step <= stop:
            break
        last = step
        point = _compressed_point(a, b, x, energy_budget)
        if point[2] == 0.0:
            break
        if point[2] < 0.0:
            low = point
        else:
            high = point
    return float(x) if lo <= x <= hi else None  # None where rounding made a NaN


class EnergyProfile:
    """The dual g(lam) = lam*E + max(0, lambda_max(M - lam*G)) of one (M, G), for every E.

    Each eigensolve at a slope lam leaves a cut (lambda_max, <v|G|v>) that
    holds for every budget, so ``solve`` starts from all cuts made so far
    and a grid of budgets costs little more than one of them.  From
    ``_MODEL_MIN_DIM`` on the profile also keeps the unit top eigenvectors v
    of its latest ``_MODEL_VECTORS`` cuts, across budgets; the search places
    its probes with the dual compressed onto them (see ``_bracket_search``).
    ``evaluations`` counts the eigensolves, ``model_probes`` the probes the
    compressed dual placed, and ``last_gap`` is the certified duality gap of
    the latest ``solve`` (returned value minus the lower bound).  M must be
    PSD (ValueError otherwise): for an indefinite M the dual is not the
    constrained supremum.
    """

    def __init__(self, m: HermitianMatrix, g: ReferenceHamiltonian):
        if m.dim != g.dim:
            raise ValueError(f"dimension mismatch: {m.dim} vs {g.dim}")
        # The spectrum is cached: AffineCertificate.verify reads it again.
        require_psd_spectrum(m.eigvals(), PSD_RTOL * (1.0 + m.operator_norm()),
                             "M must be PSD for the energy-constrained dual")
        self._start(m, g)
        self._cut(0.0)

    @classmethod
    def _from_first_cut(cls, m: HermitianMatrix, g: ReferenceHamiltonian, cut, vector):
        """The profile whose cut at lam = 0, ``cut`` with top eigenvector
        ``vector``, came from a stacked eigensolve."""
        profile = cls.__new__(cls)
        profile._start(m, g)
        profile._keep(0.0, cut, vector)
        return profile

    def _start(self, m: HermitianMatrix, g: ReferenceHamiltonian):
        self.m, self.g = m, g
        self._cuts = {}  # lam -> (lambda_max(M - lam*G), <v|G|v>)
        # (lam, v) of the latest cuts, kept only where the model runs
        self._vectors = deque(maxlen=_MODEL_VECTORS) if m.dim >= _MODEL_MIN_DIM else None
        self.evaluations = 0
        self.model_probes = 0
        self.last_gap = float("nan")

    def _keep(self, lam: float, cut, vector):
        self._cuts[lam] = cut
        self.evaluations += 1
        if self._vectors is not None:
            self._vectors.append((lam, vector))

    def _cut(self, lam: float):
        if lam not in self._cuts:
            cuts, eig = _top_cuts((self.m.entries - lam * self.g.entries)[None], self.g)
            self._keep(lam, cuts[0], eig[1][0, :, -1])
        return self._cuts[lam]

    def _model_probe(self, a: float, b: float, energy_budget: float, tol: float):
        """The next probe by the model: the minimizer on [a, b] of the dual
        compressed onto Q, an orthonormal basis (QR) of the kept top
        eigenvectors, lam*E + max(0, lambda_max(Q*(M - lam*G)Q)), as
        ``_compressed_minimizer`` finds it to within ``tol``.  None where there
        is no model (fewer than two vectors, or below ``_MODEL_MIN_DIM``,
        where a cut costs less than a probe) or it has no minimizer to offer.  The latest cut's vector is in Q, so the
        model equals the dual at that slope up to rounding.
        """
        if self._vectors is None or len(self._vectors) < 2:
            return None
        q = np.linalg.qr(np.array([v for _, v in self._vectors]).T)[0]
        qh = q.conj().T
        m_small = qh @ (self.m.entries @ q)
        g_small = qh @ (self.g.entries @ q)
        return _compressed_minimizer((m_small + m_small.conj().T) / 2.0,
                                     (g_small + g_small.conj().T) / 2.0,
                                     energy_budget, a, b, tol,
                                     self._vectors[-1][0])

    def _point(self, lam: float, energy_budget: float):
        """(lam, g(lam), a subgradient of g at lam) for this budget."""
        cut = self._cut(lam)
        return lam, lam * energy_budget + max(0.0, cut[0]), _subgradient(cut, energy_budget)

    def solve(self, energy_budget: float):
        """Minimize g for this budget; returns ``(value, cert)``, the
        certificate verified."""
        lam, value = self._minimize(energy_budget)
        cert = AffineCertificate(lam, max(0.0, self._cuts[lam][0])).verify(self.m, self.g)
        return value, cert

    def _minimize(self, energy_budget: float):
        """Minimize g for this budget; returns ``(lam, value)``, unverified.

        Stops when the certified gap is at most 1e-12 * (1 + |value|) and
        the lam-bracket at most 1e-10 * (1 + |a| + |b|) (the witness is
        built at lam, so a small value gap alone is not enough), or when no
        float is left inside the bracket.  Raises RuntimeError when neither
        happens within ``DUAL_MAX_ITER`` steps.
        """
        _require_budget(energy_budget)
        e = float(energy_budget)
        points = [self._point(lam, e) for lam in self._cuts]
        start = points[0]  # lam = 0
        if start[2] >= 0.0:
            best, gap = start, 0.0
        else:
            lo = max((p for p in points if p[2] < 0.0), key=lambda p: p[0])
            above = [p for p in points if p[0] > lo[0] and p[2] >= 0.0]
            if above:
                hi = min(above, key=lambda p: p[0])
            else:
                # g(lam) >= lam*E > g(0) beyond g(0)/E, so the subgradient at
                # twice that slope is at least E/2.
                slope = 2.0 * self._cuts[0.0][0] / e
                if not slope < np.inf:
                    raise RuntimeError(f"the dual solver's upper bracket 2*g(0)/E overflows "
                                       f"at the energy budget E={e}")
                hi = self._point(slope, e)
                if hi[2] < 0.0 or hi[0] <= lo[0]:
                    raise RuntimeError("dual solver found no upper bracket")
            best, gap = self._bracket_search(lo, hi, e)
        self.last_gap = gap
        lam, value, _ = best
        return lam, value

    def _bracket_search(self, lo, hi, e: float):
        """Shrink the bracket [lo, hi] (subgradients < 0 and >= 0) around the minimum.

        Every point of the bracket is a true cut.  From ``_MODEL_MIN_DIM`` on
        the compressed dual of ``_model_probe`` places the next probe where it
        offers one: an eigenvalue optimization projected onto the top
        eigenvectors already computed, as in Kangal, Meerbergen, Mengi and
        Michiels (SIAM J. Matrix Anal. Appl. 39, 2018), which gains
        superlinearly with each new cut.  Otherwise, and always below that
        dimension, the secant on the subgradient or the tangents' meeting
        point does.  Either point goes through the same clamps.
        Returns the better end and its gap.  The witness is built at the
        returned slope, so it comes from the final bracket even where a point
        outside has a value lower by rounding.
        """
        prev, cur = lo, hi
        last_step = step_before = np.inf
        clamps = 0  # tol/2 clamps in a row, counted +1 at the upper end and -1 at the lower
        for _ in range(DUAL_MAX_ITER):
            (a, ga, pa), (b, gb, pb) = lo, hi
            best = hi if pb == 0.0 or gb <= ga else lo
            # The tangents at a and b meet below the minimum of g on [a, b].
            cross = _tangents_meet(lo, hi)
            gap = best[1] - (ga + pa * (cross - a))
            tol = DUAL_BRACKET_RTOL * (1.0 + abs(a) + abs(b))
            if pb == 0.0 or (gap <= DUAL_GAP_RTOL * (1.0 + abs(best[1])) and b - a <= tol):
                return best, gap
            # The compressed dual's minimizer, where there is one; else the
            # secant on the subgradient through the last two points, kept
            # inside the bracket and under half the step before last; else
            # the tangents' meeting point, which is the minimizer at a kink
            # and the midpoint on a parabola.
            x = self._model_probe(a, b, e, tol)
            if x is not None:
                self.model_probes += 1
            else:
                x = cross
                if cur[2] != prev[2]:
                    secant = cur[0] - cur[2] * (cur[0] - prev[0]) / (cur[2] - prev[2])
                    if a < secant < b and abs(secant - cur[0]) < 0.5 * step_before:
                        x = secant
            # A point within tol/2 of an end moves to tol/2 from it, past a
            # root that close, so that the bracket closes.  The points can
            # stall there, on a subgradient that rounding leaves a few ulps
            # from 0, each cutting tol/2 from a much wider bracket; so a third
            # such clamp in a row at the same end bisects instead while the
            # bracket is wider than 16 tol (32 clamps, or 4 bisections, to
            # close).  Near a root, clamp runs are narrower: over 3,360 random
            # d <= 6 solves and 240 speedlimit runs, 2-6 tol at the third
            # clamp but for one of 40 tol.
            half = 0.5 * min(tol, b - a)
            side = (x > b - half) - (x < a + half)
            clamps = clamps + side if side and clamps * side > 0 else side
            if abs(clamps) == 3 and b - a > 16.0 * tol:
                x, clamps = 0.5 * (a + b), 0
            else:
                x = min(max(x, a + half), b - half)
            if not a < x < b:
                return best, gap
            step_before, last_step = last_step, abs(x - cur[0])
            prev, cur = cur, self._point(x, e)
            if cur[2] >= 0.0:
                hi = cur
            else:
                lo = cur
        raise RuntimeError("dual solver did not converge")


def dual_scan(m: HermitianMatrix, g: ReferenceHamiltonian, energy_budget: float):
    """Minimize lam*E + max(0, lambda_max(M - lam*G)) over lam >= 0.

    Returns ``(value, cert)`` where ``cert`` is the minimizing affine
    certificate.  M must be PSD (ValueError otherwise); the value equals the
    energy-constrained supremum sup{tr[M rho] : rho state, tr[G rho] <= E}
    by strong duality.
    One-shot form of ``EnergyProfile(m, g).solve(energy_budget)``.
    """
    return EnergyProfile(m, g).solve(energy_budget)


def dual_scan_witness(ms, g: ReferenceHamiltonian, energy_budget: float) -> np.ndarray:
    """Primal-optimal pure states reconstructed from the dual scan, one per
    Hermitian matrix M of the stack ``ms`` (R, n, n), as an (R, n) array.

    The matrices are checked and symmetrized as ``HermitianMatrix`` does.
    At the optimal slope lam the witness lives in the top eigenspace of
    M - lam*G; mixing the two eigenvectors of the compressed G that straddle
    the budget pins the energy to exactly E, and a one-dimensional
    eigenspace gives its eigenvector with no compression.  Each witness is
    retracted onto the energy shell, so it is always feasible and
    tr[M psi psi*] is a lower bound; no certificate is built (``dual_scan``
    gives the verified one).  One stacked eigensolve makes every cut at
    lam = 0.  Where that cut's subgradient is nonnegative the budget is
    slack and lam = 0 is optimal; up to ``FULL_EIGH_MAX_DIM`` that
    eigensolve, of the same matrix M - 0*G, is also the witness's.  The
    other matrices find lam by ``EnergyProfile`` from that cut.  Stacked
    LAPACK calls loop over the matrices, so each witness is bitwise what
    its matrix gives in a stack of one.
    """
    ms = np.asarray(ms, dtype=complex)
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {ms.shape}")
    if not np.all(np.isfinite(ms)):
        raise ValueError("matrix entries must be finite")
    ms = _hermitian_part(ms)
    if ms.shape[1:] != (g.dim, g.dim):
        raise ValueError(f"dimension mismatch: {ms.shape[-1]} vs {g.dim}")
    _require_budget(energy_budget)
    e = float(energy_budget)
    cuts, eig = _top_cuts(ms - 0.0 * g.entries, g)
    full = g.dim <= FULL_EIGH_MAX_DIM
    lams, eigs = {}, [None] * len(cuts)  # the slope of each row whose eigh is still due
    for r, cut in enumerate(cuts):
        if _subgradient(cut, e) >= 0.0:  # a slack budget: lam = 0
            if full:
                eigs[r] = eig[0][r], eig[1][r]
            else:
                lams[r] = 0.0
        else:
            profile = EnergyProfile._from_first_cut(HermitianMatrix(ms[r]), g, cut,
                                                    eig[1][r, :, -1])
            lams[r] = profile._minimize(e)[0]
    if lams:
        lam = np.array(list(lams.values()))
        evals, evecs = np.linalg.eigh(ms[list(lams)] - lam[:, None, None] * g.entries)
        for r, ev, vecs in zip(lams, evals, evecs):
            eigs[r] = ev, vecs
    # The retraction guards the float edge cases of the witness's branches.
    onto_shell = _shell_projector(g, e)
    return np.array([onto_shell(_pinned_witness(ev, vecs, g, e)) for ev, vecs in eigs])


def _pinned_witness(evals: np.ndarray, evecs: np.ndarray, g: ReferenceHamiltonian,
                    energy_budget: float) -> np.ndarray:
    """The unit witness in the top eigenspace of M - lam*G, given that matrix's ``eigh``.

    The caller retracts it onto the energy shell.  Where the top eigenspace is
    one-dimensional every branch below picks its eigenvector (times the 1x1
    compression's eigenvector, exactly 1), so that eigenvector is returned at once.
    """
    scale = 1.0 + max(-evals[0], evals[-1])  # the spectral radius of an ascending spectrum
    top = evals[-1] - WITNESS_GAP_RTOL * scale
    if evals.size == 1 or evals[-2] < top:
        return evecs[:, -1] / np.linalg.norm(evecs[:, -1])
    basis = evecs[:, evals >= top]

    # Compress G to the top eigenspace and aim for energy exactly E.
    g_small = basis.conj().T @ g.entries @ basis
    g_small = (g_small + g_small.conj().T) / 2.0
    ge, gv = np.linalg.eigh(g_small)
    vecs = basis @ gv

    if energy_budget >= ge[-1]:
        psi = vecs[:, -1]
    elif energy_budget >= ge[0]:
        j = int(np.searchsorted(ge, energy_budget))
        lo_v, hi_v = vecs[:, j - 1], vecs[:, j]
        s = (energy_budget - ge[j - 1]) / (ge[j] - ge[j - 1])
        psi = np.sqrt(1.0 - s) * lo_v + np.sqrt(s) * hi_v
    else:
        # Numerically empty intersection with the budget: cool the lowest
        # eigenspace member toward the ground space instead.
        psi = vecs[:, 0]
    return psi / np.linalg.norm(psi)


def project_to_energy_shell(psi: np.ndarray, g: ReferenceHamiltonian,
                            energy_budget: float) -> np.ndarray:
    """Exact feasibility retraction of one vector; see ``retract_columns``.

    Returns the normalized input itself when it already has energy <= E.
    """
    return _shell_projector(g, energy_budget)(np.asarray(psi, dtype=complex).reshape(-1))


def _shell_projector(g: ReferenceHamiltonian, energy_budget: float):
    """``project_to_energy_shell`` as a function of the vector, with G's data loaded once."""
    ge, gv = g.clipped_eigh()
    gvh = gv.conj().T

    def project(v):
        v = v / np.linalg.norm(v)
        c = gvh @ v
        if float(ge @ np.abs(c) ** 2) <= energy_budget:
            return v
        out = gv @ retract_columns(c[:, None], ge, energy_budget)[:, 0]
        return out / np.linalg.norm(out)
    return project


def retract_columns(c: np.ndarray, ge: np.ndarray, energy_budget: float) -> np.ndarray:
    """Exact feasibility retraction of each unit column of ``c``.

    ``c`` holds amplitudes in the eigenbasis of G and ``ge`` the ascending
    eigenvalues of G clipped at 0.  A column with energy e > E has its
    excited amplitudes scaled by sqrt(E/e); the freed weight moves into the
    ground modes (eigenvalues at numerical zero, which every reference
    Hamiltonian has), so the column stays a unit vector with energy E up to
    the ground modes' 1e-12-relative eigenvalue noise.  Feasible columns are
    returned unchanged.
    """
    e = ge @ (np.abs(c) ** 2)
    hot = e > energy_budget
    if not np.any(hot):
        return c
    excited = ge > 1e-12 * (1.0 + ge[-1])
    ground = ~excited
    if not np.any(ground):
        raise ValueError("reference Hamiltonian has no numerically zero ground mode")
    c = c.copy()
    ch = c[:, hot]
    ch[excited, :] *= np.sqrt(energy_budget / e[hot])
    w = np.clip(1.0 - np.sum(np.abs(ch[excited, :]) ** 2, axis=0), 0.0, None)
    gw = np.sum(np.abs(ch[ground, :]) ** 2, axis=0)
    has_ground = gw > 1e-30
    boost = np.ones_like(gw)
    boost[has_ground] = np.sqrt(w[has_ground] / gw[has_ground])
    ch[ground, :] *= boost
    if np.any(~has_ground):
        gidx = int(np.flatnonzero(ground)[0])
        ch[gidx, ~has_ground] = np.sqrt(w[~has_ground])
    c[:, hot] = ch
    return c


def psd_sqrt(m: HermitianMatrix) -> HermitianMatrix:
    """The square root of a PSD matrix, through its eigendecomposition."""
    evals, evecs = m.eigh()
    require_psd_spectrum(evals, PSD_RTOL * (1.0 + float(np.max(np.abs(evals)))),
                         "sqrt undefined on spectrum")
    root = np.sqrt(np.clip(evals, 0.0, None))
    return HermitianMatrix(evecs @ (root[:, None] * evecs.conj().T))


@dataclass(frozen=True)
class EnergyCurve:
    """Values of a concave nondecreasing energy function on an E-grid."""

    grid: tuple
    values: tuple
    certificates: tuple

    def __post_init__(self):
        grid = tuple(float(e) for e in self.grid)
        values = tuple(float(v) for v in self.values)
        if len(grid) != len(values) or len(grid) != len(self.certificates):
            raise ValueError("grid, values, and certificates must have equal length")
        if any(e <= 0 for e in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("energy grid must be positive and strictly ascending")
        scale = 1.0 + max((abs(v) for v in values), default=0.0)
        for (e1, v1), (e2, v2) in zip(zip(grid, values), zip(grid[1:], values[1:])):
            if v2 < v1 - 1e-9 * scale:
                raise ValueError("curve values must be nondecreasing in E")
            if v2 > (e2 / e1) * v1 + 1e-9 * scale:
                raise ValueError("curve violates the concavity ratio bound")
        _set_fields(self, grid=grid, values=values, certificates=tuple(self.certificates))


# ---------------------------------------------------------------------------
# Seeded sampling helpers shared by tests, the see-saw, and the experiments.
# ---------------------------------------------------------------------------

def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed)))


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_hermitian(dim: int, rng: np.random.Generator,
                     operator_norm: float | None = None) -> HermitianMatrix:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = HermitianMatrix((a + a.conj().T) / 2.0)
    if operator_norm is not None:
        cur = h.operator_norm()
        if cur == 0.0:
            raise ValueError("cannot rescale the zero matrix to a target norm")
        h = HermitianMatrix(h.entries * (operator_norm / cur))
    return h


def random_psd(dim: int, rng: np.random.Generator) -> HermitianMatrix:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianMatrix(a @ a.conj().T / dim)


def random_reference(dim: int, rng: np.random.Generator) -> ReferenceHamiltonian:
    return ground_shift(random_psd(dim, rng))


def random_density(dim: int, rng: np.random.Generator) -> DensityState:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return DensityState(HermitianMatrix(m / np.trace(m).real))
