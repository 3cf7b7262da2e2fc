"""Energy-constrained operator and diamond norms.

The ECO norm of A at budget E is computed exactly through the dual scan on
A*A.  A structural primal oracle (a bracketed search, by safeguarded Newton
steps from its own eigensolves, for the multiplier lam where the energy of
the top eigenvector of M - lam*G crosses the budget, which ends on the point
of energy E on the arc between the top eigenvectors on both sides of the
crossing) provides certified lower bounds used to confirm strong duality.
The ECD norm is exact for cp maps; for general
*-preserving maps, given as an ordered difference of cp parts, a see-saw
yields certified lower bounds: every iterate is a feasible input state, so
the reported trace norm never exceeds the true ECD value.  That bound rests
on the witness alone, so the see-saw builds no dual certificate.  Its
restarts advance in lockstep on stacked (R, n, n) arrays: per iteration, one
stacked eigensolve of the images and one ``dual_scan_witness`` call on the
stack of dual images, which returns the next input states, for every restart
that has not yet stalled or reached ``SEESAW_MAX_ITER``.  Stacked LAPACK
calls loop over the matrices, so each restart's history is bitwise what it
would be alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import (
    KrausChannel,
    choi_of_superoperator,
    extend_reference,
    jordan_kraus,
    kraus_sum_top,
    tensor_with_identity,
)
from .opcore import (
    DensityState,
    EnergyProfile,
    HermitianMatrix,
    ReferenceHamiltonian,
    dual_scan,
    dual_scan_witness,
    haar_state,
    project_to_energy_shell,
    retract_columns,
    rng_from_seed,
)

DEFAULT_RESTARTS = 64
SEESAW_STALL = 1e-8
SEESAW_MAX_ITER = 200
SAMPLE_BATCH = 20000


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, HermitianMatrix):
        return a.entries
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError("operator must be a matrix")
    return m


def _gram(a, g: ReferenceHamiltonian) -> HermitianMatrix:
    m = _as_matrix(a)
    if m.shape[1] != g.dim:
        raise ValueError(f"dimension mismatch: operator acts on {m.shape[1]}, reference on {g.dim}")
    return HermitianMatrix(m.conj().T @ m)


def eco_norm(a, g: ReferenceHamiltonian, energy_budget: float):
    """Exact energy-constrained operator norm of A (A may be non-Hermitian).

    Returns ``(value, cert)`` with cert witnessing A*A <= lam*G + e0 and
    lam*E + e0 = value**2.
    """
    value_sq, cert = dual_scan(_gram(a, g), g, energy_budget)
    return float(np.sqrt(max(0.0, value_sq))), cert


def eco_profile(a, g: ReferenceHamiltonian) -> EnergyProfile:
    """Energy profile of A*A: ``solve(E)`` gives ||A||_{op,E}**2 and its certificate."""
    return EnergyProfile(_gram(a, g), g)


def trace_norm(x) -> float:
    """Trace norm of a Hermitian matrix via its eigenvalues."""
    m = _as_matrix(x)
    return float(np.sum(np.abs(np.linalg.eigvalsh((m + m.conj().T) / 2.0))))


# ---------------------------------------------------------------------------
# Primal side: the structural oracle over energy-feasible unit vectors.
# ---------------------------------------------------------------------------

def _arc_points(v_hi, v_lo, ge, energy_budget: float) -> list:
    """The points of energy E on the arc of unit vectors from v_hi to v_lo.

    With u = v_hi in the phase that makes s = <u|v_lo> positive, and
    w = (v_lo - s u)/r the unit remainder of v_lo, the arc is
    psi(t) = cos t u + sin t w for tan t in [0, r/s].  Its energy under G's
    eigenvalues ``ge`` is E where (b - E) tan^2 t + 2c tan t + (a - E) = 0,
    for a, b the energies of u and w and c = Re <u|G|w>.  The roots are taken
    in the form without cancellation, so a point near u keeps its relative
    accuracy.  Empty when v_lo is parallel to v_hi.
    """
    s = complex(np.vdot(v_hi, v_lo))
    u = v_hi * (s / abs(s)) if s != 0.0 else v_hi
    rest = v_lo - abs(s) * u
    r = float(np.linalg.norm(rest))
    if not r > 0.0:
        return []
    w = rest / r
    p = float(ge @ np.abs(u) ** 2) - energy_budget
    q = float(ge @ np.abs(w) ** 2) - energy_budget
    c = float(np.real(np.vdot(u, ge * w)))
    k = -(c + np.copysign(np.sqrt(max(0.0, c * c - p * q)), c))  # roots p/k and k/q
    taus = [x / y for x, y in ((p, k), (k, q)) if y != 0.0]
    return [(u + tau * w) / np.hypot(1.0, tau)
            for tau in taus if 0.0 <= tau and tau * abs(s) <= r]


def eco_norm_primal(a, g: ReferenceHamiltonian, energy_budget: float,
                    restarts: int = DEFAULT_RESTARTS, seed: int = 0):
    """Certified lower bound on the ECO norm from ``constrained_rayleigh_max``.

    The returned value is ||A psi|| for a feasible unit witness psi, so it
    never exceeds the exact dual value (up to roundoff).  The result is
    deterministic.  ``restarts`` and ``seed`` change nothing; they stay only
    because the benchmark's ``duality-primal`` workload passes them, and
    ``restarts`` must be at least 1.

    Returns ``(value, witness)``.
    """
    gram = _gram(a, g)
    if restarts < 1:
        raise ValueError("need at least one restart")
    value_sq, psi = constrained_rayleigh_max(gram, g, energy_budget)
    return float(np.sqrt(max(0.0, value_sq))), psi


def constrained_rayleigh_max(m: HermitianMatrix, g: ReferenceHamiltonian,
                             energy_budget: float):
    """Maximize <psi|M|psi> over unit vectors with <psi|G|psi> <= E.

    Independent of the dual scan.  The optimum is the top eigenvector of
    M - lam*G at the multiplier where its energy crosses the budget, or a
    mix of top eigenvectors there.  The energy of the top eigenvector is
    nonincreasing in lam by convexity of the top eigenvalue, so a bracket
    [lo, hi] with lo infeasible and hi feasible pins the crossing; it
    shrinks until lo and hi are adjacent floats.  Each probe is a Newton
    step on h(lam) = <v|G|v> - E from the latest probe, with the derivative
    of a simple eigenpair (Overton, SIAM J. Optim. 2, 1992) taken from the
    same eigensolve, or the midpoint where the top level is degenerate or
    the step leaves the half of the bracket next to that probe.  The
    candidates are then the feasible end's top eigenvector and the point of
    energy E on the arc from it to the infeasible end's (``_arc_points``):
    both ends lie in the top eigenspace at the crossing, so that point is
    optimal however degenerate the eigenspace is.  The result is
    deterministic.

    Returns ``(value, psi)`` with psi feasible and value evaluated directly.
    Raises ValueError unless 0 < E < inf.
    """
    if not 0 < energy_budget < np.inf:
        raise ValueError("energy budget must be positive and finite")
    ge, gv = g.clipped_eigh()
    mb = gv.conj().T @ m.entries @ gv  # M in the eigenbasis of G
    mb = (mb + mb.conj().T) / 2.0
    gd = np.diag(ge)
    feas_tol = energy_budget * (1.0 + 1e-12) + 1e-15

    def energy_of(v):
        return float(ge @ np.abs(v) ** 2)

    def newton_step(evals, evecs):
        """-h/h' for h = <v|G|v> - E at the top eigenvector v of M - lam*G.

        h' = -2 sum_k |<v_k|G|v>|^2 / (mu - mu_k), the derivative of a simple
        eigenpair; None where the top level is degenerate or h' = 0.
        """
        gaps = evals[-1] - evals[:-1]
        if not np.all(gaps > 0.0):
            return None
        v = evecs[:, -1]
        slope = -2.0 * float(np.sum(np.abs(evecs[:, :-1].conj().T @ (ge * v)) ** 2 / gaps))
        if not slope < 0.0:
            return None
        return (energy_of(v) - energy_budget) / -slope

    evals_m, evecs_m = np.linalg.eigh(mb)
    candidates = [evecs_m[:, -1]]
    if energy_of(evecs_m[:, -1]) > energy_budget:
        candidates = []
        lo, evv_lo = 0.0, evecs_m
        hi = 2.0 * max(1.0, max(0.0, float(evals_m[-1])) / energy_budget)
        if not hi < np.inf:
            raise RuntimeError(f"the primal oracle's upper bracket 2*max(1, lam_max(M)/E) "
                               f"overflows at the energy budget E={energy_budget}")
        hi_feasible = False
        for _ in range(60):
            evv_hi = np.linalg.eigh(mb - hi * gd)[1]
            if energy_of(evv_hi[:, -1]) <= energy_budget:
                hi_feasible = True
                break
            hi *= 4.0
        else:  # hi was quadrupled after its last probe
            evv_hi = np.linalg.eigh(mb - hi * gd)[1]
        # Each Newton step starts from the latest probe, first from lam = 0;
        # side is +1 when that probe is lo, -1 when it is hi.
        lam, evals, evecs, side = 0.0, evals_m, evecs_m, 1.0
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            # lo is infeasible, so with hi feasible a mid that is lo or hi
            # leaves both where they are: the bracket has reached its fixed point.
            if hi_feasible and not lo < mid < hi:
                break
            probe = mid
            step = newton_step(evals, evecs)
            if step is not None:
                # Two ulps past the Newton point: once Newton has converged
                # the probe lands across the crossing, so the bracket closes
                # from both sides.  A probe outside the half of the bracket
                # next to lam falls back to the midpoint.
                newton = lam + step + side * 2.0 * np.spacing(lam)
                if lo < newton < hi and abs(newton - lam) <= 0.5 * (hi - lo):
                    probe = newton
            lam = probe
            evals, evecs = np.linalg.eigh(mb - lam * gd)
            if energy_of(evecs[:, -1]) > energy_budget:
                lo, evv_lo, side = lam, evecs, 1.0
            else:
                hi, evv_hi, side = lam, evecs, -1.0
        v_hi = evv_hi[:, -1]
        if energy_of(v_hi) <= energy_budget:
            candidates.append(v_hi)
        candidates += [v for v in _arc_points(v_hi, evv_lo[:, -1], ge, energy_budget)
                       if energy_of(v) <= feas_tol]
    # The ground state of G is always feasible, so the list is never empty.
    candidates.append(np.eye(g.dim, 1, dtype=complex)[:, 0])
    best = max(candidates, key=lambda v: float(np.real(v.conj() @ (mb @ v))))

    # Final feasibility guard; the retraction is the identity on feasible
    # vectors and the reported value is always the direct objective.
    final = retract_columns(best[:, None], ge, energy_budget)[:, 0]
    final = final / np.linalg.norm(final)
    return float(np.real(final.conj() @ (mb @ final))), gv @ final


def random_feasible_sample_max(m: HermitianMatrix, g: ReferenceHamiltonian,
                               energy_budget: float, samples: int, seed: int = 0) -> float:
    """Best of Haar-random pure states retracted onto the energy shell."""
    if not 0 < energy_budget < np.inf:
        raise ValueError("energy budget must be positive and finite")
    ge, gv = g.clipped_eigh()
    mb = gv.conj().T @ m.entries @ gv
    rng = rng_from_seed(seed)
    best = -np.inf
    left = samples
    while left > 0:
        k = min(SAMPLE_BATCH, left)
        c = rng.standard_normal((g.dim, k)) + 1j * rng.standard_normal((g.dim, k))
        c /= np.linalg.norm(c, axis=0)
        c = retract_columns(c, ge, energy_budget)
        vals = np.real(np.sum(c.conj() * (mb @ c), axis=0))
        best = max(best, float(np.max(vals)))
        left -= k
    return best


# ---------------------------------------------------------------------------
# ECD norms.
# ---------------------------------------------------------------------------

def ecd_norm_cp(t: KrausChannel, g: ReferenceHamiltonian, energy_budget: float):
    """Exact ECD norm of a cp trace-nonincreasing map: sup tr[T rho] over S_E."""
    if t.dim_in != g.dim:
        raise ValueError(f"dimension mismatch: channel input {t.dim_in}, reference {g.dim}")
    return dual_scan(t.kraus_sum(), g, energy_budget)


@dataclass(frozen=True)
class CpDifference:
    """A *-preserving map held as scale * (plus - minus) with cp parts.

    The stored channels are rescaled so that both are trace-nonincreasing;
    ``scale`` restores the original normalization (ECD norms are absolutely
    homogeneous, so the see-saw works on the normalized pair).
    """

    plus: KrausChannel
    minus: KrausChannel
    scale: float = 1.0

    def __post_init__(self):
        if self.plus.dim_in != self.minus.dim_in or self.plus.dim_out != self.minus.dim_out:
            raise ValueError("cp parts must share input and output dimensions")
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")

    @property
    def dim_in(self) -> int:
        return self.plus.dim_in

    @property
    def dim_out(self) -> int:
        return self.plus.dim_out

    @staticmethod
    def from_channel(t: KrausChannel) -> "CpDifference":
        return CpDifference(t, KrausChannel.zero(t.dim_in, t.dim_out), 1.0)

    @staticmethod
    def from_kraus_pair(plus_ops, minus_ops, dim_in: int, dim_out: int) -> "CpDifference":
        """Build from unnormalized Kraus families, renormalizing jointly."""
        c = max([1.0] + [kraus_sum_top(sum(k.conj().T @ k for k in ops))
                         for ops in (plus_ops, minus_ops) if ops])
        r = 1.0 / np.sqrt(c)
        plus = KrausChannel(tuple(r * k for k in plus_ops)) if plus_ops \
            else KrausChannel.zero(dim_in, dim_out)
        minus = KrausChannel(tuple(r * k for k in minus_ops)) if minus_ops \
            else KrausChannel.zero(dim_in, dim_out)
        return CpDifference(plus, minus, c)

    @staticmethod
    def from_superoperator(s_hat: np.ndarray, dim_in: int, dim_out: int) -> "CpDifference":
        """Canonical cp decomposition: the Jordan split of the Choi matrix."""
        plus_ops, minus_ops = jordan_kraus(choi_of_superoperator(s_hat, dim_in, dim_out),
                                           dim_in, dim_out)
        return CpDifference.from_kraus_pair(plus_ops, minus_ops, dim_in, dim_out)

    def apply_bipartite_pure(self, psi: np.ndarray, ancilla_dim: int) -> np.ndarray:
        """(S (x) id)(|psi><psi|) for psi on system (x) ancilla, times scale.

        ``psi`` may carry leading batch axes, (..., dim_in * ancilla_dim); the
        images stack along the same axes.
        """
        psi = np.asarray(psi, dtype=complex)
        batch = psi.shape[:-1]
        mat = psi.reshape(batch + (self.dim_in, ancilla_dim))
        side = self.dim_out * ancilla_dim
        out = np.zeros(batch + (side, side), dtype=complex)
        for k in self.plus.kraus:
            w = (k @ mat).reshape(batch + (side,))
            out += w[..., :, None] * w[..., None, :].conj()
        for k in self.minus.kraus:
            w = (k @ mat).reshape(batch + (side,))
            out -= w[..., :, None] * w[..., None, :].conj()
        return self.scale * out

    def dual_apply_bipartite(self, w: np.ndarray) -> np.ndarray:
        """S*(W), times scale, for S given on system (x) ancilla with Kraus operators K (x) 1.

        ``w`` may carry leading batch axes, (..., dim_out, dim_out).
        """
        out = np.zeros(w.shape[:-2] + (self.dim_in, self.dim_in), dtype=complex)
        for k in self.plus.kraus:
            out += k.conj().T @ w @ k
        for k in self.minus.kraus:
            out -= k.conj().T @ w @ k
        return self.scale * out

    def exact_cp_upper_bound(self, g: ReferenceHamiltonian, energy_budget: float) -> float:
        """scale * (||plus||_{<>,E} + ||minus||_{<>,E}), an exact upper bound."""
        up, _ = ecd_norm_cp(self.plus, g, energy_budget)
        um, _ = ecd_norm_cp(self.minus, g, energy_budget)
        return self.scale * (up + um)


@dataclass(frozen=True)
class EcdEstimate:
    """Result of an ECD norm computation.

    ``seesaw_lower`` values never exceed the exact norm: the witness is a
    feasible pure input state and the value is the trace norm of its image.
    """

    value: float
    kind: str
    restarts_used: int = 0
    witness_state: DensityState | None = None
    history: tuple = field(default=(), repr=False)


def ecd_norm_seesaw(s: CpDifference, g: ReferenceHamiltonian, energy_budget: float,
                    ancilla_dim: int | None = None, restarts: int = DEFAULT_RESTARTS,
                    seed: int = 0) -> EcdEstimate:
    """Certified lower bound on the ECD norm of a *-preserving map.

    Alternates two exact half-steps: (i) for fixed pure psi the trace norm
    of (S (x) id)|psi><psi| is evaluated by eigendecomposition and the
    optimal sign operator W is read off; (ii) for fixed W the next psi is
    the dual-scan witness of (S* (x) id)(W) under G (x) 1 at budget E.
    All start states are drawn first, in restart order; the restarts then
    advance together, and each leaves when it stalls or reaches
    ``SEESAW_MAX_ITER``.  Restarts reduce deterministically (max by value,
    ties to the lowest restart index).
    """
    if s.dim_in != g.dim:
        raise ValueError(f"dimension mismatch: map input {s.dim_in}, reference {g.dim}")
    if not 0 < energy_budget < np.inf:
        raise ValueError("energy budget must be positive and finite")
    if ancilla_dim is None:
        ancilla_dim = s.dim_in
    if ancilla_dim < 1:
        raise ValueError("ancilla dimension must be at least 1")
    if restarts < 1:
        raise ValueError("need at least one restart")

    g_ext = extend_reference(g, ancilla_dim)
    s_ext = CpDifference(tensor_with_identity(s.plus, ancilla_dim),
                         tensor_with_identity(s.minus, ancilla_dim), s.scale)
    rng = rng_from_seed(seed)
    dim = s.dim_in * ancilla_dim
    psi = np.array([project_to_energy_shell(haar_state(dim, rng), g_ext, energy_budget)
                    for _ in range(restarts)])

    histories = [[] for _ in range(restarts)]
    best_values = np.full(restarts, -np.inf)
    best_psis = psi.copy()
    value_prev = np.full(restarts, -np.inf)
    live = np.arange(restarts)
    for step in range(SEESAW_MAX_ITER):
        image = s.apply_bipartite_pure(psi, ancilla_dim)
        evals, evecs = np.linalg.eigh((image + np.swapaxes(image.conj(), -1, -2)) / 2.0)
        values = np.sum(np.abs(evals), axis=-1)
        for r, value in zip(live.tolist(), values.tolist()):
            histories[r].append(value)
        better = values > best_values[live]
        best_values[live[better]] = values[better]
        best_psis[live[better]] = psi[better]
        going = ~(values <= value_prev[live] + SEESAW_STALL * (1.0 + np.abs(values)))
        if step == SEESAW_MAX_ITER - 1 or not np.any(going):
            break
        live, evals, evecs = live[going], evals[going], evecs[going]
        value_prev[live] = values[going]
        signs = np.where(evals >= 0.0, 1.0, -1.0)
        w = evecs @ (signs[..., None] * np.swapaxes(evecs.conj(), -1, -2))
        psi = dual_scan_witness(s_ext.dual_apply_bipartite(w), g_ext, energy_budget)

    best = int(np.argmax(best_values))  # the first maximum: ties go to the lowest restart
    return EcdEstimate(
        value=max(0.0, float(best_values[best])),
        kind="seesaw_lower",
        restarts_used=restarts,
        witness_state=DensityState.pure(best_psis[best]),
        history=tuple(tuple(h) for h in histories),
    )


def reevaluate_seesaw_witness(s: CpDifference, estimate: EcdEstimate) -> float:
    """Trace norm of the image of the stored witness (for verification)."""
    if estimate.witness_state is None:
        raise ValueError("estimate carries no witness state")
    ancilla_dim = estimate.witness_state.dim // s.dim_in
    evals, evecs = estimate.witness_state.matrix.eigh()
    psi = evecs[:, -1]
    image = s.apply_bipartite_pure(psi, ancilla_dim)
    return trace_norm(image)
