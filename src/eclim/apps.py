"""End-to-end experiments: speed limits, open-system bounds, Trotter checks.

The closed-system experiment reproduces the two-panel comparison of the
actual unitary deviation against the energy-constrained bound

    t * ||H1 - H2||_{op, f_t(E)},   f_t(E) = E + (exp(omega t) - 1)(E + e0),

and the uniform operator-norm bound t * ||H1 - H2||.  Stability constants
are certified for both Hamiltonians and the smaller resulting bound wins
per time point.  See-saw values appear only on the right-hand side of the
asserted inequalities, so a see-saw shortfall can only raise false alarms,
never mask a violation; such rows are reported as inconclusive when the
exact cp upper bound still covers the left-hand side.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .lindblad import (
    BoundViolation,
    LindbladGenerator,
    best_certificate,
    default_e0_grid,
    dissipation_matrix,
    evolve_grid,
    joint_constants,
    stability_curve,
    unitary_dissipation,
)
from .models import SpinSystem, ad_norm_su2, spin_system
from .norms import DEFAULT_RESTARTS, CpDifference, ecd_norm_seesaw, eco_profile, trace_norm
from .opcore import (
    DensityState,
    HermitianMatrix,
    ReferenceHamiltonian,
    _set_fields,
    energy,
    expm,
    haar_state,
    psd_sqrt,
    random_density,
    random_hermitian,
    rng_from_seed,
    vector_energy,
)

ROW_TOL = 1e-7
OPEN_TOL = 1e-6
# Operator norm of each random perturbation in the "left" scenario.
LEFT_PERTURBATION_NORM = 0.5


@dataclass(frozen=True)
class SpeedLimitConfig:
    n_qubits: int = 7
    scenario: str = "left"
    time_grid: tuple = tuple(np.linspace(0.0, 0.6, 61))
    seed: int = 0
    first_order: bool = False

    def __post_init__(self):
        grid = tuple(float(t) for t in self.time_grid)
        if not grid:
            raise ValueError("time grid is empty")
        if grid[0] != 0.0:
            raise ValueError("time grid must start at 0")
        for a, b in zip(grid, grid[1:]):
            if not a < b < np.inf:
                raise ValueError(f"time grid must be finite and strictly ascending, "
                                 f"got {b} after {a}")
        if self.scenario not in ("left", "right"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        _set_fields(self, time_grid=grid)


@dataclass(frozen=True)
class SpeedLimitRow:
    """One time point; the theorem-backed ordering is enforced on build."""

    time: float
    actual_error: float
    energy_bound: float
    uniform_bound: float

    def __post_init__(self):
        if self.actual_error > self.energy_bound + ROW_TOL:
            raise BoundViolation(
                f"actualError {self.actual_error} exceeds energyBound "
                f"{self.energy_bound} at t={self.time}"
            )
        if self.energy_bound > self.uniform_bound + ROW_TOL:
            raise BoundViolation(
                f"energyBound {self.energy_bound} exceeds uniformBound "
                f"{self.uniform_bound} at t={self.time}"
            )


def _scenario_hamiltonians(cfg: SpeedLimitConfig, spin: SpinSystem, rng):
    if cfg.scenario == "left":
        r1 = random_hermitian(spin.dim, rng, operator_norm=LEFT_PERTURBATION_NORM)
        r2 = random_hermitian(spin.dim, rng, operator_norm=LEFT_PERTURBATION_NORM)
        return spin.sx + r1, spin.sy + r2
    return spin.sx, random_hermitian(spin.dim, rng, operator_norm=spin.sx.operator_norm())


def _certified_budget(curves, energy_budget: float, t: float) -> float:
    """f_t(E) of the best certificate of ``curves``; the see-saw and the
    energy-constrained operator norm need it positive and finite."""
    budget = best_certificate(curves, energy_budget, t).budget(energy_budget, t)
    if not 0 < budget < np.inf:
        raise ValueError(f"the certified energy budget f_t(E) is {budget} at t={t}: "
                         "the see-saw and the energy-constrained operator norm "
                         "need a positive, finite budget")
    return budget


def speedlimit_run(cfg: SpeedLimitConfig) -> list:
    """Rows (time, actualError, energyBound, uniformBound) for one seed."""
    spin = spin_system(cfg.n_qubits)
    g = spin.reference
    rng = rng_from_seed(cfg.seed)
    h1, h2 = _scenario_hamiltonians(cfg, spin, rng)

    phi = haar_state(spin.dim, rng)
    psi = g.ground_vector() + 0.5 * phi
    psi = psi / np.linalg.norm(psi)
    e_psi = vector_energy(g, psi)

    diff = h1 - h2
    uniform_rate = diff.operator_norm()
    curves = [] if cfg.first_order else [
        stability_curve(unitary_dissipation(h, g), g, default_e0_grid(g), symmetric=True)
        for h in (h1, h2)]

    ev1, vec1 = h1.eigh()
    ev2, vec2 = h2.eigh()
    c1 = vec1.conj().T @ psi
    c2 = vec2.conj().T @ psi
    profile = eco_profile(diff.entries, g)

    rows = []
    for t in cfg.time_grid:
        if t == 0.0:
            rows.append(SpeedLimitRow(0.0, 0.0, 0.0, 0.0))
            continue
        u1psi = vec1 @ (np.exp(-1j * ev1 * t) * c1)
        u2psi = vec2 @ (np.exp(-1j * ev2 * t) * c2)
        actual = float(np.linalg.norm(u1psi - u2psi))
        budget = e_psi if cfg.first_order else _certified_budget(curves, e_psi, t)
        value = np.sqrt(max(0.0, profile.solve(budget)[0]))
        rows.append(SpeedLimitRow(float(t), actual, float(t) * value,
                                  float(t) * uniform_rate))
    return rows


# ---------------------------------------------------------------------------
# See-saw bound checks: the open-system speed limit and the Trotter formula.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCheckRow:
    """One bound check point: the time t (open speed limit) or step count n (Trotter)."""

    at: float | int
    lhs_max: float
    rhs: float
    status: str  # ok | inconclusive | failed


@dataclass(frozen=True)
class BoundCheckReport:
    """Rows of a see-saw bound check; only ``trotter_run`` sets ``decay_exponent``."""

    rows: tuple
    decay_exponent: float | None

    @property
    def any_failed(self) -> bool:
        return any(r.status == "failed" for r in self.rows)


def _row(at, lhs: float, factor: float, estimate, cp_map: CpDifference,
         g: ReferenceHamiltonian, budget: float) -> BoundCheckRow:
    """The row of lhs <= factor * ||cp_map||_{<>, budget}: ok when the see-saw
    ``estimate`` covers lhs, inconclusive when only the exact cp upper bound does."""
    rhs = factor * estimate.value
    if lhs <= rhs + OPEN_TOL:
        return BoundCheckRow(at, lhs, rhs, "ok")
    if lhs <= factor * cp_map.exact_cp_upper_bound(g, budget) + OPEN_TOL:
        return BoundCheckRow(at, lhs, rhs, "inconclusive")
    return BoundCheckRow(at, lhs, rhs, "failed")


def _sampled_states(g: ReferenceHamiltonian, energy_budget: float, n_states: int,
                    seed: int) -> list:
    """Seeded random densities, each mixed toward the ground state of G just
    enough that tr[G rho] <= energy_budget."""
    if not 0 <= energy_budget < np.inf:
        raise ValueError(f"energy budget must be nonnegative and finite, got {energy_budget}")
    if n_states < 1:
        raise ValueError("need at least one state to check the bound on")
    rng = rng_from_seed(seed)
    states = []
    for _ in range(n_states):
        rho = random_density(g.dim, rng)
        e = energy(g, rho)
        if e > energy_budget:
            theta = 1.0 - energy_budget / e
            ground = g.ground_vector()
            mixed = (1.0 - theta) * rho.entries + theta * np.outer(ground, ground.conj())
            rho = DensityState(HermitianMatrix(mixed))
        states.append(rho)
    return states


def generator_difference(gen1: LindbladGenerator, gen2: LindbladGenerator) -> CpDifference:
    if gen1.dim != gen2.dim:
        raise ValueError("generators must share a dimension")
    s_hat = gen1.superoperator() - gen2.superoperator()
    return CpDifference.from_superoperator(s_hat, gen1.dim, gen1.dim)


def generator_commutator(gen1: LindbladGenerator, gen2: LindbladGenerator) -> CpDifference:
    if gen1.dim != gen2.dim:
        raise ValueError("generators must share a dimension")
    s1, s2 = gen1.superoperator(), gen2.superoperator()
    return CpDifference.from_superoperator(s1 @ s2 - s2 @ s1, gen1.dim, gen1.dim)


def open_speedlimit(gen1: LindbladGenerator, gen2: LindbladGenerator,
                    g: ReferenceHamiltonian, energy_budget: float, t_grid,
                    n_states: int = 20, seed: int = 0,
                    restarts: int = DEFAULT_RESTARTS) -> BoundCheckReport:
    """Check ||T1(t)rho - T2(t)rho||_1 <= t ||L1 - L2||_{<>, f_t(E)}.

    The right-hand side is a see-saw lower bound of the ECD norm, so it can
    only understate the true bound; rows where it falls short but the exact
    cp upper bound still covers the left-hand side are inconclusive.
    """
    times = [float(t) for t in t_grid]
    if any(t <= 0 for t in times):
        raise ValueError("time grid entries must be positive")
    states = _sampled_states(g, energy_budget, n_states, seed)
    e0_grid = default_e0_grid(g)
    curves = [stability_curve(dissipation_matrix(gen, g), g, e0_grid) for gen in (gen1, gen2)]
    diff = generator_difference(gen1, gen2)

    lhs = [0.0] * len(times)
    for rho in states:
        pairs = zip(evolve_grid(gen1, rho, times), evolve_grid(gen2, rho, times))
        lhs = [max(l, trace_norm(a.entries - b.entries)) for l, (a, b) in zip(lhs, pairs)]
    rows, checked = [], {}
    for t, lhs_t in zip(times, lhs):
        if t not in checked:  # a repeated time reruns the same seeded see-saw
            budget = _certified_budget(curves, energy_budget, t)
            checked[t] = budget, ecd_norm_seesaw(diff, g, budget, restarts=restarts, seed=seed)
        budget, estimate = checked[t]
        rows.append(_row(t, lhs_t, t, estimate, diff, g, budget))
    return BoundCheckReport(tuple(rows), None)


def trotter_run(gen1: LindbladGenerator, gen2: LindbladGenerator,
                g: ReferenceHamiltonian, energy_budget: float, t: float,
                n_grid, n_states: int = 10, seed: int = 0,
                restarts: int = DEFAULT_RESTARTS) -> BoundCheckReport:
    """Check ||(T1(t/n) T2(t/n))^n rho - e^(tL) rho||_1 <= (t^2/2n) ||[L1, L2]||_{<>, f_2t(E)}.

    Joint stability constants are the pairwise max over the e0 grid; the
    empirical 1/n decay exponent of the left-hand side is recorded, or None
    with fewer than two distinct step counts or a vanishing left-hand side.
    """
    if not 0 < t < np.inf:
        raise ValueError("time must be positive and finite")
    n_grid = [int(n) for n in n_grid]
    if not n_grid or min(n_grid) < 1:
        raise ValueError("need at least one Trotter step count, each at least 1")
    states = _sampled_states(g, energy_budget, n_states, seed)
    joint = joint_constants([dissipation_matrix(gen, g) for gen in (gen1, gen2)], g,
                            default_e0_grid(g))
    budget = _certified_budget([joint], energy_budget, 2.0 * t)

    comm = generator_commutator(gen1, gen2)
    estimate = ecd_norm_seesaw(comm, g, budget, restarts=restarts, seed=seed)

    s1, s2 = gen1.superoperator(), gen2.superoperator()
    full = expm(t * (s1 + s2))

    rows = []
    for n in n_grid:
        step = expm((t / n) * s1) @ expm((t / n) * s2)
        trotterized = np.linalg.matrix_power(step, n)
        lhs = 0.0
        for rho in states:
            vec = rho.entries.reshape(-1)
            delta = (trotterized @ vec - full @ vec).reshape(g.dim, g.dim)
            lhs = max(lhs, trace_norm(delta))
        rows.append(_row(n, lhs, t * t / (2.0 * n), estimate, comm, g, budget))

    exponent = None
    ls = np.array([r.lhs_max for r in rows])
    if len(set(n_grid)) > 1 and np.all(ls > 1e-12):
        exponent = float(-np.polyfit(np.log(n_grid), np.log(ls), 1)[0])
    return BoundCheckReport(tuple(rows), exponent)


# ---------------------------------------------------------------------------
# Lie-group speed limit.
# ---------------------------------------------------------------------------

def group_qsl(spin: SpinSystem, c_x, c_y, psi: np.ndarray):
    """Both sides of the group bound for A(X) = sum cX_j S_j.

    lhs = ||exp(-iA(X)) psi - exp(-iA(Y)) psi||,
    rhs = (e^omega - 1)/omega * |cX - cY| * ||sqrt(Delta) psi||, with
    omega = min(ad norms) and the convention (e^0 - 1)/0 = 1.

    Before any arithmetic on the coefficients, a non-finite one is rejected
    by name, and so are coefficients for which A(X), the ad norm 2|c| or
    rhs would come within a factor 4 of the float range.  The collective
    spins have entries and norms at most n, so n |c|_1 bounds A(X) and 2|c|.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("psi must be a unit vector")
    c_x, c_y = (np.asarray(c, dtype=float).reshape(-1) for c in (c_x, c_y))
    big = sys.float_info.max / 4.0
    for name, c in (("c_x", c_x), ("c_y", c_y)):
        if c.size != 3:
            raise ValueError(f"{name} needs three coefficients, got {c.size}")
        if not np.all(np.isfinite(c)):
            raise ValueError(f"{name} must be finite, got {c.tolist()}")
        # Python floats overflow silently
        if not spin.n_qubits * sum(abs(x) for x in c.tolist()) <= big:
            raise ValueError(f"{name}={c.tolist()} overflows A(X) = sum c_j S_j on "
                             f"{spin.n_qubits} qubits; reduce it")
    sqrt_delta = psd_sqrt(spin.laplacian)
    psi_part = float(np.linalg.norm(sqrt_delta.entries @ psi))
    two_c = 2.0 * min(math.hypot(*c_x.tolist()), math.hypot(*c_y.tolist()))
    fits = two_c <= math.log(big)  # e^omega fits
    if fits:
        factor = math.expm1(two_c) / two_c if two_c else 1.0
        fits = factor * math.hypot(*(c_x - c_y).tolist()) * psi_part <= big
    if not fits:
        raise ValueError(f"c_x={c_x.tolist()}, c_y={c_y.tolist()} overflow the bound "
                         "(e^omega - 1)/omega * |c_x - c_y| * ||sqrt(Delta) psi||; "
                         "reduce them")

    def apply_exp(coeffs):
        gen = spin.generator(coeffs)
        evals, evecs = gen.eigh()
        return evecs @ (np.exp(-1j * evals) * (evecs.conj().T @ psi))

    lhs = float(np.linalg.norm(apply_exp(c_x) - apply_exp(c_y)))

    omega = min(ad_norm_su2(c_x), ad_norm_su2(c_y))
    factor = 1.0 if omega == 0.0 else (np.exp(omega) - 1.0) / omega
    rhs = float(factor * np.linalg.norm(c_x - c_y) * psi_part)
    if lhs > rhs + 1e-9:
        raise BoundViolation(f"group speed limit violated: {lhs} > {rhs}")
    return lhs, rhs
