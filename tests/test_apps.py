"""Experiment-level tests: speed limits, Trotter, group bounds."""

import dataclasses
import gc
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from eclim import apps, lindblad, opcore
from eclim.apps import (
    OPEN_TOL,
    SpeedLimitConfig,
    SpeedLimitRow,
    generator_commutator,
    generator_difference,
    group_qsl,
    open_speedlimit,
    speedlimit_run,
    trotter_run,
)
from eclim.lindblad import DENSE_EXPM_MAX_DIM, BoundViolation, LindbladGenerator, \
    best_certificate, default_e0_grid, evolve, stability_curve, unitary_dissipation
from eclim.models import spin_system
from eclim.norms import CpDifference, EcdEstimate, eco_norm, trace_norm
from eclim.opcore import (
    CERT_RESIDUAL_RTOL,
    DensityState,
    HermitianMatrix,
    ReferenceHamiltonian,
    haar_state,
    random_hermitian,
    rng_from_seed,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def ref01():
    return ReferenceHamiltonian(HermitianMatrix(np.diag([0.0, 1.0]).astype(complex)))


class TestSpeedLimitRows:
    def test_zero_time_row(self):
        grid = tuple(np.linspace(0.0, 0.3, 8))
        rows = speedlimit_run(SpeedLimitConfig(n_qubits=2, time_grid=grid, seed=1))
        assert rows[0] == SpeedLimitRow(0.0, 0.0, 0.0, 0.0)

    def test_ordering_small_sweep(self):
        grid = tuple(np.linspace(0.0, 0.6, 10))
        for seed in range(4):
            for scenario in ("left", "right"):
                rows = speedlimit_run(SpeedLimitConfig(
                    n_qubits=3, scenario=scenario, time_grid=grid, seed=seed))
                # construction enforces the ordering; re-check explicitly
                for r in rows:
                    assert r.actual_error <= r.energy_bound + 1e-7
                    assert r.energy_bound <= r.uniform_bound + 1e-7

    def test_deterministic(self):
        grid = tuple(np.linspace(0.0, 0.4, 6))
        cfg = SpeedLimitConfig(n_qubits=2, time_grid=grid, seed=5)
        a = speedlimit_run(cfg)
        b = speedlimit_run(cfg)
        assert a == b

    def test_row_invariant_enforced(self):
        with pytest.raises(BoundViolation):
            SpeedLimitRow(0.1, 1.0, 0.5, 2.0)
        with pytest.raises(BoundViolation):
            SpeedLimitRow(0.1, 0.1, 2.0, 0.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SpeedLimitConfig(time_grid=(0.1, 0.2))
        with pytest.raises(ValueError, match="^time grid is empty$"):
            SpeedLimitConfig(time_grid=())
        with pytest.raises(ValueError):
            SpeedLimitConfig(scenario="middle")

    @pytest.mark.parametrize("grid, bad", [
        ((0.0, np.nan), "nan after 0.0"),
        ((0.0, np.inf), "inf after 0.0"),
        ((0.0, 0.2, 0.2), "0.2 after 0.2"),
        ((0.0, 0.3, 0.1), "0.1 after 0.3"),
    ])
    def test_config_names_a_time_that_is_not_finite_or_ascending(self, grid, bad):
        with pytest.raises(ValueError, match=f"finite and strictly ascending, got {bad}$"):
            SpeedLimitConfig(n_qubits=2, time_grid=grid, first_order=True)

    def test_first_order_builds_no_certificate_curve(self, monkeypatch):
        cfg = SpeedLimitConfig(n_qubits=2, time_grid=tuple(np.linspace(0.0, 0.4, 6)), seed=1,
                               first_order=True)
        expect = speedlimit_run(cfg)
        calls, rotated, scaled = [], lindblad._rotated, lindblad._scaled_pencil
        monkeypatch.setattr(lindblad, "_rotated", lambda *args: calls.append(args) or rotated(*args))
        monkeypatch.setattr(lindblad, "_scaled_pencil",
                            lambda *args: calls.append(args) or scaled(*args))
        assert speedlimit_run(cfg) == expect
        assert calls == []

    def test_first_order_close_for_small_times(self):
        t = 1e-3
        cfg = SpeedLimitConfig(n_qubits=3, scenario="left", time_grid=(0.0, t), seed=3)
        full = speedlimit_run(cfg)
        first = speedlimit_run(dataclasses.replace(cfg, first_order=True))
        gap = (full[1].energy_bound - first[1].energy_bound) / t
        assert gap >= -1e-12
        assert gap < 0.05


class TestOpenSpeedLimit:
    def test_identical_generators(self):
        gen = LindbladGenerator.from_hamiltonian(SX)
        report = open_speedlimit(gen, gen, ref01(), 0.5, (0.3,), n_states=5,
                                 seed=0, restarts=4)
        assert report.rows[0].lhs_max == pytest.approx(0.0, abs=1e-12)
        assert [r.status for r in report.rows] == ["ok"]

    @pytest.mark.parametrize("n_states", [0, -3])
    def test_no_states_is_bad_input(self, n_states):
        gen = LindbladGenerator.from_hamiltonian(SX)
        with pytest.raises(ValueError, match="at least one state"):
            open_speedlimit(gen, gen, ref01(), 0.5, (0.3,), n_states=n_states)

    @pytest.mark.parametrize("d", [3, DENSE_EXPM_MAX_DIM + 2])
    def test_rows_are_per_time_maxima_over_states(self, monkeypatch, d):
        # One sweep per state gives each time the largest distance of states
        # evolved from zero to that time: bitwise with dense propagators,
        # within rounding with the Taylor action.  The see-saw, which only
        # sets rhs, is stubbed: at d = 10 it would take about a minute.
        monkeypatch.setattr(apps, "ecd_norm_seesaw", _unbounded_seesaw)
        rng = rng_from_seed(70 + d)
        gens = [LindbladGenerator.from_hamiltonian(
            random_hermitian(d, rng), (0.5 * rng.standard_normal((d, d)),)) for _ in (1, 2)]
        g = ReferenceHamiltonian(HermitianMatrix(np.diag(np.arange(d) + 0j)))
        report = open_speedlimit(gens[0], gens[1], g, 1.0, (0.4, 0.1, 0.4), n_states=3,
                                 seed=5, restarts=2)
        states = apps._sampled_states(g, 1.0, 3, 5)
        for row in report.rows:
            expect = max(trace_norm(evolve(gens[0], rho, row.at).entries
                                    - evolve(gens[1], rho, row.at).entries) for rho in states)
            if d <= DENSE_EXPM_MAX_DIM:
                assert row.lhs_max == expect
            else:
                assert row.lhs_max == pytest.approx(expect, rel=1e-12)

    def test_one_seesaw_per_distinct_time(self, monkeypatch):
        budgets = []

        def seesaw(cp_map, g, budget, **kwargs):
            budgets.append(budget)
            return EcdEstimate(value=budget, kind="seesaw_lower")

        monkeypatch.setattr(apps, "ecd_norm_seesaw", seesaw)
        gen1 = LindbladGenerator.from_hamiltonian(SX, (0.5 * SX,))
        gen2 = LindbladGenerator.from_hamiltonian(SZ)
        report = open_speedlimit(gen1, gen2, ref01(), 0.5, (0.4, 0.1, 0.4), n_states=3,
                                 seed=5, restarts=2)
        assert len(budgets) == 2
        assert report.rows[0] == report.rows[2]
        for row in report.rows:
            alone = open_speedlimit(gen1, gen2, ref01(), 0.5, (row.at,), n_states=3, seed=5,
                                    restarts=2)
            assert alone.rows == (row,)

    @pytest.mark.parametrize("grid", [(0.2, 0.0), (0.2, -1.0)])
    def test_nonpositive_time_before_any_work(self, monkeypatch, grid):
        gen = LindbladGenerator.from_hamiltonian(SX)
        monkeypatch.setattr(apps, "ecd_norm_seesaw", _no_seesaw)
        monkeypatch.setattr(apps, "evolve_grid", _no_seesaw)
        with pytest.raises(ValueError, match="time grid entries must be positive"):
            open_speedlimit(gen, gen, ref01(), 0.5, grid, n_states=2)

    def test_dephasing_vs_identity(self):
        lz = np.sqrt(0.3) * SZ
        deph = LindbladGenerator.from_hamiltonian(np.zeros((2, 2)), (lz,))
        ident = LindbladGenerator.from_hamiltonian(np.zeros((2, 2)))
        grid = (0.05, 0.2, 0.5, 1.0)
        report = open_speedlimit(deph, ident, ref01(), 0.7, grid, n_states=20, seed=1,
                                 restarts=16)
        assert not report.any_failed
        assert [r.at for r in report.rows] == list(grid)
        # small-time slope of the actual distance stays below the rhs slope
        r0 = report.rows[0]
        assert r0.lhs_max / r0.at <= r0.rhs / r0.at + 1e-6

    def test_hamiltonian_only_cross_check(self):
        # pure-state trace distance <= 2 * vector-norm speed limit
        g = ref01()
        gen1 = LindbladGenerator.from_hamiltonian(SX)
        gen2 = LindbladGenerator.from_hamiltonian(SZ)
        report = open_speedlimit(gen1, gen2, g, 0.6, (0.2, 0.5), n_states=10,
                                 seed=2, restarts=16)
        assert not report.any_failed
        curves = [stability_curve(unitary_dissipation(HermitianMatrix(h), g), g,
                                  default_e0_grid(g), symmetric=True) for h in (SX, SZ)]
        for row in report.rows:
            cert = best_certificate(curves, 0.6, row.at)
            v, _ = eco_norm(SX - SZ, g, cert.budget(0.6, row.at))
            assert row.lhs_max <= 2.0 * row.at * v + 1e-6


class TestTrotter:
    def test_commuting_generators(self):
        gen1 = LindbladGenerator.from_hamiltonian(np.diag([0.3, -0.1]).astype(complex))
        gen2 = LindbladGenerator.from_hamiltonian(np.diag([1.0, 2.0]).astype(complex))
        report = trotter_run(gen1, gen2, ref01(), 1.0, 1.0, (4, 16), n_states=5,
                             seed=0, restarts=4)
        for row in report.rows:
            assert row.lhs_max == pytest.approx(0.0, abs=1e-12)

    def test_pauli_pair_rate(self):
        gen1 = LindbladGenerator.from_hamiltonian(SX)
        gen2 = LindbladGenerator.from_hamiltonian(SZ)
        report = trotter_run(gen1, gen2, ref01(), 1.0, 1.0, (4, 8, 16, 32, 64),
                             n_states=10, seed=0, restarts=16)
        assert not report.any_failed
        assert 0.9 <= report.decay_exponent <= 1.1

    def test_bound_with_dissipation(self):
        rng = rng_from_seed(5)
        lz = 0.4 * SZ
        gen1 = LindbladGenerator.from_hamiltonian(SX, (lz,))
        gen2 = LindbladGenerator.from_hamiltonian(
            random_hermitian(2, rng).entries, (0.3 * SX.astype(complex),))
        report = trotter_run(gen1, gen2, ref01(), 0.8, 0.7, (4, 16, 64),
                             n_states=8, seed=1, restarts=16)
        assert not report.any_failed


def _zero_seesaw(*args, **kwargs):
    return EcdEstimate(value=0.0, kind="seesaw_lower")


def _unbounded_seesaw(*args, **kwargs):
    return EcdEstimate(value=np.inf, kind="seesaw_lower")


class TestStatusRule:
    """The shared ok/inconclusive/failed rule of open_speedlimit and trotter_run."""

    @staticmethod
    def _open(monkeypatch):
        monkeypatch.setattr(apps, "ecd_norm_seesaw", _zero_seesaw)
        gen1 = LindbladGenerator.from_hamiltonian(SX)
        gen2 = LindbladGenerator.from_hamiltonian(SZ)
        return open_speedlimit(gen1, gen2, ref01(), 0.6, (0.2, 0.5), n_states=4,
                               seed=2, restarts=1)

    @staticmethod
    def _trotter(monkeypatch):
        monkeypatch.setattr(apps, "ecd_norm_seesaw", _zero_seesaw)
        gen1 = LindbladGenerator.from_hamiltonian(SX)
        gen2 = LindbladGenerator.from_hamiltonian(SZ)
        return trotter_run(gen1, gen2, ref01(), 1.0, 1.0, (4, 16), n_states=4,
                           seed=0, restarts=1)

    @staticmethod
    def _assert_statuses(report, positive):
        assert any(r.lhs_max > OPEN_TOL for r in report.rows)
        for r in report.rows:
            assert r.rhs == 0.0
            assert r.status == (positive if r.lhs_max > OPEN_TOL else "ok")

    @pytest.mark.parametrize("run", ["_open", "_trotter"])
    def test_zero_seesaw_is_inconclusive(self, monkeypatch, run):
        report = getattr(self, run)(monkeypatch)
        self._assert_statuses(report, "inconclusive")
        assert not all(r.status == "ok" for r in report.rows)
        assert not report.any_failed

    @pytest.mark.parametrize("run", ["_open", "_trotter"])
    def test_zero_upper_bound_is_failed(self, monkeypatch, run):
        monkeypatch.setattr(CpDifference, "exact_cp_upper_bound", lambda *args: 0.0)
        report = getattr(self, run)(monkeypatch)
        self._assert_statuses(report, "failed")
        assert report.any_failed


def _no_seesaw(*args, **kwargs):
    raise AssertionError("the see-saw ran")


class TestSampledStates:
    """Both bound checks check the energy budget and the state count before
    the see-saw."""

    @staticmethod
    def _open(energy_budget, n_states=4):
        gen1 = LindbladGenerator.from_hamiltonian(SX)
        gen2 = LindbladGenerator.from_hamiltonian(SZ)
        return open_speedlimit(gen1, gen2, ref01(), energy_budget, (0.2,),
                               n_states=n_states, restarts=2)

    @staticmethod
    def _trotter(energy_budget, n_states=4):
        gen1 = LindbladGenerator.from_hamiltonian(SX)
        gen2 = LindbladGenerator.from_hamiltonian(SZ)
        return trotter_run(gen1, gen2, ref01(), energy_budget, 1.0, (4, 8),
                           n_states=n_states, restarts=2)

    @pytest.mark.parametrize("run", ["_open", "_trotter"])
    @pytest.mark.parametrize("energy_budget", [-1.0, -1e-3, np.nan, np.inf])
    def test_bad_budget_is_named(self, monkeypatch, run, energy_budget):
        monkeypatch.setattr(apps, "ecd_norm_seesaw", _no_seesaw)
        with pytest.raises(ValueError, match="^energy budget must be nonnegative and finite"):
            getattr(self, run)(energy_budget)

    @pytest.mark.parametrize("run", ["_open", "_trotter"])
    def test_no_states_before_the_seesaw(self, monkeypatch, run):
        monkeypatch.setattr(apps, "ecd_norm_seesaw", _no_seesaw)
        with pytest.raises(ValueError, match="at least one state"):
            getattr(self, run)(1.0, n_states=0)

    def test_zero_budget_is_checked(self):
        assert not self._trotter(0.0).any_failed

    def test_zero_certified_budget_is_named(self, monkeypatch):
        # G = diag(0, 1) commutes with SZ, whose certificate omega = 0 then
        # gives f_t(0) = 0: the budget E = 0 is valid, the see-saw cannot run.
        monkeypatch.setattr(apps, "ecd_norm_seesaw", _no_seesaw)
        gens = [LindbladGenerator.from_hamiltonian(h) for h in (SX, SZ)]
        with pytest.raises(ValueError, match=r"^the certified energy budget f_t\(E\) is 0.0 at "
                                             r"t=0.5: the see-saw"):
            open_speedlimit(*gens, ref01(), 0.0, (0.5,), n_states=2)
        gens = [LindbladGenerator.from_hamiltonian(np.diag(v).astype(complex))
                for v in ([0.3, -0.1], [1.0, 2.0])]
        with pytest.raises(ValueError, match=r"^the certified energy budget f_t\(E\) is 0.0 at "
                                             r"t=2.0: the see-saw"):
            trotter_run(*gens, ref01(), 0.0, 1.0, (4,), n_states=2)


def _spy_certification(monkeypatch) -> dict:
    """Record every rotated dissipation matrix, the number of rotations, every
    floor lindblad checks and every certificate whose budget apps reads."""
    seen = {"pencils": {}, "rotations": 0, "floors": [], "winners": [], "rankings": []}
    rotated, require_psd, best = lindblad._rotated, lindblad.require_psd, apps.best_certificate

    def spy_rotated(m, g):
        seen["pencils"][id(m)] = m, g
        seen["rotations"] += 1
        return rotated(m, g)

    def spy_psd(gap_of, slack, what):
        seen["floors"].append((np.array(gap_of()), slack))
        return require_psd(gap_of, slack, what)

    def spy_best(*args):
        seen["winners"].append(best(*args))
        seen["rankings"].append(args)
        return seen["winners"][-1]

    monkeypatch.setattr(lindblad, "_rotated", spy_rotated)
    monkeypatch.setattr(lindblad, "require_psd", spy_psd)
    monkeypatch.setattr(apps, "best_certificate", spy_best)
    return seen


def _verified_omegas(seen, cert, symmetric: bool) -> list:
    """The own pencil omega at cert.e0 of each dissipation matrix whose floors
    there were checked against its own slack."""
    out = []
    for m, g in seen["pencils"].values():
        omega = lindblad._pencil_omega(lindblad._rotated(m, g), cert.e0, symmetric)
        shifted = omega * (g.entries + cert.e0 * np.eye(g.dim))
        slack = CERT_RESIDUAL_RTOL * (1.0 + m.operator_norm())
        gaps = [shifted - m.entries] + ([shifted + m.entries] if symmetric else [])
        if all(any(s == slack and np.array_equal(f, gap) for f, s in seen["floors"])
               for gap in gaps):
            out.append(omega)
    return out


def _spy_eigvalsh_callers(monkeypatch) -> list:
    """Record, for every numpy eigvalsh call, the (file, function) of each frame above it."""
    calls, eigvalsh = [], np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        frame, callers = sys._getframe(1), set()
        while frame is not None:
            callers.add((Path(frame.f_code.co_filename).name, frame.f_code.co_name))
            frame = frame.f_back
        calls.append(callers)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


class TestLazyResiduals:
    """Every gate of a run is decided at once; a residual costs one eigvalsh
    per gap, made only when something reads it."""

    def test_speedlimit_run_computes_no_residual_it_does_not_read(self, monkeypatch):
        certs, solve, best = [], opcore.EnergyProfile.solve, apps.best_certificate

        def spy_solve(profile, energy_budget):
            value, cert = solve(profile, energy_budget)
            certs.append((cert, profile.m, profile.g))
            return value, cert

        def spy_best(*args):
            certs.append((best(*args), None, None))
            return certs[-1][0]

        monkeypatch.setattr(opcore.EnergyProfile, "solve", spy_solve)
        monkeypatch.setattr(apps, "best_certificate", spy_best)
        calls = _spy_eigvalsh_callers(monkeypatch)
        speedlimit_run(SpeedLimitConfig(n_qubits=5, seed=1,
                                        time_grid=tuple(np.linspace(0.0, 0.6, 5))))
        assert spin_system(5).dim == 32 > opcore.FULL_EIGH_MAX_DIM
        affine = [c for c in certs if c[1] is not None]
        stability = [c for c, m, _ in certs if m is None]
        assert len(affine) == len(stability) == 4
        # Under the checks, eigvalsh runs only for the slack's scale ||M||,
        # cached per matrix: the gram of H1 - H2 and the two dissipation matrices.
        checks = {("opcore.py", "verify"), ("lindblad.py", "_floors")}
        under_checks = [callers for callers in calls if callers & checks]
        assert all(("opcore.py", "operator_norm") in callers for callers in under_checks)
        assert len(under_checks) <= 3
        assert not [callers for callers in calls if ("opcore.py", "require_psd") in callers]

        del calls[:]
        cert, m, g = affine[0]
        residual = cert.residual
        assert len(calls) == 1 and cert.residual == residual and len(calls) == 1
        monkeypatch.undo()
        gap = cert.lam * g.entries + cert.e0 * np.eye(g.dim) - m.entries
        assert residual == float(np.linalg.eigvalsh(gap)[0])
        calls = _spy_eigvalsh_callers(monkeypatch)
        residual = stability[0].residual  # symmetric: one eigvalsh per sign
        assert len(calls) == 2 and stability[0].residual == residual and len(calls) == 2


def _exhaustive_winner(curves, energy_in, t):
    """The first candidate, in curve then grid order, of least budget over
    every pencil of ``curves``: the ranking as made before pencils were lazy."""
    candidates = [(curve, i) for curve in curves for i in range(len(curve))]
    curve, i = min(candidates, key=lambda ci: lindblad._budget(
        ci[0].omegas[ci[1]], ci[0].e0s[ci[1]], energy_in, t))
    return curve[i]


class TestTopCutCounts:
    """The d = 128 top eigensolves ("cuts") of the speed limit's energy profile:
    counts, not times, so the bound holds on any machine."""

    @staticmethod
    def _new_cuts_per_solve(monkeypatch, scenario: str, steps: int) -> tuple:
        """Mean cuts per ``solve`` over seeds 0-3, leaving out the cut at lam = 0
        that each profile makes when it is built, and the number of probes the
        compressed dual placed."""
        profiles, make = [], apps.eco_profile

        def spy_profile(a, g):
            profiles.append(make(a, g))
            return profiles[-1]

        monkeypatch.setattr(apps, "eco_profile", spy_profile)
        for seed in range(4):
            speedlimit_run(SpeedLimitConfig(scenario=scenario, seed=seed,
                                            time_grid=tuple(np.linspace(0.0, 0.6, steps))))
        monkeypatch.undo()
        assert len(profiles) == 4
        cuts = sum(p.evaluations - 1 for p in profiles)
        return cuts / (4 * (steps - 1)), sum(p.model_probes for p in profiles)

    @pytest.mark.parametrize("scenario, steps, most", [
        ("left", 5, 4.0),  # 7.31 when the secant placed every probe
        ("right", 5, 2.0),  # 2.69
        ("left", 60, 2.5),  # 4.86
    ])
    def test_qsl_spin7_cuts_per_solve(self, monkeypatch, scenario, steps, most):
        mean, probes = self._new_cuts_per_solve(monkeypatch, scenario, steps)
        assert mean <= most
        assert probes > 0


class TestSectorCounts:
    """The entries the Fock sweep steps: counts, not times."""

    def test_fock_sweep_steps_only_the_sector_of_the_state(self, monkeypatch):
        d, q = 61, 0.5
        lower = np.diag(np.sqrt(np.arange(1, d)), 1)
        gen = LindbladGenerator.from_hamiltonian(np.zeros((d, d)), (lower,))
        thermal = HermitianMatrix(np.diag((1.0 - q) * q ** np.arange(d)))
        spread = HermitianMatrix(np.full((d, d), 1.0 / d))  # every entry nonzero
        sizes, taylor = [], lindblad._taylor_action

        def spy(op, h, v):
            sizes.append(v.size)
            return taylor(op, h, v)

        monkeypatch.setattr(lindblad, "_taylor_action", spy)
        for rho, size in ((thermal, d), (spread, d * d)):
            sizes.clear()
            lindblad.evolve_grid(gen, DensityState(rho), (0.0, 0.5, 1.2))
            assert sizes == [size, size]


class TestLazyVerification:
    """A candidate's pencil omega only ranks; every certificate whose budget a
    result reads has passed the floors of min_omega."""

    def test_qsl_spin7_pencils_what_the_ranking_needs_and_verifies_winners(self, monkeypatch):
        # Both curves had all 13 pencils solved before the bounded search: 26;
        # before Ritz floors, 13-14 dense solves (left) and 1 (right).  The
        # right scenario's first matrix, i[sx, G], is zero and is not rotated.
        for scenario, most, runs, rotations in (("left", 7, 12, 2), ("right", 1, 2, 1)):
            seen = _spy_certification(monkeypatch)
            speedlimit_run(SpeedLimitConfig(scenario=scenario, seed=1,
                                            time_grid=tuple(np.linspace(0.0, 0.6, 5))))
            monkeypatch.undo()
            curves = seen["rankings"][0][0]
            assert all(args[0] is curves for args in seen["rankings"])
            solved = sum(curve.pencils_solved for curve in curves)  # before any exhaustive read
            assert solved <= most
            assert 1 <= sum(curve.ritz_runs for curve in curves) <= runs
            distinct = {(c.omega, c.e0) for c in seen["winners"]}
            assert seen["rotations"] == rotations  # one per nonzero matrix
            assert len(seen["winners"]) == 4
            assert 2 <= len(seen["floors"]) <= 2 * len(distinct)
            for cert, args in zip(seen["winners"], seen["rankings"]):
                assert cert is _exhaustive_winner(*args)

    def test_a_run_leaves_no_curve_in_a_reference_cycle(self, monkeypatch):
        refs, curve = [], apps.stability_curve

        def spy_curve(*args, **kwargs):
            made = curve(*args, **kwargs)
            refs.append(weakref.ref(made))
            return made

        monkeypatch.setattr(apps, "stability_curve", spy_curve)
        cfg = SpeedLimitConfig(n_qubits=3, seed=1, time_grid=tuple(np.linspace(0.0, 0.6, 5)))
        gc.collect()
        gc.disable()
        try:
            speedlimit_run(cfg)
            assert len(refs) == 2
            assert [ref() for ref in refs] == [None, None]  # freed without the collector
        finally:
            gc.enable()

    @pytest.mark.parametrize("run", ["speedlimit", "open", "trotter"])
    def test_every_read_certificate_passed_its_own_floors(self, monkeypatch, run):
        monkeypatch.setattr(apps, "ecd_norm_seesaw", _unbounded_seesaw)
        seen = _spy_certification(monkeypatch)
        damped = LindbladGenerator.from_hamiltonian(SX, (0.7 * np.array([[0, 1], [0, 0]]),))
        hz = LindbladGenerator.from_hamiltonian(SZ + 0.4 * SX)
        if run == "speedlimit":
            speedlimit_run(SpeedLimitConfig(n_qubits=2, seed=1,
                                            time_grid=tuple(np.linspace(0.0, 0.6, 7))))
        elif run == "open":
            open_speedlimit(damped, hz, ref01(), 0.6, (0.2, 0.5, 2.0), n_states=2, restarts=1)
        else:
            trotter_run(damped, hz, ref01(), 0.6, 0.8, (4,), n_states=2, restarts=1)
        monkeypatch.undo()
        assert seen["winners"]
        for cert in seen["winners"]:
            omegas = _verified_omegas(seen, cert, symmetric=run == "speedlimit")
            if run == "trotter":  # the joint omega: each member at its own omega
                assert len(omegas) == 2 and cert.omega == max(omegas)
            else:
                assert cert.omega in omegas

    @pytest.mark.parametrize("lower_winners", [True, False])
    def test_lowered_pencil_fails_only_when_read(self, monkeypatch, lower_winners):
        cfg = SpeedLimitConfig(n_qubits=2, seed=1, time_grid=tuple(np.linspace(0.0, 0.6, 5)))
        seen = _spy_certification(monkeypatch)
        expect = speedlimit_run(cfg)
        monkeypatch.undo()
        won = {c.e0 for c in seen["winners"]}
        scaled, curves = lindblad._scaled_pencil, []

        def lowered_pencil(rotated, e0):
            s, b = scaled(rotated, e0)
            if (e0 in won) != lower_winners:
                return s, b
            return s, (1.0 - 1e-4) * b

        curve = apps.stability_curve
        monkeypatch.setattr(lindblad, "_scaled_pencil", lowered_pencil)
        monkeypatch.setattr(apps, "stability_curve",
                            lambda *args, **kwargs: curves.append(curve(*args, **kwargs))
                            or curves[-1])
        if lower_winners:
            with pytest.raises(ValueError, match="stability certificate fails verification"):
                speedlimit_run(cfg)
            return
        assert speedlimit_run(cfg) == expect
        # every lowered loser (omega > 0, so lowering moved it) fails once read
        losers = [(c, i) for c in curves for i, e0 in enumerate(c.e0s)
                  if e0 not in won and c.omegas[i] > 0]
        assert len(losers) > len(curves)
        for c, i in losers:
            with pytest.raises(ValueError, match="stability certificate fails verification"):
                c[i]


class TestCpDecompositions:
    def test_difference_action_matches(self):
        gen1 = LindbladGenerator.from_hamiltonian(SX)
        gen2 = LindbladGenerator.from_hamiltonian(SZ, (0.2 * SX.astype(complex),))
        diff = generator_difference(gen1, gen2)
        rng = rng_from_seed(6)
        psi = haar_state(4, rng)
        img = diff.apply_bipartite_pure(psi, 2)
        rho = np.outer(psi, psi.conj())
        # direct check: act with (L1 - L2) (x) id on |psi><psi|
        big = np.zeros((4, 4), dtype=complex)
        for gen, sign in ((gen1, 1.0), (gen2, -1.0)):
            eye = np.eye(2, dtype=complex)
            kk = np.kron(gen.k, eye)
            big += sign * (kk @ rho + rho @ kk.conj().T)
            for l in gen.lindblad:
                ll = np.kron(l, eye)
                big += sign * (ll @ rho @ ll.conj().T)
        assert np.allclose(img, big, atol=1e-10)

    def test_commutator_action_matches(self):
        gen1 = LindbladGenerator.from_hamiltonian(SX)
        gen2 = LindbladGenerator.from_hamiltonian(SZ)
        comm = generator_commutator(gen1, gen2)
        rng = rng_from_seed(7)
        psi = haar_state(2, rng)
        rho = np.outer(psi, psi.conj())
        s1, s2 = gen1.superoperator(), gen2.superoperator()
        expect = ((s1 @ s2 - s2 @ s1) @ rho.reshape(-1)).reshape(2, 2)
        img = comm.apply_bipartite_pure(psi, 1)
        assert np.allclose(img, expect, atol=1e-10)


class TestGroupQsl:
    def test_equal_directions(self):
        spin = spin_system(3)
        rng = rng_from_seed(8)
        psi = haar_state(spin.dim, rng)
        lhs, rhs = group_qsl(spin, [0.3, -0.2, 0.5], [0.3, -0.2, 0.5], psi)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_zero_direction_reduction(self):
        spin = spin_system(2)
        rng = rng_from_seed(9)
        psi = haar_state(spin.dim, rng)
        c = np.array([0.4, 0.1, -0.3])
        lhs, rhs = group_qsl(spin, c, [0.0, 0.0, 0.0], psi)
        gen = spin.generator(c)
        evals, evecs = gen.eigh()
        u_psi = evecs @ (np.exp(-1j * evals) * (evecs.conj().T @ psi))
        assert lhs == pytest.approx(float(np.linalg.norm(u_psi - psi)), abs=1e-12)
        # omega = min(ad, 0) = 0, so the prefactor is the convention value 1
        from eclim.opcore import psd_sqrt
        sqrt_delta = psd_sqrt(spin.laplacian)
        expect_rhs = float(np.linalg.norm(c) * np.linalg.norm(sqrt_delta.entries @ psi))
        assert rhs == pytest.approx(expect_rhs, abs=1e-12)

    def test_random_draws_hold(self):
        spin = spin_system(3)
        rng = rng_from_seed(10)
        for _ in range(50):
            cx = rng.standard_normal(3)
            cy = rng.standard_normal(3)
            psi = haar_state(spin.dim, rng)
            lhs, rhs = group_qsl(spin, cx, cy, psi)  # raises on violation
            assert lhs <= rhs + 1e-9

    def test_rejects_unnormalized(self):
        spin = spin_system(2)
        with pytest.raises(ValueError):
            group_qsl(spin, [1, 0, 0], [0, 1, 0], np.ones(spin.dim))

    @pytest.mark.parametrize("cx, cy, message", [
        ([np.nan, 0, 0], [0, 1, 0], "c_x must be finite, got [nan, 0.0, 0.0]"),
        ([0, 1, 0], [0, -np.inf, 0], "c_y must be finite, got [0.0, -inf, 0.0]"),
        ([1e308, 0, 0], [0, 1, 0], "c_x=[1e+308, 0.0, 0.0] overflows A(X) = sum c_j S_j "
                                   "on 2 qubits; reduce it"),
        # 2 |c| = 800: e^omega overflows though A(X) is small
        ([400, 0, 0], [400, 1, 0], "c_x=[400.0, 0.0, 0.0], c_y=[400.0, 1.0, 0.0] overflow "
                                   "the bound (e^omega - 1)/omega * |c_x - c_y| * "
                                   "||sqrt(Delta) psi||; reduce them"),
    ])
    def test_rejects_coefficients_that_overflow(self, cx, cy, message):
        spin = spin_system(2)
        psi = haar_state(spin.dim, rng_from_seed(11))
        with pytest.raises(ValueError) as err:
            group_qsl(spin, cx, cy, psi)
        assert str(err.value) == message

    def test_largest_omega_below_the_float_range_is_finite(self):
        # 2 |c| = 708 keeps e^omega within a quarter of the float range
        spin = spin_system(2)
        psi = haar_state(spin.dim, rng_from_seed(12))
        lhs, rhs = group_qsl(spin, [354, 0, 0], [354, 0, 1], psi)
        assert np.isfinite(rhs) and lhs <= rhs
