"""Property tests for certificates, energy values and the feasibility retraction."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from eclim import lindblad  # noqa: E402
from eclim.lindblad import (  # noqa: E402
    StabilityCurve,
    best_certificate,
    default_e0_grid,
    stability_curve,
)
from eclim.norms import eco_norm  # noqa: E402
from eclim.opcore import (  # noqa: E402
    CERT_RESIDUAL_RTOL,
    FULL_EIGH_MAX_DIM,
    HermitianMatrix,
    dual_scan,
    random_hermitian,
    random_reference,
    retract_columns,
    rng_from_seed,
)

PROPERTY_SETTINGS = settings(settings.get_profile("eclim"), max_examples=40)

# FULL_EIGH_MAX_DIM + 4 takes the gates through the Cholesky proof.
dims = st.sampled_from((2, 3, 5, FULL_EIGH_MAX_DIM + 4))
seeds = st.integers(0, 2 ** 32 - 1)


def complex_matrix(d, rng):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


@PROPERTY_SETTINGS
@given(d=dims, seed=seeds, fraction=st.floats(1e-3, 3.0))
def test_dual_scan_certificates_reverify(d, seed, fraction):
    rng = rng_from_seed(seed)
    g = random_reference(d, rng)
    a = complex_matrix(d, rng)
    m = HermitianMatrix(a.conj().T @ a / d)
    e = fraction * g.max_energy()
    value, cert = dual_scan(m, g, e)
    assert value == cert.lam * e + cert.e0
    again = cert.verify(m, g)  # raises ValueError if M <= lam*G + e0 fails
    assert cert.residual >= -CERT_RESIDUAL_RTOL * (1.0 + m.operator_norm())
    assert again.residual == cert.residual


@PROPERTY_SETTINGS
@given(d=dims, seed=seeds, symmetric=st.booleans(), data=st.data())
def test_stability_curve_items_reverify(d, seed, symmetric, data):
    rng = rng_from_seed(seed)
    g = random_reference(d, rng)
    m = random_hermitian(d, rng)
    curve = stability_curve(m, g, default_e0_grid(g), symmetric)
    cert = curve[data.draw(st.integers(0, len(curve) - 1))]
    # the floors of min_omega again, on the original omega (G + e0) -+ M
    floor = lindblad._floors(m, g, cert.omega, cert.e0, symmetric)
    assert cert.residual >= -CERT_RESIDUAL_RTOL * (1.0 + m.operator_norm())
    assert cert.residual == floor()


def _exhaustive_winner(curves, energy_in, t):
    """(curve, index) of the least budget over every pencil, first in order."""
    candidates = [(k, i) for k, curve in enumerate(curves) for i in range(len(curve))]
    return min(candidates, key=lambda ki: lindblad._budget(
        curves[ki[0]].omegas[ki[1]], curves[ki[0]].e0s[ki[1]], energy_in, t))


@PROPERTY_SETTINGS
@given(d=dims, seed=seeds, symmetric=st.booleans(),
       pair=st.sampled_from(("random", "twins", "zero", "scalar", "top")),
       grid=st.sampled_from(("default", "shuffled")),
       joint=st.booleans(),
       energy=st.sampled_from((-1e3, -0.5, 0.0, 1e-300, 1e-12, 1e300)) | st.floats(0.0, 20.0),
       times=st.lists(st.sampled_from((1e-300, 1e-12, 1e3, np.inf)) | st.floats(-5.0, 5.0),
                      min_size=1, max_size=4))
def test_best_certificate_is_the_exhaustive_winner(d, seed, symmetric, pair, grid, joint,
                                                   energy, times):
    rng = rng_from_seed(seed)
    g = random_reference(d, rng)
    m = random_hermitian(d, rng)
    top = g.eigh()[1][:, -1:]
    others = {"random": random_hermitian(d, rng),
              "twins": m,  # every budget tied with the other curve's
              "zero": HermitianMatrix(np.zeros((d, d))),  # every pencil 0.0, none solved
              # omega e0 constant, and omega nearly flat in e0
              "scalar": HermitianMatrix(0.7 * np.eye(d)),
              "top": HermitianMatrix(2.0 * top @ top.conj().T)}
    e0s = default_e0_grid(g)
    if grid == "shuffled":  # out of e0 order, with repeated e0 (tied budgets in a curve)
        e0s = rng.permutation(np.concatenate([e0s, e0s[:3]]))
    ms = [others[pair], m] if pair == "zero" else [m, others[pair]]

    def curves():
        """One curve per matrix, or their joint curve beside the second's own."""
        if joint:
            return [StabilityCurve(ms, g, e0s, symmetric), stability_curve(ms[1], g, e0s,
                                                                            symmetric)]
        return [stability_curve(mi, g, e0s, symmetric) for mi in ms]

    bounded, exhaustive = curves(), curves()
    for t in times:
        cert = best_certificate(bounded, energy, t)
        k, i = _exhaustive_winner(exhaustive, energy, t)
        assert bounded[k][i] is cert
        assert np.array_equal([cert.omega, cert.e0], [exhaustive[k].omegas[i], e0s[i]])
        # below the Ritz gate every pencil is read, and no Lanczos run is made
        assert all(members is not None for curve in bounded for members in curve._members)
        assert sum(curve.ritz_runs for curve in bounded) == 0


@PROPERTY_SETTINGS
@given(d=dims, seed=seeds, symmetric=st.booleans(),
       kind=st.sampled_from(("random", "scalar", "top")),
       partner=st.sampled_from((None, "random", "scalar", "top")), data=st.data())
def test_omega_floors_bound_every_unsolved_omega(d, seed, symmetric, kind, partner, data):
    rng = rng_from_seed(seed)
    g = random_reference(d, rng)
    top = g.eigh()[1][:, -1:]
    matrices = {"random": random_hermitian(d, rng),
                "scalar": HermitianMatrix(0.7 * np.eye(d)),  # omega e0 = 0.7
                # omega = 2 / (max G + e0), nearly flat below max G
                "top": HermitianMatrix(2.0 * top @ top.conj().T)}
    # with a partner, the joint curve of the two matrices
    ms = [matrices[kind]] + ([] if partner is None else [matrices[partner]])
    e0s = default_e0_grid(g)
    curve = StabilityCurve(ms, g, e0s, symmetric)
    solved = data.draw(st.sets(st.integers(0, len(e0s) - 1), min_size=1))
    for i in solved:
        curve.omega(i)
    floors = curve.omega_floors()
    exact = StabilityCurve(ms, g, e0s, symmetric).omegas
    for j, (floor, omega) in enumerate(zip(floors, exact)):
        assert floor == omega if j in solved else 0.0 <= floor <= omega


def _gated_matrices(d, seed):
    """(g, matrices) at a dimension that takes Ritz vectors: the same cases as above."""
    rng = rng_from_seed(seed)
    g = random_reference(d, rng)
    top = g.eigh()[1][:, -1:]
    return g, {"random": random_hermitian(d, rng), "other": random_hermitian(d, rng),
               "zero": HermitianMatrix(np.zeros((d, d))),
               "scalar": HermitianMatrix(0.7 * np.eye(d)),
               "top": HermitianMatrix(2.0 * top @ top.conj().T)}


@pytest.mark.parametrize("d", [lindblad._RITZ_MIN_DIM, lindblad._RITZ_MIN_DIM + 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ritz_floors_bound_every_solved_omega(d, seed):
    g, matrices = _gated_matrices(d, seed)
    e0s = default_e0_grid(g)
    for kinds in (("random",), ("scalar",), ("top",), ("zero",), ("random", "top"),
                  ("zero", "other"), ("scalar", "random")):
        for symmetric in (False, True):
            ms = [matrices[kind] for kind in kinds]
            curve = StabilityCurve(ms, g, e0s, symmetric)
            ran = [curve.take_ritz_vectors(i) for i in range(0, len(e0s), 4)]
            assert curve.pencils_solved == 0
            nonzero = sum(kind != "zero" for kind in kinds)
            assert curve.ritz_runs == nonzero * sum(ran)
            assert all(ran) == (nonzero > 0)
            floors = curve.omega_floors()  # no pencil solved: the Ritz floors alone
            exact = StabilityCurve(ms, g, e0s, symmetric).omegas
            for floor, omega in zip(floors, exact):
                assert 0.0 <= floor <= omega
            if kinds == ("scalar",):  # B is diagonal: the top Ritz value is nearly sharp
                assert floors[0] == pytest.approx(exact[0], rel=1e-2)


@pytest.mark.parametrize("d", [lindblad._RITZ_MIN_DIM, lindblad._RITZ_MIN_DIM + 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("pair", ["random", "zero", "scalar", "top"])
def test_best_certificate_is_the_exhaustive_winner_above_the_ritz_gate(d, seed, pair):
    g, matrices = _gated_matrices(d, seed)
    m = matrices["random"]
    ms = [matrices[pair], m] if pair == "zero" else [m, matrices[pair]]
    e0s = default_e0_grid(g)
    symmetric = seed % 2 == 1
    energies = (0.0, 1e-3 * g.max_energy(), 0.5 * g.max_energy(), 4.0 * g.max_energy())
    for joint in (False, True):
        def curves():
            if joint:
                return [StabilityCurve(ms, g, e0s, symmetric),
                        stability_curve(ms[1], g, e0s, symmetric)]
            return [stability_curve(mi, g, e0s, symmetric) for mi in ms]

        bounded, exhaustive = curves(), curves()
        for energy in energies:
            for t in (1e-3, 0.3, 2.0):
                cert = best_certificate(bounded, energy, t)
                k, i = _exhaustive_winner(exhaustive, energy, t)
                assert bounded[k][i] is cert
                assert np.array_equal([cert.omega, cert.e0], [exhaustive[k].omegas[i], e0s[i]])
        assert sum(curve.ritz_runs for curve in bounded) >= 1
        assert sum(curve.pencils_solved for curve in bounded) < sum(
            curve.pencils_solved for curve in exhaustive)


@PROPERTY_SETTINGS
@given(d=dims, seed=seeds,
       budgets=st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=5, unique=True))
def test_eco_value_is_nondecreasing_and_concave_in_the_budget(d, seed, budgets):
    rng = rng_from_seed(seed)
    g = random_reference(d, rng)
    a = complex_matrix(d, rng)
    # Each value is a cold solve, exact up to its certified gap (1e-12 relative).
    es = [e * g.max_energy() for e in sorted(budgets)]
    values = [eco_norm(a, g, e)[0] for e in es]
    for (e1, lower), (e2, higher) in zip(zip(es, values), zip(es[1:], values[1:])):
        assert higher >= lower - 1e-12 * (1.0 + lower)
        # ||A||_{op,E}^2 is concave in E and nonnegative at E = 0
        assert higher ** 2 <= (e2 / e1) * lower ** 2 + 1e-11 * (1.0 + higher ** 2)


@PROPERTY_SETTINGS
@given(d=st.integers(2, 6), seed=seeds, columns=st.integers(1, 6), data=st.data())
def test_retract_columns_is_the_identity_on_feasible_columns(d, seed, columns, data):
    rng = rng_from_seed(seed)
    ge = np.clip(random_reference(d, rng).eigh()[0], 0.0, None)
    c = rng.standard_normal((d, columns)) + 1j * rng.standard_normal((d, columns))
    c = c / np.linalg.norm(c, axis=0)
    energies = ge @ np.abs(c) ** 2
    # a budget at a column's own energy (feasible: not above it) or between them
    budget = data.draw(st.sampled_from(energies.tolist()) | st.floats(0.0, 1.5 * ge[-1]))
    out = retract_columns(c, ge, budget)
    feasible = energies <= budget
    assert np.array_equal(out[:, feasible], c[:, feasible])
    if feasible.all():
        assert out is c
