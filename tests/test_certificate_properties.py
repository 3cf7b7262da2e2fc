"""Property tests for certificates, energy values and the feasibility retraction."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from eclim import lindblad  # noqa: E402
from eclim.lindblad import default_e0_grid, stability_curve  # noqa: E402
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
    assert value == cert.bound(e)
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
