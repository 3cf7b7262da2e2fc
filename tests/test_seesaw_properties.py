"""Property tests for the see-saw lower bound on ECD norms of non-cp maps."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from eclim.channels import extend_reference  # noqa: E402
from eclim.norms import CpDifference, ecd_norm_seesaw, reevaluate_seesaw_witness  # noqa: E402
from eclim.opcore import energy, random_reference, rng_from_seed  # noqa: E402

PROPERTY_SETTINGS = settings(settings.get_profile("eclim"), max_examples=50)

dims = st.sampled_from((2, 3))
seeds = st.integers(0, 2 ** 32 - 1)


def instance(d, seed, vacuous):
    """A random CpDifference on dimension d, a reference and a budget.

    The budget is twice G's top energy when ``vacuous``, else a fraction of it.
    """
    rng = rng_from_seed(seed)
    g = random_reference(d, rng)

    def family():
        return [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for _ in range(int(rng.integers(1, 3)))]

    diff = CpDifference.from_kraus_pair(family(), family(), d, d)
    fraction = 2.0 if vacuous else float(rng.uniform(0.05, 0.8))
    return diff, g, fraction * g.max_energy()


@PROPERTY_SETTINGS
@given(d=dims, seed=seeds, vacuous=st.booleans(), data=st.data())
def test_seesaw_is_a_certified_lower_bound(d, seed, vacuous, data):
    ancilla_dim = data.draw(st.integers(1, d))
    diff, g, e = instance(d, seed, vacuous)
    est = ecd_norm_seesaw(diff, g, e, ancilla_dim=ancilla_dim, restarts=4, seed=seed)
    upper = diff.exact_cp_upper_bound(g, e)
    assert est.value <= upper + 1e-8 * (1.0 + upper)
    assert energy(extend_reference(g, ancilla_dim), est.witness_state) <= e + 1e-9 * (1.0 + e)
    assert reevaluate_seesaw_witness(diff, est) == pytest.approx(
        est.value, abs=1e-8 * (1.0 + est.value))


@PROPERTY_SETTINGS
@given(d=dims, seed=seeds, vacuous=st.booleans(), few=st.integers(1, 3),
       more=st.integers(1, 3), data=st.data())
def test_restarts_are_independent(d, seed, vacuous, few, more, data):
    ancilla_dim = data.draw(st.integers(1, d))
    diff, g, e = instance(d, seed, vacuous)
    small = ecd_norm_seesaw(diff, g, e, ancilla_dim=ancilla_dim, restarts=few, seed=seed)
    large = ecd_norm_seesaw(diff, g, e, ancilla_dim=ancilla_dim, restarts=few + more, seed=seed)
    assert large.history[:few] == small.history
    assert small.value <= large.value
