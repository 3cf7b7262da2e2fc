"""Property tests for the dynamics layer: time-grid evolution and semigroups."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from eclim.gaussian import GaussianGenerator, semigroup_channel, symplectic_form  # noqa: E402
from eclim.lindblad import DENSE_EXPM_MAX_DIM, LindbladGenerator, evolve_grid  # noqa: E402
from eclim.opcore import random_density, random_hermitian, rng_from_seed  # noqa: E402

PROPERTY_SETTINGS = settings(settings.get_profile("eclim"), max_examples=50)

dims = st.sampled_from((2, 3, DENSE_EXPM_MAX_DIM, DENSE_EXPM_MAX_DIM + 2))
grids = st.lists(st.floats(0.0, 2.0, allow_nan=False), min_size=1, max_size=6)


def lindblad_generator(d, rng, extra_damping):
    """A random generator; ``extra_damping`` > 0 makes the trace decay."""
    h = random_hermitian(d, rng).entries
    ls = tuple(0.5 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
               / np.sqrt(d) for _ in range(int(rng.integers(1, 3))))
    k = -1j * h - 0.5 * sum(l.conj().T @ l for l in ls) - extra_damping * np.eye(d)
    return LindbladGenerator(k, ls)


@PROPERTY_SETTINGS
@given(d=dims, seed=st.integers(0, 2 ** 32 - 1), grid=grids, data=st.data())
def test_evolve_grid_ignores_order_and_duplicates(d, seed, grid, data):
    rng = rng_from_seed(seed)
    gen = lindblad_generator(d, rng, 0.0)
    rho = random_density(d, rng)
    shuffled = data.draw(st.permutations(grid + grid[: len(grid) // 2]))
    first = dict(zip(grid, evolve_grid(gen, rho, grid)))
    for t, out in zip(shuffled, evolve_grid(gen, rho, shuffled)):
        assert np.max(np.abs(out.entries - first[t].entries)) <= 1e-12


@PROPERTY_SETTINGS
@given(d=dims, seed=st.integers(0, 2 ** 32 - 1), grid=grids,
       extra_damping=st.sampled_from((0.0, 0.05, 0.5)))
def test_trace_never_increases_along_a_grid(d, seed, grid, extra_damping):
    rng = rng_from_seed(seed)
    gen = lindblad_generator(d, rng, extra_damping)
    rho = random_density(d, rng)
    grid = sorted(grid)
    traces = [out.trace() for out in evolve_grid(gen, rho, grid)]
    for before, after in zip([rho.trace()] + traces, traces):
        assert after <= before + 1e-10


@PROPERTY_SETTINGS
@given(modes=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(0.05, 2.0), margin=st.sampled_from((0.0, 1e-3, 0.5)),
       t=st.floats(0.0, 2.0))
def test_semigroup_channels_are_cp(modes, seed, scale, margin, t):
    # Ydot = YY^T + (|Xdot^T sigma + sigma Xdot| + margin) 1 satisfies the
    # generator condition; margin 0 puts it on the boundary.
    rng = rng_from_seed(seed)
    n2 = 2 * modes
    xdot = scale * rng.standard_normal((n2, n2))
    sigma = symplectic_form(modes)
    y = scale * rng.standard_normal((n2, n2))
    ydot = y @ y.T + (np.linalg.norm(xdot.T @ sigma + sigma @ xdot, 2) + margin) * np.eye(n2)
    semigroup_channel(GaussianGenerator(modes, xdot, ydot), t)  # the constructor checks CP
