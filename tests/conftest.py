"""Shared test settings."""

import tempfile

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property modules skip themselves without hypothesis
    HYPOTHESIS_HOME = None
else:
    # Property tests draw the same examples on every run and keep no example
    # database.  Hypothesis still caches the constants it reads from the
    # source (at collection time); that cache lives in a temporary directory.
    settings.register_profile("eclim", derandomize=True, database=None, deadline=None)
    settings.load_profile("eclim")
    HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="eclim-hypothesis-")
    set_hypothesis_home_dir(HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    if HYPOTHESIS_HOME is not None:
        HYPOTHESIS_HOME.cleanup()
