"""Shared test settings."""

import tempfile
import warnings

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
    # A failing property test makes hypothesis's pytest plugin import its
    # patch writer, whose libcst import warns; under ``filterwarnings =
    # error`` that warning would end the pytest run with INTERNALERROR instead
    # of a failure report.  Import it once here, with its warnings ignored.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:  # no libcst: the plugin skips the patch too
            pass


def pytest_unconfigure(config):
    if HYPOTHESIS_HOME is not None:
        HYPOTHESIS_HOME.cleanup()
