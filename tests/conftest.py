"""Set-up shared by the test modules: one hypothesis profile and the fixture
every property test runs under."""

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# the same examples on every run, no example database and no deadline on a
# slow host; each property sets its own max_examples
settings.register_profile("mctab", derandomize=True, database=None, deadline=None)
settings.load_profile("mctab")


@pytest.fixture
def hypothesis_home(tmp_path):
    """Hypothesis caches the constants it finds in local source under its
    home directory; point that at `tmp_path`, out of the checkout."""
    set_hypothesis_home_dir(tmp_path)
    yield tmp_path
    set_hypothesis_home_dir(None)
