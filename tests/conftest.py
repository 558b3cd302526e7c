"""Shared test set-up.

Property tests draw the same examples on every run and leave no files. With
`derandomize=True` hypothesis seeds each test from a hash of the test, and
`database=None` keeps it from replaying or saving failures. Hypothesis also
caches the constants it finds in local source files under its home directory
(`.hypothesis/` in the working directory by default), so that home is a
temporary directory, removed when the test session ends.
"""

import collections
import tempfile

import pytest
from hypothesis import configuration, settings

from codedgd import trainer

_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_home.name)

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


def pytest_sessionfinish(session, exitstatus):
    _home.cleanup()


@pytest.fixture
def optimizer_calls(monkeypatch):
    """Counts of calls to the masked-GD step and the loss evaluation, by name."""
    calls = collections.Counter()
    for name in ("apply_partial_update", "evaluate"):
        def counted(*args, _original=getattr(trainer, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(trainer, name, counted)
    return calls
