"""Property tests draw the same examples on every run and leave no files.

With `derandomize=True` hypothesis seeds each test from a hash of the test,
and `database=None` keeps it from replaying or saving failures. Hypothesis
also caches the constants it finds in local source files under its home
directory (`.hypothesis/` in the working directory by default), so that home
is a temporary directory, removed when the test process exits.
"""

import tempfile

from hypothesis import configuration, settings

_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_home.name)

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
