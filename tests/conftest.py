"""Test-session configuration: hypothesis draws the same examples every run.

With ``derandomize=True`` each property test's examples follow from the
test itself, so repeated runs test the same inputs; ``database=None`` keeps
hypothesis from saving failing examples.  Hypothesis also caches the
literals it finds in the project's source files (it draws a few examples
from them); that cache goes to a temporary directory removed at exit, so a
test run leaves no ``.hypothesis/`` directory behind.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_storage.name)
