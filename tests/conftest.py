"""Every property test draws its examples from a fixed sequence and keeps
no example database, so a failure found once is found again on every run,
and none is replayed from an earlier one. Hypothesis also caches literals
it reads from the package's source; that cache goes to a temporary
directory, removed when the run ends, so a run writes no ``.hypothesis/``."""

import tempfile

from hypothesis import configuration, settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_storage.name)


def pytest_unconfigure(config):
    _storage.cleanup()
