"""Fixtures for every test under the checkout: ``tests/`` and the
benchmark's own tests in ``perfbench/``."""
import pytest


@pytest.fixture(scope="session", autouse=True)
def session_table_cache(tmp_path_factory):
    """Session fixtures, made before any test's ``fresh_table_cache``, cache
    parsed tables in a directory of their own, not in the user's cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(autouse=True)
def fresh_table_cache(tmp_path_factory, monkeypatch):
    """Every test, and every process it starts, caches parsed tables in a
    directory of its own: no test is served a table another one parsed, and
    none writes to the user's cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
