"""Shared fixtures.

Every test runs against a fresh in-memory artifact cache so cached
stage outputs cannot leak between tests: whether synthesis actually
executes (and emits its spans/counters) must depend only on the test
itself, not on suite ordering.  Tests that exercise cache behavior
build their own :class:`ArtifactCache` explicitly.

The run ledger is likewise pointed at a per-test temp file: flow CLI
commands append a ledger record by default, and a test run must never
pollute the developer's real ``.repro/ledger.jsonl`` (or depend on
records earlier tests left there).

Under an ambient ``REPRO_FAULTS`` plan (the chaos job) the cached plan
is dropped before each test's setup, so every test starts its
per-site draw counters from zero: the faults a test sees depend on its
own module, not on which tests ran before it in the same process.
"""

import pytest

from repro.core import ArtifactCache, using_cache
from repro.resilience import faults


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    with faults._state_lock:
        faults._env_text = None
        faults._env_plan = None


@pytest.fixture(autouse=True)
def _fresh_artifact_cache():
    with using_cache(ArtifactCache()):
        yield


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "test-ledger.jsonl"))
