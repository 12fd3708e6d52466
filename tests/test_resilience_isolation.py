"""Subprocess isolation: supervised workers, watchdog, restart, retry.

These tests spawn real worker subprocesses (spawn start method), so
every task function lives at module level where pickle can find it.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    ParallelExecutionError,
    WorkerCrashError,
    WorkerHungError,
    WorkerMemoryError,
    env_float,
    injecting,
)
from repro.resilience.isolation import process_map, task_heartbeat


def _square(x):
    return x * x


def _raise_on_three(x):
    if x == 3:
        raise ValueError(f"bad item {x}")
    return x


def _exit_on_three(x):
    if x == 3:
        os._exit(3)  # simulated segfault: no exception, no result
    return x


def _slow_with_heartbeats(x):
    # Runs well past the stall budget but keeps reporting progress.
    for _ in range(6):
        time.sleep(0.11)
        task_heartbeat()
    return x


def _record_and_beat(item):
    """Leave ``<pid>.pid``, beat for ``seconds``, then leave ``<pid>.done``."""
    directory, seconds = item
    pid = os.getpid()
    Path(directory, f"{pid}.pid").touch()
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        time.sleep(0.02)
        task_heartbeat()
    Path(directory, f"{pid}.done").touch()
    return pid


def _allocate_and_stall(x):
    ballast = bytearray(96 * 1024 * 1024)  # ~96 MiB resident
    for _ in range(100):
        time.sleep(0.05)
        task_heartbeat()  # beating: only the RSS watchdog may kill us
    return len(ballast)


class TestProcessMap:
    def test_ordered_roundtrip(self):
        assert process_map(_square, list(range(8)), jobs=3) == [
            x * x for x in range(8)
        ]

    def test_empty_items(self):
        assert process_map(_square, [], jobs=4) == []

    def test_task_exception_fail_fast(self):
        with pytest.raises(ValueError, match="bad item 3") as info:
            process_map(_raise_on_three, list(range(5)), jobs=2)
        assert info.value.task_index == 3

    def test_task_exception_collect_aggregates(self):
        with pytest.raises(ParallelExecutionError) as info:
            process_map(
                _raise_on_three, [3, 1, 3, 2], jobs=2, on_error="collect"
            )
        assert len(info.value.errors) == 2
        assert {index for index, _, _ in info.value.errors} == {0, 2}

    def test_task_heartbeat_is_noop_in_parent(self):
        task_heartbeat()  # must not raise outside a worker


class TestCrashRecovery:
    def test_worker_crash_is_retried_then_surfaced(self):
        # _exit is deterministic, so the retry crashes too: after
        # 1 + retries attempts the task fails as a WorkerCrashError
        # while every other task still completes.  jobs=1 makes the
        # restart deterministic: with the sole worker dead, outstanding
        # work always forces a replacement spawn (with jobs>1 an idle
        # survivor may legitimately absorb the queue instead).
        with obs.Tracer() as tracer:
            with pytest.raises(ParallelExecutionError) as info:
                process_map(
                    _exit_on_three, list(range(5)), jobs=1, on_error="collect"
                )
        [(index, _, exc)] = info.value.errors
        assert index == 3
        assert isinstance(exc, WorkerCrashError)
        assert exc.classification == "transient"
        counters = tracer.metrics_snapshot()["counters"]
        assert counters.get("isolation.worker_crash", 0) >= 2  # original + retry
        assert counters.get("isolation.task_retry", 0) == 1
        assert counters.get("isolation.worker_restart", 0) >= 1

    def test_crash_with_fail_fast_raises_worker_error(self):
        with pytest.raises(WorkerCrashError):
            process_map(_exit_on_three, [3], jobs=1, retries=0)


@pytest.mark.no_chaos
class TestWatchdog:
    def test_rigged_hang_is_killed_and_retried(self):
        # parallel.hang fires once (decided supervisor-side at
        # dispatch): the first dispatched task stalls, the watchdog
        # kills it within the budget, and the retry completes — so the
        # fan-out still returns every result.
        plan = FaultPlan([FaultSpec("parallel.hang", first_n=1)], seed=0)
        with obs.Tracer() as tracer:
            with injecting(plan):
                start = time.monotonic()
                results = process_map(
                    _square, list(range(4)), jobs=2, task_timeout_s=1.0
                )
                elapsed = time.monotonic() - start
        assert results == [x * x for x in range(4)]
        counters = tracer.metrics_snapshot()["counters"]
        assert counters.get("isolation.watchdog_kill", 0) == 1
        assert counters.get("isolation.task_retry", 0) == 1
        # Killed within (budget + reaction time), not after some
        # multiple of it.
        assert elapsed < 30.0

    def test_hang_without_retries_surfaces_hung_error(self):
        plan = FaultPlan([FaultSpec("parallel.hang", first_n=1)], seed=0)
        with injecting(plan):
            with pytest.raises(WorkerHungError) as info:
                process_map(_square, [7], jobs=1, task_timeout_s=0.8, retries=0)
        assert info.value.classification == "transient"

    def test_heartbeats_keep_slow_worker_alive(self):
        # Total runtime (~0.7 s) far exceeds the 0.4 s stall budget;
        # the heartbeats are what keep the watchdog away.
        assert process_map(
            _slow_with_heartbeats, [1, 2], jobs=2, task_timeout_s=0.4
        ) == [1, 2]

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/statm"), reason="needs Linux /proc"
    )
    def test_memory_cap_kills_oversized_worker(self):
        with pytest.raises(WorkerMemoryError, match="exceeds"):
            process_map(
                _allocate_and_stall,
                [0],
                jobs=1,
                task_timeout_s=30.0,
                max_rss_mb=48.0,
                retries=0,
            )


class TestEnvKnobs:
    @pytest.mark.parametrize("raw", ["nan", "inf", "-1"])
    @pytest.mark.parametrize(
        "knob", ["REPRO_WORKER_TIMEOUT_S", "REPRO_WORKER_MAX_RSS_MB"]
    )
    def test_invalid_value_reads_as_unset(self, monkeypatch, knob, raw):
        # A negative budget or cap would kill every worker at once and a
        # nan one would switch the watchdog off: both mean "unset".
        monkeypatch.setenv(knob, raw)
        assert env_float(knob) is None
        assert process_map(_slow_with_heartbeats, [1], jobs=1) == [1]


#: A supervisor whose two workers are left behind when it is killed:
#: one finishes a short task and idles, the other beats through a
#: long one.
_SUPERVISOR = """
import sys
from repro.resilience.isolation import process_map
from tests.test_resilience_isolation import _record_and_beat

process_map(_record_and_beat, [(sys.argv[1], 0.2), (sys.argv[1], 120.0)], jobs=2)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process; a zombie has exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def _wait_until(predicate, timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.mark.skipif(
    not os.path.exists("/proc/self/stat"), reason="needs Linux /proc"
)
class TestOrphanedWorkers:
    def test_workers_exit_when_supervisor_is_killed(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        path = [str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")]
        supervisor = subprocess.Popen(
            [sys.executable, "-c", _SUPERVISOR, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )

        def pids() -> list[int]:
            return [int(p.stem) for p in tmp_path.glob("*.pid")]

        try:
            assert _wait_until(
                lambda: len(pids()) == 2 and any(tmp_path.glob("*.done")), 120.0
            ), "workers never started"
            time.sleep(0.3)  # let the short task's worker settle into idling
            supervisor.kill()
            supervisor.wait(timeout=30)
            assert _wait_until(
                lambda: not any(_running(pid) for pid in pids()), 5.0
            ), [pid for pid in pids() if _running(pid)]
        finally:
            if supervisor.poll() is None:
                supervisor.kill()
                supervisor.wait(timeout=30)
            for pid in pids():
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
