"""Write-ahead run journal: crash-safe progress records for flows.

An hours-long sweep must survive ``kill -9``, an OOM kill, or a power
cut without losing completed work.  The artifact cache already
persists every expensive stage output; what is missing after a crash
is the *ledger* — which units of work had completed, under which cache
keys, with which result digests.  :class:`RunJournal` is that ledger:
an append-only JSONL file where every record is committed with
``write + flush + fsync`` before the flow proceeds, so the journal on
disk is always a prefix of the truth (the classic write-ahead rule).

Record kinds written by the pipeline:

* ``run_start`` — header: journal format version plus a digest of the
  run configuration, so ``--resume`` refuses a journal recorded by a
  different command line;
* ``stage`` — a cached stage of
  :meth:`repro.core.flow.CryoSynthesisFlow.run` completed (cache key,
  result digest, hit/miss);
* ``scenario`` — one fully signed-off scenario result was committed
  to the artifact cache (cache key + result digest);
* ``guard_violation`` — a stage-boundary guard quarantined an
  artifact (see :mod:`repro.resilience.guards`).

Resume contract: :meth:`RunJournal.resume` loads every committed
record (tolerating — and truncating — a torn tail from a crash
mid-write), and :func:`repro.core.flow.run_scenarios` replays any
scenario whose journaled digest still matches the cached artifact,
re-executing only the missing work.  Because the flow itself is
deterministic, a killed-and-resumed sweep produces ``--json`` output
byte-identical to an uninterrupted run.

The ``journal.crash`` fault site (:mod:`repro.resilience.faults`)
raises :class:`InjectedCrashError` immediately *after* a commit,
simulating process death landing between two records.

Single-writer rule: a journal path is owned by exactly one live
writer.  ``create``/``resume`` take an exclusive ``<path>.lock`` file
(pid inside); a second concurrent writer gets a clear
:class:`JournalLockedError` instead of silently interleaving frames,
and a stale lock left by ``kill -9`` (dead pid) is reclaimed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pickle
import threading
from pathlib import Path
from typing import Any, Iterator, Mapping

from .. import obs
from . import faults
from .errors import (
    InjectedCrashError,
    JournalError,
    JournalLockedError,
    JournalMismatchError,
)

#: Bump when the record layout changes incompatibly; resume refuses
#: journals written by a *newer* format.
JOURNAL_VERSION = 1


def artifact_digest(value: Any) -> str:
    """Content digest of an arbitrary (picklable) artifact.

    Used to pair a journal record with the cached artifact it
    describes: on resume the cached value is re-digested and must
    match, otherwise the work is conservatively re-executed.
    """
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(payload).hexdigest()[:32]


def config_fingerprint(config: Mapping[str, Any] | None) -> str | None:
    """Stable digest of a JSON-serializable run configuration."""
    if config is None:
        return None
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness check for a lock-holder pid."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


def acquire_writer_lock(path: Path) -> Path:
    """Take the exclusive writer lock for a journal path.

    Creates ``<path>.lock`` atomically (``O_CREAT | O_EXCL``) with the
    writer's pid inside.  A second live writer — a concurrent run, or
    the same process opening the journal twice — raises
    :class:`JournalLockedError` instead of interleaving frames and
    poisoning every later ``--resume``.  A lock whose pid no longer
    runs (the ``kill -9`` the journal exists to survive) is stale and
    reclaimed.
    """
    lock = path.with_name(path.name + ".lock")
    for _ in range(2):  # one reclaim attempt for a stale lock
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            try:
                owner = int(Path(lock).read_text().strip() or "0")
            except (OSError, ValueError):
                owner = 0
            if owner and _pid_alive(owner):
                raise JournalLockedError(
                    f"journal {path} is already open for writing by "
                    f"process {owner} (lock file {lock}); two writers "
                    f"on one journal would interleave records and "
                    f"poison --resume"
                ) from None
            obs.count("journal.lock_reclaimed")
            with contextlib.suppress(OSError):
                os.unlink(lock)
            continue
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{os.getpid()}\n")
        return lock
    raise JournalLockedError(f"could not acquire journal lock {lock}")


def load_records(path: str | os.PathLike) -> tuple[list[dict], int]:
    """Read committed records; returns ``(records, good_prefix_bytes)``.

    A crash can tear the final record (partial line, no newline) or —
    with a hostile disk — corrupt a middle line.  Parsing stops at the
    first incomplete or undecodable line: everything before it is the
    committed prefix, everything after it is lost (write-ahead
    semantics guarantee the lost suffix was never acted upon).
    """
    data = Path(path).read_bytes()
    records: list[dict] = []
    offset = 0
    for line in io.BytesIO(data):
        if not line.endswith(b"\n"):
            break  # torn tail from a crash mid-write
        try:
            record = json.loads(line)
        except ValueError:
            break
        if not isinstance(record, dict) or "kind" not in record:
            break
        records.append(record)
        offset += len(line)
    if offset != len(data):
        obs.count("journal.truncated")
    return records, offset


class RunJournal:
    """Append-only, fsync'd JSONL ledger of completed flow work.

    Use :meth:`create` for a fresh run and :meth:`resume` to reopen an
    interrupted one; both are context managers.  :meth:`record` is
    thread-safe.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        records: list[dict],
        stream,
        lock_path: Path | None = None,
    ):
        self.path = Path(path)
        self.records = records
        self._stream = stream
        self._lock = threading.Lock()
        #: Writer-lock file owned by this instance (``None`` when the
        #: journal was constructed directly, e.g. by tests).
        self._lock_path = lock_path

    # -- constructors ---------------------------------------------------
    @classmethod
    def create(
        cls, path: str | os.PathLike, config: Mapping[str, Any] | None = None
    ) -> "RunJournal":
        """Start a fresh journal (truncating any previous file)."""
        path = Path(path)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        # Lock before truncating: losing the race must not destroy the
        # live writer's file.
        lock_path = acquire_writer_lock(path)
        journal = cls(path, [], open(path, "w", encoding="utf-8"), lock_path)
        journal.record(
            "run_start",
            version=JOURNAL_VERSION,
            config=config_fingerprint(config),
        )
        return journal

    @classmethod
    def resume(
        cls, path: str | os.PathLike, config: Mapping[str, Any] | None = None
    ) -> "RunJournal":
        """Reopen an interrupted run's journal for appending.

        Verifies the header: the journal must carry a compatible
        format version and, when ``config`` is given, the same
        configuration digest the original run recorded — resuming with
        different circuits, scenarios, or knobs would silently splice
        incompatible results.  A torn tail (crash mid-write) is
        truncated away so subsequent appends stay parseable.
        """
        path = Path(path)
        if not path.exists():
            raise JournalError(f"no such journal: {path}")
        lock_path = acquire_writer_lock(path)
        try:
            records, good_bytes = load_records(path)
            if not records or records[0].get("kind") != "run_start":
                raise JournalError(f"{path} is not a run journal (missing header)")
            header = records[0]
            version = header.get("version")
            if not isinstance(version, int) or version > JOURNAL_VERSION:
                raise JournalMismatchError(
                    f"{path} uses journal format {version!r}; this build "
                    f"supports up to {JOURNAL_VERSION}"
                )
            fingerprint = config_fingerprint(config)
            recorded = header.get("config")
            if (
                fingerprint is not None
                and recorded is not None
                and recorded != fingerprint
            ):
                raise JournalMismatchError(
                    f"{path} was recorded by a different run configuration "
                    f"({recorded} != {fingerprint}); re-run with the same "
                    f"arguments or start a fresh --journal"
                )
            # Drop the torn tail before appending new records after it.
            if good_bytes != path.stat().st_size:
                with open(path, "r+b") as fh:
                    fh.truncate(good_bytes)
        except BaseException:
            # A refused resume must not leave the path locked against
            # the corrected retry.
            with contextlib.suppress(OSError):
                os.unlink(lock_path)
            raise
        obs.count("journal.resumed")
        return cls(path, records, open(path, "a", encoding="utf-8"), lock_path)

    # -- recording ------------------------------------------------------
    def record(self, kind: str, **fields: Any) -> dict:
        """Commit one record: serialize, append, flush, fsync.

        Only after the fsync returns is the record considered
        committed — a crash at any earlier point leaves the journal's
        good prefix exactly describing the work that was durably
        finished.  The ``journal.crash`` fault site fires *after* the
        commit, modeling death between records.
        """
        record = {"kind": kind, **fields}
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with self._lock:
            if self._stream.closed:
                raise JournalError(f"journal {self.path} is closed")
            self._stream.write(line + "\n")
            self._stream.flush()
            os.fsync(self._stream.fileno())
            self.records.append(record)
        obs.count("journal.record")
        obs.count(f"journal.record.{kind}")
        if faults.should_fire("journal.crash"):
            raise InjectedCrashError(
                f"injected crash after journal record #{len(self.records)} "
                f"({kind})",
                site="journal.crash",
            )
        return record

    # -- replay ---------------------------------------------------------
    def completed_scenarios(self) -> dict[str, str]:
        """Cache key -> result digest of every journaled scenario."""
        return {
            r["key"]: r["digest"]
            for r in self.records
            if r.get("kind") == "scenario" and "key" in r and "digest" in r
        }

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if not self._stream.closed:
                with contextlib.suppress(OSError, ValueError):
                    self._stream.flush()
                    os.fsync(self._stream.fileno())
                self._stream.close()
            if self._lock_path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(self._lock_path)
                self._lock_path = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __iter__(self) -> Iterator[dict]:
        return iter(list(self.records))

    def __repr__(self) -> str:
        return f"RunJournal({str(self.path)!r}, records={len(self.records)})"
