"""Run journal: write-ahead semantics, torn tails, resume replay.

The headline contract (ISSUE 4): a sweep killed mid-run and resumed
from its journal produces a final report *byte-identical* to an
uninterrupted run's.
"""

import json

import pytest

from repro import obs
from repro.benchgen import build_circuit
from repro.core import ArtifactCache, DesignContext, run_scenarios, using_cache
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    InjectedCrashError,
    JournalError,
    JournalLockedError,
    JournalMismatchError,
    RunJournal,
    artifact_digest,
    injecting,
    load_records,
)
from repro.charlib.engine import default_library


@pytest.fixture(scope="module")
def library():
    return default_library(10.0)


class TestRecordRoundtrip:
    def test_create_record_iterate(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.create(path, {"cmd": "evaluate"}) as journal:
            journal.record("scenario", key="k1", digest="d1")
            journal.record("scenario", key="k2", digest="d2")
        records = list(RunJournal.resume(path, {"cmd": "evaluate"}))
        assert [r["kind"] for r in records] == ["run_start", "scenario", "scenario"]
        assert records[0]["version"] == 1

    def test_records_are_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.create(path) as journal:
            journal.record("scenario", key="k", digest="d")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert all(isinstance(json.loads(line), dict) for line in lines)

    def test_completed_scenarios_maps_key_to_digest(self, tmp_path):
        with RunJournal.create(tmp_path / "j") as journal:
            journal.record("scenario", key="k1", digest="d1")
            journal.record("stage", name="c2rs", key="s1", digest="x")
            assert journal.completed_scenarios() == {"k1": "d1"}

    def test_record_after_close_raises(self, tmp_path):
        journal = RunJournal.create(tmp_path / "j")
        journal.close()
        with pytest.raises(JournalError):
            journal.record("scenario", key="k", digest="d")


class TestTornTail:
    def test_torn_final_line_is_dropped_and_truncated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.create(path) as journal:
            journal.record("scenario", key="k1", digest="d1")
        with open(path, "a") as fh:
            fh.write('{"kind": "scenario", "key": "k2"')  # no newline: torn
        records, good = load_records(path)
        assert [r["kind"] for r in records] == ["run_start", "scenario"]
        assert good < path.stat().st_size
        resumed = RunJournal.resume(path)
        assert path.stat().st_size == good  # tail truncated away
        resumed.record("scenario", key="k3", digest="d3")
        resumed.close()
        records, good = load_records(path)
        assert [r.get("key") for r in records] == [None, "k1", "k3"]
        assert good == path.stat().st_size

    def test_undecodable_middle_line_stops_parsing(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            '{"kind": "run_start", "version": 1, "config": null}\n'
            "garbage garbage\n"
            '{"kind": "scenario", "key": "k"}\n'
        )
        records, good = load_records(path)
        assert len(records) == 1  # everything after the bad line is lost


class TestResumeValidation:
    def test_missing_journal(self, tmp_path):
        with pytest.raises(JournalError, match="no such journal"):
            RunJournal.resume(tmp_path / "absent.jsonl")

    def test_not_a_journal(self, tmp_path):
        path = tmp_path / "junk"
        path.write_text('{"kind": "scenario"}\n')
        with pytest.raises(JournalError, match="missing header"):
            RunJournal.resume(path)

    def test_config_mismatch_refused(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal.create(path, {"circuits": ["ctrl"]}).close()
        with pytest.raises(JournalMismatchError, match="different run configuration"):
            RunJournal.resume(path, {"circuits": ["adder"]})

    def test_newer_format_refused(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "run_start", "version": 99, "config": null}\n')
        with pytest.raises(JournalMismatchError, match="journal format"):
            RunJournal.resume(path)

    def test_resume_without_config_accepts_any(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal.create(path, {"circuits": ["ctrl"]}).close()
        assert RunJournal.resume(path).records


class TestWriterLock:
    """Exactly one live writer per journal path (ISSUE 8 satellite)."""

    def test_second_create_refused_while_first_writes(self, tmp_path):
        path = tmp_path / "run.jsonl"
        first = RunJournal.create(path, {"cmd": "serve"})
        try:
            first.record("job_submit", key="k1")
            with pytest.raises(JournalLockedError, match="already open"):
                RunJournal.create(path, {"cmd": "serve"})
            # The loser did not truncate the live writer's records.
            assert [r["kind"] for r in load_records(path)[0]] == \
                ["run_start", "job_submit"]
        finally:
            first.close()

    def test_resume_refused_while_writer_is_live(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.create(path) as journal:
            journal.record("scenario", key="k", digest="d")
            with pytest.raises(JournalLockedError):
                RunJournal.resume(path)

    def test_close_releases_the_lock(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal.create(path).close()
        assert not (tmp_path / "run.jsonl.lock").exists()
        with RunJournal.resume(path) as journal:  # no error
            journal.record("scenario", key="k", digest="d")

    def test_stale_lock_from_dead_pid_is_reclaimed(self, tmp_path):
        # The kill -9 the journal exists to survive leaves the lock
        # file behind; a pid that no longer runs must not wedge resume.
        path = tmp_path / "run.jsonl"
        RunJournal.create(path).close()
        (tmp_path / "run.jsonl.lock").write_text("999999999\n")
        with RunJournal.resume(path) as journal:
            journal.record("scenario", key="k", digest="d")
        assert not (tmp_path / "run.jsonl.lock").exists()

    def test_garbage_lock_file_is_reclaimed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal.create(path).close()
        (tmp_path / "run.jsonl.lock").write_text("not-a-pid\n")
        with RunJournal.resume(path):
            pass


class TestCrashSite:
    def test_journal_crash_fires_after_commit(self, tmp_path):
        path = tmp_path / "run.jsonl"
        plan = FaultPlan([FaultSpec("journal.crash", first_n=1, after=1)], seed=0)
        with injecting(plan):
            journal = RunJournal.create(path)  # after=1 skips the header
            with pytest.raises(InjectedCrashError):
                journal.record("scenario", key="k1", digest="d1")
            journal.close()
        # The record the crash interrupted *was* committed first.
        records, _ = load_records(path)
        assert records[-1] == {"kind": "scenario", "key": "k1", "digest": "d1"}


def _journaled_digests(results) -> list[str]:
    """Digests ``run_scenarios`` journals: its healthy results only.

    Degraded or guard-flagged results are never journaled.  The
    module's library is characterized under the ambient fault plan, so
    tier-1 sees healthy results and the chaos job degraded ones.
    """
    return sorted(
        artifact_digest(result)
        for result in results.values()
        if not (result.is_degraded or result.guard_violations)
    )


class TestResumeDeterminism:
    """Kill after the first scenario; resume; outputs byte-identical."""

    def _report(self, results) -> bytes:
        return json.dumps(
            {s: r.to_dict() for s, r in results.items()}, indent=2
        ).encode()

    def test_killed_and_resumed_sweep_matches_uninterrupted(
        self, tmp_path, library
    ):
        aig = build_circuit("ctrl", "small")
        scenarios = ["baseline", "p_d_a"]

        # Reference: uninterrupted run, no journal.
        with using_cache(ArtifactCache()):
            context = DesignContext.from_library(library)
            reference = self._report(
                run_scenarios(aig, context=context, scenarios=scenarios)
            )

        # Interrupted run: die right after stage 1's journal record
        # commits (after=1 skips the run_start header commit) — the
        # stage output is already in the disk cache at that point.
        cache_dir = tmp_path / "cache"
        path = tmp_path / "run.jsonl"
        config = {"circuits": ["ctrl"]}
        plan = FaultPlan([FaultSpec("journal.crash", first_n=1, after=1)], seed=0)
        with using_cache(ArtifactCache(cache_dir=cache_dir)):
            context = DesignContext.from_library(library)
            with injecting(plan), RunJournal.create(path, config) as journal:
                with pytest.raises(InjectedCrashError):
                    run_scenarios(
                        aig, context=context, scenarios=scenarios, journal=journal
                    )
            committed = [r["kind"] for r in journal.records]
            assert committed[:2] == ["run_start", "stage"]
            assert "scenario" not in committed  # died mid-sweep

        # Resume in a *fresh* cache process-alike (only the disk tier
        # survives a real kill -9) and finish the sweep.
        with using_cache(ArtifactCache(cache_dir=cache_dir)):
            context = DesignContext.from_library(library)
            with RunJournal.resume(path, config) as journal:
                resumed = run_scenarios(
                    aig, context=context, scenarios=scenarios, journal=journal
                )
            # Exactly the healthy results are journaled.
            assert sorted(journal.completed_scenarios().values()) == (
                _journaled_digests(resumed)
            )
        assert self._report(resumed) == reference

    def test_replay_skips_recomputation(self, tmp_path, library):
        aig = build_circuit("ctrl", "small")
        path = tmp_path / "run.jsonl"
        with using_cache(ArtifactCache(cache_dir=tmp_path / "cache")):
            context = DesignContext.from_library(library)
            with RunJournal.create(path) as journal:
                first = run_scenarios(
                    aig, context=context, scenarios=["baseline"], journal=journal
                )
            journaled = _journaled_digests(first)
            assert sorted(journal.completed_scenarios().values()) == journaled
            with RunJournal.resume(path) as journal, obs.Tracer() as tracer:
                again = run_scenarios(
                    aig, context=context, scenarios=["baseline"], journal=journal
                )
            # A healthy result is replayed from the cache, not
            # recomputed, and journals no duplicate scenario record; a
            # degraded one was never journaled, so it is recomputed.
            # Either way the result is the same.
            assert tracer.counters.get("journal.replayed", 0) == len(journaled)
            assert artifact_digest(again["baseline"]) == artifact_digest(
                first["baseline"]
            )
            assert self._report(again) == self._report(first)
            assert sorted(journal.completed_scenarios().values()) == journaled

    def test_digest_mismatch_forces_recompute(self, tmp_path, library):
        aig = build_circuit("ctrl", "small")
        path = tmp_path / "run.jsonl"
        with using_cache(ArtifactCache(cache_dir=tmp_path / "cache")):
            context = DesignContext.from_library(library)
            with RunJournal.create(path) as journal:
                run_scenarios(
                    aig, context=context, scenarios=["baseline"], journal=journal
                )
        # Same journal, different (empty) cache: digests cannot match,
        # so the scenario recomputes instead of trusting stale records.
        with using_cache(ArtifactCache()):
            context = DesignContext.from_library(library)
            with RunJournal.resume(path) as journal:
                results = run_scenarios(
                    aig, context=context, scenarios=["baseline"], journal=journal
                )
        assert results["baseline"].num_gates > 0


class TestScenarioResultStore:
    """Only the journal reads scenario results back from the cache."""

    @pytest.mark.no_chaos  # injected disk corruption / degraded vetoes change what is cached
    def test_only_a_journaled_run_caches_scenario_results(self, tmp_path, library):
        aig = build_circuit("ctrl", "small")
        scenarios = ["baseline", "p_d_a"]
        journaled_dir = tmp_path / "journaled"
        with using_cache(ArtifactCache(cache_dir=journaled_dir)):
            context = DesignContext.from_library(library)
            with RunJournal.create(tmp_path / "run.jsonl") as journal:
                run_scenarios(aig, context=context, scenarios=scenarios, journal=journal)
            keys = list(journal.completed_scenarios())
        assert len(keys) == len(scenarios)
        assert all(ArtifactCache(cache_dir=journaled_dir).get(key) is not None for key in keys)

        plain_dir = tmp_path / "plain"
        with using_cache(ArtifactCache(cache_dir=plain_dir)):
            context = DesignContext.from_library(library)
            run_scenarios(aig, context=context, scenarios=scenarios)
        # The stages were cached on disk, the scenario results were not.
        assert list(plain_dir.glob("*.pkl"))
        assert all(ArtifactCache(cache_dir=plain_dir).get(key) is None for key in keys)
