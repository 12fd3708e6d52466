"""Error taxonomy: classification, compatibility, and the retry ladder."""

import pytest

from repro import obs
from repro.resilience import (
    CacheCorruptionError,
    CalibrationError,
    DegradedError,
    InjectedFaultError,
    MeasurementError,
    ParallelExecutionError,
    PermanentError,
    ReproError,
    TimeoutExceeded,
    TransientError,
    classify,
    is_transient,
    run_ladder,
)
from repro.resilience.errors import DEGRADED, PERMANENT, TRANSIENT


class TestTaxonomy:
    def test_classifications(self):
        assert classify(TransientError("x")) == TRANSIENT
        assert classify(PermanentError("x")) == PERMANENT
        assert classify(DegradedError("x")) == DEGRADED
        assert classify(ReproError("x")) == PERMANENT

    def test_foreign_exceptions_default_permanent(self):
        assert classify(ValueError("x")) == PERMANENT
        assert classify(KeyboardInterrupt()) == PERMANENT
        assert not is_transient(RuntimeError("x"))

    def test_bogus_classification_attribute_is_permanent(self):
        exc = RuntimeError("x")
        exc.classification = "whatever"
        assert classify(exc) == PERMANENT

    def test_site_carried(self):
        exc = TransientError("boom", site="spice.newton")
        assert exc.site == "spice.newton"
        assert TransientError("boom").site is None

    def test_domain_errors_are_transient(self):
        for cls in (
            CacheCorruptionError,
            MeasurementError,
            InjectedFaultError,
            TimeoutExceeded,
        ):
            assert is_transient(cls("x")), cls

    def test_timeout_carries_budget(self):
        exc = TimeoutExceeded("late", timeout_s=2.5)
        assert exc.timeout_s == 2.5

    def test_calibration_error_still_a_valueerror(self):
        with pytest.raises(ValueError):
            raise CalibrationError("bad fit")

    def test_convergence_error_still_a_runtimeerror(self):
        from repro.spice.engine import ConvergenceError

        assert issubclass(ConvergenceError, RuntimeError)
        assert is_transient(ConvergenceError("no convergence"))


class TestParallelExecutionError:
    def test_all_transient_components_make_aggregate_transient(self):
        agg = ParallelExecutionError(
            "2 failed",
            errors=[(0, "a", TransientError("x")), (1, "b", MeasurementError("y"))],
        )
        assert is_transient(agg)
        assert len(agg.errors) == 2

    def test_any_permanent_component_makes_aggregate_permanent(self):
        agg = ParallelExecutionError(
            "2 failed",
            errors=[(0, "a", TransientError("x")), (1, "b", ValueError("y"))],
        )
        assert not is_transient(agg)


class TestRunLadder:
    def test_first_rung_success_is_silent(self):
        with obs.Tracer() as tracer:
            result = run_ladder("test.site", ("a", "b"), lambda i, rung: rung)
        assert result == "a"
        assert "resilience.retry" not in tracer.counters

    def test_advances_on_transient_and_counts(self):
        attempts = []

        def flaky(index, rung):
            attempts.append((index, rung))
            if index < 2:
                raise TransientError("not yet")
            return rung

        with obs.Tracer() as tracer:
            result = run_ladder("test.site", ("a", "b", "c"), flaky)
        assert result == "c"
        assert attempts == [(0, "a"), (1, "b"), (2, "c")]
        assert tracer.counters["resilience.retry"] == 2
        assert tracer.counters["resilience.retry.test.site"] == 2
        assert tracer.counters["resilience.retry.test.site.rung1"] == 1
        assert tracer.counters["resilience.retry.test.site.rung2"] == 1
        assert tracer.counters["resilience.recovered.test.site"] == 1

    def test_exhaustion_reraises_last_and_counts(self):
        def always(index, rung):
            raise TransientError(f"rung {index}")

        with obs.Tracer() as tracer:
            with pytest.raises(TransientError, match="rung 2"):
                run_ladder("test.site", (1, 2, 3), always)
        assert tracer.counters["resilience.exhausted.test.site"] == 1
        assert "resilience.recovered.test.site" not in tracer.counters

    def test_non_retryable_propagates_immediately(self):
        attempts = []

        def fail_hard(index, rung):
            attempts.append(index)
            raise ValueError("config, not convergence")

        with pytest.raises(ValueError):
            run_ladder("test.site", (1, 2, 3), fail_hard)
        assert attempts == [0]

    def test_custom_retry_on(self):
        def raises_runtime(index, rung):
            if index == 0:
                raise RuntimeError("legacy error")
            return rung

        result = run_ladder(
            "test.site", ("a", "b"), raises_runtime, retry_on=RuntimeError
        )
        assert result == "b"

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            run_ladder("test.site", (), lambda i, r: r)
