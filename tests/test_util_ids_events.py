"""Unit tests for id generation, content hashing, and the event log."""

import pytest

from repro.util.events import EventLog
from repro.util.hashing import content_hash
from repro.util.ids import IdFactory, deterministic_uuid


class TestDeterministicUuid:
    def test_same_parts_same_uuid(self):
        assert deterministic_uuid("a", "b") == deterministic_uuid("a", "b")

    def test_different_parts_differ(self):
        assert deterministic_uuid("a", "b") != deterministic_uuid("a", "c")

    def test_part_boundaries_matter(self):
        # ("ab", "c") must not collide with ("a", "bc")
        assert deterministic_uuid("ab", "c") != deterministic_uuid("a", "bc")

    def test_requires_parts(self):
        with pytest.raises(ValueError):
            deterministic_uuid()

    def test_uuid_shape(self):
        value = deterministic_uuid("x")
        assert len(value) == 36 and value.count("-") == 4


class TestIdFactory:
    def test_sequential_ids(self):
        factory = IdFactory("task")
        assert factory.next_id() == "task-000001"
        assert factory.next_id() == "task-000002"

    def test_uuid_deterministic_across_instances(self):
        a = IdFactory("ns")
        b = IdFactory("ns")
        assert a.uuid() == b.uuid()

    def test_empty_namespace_rejected(self):
        with pytest.raises(ValueError):
            IdFactory("")

    def test_count_tracks_issued(self):
        factory = IdFactory("x")
        factory.next_id()
        factory.uuid()
        assert factory.count == 2


class TestContentHash:
    def test_deterministic(self):
        assert content_hash("blob", "hello") == content_hash("blob", "hello")

    def test_kind_separates_namespaces(self):
        assert content_hash("blob", "x") != content_hash("tree", "x")

    def test_bytes_and_str_equivalent(self):
        assert content_hash("blob", "hi") == content_hash("blob", b"hi")


class TestEventLog:
    def test_emit_and_query(self):
        log = EventLog()
        log.emit(1.0, "faas", "task.submitted", task_id="t1")
        log.emit(2.0, "slurm", "job.started", job_id="j1")
        assert len(log) == 2
        faas_events = log.query(source="faas")
        assert len(faas_events) == 1
        assert faas_events[0].data["task_id"] == "t1"

    def test_query_by_kind_and_time(self):
        log = EventLog()
        for t in (1.0, 2.0, 3.0):
            log.emit(t, "s", "tick")
        assert len(log.query(kind="tick", since=1.5, until=2.5)) == 1

    def test_subscription_and_unsubscribe(self):
        log = EventLog()
        seen = []
        unsubscribe = log.subscribe(lambda e: seen.append(e.kind))
        log.emit(0.0, "s", "first")
        unsubscribe()
        log.emit(0.0, "s", "second")
        assert seen == ["first"]

    def test_last_filters_by_kind(self):
        log = EventLog()
        log.emit(1.0, "s", "a")
        log.emit(2.0, "s", "b")
        log.emit(3.0, "s", "a")
        assert log.last("a").time == 3.0
        assert log.last().kind == "a"
        assert log.last("missing") is None

    def test_events_are_immutable(self):
        log = EventLog()
        event = log.emit(0.0, "s", "k", x=1)
        with pytest.raises(AttributeError):
            event.kind = "other"  # type: ignore[misc]


class TestEventOrdering:
    def test_seq_is_monotonic(self):
        log = EventLog()
        events = [log.emit(5.0, "s", "k") for _ in range(4)]
        assert [e.seq for e in events] == sorted(e.seq for e in events)
        assert len({e.seq for e in events}) == 4

    def test_same_timestamp_totally_ordered(self):
        log = EventLog()
        first = log.emit(1.0, "s", "a")
        second = log.emit(1.0, "s", "b")
        assert first < second
        assert sorted([second, first]) == [first, second]

    def test_sort_key_orders_by_time_then_seq(self):
        log = EventLog()
        late = log.emit(2.0, "s", "late")
        early = log.emit(1.0, "s", "early")  # emitted after, but earlier time
        assert sorted([late, early]) == [early, late]


@pytest.mark.subscriber_errors
class TestSubscriberIsolation:
    def test_raising_subscriber_does_not_abort_delivery(self):
        log = EventLog()
        seen = []

        def bad(event):
            if event.kind == "tick":
                raise RuntimeError("boom")

        log.subscribe(bad)
        log.subscribe(lambda e: seen.append(e.kind))
        log.emit(0.0, "s", "tick")  # must not raise into the emitter
        assert "tick" in seen

    def test_failure_recorded_as_subscriber_error_event(self):
        log = EventLog()

        def bad(event):
            if event.kind == "tick":
                raise ValueError("nope")

        log.subscribe(bad)
        log.emit(0.0, "s", "tick")
        errors = log.query(source="telemetry", kind="subscriber_error")
        assert len(errors) == 1
        assert errors[0].data["during"] == "s/tick"
        assert "ValueError" in errors[0].data["error"]

    def test_always_raising_subscriber_bounded(self):
        # a subscriber that raises on *every* event (including the error
        # event) must not recurse the log into the ground
        log = EventLog()

        def always_bad(event):
            raise RuntimeError("every time")

        log.subscribe(always_bad)
        log.emit(0.0, "s", "tick")
        # one original + one error event for it; the failure while
        # delivering the error event is swallowed
        assert len(log) == 2
        kinds = [e.kind for e in log]
        assert kinds == ["tick", "subscriber_error"]
