"""Shared fixtures."""

from __future__ import annotations

from typing import List

import pytest

from repro.scheduler.jobs import JobState
from repro.util.clock import SimClock
from repro.util.events import EventLog
from repro.world import World


@pytest.fixture(autouse=True, scope="session")
def _subscriber_errors():
    """Record each error an EventLog subscriber raises, anywhere.

    The log isolates subscribers, so a raising subscriber (a journal
    checkpointer, the metrics bridge) only leaves a ``subscriber_error``
    event behind and the run carries on without its records. Installed
    for the whole session, before any class- or module-scoped fixture
    builds a world; yields the list the errors go to.
    """
    errors: List[str] = []
    original = EventLog._record_subscriber_error

    def record(log, sub, event, exc):
        errors.append(
            f"{getattr(sub, '__qualname__', repr(sub))} raised "
            f"{type(exc).__name__}: {exc} on {event.source}/{event.kind}"
        )
        original(log, sub, event, exc)

    EventLog._record_subscriber_error = record
    yield errors
    EventLog._record_subscriber_error = original


@pytest.fixture(autouse=True)
def fail_on_subscriber_error(request, _subscriber_errors):
    """Fail the test during whose setup or body a subscriber raised.

    Errors recorded while a class- or module-scoped fixture was set up
    for this test count too. A test that makes a subscriber raise on
    purpose opts out with ``@pytest.mark.subscriber_errors``.
    """
    yield
    errors = list(_subscriber_errors)
    _subscriber_errors.clear()
    if errors and request.node.get_closest_marker("subscriber_errors") is None:
        shown = "\n".join(errors[:5])
        pytest.fail(
            f"{len(errors)} EventLog subscriber error(s), first:\n{shown}",
            pytrace=False,
        )


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def world() -> World:
    return World()


@pytest.fixture
def run_until_started():
    """``run_until_started(scheduler, job)`` fires clock events until a
    submitted batch job leaves the queue, or no event is left."""

    def run(scheduler, job) -> None:
        clock = scheduler.clock
        while job.state is JobState.PENDING:
            nxt = clock.next_event_time()
            if nxt is None:
                break
            clock.run_until(nxt)

    return run
