"""The one retry loop (:mod:`repro.client.retry`) and its predicate."""

import gc
import weakref

import pytest

from repro.client.retry import backoff, retry, transport_failure
from repro.errors import (
    ClusterError,
    NotPrimaryError,
    ProtocolError,
    RemoteError,
    RetryBudgetExceededError,
    ServerDrainingError,
    TimeoutExceededError,
    VersionNotFoundError,
)


@pytest.mark.parametrize("error, transport", [
    (ConnectionRefusedError("refused"), True),
    (BrokenPipeError("pipe"), True),
    (TimeoutExceededError("slow"), True),
    (RemoteError("server closed the connection"), True),
    (ServerDrainingError("draining"), True),
    (RetryBudgetExceededError("spent"), True),
    (ProtocolError("expected STATS_OK, got BACKUP_READY"), False),
    (NotPrimaryError("fenced"), False),
    (ClusterError("no map"), False),
    (VersionNotFoundError("no version 9"), False),
    (ValueError("a bug"), False),
])
def test_transport_failure(error, transport):
    assert transport_failure(error) is transport


def test_backoff_doubles_from_a_first_free_try_up_to_its_cap():
    assert backoff(1) == [0.0]
    assert backoff(4) == [0.0, 0.1, 0.2, 0.4]
    assert max(backoff(20)) == 2.0


def test_attempts_run_out_on_the_last_failure(retry_clock):
    calls = []

    def attempt():
        calls.append(retry_clock.now)
        raise ConnectionResetError(f"reset {len(calls)}")

    with pytest.raises(ConnectionResetError, match="reset 3"):
        retry(attempt, backoff(3))
    assert calls == [0.0, 0.1, pytest.approx(0.3)]


def test_an_answer_is_not_retried(retry_clock):
    calls = []

    def attempt():
        calls.append(1)
        raise VersionNotFoundError("no such version")

    with pytest.raises(VersionNotFoundError):
        retry(attempt, backoff(5))
    assert calls == [1] and retry_clock.sleeps == []


def test_a_pause_past_the_timeout_is_not_taken(retry_clock):
    retries = []

    def gave_up(last):
        raise ClusterError(f"gave up after {last}")

    def attempt():
        raise OSError("down")

    with pytest.raises(ClusterError, match="gave up after down"):
        retry(
            attempt, [0.0, 0.25, 0.25, 0.25], timeout=0.6, expired=gave_up,
            on_retry=lambda number, pause, last: retries.append(number),
        )
    assert retry_clock.sleeps == [0.25, 0.25]
    assert retries == [2, 3]


def test_a_retried_call_leaves_its_callers_locals_to_refcounting(retry_clock):
    """A kept failure's traceback holds the loop's frame and, through it,
    every caller's: the loop must drop it, or a caller's buffers wait for
    the cyclic collector (seen as +40 MiB of peak RSS on a cluster pass)."""

    class Buffer:
        pass

    def caller():
        buffer = Buffer()
        failures = [OSError("refused")]

        def attempt():
            if failures:
                raise failures.pop()
            return "ok"

        assert retry(attempt, backoff(2)) == "ok"
        return weakref.ref(buffer)

    gc.disable()
    try:
        assert caller()() is None
    finally:
        gc.enable()
