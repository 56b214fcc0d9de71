"""The one retry loop: every client-side retry, poll and readiness wait.

Three callers share :func:`retry` and its clock:

* :meth:`RemoteRepository._with_retries
  <repro.client.remote.RemoteRepository._with_retries>` — an idempotent
  request's attempts, :func:`backoff` apart, under the optional
  ``retry_budget_seconds``;
* the promotion poll of a failed routed write
  (:class:`~repro.cluster.client.RoutedRepository`), every
  ``WRITE_RETRY_INTERVAL`` for ``write_retry_timeout`` seconds;
* the readiness waits of :mod:`repro.cluster.supervisor`.

:func:`transport_failure` is the one verdict on what is worth another try
(here, or on the next copy holder): the request got no answer from a live
server.  Tests drive the loop on a fake clock by patching this module's
``time``.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, List, NoReturn, Optional, TypeVar

from ..errors import (
    RemoteError,
    RetryBudgetExceededError,
    ServerDrainingError,
    TimeoutExceededError,
)

T = TypeVar("T")

#: The pause before an idempotent request's first retry; it doubles per retry.
BACKOFF = 0.1

#: Cap on one exponential-backoff pause.
MAX_BACKOFF = 2.0


def transport_failure(exc: BaseException) -> bool:
    """Did the request fail in transport rather than get a server's answer?

    True for a dead, reset, refused or timed-out socket (``OSError``,
    :class:`~repro.errors.TimeoutExceededError`), a bare
    :class:`~repro.errors.RemoteError` (a peer that closed mid-request, a
    connection lost mid-stream, attempts run out, a server failure with no
    typed class), a draining daemon and a spent retry budget.  Protocol
    violations and the domain-error taxonomy are answers: neither another
    attempt nor another copy holder can change them.
    """
    if isinstance(
        exc,
        (OSError, TimeoutExceededError, ServerDrainingError, RetryBudgetExceededError),
    ):
        return True
    return type(exc) is RemoteError


def backoff(attempts: int) -> List[float]:
    """The pauses before each of ``attempts`` tries: none, then capped doubling."""
    return [0.0] + [min(BACKOFF * 2**k, MAX_BACKOFF) for k in range(attempts - 1)]


def retry(
    attempt: Callable[[], T],
    pauses: Iterable[float],
    *,
    retryable: Callable[[BaseException], bool] = transport_failure,
    timeout: Optional[float] = None,
    expired: Optional[Callable[[Optional[BaseException]], NoReturn]] = None,
    on_retry: Optional[Callable[[int, float, BaseException], None]] = None,
) -> T:
    """Call ``attempt`` after each of ``pauses`` (seconds) until it returns.

    A failure ``retryable`` rejects propagates at once; after one it
    accepts, the loop takes the next pause and calls again, and when
    ``pauses`` runs out the last failure propagates.  With a ``timeout``
    (counted from the call), a pause that would end at or past it is not
    taken: the loop calls ``expired(last)``, which raises the caller's
    error (``last`` is ``None`` when no try was made).
    ``on_retry(number, pause, last)`` runs before each retry's pause;
    ``number`` counts tries from 1.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    last: Optional[BaseException] = None
    try:
        for number, pause in enumerate(pauses, 1):
            if deadline is not None and time.monotonic() + pause >= deadline:
                assert expired is not None, "a timeout needs an expired() callback"
                expired(last)
            if last is not None and on_retry is not None:
                on_retry(number, pause, last)
            if pause:
                time.sleep(pause)
            try:
                return attempt()
            except BaseException as exc:
                if not retryable(exc):
                    raise
                last = exc
        assert last is not None, "retry() needs at least one pause"
        raise last
    finally:
        # ``last``'s traceback holds this frame, and through it every
        # caller's frame and locals: drop it, or they wait for the cyclic GC.
        last = None
