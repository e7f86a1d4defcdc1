"""Thread-safe circuit breaker guarding the process-executor tier.

The process tier is the fastest way to answer a query and the most
expensive way to fail one: a crashed worker pool costs a failed run
that the recovery ladder repeats on the next tier, and a pool that keeps
crashing (OOM killer, cgroup limits, a poisoned shared segment) costs a
failed run *per request* while delivering nothing.
The breaker converts that repeated-failure pattern into a cheap local
decision — after ``failure_threshold`` consecutive failures the breaker
*opens* and requests route straight to the thread tier; after
``reset_timeout`` seconds it *half-opens* and lets ``half_open_probes``
requests through to test recovery, closing again on the first success.

All transitions are recorded with timestamps and causes so the
:class:`~repro.serve.report.ServiceReport` can replay the breaker's
history after :meth:`~repro.serve.service.InferenceService.drain`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass
class BreakerTransition:
    """One state change, with the clock reading and the cause."""

    at: float
    from_state: str
    to_state: str
    reason: str

    def __str__(self) -> str:
        return f"{self.from_state}->{self.to_state} ({self.reason})"


class CircuitBreaker:
    """Consecutive-failure breaker with half-open probing.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that open the breaker.
    reset_timeout:
        Seconds an open breaker waits before half-opening.
    half_open_probes:
        Probe requests admitted while half-open; the first success closes
        the breaker, the first failure re-opens it (pending probes keep
        their reserved slots — their verdicts just arrive after the
        transition and are ignored by then).
    clock:
        Injectable monotonic clock, for deterministic tests.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout: float = 1.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self.transitions: List[BreakerTransition] = []

    # ------------------------------------------------------------------ #

    def _transition(self, to_state: str, reason: str) -> None:
        """Record and apply a state change; caller holds the lock."""
        self.transitions.append(
            BreakerTransition(self._clock(), self._state, to_state, reason)
        )
        self._state = to_state
        if to_state == OPEN:
            self._opened_at = self._clock()
            self._failures = 0
        elif to_state == HALF_OPEN:
            self._probes_in_flight = 0
        elif to_state == CLOSED:
            self._failures = 0

    @property
    def state(self) -> str:
        """Current state; an expired open window reads as half-open."""
        with self._lock:
            if (
                self._state == OPEN
                and self._clock() - self._opened_at >= self.reset_timeout
            ):
                self._transition(HALF_OPEN, "reset timeout elapsed")
            return self._state

    @property
    def opens(self) -> int:
        """How many times the breaker has opened so far."""
        with self._lock:
            return sum(1 for t in self.transitions if t.to_state == OPEN)

    def allow(self) -> bool:
        """May the guarded tier be attempted right now?

        Open → half-open promotion happens here (time-based), and a
        half-open ``allow()`` reserves one probe slot, so concurrent
        callers cannot stampede a recovering pool.
        """
        with self._lock:
            if self._state == OPEN:
                if self._clock() - self._opened_at >= self.reset_timeout:
                    self._transition(HALF_OPEN, "reset timeout elapsed")
                else:
                    return False
            if self._state == HALF_OPEN:
                if self._probes_in_flight >= self.half_open_probes:
                    return False
                self._probes_in_flight += 1
                return True
            return True

    def release_probe(self) -> None:
        """Hand back a half-open probe slot whose attempt was abandoned
        (e.g. the request's deadline expired before the guarded tier
        ran), so an inconclusive probe cannot starve recovery."""
        with self._lock:
            if self._state == HALF_OPEN and self._probes_in_flight > 0:
                self._probes_in_flight -= 1

    def record_success(self) -> None:
        """A guarded attempt succeeded: close (half-open) or stay closed."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._transition(CLOSED, "probe succeeded")
            elif self._state == CLOSED:
                self._failures = 0

    def record_failure(self, reason: str = "failure") -> None:
        """A guarded attempt failed: count toward opening, or re-open."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._transition(OPEN, f"probe failed: {reason}")
            elif self._state == CLOSED:
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._transition(
                        OPEN,
                        f"{self._failures} consecutive failures "
                        f"(last: {reason})",
                    )
            # OPEN: a stale verdict from before the transition; ignore.

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"threshold={self.failure_threshold}, "
            f"reset={self.reset_timeout}s)"
        )
