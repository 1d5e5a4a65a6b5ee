"""Open-loop request timing: every request is timed from when it was due.

An open-loop generator sends request ``i`` at ``start + i * interval``
whatever happened to earlier requests.  When one request stalls the sender,
the requests behind it go out late; timing each from its *due* time (not
its send time) charges that wait to the system, and the sender's lateness
is reported on its own as send lag.
"""

from __future__ import annotations

import http.client
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional


@dataclass(frozen=True)
class Request:
    """One scheduled request.  Times are seconds on one monotonic clock."""

    endpoint: str
    due: float
    sent: float
    done: float
    ok: bool = True

    @property
    def latency(self) -> float:
        """Seconds from due time to response."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """Seconds the generator sent the request after it was due."""
        return max(0.0, self.sent - self.due)


@dataclass(frozen=True)
class OpenLoop:
    """A fixed schedule: request ``i`` is due at ``start + i * interval``."""

    start: float
    interval: float

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be positive")

    def due(self, index: int) -> float:
        return self.start + index * self.interval


@dataclass
class RequestLog:
    """Requests sent against an :class:`OpenLoop` schedule."""

    schedule: OpenLoop
    clock: Callable[[], float] = time.perf_counter
    sleep: Callable[[float], None] = time.sleep
    requests: List[Request] = field(default_factory=list)

    def send(self, endpoint: str, call: Callable[[], object]) -> Optional[object]:
        """Wait for the next due time, run ``call`` and record it.

        Returns the call's result, or ``None`` when it raised (the request is
        recorded as failed).
        """
        due = self.schedule.due(len(self.requests))
        delay = due - self.clock()
        if delay > 0:
            self.sleep(delay)
        sent = self.clock()
        try:
            result = call()
            ok = True
        except (OSError, RuntimeError, ValueError, http.client.HTTPException):
            result, ok = None, False
        self.requests.append(Request(endpoint, due, sent, self.clock(), ok))
        return result

    def latencies(self, endpoint: Optional[str] = None) -> List[float]:
        """Latencies from due time of the successful requests (seconds)."""
        return [
            r.latency
            for r in self.requests
            if r.ok and (endpoint is None or r.endpoint == endpoint)
        ]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.requests if not r.ok)

    @property
    def max_lag(self) -> float:
        return max((r.lag for r in self.requests), default=0.0)
