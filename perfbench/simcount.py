"""Simulation events split by kind, derived from public counters only.

``InferenceServerSimulator.events_processed`` counts every heap event of a
run.  The simulator pushes four kinds:

* arrivals: one per submitted query, one more per query re-injected after a
  live reconfiguration (``ReconfigurationRecord.requeued`` +
  ``buffered_arrivals``) and one more per crash retry;
* completions: one per completed query, plus one stale completion per
  crash that aborted an in-flight query;
* reconfiguration completions: one per ``ReconfigurationRecord``;
* frontend bounces: everything else — arrivals re-pushed because the serial
  frontend was busy.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EventsByKind:
    arrivals: int
    completions: int
    reconfigs: int
    bounces: int


def events_by_kind(
    events: int,
    submitted: int,
    completed: int,
    *,
    reinjected: int = 0,
    crash_requeued: int = 0,
    aborted_in_flight: int = 0,
    reconfigs: int = 0,
) -> EventsByKind:
    """Split ``events`` into kinds.

    Raises:
        ValueError: when the counters explain more events than were
            processed (the counters no longer describe the simulator).
    """
    arrivals = submitted + reinjected + crash_requeued
    completions = completed + aborted_in_flight
    bounces = events - arrivals - completions - reconfigs
    if min(events, submitted, completed, reinjected, crash_requeued,
           aborted_in_flight, reconfigs) < 0:
        raise ValueError("event counters must be non-negative")
    if bounces < 0:
        raise ValueError(
            f"{events} events cannot hold {arrivals} arrivals, {completions} "
            f"completions and {reconfigs} reconfigurations"
        )
    return EventsByKind(arrivals, completions, reconfigs, bounces)
