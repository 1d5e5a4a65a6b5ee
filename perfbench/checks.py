"""Output checks applied to every operation's simulated queries."""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Iterable, List, Optional, Sequence

_NAN = math.nan
_ROW = struct.Struct("<qdddd")


def _time(value: Optional[float]) -> float:
    return _NAN if value is None else value


def check_queries(queries: Sequence, label: str = "replay") -> List[str]:
    """Query conservation and timestamp order; returns failure messages.

    * every submitted query ends exactly once: completed XOR failed;
    * ``arrival <= start <= finish`` for every completed query.
    """
    failures: List[str] = []
    completed = failed = 0
    for query in queries:
        finish = query.finish_time
        if query.fail_time is not None:
            failed += 1
            if finish is not None:
                failures.append(f"{label}: query {query.query_id} both completed and failed")
            continue
        if finish is None:
            continue
        completed += 1
        start = query.start_time
        if start is None or not query.arrival_time <= start <= finish:
            failures.append(
                f"{label}: query {query.query_id} has arrival {query.arrival_time}, "
                f"start {start}, finish {finish}"
            )
    if completed + failed != len(queries):
        failures.append(
            f"{label}: {completed} completed + {failed} failed != "
            f"{len(queries)} submitted"
        )
    return failures[:5]


def fingerprint(batches: Iterable[Sequence], extra: Iterable[float] = ()) -> str:
    """Digest of every query's (id, arrival, start, finish, fail) timestamps.

    Two runs with equal fingerprints simulated exactly the same timeline.
    """
    digest = hashlib.blake2b(digest_size=16)
    pack = _ROW.pack
    for queries in batches:
        digest.update(struct.pack("<q", len(queries)))
        for q in queries:
            digest.update(
                pack(
                    q.query_id,
                    q.arrival_time,
                    _time(q.start_time),
                    _time(q.finish_time),
                    _time(q.fail_time),
                )
            )
    for value in extra:
        digest.update(struct.pack("<d", float(value)))
    return digest.hexdigest()
