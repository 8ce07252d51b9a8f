"""Correctness checks on every scenario execution, from the public result.

:func:`violations` applies the conservation invariants every correct
replay satisfies; :func:`digest` fingerprints the simulated output
(every counter and every meter bucket, floats in exact hex) so runs of
one seed -- and a parent commit against a change -- can be compared on
what the model computed, not only on how fast.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional


def violations(result, expected_sessions: int,
               live_requests: Optional[int] = None) -> List[str]:
    """Every conservation invariant ``result`` breaks (empty if none).

    ``expected_sessions`` is the session count of the replayed trace or
    stream; ``live_requests`` is set for live drains, where every trace
    record is one session-start request and only admitted ones become
    sessions.
    """
    c = result.counters
    found: List[str] = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            found.append(message)

    if live_requests is None:
        expect(c.sessions == expected_sessions,
               f"sessions {c.sessions} != replayed sessions "
               f"{expected_sessions}")
    else:
        live = result.live
        expect(live is not None, "live drain returned no admission report")
        if live is not None:
            expect(live.admitted + live.denied == live_requests,
                   f"admitted {live.admitted} + denied {live.denied} != "
                   f"requests {live_requests}")
            expect(sum(live.user_requests.values()) == live_requests,
                   f"per-user requests sum to "
                   f"{sum(live.user_requests.values())}, not {live_requests}")
            expect(c.sessions == live.admitted,
                   f"sessions {c.sessions} != admitted {live.admitted}")
    expect(c.segment_requests
           == c.local_hits + c.peer_hits + c.server_deliveries,
           f"segment_requests {c.segment_requests} != local {c.local_hits}"
           f" + peer {c.peer_hits} + server {c.server_deliveries}")
    expect(c.server_deliveries == c.busy_misses + c.cold_misses,
           f"server_deliveries {c.server_deliveries} != busy "
           f"{c.busy_misses} + cold {c.cold_misses}")
    expect(c.segment_requests > 0 and result.events_processed > 0,
           "the execution replayed no segment requests")
    server_bits = result.server_meter.total_bits()
    total_bits = result.total_meter.total_bits()
    expect(server_bits <= total_bits,
           f"server meter {server_bits!r} bits exceeds total meter "
           f"{total_bits!r} bits")
    return found


def _meter_lines(label: str, meter) -> List[str]:
    return [f"{label} {hour} {bits.hex()}"
            for hour, bits in sorted(meter.buckets().items())]


def digest(result) -> str:
    """SHA-256 over the counters, event count and every meter bucket.

    Covers the aggregate server/total meters, each neighborhood's
    total, server, coax and upstream meters, and a live drain's
    admitted/denied/deferred counts.  Engine-independent: the
    repo's engines, live no-op admission and sharded replay are all
    bit-identical to the offline bucket replay, so equal inputs give an
    equal digest on every path.
    """
    lines = [f"{name} {value}"
             for name, value in sorted(vars(result.counters).items())]
    lines.append(f"events_processed {result.events_processed}")
    lines.append(f"trace_end_time {float(result.trace_end_time).hex()}")
    live = result.live
    if live is not None:
        lines.append(f"live {live.admitted} {live.denied} {live.deferrals}")
    lines += _meter_lines("server", result.server_meter)
    lines += _meter_lines("total", result.total_meter)
    for family, meters in (("total", result.total_meters),
                           ("server", result.server_meters),
                           ("coax", result.coax_meters),
                           ("upstream", result.upstream_meters)):
        for neighborhood in sorted(meters):
            lines += _meter_lines(f"{family}[{neighborhood}]",
                                  meters[neighborhood])
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
