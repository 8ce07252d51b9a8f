"""Golden output pin: exact counters and meter digests of a small replay.

The engine-equivalence suites prove that every engine agrees with every
other engine, but not that they agree with *yesterday's* engine: a
change to the placement tie-break (which peer takes which segment when
several have equal free space) moves every engine the same way and
passes them all.  This file pins the absolute outputs of one small,
placement-sensitive replay -- tight peer storage so the map churns,
a small neighborhood so the two-stream limit bites -- so that any
change to placement order, delivery or metering shows up as a diff.

The trace comes from the pure-python generator backend, so the numpy
and numpy-less test legs replay the same sessions and share one set of
pinned values.  If a change moves these numbers on purpose, re-record
them and say why in the change log.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.cache.factory import LFUSpec, LRUSpec
from repro.core.config import SimulationConfig
from repro.core.runner import run_simulation
from repro.core.system import CableVoDSystem, columnar_supported
from repro.live import AdmissionController, FairnessSpec, ThrottleSpec
from repro.trace.synthetic import PowerInfoModel, generate_trace


def meter_digest(result) -> str:
    """sha256 over every hourly bucket of every meter, in a fixed order."""
    h = hashlib.sha256()
    meters = [("server", result.server_meter), ("total", result.total_meter)]
    meters += [(f"coax:{key!r}", result.coax_meters[key])
               for key in sorted(result.coax_meters)]
    meters += [(f"up:{key!r}", result.upstream_meters[key])
               for key in sorted(result.upstream_meters)]
    for name, meter in meters:
        h.update(name.encode())
        for hour, bits in sorted(meter.buckets().items()):
            h.update(f"{hour}:{float(bits).hex()};".encode())
    return h.hexdigest()


def observe(result) -> dict:
    """Everything the golden values pin for one run."""
    return {
        "counters": dataclasses.asdict(result.counters),
        "events": result.events_processed,
        "meters": meter_digest(result),
    }


@pytest.fixture(scope="module")
def golden_trace():
    model = PowerInfoModel(n_users=240, n_programs=60, days=3.0, seed=2007)
    return generate_trace(model, "python")


def _config(spec):
    return SimulationConfig(neighborhood_size=40, per_peer_storage_gb=1.0,
                            warmup_days=0.5, strategy=spec)


SPECS = {"lfu": LFUSpec(), "lru": LRUSpec()}

ENGINES = [
    "bucket",
    pytest.param("columnar", marks=pytest.mark.skipif(
        not columnar_supported(), reason="columnar engine needs numpy")),
]

#: Recorded before the placement queue moved from a heap to FIFO
#: buckets; the two must agree exactly.
GOLDEN = {
    "lfu": {
        "counters": {
            "sessions": 887, "segment_requests": 4428, "peer_hits": 2511,
            "local_hits": 53, "server_deliveries": 1864, "busy_misses": 21,
            "cold_misses": 1843, "fills": 966, "fill_skips": 210,
            "admissions": 184, "evictions": 140, "placement_failures": 0,
        },
        "events": 4428,
        "meters": "ba843abd928be762d98ea9b26f7d3fc306bfae470f7211a55b30e604981631cd",
    },
    "lru": {
        "counters": {
            "sessions": 887, "segment_requests": 4428, "peer_hits": 1884,
            "local_hits": 34, "server_deliveries": 2510, "busy_misses": 15,
            "cold_misses": 2495, "fills": 1988, "fill_skips": 450,
            "admissions": 412, "evictions": 368, "placement_failures": 0,
        },
        "events": 4428,
        "meters": "a02fdd32d3d8bc96c590ebcde72f9c23d7b1dfaff6d0d6d8ae240d8c6979295d",
    },
}


def test_golden_trace_is_stable(golden_trace):
    assert len(golden_trace) == 887
    assert golden_trace.n_users == 240


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("policy", sorted(SPECS))
def test_replay_matches_golden(golden_trace, policy, engine):
    result = run_simulation(golden_trace, _config(SPECS[policy]), engine=engine)
    assert observe(result) == GOLDEN[policy]


@pytest.mark.parametrize("policy", sorted(SPECS))
def test_noop_live_matches_golden(golden_trace, policy):
    controller = AdmissionController(throttle=ThrottleSpec(),
                                     fairness=FairnessSpec())
    result = CableVoDSystem(golden_trace, _config(SPECS[policy])).run_live(
        controller)
    assert observe(result) == GOLDEN[policy]
