#!/usr/bin/env python3
"""Self-tests of the benchmark itself, at reduced scale (about a minute).

    python3 perfbench/selftest.py

Checks that the correctness checker fires on tampered results, that the
engine-demotion guard fires, that the host-speed kernels do fixed
work, that a traced execution of each workload
records exactly the spans ``workloads.json`` lists for it (and that a
missing or unlisted span is flagged), and that each workload's output digest
equals the repo's own bit-identity references: ``columnar`` against
``bucket`` for ``replay``; no-op admission (``run_live(None)``) against
``bucket`` for ``live-tight``; sharded streaming against a monolithic
``run_simulation`` for ``metro-stream``.  Exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import os
import sys

from run import environment, import_program, pin_environment

#: Reduced-scale overrides of each workload's trace model and config;
#: policies, engines, shard counts and worker counts stay as specified.
SMALL = {
    "replay": {"trace": {"n_users": 400, "n_programs": 80, "days": 4.0},
               "config": {"neighborhood_size": 20, "warmup_days": 2.0}},
    "live-tight": {"trace": {"n_users": 400, "n_programs": 80, "days": 4.0},
                   "config": {"neighborhood_size": 20, "warmup_days": 2.0}},
    "metro-stream": {"trace": {"n_users": 3000, "n_programs": 400,
                               "days": 1.0},
                     "config": {"neighborhood_size": 100,
                                "warmup_days": 0.5}},
}

FAILURES = []


def expect(ok: bool, message: str) -> None:
    print(("ok      " if ok else "FAILED  ") + message)
    if not ok:
        FAILURES.append(message)


def small(name: str):
    from workloads import load_workload

    return load_workload(name, seed=11, scale=SMALL[name])


def check_tampering() -> None:
    from checks import digest, violations

    workload = small("replay")
    prepared = workload.setup()
    result = workload.execute(prepared)
    expected = workload.expected_sessions(prepared)
    expect(violations(result, expected) == [],
           "replay: an untampered result passes every check")

    def tampered(edit):
        copy_ = copy.deepcopy(result)
        edit(copy_)
        return copy_

    def more_peer_hits(r):
        r.counters.peer_hits += 1

    def fewer_busy_misses(r):
        r.counters.busy_misses -= 1

    def lost_session(r):
        r.counters.sessions -= 1

    def server_over_total(r):
        r.server_meter.add_bits(0.0, 2.0 * r.total_meter.total_bits())

    for edit in (more_peer_hits, fewer_busy_misses, lost_session,
                 server_over_total):
        bad = tampered(edit)
        expect(violations(bad, expected) != [],
               f"checker fires on a tampered result ({edit.__name__})")
        expect(digest(bad) != digest(result),
               f"digest changes on a tampered result ({edit.__name__})")

    live = small("live-tight")
    prepared = live.setup()
    requests = live.expected_sessions(prepared)
    result = live.execute(prepared)
    expect(violations(result, requests, live_requests=requests) == [],
           "live-tight: the admission drain passes every check")
    expect(result.live.denied > 0 and result.live.deferrals > 0,
           "live-tight: the reduced drain still defers and denies")

    def admitted_lost(r):
        r.live.admitted -= 1

    bad = tampered(admitted_lost)
    expect(violations(bad, requests, live_requests=requests) != [],
           "checker fires on admitted + denied != requests")


def check_engine_guard() -> None:
    workload = small("replay")
    prepared = workload.setup()
    _, mismatches = environment(workload, prepared, {})
    expect(mismatches == [], "replay resolves to the engine it names")
    os.environ["REPRO_ENGINE"] = "python"
    try:
        _, mismatches = environment(workload, prepared, {})
    finally:
        del os.environ["REPRO_ENGINE"]
    expect(any("engine" in m for m in mismatches),
           "a silent columnar -> bucket demotion counts as a failure")


def check_calibration() -> None:
    from calibrate import KERNELS, host_factor

    expect(all(kernel() == kernel() for kernel, _ in KERNELS),
           "every calibration kernel does fixed work")
    expect(host_factor(reps=1) > 0, "the host factor is a positive ratio")


def check_traced_spans() -> None:
    from run import (LAYER_METRICS, OUT, bench_spec, merged_totals,
                     span_problems)
    from tracer import Tracer, layer_totals

    names = {metric["name"] for metric in bench_spec()["per_layer"]}
    expect(set(LAYER_METRICS) == names,
           "every per-layer metric of BENCHMARK.json has one computation")
    OUT.mkdir(exist_ok=True)
    for name in SMALL:
        workload = small(name)
        tracer = Tracer(OUT)
        tracer.install()
        try:
            prepared = workload.setup()
            tracer.execution = 1
            workload.execute(prepared)
        finally:
            tracer.uninstall()
        tracer.collect_workers()
        totals = merged_totals(layer_totals(tracer, 0),
                               layer_totals(tracer, 1))
        listed = workload.doc["spans"]
        expect(span_problems(totals, listed) == [],
               f"{name}: a traced execution records exactly the spans "
               f"the workload lists")
    expect(span_problems(totals, listed + ["live.decide"]) != [],
           "a listed span that is never recorded is flagged")
    expect(span_problems(totals, listed[1:]) != [],
           "a recorded span the workload does not list is flagged")


def check_identity_references() -> None:
    from checks import digest
    from repro.core.runner import run_simulation
    from repro.core.system import CableVoDSystem
    from repro.trace.synthetic import generate_trace

    replay = small("replay")
    prepared = replay.setup()
    columnar = digest(replay.execute(prepared))
    bucket = digest(run_simulation(prepared.trace, replay.scenario.config,
                                   engine="bucket"))
    expect(columnar == bucket, "replay: columnar digest == bucket digest")
    expect(digest(replay.execute(prepared)) == columnar,
           "replay: repeated execution repeats the digest")

    live = small("live-tight")
    prepared = live.setup()
    config = live.scenario.config
    noop = digest(CableVoDSystem(prepared.trace, config).run_live(None))
    bucket = digest(run_simulation(prepared.trace, config, engine="bucket"))
    expect(noop == bucket,
           "live-tight: run_live(None) digest == bucket digest")

    metro = small("metro-stream")
    prepared = metro.setup()
    sharded = metro.execute(prepared)
    trace = generate_trace(metro.scenario.model())
    monolithic = run_simulation(trace, metro.scenario.config, engine="bucket")
    expect(digest(sharded) == digest(monolithic),
           "metro-stream: sharded streaming digest == monolithic digest")
    expect(metro.expected_sessions(prepared) == len(trace),
           "metro-stream: stream session count == materialized trace")


def main() -> int:
    pin_environment()
    import_program()
    check_tampering()
    check_engine_guard()
    check_calibration()
    check_traced_spans()
    check_identity_references()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
