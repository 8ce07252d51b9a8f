#!/usr/bin/env python3
"""perfbench: the end-to-end benchmark of the cable VoD simulator.

Runs one named workload (see ``workloads.json``) for a fixed time and
prints its metrics, then -- as the last line of standard output -- one
JSON object ``{"correct", "attempted", "failed", "metrics"}``::

    python3 perfbench/run.py --workload replay --seed 2007 --seconds 36 --trace 0
    python3 perfbench/run.py --all                   # every workload, one table

A run at one ``--seed`` replays the traces of ``trace_seeds(seed)`` in
turn.  ``--trace 0`` measures the end-to-end metrics of
``BENCHMARK.json`` with no tracing, in rounds until ``--seconds`` is
spent: one scenario execution (closed loop), then set-ups of the next
trace for a share of its time, the last of which feeds the next
execution.  A host-speed sample (``calibrate.py``) brackets every
execution and every burst of set-ups, and each is timed in reference
seconds: wall time over the host factor sampled around it, so a host
that drifts slower for a minute does not read as a slower program.
``events_per_ref_s`` is the events of one pass over the traces over the
sum of each trace's median execution; ``setup_s`` is the trimmed mean
of every set-up after the first, so it samples the host over the whole
run, as the executions do.  The wall-time figures (``events_per_s``
and the set-up wall time) are reported beside them.  Each execution is
checked for conservation and for the same output digest as the first
execution on its trace.
``--trace 1`` measures the per-layer metrics instead, on the first
trace: it times the program's layer entry points from outside
(``tracer.py``) on one traced set-up and on traced executions, each
paired with an untraced one for the tracing overhead, and writes the
spans to ``.perfbench_out/``.

Exit status: 0 when every execution passed its checks, 1 when one
failed (the result line still prints), 2 when the program cannot be
imported from ``src/`` next to this directory (no result line).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

# Benchmark modules import the program lazily, after import_program().
from calibrate import host_factor
from checks import digest, violations
from tracer import Tracer, layer_totals
from workloads import (default_seed, load_workload, trace_seeds,
                       workload_names)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Environment variables that change what the program resolves to
#: (engine, trace backend, worker count, profile, trace sharing); the
#: benchmark clears them so each workload runs what it names.
PINNED_ENV = ("REPRO_ENGINE", "REPRO_TRACE_BACKEND", "REPRO_WORKERS",
              "REPRO_PROFILE", "REPRO_TRACE_SHARE")

#: Set-up time per round as a share of the round's execution time, and
#: set-ups per round at the least.
SETUP_SHARE = 0.15
SETUP_ROUND_MIN = 2
#: Share of the set-up times cut from each end before ``setup_s``
#: averages them.  A set-up is short enough to fall wholly into a slow
#: or a fast phase of a shared host, so its times are bimodal; their
#: median jumps between the two modes as their mix changes, a trimmed
#: mean moves with the mix.
SETUP_TRIM = 0.1
#: Executions per run at the least, however long they take: one per
#: trace of the run (workloads.json ``traces_per_seed``).
MIN_EXECUTIONS = 3
#: Traced executions per run at the most (spans stay in memory).
MAX_TRACED = 3


def pin_environment() -> dict:
    """Clear :data:`PINNED_ENV`; return what was set before."""
    cleared = {}
    for name in PINNED_ENV:
        value = os.environ.pop(name, None)
        if value is not None:
            cleared[name] = value
    return cleared


def import_program() -> None:
    """Put ``src/`` first on the path; exit 2 if the program is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: no program sources at {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.stderr.write(f"error: imported repro from {repro.__file__}, "
                         f"not from {SRC}\n")
        sys.exit(2)


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(workload, prepared, cleared: dict):
    """Resolved engine, backend and host; plus every mismatch found."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    env = {
        "engine": workload.resolved_engine(),
        "engine_named": workload.scenario.engine,
        "trace_backend": prepared.backend,
        "trace_backend_named": workload.backend,
        "workers": workload.workers,
        "numpy": numpy_version,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(),
        "cleared_env": cleared,
    }
    mismatches = []
    if env["engine"] != env["engine_named"]:
        mismatches.append(f"engine resolved to {env['engine']!r}, the "
                          f"workload names {env['engine_named']!r}")
    if env["trace_backend"] != env["trace_backend_named"]:
        mismatches.append(f"trace backend resolved to "
                          f"{env['trace_backend']!r}, the workload names "
                          f"{env['trace_backend_named']!r}")
    return env, mismatches


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its reaped children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class InputRecord:
    """One trace seed's reference values within a run."""

    expected: int
    live_requests: Optional[int]
    first: Any = None
    digest: Optional[str] = None


class Executions:
    """Checked scenario executions of one run, over its inputs."""

    def __init__(self, mismatches) -> None:
        self.mismatches = mismatches
        self.attempted = 0
        self.failed = 0
        #: Wall seconds of every passed execution.
        self.seconds = []
        self.problems = []
        #: Trace seed -> its record, in the order first executed.
        self.inputs: Dict[int, InputRecord] = {}

    def record(self, workload, prepared) -> InputRecord:
        """The record of ``workload``'s input, counted on first use.

        Counting a streamed input generates it once more, so it is done
        here, outside every timed region.
        """
        if workload.seed not in self.inputs:
            expected = workload.expected_sessions(prepared)
            self.inputs[workload.seed] = InputRecord(
                expected, expected if workload.kind == "live" else None)
        return self.inputs[workload.seed]

    def run(self, workload, prepared, execute=None):
        """One timed, checked execution on ``prepared``; wall time, result.

        ``execute`` replaces ``workload.execute`` (a traced wrapper).
        """
        record = self.record(workload, prepared)
        gc.collect()
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = (execute or workload.execute)(prepared)
        except Exception:  # a raising execution is a failed one
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=4))
            return time.perf_counter() - started, None
        elapsed = time.perf_counter() - started
        problems = list(self.mismatches)
        problems += violations(result, record.expected, record.live_requests)
        fingerprint = digest(result)
        if record.first is None:
            record.first, record.digest = result, fingerprint
        elif fingerprint != record.digest:
            problems.append(f"trace seed {workload.seed}: digest "
                            f"{fingerprint} differs from its first "
                            f"execution's {record.digest}")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        else:
            self.seconds.append(elapsed)
        return elapsed, result

    def run_digest(self) -> Optional[str]:
        """One digest over every input's, in trace-seed order."""
        if not self.inputs or any(record.digest is None
                                  for record in self.inputs.values()):
            return None
        return hashlib.sha256(" ".join(
            self.inputs[seed].digest for seed in sorted(self.inputs)
        ).encode()).hexdigest()


def trimmed_mean(values, share: float) -> float:
    """Mean of ``values`` without the ``share`` lowest and highest."""
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def timed_setups(workload, budget: float):
    """Set up for ``budget`` seconds; the last input and every time.

    Each input is dropped before the next is built, so no two are alive
    at once.
    """
    times = []
    prepared = None
    while len(times) < SETUP_ROUND_MIN or sum(times) < budget:
        prepared = None
        gc.collect()
        started = time.perf_counter()
        prepared = workload.setup()
        times.append(time.perf_counter() - started)
    return prepared, times


def measure(inputs, seconds: float, cleared: dict) -> dict:
    """The end-to-end metrics of one untraced run over ``inputs``.

    Rounds take the inputs in turn: an execution on one, then set-ups
    of the next.
    """
    started = time.perf_counter()
    prepared = inputs[0].setup()
    # The first set-up also pays first-call costs (lazy imports); it is
    # recorded but is not a setup_s sample.
    cold_setup = time.perf_counter() - started
    env, mismatches = environment(inputs[0], prepared, cleared)
    runs = Executions(mismatches)
    setup_times = []
    setup_ref = []
    factors = []
    #: Trace seed -> (wall, reference) seconds of its passed executions.
    timings = {item.seed: ([], []) for item in inputs}
    rounds = []
    # Host-factor samples bracket every execution and every burst of
    # set-ups; each phase's times are divided by the mean of the two
    # samples around it, and each sample is shared by two phases.
    sample = host_factor()
    began = time.perf_counter()
    turn = 0
    while True:
        round_began = time.perf_counter()
        passed = len(runs.seconds)
        current = inputs[turn % len(inputs)]
        elapsed, _ = runs.run(current, prepared)
        before, sample = sample, host_factor()
        factors.append(sample)
        if len(runs.seconds) > passed:
            wall, reference = timings[current.seed]
            wall.append(elapsed)
            reference.append(elapsed / ((before + sample) / 2))
        turn += 1
        prepared = None
        prepared, times = timed_setups(inputs[turn % len(inputs)],
                                       SETUP_SHARE * elapsed)
        before, sample = sample, host_factor()
        factors.append(sample)
        setup_times += times
        setup_ref += [t / ((before + sample) / 2) for t in times]
        rounds.append(time.perf_counter() - round_began)
        if runs.attempted >= MIN_EXECUTIONS and (
                not runs.seconds or time.perf_counter() - began
                + statistics.median(rounds) > seconds):
            break
    values = {"setup_s": trimmed_mean(setup_ref, SETUP_TRIM),
              "peak_rss_mb": peak_rss_mb()}
    detail = {"cold_setup_s": cold_setup, "setup_seconds": setup_times,
              "setup_wall_s": trimmed_mean(setup_times, SETUP_TRIM),
              "host_factors": factors, "timings": timings}
    if all(wall for wall, _ in timings.values()):
        # One pass over every trace, each taking its median execution.
        events = sum(runs.inputs[seed].first.events_processed
                     for seed in timings)
        values["events_per_ref_s"] = events / sum(
            statistics.median(reference) for _, reference in timings.values())
        detail["events_per_s"] = events / sum(
            statistics.median(wall) for wall, _ in timings.values())
    return {"values": values, "runs": runs, "env": env, "detail": detail}


def _self_s(span):
    return span, lambda m: m.totals[span]["self_s"]


def _total_s(span):
    return span, lambda m: m.totals[span]["total_s"]


def _count(span):
    return span, lambda m: m.totals[span]["count"]


def _decision_share(verdict):
    return "live.decide", lambda m: (m.tally.get(verdict, 0)
                                     / m.totals["live.decide"]["count"])


def _shard_imbalance(m):
    busy = m.totals["core.shard_busy"]["durations"]
    return max(busy) / statistics.mean(busy)


#: Per-layer metric -> (the span it is read from, or None when it comes
#: from the result or the run; its value from the traced execution).
#: A metric whose span never opened is absent.
LAYER_METRICS = {
    "trace.generate_s": _self_s("trace.generate"),
    "trace.sessions": _count("trace.generate"),
    "sim.schedule_build_s": _self_s("sim.schedule_build"),
    "sim.drain_s": _self_s("sim.drain"),
    "sim.events": _count("sim.drain"),
    "cache.request_s": _self_s("cache.request"),
    "cache.requests": _count("cache.request"),
    "cache.session_start_s": _self_s("cache.session_start"),
    "cache.placement_change_ratio": (None, lambda m: (
        m.counters.admissions + m.counters.evictions)
        / m.counters.segment_requests),
    "cache.hit_ratio": (None, lambda m: m.counters.hit_ratio),
    "cache.fill_ratio": (None, lambda m: m.counters.fills / (
        m.counters.fills + m.counters.fill_skips)),
    "core.build_s": _self_s("core.build"),
    "core.meter_s": _self_s("core.meter"),
    "core.meter_calls": _count("core.meter"),
    "core.shard_busy_s": _total_s("core.shard_busy"),
    "core.shard_imbalance": ("core.shard_busy", _shard_imbalance),
    "core.pool_wait_s": _total_s("core.pool_wait"),
    "core.merge_s": _self_s("core.merge"),
    "live.decide_s": _self_s("live.decide"),
    "live.decisions": _count("live.decide"),
    "live.defer_ratio": _decision_share("live.defer"),
    "live.deny_ratio": _decision_share("live.deny"),
    "live.retry_share": _decision_share("live.retried"),
    "tracing_overhead_ratio": (None, lambda m: m.overhead),
}


def merged_totals(setup, execution) -> dict:
    """Span totals of the traced set-up and one traced execution."""
    totals = {}
    for part in (setup, execution):
        for name, entry in part.items():
            into = totals.setdefault(name, {"self_s": 0.0, "total_s": 0.0,
                                            "count": 0})
            for key in into:
                into[key] += entry[key]
            if "durations" in entry:
                into["durations"] = entry["durations"]
    return totals


def span_problems(totals, expected) -> list:
    """How the spans recorded differ from the spans a workload lists."""
    seen = set(totals) - {"execution"}
    problems = [f"expected span {name!r} was never recorded"
                for name in sorted(set(expected) - seen)]
    problems += [f"span {name!r} was recorded but the workload does not "
                 f"list it" for name in sorted(seen - set(expected))]
    return problems


def layer_values(totals, tally, result, overhead) -> dict:
    """Per-layer metric values of one traced execution (absent: None)."""
    inputs = types.SimpleNamespace(totals=totals, tally=tally,
                                   counters=result.counters,
                                   overhead=overhead)
    return {name: None if span is not None and span not in totals
            else compute(inputs)
            for name, (span, compute) in LAYER_METRICS.items()}


def measure_traced(inputs, seconds: float, cleared: dict) -> dict:
    """The per-layer metrics of one traced run, on the first input."""
    workload = inputs[0]
    tracer = Tracer(OUT)
    tracer.install()
    try:
        prepared = workload.setup()
    finally:
        tracer.uninstall()
    setup_totals = layer_totals(tracer, 0)
    env, mismatches = environment(workload, prepared, cleared)
    runs = Executions(mismatches)
    per_execution = []
    ratios = []
    began = time.perf_counter()
    while True:
        pair_began = time.perf_counter()
        untraced, _ = runs.run(workload, prepared)
        tracer.execution += 1
        tracer.tally.clear()
        tracer.install()
        try:
            traced, result = runs.run(
                workload, prepared,
                tracer.wrap("execution", workload.execute))
        finally:
            tracer.uninstall()
        tracer.collect_workers()
        if result is None:
            break
        totals = merged_totals(setup_totals,
                               layer_totals(tracer, tracer.execution))
        problems = span_problems(totals, workload.doc["spans"])
        if problems:
            runs.failed += 1
            runs.problems.extend(problems)
        ratios.append(traced / untraced)
        per_execution.append(layer_values(
            totals, dict(tracer.tally), result, traced / untraced))
        now = time.perf_counter()
        if (len(per_execution) == MAX_TRACED
                or now - began + (now - pair_began) > seconds):
            break
    tracer.write(OUT / f"spans-{workload.name}.npz")
    values = {}
    for name in (per_execution[0] if per_execution else {}):
        samples = [entry[name] for entry in per_execution]
        values[name] = (None if samples[0] is None
                        else statistics.median(samples))
    return {"values": values, "runs": runs, "env": env,
            "detail": {"overhead_ratios": ratios,
                       "traced_executions": len(per_execution)}}


def report(inputs, seed: int, mode: str, outcome: dict,
           metric_specs: list) -> dict:
    """Print the human-readable block; return the result line."""
    workload = inputs[0]
    runs = outcome["runs"]
    values = outcome["values"]
    env = outcome["env"]
    absent = sorted(spec["name"] for spec in metric_specs
                    if values.get(spec["name"]) is None)
    # Every end-to-end metric needs a measured value; a per-layer metric
    # is absent when its layer does not run on the workload.
    correct = (runs.failed == 0 and runs.attempted > 0
               and (mode == "per_layer" or not absent))
    print(f"perfbench {workload.name} seed={seed} metrics={mode} "
          f"({workload.doc['loop']})")
    print(f"  environment: engine {env['engine']} (named "
          f"{env['engine_named']}), trace backend {env['trace_backend']} "
          f"(named {env['trace_backend_named']}), numpy {env['numpy']}, "
          f"python {env['python']}, nproc {env['nproc']}, workers "
          f"{env['workers']}, start method {env['start_method']}")
    model = workload.scenario.model()
    print(f"  model: users {model.n_users}, programs {model.n_programs}, "
          f"days {model.days}; trace seeds "
          f"{[item.seed for item in inputs]}")
    # Printed but not in BENCHMARK.json: server_peak_gbps and the digest
    # are fixed per trace seed (compare them across commits),
    # events_per_s moves with the host's drift, and failed_ratio is 0 on
    # a healthy commit; the result line carries failed / attempted.
    executed = []
    for trace_seed, record in runs.inputs.items():
        if record.first is None:
            continue
        executed.append({
            "trace_seed": trace_seed, "sessions": record.expected,
            "events": record.first.events_processed,
            "server_peak_gbps": record.first.peak_server_gbps(),
            "digest": record.digest,
            "counters": vars(record.first.counters)})
        print(f"  trace seed {trace_seed}: sessions {record.expected}, "
              f"events {record.first.events_processed}, server_peak_gbps "
              f"{executed[-1]['server_peak_gbps']:.6g} Gb/s (simulated)")
        print(f"    counters: {executed[-1]['counters']}")
        print(f"    digest: {record.digest}")
    print(f"  executions: {runs.attempted} attempted, {runs.failed} failed")
    for problem in runs.problems:
        print(f"  FAILED: {problem}")
    for spec in metric_specs:
        value = values.get(spec["name"])
        shown = "absent" if value is None else f"{value:.6g} {spec['unit']}"
        print(f"  {spec['name']:<30} {shown}")
    detail = outcome["detail"]
    if "events_per_s" in detail:
        print(f"  {'events_per_s':<30} {detail['events_per_s']:.6g} "
              f"events/s (wall time, host factor median "
              f"{statistics.median(detail['host_factors']):.3g})")
        print(f"  {'setup wall time':<30} {detail['setup_wall_s']:.6g} s")
    failed_ratio = runs.failed / runs.attempted if runs.attempted else 1.0
    print(f"  {'failed_ratio':<30} {failed_ratio:.6g} failed/attempted")
    print(json.dumps({"report": {
        "workload": workload.name, "seed": seed,
        "digest": runs.run_digest(), "inputs": executed,
        "environment": env, "failed_ratio": failed_ratio, "absent": absent,
        **detail}}))
    return {
        "correct": correct,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {
            spec["name"]: {"value": values.get(spec["name"]) or 0,
                           "unit": spec["unit"]}
            for spec in metric_specs
        },
    }


def run_all(args) -> int:
    """Every workload in its own interpreter, then one summary table."""
    spec = bench_spec()
    names = [metric["name"] for metric in spec["end_to_end"]]
    rows = []
    status = 0
    for name in workload_names():
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              check=False)
        sys.stdout.write(proc.stdout)
        status = max(status, proc.returncode)
        rows.append((name, proc.stdout.strip().splitlines()))
    if args.trace:
        return status
    print(f"{'workload':<14}" + "".join(f"{n:>22}" for n in names)
          + f"{'server_peak_gbps':>22}{'failed_ratio':>14}")
    for name, lines in rows:
        if len(lines) < 2:
            print(f"{name:<14} (no result)")
            continue
        line = json.loads(lines[-1])
        detail = json.loads(lines[-2])["report"]
        cells = "".join(
            f"{line['metrics'][n]['value']:>13.6g} "
            f"{line['metrics'][n]['unit']:<8}" for n in names)
        peak = (detail["inputs"][0]["server_peak_gbps"] if detail["inputs"]
                else float("nan"))
        failed_ratio = detail["failed_ratio"]
        print(f"{name:<14}{cells}{peak:>13.6g} Gb/s{'':<4}"
              f"{failed_ratio:>14.6g}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name (workloads.json)")
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print one table")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed; the run replays the traces "
                             "of trace_seeds(seed) (default: "
                             "workloads.json default_seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time spent on executions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload or --all is required")
    cleared = pin_environment()
    import_program()
    seed = default_seed() if args.seed is None else args.seed
    inputs = [load_workload(args.workload, trace_seed)
              for trace_seed in trace_seeds(seed)]
    OUT.mkdir(exist_ok=True)
    spec = bench_spec()
    if args.trace:
        outcome = measure_traced(inputs, args.seconds, cleared)
        metric_specs, mode = spec["per_layer"], "per_layer"
    else:
        outcome = measure(inputs, args.seconds, cleared)
        metric_specs, mode = spec["end_to_end"], "end_to_end"
    line = report(inputs, seed, mode, outcome, metric_specs)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
