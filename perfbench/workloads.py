"""The benchmark's workloads: scenario specs from ``workloads.json``.

Each workload is one declarative :class:`repro.scenario.model.Scenario`
plus the documentation the benchmark records about it.  The benchmark
overrides only the trace seed, so the program receives nothing but the
generated trace (or, streamed, the trace model it regenerates from).

Three execution kinds follow from the scenario itself:

* ``replay`` -- ``run_simulation`` over a trace generated in setup;
* ``live`` -- ``CableVoDSystem(...).run_live`` behind the scenario's
  admission policies;
* ``sharded`` -- ``run_sharded`` with the scenario's shard count and
  streaming flag on the workload's worker count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

SPEC_PATH = Path(__file__).with_name("workloads.json")


def load_spec() -> Dict[str, Any]:
    """The parsed ``workloads.json``."""
    return json.loads(SPEC_PATH.read_text())


def workload_names():
    return list(load_spec()["workloads"])


def default_seed() -> int:
    return int(load_spec()["default_seed"])


def trace_seeds(seed: int):
    """The trace-model seeds of one run at workload seed ``seed``.

    A run replays ``traces_per_seed`` traces in turn, so a cost that
    depends on one trace's draw (a few heavy users, say) is averaged
    over several.  The map is one-to-one: two workload seeds never
    share a trace.
    """
    count = int(load_spec()["traces_per_seed"])
    return [seed * count + index for index in range(count)]


@dataclass
class Prepared:
    """What setup hands to every execution of one run.

    ``trace`` is the materialized trace (``None`` when streamed);
    ``backend`` is the trace backend that generates it.
    """

    trace: Any
    backend: str


@dataclass
class Workload:
    """One named workload at one seed."""

    name: str
    doc: Dict[str, Any]
    scenario: Any
    seed: int

    @property
    def kind(self) -> str:
        scenario = self.scenario
        if scenario.live:
            return "live"
        if scenario.shards > 1 or scenario.streaming:
            return "sharded"
        return "replay"

    @property
    def backend(self) -> str:
        return self.doc["trace_backend"]

    @property
    def workers(self) -> int:
        """Pool workers: one per shard when sharded, else 1 (no pool)."""
        return self.scenario.shards if self.kind == "sharded" else 1

    # ------------------------------------------------------------------
    # Setup: the once-per-trace cost before the first timed execution
    # ------------------------------------------------------------------

    def setup(self) -> Prepared:
        """Build this run's input; timed as ``setup_s``.

        Program functions are looked up on their modules at call time,
        so a traced run's wrappers see these calls.
        """
        from repro.trace import synthetic

        model = self.scenario.model()
        if self.kind == "sharded":
            from repro.core.shard import shard_neighborhood_groups
            from repro.trace.streaming import open_trace_stream

            stream = open_trace_stream(model)
            shard_neighborhood_groups(self.scenario.workload(),
                                      self.scenario.config,
                                      self.scenario.shards)
            return Prepared(None, stream.backend)
        backend = synthetic.resolve_trace_backend()
        trace = synthetic.generate_trace(model, backend)
        if self.scenario.engine == "columnar":
            from repro.sim import columnar

            columnar.cached_schedule(
                trace, [p.num_segments - 1 for p in trace.catalog])
        return Prepared(trace, backend)

    def expected_sessions(self, prepared: Prepared) -> int:
        """Sessions in the replayed input: the conservation reference.

        A streamed workload is counted by generating it once more here,
        outside every timed region; generation is deterministic, so this
        is what the shard workers replay between them.
        """
        if prepared.trace is not None:
            return len(prepared.trace)
        from repro.trace.streaming import open_trace_stream

        stream = open_trace_stream(self.scenario.model())
        return sum(len(chunk) for chunk in stream.chunks())

    # ------------------------------------------------------------------
    # One scenario execution (the timed unit of events_per_s)
    # ------------------------------------------------------------------

    def execute(self, prepared: Prepared):
        """Run the scenario once; modelled caches start empty every time."""
        scenario = self.scenario
        if self.kind == "replay":
            from repro.core.runner import run_simulation

            return run_simulation(prepared.trace, scenario.config,
                                  engine=scenario.engine)
        if self.kind == "live":
            from repro.core.system import CableVoDSystem
            from repro.live.admission import AdmissionController

            controller = AdmissionController(throttle=scenario.throttle,
                                             fairness=scenario.fairness)
            return CableVoDSystem(prepared.trace, scenario.config,
                                  engine=scenario.engine).run_live(controller)
        from repro.core.shard import run_sharded

        return run_sharded(scenario.workload(), scenario.config,
                           n_shards=scenario.shards, engine=scenario.engine,
                           workers=self.workers,
                           streaming=scenario.streaming)

    def resolved_engine(self) -> str:
        """The engine an execution actually runs on.

        ``resolve_engine`` silently demotes ``columnar`` to ``bucket``
        (numpy missing, ``REPRO_ENGINE=python``).  Only a replay can be
        demoted: live drains and sharded replays name ``bucket``.
        """
        from repro.core.runner import resolve_engine

        if self.kind == "replay":
            return resolve_engine(self.scenario.engine)
        return self.scenario.engine


def load_workload(name: str, seed: Optional[int] = None,
                  scale: Optional[Dict[str, Any]] = None) -> Workload:
    """The named workload with its trace-model seed set to ``seed``.

    ``scale`` optionally overrides trace-model fields (the self-tests'
    reduced-scale copies); the config and policies stay as specified.
    """
    from repro.scenario.model import Scenario

    spec = load_spec()
    try:
        doc = spec["workloads"][name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from "
            f"{sorted(spec['workloads'])}"
        ) from None
    payload = json.loads(json.dumps(doc["scenario"]))
    if scale:
        payload["trace"].update(scale.get("trace", {}))
        payload["config"].update(scale.get("config", {}))
    if seed is None:
        seed = trace_seeds(int(spec["default_seed"]))[0]
    payload["seed"] = int(seed)
    return Workload(name=name, doc=doc, scenario=Scenario.from_dict(payload),
                    seed=int(seed))
