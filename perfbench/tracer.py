"""Span tracing around the program's layer boundaries, from outside it.

The program carries no tracing of its own.  :class:`Tracer` swaps each
layer's public entry points for timing wrappers *at the name its
caller looks it up by* (a module attribute for module-level functions
looked up at call time, the class attribute for methods), records one
span per call, and restores the originals on :meth:`Tracer.uninstall`.

A span is (name, start, end, parent span, execution id, pid, count);
``count`` is the work the call did (1 per call, events drained for
``Simulator.run``, sessions for a generated stream chunk).  Spans live
in flat arrays in memory.  Shard workers are forked with the wrappers
installed; each worker writes its spans to a file when its shard task
ends, and :meth:`Tracer.collect_workers` folds them back in.

A span's self time is its duration minus the time its direct children
in the same process cover.  Spans of another process are never
subtracted: a shard worker's busy time overlaps the parent's pool wait,
it does not nest inside it.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Span names, in the order the per-process name column indexes them.
SPAN_NAMES = (
    "execution",
    "trace.generate",
    "sim.schedule_build",
    "sim.drain",
    "cache.request",
    "cache.session_start",
    "core.build",
    "core.meter",
    "core.shard_busy",
    "core.pool_wait",
    "core.merge",
    "live.decide",
)
_NAME_ID = {name: index for index, name in enumerate(SPAN_NAMES)}

_COLUMNS = (("name", "b"), ("start", "d"), ("end", "d"), ("parent", "i"),
            ("execution", "i"), ("count", "i"))


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.execution = 0
        self.cols: Dict[str, array] = {key: array(code)
                                       for key, code in _COLUMNS}
        self.stack: List[int] = [-1]
        #: Boundary counts that are not span counts (live verdicts).
        self.tally: Counter = Counter()
        #: Spans collected from worker processes: (pid, cols) pairs.
        self.foreign: List[tuple] = []
        self._patches: List[tuple] = []
        self._worker_dumps = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every recorded span (the column arrays are reused)."""
        for column in self.cols.values():
            del column[:]
        del self.stack[1:]
        self.tally.clear()
        self.foreign.clear()

    def _span_recorder(self, name: str):
        """``(open, close, counts)`` for spans named ``name``.

        ``open(count)`` appends a span under the innermost open one and
        returns its index; ``close(index)`` stamps its end and pops it.
        """
        nid = _NAME_ID[name]
        c = self.cols
        names, starts, ends, parents, execs, counts = (
            c["name"], c["start"], c["end"], c["parent"], c["execution"],
            c["count"])
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def open_span(count: int) -> int:
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            execs.append(tracer.execution)
            counts.append(count)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            return index

        def close_span(index: int) -> None:
            ends[index] = clock()
            stack.pop()

        return open_span, close_span, counts

    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call.

        ``before(args)`` runs ahead of the call and its value is handed
        to ``after(args, result, token)``, whose return value becomes the
        span's count.
        """
        open_span, close_span, counts = self._span_recorder(name)

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            index = open_span(1)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(index)
            if after is not None:
                counts[index] = after(args, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_iter(self, name: str, fn: Callable,
                  count: Optional[Callable] = None) -> Callable:
        """Generator function ``fn`` with one span per ``next()``."""
        open_span, close_span, counts = self._span_recorder(name)

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            try:
                while True:
                    index = open_span(0)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        close_span(index)
                    counts[index] = count(item) if count is not None else 1
                    yield item
            finally:
                iterator.close()

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement, static=False) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr,
                staticmethod(replacement) if static else replacement)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics are read at."""
        from repro.cache.index_server import IndexServer
        from repro.core import meter, parallel, shard
        from repro.core.meter import HourlyMeter
        from repro.core.results import SimulationResult
        from repro.core.system import CableVoDSystem
        from repro.live.admission import AdmissionController
        from repro.sim import columnar
        from repro.sim.engine import Simulator
        from repro.trace import synthetic
        from repro.trace.streaming import TraceStream

        tally = self.tally

        def trace_len(args, trace, token):
            return len(trace)

        def events_before(args):
            return args[0].events_processed

        def events_drained(args, result, before):
            return args[0].events_processed - before

        def verdict(args, result, token):
            # decide(self, now, user, program, neighborhood, attempts, ...)
            if args[5]:
                tally["live.retried"] += 1
            tally["live." + result.action] += 1
            return 1

        patch = self._patch
        wrap = self.wrap
        patch(synthetic, "generate_trace",
              wrap("trace.generate", synthetic.generate_trace,
                   after=trace_len))
        patch(TraceStream, "chunks",
              self.wrap_iter("trace.generate", TraceStream.chunks, count=len))
        patch(columnar, "build_schedule",
              wrap("sim.schedule_build", columnar.build_schedule))
        patch(Simulator, "run",
              wrap("sim.drain", Simulator.run, before=events_before,
                   after=events_drained))
        for attr in ("request_segment", "request_segment_code"):
            patch(IndexServer, attr,
                  wrap("cache.request", getattr(IndexServer, attr)))
        patch(IndexServer, "on_session_start",
              wrap("cache.session_start", IndexServer.on_session_start))
        patch(CableVoDSystem, "__init__",
              wrap("core.build", CableVoDSystem.__init__))
        for attr in ("add_interval", "add_bits_bulk"):
            patch(HourlyMeter, attr,
                  wrap("core.meter", getattr(HourlyMeter, attr)))
        patch(meter, "expand_intervals",
              wrap("core.meter", meter.expand_intervals))
        patch(shard, "execute_shard_task",
              self._worker_entry(wrap("core.shard_busy",
                                      shard.execute_shard_task)))
        patch(parallel, "iter_task_results",
              self.wrap_iter("core.pool_wait", parallel.iter_task_results))
        patch(SimulationResult, "merged",
              wrap("core.merge", SimulationResult.merged), static=True)
        patch(AdmissionController, "decide",
              wrap("live.decide", AdmissionController.decide, after=verdict))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------

    def _worker_entry(self, traced: Callable) -> Callable:
        """Shard-task entry that ships a forked worker's spans home."""
        tracer = self

        def entry(*args, **kwargs):
            if os.getpid() == tracer.pid:
                return traced(*args, **kwargs)
            # A forked worker starts from a copy of the parent's spans.
            tracer.clear()
            result = traced(*args, **kwargs)
            tracer._dump_worker()
            return result

        return entry

    def _worker_path_prefix(self) -> str:
        return f"worker-{self.pid}-"

    def _dump_worker(self) -> None:
        import numpy as np

        self._worker_dumps += 1
        path = self.out_dir / (f"{self._worker_path_prefix()}{os.getpid()}"
                               f"-{self._worker_dumps}.npz")
        arrays = {key: np.frombuffer(column, dtype=column.typecode)
                  for key, column in self.cols.items()}
        tally = sorted(self.tally.items())
        np.savez(path, tally_keys=np.array([k for k, _ in tally], dtype=str),
                 tally_values=np.array([v for _, v in tally], dtype=np.int64),
                 **arrays)

    def collect_workers(self) -> None:
        """Fold every span file this run's workers wrote into memory."""
        import numpy as np

        for path in sorted(self.out_dir.glob(
                self._worker_path_prefix() + "*.npz")):
            pid = int(path.stem.split("-")[2])
            with np.load(path, allow_pickle=False) as data:
                cols = {key: data[key] for key, _ in _COLUMNS}
                for key, value in zip(data["tally_keys"].tolist(),
                                      data["tally_values"].tolist()):
                    self.tally[key] += value
            self.foreign.append((pid, cols))
            path.unlink()

    # ------------------------------------------------------------------
    # Reading the spans
    # ------------------------------------------------------------------

    def processes(self):
        """``(pid, columns)`` per process, columns as numpy arrays."""
        import numpy as np

        own = {key: np.frombuffer(column, dtype=column.typecode).copy()
               for key, column in self.cols.items()}
        return [(self.pid, own)] + list(self.foreign)

    def write(self, path: Path) -> None:
        """Write every span of every process to one ``.npz`` file.

        Durations are stored as float32 next to float64 starts, which
        keeps sub-microsecond resolution at half the size of two float64
        timestamps.
        """
        import numpy as np

        procs = self.processes()

        def column(key):
            return np.concatenate([cols[key] for _, cols in procs])

        start = column("start")
        np.savez(
            path,
            names=np.array(SPAN_NAMES, dtype=str),
            name=column("name"),
            start=start,
            duration=(column("end") - start).astype(np.float32),
            parent=column("parent"),
            execution=column("execution"),
            count=column("count"),
            pid=np.concatenate([np.full(len(cols["name"]), pid,
                                        dtype=np.int32)
                                for pid, cols in procs]),
        )


def layer_totals(tracer: Tracer, execution: int) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self time, duration and count.

    Only spans of ``execution`` are read; ``"shard_busy"`` additionally
    lists each shard span's duration (the imbalance input).
    """
    import numpy as np

    totals: Dict[str, Dict[str, float]] = {}
    busy: List[float] = []
    for _, cols in tracer.processes():
        n = len(cols["name"])
        if not n:
            continue
        duration = cols["end"] - cols["start"]
        parent = cols["parent"]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested],
                              minlength=n)
        self_time = duration - covered
        mine = cols["execution"] == execution
        for nid, name in enumerate(SPAN_NAMES):
            rows = mine & (cols["name"] == nid)
            if not rows.any():
                continue
            entry = totals.setdefault(name, {"self_s": 0.0, "total_s": 0.0,
                                             "count": 0})
            entry["self_s"] += float(self_time[rows].sum())
            entry["total_s"] += float(duration[rows].sum())
            entry["count"] += int(cols["count"][rows].sum())
            if name == "core.shard_busy":
                busy.extend(duration[rows].tolist())
    if busy:
        totals["core.shard_busy"]["durations"] = busy
    return totals
