"""Eviction policy families for the policy engine.

Three families live here:

* :class:`LRUEviction` -- the paper's recency queue (section IV-B.2).
* :class:`LFUEviction` -- the paper's windowed LFU with LRU tie-break,
  rebuilt for the hot path: heap maintenance is *deferred* (member rank
  changes mark a dirty set; current keys are pushed only when a plan
  actually needs the heap) and the heap is *compacted* (rebuilt from
  live member keys once stale entries outnumber live ones 2:1), so the
  amortized per-access cost is O(1) instead of one heap sift per count
  change.  Decisions are bit-identical to the classic push-on-change
  implementation in :mod:`repro.cache.lfu`: at plan time every member
  has a current entry in the heap, pops validate against live keys, and
  the first current entry popped is therefore still the true minimum.
* :class:`GDSFEviction` -- Greedy-Dual-Size-Frequency: priority is an
  inflating clock plus windowed frequency *per segment of footprint*,
  so small popular programs outrank big lukewarm ones.  New in this
  reproduction (the paper caches whole programs of similar size, where
  GDSF degenerates toward LFU; with mixed-length catalogs it does not).

:class:`GlobalLFUEviction` blends the shared cross-neighborhood feed
into the LFU estimate exactly like the classic
:class:`~repro.cache.global_lfu.GlobalLFUStrategy`.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from repro import units
from repro.cache.global_lfu import GlobalPopularityFeed
from repro.cache.lfu import LFUStrategy, WindowedCounts
from repro.cache.policies.api import EvictionPolicy
from repro.cache.policies.registry import eviction_family
from repro.cache.segments import segment_bytes

#: Heap slack before a compaction is considered (small caches never
#: bother; the rebuild threshold is ``_COMPACT_SLACK + 2 x members``).
_COMPACT_SLACK = 64


class _RankedEviction(EvictionPolicy):
    """Shared deferred-heap machinery for keyed-min eviction families.

    A family ranks members by a two-field key (smaller = evict first)
    and supplies exactly two things: :meth:`_current_key` -- a member's
    live key, the single source of truth entries are validated against
    -- and :meth:`_newcomer_key` -- the candidate's rank at plan time.

    The base owns everything else:

    * a min-heap of ``(key0, key1, program_id)`` entries that may go
      stale (pops discard entries disagreeing with the live key);
    * *deferred* maintenance -- rank changes mark a dirty set and are
      pushed only when a plan needs the heap, so member-heavy streams
      cost O(1) per access instead of one sift per touch;
    * *compaction* -- once stale entries outnumber live members ~2:1
      the heap is rebuilt from the live keys, bounding it at O(members)
      on stable workloads;
    * the plan itself: the paper's LFU admission economics, family-
      agnostic -- pop cheapest members while they rank at or below the
      newcomer and their bytes are still needed; the first current
      entry that outranks the newcomer aborts the plan, and an aborted
      or infeasible plan pushes every popped entry back so the heap is
      exactly as it was found.
    """

    __slots__ = ("_heap", "_dirty")

    def __init__(self) -> None:
        self._heap: List[Tuple] = []
        self._dirty: Set[int] = set()

    def _current_key(self, program_id: int) -> Optional[Tuple]:
        """The member's live rank key (``None`` if it has none)."""
        raise NotImplementedError

    def _newcomer_key(self, now: float, program_id: int) -> Tuple:
        raise NotImplementedError

    def _push_current(self, program_id: int) -> None:
        key = self._current_key(program_id)
        heapq.heappush(self._heap, (key[0], key[1], program_id))

    def _flush_dirty(self) -> None:
        """Materialize deferred rank changes, compacting when stale-heavy.

        After this, every member has an entry carrying its current key,
        which is all :meth:`_pop_min` exactness requires.
        """
        members = self._host._members
        heap = self._heap
        if len(heap) + len(self._dirty) > _COMPACT_SLACK + 2 * len(members):
            current_key = self._current_key
            rebuilt = []
            for pid in members:
                key = current_key(pid)
                rebuilt.append((key[0], key[1], pid))
            heapq.heapify(rebuilt)
            self._heap = rebuilt
        else:
            for program_id in self._dirty:
                if program_id in members:
                    self._push_current(program_id)
        self._dirty.clear()

    def _pop_min(self, excluded: Set[int]) -> Optional[Tuple]:
        members = self._host._members
        current_key = self._current_key
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            program_id = entry[2]
            if program_id in excluded:
                continue
            if (program_id in members
                    and current_key(program_id) == (entry[0], entry[1])):
                return entry
        return None

    def on_evict(self, program_id: int) -> None:
        self._dirty.discard(program_id)

    def plan(self, now: float, program_id: int,
             need_bytes: float) -> Optional[List[int]]:
        self._flush_dirty()
        footprint_of = self._host.context.footprint_of
        newcomer_key = self._newcomer_key(now, program_id)
        plan: List[tuple] = []
        planned: Set[int] = set()
        freed = 0.0
        while freed < need_bytes:
            victim = self._pop_min(planned)
            if victim is None:
                break
            if (victim[0], victim[1]) <= newcomer_key:
                plan.append(victim)
                planned.add(victim[2])
                freed += footprint_of(victim[2])
            else:
                # Cheapest member outranks the newcomer: no admission.
                heapq.heappush(self._heap, victim)
                break
        if freed < need_bytes:
            for entry in plan:
                heapq.heappush(self._heap, entry)
            return None
        return [entry[2] for entry in plan]


@eviction_family("lru")
class LRUEviction(EvictionPolicy):
    """Evict the least-recently-accessed member first."""

    __slots__ = ("_queue",)

    def __init__(self) -> None:
        self._queue: "OrderedDict[int, None]" = OrderedDict()

    def touch(self, now: float, program_id: int) -> None:
        self._queue.move_to_end(program_id)

    def plan(self, now: float, program_id: int,
             need_bytes: float) -> Optional[List[int]]:
        footprint_of = self._host.context.footprint_of
        victims: List[int] = []
        freed = 0.0
        for victim_id in self._queue:
            victims.append(victim_id)
            freed += footprint_of(victim_id)
            if freed >= need_bytes:
                return victims
        return None  # pragma: no cover - newcomer <= capacity always frees

    def on_admit(self, now: float, program_id: int) -> None:
        self._queue[program_id] = None

    def on_evict(self, program_id: int) -> None:
        self._queue.pop(program_id, None)


@eviction_family("lfu")
class LFUEviction(_RankedEviction):
    """Windowed LFU with LRU tie-break (deferred-heap fast path).

    Ranks members by ``(window count, last access)``; a newcomer is
    admitted only if victims ranking at or below it free enough space.
    ``history_hours=0`` degenerates to LRU exactly (every count has
    expired by decision time), matching the paper's Fig 11 claim.
    """

    __slots__ = ("_counts", "_last_access")

    def __init__(self,
                 history_hours: Optional[float] = LFUStrategy.DEFAULT_HISTORY_HOURS,
                 ) -> None:
        super().__init__()
        window = (None if history_hours is None
                  else history_hours * units.SECONDS_PER_HOUR)
        self._counts = WindowedCounts(window)
        self._counts.add_change_listener(self._mark_dirty)
        self._last_access: Dict[int, float] = {}

    # -- count-source seam (GlobalLFUEviction overrides) ----------------

    def _advance(self, now: float) -> None:
        self._counts.advance(now)

    def _count(self, program_id: int) -> int:
        return self._counts.count(program_id)

    def _mark_dirty(self, program_id: int) -> None:
        """A count changed; defer the heap push until plan time."""
        if program_id in self._host._members:
            self._dirty.add(program_id)

    # -- ranking ---------------------------------------------------------

    def _current_key(self, program_id: int) -> Tuple[int, float]:
        return (self._count(program_id),
                self._last_access.get(program_id, 0.0))

    def _push_current(self, program_id: int) -> None:
        # Hot-path specialization: build the heap entry in one step
        # instead of materializing the key tuple first.  Must stay
        # equivalent to the base implementation over _current_key().
        heapq.heappush(
            self._heap,
            (self._count(program_id),
             self._last_access.get(program_id, 0.0),
             program_id),
        )

    def _pop_min(self, excluded: Set[int]) -> Optional[Tuple]:
        # Hot-path specialization of the base loop: comparing the entry
        # fields directly short-circuits before the second lookup and
        # skips the per-pop key-tuple allocation.  Must stay equivalent
        # to ``_current_key(pid) == (entry[0], entry[1])``.
        members = self._host._members
        last = self._last_access
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            program_id = entry[2]
            if program_id in excluded:
                continue
            if (program_id in members
                    and entry[0] == self._count(program_id)
                    and entry[1] == last.get(program_id, 0.0)):
                return entry
        return None

    def _newcomer_key(self, now: float, program_id: int) -> Tuple[int, float]:
        return (self._count(program_id), now)

    # -- policy interface ------------------------------------------------

    def observe(self, now: float, program_id: int) -> None:
        self._advance(now)
        # No change notification: the engine touch()es an accessed
        # member, which marks it dirty anyway, and _mark_dirty ignores
        # non-members.  Expiry in _advance still notifies.
        self._counts.record_silently(now, program_id)
        self._last_access[program_id] = now

    def touch(self, now: float, program_id: int) -> None:
        self._dirty.add(program_id)

    def on_admit(self, now: float, program_id: int) -> None:
        self._push_current(program_id)


class GlobalLFUEviction(LFUEviction):
    """LFU whose popularity estimate blends the global feed (Fig 13)."""

    name = "global-lfu"

    __slots__ = ("_feed", "_neighborhood_id")

    def __init__(self, feed: GlobalPopularityFeed, neighborhood_id: int,
                 history_hours: Optional[float] = LFUStrategy.DEFAULT_HISTORY_HOURS,
                 ) -> None:
        super().__init__(history_hours=history_hours)
        self._feed = feed
        self._neighborhood_id = neighborhood_id
        feed.add_change_listener(self._mark_dirty)

    def _advance(self, now: float) -> None:
        super()._advance(now)
        self._feed.advance(now)

    def _count(self, program_id: int) -> int:
        return (self._counts.count(program_id)
                + self._feed.remote_count(self._neighborhood_id, program_id))


@eviction_family("gdsf")
class GDSFEviction(_RankedEviction):
    """Greedy-Dual-Size-Frequency: size-aware windowed frequency.

    Each member carries priority ``H = L + count / size_segments`` where
    ``L`` is the inflating clock (raised to the priority of every evicted
    member) and ``count`` is the program's access count in the sliding
    history window, assessed at its last access.  Evicting min-``H``
    members protects small-and-popular content: a 30-minute program with
    the same window count as a 2-hour one has 4x its priority boost, so
    byte-for-byte the cache keeps what produces the most hits.

    Admission mirrors the LFU plan discipline: the newcomer enters only
    if victims with priority at or below its own free enough bytes.
    """

    __slots__ = ("_counts", "_clock", "_pri")

    def __init__(self,
                 history_hours: Optional[float] = LFUStrategy.DEFAULT_HISTORY_HOURS,
                 ) -> None:
        super().__init__()
        window = (None if history_hours is None
                  else history_hours * units.SECONDS_PER_HOUR)
        self._counts = WindowedCounts(window)
        self._clock = 0.0
        #: pid -> (priority, last_access) fixed at the program's last
        #: access; window expiry after that does not lower it (the decay
        #: shows up at the *next* access instead).
        self._pri: Dict[int, Tuple[float, float]] = {}

    def _size_segments(self, program_id: int) -> float:
        return self._host.context.footprint_of(program_id) / segment_bytes()

    def _priority(self, program_id: int) -> float:
        return self._clock + self._counts.count(program_id) / max(
            self._size_segments(program_id), 1e-9
        )

    # -- ranking ---------------------------------------------------------

    def _current_key(self, program_id: int) -> Optional[Tuple[float, float]]:
        return self._pri.get(program_id)

    def _newcomer_key(self, now: float, program_id: int) -> Tuple[float, float]:
        return (self._priority(program_id), now)

    # -- policy interface ------------------------------------------------

    def observe(self, now: float, program_id: int) -> None:
        self._counts.advance(now)
        self._counts.record(now, program_id)

    def touch(self, now: float, program_id: int) -> None:
        self._pri[program_id] = (self._priority(program_id), now)
        self._dirty.add(program_id)

    def on_admit(self, now: float, program_id: int) -> None:
        self._pri[program_id] = (self._priority(program_id), now)
        self._push_current(program_id)

    def on_evict(self, program_id: int) -> None:
        super().on_evict(program_id)
        evicted = self._pri.pop(program_id, None)
        if evicted is not None and evicted[0] > self._clock:
            # The GDSF aging step: future priorities start from the
            # best priority ever evicted, so long-idle members decay
            # relative to fresh activity.
            self._clock = evicted[0]
