"""Program segmentation and physical placement on set-top peers.

Paper section IV-B.1: "Programs are divided into 5 minute segments and
distributed among a collection of peers.  When the index server
determines that a program should be in the cache, it locates a
collection of peers to store the segments ...  Unlike many structured
peer-to-peer systems, placement is not probabilistic.  Instead, the
index server places data to balance load, and keeps track of where each
program is located."

Placement policy: each segment is assigned to the peer with the most
free contributed space, which both balances storage *and* spreads a
program's segments across many peers so concurrent viewers at different
offsets rarely collide on the two-stream limit.  Ties go to the peer
that reached that free level first.  :class:`PlacementMap` owns the
peers' free-space ledger and queues them in one FIFO bucket per
free-bytes level, which picks exactly as the max-heap it replaced.

Capacity is accounted in whole segments: a peer contributing 10 GB holds
``floor(10 GB / segment_bytes)`` segments.  Deriving the neighborhood's
cache capacity the same way (:func:`usable_capacity_bytes`) means a
membership decision that fits in bytes always fits physically -- no
fragmentation surprises mid-simulation.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Sequence, Tuple

from repro import units
from repro.errors import CapacityError, PlacementError
from repro.peers.settop import SetTopBox
from repro.trace.records import Program


def segment_bytes(rate_bps: float = units.STREAM_RATE_BPS,
                  segment_seconds: float = units.SEGMENT_SECONDS) -> float:
    """Storage footprint of one full segment."""
    return rate_bps * segment_seconds / units.BITS_PER_BYTE


def cache_footprint_bytes(program: Program) -> float:
    """Bytes the cache charges for a whole program (whole segments).

    The trailing partial segment is rounded up to a full slot, mirroring
    how the placement map reserves space.
    """
    return program.num_segments * segment_bytes()


def usable_capacity_bytes(storage_bytes_per_peer: float, n_peers: int) -> float:
    """Whole-segment cache capacity of ``n_peers`` equal contributions."""
    if storage_bytes_per_peer < 0 or n_peers < 0:
        raise PlacementError(
            f"capacity arguments must be non-negative, got "
            f"{storage_bytes_per_peer} x {n_peers}"
        )
    slots_per_peer = int(storage_bytes_per_peer // segment_bytes())
    return slots_per_peer * segment_bytes() * n_peers


def segment_play_seconds(program: Program, segment_index: int) -> float:
    """Playback seconds contained in one segment of ``program``.

    Every segment holds :data:`~repro.units.SEGMENT_SECONDS` except the
    final one, which holds the remainder.
    """
    if not 0 <= segment_index < program.num_segments:
        raise PlacementError(
            f"segment {segment_index} out of range for program "
            f"{program.program_id} ({program.num_segments} segments)"
        )
    start = segment_index * units.SEGMENT_SECONDS
    return min(units.SEGMENT_SECONDS, program.length_seconds - start)


class PlacementMap:
    """Tracks which peer holds each segment of each cached program.

    The index server calls :meth:`place_program` when a strategy admits a
    program (reserving space immediately -- the decision is binding) and
    :meth:`remove_programs` with a decision's evictions.  Whether a given
    segment's bytes have actually been captured off a broadcast yet is
    tracked separately by the index server; this map is purely *where
    they belong*.

    **The ledger.**  The map alone accounts the peers' storage.  The
    assignment tuples are the only record of who holds what, and each
    peer carries one free-bytes number (``SetTopBox._free_bytes``) that
    only this map writes.  Segment sizes are whole numbers and free
    levels stay below 2**53, so ``level - segment_bytes`` is exact (a
    fractional storage size keeps its fraction) and a released peer
    returns to precisely a level it held before.

    **Placement queue.**  Peers wait in FIFO buckets, one
    :class:`~collections.deque` per free-bytes level, and ``_top`` is
    the highest level with a non-empty bucket.  :meth:`place_program`
    takes a program's segments off the head of the top bucket in one
    pass and appends each taken peer to the bucket one segment lower,
    so the roomiest peer always wins and equally roomy peers win in the
    order they reached that level: the pop order of the ``(-free, push
    counter, peer)`` max-heap the map used before.  Free levels take a
    handful of values, so moving ``_top`` down when its bucket empties
    is a ``max`` over a few dict keys.

    **Stale entries are kept.**  A release appends the peer at its new
    level and leaves its old entry where it was, as the heap did.  An
    entry whose peer has moved is re-appended at the peer's current
    level when it reaches the head of the top bucket; one whose peer has
    come back to that level is valid again, in its old position.
    Dropping or reordering them would change which peer takes which
    segment, and so every later delivery;
    ``tests/cache/test_placement_queue.py`` replays seeded churn against
    the heap to pin this.  Queue memory grows with the number of
    releases, as the heap's did.

    **Refusal before mutation.**  ``_free_slots`` counts the whole free
    segment slots of all peers (a peer takes a segment while
    ``segment_bytes <= free + 1e-6``).  A program needing more is
    refused before anything changes, so a failed call leaves later
    placements as if it had never been made; otherwise the roomiest peer
    always has a slot.  The last, least roomy pick of each program is
    still checked, and a peer over-committed by a broken ledger raises
    :class:`~repro.errors.CapacityError`.
    """

    __slots__ = ("_segment_bytes", "_levels", "_top", "_free_slots",
                 "_assignments")

    def __init__(self, boxes: Sequence[SetTopBox]) -> None:
        if not boxes:
            raise PlacementError("placement requires at least one peer")
        per_segment = segment_bytes()
        self._segment_bytes = per_segment
        #: free-bytes level -> peers in arrival order (stale entries kept).
        self._levels: Dict[float, Deque[SetTopBox]] = {}
        slots_of: Dict[float, int] = {}
        free_slots = 0
        for box in boxes:
            free = box._free_bytes
            queue = self._levels.get(free)
            if queue is None:
                queue = self._levels[free] = deque()
                slots_of[free] = _whole_slots(free, per_segment)
            queue.append(box)
            free_slots += slots_of[free]
        self._top = max(self._levels)
        self._free_slots = free_slots
        #: program_id -> tuple of boxes, one per segment index.
        self._assignments: Dict[int, Tuple[SetTopBox, ...]] = {}

    @property
    def placed_programs(self) -> int:
        """Number of programs currently placed."""
        return len(self._assignments)

    def holder_of(self, program_id: int, segment_index: int) -> SetTopBox:
        """The peer assigned segment ``segment_index`` of ``program_id``.

        Raises
        ------
        PlacementError
            If the program is not placed or the index is out of range.
        """
        assignment = self._assignments.get(program_id)
        if assignment is None:
            raise PlacementError(f"program {program_id} is not placed")
        if not 0 <= segment_index < len(assignment):
            raise PlacementError(
                f"program {program_id} has {len(assignment)} segments, "
                f"requested index {segment_index}"
            )
        return assignment[segment_index]

    def is_placed(self, program_id: int) -> bool:
        """Whether ``program_id`` currently has a placement."""
        return program_id in self._assignments

    def holders(self, program_id: int):
        """Per-segment peer assignment tuple, or ``None`` if not placed.

        The hot-path combination of :meth:`is_placed` + :meth:`holder_of`
        as a single dict lookup with no range check -- callers index the
        returned tuple with segment indices they already validated.
        """
        return self._assignments.get(program_id)

    def place_program(self, program_id: int,
                      n_segments: int) -> Tuple[SetTopBox, ...]:
        """Assign each of a program's ``n_segments`` to a least-loaded peer.

        All-or-nothing: either every segment is reserved, or the call
        raises having changed nothing -- no peer, bucket or later
        placement is affected.

        Raises
        ------
        PlacementError
            If the program is already placed, has no segments, or the
            peers lack the free segment slots for it (only possible when
            membership capacity accounting disagrees with physical
            capacity -- a caller bug).
        CapacityError
            If a peer was over-committed (only a broken ledger can).
        """
        if program_id in self._assignments:
            raise PlacementError(f"program {program_id} already placed")
        if n_segments < 1:
            raise PlacementError(f"program {program_id} has no segments")
        if n_segments > self._free_slots:
            raise PlacementError(
                f"program {program_id} needs {n_segments} segment slots, "
                f"peers have {self._free_slots} free"
            )
        per_segment = self._segment_bytes
        levels = self._levels
        top = self._top
        queue = levels[top]
        chosen: List[SetTopBox] = []
        take = chosen.append
        remaining = n_segments
        while remaining:
            level = top
            lower_level = level - per_segment
            lower = None
            while queue:
                box = queue.popleft()
                free = box._free_bytes
                if free != level:
                    # Stale entry: the peer moved since it was queued here.
                    moved = levels.get(free)
                    if moved is None:
                        moved = levels[free] = deque()
                    moved.append(box)
                    continue
                if lower is None:
                    lower = levels.get(lower_level)
                    if lower is None:
                        lower = levels[lower_level] = deque()
                box._free_bytes = lower_level
                lower.append(box)
                take(box)
                remaining -= 1
                if not remaining:
                    break
            if not queue:
                del levels[level]
                top = max(levels)
                queue = levels[top]
        if per_segment > level + 1e-6:
            raise CapacityError(
                f"peer {chosen[-1].box_id} over-committed by program "
                f"{program_id}: took a {per_segment:.0f} B segment with "
                f"{level:.0f} B free"
            )
        self._top = top
        self._free_slots -= n_segments
        assignment = tuple(chosen)
        self._assignments[program_id] = assignment
        return assignment

    def remove_program(self, program_id: int) -> None:
        """Release every reservation held for ``program_id``.

        Idempotent: removing an unplaced program is a no-op, because
        strategies may evict a program whose placement previously failed.
        """
        self.remove_programs((program_id,))

    def remove_programs(self, program_ids: Iterable[int]) -> None:
        """Release a whole decision's evictions in one batched call.

        Programs are released in the given order.  Within a program each
        distinct peer is freed once, by its count of segments in the
        assignment, and appended to the bucket of its new free level in
        the order of its first segment (its old entry stays, see the
        class notes).  Multi-victim admissions and oracle recomputes hit
        this with dozens of programs per decision.
        """
        assignments = self._assignments
        levels = self._levels
        per_segment = self._segment_bytes
        top = self._top
        released = 0
        for program_id in program_ids:
            assignment = assignments.pop(program_id, None)
            if assignment is None:
                continue
            released += len(assignment)
            peers = dict.fromkeys(assignment)
            # A peer holds several segments only when the program has
            # more segments than there were roomy peers; count them then.
            shared = len(peers) != len(assignment)
            for box in peers:
                if shared:
                    free = (box._free_bytes
                            + assignment.count(box) * per_segment)
                else:
                    free = box._free_bytes + per_segment
                box._free_bytes = free
                queue = levels.get(free)
                if queue is None:
                    queue = levels[free] = deque()
                queue.append(box)
                if free > top:
                    top = free
        self._top = top
        self._free_slots += released


def _whole_slots(free_bytes: float, per_segment: float) -> int:
    """Segments a peer with ``free_bytes`` left accepts, one at a time.

    A peer takes a segment while ``per_segment <= free + 1e-6``.  Jumps
    to two slots short of the closed-form count, then repeats that
    comparison for the last slots, so the count agrees with what the
    placement walk will actually take.  Segment byte counts are whole
    numbers, so the jump subtracts exactly what repeated placements
    would, and a peer returns to a level (and slot count) it held
    before.
    """
    slots = max(int(free_bytes // per_segment) - 2, 0)
    free_bytes -= slots * per_segment
    while not per_segment > free_bytes + 1e-6:
        free_bytes -= per_segment
        slots += 1
    return slots
