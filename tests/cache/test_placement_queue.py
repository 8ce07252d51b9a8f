"""The placement queue against the stale-entry heap it replaced.

:class:`~repro.cache.segments.PlacementMap` picks, for every segment,
the peer with the most free space, breaking ties first-in first-out
through per-free-level buckets.  Before the buckets it kept a
``(-free_bytes, counter, box)`` max-heap with stale entries re-checked
on pop.  :class:`HeapPlacementReference` below is that heap, kept
verbatim as the reference: on any history of successful placements and
removals the two must make exactly the same assignments, because every
later delivery (which peer serves, which collides on the two-stream
limit) depends on them.

The heap is *not* the reference for failed placements: it re-pushed
the roomiest peer and left rolled-back peers with stale entries, so one
refused call changed later assignments.  The map now refuses before it
mutates anything, which :class:`TestFailedPlacementIsSideEffectFree`
pins.

:func:`assert_consistent` checks a map's whole state (ledger, slot
count, queue) and runs after every operation of the churn tests.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
import random
from collections import Counter
from itertools import repeat
from typing import Dict, List, Tuple

import pytest

from repro.cache.segments import PlacementMap, segment_bytes
from repro.errors import CapacityError, PlacementError
from repro.peers.settop import SetTopBox


class HeapPlacementReference:
    """The pre-bucket placement algorithm: a lazily verified max-heap.

    It keeps its own per-peer byte ledger -- bytes used per peer and per
    (peer, program), with the ``+1e-6`` over-commit tolerance -- which
    is the accounting :class:`SetTopBox` did before the placement map
    took it over.  The reference never writes to the boxes, so it can
    be compared with a map over boxes of the same sizes.
    """

    def __init__(self, boxes):
        self._used: Dict[SetTopBox, float] = {box: 0.0 for box in boxes}
        self._stored: Dict[Tuple[SetTopBox, int], float] = {}
        self._counter = itertools.count()
        self._heap: List[Tuple[float, int, SetTopBox]] = [
            (-self.free_bytes(box), next(self._counter), box) for box in boxes
        ]
        heapq.heapify(self._heap)
        self._assignments: Dict[int, Tuple[SetTopBox, ...]] = {}

    def free_bytes(self, box):
        return box.storage_bytes - self._used[box]

    def used_bytes(self, box):
        return self._used[box]

    def _reserve(self, box, program_id, n_bytes):
        if n_bytes > self.free_bytes(box) + 1e-6:
            raise CapacityError(f"box {box.box_id} over-committed")
        self._used[box] += n_bytes
        key = (box, program_id)
        self._stored[key] = self._stored.get(key, 0.0) + n_bytes

    def _release(self, box, program_id):
        self._used[box] -= self._stored.pop((box, program_id), 0.0)

    def place_program(self, program_id, n_segments):
        if program_id in self._assignments:
            raise PlacementError(f"program {program_id} already placed")
        per_segment = segment_bytes()
        chosen = []
        try:
            for _ in range(n_segments):
                box = self._pop_roomiest(per_segment)
                self._reserve(box, program_id, per_segment)
                chosen.append(box)
                heapq.heappush(self._heap,
                               (-self.free_bytes(box), next(self._counter), box))
        except PlacementError:
            for box in chosen:
                self._release(box, program_id)
            raise
        assignment = tuple(chosen)
        self._assignments[program_id] = assignment
        return assignment

    def _pop_roomiest(self, needed_bytes):
        while self._heap:
            neg_free, _, box = heapq.heappop(self._heap)
            if -neg_free != self.free_bytes(box):
                heapq.heappush(self._heap,
                               (-self.free_bytes(box), next(self._counter), box))
                continue
            if self.free_bytes(box) + 1e-6 < needed_bytes:
                heapq.heappush(self._heap, (neg_free, next(self._counter), box))
                raise PlacementError("no peer has room for a segment")
            return box
        raise PlacementError("placement heap exhausted")

    def remove_programs(self, program_ids):
        for program_id in program_ids:
            assignment = self._assignments.pop(program_id, None)
            if assignment is None:
                continue
            for box in dict.fromkeys(assignment):
                self._release(box, program_id)
                heapq.heappush(self._heap,
                               (-self.free_bytes(box), next(self._counter), box))


SEGMENT = segment_bytes()

#: Per-peer storage mixes: whole slots, the paper's 10 GB (33 slots plus
#: a remainder), and mixed sizes where free levels interleave.
STORAGE_MIXES = {
    "whole-slots": [6 * SEGMENT],
    "paper-10GB": [10e9],
    "mixed": [10e9, 4 * SEGMENT, 2.5e9, 7.5 * SEGMENT, 1e9],
}


def make_boxes(storage_mix, n_boxes):
    return [SetTopBox(i, storage_bytes=storage_mix[i % len(storage_mix)])
            for i in range(n_boxes)]


def ids(assignment):
    return tuple(box.box_id for box in assignment)


@functools.lru_cache(maxsize=None)
def whole_slots(free):
    """Segments a peer with ``free`` bytes takes, one at a time."""
    slots = 0
    while SEGMENT <= free + 1e-6:
        free -= SEGMENT
        slots += 1
    return slots


def free_slots(free_levels):
    return sum(map(whole_slots, free_levels))


def assert_consistent(placement, boxes):
    """Check a map's full state against its assignments.

    * each peer's free bytes are its storage minus one segment per
      segment the assignments give it;
    * ``_free_slots`` is the sum of the peers' whole free slots;
    * every peer has a valid entry (one at its current level) in the
      queue, and no bucket is left empty;
    * ``_top`` is the highest non-empty level.
    """
    # Written as C-level maps over the peers: the 1,000-peer churn runs
    # this after each of ~4,000 operations.
    held = Counter(itertools.chain.from_iterable(
        placement._assignments.values()))
    frees = [box.free_bytes for box in boxes]
    expected = [box.storage_bytes - SEGMENT * held[box] if box in held
                else box.storage_bytes for box in boxes]
    assert frees == expected
    assert placement._free_slots == sum(map(whole_slots, frees))
    levels = placement._levels
    queued = {level: set(queue) for level, queue in levels.items()}
    assert all(map(operator.contains, map(queued.get, frees, repeat(())),
                   boxes)), "a peer has no entry at its current level"
    assert all(levels.values()), "empty bucket left in the queue"
    assert placement._top == max(levels)


def churn(rng, n_ops, free_slots_of, place, remove, max_segments=24):
    """Drive a seeded place/remove stream of successful placements only.

    ``free_slots_of()`` reports the room left; ``place(program_id,
    n_segments)`` and ``remove(program_ids)`` apply one operation.
    Removals batch one to three resident programs, like a multi-victim
    eviction.
    """
    resident: List[int] = []
    next_id = 0
    for _ in range(n_ops):
        n_segments = rng.randint(1, max_segments)
        if resident and (rng.random() < 0.4
                         or n_segments > free_slots_of()):
            victims = rng.sample(resident, min(len(resident),
                                               rng.randint(1, 3)))
            for victim in victims:
                resident.remove(victim)
            yield remove(victims)
            continue
        if n_segments > free_slots_of():
            continue
        resident.append(next_id)
        yield place(next_id, n_segments)
        next_id += 1


class TestMatchesHeapReference:
    @pytest.mark.parametrize("mix", sorted(STORAGE_MIXES))
    @pytest.mark.parametrize("seed", [1, 7, 2007])
    def test_identical_assignments_and_usage(self, mix, seed):
        n_boxes = 12
        ref_boxes = make_boxes(STORAGE_MIXES[mix], n_boxes)
        new_boxes = make_boxes(STORAGE_MIXES[mix], n_boxes)
        reference = HeapPlacementReference(ref_boxes)
        placement = PlacementMap(new_boxes)

        def place(program_id, n_segments):
            return (ids(reference.place_program(program_id, n_segments)),
                    ids(placement.place_program(program_id, n_segments)))

        def remove(victims):
            reference.remove_programs(victims)
            placement.remove_programs(victims)
            return (), ()

        rng = random.Random(seed)
        steps = 0
        for expected, actual in churn(
                rng, 600, lambda: free_slots(map(reference.free_bytes,
                                                 ref_boxes)),
                place, remove):
            assert actual == expected
            assert ([b.used_bytes for b in new_boxes]
                    == [reference.used_bytes(b) for b in ref_boxes])
            assert_consistent(placement, new_boxes)
            steps += 1
        assert steps > 300

    def test_thousand_peer_churn(self):
        ref_boxes = make_boxes([10e9], 1_000)
        new_boxes = make_boxes([10e9], 1_000)
        reference = HeapPlacementReference(ref_boxes)
        placement = PlacementMap(new_boxes)
        rng = random.Random(60311)
        resident: List[int] = []
        for program_id in range(3_000):
            n_segments = rng.randint(1, 30)
            if len(resident) > 1_000:
                victims = [resident.pop(rng.randrange(len(resident)))
                           for _ in range(rng.randint(1, 4))]
                reference.remove_programs(victims)
                placement.remove_programs(victims)
                assert_consistent(placement, new_boxes)
            assert (ids(placement.place_program(program_id, n_segments))
                    == ids(reference.place_program(program_id, n_segments)))
            assert_consistent(placement, new_boxes)
            resident.append(program_id)
        assert ([b.used_bytes for b in new_boxes]
                == [reference.used_bytes(b) for b in ref_boxes])


class TestWalkEdgeCases:
    """States the bulk walk must handle, each checked against the heap."""

    def _pair(self, storages):
        boxes = [SetTopBox(i, storage_bytes=s) for i, s in enumerate(storages)]
        ref_boxes = [SetTopBox(i, storage_bytes=s)
                     for i, s in enumerate(storages)]
        return (PlacementMap(boxes), boxes,
                HeapPlacementReference(ref_boxes), ref_boxes)

    def test_more_segments_than_peers(self):
        """One peer takes several segments and frees them in one release."""
        placement, boxes, reference, _ = self._pair([5 * SEGMENT] * 3)
        assert ids(placement.place_program(0, 7)) == (0, 1, 2, 0, 1, 2, 0)
        assert ids(reference.place_program(0, 7)) == (0, 1, 2, 0, 1, 2, 0)
        assert [b.used_bytes for b in boxes] == [3 * SEGMENT, 2 * SEGMENT,
                                                 2 * SEGMENT]
        assert_consistent(placement, boxes)
        placement.place_program(1, 2)
        reference.place_program(1, 2)
        placement.remove_programs([0])
        reference.remove_programs([0])
        # All of program 0's segments on each peer are freed at once;
        # program 1's stay.
        assert [b.used_bytes for b in boxes] == [0.0, SEGMENT, SEGMENT]
        assert_consistent(placement, boxes)
        for program_id, n_segments in ((2, 4), (3, 6), (4, 1)):
            assert (ids(placement.place_program(program_id, n_segments))
                    == ids(reference.place_program(program_id, n_segments)))
            assert_consistent(placement, boxes)

    def test_stale_only_top_bucket_two_levels_above_its_peer(self):
        """The top bucket holds only a stale entry; its peer is lower
        than the next level, so the walk must move to that level."""
        placement, boxes, reference, _ = self._pair([4 * SEGMENT,
                                                     3.5 * SEGMENT])
        history = [("place", 1, 1), ("remove", 1), ("place", 4, 1),
                   ("place", 5, 1), ("place", 6, 1)]
        for op in history:
            if op[0] == "place":
                assert (ids(placement.place_program(op[1], op[2]))
                        == ids(reference.place_program(op[1], op[2])))
            else:
                placement.remove_programs([op[1]])
                reference.remove_programs([op[1]])
            assert_consistent(placement, boxes)
        # Peer 0 sits at 2 segments free, two levels (past peer 1's 2.5)
        # below the only entry left in the top bucket.
        top = placement._top
        assert top == 3 * SEGMENT
        assert [b.box_id for b in placement._levels[top]] == [0]
        assert boxes[0].free_bytes == 2 * SEGMENT
        assert boxes[1].free_bytes == 2.5 * SEGMENT
        for program_id, n_segments in ((7, 1), (8, 3)):
            assert (ids(placement.place_program(program_id, n_segments))
                    == ids(reference.place_program(program_id, n_segments)))
            assert_consistent(placement, boxes)
        assert ids(placement.holders(7)) == (1,)


class TestStorageLedger:
    """The peers' storage accounting, which the map alone keeps."""

    def test_release_frees_all_segments_at_once(self):
        boxes = make_boxes([4 * SEGMENT], 2)
        placement = PlacementMap(boxes)
        placement.place_program(7, 5)  # peer 0 holds three segments
        placement.place_program(8, 2)
        placement.remove_programs([7])
        assert [b.used_bytes for b in boxes] == [SEGMENT, SEGMENT]
        assert not placement.is_placed(7)
        assert placement.is_placed(8)
        assert_consistent(placement, boxes)

    def test_removing_unplaced_program_is_noop(self):
        boxes = make_boxes([4 * SEGMENT], 2)
        placement = PlacementMap(boxes)
        placement.place_program(7, 3)
        placement.remove_program(99)
        assert [b.used_bytes for b in boxes] == [2 * SEGMENT, SEGMENT]
        placement.remove_programs([99, 7, 7])
        assert [b.used_bytes for b in boxes] == [0.0, 0.0]
        assert_consistent(placement, boxes)

    def test_overcommit_refused(self):
        boxes = make_boxes([2 * SEGMENT], 2)  # 4 slots
        placement = PlacementMap(boxes)
        placement.place_program(1, 3)
        with pytest.raises(PlacementError, match="needs 2 segment slots"):
            placement.place_program(2, 2)
        assert [b.used_bytes for b in boxes] == [2 * SEGMENT, SEGMENT]
        placement.place_program(3, 1)  # the exact fill is allowed
        assert [b.free_bytes for b in boxes] == [0.0, 0.0]
        assert_consistent(placement, boxes)

    def test_program_without_segments_refused(self):
        boxes = make_boxes([2 * SEGMENT], 2)
        placement = PlacementMap(boxes)
        with pytest.raises(PlacementError, match="no segments"):
            placement.place_program(1, 0)
        assert not placement.is_placed(1)
        assert_consistent(placement, boxes)

    def test_broken_ledger_fails_loudly(self):
        boxes = make_boxes([2 * SEGMENT], 2)
        placement = PlacementMap(boxes)
        placement._free_slots += 1  # a slot no peer has
        with pytest.raises(CapacityError, match="over-committed"):
            placement.place_program(1, 5)


class TestFailedPlacementIsSideEffectFree:
    def _history(self, placement, rng):
        """A fixed, always-successful history on 8 peers of 5 slots."""
        for program_id in range(12):
            placement.place_program(program_id, rng.randint(1, 4))
            if program_id % 3 == 2:
                placement.remove_programs([program_id - 1])

    def test_extra_failed_call_changes_nothing_later(self):
        for seed in range(40):
            maps = []
            for with_failure in (False, True):
                boxes = make_boxes([5 * SEGMENT], 8)
                placement = PlacementMap(boxes)
                self._history(placement, random.Random(seed))
                if with_failure:
                    room = free_slots(b.free_bytes for b in boxes)
                    used = [b.used_bytes for b in boxes]
                    with pytest.raises(PlacementError):
                        placement.place_program(999, room + 1)
                    assert [b.used_bytes for b in boxes] == used
                    assert not placement.is_placed(999)
                    assert_consistent(placement, boxes)
                maps.append((placement, boxes))
            (plain, plain_boxes), (failed, failed_boxes) = maps
            rng = random.Random(seed + 1_000)
            for program_id in range(100, 110):
                n_segments = rng.randint(1, 3)
                if n_segments > free_slots(b.free_bytes for b in plain_boxes):
                    plain.remove_programs([program_id - 1, program_id - 2])
                    failed.remove_programs([program_id - 1, program_id - 2])
                    continue
                assert (ids(failed.place_program(program_id, n_segments))
                        == ids(plain.place_program(program_id, n_segments)))
            assert ([b.used_bytes for b in failed_boxes]
                    == [b.used_bytes for b in plain_boxes])

    def test_refusal_does_not_consume_room(self):
        boxes = make_boxes([2 * SEGMENT], 3)  # 6 slots
        placement = PlacementMap(boxes)
        with pytest.raises(PlacementError):
            placement.place_program(0, 7)
        assert ids(placement.place_program(1, 6)) == (0, 1, 2, 0, 1, 2)


class TestSlotAccounting:
    @pytest.mark.parametrize("storage", [0.0, 1.0, SEGMENT - 1.0, SEGMENT,
                                         10e9, 2.5e9, 33 * SEGMENT + 1e-7])
    def test_count_matches_what_the_boxes_accept(self, storage):
        """The pre-check admits exactly what one-at-a-time placement takes."""
        boxes = make_boxes([storage], 3)
        placement = PlacementMap(boxes)
        accepted = 0
        for program_id in range(200):
            try:
                placement.place_program(program_id, 1)
            except PlacementError:
                break
            accepted += 1
        probe = SetTopBox(99, storage_bytes=storage)
        reference = HeapPlacementReference([probe])
        per_box = 0
        while SEGMENT <= reference.free_bytes(probe) + 1e-6:
            reference.place_program(per_box, 1)
            per_box += 1
        assert accepted == 3 * per_box
        assert_consistent(placement, boxes)

    def test_huge_peers_count_without_walking_every_slot(self):
        storage = 1e6 * SEGMENT + 0.5 * SEGMENT
        placement = PlacementMap(make_boxes([storage], 2))
        with pytest.raises(PlacementError, match="2000000 free"):
            placement.place_program(0, 2_000_001)
