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
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Dict, List, Tuple

import pytest

from repro.cache.segments import PlacementMap, segment_bytes
from repro.errors import PlacementError
from repro.peers.settop import SetTopBox
from repro.trace.records import Program


class HeapPlacementReference:
    """The pre-bucket placement algorithm: a lazily verified max-heap."""

    def __init__(self, boxes):
        self._counter = itertools.count()
        self._heap: List[Tuple[float, int, SetTopBox]] = [
            (-box.free_bytes, next(self._counter), box) for box in boxes
        ]
        heapq.heapify(self._heap)
        self._assignments: Dict[int, Tuple[SetTopBox, ...]] = {}

    def place_program(self, program):
        if program.program_id in self._assignments:
            raise PlacementError(f"program {program.program_id} already placed")
        per_segment = segment_bytes()
        chosen = []
        try:
            for _ in range(program.num_segments):
                box = self._pop_roomiest(per_segment)
                box.reserve(program.program_id, per_segment)
                chosen.append(box)
                heapq.heappush(self._heap,
                               (-box.free_bytes, next(self._counter), box))
        except PlacementError:
            for box in chosen:
                box.release(program.program_id)
            raise
        assignment = tuple(chosen)
        self._assignments[program.program_id] = assignment
        return assignment

    def _pop_roomiest(self, needed_bytes):
        while self._heap:
            neg_free, _, box = heapq.heappop(self._heap)
            if -neg_free != box.free_bytes:
                heapq.heappush(self._heap,
                               (-box.free_bytes, next(self._counter), box))
                continue
            if box.free_bytes + 1e-6 < needed_bytes:
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
                box.release(program_id)
                heapq.heappush(self._heap,
                               (-box.free_bytes, next(self._counter), box))


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


def free_slots(boxes):
    return sum(int((box.free_bytes + 1e-6) // SEGMENT) for box in boxes)


def ids(assignment):
    return tuple(box.box_id for box in assignment)


def churn(rng, n_ops, free_slots_of, place, remove, max_segments=24):
    """Drive a seeded place/remove stream of successful placements only.

    ``free_slots_of()`` reports the room left; ``place(program)`` and
    ``remove(program_ids)`` apply one operation.  Removals batch one to
    three resident programs, like a multi-victim eviction.
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
        program = Program(next_id, n_segments * 300.0 - rng.random() * 299.0)
        next_id += 1
        resident.append(program.program_id)
        yield place(program)


class TestMatchesHeapReference:
    @pytest.mark.parametrize("mix", sorted(STORAGE_MIXES))
    @pytest.mark.parametrize("seed", [1, 7, 2007])
    def test_identical_assignments_and_usage(self, mix, seed):
        n_boxes = 12
        ref_boxes = make_boxes(STORAGE_MIXES[mix], n_boxes)
        new_boxes = make_boxes(STORAGE_MIXES[mix], n_boxes)
        reference = HeapPlacementReference(ref_boxes)
        placement = PlacementMap(new_boxes)

        def place(program):
            return (ids(reference.place_program(program)),
                    ids(placement.place_program(program)))

        def remove(victims):
            reference.remove_programs(victims)
            placement.remove_programs(victims)
            return (), ()

        rng = random.Random(seed)
        steps = 0
        for expected, actual in churn(rng, 600, lambda: free_slots(ref_boxes),
                                      place, remove):
            assert actual == expected
            assert ([b.used_bytes for b in new_boxes]
                    == [b.used_bytes for b in ref_boxes])
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
            program = Program(program_id, n_segments * 300.0)
            assert (ids(placement.place_program(program))
                    == ids(reference.place_program(program)))
            resident.append(program_id)
        assert ([b.used_bytes for b in new_boxes]
                == [b.used_bytes for b in ref_boxes])


class TestFailedPlacementIsSideEffectFree:
    def _history(self, placement, rng):
        """A fixed, always-successful history on 8 peers of 5 slots."""
        for program_id in range(12):
            placement.place_program(Program(program_id, rng.randint(1, 4) * 300.0))
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
                    room = free_slots(boxes)
                    used = [b.used_bytes for b in boxes]
                    with pytest.raises(PlacementError):
                        placement.place_program(
                            Program(999, (room + 1) * 300.0))
                    assert [b.used_bytes for b in boxes] == used
                    assert not placement.is_placed(999)
                maps.append((placement, boxes))
            (plain, plain_boxes), (failed, failed_boxes) = maps
            rng = random.Random(seed + 1_000)
            for program_id in range(100, 110):
                program = Program(program_id, rng.randint(1, 3) * 300.0)
                if program.num_segments > free_slots(plain_boxes):
                    plain.remove_programs([program_id - 1, program_id - 2])
                    failed.remove_programs([program_id - 1, program_id - 2])
                    continue
                assert (ids(failed.place_program(program))
                        == ids(plain.place_program(program)))
            assert ([b.used_bytes for b in failed_boxes]
                    == [b.used_bytes for b in plain_boxes])

    def test_refusal_does_not_consume_room(self):
        boxes = make_boxes([2 * SEGMENT], 3)  # 6 slots
        placement = PlacementMap(boxes)
        with pytest.raises(PlacementError):
            placement.place_program(Program(0, 7 * 300.0))
        assert ids(placement.place_program(Program(1, 6 * 300.0))) == (
            0, 1, 2, 0, 1, 2)


class TestSlotAccounting:
    @pytest.mark.parametrize("storage", [0.0, 1.0, SEGMENT - 1.0, SEGMENT,
                                         10e9, 2.5e9, 33 * SEGMENT + 1e-7])
    def test_count_matches_what_the_boxes_accept(self, storage):
        """The pre-check admits exactly what per-segment reserves accept."""
        boxes = make_boxes([storage], 3)
        placement = PlacementMap(boxes)
        accepted = 0
        for program_id in range(200):
            try:
                placement.place_program(Program(program_id, 300.0))
            except PlacementError:
                break
            accepted += 1
        probe = SetTopBox(99, storage_bytes=storage)
        per_box = 0
        while SEGMENT <= probe.free_bytes + 1e-6:
            probe.reserve(0, SEGMENT)
            per_box += 1
        assert accepted == 3 * per_box

    def test_huge_peers_count_without_walking_every_slot(self):
        storage = 1e6 * SEGMENT + 0.5 * SEGMENT
        placement = PlacementMap(make_boxes([storage], 2))
        with pytest.raises(PlacementError, match="2000000 free"):
            placement.place_program(Program(0, 2_000_001 * 300.0))
