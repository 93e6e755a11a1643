import math

import pytest

from trajindex.snapshot import Snapshot


@pytest.fixture(scope="module")
def s8(walkthrough_index):
    return walkthrough_index.snapshots[1]


class TestWalkthroughMiddleSnapshot:
    # internal ids are 0..6 for original objects 1..7

    def test_presence(self, s8):
        assert s8.time == 8
        assert s8.present.n_ones == 3
        assert [s8.is_present(o) for o in range(7)] == [
            True, True, False, True, False, False, False,
        ]

    def test_find_object(self, s8):
        assert s8.find_object(0) == (9, 5)
        assert s8.find_object(1) == (10, 3)
        assert s8.find_object(3) == (4, 3)
        assert s8.find_object(2) is None
        assert s8.find_object(6) is None

    def test_appear_disappear_lists(self, s8):
        assert list(s8.app) == [2, 4, 5, 6]
        assert list(s8.dis) == [2, 4, 5]
        assert 4 in s8.app and 0 not in s8.app
        assert 5 in s8.dis and 6 not in s8.dis

    def test_region_report(self, s8):
        assert s8.objects_in_region((7, 3, 10, 4)) == [(1, (10, 3))]
        assert s8.objects_in_region((0, 0, 15, 15)) == [
            (3, (4, 3)),
            (1, (10, 3)),
            (0, (9, 5)),
        ]
        assert s8.objects_in_region((0, 14, 15, 15)) == []
        assert s8.objects_in_region(None) == []

    def test_candidates_by_distance(self, s8):
        got = list(s8.candidates_by_distance(10, 3))
        assert [(o, p) for o, p, _ in got] == [
            (1, (10, 3)),
            (0, (9, 5)),
            (3, (4, 3)),
        ]
        assert got[0][2] == 0.0
        assert got[1][2] == pytest.approx(math.sqrt(5))
        assert got[2][2] == 6.0


class TestEdgeSnapshots:
    def test_first_snapshot_has_no_predecessors(self, walkthrough_index):
        s0 = walkthrough_index.snapshots[0]
        assert s0.time == 0
        assert s0.present.n_ones == 6  # everyone but object 7
        assert list(s0.app) == []  # nobody appears mid-portion-0
        assert list(s0.dis) == []

    def test_last_snapshot(self, walkthrough_index):
        s16 = walkthrough_index.snapshots[2]
        assert s16.time == 16
        assert s16.present.n_ones == 7
        assert list(s16.app) == [] and list(s16.dis) == []
        assert s16.find_object(6) == (12, 1)


@pytest.fixture(scope="module")
def shared():
    # objects 0 and 1 share cell (3, 3); object 2 sits alone
    return Snapshot.build(
        0,
        [(0, 3, 3), (1, 3, 3), (2, 5, 1)],
        app=[],
        dis=[],
        k=2,
        side=8,
        n_objects=3,
    )


class TestGrouping:
    def test_shared_cell_group(self, shared):
        assert sorted(o for o, _ in shared.objects_in_region((3, 3, 3, 3))) == [0, 1]
        assert shared.objects_in_region((5, 1, 5, 1)) == [(2, (5, 1))]
        assert shared.objects_in_region((0, 0, 0, 0)) == []

    def test_group_boundary_bits(self, shared):
        # one non-final member (the shared cell) -> exactly one 1-bit
        assert shared.q.n_ones == 1
        assert shared.q.n_zeros == 2

    def test_find_object_in_shared_cell(self, shared):
        assert shared.find_object(0) == (3, 3)
        assert shared.find_object(1) == (3, 3)

    def test_region_covers_group(self, shared):
        assert shared.objects_in_region((0, 0, 7, 7)) == [
            (0, (3, 3)),
            (1, (3, 3)),
            (2, (5, 1)),
        ]

    def test_duplicate_object_rejected(self):
        with pytest.raises(ValueError):
            Snapshot.build(
                0, [(0, 1, 1), (0, 2, 2)], [], [], k=2, side=4, n_objects=1
            )

    def test_empty_snapshot(self):
        snap = Snapshot.build(0, [], [], [], k=2, side=4, n_objects=5)
        assert snap.present.n_ones == 0
        assert snap.find_object(3) is None
        assert snap.objects_in_region((0, 0, 3, 3)) == []
        assert list(snap.candidates_by_distance(0, 0)) == []


def test_locate_round_trip(walkthrough_index):
    # every present object maps id -> cell -> group -> id consistently
    for snap in walkthrough_index.snapshots:
        for oid in range(7):
            cell = snap.find_object(oid)
            if cell is None:
                assert not snap.is_present(oid)
            else:
                assert oid in [o for o, _ in snap.objects_in_region(cell + cell)]
