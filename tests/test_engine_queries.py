import itertools
import math
import random

import pytest

from trajindex import Oracle, TrajectoryIndex
from trajindex.geometry import clip_region, expanded_region

from conftest import make_walk_series


class TestWalkthroughAnchors:
    def test_position_at_query_instant(self, walkthrough_index):
        assert walkthrough_index.position_of(2, 10) == (9, 4)
        assert walkthrough_index.position_of(5, 10) == (7, 3)

    def test_position_during_absence(self, walkthrough_index):
        assert walkthrough_index.position_of(5, 8) is None
        assert walkthrough_index.position_of(3, 9) is None
        assert walkthrough_index.position_of(7, 0) is None

    def test_time_slice(self, walkthrough_index):
        got = walkthrough_index.time_slice((7, 3, 10, 4), 10)
        assert got == [(2, (9, 4)), (5, (7, 3))]
        # the last snapshot, t_max, with no portion after it
        got = walkthrough_index.time_slice((4, 7, 7, 9), 16)
        assert got == [(3, (4, 8)), (5, (7, 9)), (6, (6, 9))]

    def test_time_interval(self, walkthrough_index):
        got = walkthrough_index.time_interval((7, 3, 10, 4), 9, 12)
        assert got == [2, 5]

    def test_knn(self, walkthrough_index):
        got = walkthrough_index.knn(1, (10, 0), 9)
        assert len(got) == 1
        assert got[0][0] == 2
        assert got[0][1] == pytest.approx(math.sqrt(10))
        # the last snapshot, t_max, with no portion after it
        got = walkthrough_index.knn(2, (10, 0), 16)
        assert [o for o, _ in got] == [7, 2]
        assert [d for _, d in got] == pytest.approx([math.sqrt(5), math.sqrt(17)])

    def test_knn_all_alive(self, walkthrough_index):
        got = walkthrough_index.knn(99, (10, 0), 9)
        assert [o for o, _ in got] == [2, 5, 1, 4]
        dists = [d for _, d in got]
        assert dists == sorted(dists)
        assert dists[1] == pytest.approx(math.sqrt(13))

    def test_trajectory_over_gap(self, walkthrough_index):
        assert walkthrough_index.trajectory(6, 3, 13) == [
            (3, (10, 15)),
            (4, (10, 15)),
            (12, (6, 9)),
            (13, (6, 9)),
        ]

    def test_trajectory_across_snapshot(self, walkthrough_index):
        assert walkthrough_index.trajectory(1, 7, 10) == [
            (7, (9, 5)),
            (8, (9, 5)),
            (9, (9, 6)),
            (10, (9, 7)),
        ]


class TestRegionExpansion:
    def test_reachability_margin(self):
        # unit speed over two instants widens the box by two on every side
        assert expanded_region((7, 3, 10, 4), 8, 10, 1, 16) == (5, 1, 12, 6)

    def test_clamped_to_grid(self):
        assert expanded_region((0, 0, 2, 2), 0, 5, 2, 16) == (0, 0, 12, 12)
        assert expanded_region((14, 14, 15, 15), 0, 1, 3, 16) == (11, 11, 15, 15)

    def test_clip(self):
        assert clip_region((-4, 2, 3, 20), 16) == (0, 2, 3, 15)
        assert clip_region((16, 0, 20, 4), 16) is None


class TestSnapshotChoice:
    def test_nearest_anchor_agrees_with_oracle(
        self, walkthrough_index, walkthrough_oracle
    ):
        for obj in range(1, 8):
            for t in range(17):
                want = walkthrough_oracle.position_of(obj, t)
                assert walkthrough_index.position_of(obj, t) == want, (obj, t)


class TestPruningFlags:
    REGIONS = [(7, 3, 10, 4), (0, 0, 15, 15), (4, 8, 9, 15), (12, 0, 15, 5)]

    def test_slice_invariant(self, walkthrough_index):
        for region in self.REGIONS:
            for t in range(0, 17, 3):
                want = walkthrough_index.time_slice(region, t)
                for mbr, er in itertools.product((True, False), repeat=2):
                    got = walkthrough_index.time_slice(
                        region, t, use_mbr=mbr, use_er=er
                    )
                    assert got == want, (region, t, mbr, er)

    def test_interval_invariant(self, walkthrough_index):
        for region in self.REGIONS:
            for t_b, t_e in [(0, 16), (9, 12), (3, 5), (8, 8), (15, 16)]:
                want = walkthrough_index.time_interval(region, t_b, t_e)
                for mbr, er in itertools.product((True, False), repeat=2):
                    got = walkthrough_index.time_interval(
                        region, t_b, t_e, use_mbr=mbr, use_er=er
                    )
                    assert got == want, (region, t_b, t_e, mbr, er)


class TestBoundaries:
    def test_unknown_object(self, walkthrough_index):
        with pytest.raises(KeyError):
            walkthrough_index.position_of(99, 5)
        with pytest.raises(KeyError):
            walkthrough_index.trajectory(0, 0, 5)

    def test_past_the_timeline(self, walkthrough_index):
        assert walkthrough_index.position_of(1, 40) is None
        assert walkthrough_index.position_of(1, -3) is None
        assert walkthrough_index.time_slice((0, 0, 15, 15), 40) == []
        assert walkthrough_index.knn(2, (5, 5), 40) == []

    def test_interval_clamps_to_timeline(self, walkthrough_index):
        got = walkthrough_index.time_interval((0, 0, 15, 15), 12, 40)
        assert got == [1, 2, 3, 4, 5, 6, 7]

    def test_empty_windows(self, walkthrough_index):
        assert walkthrough_index.trajectory(1, 9, 5) == []
        assert walkthrough_index.time_interval((0, 0, 15, 15), 9, 5) == []
        assert walkthrough_index.knn(0, (5, 5), 9) == []

    def test_region_outside_grid(self, walkthrough_index):
        assert walkthrough_index.time_slice((30, 30, 40, 40), 10) == []
        assert walkthrough_index.time_interval((30, 30, 40, 40), 0, 16) == []

    def test_trajectory_outside_lifetime(self, walkthrough_index):
        assert walkthrough_index.trajectory(7, 0, 9) == []


SNAPSHOT_INSTANTS = list(range(0, 131, 10))  # of ``small`` (period 10); 130 is past t_max


@pytest.fixture(scope="module")
def small():
    series = make_walk_series(7, n_obj=12, t_len=130, side=64, appear=True)
    index = TrajectoryIndex.build(series, period=10, k=2, side=64)
    return series, index, Oracle(series)


class TestOracleEquivalence:
    """Randomized sweep on a small dataset, exercising appearance gaps."""

    def test_positions(self, small):
        series, index, oracle = small
        rng = random.Random(101)
        for _ in range(300):
            obj = rng.randrange(12)
            t = rng.randrange(131)
            assert index.position_of(obj, t) == oracle.position_of(obj, t)

    def test_trajectories(self, small):
        series, index, oracle = small
        rng = random.Random(102)
        for _ in range(120):
            obj = rng.randrange(12)
            t_b = rng.randrange(131)
            t_e = min(130, t_b + rng.randrange(40))
            got = index.trajectory(obj, t_b, t_e)
            assert got == oracle.trajectory(obj, t_b, t_e)

    def test_slices(self, small):
        series, index, oracle = small
        rng = random.Random(103)
        for t in [None] * 150 + SNAPSHOT_INSTANTS * 4:  # None: a random instant
            x, y = rng.randrange(64), rng.randrange(64)
            w, h = rng.randrange(1, 20), rng.randrange(1, 20)
            region = (x, y, min(63, x + w), min(63, y + h))
            if t is None:
                t = rng.randrange(131)
            assert index.time_slice(region, t) == oracle.time_slice(region, t)

    def test_intervals(self, small):
        series, index, oracle = small
        rng = random.Random(104)
        for _ in range(80):
            x, y = rng.randrange(64), rng.randrange(64)
            region = (x, y, min(63, x + rng.randrange(1, 16)),
                      min(63, y + rng.randrange(1, 16)))
            t_b = rng.randrange(131)
            t_e = min(130, t_b + rng.randrange(25))
            got = index.time_interval(region, t_b, t_e)
            assert got == oracle.time_interval(region, t_b, t_e)

    def test_knn(self, small):
        series, index, oracle = small
        rng = random.Random(105)
        for t in [None] * 150 + SNAPSHOT_INSTANTS * 4:  # None: a random instant
            point = (rng.randrange(64), rng.randrange(64))
            if t is None:
                t = rng.randrange(131)
            k = rng.randrange(1, 13)  # up to every object, ties at the k-th included
            # both answer in (distance, id) order
            assert index.knn(k, point, t) == oracle.knn(k, point, t), (point, t, k)


def test_counters_track_symbol_work(walkthrough_index):
    idx = walkthrough_index
    idx.counters.reset()
    idx.position_of(2, 10)
    assert idx.counters["object_symbols"] > 0
    idx.counters.reset()
    assert idx.counters.get("object_symbols", 0) == 0
    idx.time_interval((7, 3, 10, 4), 9, 12)
    assert idx.counters["interval_symbols"] > 0
