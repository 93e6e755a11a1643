import itertools
import math
import random

import pytest

import trajindex.engine
import trajindex.logs
from trajindex import Oracle, TrajectoryIndex
from trajindex.bits import BitVector
from trajindex.geometry import clip_region, expanded_region
from trajindex.k2tree import K2Tree

from conftest import DATASET_SIDE, DATASETS, PERIODS, make_walk_series


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
        # every pair, so every snapshot, AA and D anchor instant is queried
        for obj in range(12):
            for t in range(131):
                assert index.position_of(obj, t) == oracle.position_of(obj, t), (obj, t)

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


def test_counters_track_symbol_work(walkthrough_index, walkthrough_oracle):
    idx = walkthrough_index
    idx.counters.clear()
    idx.position_of(2, 10)
    assert idx.counters["object_symbols"] > 0
    idx.counters.clear()
    assert idx.counters.get("object_symbols", 0) == 0
    idx.time_interval((7, 3, 10, 4), 9, 12)
    assert idx.counters["interval_symbols"] > 0
    # kNN walks each candidate as an object query does, but counts its own
    idx.counters.clear()
    assert idx.knn(3, (9, 5), 5) == walkthrough_oracle.knn(3, (9, 5), 5)
    assert idx.counters["knn_symbols"] > 0
    assert idx.counters.get("object_symbols", 0) == 0


def test_knn_distances_equal_math_hypot():
    """A cell 17 and 27 cells off the query point: ``np.hypot`` gives
    31.906112267087636, one ulp off ``math.hypot`` (the oracle's), and
    every layer must give the oracle's distance."""
    q = (20, 30)
    series = {1: [(0, [(37, 57)] * 9)], 2: [(0, [(3, 3)] * 9)]}
    index = TrajectoryIndex.build(series, period=8, k=2, side=64)
    want = math.hypot(17, 27)
    tree = K2Tree.build(2, 64, [37, 3], [57, 3])  # the series' cells at instant 0
    got = {(x, y): d for x, y, _r, d in tree.nodes_by_distance(*q)}
    assert got[37, 57] == want
    got = {p: d for _o, p, d in index.snapshots[0].candidates_by_distance(*q)}
    assert got[37, 57] == want
    oracle = Oracle(series)
    for t in (0, 4, 8):  # the snapshot, a log walk, the last snapshot
        assert index.knn(1, q, t) == [(1, want)]
        assert index.knn(2, q, t) == oracle.knn(2, q, t)


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_knn_ranks_and_selects_nothing(name, indexes, oracles, monkeypatch):
    """kNN reads each snapshot's cells in one decode: no rank or select."""
    calls = []

    def counting(attr):
        inner = getattr(BitVector, attr)

        def wrapper(self, *args):
            calls.append(attr)
            return inner(self, *args)

        return wrapper

    for attr in ("rank1", "select1"):
        monkeypatch.setattr(BitVector, attr, counting(attr))
    side, rng = DATASET_SIDE[name], random.Random(106)
    for period in PERIODS:
        index, oracle = indexes[name, period], oracles[name]
        for _ in range(10):
            point = (rng.randrange(side), rng.randrange(side))
            t, k = rng.randrange(index.params.t_max + 1), rng.randrange(1, 8)
            assert index.knn(k, point, t) == oracle.knn(k, point, t), (point, t, k)
    assert calls == []


def test_interval_reached_at_full_speed_on_its_last_instant():
    """An object heading straight for the region at max_speed enters it at
    the window's last instant, so every state on its way lies exactly as
    far from the region as it can travel in the time left: the reach test
    keeps it under every flag combination."""
    series = {1: [(0, [(x, 5) for x in range(41)])], 2: [(0, [(0, 0)] * 41)]}
    index = TrajectoryIndex.build(series, period=40, k=2, side=64)
    assert index.params.max_speed == 1
    for t_b in range(0, 31, 3):
        for mbr, er in itertools.product((True, False), repeat=2):
            got = index.time_interval((30, 5, 33, 7), t_b, 30, use_mbr=mbr, use_er=er)
            assert got == [1], (t_b, mbr, er)


@pytest.mark.parametrize("stride", [1, 2, 3, trajindex.logs.STRIDE, 10**6])
@pytest.mark.parametrize("period", PERIODS)
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_checkpoint_strides_match_oracle(name, period, stride, indexes, oracles, monkeypatch):
    """All five queries answer as the oracle with a checkpoint every
    ``stride`` symbols, down to every symbol and up to none at all."""
    monkeypatch.setattr(trajindex.logs, "STRIDE", stride)
    index = TrajectoryIndex.from_bytes(indexes[name, period].to_bytes())
    oracle = oracles[name]
    if stride == 10**6:
        assert index.logs.checkpoints.off[-1] == 0
    side, t_max, ids = DATASET_SIDE[name], index.params.t_max, list(oracle.timelines)
    rng = random.Random(stride * 1000 + period)
    for _ in range(20):
        obj, t = rng.choice(ids), rng.randrange(t_max + 1)
        t_e = min(t_max, t + rng.randrange(1, 2 * period))
        x, y = rng.randrange(side), rng.randrange(side)
        region = (x, y, min(side - 1, x + rng.randrange(1, 48)),
                  min(side - 1, y + rng.randrange(1, 48)))
        k = rng.randrange(1, 8)
        assert index.position_of(obj, t) == oracle.position_of(obj, t), (obj, t)
        assert index.trajectory(obj, t, t_e) == oracle.trajectory(obj, t, t_e), (obj, t)
        assert index.time_slice(region, t) == oracle.time_slice(region, t), (region, t)
        got = index.time_interval(region, t, t_e)
        assert got == oracle.time_interval(region, t, t_e), (region, t, t_e)
        assert index.knn(k, (x, y), t) == oracle.knn(k, (x, y), t), ((x, y), t, k)


# period 8, t_max 32: snapshots at 0, 8, 16, 24 and 32
_GAP_SERIES = {
    # a lone-D log at snapshot 8, absent at snapshot 16, back by AA at 19
    1: [(0, [(3, 3)] * 4 + [(4, 3)] * 5), (19, [(9, 9), (9, 10), (10, 10)] * 4)],
    # present throughout, so t_max is a snapshot instant
    2: [(0, [(20 + t % 5, 20 + t // 5) for t in range(33)])],
    # AA at 11, a gap up to snapshot 16, and a lone-D log at snapshot 24
    3: [(0, [(30, 1 + t) for t in range(6)]), (11, [(31, 8), (32, 8), (33, 9), (33, 10)]),
        (16, [(34, 10 + t) for t in range(9)])],
    # absent at snapshot 8, back by AA exactly on snapshot 16
    4: [(0, [(50, 50), (51, 50)]), (16, [(50, 60 - t) for t in range(6)])],
}


@pytest.mark.parametrize("stride", [1, trajindex.logs.STRIDE])
def test_trajectory_steps_across_portions(stride, monkeypatch):
    """Every window's trajectory is the oracle's, also when it starts or
    ends on a snapshot instant, when the object is absent at a snapshot and
    comes back with AA, and when a lone-D log sits on a snapshot instant.
    Queries at t_max, itself a snapshot instant, answer as the oracle."""
    monkeypatch.setattr(trajindex.logs, "STRIDE", stride)
    index = TrajectoryIndex.build(_GAP_SERIES, period=8, k=2, side=64)
    oracle = Oracle(_GAP_SERIES)
    logs, o1, o4 = index.logs, int(index._oid(1)), int(index._oid(4))
    g = logs.find(1, o1)
    assert logs.table.sym_off[g + 1] - logs.table.sym_off[g] == 1 and logs.table.ends_d[g]
    assert index.snapshots[2].find_object(o1) is None and logs.first_anchor(logs.find(2, o1))[0] == 19
    assert logs.first_anchor(logs.find(1, o4)) == (16, (50, 60))
    assert index.params.t_max == 32 == 4 * index.params.period
    for obj in _GAP_SERIES:
        for t_b in range(-1, 35):
            for t_e in range(t_b - 1, 35):
                got = index.trajectory(obj, t_b, t_e)
                assert got == oracle.trajectory(obj, t_b, t_e), (obj, t_b, t_e)
    assert index.position_of(2, 32) == oracle.position_of(2, 32)
    assert index.time_slice((0, 0, 63, 63), 32) == oracle.time_slice((0, 0, 63, 63), 32)
    assert index.knn(3, (0, 0), 32) == oracle.knn(3, (0, 0), 32)


def _path(start, moves):
    """The cells a walk from ``start`` visits, one per instant."""
    cells = [start]
    for dx, dy in moves:
        x, y = cells[-1]
        cells.append((x + dx, y + dy))
    return cells


R, U = (1, 0), (0, 1)
_BLOCK_TEST_SERIES = {
    # from snapshot 0 across three portions; the repeats become rules
    1: [(0, _path((0, 0), [R, R, U] * 12 + [U, R] * 5 + [R] * 7))],
    # opened by AA inside the first portion
    2: [(7, _path((40, 0), [U, U, R] * 13))],
    # closed by D at instant 7, back by AA in the last portion
    3: [(0, _path((0, 40), [R] * 7)), (44, _path((20, 50), [R, U] * 7))],
    # RM after a two-instant gap, RNM after a one-instant gap
    4: [(0, _path((58, 20), [U] * 14)), (17, _path((60, 36), [U] * 4)),
        (23, _path((60, 40), [U] * 12))],
    # up to two cells along each axis per instant: its logs run longest
    5: [(0, _path((30, 30), random.Random(19).choices(
        [(a, b) for a in range(-2, 3) for b in range(-2, 3) if a or b], k=58)))],
}


@pytest.mark.parametrize("stride", [1, 2, 3, 16])
def test_block_test_keeps_every_visit(stride, monkeypatch):
    """An interval whose region holds one cell an object visits answers as
    the oracle for windows around that visit, wherever the visit falls: on
    a block's first instant, on its last (the next checkpoint's), inside a
    rule, in an AA-opened log, or after a D-closed log's end."""
    monkeypatch.setattr(trajindex.logs, "STRIDE", stride)
    index = TrajectoryIndex.build(_BLOCK_TEST_SERIES, period=20, k=2, side=64)
    oracle = Oracle(_BLOCK_TEST_SERIES)
    logs, t_max = index.logs, index.params.t_max
    assert logs.checkpoints.off[-1] > 0  # blocks end at checkpoints too
    assert (logs.syms >= index.rules.nt_base).any()
    assert len(logs.appearing(0)) and len(logs.disappeared(1))
    visits = {
        (t, cell)
        for timeline in oracle.timelines.values()
        for t, cell in timeline.items()
    }
    for v, (x, y) in sorted(visits):
        region = (x, y, x, y)
        for t_b in {max(0, v - 2), max(0, v - 1), v, v + 1, 0, 8, 21, 41}:
            for t_e in {t_b, v - 1, v, v + 1, t_max}:
                if t_e < t_b:
                    continue
                want = oracle.time_interval(region, t_b, t_e)
                for mbr, er in itertools.product((True, False), repeat=2):
                    got = index.time_interval(region, t_b, t_e, use_mbr=mbr, use_er=er)
                    assert got == want, (region, t_b, t_e, mbr, er)


def test_interval_walks_only_candidates_a_block_box_admits(monkeypatch):
    """A region no object visits in the window starts no log walk, though
    both objects can reach it; an answer found only inside a log still
    starts one.  A log of several blocks starts none when its box misses
    the region, nor when its box meets it but no block in the window does."""
    walks = []
    inner = trajindex.logs.LogStore.elements

    def counting(self, *args, **kwargs):
        walks.append(int(self.table.ids[args[0]]))  # (log, t_c, ...)
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(trajindex.logs.LogStore, "elements", counting)
    series = {
        1: [(0, [(5, 8), (6, 8)] * 20 + [(5, 8)])],  # two cells short of (8, 8)
        2: [(0, _path((20, 20), [(0, 0)] * 10 + [R] * 10 + [(0, 0)] * 20))],
    }
    index = TrajectoryIndex.build(series, period=20, k=2, side=64)
    assert index.params.max_speed == 1
    assert index.time_interval((8, 8, 8, 8), 1, 39, use_mbr=False) == []
    assert sorted(set(walks)) == [0, 1]  # both are candidates
    walks.clear()
    assert index.time_interval((8, 8, 8, 8), 1, 39) == []
    assert walks == []
    # object 2 passes (25, 20) at instant 15 only, inside its first log
    assert index.time_interval((25, 20, 25, 20), 12, 18) == [2]
    assert walks == [1]

    # object 3's first log has one block per symbol: it steps two cells
    # east and back, then stays put
    monkeypatch.setattr(trajindex.logs, "STRIDE", 1)
    series[3] = [(0, _path((40, 40), [R, R, (-1, 0), (-1, 0)] + [(0, 0)] * 36))]
    index = TrajectoryIndex.build(series, period=20, k=2, side=64)
    logs, cp, o3 = index.logs, index.logs.checkpoints, int(index._oid(3))
    g = logs.find(0, o3)
    assert cp.off[g + 1] - cp.off[g] > 1
    # the log's box misses (44, 40), which object 3 can reach by instant 19
    assert index.time_interval((44, 40, 44, 40), 1, 19, use_mbr=False) == []
    assert o3 in walks
    walks.clear()
    assert index.time_interval((44, 40, 44, 40), 1, 19) == []
    assert walks == []
    # the log's box meets (42, 40), visited at instant 2 only, but no block
    # in [14, 19] does
    assert cp.box[g + int(cp.off[g])].tolist()[2] == 2
    assert index.time_interval((42, 40, 42, 40), 14, 19) == []
    assert walks == []
    assert index.time_interval((42, 40, 42, 40), 1, 19) == [3]
    assert walks == [o3]


def _positions_walking_forward(index, oracle, monkeypatch):
    """position_of answers as the oracle for every object at every instant
    while the backward walker and ``move_back`` raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("an object query walked backward")

    monkeypatch.setattr(trajindex.logs.LogStore, "elements_backward", refuse)
    monkeypatch.setattr(trajindex.engine, "move_back", refuse)
    for obj in oracle.timelines:
        for t in range(index.params.t_max + 1):
            assert index.position_of(obj, t) == oracle.position_of(obj, t), (obj, t)


@pytest.mark.parametrize("period", PERIODS)
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_object_queries_walk_forward_only(name, period, indexes, oracles, monkeypatch):
    _positions_walking_forward(indexes[name, period], oracles[name], monkeypatch)


def test_fixture_object_queries_walk_forward_only(
    walkthrough_index, walkthrough_oracle, appearance_index, appearance_series, monkeypatch
):
    _positions_walking_forward(walkthrough_index, walkthrough_oracle, monkeypatch)
    _positions_walking_forward(appearance_index, Oracle(appearance_series), monkeypatch)
