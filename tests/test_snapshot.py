import gc
import math
import random
import types

import numpy as np
import pytest

from trajindex import TrajectoryIndex
from trajindex.bits import BitVector, narrow
from trajindex.k2tree import K2Tree, decode_cells, encode
from trajindex.snapshot import Snapshot


@pytest.fixture(scope="module")
def s8(walkthrough_index):
    return walkthrough_index.snapshots[1]


class TestWalkthroughMiddleSnapshot:
    # internal ids are 0..6 for original objects 1..7

    def test_presence(self, s8):
        assert len(s8.ids) == 3
        assert [s8.find_object(o) is not None for o in range(7)] == [
            True, True, False, True, False, False, False,
        ]

    def test_find_object(self, s8):
        assert s8.find_object(0) == (9, 5)
        assert s8.find_object(1) == (10, 3)
        assert s8.find_object(3) == (4, 3)
        assert s8.find_object(2) is None
        assert s8.find_object(6) is None

    def test_appear_disappear_lists(self, walkthrough_index):
        logs = walkthrough_index.logs
        app, dis = (logs.table.ids[g] for g in (logs.appearing(1), logs.disappeared(1)))
        assert list(app) == [2, 4, 5, 6]
        assert list(dis) == [2, 4, 5]
        assert 4 in app and 0 not in app
        assert 5 in dis and 6 not in dis

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
        assert len(s0.ids) == 6  # everyone but object 7
        logs = walkthrough_index.logs
        assert list(logs.appearing(0)) == []  # nobody appears mid-portion-0
        assert list(logs.disappeared(0)) == []

    def test_last_snapshot(self, walkthrough_index):
        s16 = walkthrough_index.snapshots[2]
        assert len(s16.ids) == 7
        logs = walkthrough_index.logs
        assert list(logs.appearing(2)) == [] and list(logs.disappeared(2)) == []
        assert s16.find_object(6) == (12, 1)


@pytest.fixture(scope="module")
def shared():
    # objects 0 and 1 share cell (3, 3); object 2 sits alone
    return Snapshot.build([0, 1, 2], [3, 3, 5], [3, 3, 1], k=2, side=8, n_objects=3)


class TestGrouping:
    def test_shared_cell_group(self, shared):
        assert sorted(o for o, _ in shared.objects_in_region((3, 3, 3, 3))) == [0, 1]
        assert shared.objects_in_region((5, 1, 5, 1)) == [(2, (5, 1))]
        assert shared.objects_in_region((0, 0, 0, 0)) == []

    def test_group_boundary_bits(self, shared):
        # two cells: the shared one (leaf 1) holds objects 0 and 1
        assert shared.ids.tolist() == [0, 1, 2]
        assert shared.xy.tolist() == [[3, 3], [3, 3], [5, 1]]
        tree = K2Tree.build(2, 8, [3, 3, 5], [3, 3, 1])
        assert [tree.cell(x, y) for x, y in shared.xy.tolist()] == [1, 1, 2]
        assert shared.at.tolist() == [1, 2, 3]
        # the file's Q bitmap has one non-final member (the shared cell)
        present, perm, q = shared.file_fields()
        assert present.tolist() == [1, 1, 1]
        assert perm.tolist() == [0, 1, 2]
        assert q.tolist() == [1, 0, 0]

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
            Snapshot.build([0, 0], [1, 2], [1, 2], k=2, side=4, n_objects=1)

    def test_empty_snapshot(self):
        snap = Snapshot.build([], [], [], k=2, side=4, n_objects=5)
        assert len(snap.ids) == 0 and snap.xy.shape == (0, 2)
        assert snap.at.tolist() == [0] * 5
        assert snap.find_object(3) is None
        assert snap.objects_in_region((0, 0, 3, 3)) == []
        assert list(snap.candidates_by_distance(0, 0)) == []


def test_locate_round_trip(walkthrough_index, walkthrough_series):
    # every present object maps id -> cell -> row -> id consistently, and
    # its cell is one the series has occupied at the snapshot's instant
    for h, snap in enumerate(walkthrough_index.snapshots):
        t = 8 * h
        cells = [
            cs[t - start]
            for runs in walkthrough_series.values()
            for start, cs in runs
            if start <= t < start + len(cs)
        ]
        tree = K2Tree.build(2, 16, *zip(*cells))
        for oid in range(7):
            cell = snap.find_object(oid)
            if cell is None:
                assert snap.at[oid] == 0
            else:
                assert snap.ids[snap.at[oid] - 1] == oid
                assert tree.cell(*cell) is not None
                assert oid in [o for o, _ in snap.objects_in_region(cell + cell)]


def test_load_derives_the_built_arrays(indexes):
    """Loading derives each snapshot's arrays as build made them, each in
    its narrowest dtype, and a snapshot holds those arrays only."""
    for idx in indexes.values():
        loaded = TrajectoryIndex.from_bytes(idx.to_bytes())
        for built, snap in zip(idx.snapshots, loaded.snapshots):
            for name in ("ids", "xy", "at"):
                want, got = getattr(built, name), getattr(snap, name)
                assert got.tolist() == want.tolist()
                assert got.dtype == want.dtype == narrow(got).dtype
            assert set(vars(built)) == set(vars(snap)) == {"ids", "xy", "at"}


def _reachable(root):
    """Every object reachable from ``root`` through references, other than
    classes, modules and functions (whose globals reach everything)."""
    seen, todo = set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        yield obj
        todo.extend(gc.get_referents(obj))


def test_index_holds_no_tree_or_bit_vector(indexes):
    # the k2-tree is the snapshots' file form only
    for idx in indexes.values():
        for index in (idx, TrajectoryIndex.from_bytes(idx.to_bytes())):
            held = list(_reachable(index))
            assert any(obj is index.snapshots[0].xy for obj in held)
            assert not [obj for obj in held if isinstance(obj, (K2Tree, BitVector))]


class TreeAnswers:
    """A snapshot's answers as the k2-tree's ``locate`` gives them: each
    cell's ids are a slice of the ids in leaf order, cut where the file's Q
    bits are 0, and ``tree``, built from the cells the snapshot was built
    from, gives each leaf rank's cell by select, sharing no code with the
    decode that fills the tables."""

    def __init__(self, snap, tree):
        present, perm, q = snap.file_fields()
        ids = np.flatnonzero(present)[perm].tolist()
        group = [0] + (np.flatnonzero(q == 0) + 1).tolist()
        self.members = [ids[i:j] for i, j in zip(group[:-1], group[1:])]
        self.leaf = {oid: r for r, cell in enumerate(self.members, 1) for oid in cell}
        assert len(self.members) == tree.bits.n_ones - tree.t_ones
        # (cell, its ids) in leaf order
        self.cells = [(tree.locate(r), cell) for r, cell in enumerate(self.members, 1)]

    def find_object(self, oid):
        return self.cells[self.leaf[oid] - 1][0] if oid in self.leaf else None

    def objects_in_region(self, region):
        if region is None:
            return []
        x1, y1, x2, y2 = region
        return [
            (oid, (x, y))
            for (x, y), cell in self.cells
            if x1 <= x <= x2 and y1 <= y <= y2
            for oid in cell
        ]

    def candidates_by_distance(self, qx, qy):
        # a stable sort: equal distances stay in leaf order, then id order
        rows = [
            (oid, (x, y), math.hypot(x - qx, y - qy)) for (x, y), cell in self.cells for oid in cell
        ]
        return sorted(rows, key=lambda row: row[2])


def _random_snapshots(rng, k, side, n_objects):
    """Built snapshots with no object, one, and many, in few cells (so most
    cells are shared) and in many, each with the k2-tree of the cells it
    was built from, as its T and L."""
    out = []
    for n_present, n_cells in ((0, 0), (1, 1), (12, 3), (30, 30), (n_objects, 9)):
        cells = [(rng.randrange(side), rng.randrange(side)) for _ in range(n_cells)]
        oids = rng.sample(range(n_objects), n_present)
        xs, ys = zip(*[rng.choice(cells) for _ in oids]) if oids else ((), ())
        snap = Snapshot.build(oids, xs, ys, k, side, n_objects)
        out.append((snap, encode(k, side, xs, ys)))
    return out


@pytest.mark.parametrize("k,side", [(2, 64), (3, 81), (4, 64)])
def test_table_answers_as_the_tree(k, side):
    rng = random.Random(k * side)
    n_objects = 40
    built, bits = zip(*_random_snapshots(rng, k, side, n_objects))
    trees = tuple(K2Tree(k, side, *b) for b in bits)
    # loaded: the file's fields, with every tree decoded in one pass
    xs, ys, counts = decode_cells(k, side, bits)
    cuts = np.append(0, np.cumsum(counts)).tolist()
    loaded = [
        Snapshot.load((xs[i:j], ys[i:j]), *s.file_fields(), n_objects)
        for s, i, j in zip(built, cuts[:-1], cuts[1:])
    ]
    regions = [None, (0, 0, side - 1, side - 1), (-5, -5, side + 4, side + 4), (3, 3, 2, 2)]
    for _ in range(40):
        x1, y1 = rng.randrange(-4, side), rng.randrange(-4, side)
        regions.append((x1, y1, x1 + rng.randrange(side // 2), y1 + rng.randrange(side // 2)))
    points = [(0, 0), (side - 1, side - 1), (-7, side + 3), (10**20, -(10**20))]
    points += [(rng.randrange(side), rng.randrange(side)) for _ in range(10)]
    for snap, tree in zip(built + tuple(loaded), trees * 2):
        want = TreeAnswers(snap, tree)
        for oid in range(n_objects):
            assert snap.find_object(oid) == want.find_object(oid)
        for region in regions:
            assert snap.objects_in_region(region) == want.objects_in_region(region)
        for q in points:
            assert list(snap.candidates_by_distance(*q)) == want.candidates_by_distance(*q)
    for b, snap in zip(built, loaded):
        assert snap.file_fields()[2].tolist() == b.file_fields()[2].tolist()
        for name in ("ids", "xy", "at"):
            assert getattr(snap, name).tolist() == getattr(b, name).tolist()
