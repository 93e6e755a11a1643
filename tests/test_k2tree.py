import math
import random
import tracemalloc

import numpy as np
import pytest

from trajindex.k2tree import K2Tree, check_levels, decode_cells, encode, path_keys
from trajindex.serial import SerializationError


def build_from_cells(cells, side=16, k=2):
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    return K2Tree.build(k, side, xs, ys)


def test_single_cell_bitmaps():
    t_bits, l_bits = encode(2, 4, [0], [0])
    assert t_bits.tolist() == [1, 0, 0, 0]
    assert l_bits.tolist() == [1, 0, 0, 0]


@pytest.mark.parametrize("k,side", [(2, 16), (3, 27), (4, 64)])
@pytest.mark.parametrize("case", ["none", "one", "duplicates", "many"])
def test_encode_matches_its_references(k, side, case):
    # each check reads T and L through code that encode does not share:
    # the level sizes, the one-pass decode, and rank/select navigation
    rng = np.random.default_rng(k * side)
    n = {"none": 0, "one": 1, "duplicates": 5, "many": 150}[case]
    xs, ys = rng.integers(0, side, size=(2, n)).tolist()
    if case == "duplicates":
        xs, ys = xs[:2] * 3, ys[:2] * 3
    t_bits, l_bits = encode(k, side, xs, ys)
    check_levels(k, side, t_bits, l_bits)
    dx, dy, counts = decode_cells(k, side, [(t_bits, l_bits)])
    distinct = sorted(set(zip(xs, ys)), key=lambda c: path_keys(k, side, [c[0]], [c[1]])[0])
    assert list(zip(dx.tolist(), dy.tolist())) == distinct
    assert counts.tolist() == [len(distinct)]
    grid = np.zeros((side, side), dtype=bool)
    grid[xs, ys] = True
    tree = K2Tree(k, side, t_bits, l_bits)
    ranks = {}
    for x in range(side):
        for y in range(side):
            rank = tree.cell(x, y)
            assert (rank is not None) == grid[x, y]
            if rank is not None:
                ranks[rank] = (x, y)
    assert ranks == dict(enumerate(distinct, 1))
    assert all(tree.locate(r) == cell for r, cell in ranks.items())


def test_cell_and_locate_round_trip():
    cells = [(9, 5), (10, 3), (4, 3)]
    tree = build_from_cells(cells)
    ranks = {}
    for x, y in cells:
        rank = tree.cell(x, y)
        assert rank is not None
        ranks[rank] = (x, y)
    assert sorted(ranks) == [1, 2, 3]
    for rank, pos in ranks.items():
        assert tree.locate(rank) == pos
    assert tree.cell(0, 0) is None
    assert tree.cell(-1, 3) is None
    assert len(tree.cells()[0]) == 3


def test_duplicate_cells_collapse():
    tree = build_from_cells([(3, 3), (3, 3), (3, 3)], side=8)
    assert len(tree.cells()[0]) == 1


def test_out_of_grid_rejected():
    with pytest.raises(ValueError):
        build_from_cells([(16, 0)], side=16)


def test_bad_side_rejected():
    with pytest.raises(ValueError):
        build_from_cells([(0, 0)], side=10)


def test_range_report_orders_by_leaf():
    tree = build_from_cells([(9, 5), (10, 3), (4, 3)])
    hits = tree.range_report((0, 0, 15, 15))
    assert [(x, y) for x, y, _r in hits] == [
        tree.locate(r) for r in range(1, 4)
    ]
    assert tree.range_report((7, 3, 10, 4)) == [
        (10, 3, tree.cell(10, 3)),
    ]
    assert tree.range_report((0, 0, 3, 3)) == []


def test_empty_tree():
    for k, side in [(2, 16), (3, 3), (4, 64)]:
        tree = K2Tree.build(k, side, [], [])
        assert len(tree.cells()[0]) == 0
        assert tree.cell(1, 1) is None
        xs, ys = tree.cells()
        assert xs.tolist() == ys.tolist() == []
        assert tree.range_report((0, 0, side - 1, side - 1)) == []
        assert tree.range_report((-3, -3, side + 2, side + 2)) == []
        assert list(tree.nodes_by_distance(1, 1)) == []


@pytest.mark.parametrize("k", [2, 3, 4])
def test_height_one_tree(k):
    # side = k: T is empty and L is the root's k^2 slots
    cells = [(k - 1, 0), (0, 0), (1, k - 1)]
    tree = build_from_cells(cells, side=k, k=k)
    assert tree.height == 1 and tree.len_t == 0
    in_l_order = sorted(set(cells), key=lambda c: (c[1], c[0]))
    xs, ys = tree.cells()
    assert list(zip(xs.tolist(), ys.tolist())) == in_l_order
    assert tree.range_report((0, 0, k - 1, k - 1)) == [
        (x, y, r) for r, (x, y) in enumerate(in_l_order, 1)
    ]
    got = list(tree.nodes_by_distance(k - 1, k - 1))
    assert sorted((d, x, y) for x, y, _r, d in got) == sorted(
        (math.hypot(x - k + 1, y - k + 1), x, y) for x, y in in_l_order
    )
    assert all(r == tree.cell(x, y) for x, y, r, _d in got)


def test_distance_walk_on_verified_scene():
    # three occupied cells; distances from (10, 0) checked by hand
    tree = build_from_cells([(9, 5), (10, 3), (4, 3)])
    cells = list(tree.nodes_by_distance(10, 0))
    assert [(x, y) for x, y, _r, _d in cells] == [(10, 3), (9, 5), (4, 3)]
    assert [r for x, y, r, _d in cells] == [tree.cell(x, y) for x, y, _r, _d in cells]
    assert cells[0][3] == pytest.approx(3.0)
    assert cells[1][3] == pytest.approx(math.sqrt(26))
    assert cells[2][3] == pytest.approx(math.sqrt(45))


@pytest.mark.parametrize("k,side", [(2, 64), (3, 81), (4, 64)])
def test_random_instances_match_matrix(k, side):
    rng = np.random.default_rng(side * k)
    for _ in range(12):
        n = int(rng.integers(0, 120))
        xs = rng.integers(0, side, size=n)
        ys = rng.integers(0, side, size=n)
        grid = np.zeros((side, side), dtype=bool)
        grid[xs, ys] = True
        tree = K2Tree.build(k, side, xs, ys)
        assert len(tree.cells()[0]) == int(grid.sum())
        # point membership on a sample plus all occupied cells
        for x, y in zip(xs, ys):
            rank = tree.cell(int(x), int(y))
            assert rank is not None
            assert tree.locate(rank) == (int(x), int(y))
        for _ in range(30):
            x, y = int(rng.integers(side)), int(rng.integers(side))
            assert (tree.cell(x, y) is not None) == bool(grid[x, y])
        # region report vs matrix scan
        x1, y1 = int(rng.integers(side)), int(rng.integers(side))
        x2 = min(side - 1, x1 + int(rng.integers(side // 2)))
        y2 = min(side - 1, y1 + int(rng.integers(side // 2)))
        expect = {
            (x, y)
            for x in range(x1, x2 + 1)
            for y in range(y1, y2 + 1)
            if grid[x, y]
        }
        got = {(x, y) for x, y, _r in tree.range_report((x1, y1, x2, y2))}
        assert got == expect


def test_distance_walk_complete_and_sorted():
    rng = np.random.default_rng(17)
    side = 32
    xs = rng.integers(0, side, size=40)
    ys = rng.integers(0, side, size=40)
    tree = K2Tree.build(2, side, xs, ys)
    q = (int(rng.integers(side)), int(rng.integers(side)))
    cells = list(tree.nodes_by_distance(*q))
    assert {(x, y) for x, y, _r, _d in cells} == set(zip(map(int, xs), map(int, ys)))
    assert len(cells) == len(tree.cells()[0])
    dists = [d for _, _, _, d in cells]
    assert dists == sorted(dists)
    for x, y, r, d in cells:
        assert r == tree.cell(x, y)
        assert d == pytest.approx(math.hypot(x - q[0], y - q[1]))


@pytest.mark.parametrize("k,side", [(2, 64), (3, 81), (4, 64)])
def test_whole_grid_reports_every_leaf_in_order(k, side):
    rng = np.random.default_rng(k)
    xs = rng.integers(0, side, size=90)
    ys = rng.integers(0, side, size=90)
    tree = K2Tree.build(k, side, xs, ys)
    want = [(*tree.locate(r), r) for r in range(1, len(tree.cells()[0]) + 1)]
    # the grid itself, and a region that spills past it on every side
    for region in ((0, 0, side - 1, side - 1), (-3, -3, side + 2, side + 2)):
        assert tree.range_report(region) == want
    cx, cy = tree.cells()
    assert list(zip(cx.tolist(), cy.tolist())) == [(x, y) for x, y, _r in want]
    # one cell short of the grid on one side: the last column drops out
    assert tree.range_report((0, 0, side - 2, side - 1)) == [
        (x, y, r) for x, y, r in want if x < side - 1
    ]


@pytest.mark.parametrize("k,side", [(2, 64), (3, 81), (4, 64)])
def test_decode_of_many_trees_matches_each_tree(k, side):
    # empty trees first, between and last, and trees of one cell and of many
    rng = np.random.default_rng(side + k)
    bits = [
        encode(k, side, *rng.integers(0, side, size=(2, n)))
        for n in (0, 1, 60, 0, 0, 7, 200, 3, 0)
    ]
    trees = [K2Tree(k, side, *b) for b in bits]
    xs, ys, counts = decode_cells(k, side, bits)
    assert counts.tolist() == [t.bits.n_ones - t.t_ones for t in trees]
    cuts = np.append(0, np.cumsum(counts))
    for tree, i, j in zip(trees, cuts[:-1], cuts[1:]):
        cx, cy = tree.cells()
        assert xs[i:j].tolist() == cx.tolist() and ys[i:j].tolist() == cy.tolist()
        want = [tree.locate(r) for r in range(1, len(tree.cells()[0]) + 1)]
        assert list(zip(cx.tolist(), cy.tolist())) == want
    assert [a.tolist() for a in decode_cells(k, side, [])] == [[], [], []]


def test_decode_rejects_a_one_in_t_over_no_cells():
    good = encode(2, 8, [1], [1])
    # level 1's slot 1 set, with its four level-2 slots all zero
    bad = np.array([1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8), good[1]
    check_levels(2, 8, *bad)
    with pytest.raises(SerializationError, match="snapshot 1: a one in T"):
        decode_cells(2, 8, [good, bad, good])


@pytest.mark.parametrize("k,side", [(3, 27), (4, 64)])
def test_distance_walk_matches_brute_force(k, side):
    rng = np.random.default_rng(side)
    cells = {(int(x), int(y)) for x, y in rng.integers(0, side, size=(50, 2))}
    # four cells at distance 5 from the grid centre, and two at 2
    c = side // 2
    cells |= {(c + 3, c + 4), (c - 4, c + 3), (c - 3, c - 4), (c + 5, c), (c, c + 2), (c - 2, c)}
    tree = build_from_cells(sorted(cells), side=side, k=k)
    for q in [(c, c), (0, side - 1), (int(rng.integers(side)), int(rng.integers(side)))]:
        # equal distances come out in L order
        want = sorted(
            ((x - q[0]) ** 2 + (y - q[1]) ** 2, tree.cell(x, y), x, y) for x, y in cells
        )
        assert list(tree.nodes_by_distance(*q)) == [
            (x, y, r, math.hypot(x - q[0], y - q[1])) for _sq, r, x, y in want
        ]


def test_build_peak_memory_stays_near_the_bits():
    # at k=256 each node has 65,536 child slots; the build keeps one byte
    # per slot and makes no wider per-slot temporaries (40 nodes of level 2
    # hold 2.6 MB of slots)
    rng = random.Random(40)
    cells = [(rng.randrange(2**16), rng.randrange(2**16)) for _ in range(40)]
    tracemalloc.start()
    try:
        tree = build_from_cells(cells, side=2**16, k=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000
    assert len(tree.cells()[0]) == len(set(cells))
    assert all(tree.cell(x, y) is not None for x, y in cells)
    # the whole-grid report decodes every cell, as loading does
    hits = tree.range_report((0, 0, 2**16 - 1, 2**16 - 1))
    assert sorted((x, y) for x, y, _r in hits) == sorted(set(cells))
    assert len(hits) == 40


def test_distance_walk_far_off_the_grid():
    # offsets whose squares overflow int64; from (10^30, 10^30) all four
    # distances round to one float, so they come out in L order
    cells = [(0, 0), (15, 15), (3, 12), (12, 3)]
    tree = build_from_cells(cells)
    for q in [(10**12, -5), (-(2**40), 2**40), (10**30, 10**30)]:
        want = sorted((math.hypot(x - q[0], y - q[1]), tree.cell(x, y), x, y) for x, y in cells)
        assert list(tree.nodes_by_distance(*q)) == [(x, y, r, d) for d, r, x, y in want]


def test_distance_walk_memory_follows_the_cells():
    # k=256 over a 2^24 grid: levels 2 and 3 hold 40 x 65,536 slots each
    # (2.6 MB unpacked, 5.3 MB for the whole T:L), but the decode unpacks
    # only the bytes that hold a one
    rng = random.Random(24)
    cells = [(rng.randrange(2**24), rng.randrange(2**24)) for _ in range(40)]
    tree = build_from_cells(cells, side=2**24, k=256)
    assert tree.height == 3
    q = (2**23, 2**22)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = list(tree.nodes_by_distance(*q))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert [(d, x, y) for x, y, _r, d in got] == sorted(
        (math.hypot(x - q[0], y - q[1]), x, y) for x, y in cells
    )
    assert all(r == tree.cell(x, y) for x, y, r, _d in got)
