"""k2-tree: a compact quadtree-style bitmap over a boolean grid.

The grid (side = k^height) is split into k x k sub-squares, row-major with
ascending y then ascending x; each sub-square contributes one bit (1 when it
contains at least one occupied cell).  Non-empty sub-squares recurse.  Bits
of all levels are concatenated level by level into one bitmap T:L; the
internal levels make up T and the last level (individual cells) makes up L,
which the file stores apart.  A node is numbered by the rank of its bit in
T:L, the root being node 0.  Node c is internal while c is at most the
number of ones in T, and finds its k^2 child slots at positions
c*k^2 .. c*k^2+k^2-1 (0-based); past that it is an occupied cell.  So
navigation both downward (rank) and upward (select) needs no pointers.

Occupied cells are numbered 1..m in L order ("leaf rank"); a snapshot's
file form groups its objects per cell through that numbering.

The k2-tree is the snapshots' file codec and nothing more: no index holds
one.  ``TrajectoryIndex.to_bytes`` writes each snapshot's cells as the T
and L that ``encode`` returns, and builds no bit vector; loading checks
each tree's level sizes with ``check_levels`` and decodes all of an
index's trees in one numpy pass with ``decode_cells``, which ranks
nothing, reads the T and L bits as the file's sections give them and
rejects a one in T over no cells.  So each loaded tree is the one
``encode`` makes from its cells, and an index re-saves to the bytes it
was loaded from; each snapshot answers from its decoded table (see
``snapshot``).

``K2Tree`` holds one tree's T:L in a ``BitVector`` for the reference
navigators the snapshot tables are tested against.  ``cell`` and
``locate`` rank and select, and share no code with ``decode_cells``;
``cells`` locates every leaf, ``range_report`` keeps the cells inside a
region and ``nodes_by_distance`` sorts them by their distance from a
query point.
"""

import math

import numpy as np

from .bits import BitVector
from .serial import SerializationError

# a node's k^2 child slots are allocated side by side, and a cell's path key
# (base k^2, up to side^2 - 1) is an int64
MAX_K = 256
MAX_SIDE = math.isqrt(2**63)


class K2Tree:
    def __init__(self, k, side, t_bits, l_bits):
        """``t_bits``, ``l_bits``: T and L as uint8 arrays of 0s and 1s."""
        check_levels(k, side, t_bits, l_bits)
        self.k = k
        self.side = side
        self.height = height_of(k, side)
        self.len_t = len(t_bits)
        self.bits = BitVector(np.concatenate([t_bits, l_bits]))
        self.t_ones = self.bits.rank1(self.len_t)

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, k, side, xs, ys):
        """Build from occupied cells (duplicates allowed)."""
        return cls(k, side, *encode(k, side, xs, ys))

    # -- point access ------------------------------------------------------

    def cell(self, x, y):
        """Leaf rank (1-based, in L order) of cell (x, y); None when empty."""
        if not (0 <= x < self.side and 0 <= y < self.side):
            return None
        k = self.k
        node = 0
        sub = self.side
        for _ in range(self.height):
            sub //= k
            cy, y = divmod(y, sub)
            cx, x = divmod(x, sub)
            pos = node * k * k + cy * k + cx + 1
            if not self.bits.bit(pos):
                return None
            node = self.bits.rank1(pos)
        return node - self.t_ones

    def locate(self, leaf_rank):
        """Cell (x, y) of the leaf with the given 1-based rank."""
        k, kk = self.k, self.k * self.k
        pos = self.bits.select1(self.t_ones + leaf_rank) - 1
        x = y = 0
        sub = 1  # the side of the sub-square at pos, walking up from a cell
        while True:
            node, slot = divmod(pos, kk)
            y += (slot // k) * sub
            x += (slot % k) * sub
            if node == 0:
                return (x, y)
            sub *= k
            pos = self.bits.select1(node) - 1

    # -- region access -----------------------------------------------------

    def range_report(self, region):
        """All occupied cells inside a region, as (x, y, leaf_rank) in L order."""
        if region is None:
            return []
        x1, y1, x2, y2 = region
        xs, ys = self.cells()
        hit = np.flatnonzero((x1 <= xs) & (xs <= x2) & (y1 <= ys) & (ys <= y2))
        return list(zip(xs[hit].tolist(), ys[hit].tolist(), (hit + 1).tolist()))

    def cells(self):
        """Every occupied cell as two int64 arrays ``xs, ys`` in L order, so
        index i holds leaf rank i + 1, each located by select, so memory
        follows the cells rather than the k^2 slots of each node."""
        m = self.bits.n_ones - self.t_ones
        xy = np.array([self.locate(r) for r in range(1, m + 1)], dtype=np.int64).reshape(m, 2)
        return xy[:, 0], xy[:, 1]

    def nodes_by_distance(self, qx, qy):
        """Occupied cells in non-decreasing distance from (qx, qy).

        Yields one (x, y, leaf_rank, dist) per occupied cell, lazily, so the
        caller may simply stop consuming once distances exceed its cut-off.
        ``dist`` is ``math.hypot`` of the offsets, bit for bit what the
        oracle computes, and equal distances come out in L order.
        """
        xs, ys = self.cells()
        xl, yl = xs.tolist(), ys.tolist()
        hypot = math.hypot
        dist = [hypot(x - qx, y - qy) for x, y in zip(xl, yl)]
        for i in sorted(range(len(dist)), key=dist.__getitem__):
            yield xl[i], yl[i], i + 1, dist[i]


def encode(k, side, xs, ys):
    """T and L, as uint8 arrays of 0s and 1s, of the tree over the occupied
    cells ``xs``, ``ys`` (duplicates allowed).

    The cells' path keys are sorted once.  A level's nodes are the keys cut
    to that level's digits, still sorted, so the distinct ones are those
    that differ from their left neighbour; each node's bit sits in its
    parent's k^2 slots, at its last digit."""
    height, kk = height_of(k, side), k * k
    keys = np.sort(path_keys(k, side, xs, ys))
    new = np.ones(len(keys), dtype=bool)  # each key's node differs from the last
    levels = []
    parents = np.zeros(1, dtype=np.int64)  # the root
    for level in range(1, height + 1):
        nodes = keys // kk ** (height - level)
        new[1:] = nodes[1:] != nodes[:-1]
        nodes = nodes[new]
        bits = np.zeros(len(parents) * kk, dtype=np.uint8)
        bits[np.searchsorted(parents, nodes // kk) * kk + nodes % kk] = 1
        levels.append(bits)
        parents = nodes
    l_bits = levels.pop()  # with no cells, every level past the first is empty
    return np.concatenate([np.zeros(0, dtype=np.uint8), *levels]), l_bits


def decode_cells(k, side, trees):
    """Every occupied cell of each of ``trees``, decoded in one numpy pass:
    ``xs, ys, counts``, where tree i's cells, in L order, are the
    ``counts[i]`` entries after those of the trees before it.

    Each tree is given as its T and L, uint8 arrays of 0s and 1s as
    ``encode`` returns them and a file section is read, over a grid of
    ``side`` at ``k``, with level sizes that ``check_levels`` accepts.  The
    trees' T:L bits are read end to end for their ones.  A tree's j-th one
    (0-based), at position p, is its node j + 1, a child of its node
    p // k^2 in slot p % k^2.  Entry e of the joint table is the e-th one
    of all the trees, and one entry after them stands for every root; one
    pass per level then places each node's square inside its parent's.

    A one in T whose k^2 child slots are all zero, which no build writes,
    raises ``SerializationError`` naming the tree's position as its snapshot.
    """
    height, kk = height_of(k, side), k * k
    bits = np.concatenate([np.zeros(0, dtype=np.uint8)] + [b for tl in trees for b in tl])
    pos = np.flatnonzero(bits)
    first_bit = np.cumsum([0] + [len(t) + len(l) for t, l in trees], dtype=np.int64)
    tree = np.searchsorted(first_bit, pos, side="right") - 1  # each one's tree
    pos -= first_bit[tree]
    len_t = np.array([len(t) for t, _ in trees], dtype=np.int64)
    ones = np.bincount(tree, minlength=len(trees))
    t_ones = np.bincount(tree[pos < len_t[tree]], minlength=len(trees))
    n = len(pos)
    before = (np.cumsum(ones) - ones)[tree]  # the ones of earlier trees
    parent, slot = np.divmod(pos, kk)
    parent = np.where(parent == 0, n, before + parent - 1)
    leaf = np.arange(n) - before >= t_ones[tree]  # node number past t_ones
    has_child = np.zeros(n + 1, dtype=bool)
    has_child[parent] = True
    childless = np.flatnonzero(~(leaf | has_child[:n]))
    if len(childless):
        raise SerializationError(
            "snapshot %d: a one in T has all its child slots 0" % tree[childless[0]]
        )
    # x * side + y of each node's square, in units of its own side; the
    # roots' entry stays 0, and after pass i every node of level i is exact
    step = slot % k * side + slot // k
    square = np.zeros(n + 1, dtype=np.int64)
    for _ in range(height):
        square[:n] = square[parent] * k + step
    xs, ys = np.divmod(square[:n][leaf], side)
    return xs, ys, ones - t_ones


def check_levels(k, side, t_bits, l_bits):
    """Raise ValueError unless T and L, uint8 arrays of 0s and 1s, have the
    level sizes of a tree over a grid of ``side``: level 1 has k^2 bits,
    each later level k^2 per one of the level before, levels 1..height-1
    fill T and level height is L."""
    kk = k * k
    pos, size = 0, kk
    for _ in range(height_of(k, side) - 1):
        ones = int(np.count_nonzero(t_bits[pos:pos + size]))
        pos, size = pos + size, kk * ones
    if pos != len(t_bits) or size != len(l_bits):
        raise ValueError("k2-tree level sizes disagree with T and L")


def height_of(k, side):
    """Levels of a grid of ``side`` (a power of k within the bounds above)."""
    if not 2 <= k <= MAX_K or side > MAX_SIDE:
        raise ValueError(
            "k %d or side %d out of range (k 2..%d, side at most %d)" % (k, side, MAX_K, MAX_SIDE)
        )
    height = 0
    s = 1
    while s < side:
        s *= k
        height += 1
    if s != side or height < 1:
        raise ValueError("side must be a positive power of k (and > 1)")
    return height


def path_keys(k, side, xs, ys):
    """Base-k^2 digit string of each cell's root-to-leaf child indices."""
    height = height_of(k, side)
    keys = np.zeros(len(xs), dtype=np.int64)
    lx = np.array(xs, dtype=np.int64)
    ly = np.array(ys, dtype=np.int64)
    if len(lx) and (lx.min() < 0 or ly.min() < 0 or lx.max() >= side or ly.max() >= side):
        raise ValueError("cell outside the grid")
    sub = side
    for _ in range(height):
        sub //= k
        cy, ly = np.divmod(ly, sub)
        cx, lx = np.divmod(lx, sub)
        keys = keys * (k * k) + (cy * k + cx)
    return keys
