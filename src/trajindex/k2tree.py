"""k2-tree: a compact quadtree-style bitmap over a boolean grid.

The grid (side = k^height) is split into k x k sub-squares, row-major with
ascending y then ascending x; each sub-square contributes one bit (1 when it
contains at least one occupied cell).  Non-empty sub-squares recurse.  Bits
of all internal levels are concatenated level by level into T; the last
level (individual cells) goes to L.  A node whose bit is the c-th one of T
finds its k^2 children at positions c*k^2 .. c*k^2+k^2-1 of the combined
T:L position space, so navigation both downward (rank) and upward (select)
needs no pointers.

Occupied cells are numbered 1..m in L order ("leaf rank"); snapshots attach
per-cell object groups through that numbering.

``nodes_by_distance`` drives nearest-neighbour search: a best-first walk
over tree regions yielding the occupied cells in non-decreasing Euclidean
distance from a query point.
"""

import heapq
import math

import numpy as np

from .bits import BitVector
from .geometry import dist_point_region, regions_intersect

# a node's k^2 child slots are allocated side by side, and a cell's path key
# (base k^2, up to side^2 - 1) is an int64
MAX_K = 256
MAX_SIDE = math.isqrt(2**63)


class K2Tree:
    def __init__(self, k, side, t_bits, l_bits):
        self.k = k
        self.side = side
        self.height = height_of(k, side)
        self.t = t_bits
        self.l = l_bits
        # level 1 has k^2 bits, each later level k^2 per one of the level
        # before; levels 1..height-1 fill T and level height is L (a level
        # running past T leaves pos past its end)
        kk = k * k
        pos, size = 0, kk
        for _ in range(self.height - 1):
            ones = int(np.count_nonzero(t_bits.raw[pos:pos + size]))
            pos, size = pos + size, kk * ones
        if pos != len(t_bits) or size != len(l_bits):
            raise ValueError("k2-tree level sizes disagree with T and L")

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, k, side, xs, ys):
        """Build from occupied cells (duplicates allowed)."""
        height = height_of(k, side)
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        if len(xs) and (xs.min() < 0 or ys.min() < 0 or xs.max() >= side or ys.max() >= side):
            raise ValueError("cell outside the grid")
        keys = np.unique(path_keys(k, side, xs, ys))
        kk = k * k
        levels = []
        parents = np.zeros(1, dtype=np.int64)  # the root
        for level in range(1, height + 1):
            # each node's bit sits in its parent's k^2 slots, at its last digit
            nodes = np.unique(keys // kk ** (height - level))
            bits = np.zeros(len(parents) * kk, dtype=np.uint8)
            bits[np.searchsorted(parents, nodes // kk) * kk + nodes % kk] = 1
            levels.append(bits)
            parents = nodes
        l_part = levels.pop()  # with no cells, every level past the first is empty
        t_all = np.concatenate([np.zeros(0, dtype=np.uint8), *levels])
        return cls(k, side, BitVector(t_all), BitVector(l_part))

    # -- point access ------------------------------------------------------

    def n_leaves(self):
        return self.l.n_ones

    def cell(self, x, y):
        """Leaf rank (1-based, in L order) of cell (x, y); None when empty."""
        if not (0 <= x < self.side and 0 <= y < self.side):
            return None
        k, kk = self.k, self.k * self.k
        len_t = len(self.t)
        group = 0
        sub = self.side
        lx, ly = x, y
        for level in range(1, self.height + 1):
            sub //= k
            cy, ly = divmod(ly, sub)
            cx, lx = divmod(lx, sub)
            pos = group * kk + (cy * k + cx)
            if level == self.height:
                if not self.l.bit(pos - len_t + 1):
                    return None
                return self.l.rank1(pos - len_t + 1)
            if not self.t.bit(pos + 1):
                return None
            group = self.t.rank1(pos + 1)
        return None

    def locate(self, leaf_rank):
        """Cell (x, y) of the leaf with the given 1-based rank."""
        kk = self.k * self.k
        pos = len(self.t) + self.l.select1(leaf_rank) - 1
        digits = []
        while True:
            digits.append(pos % kk)
            group = pos // kk
            if group == 0:
                break
            pos = self.t.select1(group) - 1
        x = y = 0
        sub = self.side
        for d in reversed(digits):
            sub //= self.k
            y += (d // self.k) * sub
            x += (d % self.k) * sub
        return (x, y)

    # -- region access -----------------------------------------------------

    def range_report(self, region):
        """All occupied cells inside a region, as (x, y, leaf_rank) in L order."""
        out = []
        if region is None:
            return out
        k, kk = self.k, self.k * self.k
        len_t = len(self.t)

        def visit(group, level, x0, y0, size):
            sub = size // k
            base = group * kk
            for ci in range(kk):
                cx0 = x0 + (ci % k) * sub
                cy0 = y0 + (ci // k) * sub
                box = (cx0, cy0, cx0 + sub - 1, cy0 + sub - 1)
                if not regions_intersect(box, region):
                    continue
                pos = base + ci
                if level == self.height:
                    if self.l.bit(pos - len_t + 1):
                        out.append((cx0, cy0, self.l.rank1(pos - len_t + 1)))
                elif self.t.bit(pos + 1):
                    visit(self.t.rank1(pos + 1), level + 1, cx0, cy0, sub)

        if len(self.l):
            visit(0, 1, 0, 0, self.side)
        return out

    def nodes_by_distance(self, qx, qy):
        """Occupied cells in non-decreasing distance from (qx, qy).

        A best-first walk over the tree regions that yields one
        (x, y, leaf_rank, dist) per occupied cell; equal distances come out
        in discovery order.  The caller may simply stop consuming once
        distances exceed its cut-off.
        """
        k, kk = self.k, self.k * self.k
        len_t = len(self.t)
        q = (qx, qy)
        root_box = (0, 0, self.side - 1, self.side - 1)
        # (dist, counter, level of the entry's children, T rank or leaf rank, box)
        heap = [(dist_point_region(q, root_box), 0, 1, 0, root_box)]
        counter = 1
        while heap:
            dist, _, level, payload, box = heapq.heappop(heap)
            if level > self.height:
                yield box[0], box[1], payload, dist
                continue
            x0, y0 = box[0], box[1]
            sub = (box[2] - x0 + 1) // k
            base = payload * kk
            for ci in range(kk):
                pos = base + ci
                if level == self.height:
                    if not self.l.bit(pos - len_t + 1):
                        continue
                    child = self.l.rank1(pos - len_t + 1)
                elif self.t.bit(pos + 1):
                    child = self.t.rank1(pos + 1)
                else:
                    continue
                cx0 = x0 + (ci % k) * sub
                cy0 = y0 + (ci // k) * sub
                cbox = (cx0, cy0, cx0 + sub - 1, cy0 + sub - 1)
                heapq.heappush(
                    heap, (dist_point_region(q, cbox), counter, level + 1, child, cbox)
                )
                counter += 1


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
    lx = np.asarray(xs, dtype=np.int64).copy()
    ly = np.asarray(ys, dtype=np.int64).copy()
    sub = side
    for _ in range(height):
        sub //= k
        cy, ly = np.divmod(ly, sub)
        cx, lx = np.divmod(lx, sub)
        keys = keys * (k * k) + (cy * k + cx)
    return keys
