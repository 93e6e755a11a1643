"""Absolute positions at one instant: the objects present and their cells.

In memory a snapshot is a table of three narrow arrays:

* ``ids`` — the present object ids, cell by cell in leaf order (build
  sorts each cell's ids);
* ``xy`` — an ``(n, 2)`` array, each row the cell of the id in the same
  row of ``ids``;
* ``at`` — each object id's row in ``xy`` plus 1, 0 when it is absent.

Leaf order is the order in which a k2-tree over the occupied cells numbers
them 1..m (``k2tree.path_keys``).  The k2-tree is the snapshot's file form
only: ``TrajectoryIndex.to_bytes`` encodes it from ``xy``, and loading
decodes it with ``k2tree.decode_cells`` for all of an index's trees in one
pass, so no snapshot holds a tree.  An object's cell is one lookup, and a
region query or a distance query is one pass over the table: O(present
objects), which on small snapshots (tens of cells) is far less Python work
than a k2-tree walk.  ``build`` fills the table from the id, x and y
columns of the objects present; ``load`` from the decoded cells.

Beside the tree the file keeps the paper's layout: a presence bitmap over all ids,
a permutation listing the presence ranks (0-based ranks among the present
ids) in leaf order, and a bitmap Q marking group boundaries, 1 for a
non-final member of a cell's group and 0 for the last.  ``load`` derives the
table from those fields and ``file_fields`` gives them back, reading a
group boundary wherever two neighbouring rows of ``xy`` differ.

The ids absent here that appear before the next snapshot, and those that
stopped emitting in the portion before, follow from the logs' AA and D
events; ``LogStore.appearing`` and ``LogStore.disappeared`` list them.
"""

import math
from operator import itemgetter

import numpy as np

from .bits import Permutation, narrow
from .k2tree import path_keys


class Snapshot:
    def __init__(self, ids, xy, n_objects):
        """``ids`` in leaf order and ``xy`` their cells, row for row."""
        self.ids = narrow(ids)
        self.xy = narrow(xy)
        at = np.zeros(n_objects, dtype=np.int64)
        at[ids] = np.arange(1, len(ids) + 1)
        self.at = narrow(at)

    @classmethod
    def build(cls, oids, xs, ys, k, side, n_objects):
        """From the id, x and y columns of the objects present, at most one
        cell per object."""
        oids, xs, ys = (np.asarray(c, dtype=np.int64) for c in (oids, xs, ys))
        if len(np.unique(oids)) != len(oids):
            raise ValueError("duplicate object in snapshot input")
        order = np.lexsort((oids, path_keys(k, side, xs, ys)))  # by leaf, then id
        return cls(oids[order], np.column_stack((xs[order], ys[order])), n_objects)

    @classmethod
    def load(cls, cells, present, perm, q, n_objects):
        """From the k2-tree's occupied cells ``(xs, ys)`` in L order and the
        file's fields: presence and Q bits as uint8 arrays, and the
        permutation's values."""
        if len(present) != n_objects:
            raise ValueError(
                "presence bitmap covers %d objects, not %d" % (len(present), n_objects)
            )
        present_ids = np.flatnonzero(present)
        perm = Permutation(perm).raw
        if not len(present_ids) == len(perm) == len(q):
            raise ValueError("presence bitmap, permutation and Q bitmap disagree")
        if len(q) and q[-1]:
            raise ValueError("Q bitmap leaves the last group open")
        xs, ys = cells
        if len(q) - np.count_nonzero(q) != len(xs):
            raise ValueError("Q bitmap and k2-tree disagree on the occupied cells")
        leaf = np.cumsum(q == 0) - (q == 0)  # each member's 0-based leaf rank
        return cls(present_ids[perm], np.column_stack((xs[leaf], ys[leaf])), n_objects)

    def file_fields(self):
        """(presence bits, permutation values, Q bits) as the file stores them."""
        present = (self.at > 0).astype(np.uint8)
        rank = np.cumsum(present, dtype=np.int64) - 1  # presence rank per id
        q = np.zeros(len(self.ids), dtype=np.uint8)
        q[:-1] = (self.xy[1:] == self.xy[:-1]).all(axis=1)
        return present, rank[self.ids], q

    def find_object(self, oid):
        """Cell of an object, or None when it is absent from this snapshot."""
        row = int(self.at[oid])
        return tuple(self.xy[row - 1].tolist()) if row else None

    def objects_in_region(self, region):
        """(object id, position) pairs inside a region, in leaf/group order."""
        if region is None:
            return []
        x1, y1, x2, y2 = region
        return [
            (oid, (x, y))
            for oid, (x, y) in zip(self.ids.tolist(), self.xy.tolist())
            if x1 <= x <= x2 and y1 <= y <= y2
        ]

    def candidates_by_distance(self, qx, qy):
        """Present objects in non-decreasing distance from (qx, qy).

        Yields (object id, position, distance), ``distance`` being
        ``math.hypot`` of the offsets, bit for bit what the oracle computes.
        Equal distances keep table order: leaf order, then id.  Because the
        stream is globally ordered, a consumer may stop at the first entry
        whose distance exceeds its cut-off.
        """
        hypot = math.hypot
        rows = [
            (hypot(x - qx, y - qy), oid, (x, y))
            for oid, (x, y) in zip(self.ids.tolist(), self.xy.tolist())
        ]
        rows.sort(key=itemgetter(0))  # stable
        for dist, oid, p in rows:
            yield oid, p, dist
