"""Absolute positions at one instant: a k2-tree plus the objects per cell.

The k2-tree records which cells are occupied, and numbers them 1..m in leaf
order.  In memory a snapshot holds three narrow arrays beside it:

* ``ids`` — the present object ids, cell by cell in leaf order (build
  sorts each cell's ids);
* ``group`` — where each cell's ids start: the ids of leaf r are
  ``ids[group[r-1]:group[r]]``;
* ``leaf`` — each object id's leaf rank, 0 when the object is absent.

So an object's cell is one lookup plus ``K2Tree.locate``, and a cell's
objects are one slice.  Each table is held once, as a numpy array with no
memoryview beside it: a region query converts the slices of the cells it
reports to Python ints, and a distance query the whole of ``ids`` and
``group`` at once, since it reads every cell.  ``build`` takes the id, x
and y columns of the objects present.

The file keeps the paper's layout instead: a presence bitmap over all ids,
a permutation listing the presence ranks (0-based ranks among the present
ids) in leaf order, and a bitmap Q marking group boundaries, 1 for a
non-final member of a cell's group and 0 for the last.  ``load`` derives the
arrays from those fields and ``file_fields`` gives them back.

The ids absent here that appear before the next snapshot, and those that
stopped emitting in the portion before, follow from the logs' AA and D
events; ``LogStore.appearing`` and ``LogStore.disappeared`` list them.
"""

import numpy as np

from .bits import Permutation, narrow
from .k2tree import K2Tree, path_keys


class Snapshot:
    def __init__(self, tree, ids, group, leaf):
        self.tree = tree
        self.ids = narrow(ids)
        self.group = narrow(group)
        self.leaf = narrow(leaf)

    @classmethod
    def _from_q(cls, tree, ids, q, n_objects):
        """From the ids in leaf order and the Q bits over them."""
        group = np.concatenate([[0], np.flatnonzero(q == 0) + 1])
        leaf = np.zeros(n_objects, dtype=np.int64)
        leaf[ids] = np.repeat(np.arange(1, len(group)), np.diff(group))
        return cls(tree, ids, group, leaf)

    @classmethod
    def build(cls, oids, xs, ys, k, side, n_objects):
        """From the id, x and y columns of the objects present, at most one
        cell per object."""
        oids, xs, ys = (np.asarray(c, dtype=np.int64) for c in (oids, xs, ys))
        if len(np.unique(oids)) != len(oids):
            raise ValueError("duplicate object in snapshot input")
        tree = K2Tree.build(k, side, xs, ys)
        # order by leaf, then by id; a group ends where the cell changes
        keys = path_keys(k, side, xs, ys)
        order = np.lexsort((oids, keys))
        keys = keys[order]
        q = np.zeros(len(oids), dtype=np.uint8)
        q[:-1] = keys[1:] == keys[:-1]
        return cls._from_q(tree, oids[order], q, n_objects)

    @classmethod
    def load(cls, tree, present, perm, q, n_objects):
        """From the file's fields: presence and Q bits as uint8 arrays, and
        the permutation's values."""
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
        if len(q) - np.count_nonzero(q) != tree.n_leaves():
            raise ValueError("Q bitmap and k2-tree disagree on the occupied cells")
        return cls._from_q(tree, present_ids[perm], q, n_objects)

    def file_fields(self):
        """(presence bits, permutation values, Q bits) as the file stores them."""
        present = (self.leaf > 0).astype(np.uint8)
        rank = np.cumsum(present, dtype=np.int64) - 1  # presence rank per id
        q = np.ones(len(self.ids), dtype=np.uint8)
        q[self.group[1:].astype(np.int64) - 1] = 0
        return present, rank[self.ids], q

    def find_object(self, oid):
        """Cell of an object, or None when it is absent from this snapshot."""
        leaf = int(self.leaf[oid])
        return self.tree.locate(leaf) if leaf else None

    def objects_in_region(self, region):
        """(object id, position) pairs inside a region, in leaf/group order."""
        if region is None:
            return []
        ids, group = self.ids, self.group
        out = []
        for x, y, leaf in self.tree.range_report(region):
            for oid in ids[group[leaf - 1]:group[leaf]].tolist():
                out.append((oid, (x, y)))
        return out

    def candidates_by_distance(self, qx, qy):
        """Present objects in non-decreasing distance from (qx, qy).

        Yields (object id, position, distance), the objects of each cell
        from the k2-tree's cell stream.  Because that stream is globally
        ordered, a consumer may stop at the first entry whose distance
        exceeds its cut-off.
        """
        ids, group = self.ids.tolist(), self.group.tolist()
        for x, y, leaf, dist in self.tree.nodes_by_distance(qx, qy):
            for oid in ids[group[leaf - 1]:group[leaf]]:
                yield oid, (x, y), dist
