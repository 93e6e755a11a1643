"""Absolute positions at one instant: k2-tree + object permutation.

The k2-tree records which cells are occupied.  Object ids are attached to
its leaves through a permutation: list the present objects cell by cell in
leaf order, and write down each one's presence rank (its 0-based rank among
the present ids).  A companion bitmap Q marks group boundaries — 1 for a
non-final member of a cell's group, 0 for the last — so the group of the
i-th occupied leaf sits between select0(Q, i-1)+1 and select0(Q, i).

Lookups run both ways: from an object id, presence-rank -> permutation
inverse -> Q rank gives the leaf, and the tree walks upward to the cell;
from a cell, the tree gives the leaf rank and Q + the permutation give the
ids.  A presence bitmap over all object ids maps between global ids and
presence ranks (objects may be absent from any given snapshot).

The ids absent here that appear before the next snapshot, and those that
stopped emitting in the portion before, follow from the logs' AA and D
events; ``LogStore.appearing`` and ``LogStore.disappeared`` list them.
"""

import numpy as np

from .bits import BitVector, Permutation
from .k2tree import K2Tree, path_keys


class Snapshot:
    def __init__(self, time, tree, present, perm, q):
        if not (present.n_ones == len(perm) == len(q)) or q.n_zeros != tree.n_leaves():
            raise ValueError("presence bitmap, permutation, Q bitmap and k2-tree disagree")
        self.time = time
        self.tree = tree
        self.present = present
        self.perm = perm
        self.q = q

    @classmethod
    def build(cls, time, positions, k, side, n_objects, sample_rate=5):
        """``positions``: (object id, x, y) triples, at most one per object."""
        if positions:
            oids = np.asarray([p[0] for p in positions], dtype=np.int64)
            xs = np.asarray([p[1] for p in positions], dtype=np.int64)
            ys = np.asarray([p[2] for p in positions], dtype=np.int64)
        else:
            oids = xs = ys = np.zeros(0, dtype=np.int64)
        if len(np.unique(oids)) != len(oids):
            raise ValueError("duplicate object in snapshot input")
        order0 = np.argsort(oids)
        oids, xs, ys = oids[order0], xs[order0], ys[order0]
        present_bits = np.zeros(n_objects, dtype=np.uint8)
        present_bits[oids] = 1
        tree = K2Tree.build(k, side, xs, ys)
        # arrange presence ranks (0..m-1, ascending id) by leaf then id
        keys = path_keys(k, side, xs, ys)
        order = np.lexsort((np.arange(len(oids)), keys))
        perm = Permutation(order, sample_rate)
        keys_sorted = keys[order]
        q_bits = np.zeros(len(oids), dtype=np.uint8)
        if len(oids):
            q_bits[:-1] = (keys_sorted[1:] == keys_sorted[:-1]).astype(np.uint8)
        return cls(time, tree, BitVector(present_bits), perm, BitVector(q_bits))

    def find_object(self, oid):
        """Cell of an object, or None when it is absent from this snapshot."""
        if not self.present.bit(oid + 1):
            return None
        rank = self.present.rank1(oid + 1) - 1
        pos = self.perm.inverse(rank)
        leaf = self.q.rank0(pos) + 1
        return self.tree.locate(leaf)

    def _group_ids(self, leaf_rank):
        start = self.q.select0(leaf_rank - 1) + 1
        end = self.q.select0(leaf_rank)
        out = []
        for pos in range(start, end + 1):
            rank = self.perm.apply(pos - 1)
            out.append(self.present.select1(rank + 1) - 1)
        return out

    def objects_in_region(self, region):
        """(object id, position) pairs inside a region, in leaf/group order."""
        if region is None:
            return []
        out = []
        for x, y, leaf in self.tree.range_report(region):
            for oid in self._group_ids(leaf):
                out.append((oid, (x, y)))
        return out

    def candidates_by_distance(self, qx, qy):
        """Present objects in non-decreasing distance from (qx, qy).

        Yields (object id, position, distance), the objects of each cell
        from the k2-tree's cell stream.  Because that stream is globally
        ordered, a consumer may stop at the first entry whose distance
        exceeds its cut-off.
        """
        for x, y, leaf, dist in self.tree.nodes_by_distance(qx, qy):
            for oid in self._group_ids(leaf):
                yield oid, (x, y), dist
